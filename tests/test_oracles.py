"""Checks of the oracle helpers that the acceptance gate derives bounds from."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import oracles
from corrlab.ensembles import ScenarioSpec, run_ghz_scenario

DYADIC_PMFS = (
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
    (Fraction(1, 8), Fraction(3, 8), Fraction(5, 16), Fraction(3, 16)),
    (Fraction(1, 64), Fraction(63, 64)),
)


def _bruteforce_sampling_tv(probs, trials: int) -> Fraction:
    """(1/2) E sum |count/trials - p| over the full binomial pmf of each count."""
    total = Fraction(0)
    for p in probs:
        for k in range(trials + 1):
            weight = math.comb(trials, k) * p**k * (1 - p) ** (trials - k)
            total += weight * abs(Fraction(k, trials) - p)
    return total / 2


@pytest.mark.parametrize("probs", DYADIC_PMFS)
@pytest.mark.parametrize("trials", (1, 2, 3, 8, 17, 40))
def test_expected_sampling_tv_matches_bruteforce(probs, trials):
    want = float(_bruteforce_sampling_tv(probs, trials))
    assert oracles.expected_sampling_tv(probs, trials) == pytest.approx(want, rel=1e-12)


def test_expected_sampling_tv_of_point_mass_is_zero():
    assert oracles.expected_sampling_tv((Fraction(1),), 1000) == 0.0


@pytest.mark.parametrize("choice", ("u", "p"))
@pytest.mark.parametrize("n", range(1, 7))
def test_expected_sampling_tv_matches_normal_approximation(choice, n):
    trials = 100_000
    probs = oracles.lattice_mapping(
        run_ghz_scenario(ScenarioSpec(n_rounds=n, sender_choice=choice))
    ).values()
    normal = sum(
        math.sqrt(2 * float(p) * (1 - float(p)) / (math.pi * trials)) for p in probs
    ) / 2
    assert oracles.expected_sampling_tv(probs, trials) == pytest.approx(normal, rel=0.01)
