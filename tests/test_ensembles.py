from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from corrlab import ensembles
from corrlab.ensembles import (
    EXACT_MAX_ROUNDS,
    EnsembleRun,
    ExactDistribution,
    JammingRecords,
    RunMode,
    ScenarioKind,
    ScenarioSpec,
    _sample_outcome_rows,
    convolve_iid_rounds,
    ghz_round_pmf,
    jamming_exact_distribution,
    jamming_round_pmf,
    pr_round_pmf,
    run_ghz_scenario,
    run_jamming_scenario,
    run_pr_scenario,
    run_tsirelson_scenario,
    scenario_exact_distribution,
    snap_dyadic,
    snap_pmf,
    tsirelson_round_pmf,
)
from corrlab.errors import InvariantViolation

HALF = Fraction(1, 2)


def spec(kind, n, choice="u", mode=RunMode.EXACT, trials=1000, seed=0, **kw):
    return ScenarioSpec(
        kind=kind, n_rounds=n, sender_choice=choice, trials=trials, seed=seed, mode=mode, **kw
    )


class TestSpecValidation:
    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError, match="at least 1"):
            spec(ScenarioKind.PR_BOX, 0)

    def test_exact_round_cap(self):
        with pytest.raises(ValueError, match=str(EXACT_MAX_ROUNDS)):
            spec(ScenarioKind.PR_BOX, EXACT_MAX_ROUNDS + 1)
        assert spec(ScenarioKind.PR_BOX, 30, mode=RunMode.MONTE_CARLO).n_rounds == 30

    def test_rejects_bad_choice(self):
        with pytest.raises(ValueError, match="sender_choice"):
            spec(ScenarioKind.PR_BOX, 4, choice="x")

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError, match="trials"):
            spec(ScenarioKind.PR_BOX, 4, mode=RunMode.MONTE_CARLO, trials=0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            spec(ScenarioKind.PR_BOX, 4, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            spec(ScenarioKind.PR_BOX, 4, seed=2**64)

    def test_keep_rounds_resolution(self):
        # Round records are kept only on request, whatever the sample size.
        for n, trials in ((4, 100), (11, 10**6)):
            s = spec(ScenarioKind.PR_BOX, n, mode=RunMode.MONTE_CARLO, trials=trials)
            assert s.keep_rounds is False


class TestSnapping:
    def test_snaps_exact_dyadics(self):
        assert snap_dyadic(0.25) == Fraction(1, 4)
        assert snap_dyadic(0.125) == Fraction(1, 8)
        assert snap_dyadic(0.0) == 0

    def test_tolerates_float_noise(self):
        assert snap_dyadic(0.5 + 1e-13) == HALF

    def test_rejects_non_dyadic(self):
        for bad in (0.3, 1 / 3, 0.1):
            with pytest.raises(InvariantViolation, match="dyadic"):
                snap_dyadic(bad)

    def test_snap_pmf_drops_zeros_and_validates_total(self):
        out = snap_pmf({(1,): 0.5, (-1,): 0.5, (0,): 0.0})
        assert out == {(1,): HALF, (-1,): HALF}
        with pytest.raises(InvariantViolation, match="sums to"):
            snap_pmf({(1,): 0.5, (-1,): 0.375})


SHIPPED_ROUND_PMFS = {
    **{f"pr-{c}": pr_round_pmf(c) for c in "up"},
    **{f"tsirelson-{c}{axis}": tsirelson_round_pmf(c, axis) for c in "up" for axis in "zx"},
    **{f"ghz-{c}": ghz_round_pmf(c) for c in "up"},
}


@st.composite
def dyadic_round_pmfs(draw, max_exp=10):
    """Round pmfs over k in 1..3 components of +1/-1, with dyadic denominators up to 2^max_exp."""
    k = draw(st.integers(min_value=1, max_value=3))
    scale = 2 ** draw(st.integers(min_value=0, max_value=max_exp))
    atoms = draw(
        st.lists(
            st.sampled_from(list(itertools.product((1, -1), repeat=k))),
            min_size=1,
            max_size=min(2**k, scale),
            unique=True,
        )
    )
    cuts = draw(
        st.lists(
            st.integers(min_value=1, max_value=max(scale - 1, 1)),
            min_size=len(atoms) - 1,
            max_size=len(atoms) - 1,
            unique=True,
        )
    )
    bounds = [0, *sorted(cuts), scale]
    return {atom: Fraction(hi - lo, scale) for atom, lo, hi in zip(atoms, bounds, bounds[1:])}


class TestConvolution:
    @given(dyadic_round_pmfs(), st.integers(min_value=1, max_value=12))
    @example({(1,): Fraction(1)}, 12)
    @example({(-1, 1, -1): Fraction(1)}, 7)
    @example({(1,): Fraction(1023, 1024), (-1,): Fraction(1, 1024)}, 12)
    @example({(1, 1, 1): Fraction(1, 1024), (-1, -1, -1): Fraction(1023, 1024)}, 12)
    @settings(max_examples=200)
    def test_matches_dict_convolution(self, pmf, n):
        got = convolve_iid_rounds(pmf, n)
        want = oracles.convolve_by_dict(pmf, n)
        assert got == want
        assert list(got) == sorted(want)

    @pytest.mark.parametrize("name", sorted(SHIPPED_ROUND_PMFS))
    def test_shipped_round_pmfs_at_exact_limit(self, name):
        pmf = SHIPPED_ROUND_PMFS[name]
        got = convolve_iid_rounds(pmf, EXACT_MAX_ROUNDS)
        want = oracles.convolve_by_dict(pmf, EXACT_MAX_ROUNDS)
        assert got == want
        assert list(got) == sorted(want)

    def test_rejects_mixed_arity(self):
        with pytest.raises(ValueError, match="arities"):
            convolve_iid_rounds({(1,): HALF, (1, -1): HALF}, 2)

    @pytest.mark.parametrize("outcome", [(0,), (2,), (1, 3)])
    def test_rejects_entries_outside_plus_minus_one(self, outcome):
        other = (-1,) * len(outcome)
        with pytest.raises(ValueError, match="outside"):
            convolve_iid_rounds({outcome: HALF, other: HALF}, 2)

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match="negative"):
            convolve_iid_rounds({(1,): Fraction(3, 2), (-1,): -HALF}, 2)

    def test_matches_bruteforce_for_pr_rounds(self):
        for choice in ("u", "p"):
            pmf = pr_round_pmf(choice)
            for n in (1, 2, 3, 6, 10):
                got = convolve_iid_rounds(pmf, n)
                want = oracles.iid_sum_bruteforce(pmf, n)
                assert got == want

    def test_matches_bruteforce_for_ghz_rounds(self):
        for choice in ("u", "p"):
            pmf = ghz_round_pmf(choice)
            for n in (1, 2, 3, 4):
                assert convolve_iid_rounds(pmf, n) == oracles.iid_sum_bruteforce(pmf, n)

    @given(
        st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=2),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40)
    def test_mean_and_variance_scale_linearly(self, weights, n):
        total = sum(weights)
        pmf = {(1,): Fraction(weights[0], total), (-1,): Fraction(weights[1], total)}
        convolved = convolve_iid_rounds(pmf, n)
        assert sum(convolved.values()) == 1
        m1 = sum(p * k[0] for k, p in pmf.items())
        v1 = sum(p * k[0] * k[0] for k, p in pmf.items()) - m1 * m1
        mn = sum(p * k[0] for k, p in convolved.items())
        vn = sum(p * k[0] * k[0] for k, p in convolved.items()) - mn * mn
        assert mn == n * m1
        assert vn == n * v1


class TestExactDistribution:
    def _pr_n2(self):
        return scenario_exact_distribution(spec(ScenarioKind.PR_BOX, 2))

    def test_support_is_sorted_and_normalized(self):
        dist = self._pr_n2()
        assert dist.support == tuple(sorted(dist.support))
        assert sum(dist.probs, Fraction(0)) == 1
        assert dist.as_mapping() == {
            (Fraction(-1), Fraction(-1)): Fraction(1, 4),
            (Fraction(0), Fraction(0)): HALF,
            (Fraction(1), Fraction(1)): Fraction(1, 4),
        }

    def test_probability(self):
        dist = self._pr_n2()
        one = Fraction(1)
        assert dist.probability(lambda v: v[0] == one) == Fraction(1, 4)
        assert dist.probability(lambda v: v[0] >= 0) == Fraction(3, 4)
        assert dist.probability(lambda v: True) == 1
        assert dist.probability(lambda v: v[0] == Fraction(1, 3)) == 0

    def test_marginal(self):
        dist = self._pr_n2()
        marg = dist.marginal((0,))
        assert marg.labels == ("B",)
        assert marg.as_mapping() == {
            (Fraction(-1),): Fraction(1, 4),
            (Fraction(0),): HALF,
            (Fraction(1),): Fraction(1, 4),
        }

    def test_mean_and_variance(self):
        dist = self._pr_n2()
        assert dist.mean((1, 0)) == 0
        assert dist.variance((1, 0)) == HALF  # Var(B) = 1/N
        assert dist.variance((1, 1)) == 2  # Var(B + B') = 4/N under "u"
        assert dist.variance((1, -1)) == 0

    def test_lattice_validation(self):
        with pytest.raises(ValueError, match="lattice"):
            ExactDistribution(
                labels=("B",),
                support=((Fraction(1, 3),),),
                probs=(Fraction(1),),
                n_rounds=2,
            )

    @pytest.mark.parametrize("value, n", [(Fraction(0), 1), (Fraction(0), 3), (HALF, 2), (HALF, 6)])
    def test_lattice_parity_validation(self, value, n):
        # N*v must have the parity of N: a sum of N +1/-1 outcomes.
        with pytest.raises(ValueError, match="lattice"):
            ExactDistribution(labels=("B",), support=((value,),), probs=(Fraction(1),), n_rounds=n)

    def test_probability_sum_validation(self):
        with pytest.raises(ValueError, match="sum to exactly 1"):
            ExactDistribution(
                labels=("B",),
                support=((Fraction(1),),),
                probs=(HALF,),
                n_rounds=1,
            )

    def test_negative_probability_validation(self):
        with pytest.raises(ValueError, match="negative"):
            ExactDistribution(
                labels=("B",),
                support=((Fraction(1),), (Fraction(-1),)),
                probs=(Fraction(3, 2), -HALF),
                n_rounds=1,
            )

    def test_duplicate_support_validation(self):
        for support in (((Fraction(1),), (Fraction(1),)), ((Fraction(1),), (Fraction(-1),), (Fraction(1),))):
            probs = tuple(Fraction(1, len(support)) for _ in support)
            with pytest.raises(ValueError, match="twice"):
                ExactDistribution(labels=("B",), support=support, probs=probs, n_rounds=1)

    def test_arity_validation(self):
        with pytest.raises(ValueError, match="arity"):
            ExactDistribution(
                labels=("B", "B_prime"),
                support=((Fraction(1),),),
                probs=(Fraction(1),),
                n_rounds=1,
            )

    def test_json_shape(self):
        rows = self._pr_n2().to_json_obj()
        assert rows[0] == {"value": ["-1/1", "-1/1"], "numerator": 1, "denominator": 4}


class TestMaximalBoxScenario:
    def test_readout_identity_under_each_choice(self):
        for n in (1, 3, 6):
            du = scenario_exact_distribution(spec(ScenarioKind.PR_BOX, n, "u"))
            dp = scenario_exact_distribution(spec(ScenarioKind.PR_BOX, n, "p"))
            assert all(v[1] == v[0] for v in du.support)
            assert all(v[1] == -v[0] for v in dp.support)

    def test_collective_marginal_is_binomial(self):
        for choice in ("u", "p"):
            dist = scenario_exact_distribution(spec(ScenarioKind.PR_BOX, 6, choice))
            marg = dist.marginal((0,)).as_mapping()
            want = {(k,): v for k, v in oracles.binomial_collective_pmf(6).items()}
            assert marg == want

    def test_matches_bruteforce_joint(self):
        for choice in ("u", "p"):
            for n in (1, 2, 5):
                dist = scenario_exact_distribution(spec(ScenarioKind.PR_BOX, n, choice))
                assert dist.as_mapping() == oracles.pr_bruteforce_joint(n, choice)

    def test_labels(self):
        dist = scenario_exact_distribution(spec(ScenarioKind.PR_BOX, 2))
        assert dist.labels == ("B", "B_prime")

    def test_kind_guard(self):
        with pytest.raises(ValueError, match="PR_BOX"):
            run_pr_scenario(spec(ScenarioKind.GHZ, 2))


class TestGhzScenario:
    def test_round_pmf_matches_symbolic_born_rule(self):
        for choice, jim_factor in (("u", "X"), ("p", "Y")):
            pmf = ghz_round_pmf(choice)
            exact = oracles.symbolic_joint_pmf(oracles.ghz_vector(), ("X", "X", jim_factor))
            assert pmf == {k: v for k, v in exact.items() if v}

    def test_x_choice_support_parity(self):
        # with Jim on x every triplet satisfies a*b*j = -1
        pmf = ghz_round_pmf("u")
        assert len(pmf) == 4
        for (a, b, j), p in pmf.items():
            assert a * b * j == -1
            assert p == Fraction(1, 4)

    def test_y_choice_is_uniform(self):
        pmf = ghz_round_pmf("p")
        assert len(pmf) == 8
        assert set(pmf.values()) == {Fraction(1, 8)}

    def test_labels_follow_jim_axis(self):
        assert scenario_exact_distribution(spec(ScenarioKind.GHZ, 1, "u")).labels == (
            "A_x",
            "B_x",
            "J_x",
        )
        assert scenario_exact_distribution(spec(ScenarioKind.GHZ, 1, "p")).labels == (
            "A_x",
            "B_x",
            "J_y",
        )

    def test_kind_guard(self):
        with pytest.raises(ValueError, match="GHZ"):
            run_ghz_scenario(spec(ScenarioKind.PR_BOX, 2))


class TestTsirelsonScenario:
    def test_round_pmf_is_unbiased(self):
        for choice in ("u", "p"):
            for axis in ("z", "x"):
                assert tsirelson_round_pmf(choice, axis) == {(1,): HALF, (-1,): HALF}

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="bob_axis"):
            tsirelson_round_pmf("u", "y")

    def test_collective_is_binomial(self):
        dist = scenario_exact_distribution(spec(ScenarioKind.TSIRELSON, 6))
        want = {(k,): v for k, v in oracles.binomial_collective_pmf(6).items()}
        assert dist.as_mapping() == want
        assert dist.labels == ("bob_z",)

    def test_axis_label(self):
        run = run_tsirelson_scenario(spec(ScenarioKind.TSIRELSON, 2), bob_axis="x")
        assert run.labels == ("bob_x",)

    def test_kind_guard(self):
        with pytest.raises(ValueError, match="TSIRELSON"):
            run_tsirelson_scenario(spec(ScenarioKind.GHZ, 2))


class TestMonteCarlo:
    def test_deterministic_replay(self):
        s = spec(ScenarioKind.PR_BOX, 6, mode=RunMode.MONTE_CARLO, trials=500, seed=9)
        a = run_pr_scenario(s)
        b = run_pr_scenario(s)
        assert np.array_equal(a.sums, b.sums)

    def test_streams_differ_by_seed_and_choice(self):
        base = dict(mode=RunMode.MONTE_CARLO, trials=500, seed=9)
        a = run_pr_scenario(spec(ScenarioKind.PR_BOX, 6, "u", **base))
        b = run_pr_scenario(
            spec(ScenarioKind.PR_BOX, 6, "u", mode=RunMode.MONTE_CARLO, trials=500, seed=10)
        )
        assert not np.array_equal(a.sums, b.sums)
        # the "p" stream is distinct, not a reuse of the "u" stream
        c = run_pr_scenario(spec(ScenarioKind.PR_BOX, 6, "p", **base))
        assert not np.array_equal(a.sums[:, 0], c.sums[:, 0])

    def test_scenario_streams_are_separate(self):
        base = dict(mode=RunMode.MONTE_CARLO, trials=500, seed=9)
        pr = run_pr_scenario(spec(ScenarioKind.PR_BOX, 6, "u", **base))
        ts = run_tsirelson_scenario(spec(ScenarioKind.TSIRELSON, 6, "u", **base))
        assert not np.array_equal(pr.sums[:, 0], ts.sums[:, 0])

    def test_readout_identity_survives_sampling(self):
        base = dict(mode=RunMode.MONTE_CARLO, trials=2000, seed=4)
        ru = run_pr_scenario(spec(ScenarioKind.PR_BOX, 5, "u", **base))
        rp = run_pr_scenario(spec(ScenarioKind.PR_BOX, 5, "p", **base))
        assert np.array_equal(ru.sums[:, 1], ru.sums[:, 0])
        assert np.array_equal(rp.sums[:, 1], -rp.sums[:, 0])

    def test_ghz_x_parity_survives_sampling(self):
        run = run_ghz_scenario(
            spec(ScenarioKind.GHZ, 1, "u", mode=RunMode.MONTE_CARLO, trials=2000, seed=4)
        )
        prods = run.sums[:, 0] * run.sums[:, 1] * run.sums[:, 2]
        assert np.all(prods == -1)

    def test_marginal_keeps_the_chosen_columns(self):
        s = spec(ScenarioKind.GHZ, 3, "p", mode=RunMode.MONTE_CARLO, trials=50, seed=1, keep_rounds=True)
        run = run_ghz_scenario(s)
        marg = run.marginal((2, 0))
        assert marg.labels == ("J_y", "A_x")
        assert np.array_equal(marg.sums, run.sums[:, [2, 0]])
        assert np.array_equal(marg.rounds, run.rounds[:, :, [2, 0]])
        assert (marg.n_rounds, marg.seed) == (run.n_rounds, run.seed)

    def test_rounds_trace(self):
        s = spec(
            ScenarioKind.PR_BOX, 4, mode=RunMode.MONTE_CARLO, trials=50, seed=1, keep_rounds=True
        )
        run = run_pr_scenario(s)
        assert run.rounds is not None
        assert run.rounds.shape == (50, 4, 2)
        assert np.array_equal(run.rounds.sum(axis=1), run.sums)
        off = spec(ScenarioKind.PR_BOX, 4, mode=RunMode.MONTE_CARLO, trials=50, seed=1)
        assert run_pr_scenario(off).rounds is None

    @pytest.mark.parametrize(
        "runner, kind, n, choice, kwargs, digest",
        [
            (run_pr_scenario, ScenarioKind.PR_BOX, 60, "p", {},
             "1080cf6a2f1f91af9a0b8f95b3866fd6626b13c1f0262e4813591b5ac9b3153e"),
            (run_tsirelson_scenario, ScenarioKind.TSIRELSON, 6, "u", {"bob_axis": "x"},
             "edc76319b692f68e8ce22b8f0b407bdf9ebe08fcf16471614702ab0461cb5231"),
            (run_tsirelson_scenario, ScenarioKind.TSIRELSON, 6, "p", {"bob_axis": "x"},
             "704a3a377424e1723631daa7f9e38d893e49a18b366a4a1db2af94f808ed916d"),
            (run_ghz_scenario, ScenarioKind.GHZ, 60, "p", {},
             "feac3cb5f4638ff082e4b141b460b76a056d91c8d98381fc128a4df358e90d7e"),
        ],
        ids=["pr-p-60", "tsirelson-x-u-6", "tsirelson-x-p-6", "ghz-p-60"],
    )
    def test_sampled_sums_are_pinned(self, runner, kind, n, choice, kwargs, digest):
        """The seeded draws and their per-trial sums never change silently.

        The digests are those of the gather-and-sum sampler that preceded
        the per-component counts.
        """
        s = spec(kind, n, choice, mode=RunMode.MONTE_CARLO, trials=100_000, seed=0)
        run = runner(s, **kwargs)
        assert run.sums.dtype == np.int64
        assert hashlib.sha256(run.sums.tobytes()).hexdigest() == digest

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 3),
        n=st.integers(1, 1000),
        trials=st.integers(1, 500),
        spread=st.integers(0, 1000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=3, n=1000, trials=1, spread=0, seed=0)
    @example(k=2, n=7, trials=500, spread=0, seed=1)
    @example(k=3, n=1000, trials=500, spread=1000, seed=2)
    def test_empirical_matches_row_unique(self, k, n, trials, spread, seed):
        rng = np.random.default_rng(seed)
        low = rng.integers(0, n + 1, size=k)
        negatives = np.minimum(low + rng.integers(0, spread + 1, size=(trials, k)), n)
        sums = n - 2 * negatives.astype(np.int64)
        run = EnsembleRun(labels=("c",) * k, sums=sums, n_rounds=n, seed=seed)
        got = run.empirical()
        want = oracles.empirical_by_row_unique(sums, n)
        assert list(got.items()) == list(want.items())

    def test_empirical_pmf(self):
        run = run_pr_scenario(
            spec(ScenarioKind.PR_BOX, 2, mode=RunMode.MONTE_CARLO, trials=400, seed=2)
        )
        emp = run.empirical()
        assert sum(emp.values()) == 1
        assert all(v[1] == v[0] for v in emp)
        assert run.trials == 400
        np.testing.assert_allclose(run.collectives, run.sums / 2.0)

    def test_mean_and_variance_match_numpy(self):
        run = run_pr_scenario(
            spec(ScenarioKind.PR_BOX, 3, mode=RunMode.MONTE_CARLO, trials=300, seed=8)
        )
        combo = run.collectives @ np.array([1.0, -1.0])
        assert run.mean((1.0, -1.0)) == pytest.approx(float(combo.mean()))
        assert run.variance((1.0, -1.0)) == pytest.approx(float(combo.var()))

    def test_variance_needs_two_samples(self):
        run = run_pr_scenario(
            spec(ScenarioKind.PR_BOX, 3, mode=RunMode.MONTE_CARLO, trials=1, seed=8)
        )
        with pytest.raises(ValueError, match="2 samples"):
            run.variance((1.0, 1.0))

    def test_convergence_to_exact(self):
        trials = 40_000
        s = spec(ScenarioKind.PR_BOX, 4, mode=RunMode.MONTE_CARLO, trials=trials, seed=3)
        run = run_pr_scenario(s)
        exact = scenario_exact_distribution(s).as_mapping()
        emp = run.empirical()
        tv = sum(
            abs(emp.get(k, Fraction(0)) - exact.get(k, Fraction(0)))
            for k in set(emp) | set(exact)
        ) / 2
        assert float(tv) < 5.0 / math.sqrt(trials)


SAMPLER_STREAM = (7, 1)


class TestTableLookupSampler:
    """The table-lookup sampler draws what ``random`` plus ``searchsorted`` would."""

    @given(
        pmf=dyadic_round_pmfs(max_exp=16),
        n=st.integers(1, 200),
        trials=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(pmf={(1,): Fraction(1)}, n=200, trials=300, seed=0)
    @example(pmf={(-1, 1, -1): Fraction(1)}, n=3, trials=5, seed=1)
    @example(
        pmf={(1, 1, 1): Fraction(1, 2**16), (-1, -1, -1): Fraction(2**16 - 1, 2**16)},
        n=60,
        trials=300,
        seed=2,
    )
    @example(pmf=ghz_round_pmf("p"), n=60, trials=300, seed=3)
    @settings(max_examples=200, deadline=None)
    def test_matches_searchsorted(self, pmf, n, trials, seed):
        want_sums, want_rounds = oracles.sample_by_searchsorted(pmf, n, trials, seed, SAMPLER_STREAM)
        sums, rounds = _sample_outcome_rows(pmf, n, trials, seed, SAMPLER_STREAM, keep_rounds=True)
        assert np.array_equal(rounds, want_rounds)
        assert np.array_equal(sums, want_sums)
        sums, rounds = _sample_outcome_rows(pmf, n, trials, seed, SAMPLER_STREAM, keep_rounds=False)
        assert rounds is None
        assert np.array_equal(sums, want_sums)

    def test_draws_do_not_depend_on_chunk_size(self, monkeypatch):
        monkeypatch.setattr(ensembles, "_SAMPLE_CHUNK", 7)
        pmf = ghz_round_pmf("p")
        want_sums, want_rounds = oracles.sample_by_searchsorted(pmf, 5, 52, 11, SAMPLER_STREAM)
        sums, rounds = _sample_outcome_rows(pmf, 5, 52, 11, SAMPLER_STREAM, keep_rounds=True)
        assert np.array_equal(rounds, want_rounds)
        assert np.array_equal(sums, want_sums)

    @pytest.mark.parametrize(
        "pmf",
        [
            {(1,): Fraction(1, 3), (-1,): Fraction(2, 3)},
            {(1,): Fraction(1, 2**17), (-1,): Fraction(2**17 - 1, 2**17)},
            {(1,): HALF, (-1,): Fraction(1, 4)},
        ],
        ids=["third", "denominator-2^17", "sums-to-3/4"],
    )
    def test_rejects_pmfs_without_a_small_dyadic_table(self, pmf):
        with pytest.raises(InvariantViolation, match="dyadic"):
            _sample_outcome_rows(pmf, 4, 10, 0, SAMPLER_STREAM, keep_rounds=False)


class TestJamming:
    def test_round_pmf_matches_symbolic_born_rule(self):
        for choice, jim_factor in (("x", "X"), ("z", "Z")):
            pmf = jamming_round_pmf(choice)
            exact = oracles.symbolic_joint_pmf(oracles.ghz_vector(), ("X", "X", jim_factor))
            assert pmf == {k: v for k, v in exact.items() if v}

    def test_x_choice_support(self):
        pmf = jamming_round_pmf("x")
        assert len(pmf) == 4
        assert all(a * b * j == -1 for a, b, j in pmf)

    def test_z_choice_is_uniform(self):
        pmf = jamming_round_pmf("z")
        assert len(pmf) == 8
        assert set(pmf.values()) == {Fraction(1, 8)}

    def test_bad_choice(self):
        with pytest.raises(ValueError, match="jim_choice"):
            jamming_round_pmf("y")
        with pytest.raises(ValueError, match="positive"):
            run_jamming_scenario(0, "x", 10, 0)

    def test_exact_distribution(self):
        dist = jamming_exact_distribution("x")
        assert dist.labels == ("a_x", "b_x", "j_x")
        assert dist.n_rounds == 1
        assert set(dist.probs) == {Fraction(1, 4)}

    def test_records(self):
        records = run_jamming_scenario(6, "x", 200, seed=5)
        assert records.outcomes.shape == (1200, 3)
        assert records.trials == 1200
        assert records.labels == ("a_x", "b_x", "j_x")
        prods = records.outcomes.astype(np.int64).prod(axis=1)
        assert np.all(prods == -1)
        assert sum(records.empirical().values()) == 1

    def test_binned_correlations_are_exact_for_x(self):
        records = run_jamming_scenario(4, "x", 500, seed=6)
        binned = records.binned_correlations()
        assert binned[1] == -1.0
        assert binned[-1] == 1.0
        bins = records.bin_by_jim()
        assert bins[1].shape[0] + bins[-1].shape[0] == records.trials

    def test_z_choice_is_uncorrelated(self):
        records = run_jamming_scenario(5, "z", 4000, seed=6)
        assert abs(records.overall_correlation()) < 4.0 / math.sqrt(records.trials)

    def test_outcomes_are_pinned(self):
        records = run_jamming_scenario(6, "z", 100_000, seed=0)
        assert records.outcomes.dtype == np.int8
        digest = hashlib.sha256(records.outcomes.tobytes()).hexdigest()
        assert digest == "ca1ad21ca91c3bedb91a6dac4d1a38ffe0cb36fbc41cee2a110d7880668fca26"

    @settings(max_examples=100, deadline=None)
    @given(trials=st.integers(1, 500), atoms=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @example(trials=1, atoms=8, seed=0)
    @example(trials=500, atoms=1, seed=1)
    def test_empirical_matches_row_unique(self, trials, atoms, seed):
        rng = np.random.default_rng(seed)
        triplets = np.array(list(itertools.product((1, -1), repeat=3)), dtype=np.int8)
        pool = triplets[rng.permutation(8)[:atoms]]
        outcomes = pool[rng.integers(0, atoms, size=trials)]
        records = JammingRecords(jim_choice="z", outcomes=outcomes, seed=seed)
        got = records.empirical()
        want = oracles.empirical_by_row_unique(outcomes, 1)
        assert list(got.items()) == list(want.items())

    def test_replay(self):
        a = run_jamming_scenario(3, "z", 100, seed=12)
        b = run_jamming_scenario(3, "z", 100, seed=12)
        assert np.array_equal(a.outcomes, b.outcomes)
