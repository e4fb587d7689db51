"""Signaling verdicts: can the receiver's statistics reveal the sender's choice?

Runs a scenario under both of the sender's setting choices and compares
the receiver's accessible statistics.  Exact mode compares rational
distributions with a zero threshold; Monte Carlo mode uses a total
variation threshold of 5/sqrt(trials) as a smoke check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction

from . import boxes
from .ensembles import (
    GHZ_RECEIVERS,
    SCENARIO_RUNNERS,
    EnsembleRun,
    ExactDistribution,
    RunMode,
    ScenarioKind,
    ScenarioSpec,
    jamming_round_pmf,
)
from .errors import LatticeMismatchError


class Statistic(Enum):
    TOTAL_VARIATION = "total_variation"
    CONDITIONAL_PROBABILITY = "conditional_probability"


@dataclass(frozen=True, eq=False)
class SignalingVerdict:
    """Outcome of comparing receiver statistics across the sender's choices.

    ``values`` holds the designated statistic evaluated under choice 0 and
    choice 1; the receiver can tell the choices apart exactly when the two
    values differ by more than ``threshold``.  ``results`` and ``checks``
    are the scenario's whole report section besides the verdict itself:
    every statistic in them is read from the per-choice distributions the
    verdict compared (exact ones, or the empirical pmfs of sampled runs),
    as a rational in exact mode and a float in sampled mode.  ``runs``
    holds the runs under the keys of those distributions (sender choice,
    prefixed by Bob's axis for the Tsirelson box), as a CSV report prints
    them: exact distributions, or sampled runs with their per-trial sums.
    The three-party box compares only the receivers' (A_x, B_x), while its
    runs asked for as ``joint`` keep Jim's component too.
    """

    scenario: ScenarioKind
    n_rounds: int
    mode: RunMode
    statistic: Statistic
    values: tuple[Fraction | float, Fraction | float]
    distinguishable: bool
    threshold: Fraction | float
    seed: int
    results: dict = field(default_factory=dict, repr=False)
    checks: dict = field(default_factory=dict)
    runs: dict[str, ExactDistribution | EnsembleRun] = field(default_factory=dict, repr=False)

    def to_json_obj(self) -> dict:
        return {
            "scenario": self.scenario.value,
            "N": self.n_rounds,
            "mode": self.mode.value,
            "statistic": self.statistic.value,
            "values": list(self.values),
            "distinguishable": self.distinguishable,
            "threshold": self.threshold,
            "seed": self.seed,
        }


def total_variation(p: ExactDistribution, q: ExactDistribution) -> Fraction:
    """(1/2) * sum over the grid of |p - q|, exactly.

    The two distributions must share their round count and component labels.
    """
    if p.n_rounds != q.n_rounds:
        raise LatticeMismatchError(f"round counts differ: {p.n_rounds} vs {q.n_rounds}")
    if p.labels != q.labels:
        raise LatticeMismatchError(f"components differ: {p.labels} vs {q.labels}")
    dp, dq = p.denominator, q.denominator
    rest = dict(zip(q.cells, q.weights))
    total = sum(abs(a * dq - rest.pop(cell, 0) * dp) for cell, a in zip(p.cells, p.weights))
    return Fraction(total + sum(rest.values()) * dp, 2 * dp * dq)


def variance_signature(dist: ExactDistribution) -> dict[str, Fraction]:
    """Variances of the sum and difference of a two-component collective."""
    if len(dist.labels) != 2:
        raise ValueError("variance signature needs exactly two components")
    return {
        "var_sum": dist.variance((1, 1)),
        "var_diff": dist.variance((1, -1)),
    }


def _passes(tv, threshold) -> bool:
    if threshold == 0:
        return tv == 0
    return tv < threshold


def unary_condition_check(dist_0: ExactDistribution, dist_1: ExactDistribution) -> dict:
    """Do the receivers' separate statistics hide the remote choice?

    Compares, per component label shared by the two distributions, the
    marginal outcome distributions across the choices, and then the joint
    distribution over the shared components, which is the stronger
    collective statistic.  The check holds only when every total variation
    is exactly zero.
    """
    common = [lab for lab in dist_0.labels if lab in dist_1.labels]
    if not common:
        raise ValueError("distributions share no component labels")
    per_component: dict[str, Fraction] = {}
    for lab in common:
        m0 = dist_0.marginal((dist_0.labels.index(lab),))
        m1 = dist_1.marginal((dist_1.labels.index(lab),))
        per_component[lab] = total_variation(m0, m1)
    max_tv = max(per_component.values())
    joint_0 = dist_0.marginal(tuple(dist_0.labels.index(lab) for lab in common))
    joint_1 = dist_1.marginal(tuple(dist_1.labels.index(lab) for lab in common))
    joint_tv = total_variation(joint_0, joint_1)
    return {
        "holds": max_tv == 0 and joint_tv == 0,
        "max_marginal_tv": max_tv,
        "per_component": per_component,
        "threshold": Fraction(0),
        "joint_tv": joint_tv,
    }


def jamming_unary_exact() -> dict:
    """Exact unary-condition check for the three-party jamming setup.

    Alice's and Bob's x marginals, and even their joint distribution, are
    identical whether Jim measures x or z, so the check holds with total
    variation exactly zero.
    """
    return unary_condition_check(jamming_round_pmf("x"), jamming_round_pmf("z"))


def _mode_value(value, mode: RunMode):
    """Report rationals in exact mode, floats in sampled mode, through nested dicts.

    Empirical pmfs are exact over the sample, so their statistics come out
    as Fractions; each is floated once, so a sampled report prints the
    correctly rounded statistic of its sample.
    """
    if isinstance(value, dict):
        return {key: _mode_value(v, mode) for key, v in value.items()}
    return value if mode is RunMode.EXACT else float(value)


def _run_choices(spec: ScenarioSpec, **kwargs) -> dict[str, ExactDistribution | EnsembleRun]:
    """Run the scenario once under each of the sender's choices."""
    run = SCENARIO_RUNNERS[spec.kind]
    return {choice: run(replace(spec, sender_choice=choice), **kwargs) for choice in ("u", "p")}


def _distributions(runs: dict, mode: RunMode) -> dict[str, ExactDistribution]:
    """Each run as an exact distribution: itself, or a sampled run's empirical pmf."""
    if mode is RunMode.EXACT:
        return dict(runs)
    return {key: run.empirical() for key, run in runs.items()}


def _verdict(spec: ScenarioSpec, statistic: Statistic, values: tuple, runs: dict) -> SignalingVerdict:
    """The verdict on ``values``, thresholded as the spec's mode requires.

    Its ``results`` and ``checks`` start empty for the scenario to fill in.
    """
    threshold = 5.0 / math.sqrt(spec.trials) if spec.mode is RunMode.MONTE_CARLO else Fraction(0)
    return SignalingVerdict(
        scenario=spec.kind,
        n_rounds=spec.n_rounds,
        mode=spec.mode,
        statistic=statistic,
        values=values,
        distinguishable=not _passes(abs(values[1] - values[0]), threshold),
        threshold=threshold,
        seed=spec.seed,
        runs=runs,
    )


def pr_verdict(
    n_rounds: int, mode: RunMode, trials: int = 100_000, seed: int = 0, joint: bool = False
) -> SignalingVerdict:
    """Distinguishability of Alice's choice from Bob's joint (B, B') readout.

    The statistic is total variation against the choice-0 reference, so
    values are (0, TV between the two joint distributions).  The variance
    signatures of B+B' and B-B' under each choice ride along, and exact
    runs add the rare events P(B=B'=1 | u) and P(B=1, B'=-1 | p), each
    2^-N.  ``joint`` changes nothing: the runs already hold both of Bob's
    components.
    """
    spec = ScenarioSpec(kind=ScenarioKind.PR_BOX, n_rounds=n_rounds, trials=trials, seed=seed, mode=mode)
    runs = _run_choices(spec)
    dists = _distributions(runs, mode)
    tv = total_variation(dists["u"], dists["p"])
    variance = _mode_value({c: variance_signature(dist) for c, dist in dists.items()}, mode)
    v = _verdict(spec, Statistic.TOTAL_VARIATION, (_mode_value(Fraction(0), mode), _mode_value(tv, mode)), runs)
    v.results.update(joint_distribution=dists, variance_signature=variance)
    v.checks.update(
        distinguishable=v.distinguishable,
        variance_collapse=variance["u"]["var_diff"] == 0 and variance["p"]["var_sum"] == 0,
    )
    if mode is RunMode.EXACT:
        p_joint = dists["u"].probability((1, 1))
        p_anti = dists["p"].probability((1, -1))
        v.results["rare_events"] = {"p_both_plus_under_u": p_joint, "p_plus_minus_under_p": p_anti}
        rare = Fraction(1, 2**n_rounds)
        v.checks["rare_event_match"] = p_joint == rare and p_anti == rare
    return v


def tsirelson_verdict(
    n_rounds: int, mode: RunMode, trials: int = 100_000, seed: int = 0, joint: bool = False
) -> SignalingVerdict:
    """Distinguishability of Alice's choice from Bob's two collectives.

    Bob's accessible collectives are the z and x ensemble averages (the
    rescaled sum and difference of his two tilted observables); the
    verdict statistic is the worse of the two total variations.  The
    Bell-state box's correlations and CHSH value ride along.  ``joint``
    changes nothing: each run holds Bob's one component, all there is.
    """
    spec = ScenarioSpec(kind=ScenarioKind.TSIRELSON, n_rounds=n_rounds, trials=trials, seed=seed, mode=mode)
    runs = {
        f"{axis}|{choice}": run
        for axis in ("z", "x")
        for choice, run in _run_choices(spec, bob_axis=axis).items()
    }
    dists = _distributions(runs, mode)
    tvs = _mode_value({axis: total_variation(dists[f"{axis}|u"], dists[f"{axis}|p"]) for axis in ("z", "x")}, mode)
    variances = {axis: {c: dists[f"{axis}|{c}"].variance((1,)) for c in ("u", "p")} for axis in ("z", "x")}
    v = _verdict(spec, Statistic.TOTAL_VARIATION, (_mode_value(Fraction(0), mode), max(tvs.values())), runs)
    box = boxes.make_tsirelson_box()
    chsh = boxes.chsh_value(box)
    v.results.update(
        box_correlations={f"{a}|{b}": boxes.correlation(box, (a, b)) for a in ("u", "p") for b in ("u", "p")},
        chsh=chsh,
        bob_distribution=dists,
        tv_per_axis=tvs,
        collective_variance=_mode_value(variances, mode),
    )
    v.checks.update(
        no_signaling=not v.distinguishable,
        chsh_saturates_quantum_bound=abs(float(chsh) - 2.0 * math.sqrt(2.0)) < 1e-12,
        no_signaling_box=boxes.check_no_signaling(box)["holds"],
    )
    return v


def ghz_verdict(
    n_rounds: int, mode: RunMode, trials: int = 100_000, seed: int = 0, joint: bool = False
) -> SignalingVerdict:
    """Can Alice and Bob learn Jim's basis choice from their x collectives?

    The statistic follows the rare-event argument: the probability that
    both A_x and B_x come out +1 in every round is 2^-2N whether Jim
    measures x or y.  The total variation over the joint (A_x, B_x)
    distribution rides along as the strongest accessible comparison.

    Every statistic is a function of the receivers' (A_x, B_x) pair, so
    the report's distributions are theirs alone, and only ``joint`` runs
    the whole (A_x, B_x, J) joint into ``runs``, for a report that prints
    it.  Both modes run the receivers' round marginal otherwise.  It keeps
    the round pmf's table rows, so sampled draws do not depend on what a
    report prints: a joint run's first two columns are the receivers-only
    run's sums.
    """
    spec = ScenarioSpec(kind=ScenarioKind.GHZ, n_rounds=n_rounds, trials=trials, seed=seed, mode=mode)
    if joint and mode is RunMode.MONTE_CARLO:
        runs = _run_choices(spec)
        receivers = {c: run.marginal(GHZ_RECEIVERS) for c, run in runs.items()}
    else:
        receivers = _run_choices(spec, receivers_only=True)
        runs = _run_choices(spec) if joint else receivers
    receivers = _distributions(receivers, mode)
    hits = _mode_value({c: dist.probability((1, 1)) for c, dist in receivers.items()}, mode)
    v = _verdict(spec, Statistic.CONDITIONAL_PROBABILITY, (hits["u"], hits["p"]), runs)
    v.results.update(
        hit_probability=hits,
        receiver_distribution=receivers,
        tv_joint_receiver=_mode_value(total_variation(receivers["u"], receivers["p"]), mode),
    )
    v.checks["no_signaling"] = not v.distinguishable
    if mode is RunMode.EXACT:
        # Sampled hit probabilities are two noisy estimates; only the
        # thresholded no_signaling check compares them.
        v.checks["hit_probabilities_equal"] = hits["u"] == hits["p"]
        v.checks["hit_probability_matches"] = hits["u"] == Fraction(1, 4**n_rounds)
    return v


_VERDICTS = {
    ScenarioKind.PR_BOX: pr_verdict,
    ScenarioKind.TSIRELSON: tsirelson_verdict,
    ScenarioKind.GHZ: ghz_verdict,
}


def verdict(
    kind: ScenarioKind,
    n_rounds: int = 6,
    mode: RunMode = RunMode.EXACT,
    trials: int = 100_000,
    seed: int = 0,
    joint: bool = False,
) -> SignalingVerdict:
    """Run both sender choices for a scenario and render its verdict.

    ``joint`` asks for runs that hold every component, as a CSV report prints them.
    """
    if kind not in _VERDICTS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    return _VERDICTS[kind](n_rounds, mode, trials, seed, joint)
