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
    values differ by more than ``threshold``.  ``distributions`` holds the
    distributions the verdict compared, keyed by sender choice (prefixed by
    Bob's axis for the Tsirelson box): exact ones, or the empirical pmfs of
    sampled runs.  ``runs`` holds the runs themselves under the same keys,
    as a CSV report prints them: exact distributions, or sampled runs with
    their per-trial sums.  For the three-party box ``distributions`` keeps
    only the receivers' (A_x, B_x), all its verdict compares, while its
    sampled runs, and exact ones asked for as ``joint``, keep Jim's
    component too.  Neither goes into the verdict's JSON.
    """

    scenario: ScenarioKind
    n_rounds: int
    mode: RunMode
    statistic: Statistic
    values: tuple[Fraction | float, Fraction | float]
    distinguishable: bool
    threshold: Fraction | float
    seed: int
    extras: dict = field(default_factory=dict)
    distributions: dict[str, ExactDistribution] = field(default_factory=dict, repr=False)
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


def variance_signature(dist: ExactDistribution | EnsembleRun) -> dict[str, Fraction | float]:
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


def unary_condition_check(
    dist_0: ExactDistribution,
    dist_1: ExactDistribution,
    *,
    threshold: Fraction | float = Fraction(0),
    include_joint: bool = False,
) -> dict:
    """Do the receivers' separate statistics hide the remote choice?

    Compares, per component label shared by the two distributions, the
    marginal outcome distributions across the choices.  ``include_joint``
    additionally compares the joint distribution over the shared
    components, which is the stronger collective statistic.  The default
    zero threshold suits exact distributions; sampled ones need their own.
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
    holds = _passes(max_tv, threshold)
    report = {
        "holds": holds,
        "max_marginal_tv": max_tv,
        "per_component": per_component,
        "threshold": threshold,
    }
    if include_joint:
        joint_0 = dist_0.marginal(tuple(dist_0.labels.index(lab) for lab in common))
        joint_1 = dist_1.marginal(tuple(dist_1.labels.index(lab) for lab in common))
        joint_tv = total_variation(joint_0, joint_1)
        report["joint_tv"] = joint_tv
        report["holds"] = holds and _passes(joint_tv, threshold)
    return report


def jamming_unary_exact() -> dict:
    """Exact unary-condition check for the three-party jamming setup.

    Alice's and Bob's x marginals, and even their joint distribution, are
    identical whether Jim measures x or z, so the check holds with total
    variation exactly zero.
    """
    return unary_condition_check(jamming_round_pmf("x"), jamming_round_pmf("z"), include_joint=True)


def _mode_value(value, mode: RunMode):
    """Report rationals in exact mode, floats in sampled mode.

    Empirical pmfs are exact over the sample, so their statistics come out
    as Fractions; rendering them as floats keeps sampled reports uniform.
    """
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


def _verdict(
    spec: ScenarioSpec, statistic: Statistic, values: tuple, extras: dict, runs: dict, dists: dict
) -> SignalingVerdict:
    """The verdict on ``values``, thresholded as the spec's mode requires."""
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
        extras=extras,
        distributions=dists,
        runs=runs,
    )


def pr_verdict(
    n_rounds: int, mode: RunMode, trials: int = 100_000, seed: int = 0, joint: bool = False
) -> SignalingVerdict:
    """Distinguishability of Alice's choice from Bob's joint (B, B') readout.

    The statistic is total variation against the choice-0 reference, so
    values are (0, TV between the two joint distributions).  The variance
    signatures of B+B' and B-B' under each choice ride along as extras.
    ``joint`` changes nothing: the runs already hold both of Bob's components.
    """
    spec = ScenarioSpec(kind=ScenarioKind.PR_BOX, n_rounds=n_rounds, trials=trials, seed=seed, mode=mode)
    runs = _run_choices(spec)
    dists = _distributions(runs, mode)
    values = (_mode_value(Fraction(0), mode), _mode_value(total_variation(dists["u"], dists["p"]), mode))
    extras = {"variance_signature": {c: variance_signature(run) for c, run in runs.items()}}
    return _verdict(spec, Statistic.TOTAL_VARIATION, values, extras, runs, dists)


def tsirelson_verdict(
    n_rounds: int, mode: RunMode, trials: int = 100_000, seed: int = 0, joint: bool = False
) -> SignalingVerdict:
    """Distinguishability of Alice's choice from Bob's two collectives.

    Bob's accessible collectives are the z and x ensemble averages (the
    rescaled sum and difference of his two tilted observables); the
    verdict statistic is the worse of the two total variations.  ``joint``
    changes nothing: each run holds Bob's one component, all there is.
    """
    spec = ScenarioSpec(kind=ScenarioKind.TSIRELSON, n_rounds=n_rounds, trials=trials, seed=seed, mode=mode)
    runs = {
        f"{axis}|{choice}": run
        for axis in ("z", "x")
        for choice, run in _run_choices(spec, bob_axis=axis).items()
    }
    dists = _distributions(runs, mode)
    tvs = {
        axis: _mode_value(total_variation(dists[f"{axis}|u"], dists[f"{axis}|p"]), mode)
        for axis in ("z", "x")
    }
    variances = {
        axis: {c: runs[f"{axis}|{c}"].variance((1,)) for c in ("u", "p")} for axis in ("z", "x")
    }
    values = (_mode_value(Fraction(0), mode), max(tvs.values()))
    extras = {"tv_per_axis": tvs, "collective_variance": variances}
    return _verdict(spec, Statistic.TOTAL_VARIATION, values, extras, runs, dists)


def ghz_verdict(
    n_rounds: int, mode: RunMode, trials: int = 100_000, seed: int = 0, joint: bool = False
) -> SignalingVerdict:
    """Can Alice and Bob learn Jim's basis choice from their x collectives?

    The statistic follows the rare-event argument: the probability that
    both A_x and B_x come out +1 in every round is 2^-2N whether Jim
    measures x or y.  The total variation over the joint (A_x, B_x)
    distribution rides along as the strongest accessible comparison.

    Every statistic is a function of the receivers' (A_x, B_x) pair, so
    ``distributions`` holds theirs alone.  Exact mode convolves only their
    round marginal, and with ``joint`` also runs the whole (A_x, B_x, J)
    joint into ``runs``, for a report that prints it.  Sampled runs always
    draw whole triplets, so their draws do not depend on what a report
    prints, and only the receivers' two columns are histogrammed.
    """
    spec = ScenarioSpec(kind=ScenarioKind.GHZ, n_rounds=n_rounds, trials=trials, seed=seed, mode=mode)
    if mode is RunMode.EXACT:
        receivers = _run_choices(spec, receivers_only=True)
        runs = _run_choices(spec) if joint else receivers
    else:
        runs = _run_choices(spec)
        receivers = _distributions({c: run.marginal(GHZ_RECEIVERS) for c, run in runs.items()}, mode)
    hits = tuple(_mode_value(receivers[c].probability((1, 1)), mode) for c in ("u", "p"))
    tv_joint = total_variation(receivers["u"], receivers["p"])
    extras = {"tv_joint_receiver": _mode_value(tv_joint, mode)}
    return _verdict(spec, Statistic.CONDITIONAL_PROBABILITY, hits, extras, runs, receivers)


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
