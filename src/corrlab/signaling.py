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
from typing import Mapping

from .ensembles import (
    GHZ_RECEIVERS,
    SCENARIO_RUNNERS,
    EnsembleRun,
    ExactDistribution,
    JammingRecords,
    RunMode,
    ScenarioKind,
    ScenarioSpec,
    jamming_exact_distribution,
    marginal_mapping,
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
    trials: int | None = None
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


def _as_mapping(obj) -> tuple[dict, tuple[str, ...] | None, int | None]:
    """Coerce a distribution-like object to (mapping, labels, n_rounds)."""
    if isinstance(obj, ExactDistribution):
        return obj.as_mapping(), obj.labels, obj.n_rounds
    if isinstance(obj, JammingRecords):
        return obj.empirical(), obj.labels, obj.n_rounds
    if isinstance(obj, Mapping):
        mapping = dict(obj)
        total = sum(mapping.values())
        exact = all(isinstance(p, Fraction) for p in mapping.values())
        if (exact and total != 1) or (not exact and abs(float(total) - 1.0) > 1e-9):
            raise ValueError(f"distribution sums to {total!r}, not 1")
        return mapping, None, None
    raise TypeError(f"cannot interpret {type(obj).__name__} as a distribution")


def total_variation(p, q) -> Fraction | float:
    """(1/2) * sum of |p - q| over the union of supports.

    Exact rationals in, exact rational out.  Distributions carrying
    metadata must agree on their round count and component labels.
    """
    mp, labels_p, n_p = _as_mapping(p)
    mq, labels_q, n_q = _as_mapping(q)
    if n_p is not None and n_q is not None and n_p != n_q:
        raise LatticeMismatchError(f"round counts differ: {n_p} vs {n_q}")
    if labels_p is not None and labels_q is not None and labels_p != labels_q:
        raise LatticeMismatchError(f"components differ: {labels_p} vs {labels_q}")
    zero = Fraction(0)
    acc = zero
    for key in set(mp) | set(mq):
        acc = acc + abs(mp.get(key, zero) - mq.get(key, zero))
    half = acc / 2
    return half if isinstance(half, Fraction) else float(half)


def variance_signature(dist) -> dict[str, Fraction | float]:
    """Variances of the sum and difference of a two-component collective."""
    if isinstance(dist, (ExactDistribution, EnsembleRun)):
        if len(dist.labels) != 2:
            raise ValueError("variance signature needs exactly two components")
        return {
            "var_sum": dist.variance((1, 1)),
            "var_diff": dist.variance((1, -1)),
        }
    raise TypeError(f"cannot compute variances of {type(dist).__name__}")


def _passes(tv, threshold) -> bool:
    if threshold == 0:
        return tv == 0
    return tv < threshold


def unary_condition_check(records_0, records_1, *, threshold=None, include_joint: bool = False) -> dict:
    """Do the receivers' separate statistics hide the remote choice?

    Compares, per component label shared by the two record sets, the
    marginal outcome distributions across the choices.  ``include_joint``
    additionally compares the joint distribution over the shared
    components, which is the stronger collective statistic.
    """
    m0, labels_0, n_0 = _as_mapping(records_0)
    m1, labels_1, n_1 = _as_mapping(records_1)
    if labels_0 is None or labels_1 is None:
        raise ValueError("unary check needs labeled record sets")
    if n_0 != n_1:
        raise LatticeMismatchError(f"round counts differ: {n_0} vs {n_1}")
    common = [lab for lab in labels_0 if lab in labels_1]
    if not common:
        raise ValueError("record sets share no component labels")
    if threshold is None:
        exact = isinstance(records_0, ExactDistribution) and isinstance(records_1, ExactDistribution)
        if exact:
            threshold = Fraction(0)
        else:
            trials = min(getattr(records_0, "trials", 0), getattr(records_1, "trials", 0))
            if trials < 1:
                raise ValueError("need an explicit threshold for unlabeled sample sizes")
            threshold = 5.0 / math.sqrt(trials)
    per_component: dict[str, Fraction | float] = {}
    for lab in common:
        i0 = labels_0.index(lab)
        i1 = labels_1.index(lab)
        tv = total_variation(marginal_mapping(m0, (i0,)), marginal_mapping(m1, (i1,)))
        per_component[lab] = tv
    max_tv = max(per_component.values())
    holds = _passes(max_tv, threshold)
    report = {
        "holds": holds,
        "max_marginal_tv": max_tv,
        "per_component": per_component,
        "threshold": threshold,
    }
    if include_joint:
        idx0 = tuple(labels_0.index(lab) for lab in common)
        idx1 = tuple(labels_1.index(lab) for lab in common)
        joint_tv = total_variation(marginal_mapping(m0, idx0), marginal_mapping(m1, idx1))
        report["joint_tv"] = joint_tv
        report["holds"] = holds and _passes(joint_tv, threshold)
    return report


def jamming_unary_exact() -> dict:
    """Exact unary-condition check for the three-party jamming setup.

    Alice's and Bob's x marginals, and even their joint distribution, are
    identical whether Jim measures x or z, so the check holds with total
    variation exactly zero.
    """
    d_x = jamming_exact_distribution("x")
    d_z = jamming_exact_distribution("z")
    return unary_condition_check(d_x, d_z, include_joint=True)


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
    return {
        key: ExactDistribution.from_mapping(run.empirical(), run.labels, run.n_rounds)
        for key, run in runs.items()
    }


def _verdict(
    spec: ScenarioSpec, statistic: Statistic, values: tuple, extras: dict, runs: dict, dists: dict
) -> SignalingVerdict:
    """The verdict on ``values``, thresholded as the spec's mode requires."""
    sampled = spec.mode is RunMode.MONTE_CARLO
    threshold = 5.0 / math.sqrt(spec.trials) if sampled else Fraction(0)
    return SignalingVerdict(
        scenario=spec.kind,
        n_rounds=spec.n_rounds,
        mode=spec.mode,
        statistic=statistic,
        values=values,
        distinguishable=not _passes(abs(values[1] - values[0]), threshold),
        threshold=threshold,
        seed=spec.seed,
        trials=spec.trials if sampled else None,
        extras=extras,
        distributions=dists,
        runs=runs,
    )


def pr_verdict(n_rounds: int, mode: RunMode, trials: int = 100_000, seed: int = 0) -> SignalingVerdict:
    """Distinguishability of Alice's choice from Bob's joint (B, B') readout.

    The statistic is total variation against the choice-0 reference, so
    values are (0, TV between the two joint distributions).  The variance
    signatures of B+B' and B-B' under each choice ride along as extras.
    """
    spec = ScenarioSpec(kind=ScenarioKind.PR_BOX, n_rounds=n_rounds, trials=trials, seed=seed, mode=mode)
    runs = _run_choices(spec)
    dists = _distributions(runs, mode)
    values = (_mode_value(Fraction(0), mode), _mode_value(total_variation(dists["u"], dists["p"]), mode))
    extras = {"variance_signature": {c: variance_signature(run) for c, run in runs.items()}}
    return _verdict(spec, Statistic.TOTAL_VARIATION, values, extras, runs, dists)


def tsirelson_verdict(n_rounds: int, mode: RunMode, trials: int = 100_000, seed: int = 0) -> SignalingVerdict:
    """Distinguishability of Alice's choice from Bob's two collectives.

    Bob's accessible collectives are the z and x ensemble averages (the
    rescaled sum and difference of his two tilted observables); the
    verdict statistic is the worse of the two total variations.
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
    one = Fraction(1)
    hits = tuple(
        _mode_value(receivers[c].probability(lambda v: v[0] == one and v[1] == one), mode)
        for c in ("u", "p")
    )
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

    Only ``ghz_verdict`` reads ``joint``; the other kinds' runs hold every component.
    """
    if kind not in _VERDICTS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    if kind is ScenarioKind.GHZ:
        return ghz_verdict(n_rounds, mode, trials, seed, joint)
    return _VERDICTS[kind](n_rounds, mode, trials, seed)
