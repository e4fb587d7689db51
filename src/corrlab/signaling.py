"""Signaling verdicts: can the receiver's statistics reveal the sender's choice?

Runs a scenario under both of the sender's choices and compares the total
variation of Bob's (B, B') distributions (PR box), the larger total
variation of his z and x collectives (Tsirelson), or the receivers' two
hit probabilities (GHZ).  Exact mode calls any difference a signal; Monte
Carlo mode calls one of 5/sqrt(trials) or more a signal whatever the
support size, which misjudges large N (ROADMAP item 1, still open).

Each verdict returns its report section as (results, checks, runs), each
statistic read from the per-choice distributions compared (exact, or the
sampled runs' empirical pmfs), a rational in exact mode and a float in
sampled mode; ``runs`` are as a CSV report prints them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from enum import Enum
from fractions import Fraction

from .ensembles import (
    GHZ_RECEIVERS,
    EnsembleRun,
    ExactDistribution,
    JammingRecords,
    RunMode,
    ScenarioSpec,
    jamming_round_pmf,
    run_ghz_scenario,
    run_jamming_scenario,
    run_pr_scenario,
    run_tsirelson_scenario,
)


class ScenarioKind(Enum):
    PR_BOX = "pr-box"
    TSIRELSON = "tsirelson"
    GHZ = "ghz"


def total_variation(p: ExactDistribution, q: ExactDistribution) -> Fraction:
    """(1/2) * sum over the grid of |p - q|, exactly.

    The two distributions must share their round count and component labels, or it raises ``ValueError``.
    """
    if p.n_rounds != q.n_rounds:
        raise ValueError(f"round counts differ: {p.n_rounds} vs {q.n_rounds}")
    if p.labels != q.labels:
        raise ValueError(f"components differ: {p.labels} vs {q.labels}")
    # Equal weights sum to equal denominators: a shared run, or an equal copy, is 0 with no walk.
    if p.cells == q.cells and p.weights == q.weights:
        return Fraction(0)
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


@functools.cache
def _jamming_unary() -> dict:
    """``jamming_unary_exact()``, the same for every jamming report, so counted once per process, on first use."""
    return jamming_unary_exact()


def jamming_verdict(n_rounds: int, jim_choice: str, trials: int, seed: int) -> tuple[dict, dict, JammingRecords]:
    """The jamming report's results and checks, and the sampled triplets they read.

    Jim on x fixes a_x*b_x = -j, so each occupied bin's correlation must be exactly -j.  Jim on z leaves
    them uncorrelated: overall and in each occupied bin, below 4/sqrt(count) of its triplets.
    """
    records = run_jamming_scenario(n_rounds, jim_choice, trials, seed)
    counts, binned, overall = records.correlations()
    unary = _jamming_unary()
    # Each report gets its own dicts, so a caller that changes one report's changes no later one.
    unary = {**unary, "per_component": dict(unary["per_component"])}
    results = {
        "jim_choice": jim_choice,
        "triplets": records.trials,
        "bin_counts": {str(j): c for j, c in counts.items()},
        "binned_correlation": {str(j): c for j, c in binned.items()},
        "overall_correlation": overall,
        "unary_condition": unary,
    }
    checks = {"unary_holds": unary["holds"]}
    if jim_choice == "x":
        checks["binned_constraint_ok"] = all(c is None or c == -j for j, c in binned.items())
    else:
        per_bin_ok = all(c is None or abs(c) < 4.0 / math.sqrt(counts[j]) for j, c in binned.items())
        checks["uncorrelated"] = abs(overall) < 4.0 / math.sqrt(records.trials) and per_bin_ok
    return results, checks, records


def _mode_value(value, mode: RunMode):
    """Report rationals in exact mode, floats in sampled mode, through nested dicts.

    Empirical pmfs are exact over the sample, so their statistics come out
    as Fractions; each is floated once, so a sampled report prints the
    correctly rounded statistic of its sample.
    """
    if isinstance(value, dict):
        return {key: _mode_value(v, mode) for key, v in value.items()}
    return value if mode is RunMode.EXACT else float(value)


def _run_choices(spec: ScenarioSpec, run, **kwargs) -> dict[str, ExactDistribution | EnsembleRun]:
    """Run the scenario runner ``run`` once under each of the sender's choices."""
    return {choice: run(replace(spec, sender_choice=choice), **kwargs) for choice in ("u", "p")}


def _distributions(runs: dict, mode: RunMode) -> dict[str, ExactDistribution]:
    """Each run as an exact distribution: itself, or a sampled run's empirical pmf."""
    if mode is RunMode.EXACT:
        return dict(runs)
    return {key: run.empirical() for key, run in runs.items()}


def _verdict(kind: ScenarioKind, spec: ScenarioSpec, statistic: str, values: tuple) -> dict:
    """A ``verdict`` entry: ``values`` that differ by the sampled threshold, or at all if exact, are distinguishable."""
    threshold = 5.0 / math.sqrt(spec.trials) if spec.mode is RunMode.MONTE_CARLO else Fraction(0)
    difference = abs(values[1] - values[0])
    return {
        "scenario": kind.value,
        "N": spec.n_rounds,
        "mode": spec.mode.value,
        "statistic": statistic,
        "values": list(values),
        "distinguishable": difference != 0 if threshold == 0 else difference >= threshold,
        "threshold": threshold,
        "seed": spec.seed,
    }


def pr_verdict(
    n_rounds: int, mode: RunMode, trials: int = 100_000, seed: int = 0, joint: bool = False
) -> tuple[dict, dict, dict[str, ExactDistribution | EnsembleRun]]:
    """Distinguishability of Alice's choice from Bob's joint (B, B') readout.

    The statistic is total variation against the choice-0 reference, so
    values are (0, TV between the two joint distributions).  The variance
    signatures of B+B' and B-B' under each choice ride along, and exact
    runs add the rare events P(B=B'=1 | u) and P(B=1, B'=-1 | p), each
    2^-N.  ``joint`` changes nothing: the runs already hold both of Bob's
    components.
    """
    spec = ScenarioSpec(n_rounds=n_rounds, trials=trials, seed=seed, mode=mode)
    runs = _run_choices(spec, run_pr_scenario)
    dists = _distributions(runs, mode)
    tv = total_variation(dists["u"], dists["p"])
    variance = _mode_value({c: variance_signature(dist) for c, dist in dists.items()}, mode)
    v = _verdict(ScenarioKind.PR_BOX, spec, "total_variation", (_mode_value(Fraction(0), mode), _mode_value(tv, mode)))
    results = {"verdict": v, "joint_distribution": dists, "variance_signature": variance}
    checks = {
        "distinguishable": v["distinguishable"],
        "variance_collapse": variance["u"]["var_diff"] == 0 and variance["p"]["var_sum"] == 0,
    }
    if mode is RunMode.EXACT:
        p_joint = dists["u"].probability((1, 1))
        p_anti = dists["p"].probability((1, -1))
        results["rare_events"] = {"p_both_plus_under_u": p_joint, "p_plus_minus_under_p": p_anti}
        rare = Fraction(1, 2**n_rounds)
        checks["rare_event_match"] = p_joint == rare and p_anti == rare
    return results, checks, runs


def tsirelson_verdict(
    n_rounds: int, mode: RunMode, trials: int = 100_000, seed: int = 0, joint: bool = False
) -> tuple[dict, dict, dict[str, ExactDistribution | EnsembleRun]]:
    """Distinguishability of Alice's choice from Bob's two collectives.

    Bob's accessible collectives are the z and x ensemble averages (the
    rescaled sum and difference of his two tilted observables); the
    verdict statistic is the worse of the two total variations.  The
    Bell-state box's correlations and CHSH value ride along.  ``joint``
    changes nothing: each run holds Bob's one component, all there is.
    Bob's round pmfs on one axis are equal in lowest terms under both
    choices, so exact runs share one object per axis: "z|u" is "z|p" and
    "x|u" is "x|p".
    """
    from . import boxes
    spec = ScenarioSpec(n_rounds=n_rounds, trials=trials, seed=seed, mode=mode)
    runs = {
        f"{axis}|{choice}": run
        for axis in ("z", "x")
        for choice, run in _run_choices(spec, run_tsirelson_scenario, bob_axis=axis).items()
    }
    dists = _distributions(runs, mode)
    tvs = _mode_value({axis: total_variation(dists[f"{axis}|u"], dists[f"{axis}|p"]) for axis in ("z", "x")}, mode)
    variances = {axis: {c: dists[f"{axis}|{c}"].variance((1,)) for c in ("u", "p")} for axis in ("z", "x")}
    v = _verdict(ScenarioKind.TSIRELSON, spec, "total_variation", (_mode_value(Fraction(0), mode), max(tvs.values())))
    box = boxes.make_tsirelson_box()
    chsh = boxes.chsh_value(box)
    results = {
        "verdict": v,
        "box_correlations": {f"{a}|{b}": boxes.correlation(box, (a, b)) for a in ("u", "p") for b in ("u", "p")},
        "chsh": chsh,
        "bob_distribution": dists,
        "tv_per_axis": tvs,
        "collective_variance": _mode_value(variances, mode),
    }
    checks = {
        "no_signaling": not v["distinguishable"],
        "chsh_saturates_quantum_bound": abs(float(chsh) - 2.0 * math.sqrt(2.0)) < 1e-12,
        "no_signaling_box": boxes.check_no_signaling(box)["holds"],
    }
    return results, checks, runs


def ghz_verdict(
    n_rounds: int, mode: RunMode, trials: int = 100_000, seed: int = 0, joint: bool = False
) -> tuple[dict, dict, dict[str, ExactDistribution | EnsembleRun]]:
    """Can Alice and Bob learn Jim's basis choice from their x collectives?

    The statistic follows the rare-event argument: the probability that
    both A_x and B_x come out +1 in every round is 2^-2N whether Jim
    measures x or y.  The total variation over the joint (A_x, B_x)
    distribution rides along as the strongest accessible comparison.

    Every statistic is a function of the receivers' (A_x, B_x) pair, so
    the report's distributions are theirs alone.  Without ``joint``, both
    modes run only the receivers' round marginal.  With it, they run the
    whole (A_x, B_x, J) joint into ``runs``, for a report that prints it,
    and take the receivers' marginal of each run.  The receivers' round
    marginal keeps the round pmf's table rows, so sampled draws do not
    depend on what a report prints: a joint run's first two components
    are the receivers-only run's counts.  The receivers' round marginals
    are equal in lowest terms under both choices, so exact receivers-only
    runs are one object; the whole joints' J labels differ, so joint runs
    never are.
    """
    spec = ScenarioSpec(n_rounds=n_rounds, trials=trials, seed=seed, mode=mode)
    runs = _run_choices(spec, run_ghz_scenario, receivers_only=not joint)
    receivers = {c: run.marginal(GHZ_RECEIVERS) for c, run in runs.items()} if joint else runs
    receivers = _distributions(receivers, mode)
    hits = _mode_value({c: dist.probability((1, 1)) for c, dist in receivers.items()}, mode)
    v = _verdict(ScenarioKind.GHZ, spec, "conditional_probability", (hits["u"], hits["p"]))
    results = {
        "verdict": v,
        "hit_probability": hits,
        "receiver_distribution": receivers,
        "tv_joint_receiver": _mode_value(total_variation(receivers["u"], receivers["p"]), mode),
    }
    checks = {"no_signaling": not v["distinguishable"]}
    if mode is RunMode.EXACT:
        # Sampled hit probabilities are two noisy estimates; only the
        # thresholded no_signaling check compares them.
        checks["hit_probabilities_equal"] = hits["u"] == hits["p"]
        checks["hit_probability_matches"] = hits["u"] == Fraction(1, 4**n_rounds)
    return results, checks, runs


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
) -> tuple[dict, dict, dict[str, ExactDistribution | EnsembleRun]]:
    """Run both sender choices for a scenario: its report's results and checks, and the runs they read.

    ``joint`` asks for runs that hold every component, as a CSV report prints them.
    """
    if kind not in _VERDICTS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    return _VERDICTS[kind](n_rounds, mode, trials, seed, joint)
