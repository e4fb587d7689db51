"""Acceptance gate: the package's headline guarantees, one test per claim.

Each test prints a single [PASS]/[FAIL] line with the measured numbers so a
plain pytest run doubles as a report.  Tolerances and runtime budgets are
part of the contract and are asserted, not just printed.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from corrlab import ensembles
from corrlab.ensembles import (
    EnsembleRun,
    ExactDistribution,
    RunMode,
    ScenarioSpec,
    run_ghz_scenario,
    run_jamming_scenario,
    run_pr_scenario,
    run_tsirelson_scenario,
)
from corrlab.errors import InvariantViolation
from corrlab.quantum import (
    GHZ_STABILIZERS,
    PauliObservable,
    commutator_norm,
    expectation,
    ghz_assignment_search,
    ghz_state,
    sequential_measure,
)
from corrlab.signaling import (
    ScenarioKind,
    ghz_verdict,
    jamming_unary_exact,
    pr_verdict,
    total_variation,
    tsirelson_verdict,
    verdict,
)
from corrlab.spacetime import (
    MAP_NAMES,
    SpacetimeEvent,
    binary_condition,
    loop_analysis,
    policy_scan,
    round_trip_chronology,
)
from oracles import boost


def _gate(name: str, ok: bool, detail: str, elapsed: float | None = None, budget: float | None = None) -> None:
    """Print one [PASS]/[FAIL] line and assert it.

    A timed gate also needs elapsed < budget, and its line ends with the
    measured time against that budget.
    """
    if budget is not None:
        ok = ok and elapsed < budget
        detail += f", {elapsed:.2f} s of {budget:g} s"
    elif elapsed is not None:
        detail += f", {elapsed:.2f} s, no budget"
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name} :: {detail}")
    assert ok, f"{name}: {detail}"


def test_ghz_stabilizer_identities():
    t0 = time.perf_counter()
    state = ghz_state()
    errors = [abs(expectation(state, o) - want) for o, want in GHZ_STABILIZERS]
    norms = [
        commutator_norm(PauliObservable(("X", "X", "I")), PauliObservable(("Y", "Y", "I"))),
        commutator_norm(PauliObservable(("X", "Y", "I")), PauliObservable(("Y", "X", "I"))),
    ]
    elapsed = time.perf_counter() - t0
    ok = max(errors) < 1e-12 and max(norms) < 1e-12
    _gate(
        "ghz stabilizer identities",
        ok,
        f"expectation errors <= {max(errors):.2e}, commutator norms <= {max(norms):.2e}",
        elapsed,
        1.0,
    )


def test_ghz_assignment_search_is_empty():
    t0 = time.perf_counter()
    solutions = ghz_assignment_search()
    elapsed = time.perf_counter() - t0
    ok = solutions == []
    _gate(
        "ghz value assignments",
        ok,
        f"{len(solutions)} of 64 assignments satisfy all four parity constraints",
        elapsed,
        1.0,
    )


def test_collective_readout_signals():
    t0 = time.perf_counter()
    results, _, _ = pr_verdict(6, RunMode.EXACT)
    verdict = results["verdict"]
    sig = results["variance_signature"]
    tv = verdict["values"][1]
    var_b = run_pr_scenario(
        ScenarioSpec(n_rounds=6, sender_choice="u")
    ).marginal((0,)).variance((1,))
    var_ok = (
        var_b == Fraction(1, 6)
        and sig["u"]["var_diff"] == 0
        and sig["u"]["var_sum"] == 4 * var_b == Fraction(2, 3)
        and sig["p"]["var_sum"] == 0
        and sig["p"]["var_diff"] == Fraction(2, 3)
    )
    tv_ok = tv == Fraction(1) - Fraction(math.comb(6, 3), 2**6) == Fraction(11, 16)
    elapsed = time.perf_counter() - t0
    ok = var_ok and tv_ok and verdict["distinguishable"]
    _gate(
        "collective readout signals at N=6",
        ok,
        f"TV={tv} (=11/16), Var(B)={var_b}, Var(B+B')|u={sig['u']['var_sum']} (=4 Var(B)), "
        f"Var(B-B')|u={sig['u']['var_diff']}, roles swap under the primed choice, "
        f"distinguishable={verdict['distinguishable']}",
        elapsed,
        1.0,
    )


def test_rare_event_probabilities():
    du = run_pr_scenario(
        ScenarioSpec(n_rounds=8, sender_choice="u")
    )
    dp = run_pr_scenario(
        ScenarioSpec(n_rounds=8, sender_choice="p")
    )
    p_joint = du.probability((1, 1))
    p_anti = dp.probability((1, -1))
    ok = p_joint == Fraction(1, 2**8) and p_anti == Fraction(1, 2**8)
    _gate(
        "rare collective events at N=8",
        ok,
        f"P(B=1,B'=1|u)={p_joint}, P(B=1,B'=-1|p)={p_anti}, both exactly 1/256",
    )


def test_tsirelson_statistics_are_silent():
    t0 = time.perf_counter()
    results, _, _ = tsirelson_verdict(6, RunMode.EXACT)
    verdict = results["verdict"]
    tvs = results["tv_per_axis"]
    exact_zero = all(isinstance(tv, Fraction) and tv == 0 for tv in tvs.values())
    elapsed = time.perf_counter() - t0
    ok = exact_zero and not verdict["distinguishable"]
    _gate(
        "bell-state collectives are silent",
        ok,
        f"TV(z)={tvs['z']}, TV(x)={tvs['x']} exactly, distinguishable={verdict['distinguishable']}",
        elapsed,
        1.0,
    )


def test_ghz_rare_events_are_equal():
    t0 = time.perf_counter()
    results, _, _ = ghz_verdict(5, RunMode.EXACT)
    verdict = results["verdict"]
    tv = results["tv_joint_receiver"]
    elapsed = time.perf_counter() - t0
    ok = (
        verdict["values"] == [Fraction(1, 1024), Fraction(1, 1024)]
        and isinstance(tv, Fraction)
        and tv == 0
        and not verdict["distinguishable"]
    )
    _gate(
        "three-party rare events at N=5",
        ok,
        f"P(A_x=1,B_x=1) = {verdict['values'][0]} under x and {verdict['values'][1]} under y, "
        f"receiver joint TV={tv}",
        elapsed,
        10.0,
    )


def test_ghz_rare_events_at_exact_limit():
    n = ensembles.EXACT_MAX_ROUNDS
    t0 = time.perf_counter()
    results, _, _ = ghz_verdict(n, RunMode.EXACT)
    verdict = results["verdict"]
    tv = results["tv_joint_receiver"]
    elapsed = time.perf_counter() - t0
    want = Fraction(1, 4**n)
    ok = verdict["values"] == [want, want] and isinstance(tv, Fraction) and tv == 0
    _gate(
        f"three-party rare events at N={n}",
        ok,
        f"P(A_x=1,B_x=1) = {verdict['values'][0]} under x and {verdict['values'][1]} under y "
        f"(want {want}), receiver joint TV={tv}",
        elapsed,
        2.5,
    )


def test_measured_pair_products():
    t0 = time.perf_counter()
    state = ghz_state()
    rng = np.random.default_rng(2024)
    trials = 10_000
    pairs = (
        ((PauliObservable(("X", "X", "I")), PauliObservable(("Y", "Y", "I"))), -1),
        ((PauliObservable(("X", "Y", "I")), PauliObservable(("Y", "X", "I"))), 1),
    )
    hits = []
    for pair, want in pairs:
        good = 0
        for _ in range(trials):
            recs = sequential_measure(state, pair, rng)
            good += recs[0].outcome * recs[1].outcome == want
        hits.append(good)
    elapsed = time.perf_counter() - t0
    _gate(
        "measured pair products",
        hits == [trials, trials],
        f"(a_x b_x)(a_y b_y)=-1 in {hits[0]}/{trials}, (a_x b_y)(a_y b_x)=+1 in {hits[1]}/{trials}",
        elapsed,
        5.0,
    )


def test_jamming_statistics():
    t0 = time.perf_counter()
    trials = 20_000
    x = run_jamming_scenario(1, "x", trials, seed=0)
    z = run_jamming_scenario(1, "z", trials, seed=0)
    _, binned, _ = x.correlations()
    every_triplet = bool(np.all(x.outcomes.astype(np.int64).prod(axis=1) == -1))
    x_ok = binned[1] == -1.0 and binned[-1] == 1.0 and every_triplet
    _, _, z_corr = z.correlations()
    z_ok = abs(z_corr) < 4.0 / math.sqrt(trials)
    unary = jamming_unary_exact()
    unary_ok = unary["holds"] and unary["max_marginal_tv"] == 0
    elapsed = time.perf_counter() - t0
    _gate(
        "jamming statistics",
        x_ok and z_ok and unary_ok,
        f"x-bins C=-j exactly ({binned[1]}, {binned[-1]}), z |C|={abs(z_corr):.4f} "
        f"< {4.0 / math.sqrt(trials):.4f}, exact marginal TV={unary['max_marginal_tv']}",
        elapsed,
        5.0,
    )


def test_cone_overlap_verdicts():
    t0 = time.perf_counter()
    cases = (
        ((0.0, -1.0), (0.0, 1.0), (-0.5, 0.0), True),
        ((0.0, -1.0), (0.0, 1.0), (2.0, 0.0), False),
        ((0.0, -2.0), (0.0, 2.0), (1.0, 0.0), True),
    )
    plain_ok = True
    invariant_ok = True
    rng = np.random.default_rng(7)
    for a, b, j, want in cases:
        events = (SpacetimeEvent(*a), SpacetimeEvent(*b), SpacetimeEvent(*j))
        plain_ok &= binary_condition(*events) is want
        for beta in rng.uniform(-0.9, 0.9, size=20):
            beta = float(beta)
            boosted = [boost(e, beta) for e in events]
            invariant_ok &= binary_condition(*boosted) is want
    elapsed = time.perf_counter() - t0
    _gate(
        "cone overlap verdicts",
        plain_ok and invariant_ok,
        "verdicts (true, false, true) as configured, stable under 20 random common boosts each",
        elapsed,
        1.0,
    )


def test_causal_loop_analysis():
    t0 = time.perf_counter()
    chrono = round_trip_chronology(alice_x=0.0, bob_x=1.0, send_t=0.0, beta=0.5)
    chrono_ok = chrono["reply_arrival"].t == -0.5 and chrono["retrocausal"]
    loop = loop_analysis("echo", "invert")
    loop_ok = not loop["consistent"] and loop["fixed_points"] == []
    rows = policy_scan()
    n_zero = sum(1 for r in rows if r["n_fixed_points"] == 0)
    n_two = sum(1 for r in rows if r["n_fixed_points"] == 2)
    n_non_unique = sum(1 for r in rows if r["n_fixed_points"] != 1)
    scan_ok = len(rows) == 16 and n_non_unique == 4 and n_zero == 2 and n_two == 2
    elapsed = time.perf_counter() - t0
    _gate(
        "causal loop analysis",
        chrono_ok and loop_ok and scan_ok,
        f"reply at t={chrono['reply_arrival'].t} (retrocausal), echo+invert has no fixed "
        f"point, {n_non_unique}/16 pairs lack a unique fixed point "
        f"({n_zero} contradictory, {n_two} underdetermined)",
        elapsed,
        1.0,
    )


# Each scenario's exact report distributions, by results key, as (choice u, choice p) pairs of Bob's readouts.
LOOP_READOUTS = {
    ScenarioKind.PR_BOX: ("joint_distribution", [("u", "p")]),
    ScenarioKind.TSIRELSON: ("bob_distribution", [("z|u", "z|p"), ("x|u", "x|p")]),
    ScenarioKind.GHZ: ("receiver_distribution", [("u", "p")]),
}
# A deterministic channel from the sender's bit (u = 0, p = 1) to the guessed bit, as a device map.
CHANNEL_MAPS = {(0, 1): "echo", (1, 0): "invert", (0, 0): "const0", (1, 1): "const1"}


def _guess_channel(u: ExactDistribution, p: ExactDistribution) -> tuple[Fraction, str | None]:
    """The receivers' maximum-likelihood guess of the sender's bit from one readout, ties going to u.

    Returns its exact success probability under a fair choice, and the
    device map it is when each choice leads to one guess with certainty,
    else None.
    """
    pu = {cell: Fraction(w, u.denominator) for cell, w in zip(u.cells, u.weights)}
    pp = {cell: Fraction(w, p.denominator) for cell, w in zip(p.cells, p.weights)}
    guess = {cell: int(pp.get(cell, 0) > pu.get(cell, 0)) for cell in pu.keys() | pp.keys()}
    success = sum(max(pu.get(cell, 0), pp.get(cell, 0)) for cell in guess) / 2
    guesses = [{guess[cell] for cell in pmf} for pmf in (pu, pp)]
    channel = CHANNEL_MAPS[guesses[0].pop(), guesses[1].pop()] if all(len(g) == 1 for g in guesses) else None
    return success, channel


def test_loops_close_only_through_signaling_boxes():
    """The abstract's contrast: a retrocausal loop through the PR box contradicts itself, one through GHZ does not.

    For each scenario at every exact N, the receivers' best guess of the
    sender's choice is a channel.  Bob's reply reaches Alice retrocausally,
    so her device map (each of the four in turn) closes the loop
    i_A = reply(channel(i_A)).  Only a channel that follows the choice, the
    PR box's at odd N, lets the reply ``invert`` leave no fixed point; a
    channel that ignores it (Tsirelson, GHZ) leaves one fixed point for
    every reply.  At even N the PR guess fails on the tied cell B = B' = 0,
    so it is no deterministic loop: its success is stated, not closed.
    """
    t0 = time.perf_counter()
    chrono = round_trip_chronology(alice_x=0.0, bob_x=1.0, send_t=0.0, beta=0.5)
    failures = []
    closed = {kind: 0 for kind in ScenarioKind}
    even_pr = 0
    for kind, (key, pairs) in LOOP_READOUTS.items():
        for n in range(1, ensembles.EXACT_MAX_ROUNDS + 1):
            dists = verdict(kind, n)[0][key]
            for u, p in pairs:
                cell = f"{kind.value} N={n} {u}/{p}"
                tv = total_variation(dists[u], dists[p])
                success, channel = _guess_channel(dists[u], dists[p])
                if success != (1 + tv) / 2:
                    failures.append(f"{cell}: success {success} is not (1 + TV)/2 at TV {tv}")
                if kind is ScenarioKind.PR_BOX and n % 2 == 0:
                    tie = Fraction(math.comb(n, n // 2), 2**n)
                    if (tv, success, channel) == (1 - tie, 1 - tie / 2, None):
                        even_pr += 1
                    else:
                        failures.append(f"{cell}: TV {tv}, success {success}, channel {channel}")
                    continue
                want_tv, want_channel = (1, "echo") if kind is ScenarioKind.PR_BOX else (0, "const0")
                if (tv, channel) != (want_tv, want_channel):
                    failures.append(f"{cell}: TV {tv}, channel {channel}")
                    continue
                fixed = {reply: len(loop_analysis(reply, channel)["fixed_points"]) for reply in MAP_NAMES}
                want = {"echo": 2, "invert": 0, "const0": 1, "const1": 1} if channel == "echo" else dict.fromkeys(MAP_NAMES, 1)
                if fixed != want:
                    failures.append(f"{cell}: fixed points {fixed}")
                closed[kind] += 1
    elapsed = time.perf_counter() - t0
    _gate(
        "loops close only through signaling boxes",
        chrono["retrocausal"] and not failures,
        f"reply retrocausal at t={chrono['reply_arrival'].t}; PR odd N: TV=1, channel echo, invert leaves 0 fixed "
        f"points in {closed[ScenarioKind.PR_BOX]}/12 loops; PR even N: success 1 - C(N,N/2)/2^(N+1), "
        f"no deterministic loop, in {even_pr}/12; TV=0, channel const0, 1 fixed point for each of the 4 "
        f"replies in Tsirelson {closed[ScenarioKind.TSIRELSON]}/48 (z and x) and GHZ {closed[ScenarioKind.GHZ]}/24"
        + ("; " + "; ".join(failures[:5]) if failures else ""),
        elapsed,
    )


GATE_TRIALS = 100_000
GATE_SEEDS = range(10)


def _cell_bound(exact, trials: int) -> tuple[float, float]:
    """(E_cell, threshold) for one sampled-gate cell.

    E_cell is the expected TV of a correct sampler's histogram against the
    exact pmf.  Moving one trial changes that TV by at most 1/trials, so by
    McDiarmid's bounded-differences inequality it exceeds
    E_cell + 2.5/sqrt(trials) with probability at most exp(-12.5) per seed,
    whatever the support size.  Cells whose E_cell stays small keep the
    flat 5/sqrt(trials) bound.
    """
    e_cell = oracles.expected_sampling_tv(oracles.lattice_mapping(exact).values(), trials)
    return e_cell, max(5.0 / math.sqrt(trials), e_cell + 2.5 / math.sqrt(trials))


def _sampled_tvs(runner, choice, n, exact, trials, **kwargs) -> list[float]:
    """TV of each seed's sampled cell against the exact pmf."""
    tvs = []
    for seed in GATE_SEEDS:
        spec = ScenarioSpec(
            n_rounds=n,
            sender_choice=choice,
            trials=trials,
            seed=seed,
            mode=RunMode.MONTE_CARLO,
        )
        tvs.append(float(total_variation(runner(spec, **kwargs).empirical(), exact)))
    return tvs


def test_sampled_distributions_match_exact():
    t0 = time.perf_counter()
    trials = GATE_TRIALS
    flat = 5.0 / math.sqrt(trials)
    runners = {
        ScenarioKind.PR_BOX: (run_pr_scenario, (None,)),
        ScenarioKind.TSIRELSON: (run_tsirelson_scenario, ("z", "x")),
        ScenarioKind.GHZ: (run_ghz_scenario, (None,)),
    }
    cells = 0
    derived = []
    failures = []
    for kind, (runner, axes) in runners.items():
        for choice in ("u", "p"):
            for axis in axes:
                kwargs = {} if axis is None else {"bob_axis": axis}
                tag = kind.value + (f"/{axis}" if axis else "")
                for n in range(1, 7):
                    exact = runner(ScenarioSpec(n_rounds=n, sender_choice=choice), **kwargs)
                    e_cell, threshold = _cell_bound(exact, trials)
                    tvs = _sampled_tvs(runner, choice, n, exact, trials, **kwargs)
                    good = sum(tv < threshold for tv in tvs)
                    cells += 1
                    cell = f"{tag} choice={choice} N={n}"
                    if threshold > flat:
                        derived.append(f"{cell} (E={e_cell:.5f}, <{threshold:.5f})")
                    if good < 9:
                        failures.append(
                            f"{cell}: {good}/10 seeds under {threshold:.5f}, "
                            f"max TV {max(tvs):.5f}"
                        )
    elapsed = time.perf_counter() - t0
    detail = (
        f"{cells} scenario cells x 10 seeds at trials={trials}, threshold {flat:.5f} "
        f"or E_cell + 2.5/sqrt(trials) in {len(derived)} cells: "
        + "; ".join(derived)
    )
    if failures:
        detail += "; below 9/10 seeds: " + "; ".join(failures)
    _gate("sampled distributions match exact", not failures, detail, elapsed, 120.0)


def test_sampled_gate_rejects_shifted_round_pmf():
    """The derived bound still catches a 2^-7 error in the GHZ round pmf.

    The Jim-on-y round pmf with 2^-7 of mass moved from one outcome to
    another is no longer uniform over an affine outcome set, so the package
    sampler refuses it, and the oracle draws it by table lookup on the
    scenario's stream; every seed must then fail the gate's per-cell
    criterion against the true exact pmf.
    """
    t0 = time.perf_counter()
    trials = GATE_TRIALS
    exacts = {
        n: run_ghz_scenario(
            ScenarioSpec(n_rounds=n, sender_choice="p")
        )
        for n in (5, 6)
    }
    shift = Fraction(1, 2**7)
    true_round = run_ghz_scenario(ScenarioSpec(n_rounds=1, sender_choice="p"))
    mapping = oracles.lattice_mapping(true_round)
    mapping[(1, 1, 1)] -= shift
    mapping[(-1, -1, -1)] += shift
    shifted = ExactDistribution.from_mapping(mapping, true_round.labels, 1)
    # The GHZ scenario's stream under Jim's y choice.
    stream = (2, 1)
    with pytest.raises(InvariantViolation, match="affine"):
        oracles.parity_planes(shifted)
    rows = []
    caught = True
    for n, exact in exacts.items():
        _, threshold = _cell_bound(exact, trials)
        tvs = []
        for seed in GATE_SEEDS:
            _, rounds = oracles.sums_by_table_lookup(mapping, n, trials, seed, stream)
            run = EnsembleRun(true_round.labels, oracles.minus_one_counts(rounds), n)
            tvs.append(float(total_variation(run.empirical(), exact)))
        rejected = sum(tv >= threshold for tv in tvs)
        caught &= rejected == len(tvs)
        rows.append(
            f"N={n}: {rejected}/10 seeds rejected, TV {min(tvs):.4f}-{max(tvs):.4f} "
            f"against threshold {threshold:.5f}"
        )
    elapsed = time.perf_counter() - t0
    _gate("sampled gate rejects a 2^-7 round-pmf shift", caught, "; ".join(rows), elapsed)
