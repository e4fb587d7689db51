from __future__ import annotations

import inspect
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from corrlab import ensembles, signaling
from corrlab.ensembles import (
    EXACT_MAX_ROUNDS,
    ExactDistribution,
    RunMode,
    ScenarioSpec,
    jamming_round_pmf,
    run_ghz_scenario,
    run_pr_scenario,
    run_tsirelson_scenario,
)
from corrlab.signaling import (
    ScenarioKind,
    ghz_verdict,
    jamming_unary_exact,
    jamming_verdict,
    pr_verdict,
    total_variation,
    tsirelson_verdict,
    unary_condition_check,
    variance_signature,
    verdict,
)

HALF = Fraction(1, 2)


def exact_pr(n, choice):
    return run_pr_scenario(
        ScenarioSpec(n_rounds=n, sender_choice=choice)
    )


class TestTotalVariation:
    def test_identical_distributions(self):
        dist = exact_pr(4, "u")
        tv = total_variation(dist, dist)
        assert isinstance(tv, Fraction) and tv == 0

    @staticmethod
    def _half_difference_law(dist):
        out: dict = {}
        for v, p in oracles.lattice_mapping(dist).items():
            key = ((v[0] - v[1]) / 2,)
            out[key] = out.get(key, Fraction(0)) + p
        return ExactDistribution.from_mapping(out, ("half_diff",), dist.n_rounds)

    def test_difference_collective(self):
        # (B - B')/2 is a point mass at 0 under "u" and the law of B under "p"
        diff_u = self._half_difference_law(exact_pr(4, "u"))
        diff_p = self._half_difference_law(exact_pr(4, "p"))
        assert oracles.lattice_mapping(diff_u) == {(Fraction(0),): Fraction(1)}
        assert total_variation(diff_u, diff_p) == Fraction(5, 8)  # 1 - C(4,2)/2^4

    def test_joint_distributions(self):
        assert total_variation(exact_pr(6, "u"), exact_pr(6, "p")) == Fraction(11, 16)
        assert total_variation(exact_pr(4, "u"), exact_pr(4, "p")) == Fraction(5, 8)

    def test_round_count_mismatch(self):
        with pytest.raises(ValueError, match="round counts"):
            total_variation(exact_pr(4, "u"), exact_pr(6, "u"))

    def test_label_mismatch(self):
        pr = exact_pr(1, "u")
        ghz = run_ghz_scenario(
            ScenarioSpec(n_rounds=1, sender_choice="u")
        ).marginal((0, 1))
        with pytest.raises(ValueError, match="components"):
            total_variation(pr, ghz)

    def test_equal_weights_are_zero(self):
        dist = exact_pr(4, "p")
        copy = ExactDistribution(dist.labels, dist.n_rounds, list(dist.cells), list(dist.weights), dist.denominator)
        assert copy is not dist
        for other in (dist, copy):
            tv = total_variation(dist, other)
            assert type(tv) is Fraction and tv == 0

    def test_unreduced_weights_walk_to_zero(self):
        """(2, 2)/4 against (1, 1)/2: the weights differ, so the walk runs, and finds no difference."""
        unreduced = ExactDistribution(("B",), 1, (0, 1), (2, 2), 4)
        reduced = ExactDistribution(("B",), 1, (0, 1), (1, 1), 2)
        assert total_variation(unreduced, reduced) == total_variation(reduced, unreduced) == 0

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4), st.data())
    @settings(max_examples=40)
    def test_one_weight_apart(self, weights, data):
        """Distributions on the same cells whose weights differ in one cell give the dict oracle's TV."""
        i = data.draw(st.integers(min_value=0, max_value=len(weights) - 1))
        bumped = [w + (j == i) for j, w in enumerate(weights)]
        p, q = (ExactDistribution(("c",), 3, range(len(ws)), ws, sum(ws)) for ws in (weights, bumped))
        p_oracle, q_oracle = (
            oracles.FractionDistribution.from_mapping(oracles.lattice_mapping(d), d.labels, 3) for d in (p, q)
        )
        assert total_variation(p, q) == oracles.total_variation_by_union(p_oracle, q_oracle)

    def test_rejects_unnormalized_mapping(self):
        # An unnormalized pmf cannot become a distribution, so no TV ever sees one.
        with pytest.raises(ValueError, match="sum to exactly 1"):
            total_variation(ExactDistribution.from_mapping({(0,): HALF}, ("B",), 2), exact_pr(2, "u").marginal((0,)))


@st.composite
def rational_pmfs(draw):
    """Pmfs with arbitrary rational probabilities on the N=3 lattice {-1, -1/3, 1/3, 1}."""
    weights = [draw(st.integers(min_value=0, max_value=9)) for _ in range(4)]
    if sum(weights) == 0:
        weights[0] = 1
    return ExactDistribution.from_grid(("c",), 3, weights, sum(weights))


class TestMetricProperties:
    @given(rational_pmfs(), rational_pmfs(), rational_pmfs())
    @settings(max_examples=80)
    def test_metric_axioms(self, p, q, r):
        d_pq = total_variation(p, q)
        assert 0 <= d_pq <= 1
        assert d_pq == total_variation(q, p)
        assert (d_pq == 0) == (oracles.lattice_mapping(p) == oracles.lattice_mapping(q))
        assert d_pq <= total_variation(p, r) + total_variation(r, q)


class TestVarianceSignature:
    def test_collapse_under_unprimed(self):
        sig = variance_signature(exact_pr(4, "u"))
        assert sig == {"var_sum": Fraction(1), "var_diff": Fraction(0)}

    def test_swap_under_primed(self):
        sig = variance_signature(exact_pr(4, "p"))
        assert sig == {"var_sum": Fraction(0), "var_diff": Fraction(1)}

    def test_needs_two_components(self):
        one = run_tsirelson_scenario(
            ScenarioSpec(n_rounds=4)
        )
        with pytest.raises(ValueError, match="two components"):
            variance_signature(one)


class TestExactVerdicts:
    def test_pr_is_distinguishable(self):
        results, _, _ = pr_verdict(6, RunMode.EXACT)
        v = results["verdict"]
        assert v["distinguishable"] is True
        assert v["statistic"] == "total_variation"
        assert v["values"] == [Fraction(0), Fraction(11, 16)]
        assert v["threshold"] == Fraction(0)
        sig = results["variance_signature"]
        assert sig["u"] == {"var_sum": Fraction(2, 3), "var_diff": Fraction(0)}
        assert sig["p"] == {"var_sum": Fraction(0), "var_diff": Fraction(2, 3)}

    def test_tsirelson_is_exactly_silent(self):
        results, _, _ = tsirelson_verdict(6, RunMode.EXACT)
        assert results["verdict"]["distinguishable"] is False
        for axis in ("z", "x"):
            tv = results["tv_per_axis"][axis]
            # identically zero, not merely below threshold
            assert isinstance(tv, Fraction) and tv == 0
            for choice in ("u", "p"):
                assert results["collective_variance"][axis][choice] == Fraction(1, 6)

    def test_ghz_rare_event_probabilities_are_equal(self):
        results, _, _ = ghz_verdict(5, RunMode.EXACT)
        v = results["verdict"]
        assert v["statistic"] == "conditional_probability"
        assert v["values"] == [Fraction(1, 1024), Fraction(1, 1024)]
        assert v["distinguishable"] is False
        tv = results["tv_joint_receiver"]
        assert isinstance(tv, Fraction) and tv == 0

    def test_dispatcher(self):
        assert verdict(ScenarioKind.PR_BOX, 4)[0]["verdict"]["scenario"] == ScenarioKind.PR_BOX.value
        assert verdict(ScenarioKind.TSIRELSON, 4)[0]["verdict"]["scenario"] == ScenarioKind.TSIRELSON.value
        assert verdict(ScenarioKind.GHZ, 4)[0]["verdict"]["scenario"] == ScenarioKind.GHZ.value
        with pytest.raises(ValueError, match="unknown scenario kind"):
            verdict("pr-box", 4)

    def test_verdicts_share_one_signature(self):
        """``verdict`` dispatches every kind through one call, ``joint`` included."""
        signatures = {inspect.signature(fn) for fn in (pr_verdict, tsirelson_verdict, ghz_verdict)}
        assert len(signatures) == 1
        assert list(signatures.pop().parameters) == ["n_rounds", "mode", "trials", "seed", "joint"]
        widths = {
            kind: {len(run.labels) for run in verdict(kind, 2, RunMode.EXACT, joint=True)[2].values()}
            for kind in ScenarioKind
        }
        assert widths == {ScenarioKind.PR_BOX: {2}, ScenarioKind.TSIRELSON: {1}, ScenarioKind.GHZ: {3}}

    def test_report_shape(self):
        obj = pr_verdict(6, RunMode.EXACT)[0]["verdict"]
        assert set(obj) == {
            "scenario",
            "N",
            "mode",
            "statistic",
            "values",
            "distinguishable",
            "threshold",
            "seed",
        }
        assert obj["scenario"] == "pr-box"
        assert obj["N"] == 6
        assert obj["mode"] == "exact"


class TestSampledVerdicts:
    def test_pr_monte_carlo_flags_the_channel(self):
        v = pr_verdict(6, RunMode.MONTE_CARLO, trials=20_000, seed=3)[0]["verdict"]
        assert v["distinguishable"] is True
        assert v["threshold"] == pytest.approx(5.0 / math.sqrt(20_000))
        assert float(v["values"][1]) > 0.6

    def test_silent_scenarios_stay_silent(self):
        assert tsirelson_verdict(6, RunMode.MONTE_CARLO, trials=20_000, seed=3)[0]["verdict"]["distinguishable"] is False
        assert ghz_verdict(6, RunMode.MONTE_CARLO, trials=20_000, seed=3)[0]["verdict"]["distinguishable"] is False

    @pytest.mark.parametrize("trials", [1, 2, 3, 300])
    def test_variances_are_the_samples_exact_variances(self, trials):
        """Each sampled variance is float() of the exact variance of its sample, 0.0 for one trial."""

        def sample_variance(sums, coeffs, n):
            values = [Fraction(sum(c * int(s) for c, s in zip(coeffs, row)), n) for row in sums]
            mean = sum(values) / len(values)
            return float(sum((x - mean) ** 2 for x in values) / len(values))

        pr, _, pr_runs = pr_verdict(6, RunMode.MONTE_CARLO, trials, seed=5)
        for choice, run in pr_runs.items():
            assert pr["variance_signature"][choice] == {
                "var_sum": sample_variance(run.sums, (1, 1), 6),
                "var_diff": sample_variance(run.sums, (1, -1), 6),
            }
        ts, _, ts_runs = tsirelson_verdict(6, RunMode.MONTE_CARLO, trials, seed=5)
        for key, run in ts_runs.items():
            axis, choice = key.split("|")
            assert ts["collective_variance"][axis][choice] == sample_variance(run.sums, (1,), 6)
        if trials == 1:
            assert pr["variance_signature"]["u"]["var_sum"] == 0.0

    def test_agreement_with_exact_across_seeds(self):
        # sampled verdicts at trials = 10^5 must match the exact verdicts in
        # at least 99 of the 100 seeds 0..99, per scenario kind
        trials = 100_000
        exact = {
            ScenarioKind.PR_BOX: pr_verdict(6, RunMode.EXACT)[0]["verdict"]["distinguishable"],
            ScenarioKind.TSIRELSON: tsirelson_verdict(6, RunMode.EXACT)[0]["verdict"]["distinguishable"],
            ScenarioKind.GHZ: ghz_verdict(6, RunMode.EXACT)[0]["verdict"]["distinguishable"],
        }
        runners = {
            ScenarioKind.PR_BOX: pr_verdict,
            ScenarioKind.TSIRELSON: tsirelson_verdict,
            ScenarioKind.GHZ: ghz_verdict,
        }
        for kind, runner in runners.items():
            agree = sum(
                runner(6, RunMode.MONTE_CARLO, trials=trials, seed=seed)[0]["verdict"]["distinguishable"]
                == exact[kind]
                for seed in range(100)
            )
            assert agree >= 99, f"{kind.value}: {agree}/100"


class TestVerdictBoundaries:
    def test_rare_event_match_needs_both_events(self, monkeypatch):
        """A primed round pmf with P(1, -1) = 1/4 keeps P(B = B' = 1 | u) at 2^-N but moves P(B = 1, B' = -1 | p) to 4^-N."""
        primed = ExactDistribution.from_mapping({(1, -1): Fraction(1, 4), (-1, 1): Fraction(3, 4)}, ("B", "B_prime"), 1)
        # An exact run reads only its form's pmf.
        monkeypatch.setitem(ensembles._PR_FORMS, "p", SimpleNamespace(pmf=primed))
        results, checks, _ = pr_verdict(3, RunMode.EXACT)
        assert results["rare_events"] == {"p_both_plus_under_u": Fraction(1, 8), "p_plus_minus_under_p": Fraction(1, 64)}
        assert checks["rare_event_match"] is False

    @pytest.mark.parametrize("seed", range(5))
    def test_total_variation_at_the_threshold_is_distinguishable(self, seed):
        """At N = 1 the two choices' (B, B') supports are disjoint, so TV is exactly 1.0, and so is 5/sqrt(25)."""
        v = pr_verdict(1, RunMode.MONTE_CARLO, trials=25, seed=seed)[0]["verdict"]
        assert v["values"][1] == v["threshold"] == 1.0
        assert v["distinguishable"] is True

    def test_values_exactly_a_threshold_apart_are_distinguishable(self):
        """25 trials make the sampled threshold 5/sqrt(25) exactly 1.0, the distance between the values (0.0, 1.0)."""
        spec = ScenarioSpec(n_rounds=1, trials=25, mode=RunMode.MONTE_CARLO)
        v = signaling._verdict(ScenarioKind.PR_BOX, spec, "total_variation", (0.0, 1.0))
        assert v["threshold"] == 1.0
        assert v["distinguishable"] is True


def jamming_with_rows(monkeypatch, rows, jim_choice):
    """The jamming verdict on hand-built triplets: (a_x, b_x, j) rows of +1/-1."""
    records = oracles.jamming_records_from_rows(np.array(rows), jim_choice)
    monkeypatch.setattr(signaling, "run_jamming_scenario", lambda *args: records)
    return jamming_verdict(1, jim_choice, len(rows), 0)


class TestJammingVerdict:
    @pytest.mark.parametrize("seed", range(3))
    def test_one_x_triplet_leaves_a_bin_empty_and_the_constraint_whole(self, seed):
        results, checks, _ = jamming_verdict(1, "x", 1, seed)
        assert sorted(results["bin_counts"].values()) == [0, 1]
        assert checks == {"unary_holds": True, "binned_constraint_ok": True}

    def test_x_bin_off_its_constraint_breaks_it(self, monkeypatch):
        """Jim on x requires a_x*b_x = -j; a +1 bin whose triplet has a_x*b_x = +1 breaks that."""
        results, checks, _ = jamming_with_rows(monkeypatch, [[1, 1, 1]], "x")
        assert results["binned_correlation"] == {"1": 1.0, "-1": None}
        assert checks["binned_constraint_ok"] is False

    def test_bins_at_their_bound_are_correlated(self, monkeypatch):
        """16 agreeing triplets with j = +1 and 16 disagreeing with j = -1: each bin sits at 4/sqrt(16) = 1.0, overall at 0."""
        results, checks, _ = jamming_with_rows(monkeypatch, [[1, 1, 1]] * 16 + [[1, -1, -1]] * 16, "z")
        assert results["binned_correlation"] == {"1": 1.0, "-1": -1.0}
        assert results["overall_correlation"] == 0.0
        assert checks["uncorrelated"] is False

    def test_overall_at_its_bound_is_correlated(self, monkeypatch):
        """64 triplets, each bin's 32 at correlation 0.5: overall 0.5 = 4/sqrt(64), each bin under 4/sqrt(32)."""
        rows = [[1, 1, 1]] * 24 + [[1, -1, 1]] * 8 + [[1, 1, -1]] * 24 + [[-1, 1, -1]] * 8
        results, checks, _ = jamming_with_rows(monkeypatch, rows, "z")
        assert results["binned_correlation"] == {"1": 0.5, "-1": 0.5}
        assert results["overall_correlation"] == 0.5 == 4 / math.sqrt(64)
        assert checks["uncorrelated"] is False


def lowest_terms(pmf: ExactDistribution) -> tuple:
    """A round pmf's labels, cells, and weights and denominator divided by the weights' gcd."""
    g = math.gcd(*pmf.weights)
    return pmf.labels, pmf.cells, tuple(w // g for w in pmf.weights), pmf.denominator // g


# Each shipped pair of round forms by choice, and whether the two are equal in lowest terms.
FORM_PAIRS = {
    "pr": (lambda c: ensembles._PR_FORMS[c], False),
    "tsirelson-z": (lambda c: ensembles._tsirelson_form(c, "z"), True),
    "tsirelson-x": (lambda c: ensembles._tsirelson_form(c, "x"), True),
    "ghz-receivers": (lambda c: ensembles._ghz_form(c, receivers_only=True), True),
    "ghz-joint": (lambda c: ensembles._ghz_form(c), False),
}


class TestSharedRuns:
    """Round forms equal in lowest terms under both choices give one N-round run, at every N."""

    @pytest.mark.parametrize("pair", sorted(FORM_PAIRS))
    def test_lowest_terms_of_the_forms(self, pair):
        form, shared = FORM_PAIRS[pair]
        u, p = form("u").pmf, form("p").pmf
        assert (lowest_terms(u) == lowest_terms(p)) is shared
        if shared:
            # Only the reduction makes them equal: their table denominators differ.
            assert u.denominator != p.denominator

    @pytest.mark.parametrize("n", range(1, EXACT_MAX_ROUNDS + 1))
    def test_exact_verdicts_share_exactly_the_equal_runs(self, n):
        """Each shared run is the dict oracle's N-fold convolution of the unreduced "p" round pmf."""
        cases = [
            (ScenarioKind.PR_BOX, False, {"pr": ("u", "p")}),
            (ScenarioKind.TSIRELSON, False, {f"tsirelson-{a}": (f"{a}|u", f"{a}|p") for a in "zx"}),
            (ScenarioKind.GHZ, False, {"ghz-receivers": ("u", "p")}),
            (ScenarioKind.GHZ, True, {"ghz-joint": ("u", "p")}),
        ]
        for kind, joint, pairs in cases:
            runs = verdict(kind, n, RunMode.EXACT, joint=joint)[2]
            for pair, (key_u, key_p) in pairs.items():
                form, shared = FORM_PAIRS[pair]
                assert (runs[key_u] is runs[key_p]) is shared, (pair, n)
                if shared:
                    oracle = oracles.convolve_by_dict(oracles.lattice_mapping(form("p").pmf), n)
                    assert oracles.lattice_mapping(runs[key_p]) == {
                        tuple(s / n for s in sums): prob for sums, prob in oracle.items()
                    }


def assert_same_distribution(got, want):
    """Same labels, round count, and atoms in the same order with the same probabilities."""
    assert got.labels == want.labels
    assert got.n_rounds == want.n_rounds
    assert list(got.atoms()) == list(want.atoms())


class TestGhzReceivers:
    """The three-party verdict compares the (A_x, B_x) marginals of the whole runs."""

    @pytest.mark.parametrize("n", range(1, EXACT_MAX_ROUNDS + 1))
    def test_exact(self, n):
        results, _, _ = ghz_verdict(n, RunMode.EXACT)
        assert set(results["receiver_distribution"]) == {"u", "p"}
        for choice, receivers in results["receiver_distribution"].items():
            joint = run_ghz_scenario(ScenarioSpec(n_rounds=n, sender_choice=choice))
            assert_same_distribution(receivers, joint.marginal((0, 1)))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), trials=st.integers(1, 300), seed=st.integers(0, 2**64 - 1))
    @example(n=1, trials=1, seed=0)
    @example(n=200, trials=300, seed=2**64 - 1)
    def test_sampled(self, n, trials, seed):
        """A receivers-only sampled run sums the first two columns of the joint run on the same seed."""
        results, _, runs = ghz_verdict(n, RunMode.MONTE_CARLO, trials, seed)
        joint_results, _, joint_runs = ghz_verdict(n, RunMode.MONTE_CARLO, trials, seed, joint=True)
        receivers = results["receiver_distribution"]
        assert set(receivers) == set(runs) == set(joint_runs) == {"u", "p"}
        for choice, run in runs.items():
            whole = joint_runs[choice]
            assert run.labels == whole.labels[:2] == ("A_x", "B_x") and len(whole.labels) == 3
            assert np.array_equal(run.sums, whole.sums[:, :2])
            assert_same_distribution(receivers[choice], oracles.receivers_by_full_empirical(whole))
            assert_same_distribution(joint_results["receiver_distribution"][choice], receivers[choice])


class TestUnaryCondition:
    def test_jamming_exact(self):
        report = jamming_unary_exact()
        assert report["holds"] is True
        assert report["max_marginal_tv"] == Fraction(0)
        assert report["joint_tv"] == Fraction(0)
        assert set(report["per_component"]) == {"a_x", "b_x"}
        for tv in report["per_component"].values():
            assert isinstance(tv, Fraction) and tv == 0

    def test_detects_biased_marginal(self):
        biased = ExactDistribution.from_mapping(
            {(1, 1, 1): Fraction(3, 5), (-1, -1, -1): Fraction(2, 5)}, ("a_x", "b_x", "j_x"), 1
        )
        report = unary_condition_check(biased, jamming_round_pmf("z"))
        assert report["holds"] is False
        assert report["max_marginal_tv"] == Fraction(1, 10)

    def test_joint_readout_defeats_the_unary_condition(self):
        # marginals of B and B' are identical across the choices, but the
        # jointly read pair is not: the bipartite signaling result restated
        report = unary_condition_check(exact_pr(6, "u"), exact_pr(6, "p"))
        assert report["max_marginal_tv"] == Fraction(0)
        assert report["joint_tv"] == Fraction(11, 16)
        assert report["holds"] is False

    def test_round_count_mismatch(self):
        with pytest.raises(ValueError, match="round counts"):
            unary_condition_check(exact_pr(4, "u"), exact_pr(6, "p"))

    def test_needs_shared_labels(self):
        pr = exact_pr(1, "u")
        ghz = run_ghz_scenario(
            ScenarioSpec(n_rounds=1, sender_choice="u")
        )
        with pytest.raises(ValueError, match="share no component labels"):
            unary_condition_check(pr, ghz)

    def test_marginal_mapping(self):
        mapping = {(1, 1): HALF, (1, -1): Fraction(1, 4), (-1, 1): Fraction(1, 4)}
        dist = ExactDistribution.from_mapping(mapping, ("a_x", "b_x"), 1)
        assert oracles.lattice_mapping(dist.marginal((0,))) == {(1,): Fraction(3, 4), (-1,): Fraction(1, 4)}
        assert oracles.lattice_mapping(dist.marginal((1, 0))) == {
            (1, 1): HALF,
            (-1, 1): Fraction(1, 4),
            (1, -1): Fraction(1, 4),
        }


def test_verdict_fields_round_trip():
    spec = ScenarioSpec(n_rounds=2, mode=RunMode.EXACT)
    obj = signaling._verdict(ScenarioKind.PR_BOX, spec, "total_variation", (Fraction(0), Fraction(1, 2)))
    assert obj["values"] == [Fraction(0), Fraction(1, 2)]
    assert obj["distinguishable"] is True
