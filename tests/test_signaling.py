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
    ScenarioKind,
    ScenarioSpec,
    jamming_round_pmf,
    run_ghz_scenario,
    scenario_exact_distribution,
)
from corrlab.errors import LatticeMismatchError
from corrlab.signaling import (
    SignalingVerdict,
    Statistic,
    ghz_verdict,
    jamming_unary_exact,
    pr_verdict,
    total_variation,
    tsirelson_verdict,
    unary_condition_check,
    variance_signature,
    verdict,
)

HALF = Fraction(1, 2)


def exact_pr(n, choice):
    return scenario_exact_distribution(
        ScenarioSpec(kind=ScenarioKind.PR_BOX, n_rounds=n, sender_choice=choice)
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
        with pytest.raises(LatticeMismatchError, match="round counts"):
            total_variation(exact_pr(4, "u"), exact_pr(6, "u"))

    def test_label_mismatch(self):
        pr = exact_pr(1, "u")
        ghz = scenario_exact_distribution(
            ScenarioSpec(kind=ScenarioKind.GHZ, n_rounds=1, sender_choice="u")
        ).marginal((0, 1))
        with pytest.raises(LatticeMismatchError, match="components"):
            total_variation(pr, ghz)

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
        one = scenario_exact_distribution(
            ScenarioSpec(kind=ScenarioKind.TSIRELSON, n_rounds=4)
        )
        with pytest.raises(ValueError, match="two components"):
            variance_signature(one)


class TestExactVerdicts:
    def test_pr_is_distinguishable(self):
        v = pr_verdict(6, RunMode.EXACT)
        assert v.distinguishable is True
        assert v.statistic is Statistic.TOTAL_VARIATION
        assert v.values == (Fraction(0), Fraction(11, 16))
        assert v.threshold == Fraction(0)
        sig = v.results["variance_signature"]
        assert sig["u"] == {"var_sum": Fraction(2, 3), "var_diff": Fraction(0)}
        assert sig["p"] == {"var_sum": Fraction(0), "var_diff": Fraction(2, 3)}

    def test_tsirelson_is_exactly_silent(self):
        v = tsirelson_verdict(6, RunMode.EXACT)
        assert v.distinguishable is False
        for axis in ("z", "x"):
            tv = v.results["tv_per_axis"][axis]
            # identically zero, not merely below threshold
            assert isinstance(tv, Fraction) and tv == 0
            for choice in ("u", "p"):
                assert v.results["collective_variance"][axis][choice] == Fraction(1, 6)

    def test_ghz_rare_event_probabilities_are_equal(self):
        v = ghz_verdict(5, RunMode.EXACT)
        assert v.statistic is Statistic.CONDITIONAL_PROBABILITY
        assert v.values == (Fraction(1, 1024), Fraction(1, 1024))
        assert v.distinguishable is False
        tv = v.results["tv_joint_receiver"]
        assert isinstance(tv, Fraction) and tv == 0

    def test_dispatcher(self):
        assert verdict(ScenarioKind.PR_BOX, 4).scenario is ScenarioKind.PR_BOX
        assert verdict(ScenarioKind.TSIRELSON, 4).scenario is ScenarioKind.TSIRELSON
        assert verdict(ScenarioKind.GHZ, 4).scenario is ScenarioKind.GHZ
        with pytest.raises(ValueError, match="unknown scenario kind"):
            verdict("pr-box", 4)

    def test_verdicts_share_one_signature(self):
        """``verdict`` dispatches every kind through one call, ``joint`` included."""
        signatures = {inspect.signature(fn) for fn in (pr_verdict, tsirelson_verdict, ghz_verdict)}
        assert len(signatures) == 1
        assert list(signatures.pop().parameters) == ["n_rounds", "mode", "trials", "seed", "joint"]
        widths = {
            kind: {len(run.labels) for run in verdict(kind, 2, RunMode.EXACT, joint=True).runs.values()}
            for kind in ScenarioKind
        }
        assert widths == {ScenarioKind.PR_BOX: {2}, ScenarioKind.TSIRELSON: {1}, ScenarioKind.GHZ: {3}}

    def test_report_shape(self):
        obj = pr_verdict(6, RunMode.EXACT).to_json_obj()
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
        v = pr_verdict(6, RunMode.MONTE_CARLO, trials=20_000, seed=3)
        assert v.distinguishable is True
        assert v.threshold == pytest.approx(5.0 / math.sqrt(20_000))
        assert float(v.values[1]) > 0.6

    def test_silent_scenarios_stay_silent(self):
        assert tsirelson_verdict(6, RunMode.MONTE_CARLO, trials=20_000, seed=3).distinguishable is False
        assert ghz_verdict(6, RunMode.MONTE_CARLO, trials=20_000, seed=3).distinguishable is False

    @pytest.mark.parametrize("trials", [1, 2, 3, 300])
    def test_variances_are_the_samples_exact_variances(self, trials):
        """Each sampled variance is float() of the exact variance of its sample, 0.0 for one trial."""

        def sample_variance(sums, coeffs, n):
            values = [Fraction(sum(c * int(s) for c, s in zip(coeffs, row)), n) for row in sums]
            mean = sum(values) / len(values)
            return float(sum((x - mean) ** 2 for x in values) / len(values))

        pr = pr_verdict(6, RunMode.MONTE_CARLO, trials, seed=5)
        for choice, run in pr.runs.items():
            assert pr.results["variance_signature"][choice] == {
                "var_sum": sample_variance(run.sums, (1, 1), 6),
                "var_diff": sample_variance(run.sums, (1, -1), 6),
            }
        ts = tsirelson_verdict(6, RunMode.MONTE_CARLO, trials, seed=5)
        for key, run in ts.runs.items():
            axis, choice = key.split("|")
            assert ts.results["collective_variance"][axis][choice] == sample_variance(run.sums, (1,), 6)
        if trials == 1:
            assert pr.results["variance_signature"]["u"]["var_sum"] == 0.0

    def test_agreement_with_exact_across_seeds(self):
        # sampled verdicts at trials = 10^5 must match the exact verdicts in
        # at least 99 of the 100 seeds 0..99, per scenario kind
        trials = 100_000
        exact = {
            ScenarioKind.PR_BOX: pr_verdict(6, RunMode.EXACT).distinguishable,
            ScenarioKind.TSIRELSON: tsirelson_verdict(6, RunMode.EXACT).distinguishable,
            ScenarioKind.GHZ: ghz_verdict(6, RunMode.EXACT).distinguishable,
        }
        runners = {
            ScenarioKind.PR_BOX: pr_verdict,
            ScenarioKind.TSIRELSON: tsirelson_verdict,
            ScenarioKind.GHZ: ghz_verdict,
        }
        for kind, runner in runners.items():
            agree = sum(
                runner(6, RunMode.MONTE_CARLO, trials=trials, seed=seed).distinguishable
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
        v = pr_verdict(3, RunMode.EXACT)
        assert v.results["rare_events"] == {"p_both_plus_under_u": Fraction(1, 8), "p_plus_minus_under_p": Fraction(1, 64)}
        assert v.checks["rare_event_match"] is False

    @pytest.mark.parametrize("seed", range(5))
    def test_total_variation_at_the_threshold_is_distinguishable(self, seed):
        """At N = 1 the two choices' (B, B') supports are disjoint, so TV is exactly 1.0, and so is 5/sqrt(25)."""
        v = pr_verdict(1, RunMode.MONTE_CARLO, trials=25, seed=seed)
        assert v.values[1] == v.threshold == 1.0
        assert v.distinguishable is True

    def test_values_exactly_a_threshold_apart_are_distinguishable(self):
        """25 trials make the sampled threshold 5/sqrt(25) exactly 1.0, the distance between the values (0.0, 1.0)."""
        spec = ScenarioSpec(kind=ScenarioKind.PR_BOX, n_rounds=1, trials=25, mode=RunMode.MONTE_CARLO)
        v = signaling._verdict(spec, Statistic.TOTAL_VARIATION, (0.0, 1.0), {})
        assert v.threshold == 1.0
        assert v.distinguishable is True


def assert_same_distribution(got, want):
    """Same labels, round count, and atoms in the same order with the same probabilities."""
    assert got.labels == want.labels
    assert got.n_rounds == want.n_rounds
    assert list(got.atoms()) == list(want.atoms())


class TestGhzReceivers:
    """The three-party verdict compares the (A_x, B_x) marginals of the whole runs."""

    @pytest.mark.parametrize("n", range(1, EXACT_MAX_ROUNDS + 1))
    def test_exact(self, n):
        v = ghz_verdict(n, RunMode.EXACT)
        assert set(v.results["receiver_distribution"]) == {"u", "p"}
        for choice, receivers in v.results["receiver_distribution"].items():
            joint = run_ghz_scenario(ScenarioSpec(kind=ScenarioKind.GHZ, n_rounds=n, sender_choice=choice))
            assert_same_distribution(receivers, joint.marginal((0, 1)))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), trials=st.integers(1, 300), seed=st.integers(0, 2**64 - 1))
    @example(n=1, trials=1, seed=0)
    @example(n=200, trials=300, seed=2**64 - 1)
    def test_sampled(self, n, trials, seed):
        """A receivers-only sampled run sums the first two columns of the joint run on the same seed."""
        v = ghz_verdict(n, RunMode.MONTE_CARLO, trials, seed)
        joint = ghz_verdict(n, RunMode.MONTE_CARLO, trials, seed, joint=True)
        receivers = v.results["receiver_distribution"]
        assert set(receivers) == set(v.runs) == set(joint.runs) == {"u", "p"}
        for choice, run in v.runs.items():
            whole = joint.runs[choice]
            assert run.labels == whole.labels[:2] == ("A_x", "B_x") and len(whole.labels) == 3
            assert np.array_equal(run.sums, whole.sums[:, :2])
            assert_same_distribution(receivers[choice], oracles.receivers_by_full_empirical(whole))
            assert_same_distribution(joint.results["receiver_distribution"][choice], receivers[choice])


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
        with pytest.raises(LatticeMismatchError, match="round counts"):
            unary_condition_check(exact_pr(4, "u"), exact_pr(6, "p"))

    def test_needs_shared_labels(self):
        pr = exact_pr(1, "u")
        ghz = scenario_exact_distribution(
            ScenarioSpec(kind=ScenarioKind.GHZ, n_rounds=1, sender_choice="u")
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
    v = SignalingVerdict(
        scenario=ScenarioKind.PR_BOX,
        n_rounds=2,
        mode=RunMode.EXACT,
        statistic=Statistic.TOTAL_VARIATION,
        values=(Fraction(0), Fraction(1, 2)),
        distinguishable=True,
        threshold=Fraction(0),
        seed=0,
    )
    obj = v.to_json_obj()
    assert obj["values"] == [Fraction(0), Fraction(1, 2)]
    assert obj["distinguishable"] is True
