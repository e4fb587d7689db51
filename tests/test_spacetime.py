from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from corrlab import spacetime
from corrlab.spacetime import (
    MAP_NAMES,
    SpacetimeEvent,
    binary_condition,
    causal_report,
    cone_overlap_apex,
    event_from_json_obj,
    loop_analysis,
    policy_scan,
    round_trip_chronology,
)
from oracles import boost

finite_coords = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
betas = st.floats(min_value=-0.99, max_value=0.99)
any_coords = st.floats(allow_nan=False, allow_infinity=False)


def ev(t, x):
    return SpacetimeEvent(t=t, x=x)


def in_cone(apex, e):
    """e is in apex's closed future cone: the overlap of e's cone with itself lies in apex's."""
    return binary_condition(e, e, apex)


class TestEvents:
    def test_interval(self):
        """The origin's closed future cone holds exactly the events with t >= 0 and t^2 - x^2 >= 0."""
        for t, x in [(2.0, 1.0), (1.0, -1.0), (1.0, 2.0), (-2.0, 1.0), (0.0, 0.0)]:
            assert in_cone(ev(0.0, 0.0), ev(t, x)) == (t >= 0 and t * t - x * x >= 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ev(math.inf, 0.0)
        with pytest.raises(ValueError, match="finite"):
            ev(0.0, math.nan)

    def test_json_round_trip(self):
        e = ev(1.5, -2.0)
        assert event_from_json_obj(e.to_json_obj()) == e
        with pytest.raises(ValueError, match="malformed"):
            event_from_json_obj({"t": 1.0})
        with pytest.raises(ValueError, match="malformed"):
            event_from_json_obj({"t": True, "x": 0.0})
        assert event_from_json_obj({"t": "1.5", "x": -2}) == e


class TestBoosts:
    def test_known_values(self):
        g = 1.0 / math.sqrt(1.0 - 0.25)
        e = boost(ev(0.0, 1.0), 0.5)
        assert e.t == pytest.approx(-0.5 * g)
        assert e.x == pytest.approx(g)

    def test_origin_is_fixed(self):
        assert boost(ev(0.0, 0.0), 0.7) == ev(0.0, 0.0)

    def test_gamma(self):
        # the rest frame's unit tick lasts gamma in the moving frame
        assert boost(ev(1.0, 0.0), 0.0) == ev(1.0, 0.0)
        assert boost(ev(1.0, 0.0), 0.8).t == pytest.approx(1.0 / 0.6)

    def test_rejects_superluminal(self):
        for bad in (1.0, -1.0, 1.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="beta"):
                boost(ev(0.0, 0.0), bad)

    @given(finite_coords, finite_coords, betas)
    def test_inverse_round_trip(self, t, x, beta):
        back = boost(boost(ev(t, x), beta), -beta)
        scale = max(1.0, abs(t), abs(x)) / (1.0 - beta * beta)
        assert back.t == pytest.approx(t, abs=1e-9 * scale)
        assert back.x == pytest.approx(x, abs=1e-9 * scale)

    @given(finite_coords, finite_coords, betas)
    def test_interval_is_preserved(self, t, x, beta):
        e = ev(t, x)
        scale = max(1.0, e.t * e.t + e.x * e.x) / (1.0 - beta * beta)
        b = boost(e, beta)
        assert b.t * b.t - b.x * b.x == pytest.approx(t * t - x * x, abs=1e-9 * scale)


class TestCones:
    def test_memberships(self):
        apex = ev(0.0, 0.0)
        assert in_cone(apex, ev(2.0, 1.0))
        assert in_cone(apex, ev(1.0, 1.0))  # lightlike boundary counts
        assert in_cone(apex, ev(0.0, 0.0))  # the apex itself counts
        assert not in_cone(apex, ev(0.5, 1.0))
        assert not in_cone(apex, ev(-1.0, 0.0))

    def test_memberships_past_overflowing_differences(self):
        # dx = 2e308 overflows while dt = 1.9e308 does not: outside the cone
        assert not in_cone(ev(-9e307, 1e308), ev(1e308, -1e308))
        # dt and dx both overflow to inf; exactly, dt = |dx| and dt > |dx|
        assert in_cone(ev(-1e308, -1e308), ev(1e308, 1e308))
        assert in_cone(ev(-1e308, 0.0), ev(1e308, 1e308))
        assert not in_cone(ev(-1e308, -1e308), ev(1e308, 1e308 + 1e292))

    def test_membership_below_float_resolution(self):
        # dt = 1 - 1e-17 < |dx| = 1, though 1.0 - 1e-17 rounds to 1.0
        assert not in_cone(ev(1e-17, 1.0), ev(1.0, 0.0))

    @given(finite_coords, finite_coords, finite_coords, finite_coords, betas)
    @settings(max_examples=120)
    def test_membership_is_boost_invariant(self, at, ax, et, ex, beta):
        apex, e = ev(at, ax), ev(et, ex)
        # boundary cases can flip under rounding; stay clear of the light cone
        margin = abs(e.t - apex.t) - abs(e.x - apex.x)
        assume(abs(margin) > 1e-6 * max(1.0, abs(at), abs(ax), abs(et), abs(ex)))
        assert in_cone(boost(apex, beta), boost(e, beta)) == in_cone(apex, e)


class TestConeOverlap:
    def test_symmetric_configuration(self):
        apex = cone_overlap_apex(ev(0.0, -1.0), ev(0.0, 1.0))
        assert (apex.t, apex.x) == (1.0, 0.0)

    @pytest.mark.parametrize("x", [5e-324, 1.5e-323])
    def test_symmetric_configuration_at_subnormal_scale(self, x):
        apex = cone_overlap_apex(ev(0.0, -x), ev(0.0, x))
        assert (apex.t, apex.x) == (x, 0.0)

    def test_nested_cones(self):
        # one cone inside the other: the later apex wins
        apex = cone_overlap_apex(ev(0.0, 0.0), ev(2.0, 0.5))
        assert (apex.t, apex.x) == (2.0, 0.5)

    def test_apex_is_in_both_cones(self):
        a, b = ev(0.0, -2.0), ev(1.0, 3.0)
        apex = cone_overlap_apex(a, b)
        assert oracles.in_future_cone_by_interval(a, apex)
        assert oracles.in_future_cone_by_interval(b, apex)

    @given(*(finite_coords,) * 6)
    @settings(max_examples=80)
    def test_apex_is_the_earliest_common_point(self, at, ax, bt, bx, et, ex):
        a, b, e = ev(at, ax), ev(bt, bx), ev(et, ex)
        apex = cone_overlap_apex(a, b)
        tol = 1e-9 * max(1.0, *(abs(c) for c in (at, ax, bt, bx, et, ex)))
        if oracles.in_future_cone_by_interval(a, e) and oracles.in_future_cone_by_interval(b, e):
            # every event in the overlap is in the apex's cone
            assert (e.t - apex.t) >= abs(e.x - apex.x) - tol

    @given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False))
    @example(1e308, -1e308)
    @example(1.0, 1e-20)
    @example(5e-324, -5e-324)
    def test_apex_of_an_event_with_itself_is_the_event(self, t, x):
        e = ev(t, x)
        assert cone_overlap_apex(e, e) == e

    def test_apex_is_rounded_once(self):
        # The exact apex rounds to t = 0.65; float null coordinates, rounded twice, gave 0.6499999999999999.
        apex = cone_overlap_apex(ev(0.1, 0.7), ev(0.3, -0.2))
        assert (apex.t, apex.x) == (0.65, 0.14999999999999997)

    def test_apex_past_null_coordinates_beyond_the_float_range(self):
        # The apex's null coordinates u = v = 1.5e308 overflow when added; the exact apex does not.
        apex = cone_overlap_apex(ev(1e308, -0.5e308), ev(1e308, 0.5e308))
        assert apex == ev(1e308 + 0.5e308, 0.0)

    def test_apex_beyond_the_float_range_is_refused(self):
        with pytest.raises(ValueError, match="beyond the float range"):
            cone_overlap_apex(ev(1e308, 1e308), ev(1e308, -1e308))

    def test_apex_at_an_input_keeps_its_negative_zero(self):
        a, b = ev(1.0, -0.0), ev(0.0, 0.0)
        assert cone_overlap_apex(a, b) is a
        assert math.copysign(1.0, cone_overlap_apex(b, a).x) == -1.0

    def test_lightlike_apex_is_the_later_input(self):
        a, b = ev(0.0, 0.0), ev(1.0, 1.0)
        assert cone_overlap_apex(a, b) is b
        assert cone_overlap_apex(b, a) is b

    def test_apex_of_coincident_inputs_is_the_first(self):
        a, b = ev(0.0, 0.0), ev(-0.0, -0.0)
        assert cone_overlap_apex(a, b) is a
        assert cone_overlap_apex(b, a) is b

    @given(*(any_coords,) * 4)
    @settings(max_examples=300)
    @example(1e308, 1e308, 1e308, -1e308)
    @example(1e308, -1e308, -1e308, 1e308)
    @example(-1e308, -1e308, 1e308, 1e308)
    @example(0.0, -5e-324, 0.0, 5e-324)
    @example(5e-324, 0.0, 0.0, 5e-324)
    @example(1.0, -0.0, 0.0, 0.0)
    @example(0.0, -0.0, -0.0, 0.0)
    def test_apex_is_an_input_exactly_when_the_oracle_puts_it_in_the_others_cone(self, at, ax, bt, bx):
        a, b = ev(at, ax), ev(bt, bx)
        a_after_b = oracles.in_future_cone_by_interval(b, a)
        b_after_a = oracles.in_future_cone_by_interval(a, b)
        try:
            apex = cone_overlap_apex(a, b)
        except ValueError as exc:
            # only a corner that is neither input is rounded, and so refused
            assert "beyond the float range" in str(exc)
            assert not (a_after_b or b_after_a)
            return
        assert (apex is a) == a_after_b
        assert (apex is b) == (b_after_a and not a_after_b)


class TestBinaryCondition:
    def _events(self, j_t, j_x, a=(0.0, -1.0), b=(0.0, 1.0)):
        return ev(*a), ev(*b), ev(j_t, j_x)

    def test_jammer_on_time(self):
        a_hat, b_hat, j_hat = self._events(-0.5, 0.0)
        assert binary_condition(a_hat, b_hat, j_hat) is True
        assert cone_overlap_apex(a_hat, b_hat) == ev(1.0, 0.0)

    def test_jammer_too_late(self):
        assert binary_condition(*self._events(2.0, 0.0)) is False

    def test_retrocausal_geometry(self):
        # the jammer acts after the overlap apex would allow in its own past
        a_hat, b_hat, j_hat = self._events(1.0, 0.0, a=(0.0, -2.0), b=(0.0, 2.0))
        assert binary_condition(a_hat, b_hat, j_hat) is True
        assert cone_overlap_apex(a_hat, b_hat) == ev(2.0, 0.0)

    def test_verdict_reads_the_exact_apex(self):
        # The apex is reported as (0.65, 0.14999999999999997) but lies 3 * 2^-56 earlier, outside a jammer there.
        a_hat, b_hat, j_hat = self._events(0.65, 0.14999999999999997, a=(0.1, 0.7), b=(0.3, -0.2))
        assert binary_condition(a_hat, b_hat, j_hat) is False
        assert cone_overlap_apex(a_hat, b_hat) == j_hat

    def test_matches_grid_oracle(self):
        cases = [
            ((0.0, -1.0), (0.0, 1.0), (-0.5, 0.0)),
            ((0.0, -1.0), (0.0, 1.0), (2.0, 0.0)),
            ((0.0, -2.0), (0.0, 2.0), (1.0, 0.0)),
            ((0.0, 0.0), (2.0, 0.5), (1.0, 0.2)),
            ((0.0, 0.0), (2.0, 0.5), (1.0, 2.0)),
            ((-1.0, 0.0), (1.0, 1.0), (0.0, -0.5)),
        ]
        for a, b, j in cases:
            a_hat, b_hat, j_hat = ev(*a), ev(*b), ev(*j)
            grid_ok = oracles.grid_cone_check(a, b, j)
            if binary_condition(a_hat, b_hat, j_hat):
                assert grid_ok
            else:
                # the apex itself witnesses the violation
                apex = cone_overlap_apex(a_hat, b_hat)
                assert not oracles.in_future_cone_by_interval(j_hat, apex)

    @given(*(any_coords,) * 6)
    @settings(max_examples=300)
    @example(1e308, -1e308, 1e308, 1e308, -1e308, 0.0)
    @example(1e308, -1e308, 1e308, -1e308, -9e307, 1e308)
    @example(0.0, -5e-324, 0.0, 5e-324, 0.0, -5e-324)
    @example(0.0, -5e-324, 0.0, 5e-324, 5e-324, 0.0)
    @example(1.0, -0.0, 0.0, 0.0, 1.0, 0.0)
    @example(-0.0, -0.0, 0.0, 0.0, 0.0, -0.0)
    def test_holds_exactly_when_the_exact_corner_is_in_the_jammers_cone(self, at, ax, bt, bx, jt, jx):
        a_hat, b_hat, j_hat = ev(at, ax), ev(bt, bx), ev(jt, jx)
        corner = oracles.overlap_corner_by_rays(a_hat, b_hat)
        assert binary_condition(a_hat, b_hat, j_hat) is oracles.in_future_cone_by_interval(j_hat, corner)

    @given(*(st.floats(min_value=-5, max_value=5),) * 6, st.floats(min_value=-0.9, max_value=0.9))
    @settings(max_examples=100)
    def test_verdict_is_boost_invariant(self, at, ax, bt, bx, jt, jx, beta):
        events = ev(at, ax), ev(bt, bx), ev(jt, jx)
        apex = cone_overlap_apex(events[0], events[1])
        margin = (apex.t - jt) - abs(apex.x - jx)
        assume(abs(margin) > 1e-6 * max(1.0, abs(apex.t), abs(apex.x), abs(jt), abs(jx)))
        boosted = [boost(e, beta) for e in events]
        assert binary_condition(*boosted) == binary_condition(*events)


class TestLoops:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="unknown device map"):
            loop_analysis("copy", "echo")
        # Alice's name is checked first.
        with pytest.raises(ValueError, match="'copy'"):
            loop_analysis("copy", "mirror")

    def test_crossed_bijective_pair_has_no_fixed_point(self):
        report = loop_analysis("echo", "invert")
        assert report["consistent"] is False
        assert report["fixed_points"] == []

    def test_matched_bijective_pair_is_underdetermined(self):
        report = loop_analysis("echo", "echo")
        assert report["consistent"] is True
        assert report["fixed_points"] == [(0, 0), (1, 1)]

    def test_constant_map_pins_the_loop(self):
        report = loop_analysis("const0", "invert")
        assert report["consistent"] is True
        assert report["fixed_points"] == [(0, 1)]

    @pytest.mark.parametrize("alice_map", MAP_NAMES)
    @pytest.mark.parametrize("bob_map", MAP_NAMES)
    def test_fixed_points_match_the_four_pair_scan(self, alice_map, bob_map):
        report = loop_analysis(alice_map, bob_map)
        want = oracles.loop_fixed_points_by_scan(alice_map, bob_map)
        assert report["fixed_points"] == want
        assert report["consistent"] == bool(want)

    def test_scan_matches_truth_table_oracle(self):
        want = oracles.truth_table_loop_scan()
        rows = policy_scan()
        assert len(rows) == 16
        for row in rows:
            key = (row["alice_map"], row["bob_map"])
            assert row["n_fixed_points"] == want[key]
            assert row["consistent"] == (want[key] >= 1)

    def test_scan_counts(self):
        rows = policy_scan()
        by_count = {k: sum(1 for r in rows if r["n_fixed_points"] == k) for k in (0, 1, 2)}
        assert by_count == {0: 2, 1: 12, 2: 2}
        contradictory = {
            (r["alice_map"], r["bob_map"]) for r in rows if r["n_fixed_points"] == 0
        }
        assert contradictory == {("echo", "invert"), ("invert", "echo")}
        # all four bijective pairings lack a unique fixed point
        non_unique = {
            (r["alice_map"], r["bob_map"]) for r in rows if r["n_fixed_points"] != 1
        }
        assert non_unique == {
            ("echo", "echo"),
            ("echo", "invert"),
            ("invert", "echo"),
            ("invert", "invert"),
        }

    def test_map_names_are_exposed(self):
        assert set(MAP_NAMES) == {"echo", "invert", "const0", "const1"}

    def test_report_reads_the_summary_counted_once(self, monkeypatch):
        """A causal report with device maps runs its own loop; the 16 of the scan run once, for the first such report.

        Each report gets its own copy of the summary.
        """
        spacetime._policy_scan_summary.cache_clear()
        calls = []
        monkeypatch.setattr(spacetime, "policy_scan", lambda: calls.append(1) or policy_scan())
        config = json.loads((Path(__file__).resolve().parent.parent / "scenarios" / "causal_loop.json").read_text())
        first, second = (causal_report(config)[0]["policy_scan_summary"] for _ in range(2))
        assert calls == [1]
        by_count = Counter(row["n_fixed_points"] for row in policy_scan())
        assert first == second == spacetime._policy_scan_summary() == {
            "pairs": by_count.total(),
            "contradictory_pairs": by_count[0],
            "underdetermined_pairs": by_count[2],
            "pairs_without_unique_fixed_point": by_count.total() - by_count[1],
        }
        assert len({id(first), id(second), id(spacetime._policy_scan_summary())}) == 3


class TestChronology:
    def test_reply_lands_before_the_send(self):
        report = round_trip_chronology(alice_x=0.0, bob_x=1.0, send_t=0.0, beta=0.5)
        assert report["reply_arrival"] == ev(-0.5, 0.0)
        assert report["retrocausal"] is True

    def test_no_boost_no_retrocausality(self):
        report = round_trip_chronology(alice_x=0.0, bob_x=1.0, send_t=0.0, beta=0.0)
        assert report["reply_arrival"].t == 0.0
        assert report["retrocausal"] is False

    def test_backwards_boost(self):
        report = round_trip_chronology(alice_x=0.0, bob_x=1.0, send_t=0.0, beta=-0.5)
        assert report["reply_arrival"].t == pytest.approx(0.5)
        assert report["retrocausal"] is False

    def test_continuity_in_beta(self):
        # the arrival time slides linearly to the send time as beta -> 0
        last = None
        for beta in (0.4, 0.2, 0.1, 0.05, 0.01):
            t = round_trip_chronology(0.0, 2.0, 1.0, beta)["reply_arrival"].t
            assert t == pytest.approx(1.0 - 2.0 * beta)
            if last is not None:
                assert abs(t - 1.0) < abs(last - 1.0)
            last = t

    def test_rejects_superluminal(self):
        with pytest.raises(ValueError, match="beta"):
            round_trip_chronology(0.0, 1.0, 0.0, 1.0)

    def test_reply_past_an_overflowing_separation(self):
        # bob_x - alice_x = 2e308 overflows; the reply time -2e307 does not
        report = round_trip_chronology(alice_x=-1e308, bob_x=1e308, send_t=0.0, beta=0.1)
        assert report["reply_arrival"] == ev(-0.1 * 1e308 * 2, -1e308)
        assert report["retrocausal"] is True

    def test_reply_below_float_resolution(self):
        # The reply lands at 1 - 1e-17, before the send, though its time rounds to 1.0.
        report = round_trip_chronology(alice_x=0.0, bob_x=1.0, send_t=1.0, beta=1e-17)
        assert report["reply_arrival"] == ev(1.0, 0.0)
        assert report["retrocausal"] is True

    def test_reply_beyond_the_float_range_is_refused(self):
        with pytest.raises(ValueError, match="beyond the float range"):
            round_trip_chronology(alice_x=-1e308, bob_x=1e308, send_t=1e308, beta=-0.9)

    @given(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=60)
    @example(alice_x=0.0, bob_x=1e-15, send_t=10.0, beta=0.5)
    def test_retrocausal_exactly_when_bob_is_ahead(self, alice_x, bob_x, send_t, beta):
        # beta > 0, so the reply lands before the send exactly when Bob is ahead, however small the shift
        report = round_trip_chronology(alice_x, bob_x, send_t, beta)
        assert report["retrocausal"] == (bob_x > alice_x)
