"""1+1D Minkowski geometry: light cones, round-trip chronology, and causal-loop logic.

Units have c = 1.  An event's closed future light cone is one thing only:
in the null coordinates (u, v) = (t - x, t + x) it is the quadrant
u' >= u, v' >= v, with the event at its corner, so lightlike separation
counts as inside.  Two such quadrants overlap in a third, whose corner is
the apex of the overlap.  Null coordinates are computed exactly on the
rationals the float coordinates stand for, and a reported coordinate is
rounded once, so every boundary is decided without rounding.  Callers
pass plain events, floats and device-map names; ``causal_report`` a
parsed ``causal`` config, which it reads into the report's section.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

_MAP_TABLE = {
    "echo": lambda b: b,
    "invert": lambda b: 1 - b,
    "const0": lambda b: 0,
    "const1": lambda b: 1,
}
MAP_NAMES = tuple(_MAP_TABLE)


@dataclass(frozen=True)
class SpacetimeEvent:
    t: float
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise ValueError("event coordinates must be finite")

    def to_json_obj(self) -> dict:
        return {"t": self.t, "x": self.x}


def json_number(value) -> float:
    """A JSON number or numeric string as a float; a bool is not a number.

    Raises TypeError, ValueError or OverflowError for anything else.
    """
    if isinstance(value, bool):
        raise TypeError("a bool is not a number")
    return float(value)


def event_from_json_obj(obj) -> SpacetimeEvent:
    try:
        return SpacetimeEvent(t=json_number(obj["t"]), x=json_number(obj["x"]))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed event object {obj!r}") from exc


def _round_once(value: Fraction, what: str) -> float:
    """The float nearest an exact rational, or ValueError when it is past the float range."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} lies beyond the float range") from None


def _null_coordinates(e: SpacetimeEvent) -> tuple[Fraction, Fraction]:
    """The exact (u, v) = (t - x, t + x): e's closed future cone is the quadrant u' >= u, v' >= v."""
    t, x = Fraction(e.t), Fraction(e.x)
    return t - x, t + x


def cone_overlap_apex(a: SpacetimeEvent, b: SpacetimeEvent) -> SpacetimeEvent:
    """Apex of the intersection of two future light cones in 1+1D.

    The overlap of two quadrants is the quadrant at the componentwise
    maxima of their null coordinates.  When that corner is an input's own,
    the input is returned as given; otherwise the exact corner is rounded
    once, so every apex within float range comes out, and one beyond it is
    refused.
    """
    (ua, va), (ub, vb) = _null_coordinates(a), _null_coordinates(b)
    u, v = max(ua, ub), max(va, vb)
    if (u, v) == (ua, va):
        return a
    if (u, v) == (ub, vb):
        return b
    what = "the apex of the two cones' overlap"
    return SpacetimeEvent(t=_round_once((u + v) / 2, what), x=_round_once((v - u) / 2, what))


def binary_condition(a_hat: SpacetimeEvent, b_hat: SpacetimeEvent, j_hat: SpacetimeEvent) -> bool:
    """Does the overlap of the futures of a_hat and b_hat sit inside j_hat's future?

    The overlap is the quadrant at the maxima of a_hat's and b_hat's null
    coordinates, so it lies in j_hat's quadrant exactly when each maximum
    reaches j_hat's.  The verdict is read from these exact values, not
    from the rounded apex that ``cone_overlap_apex`` reports.
    """
    (ua, va), (ub, vb), (uj, vj) = map(_null_coordinates, (a_hat, b_hat, j_hat))
    return max(ua, ub) >= uj and max(va, vb) >= vj


def loop_analysis(alice_map: str, bob_map: str) -> dict:
    """A report's loop section: the closed loop i_A = alice(i_B), i_B = bob(i_A) over bits.

    A name outside ``MAP_NAMES`` is a ValueError, Alice's checked first.
    Each fixed point is (i_A, bob(i_A)) for an i_A = alice(bob(i_A)); the
    loop is consistent when one exists.  Zero fixed points is the
    self-contradictory configuration; two means it is underdetermined.
    """
    for name in (alice_map, bob_map):
        if not isinstance(name, str) or name not in _MAP_TABLE:
            raise ValueError(f"unknown device map {name!r}; choose from {MAP_NAMES}")
    alice, bob = _MAP_TABLE[alice_map], _MAP_TABLE[bob_map]
    fixed_points = [(i_a, bob(i_a)) for i_a in (0, 1) if alice(bob(i_a)) == i_a]
    return {
        "alice_map": alice_map,
        "bob_map": bob_map,
        "consistent": len(fixed_points) >= 1,
        "fixed_points": fixed_points,
    }


def policy_scan() -> list[dict]:
    """loop_analysis over all 16 (alice_map, bob_map) pairs, each row with its n_fixed_points.

    Exactly the four pairs where both maps are bijective fail to have a
    unique fixed point: the two opposite-parity pairs (echo with invert)
    have none at all, and the two equal-parity pairs have two.
    """
    rows = []
    for alice_map in MAP_NAMES:
        for bob_map in MAP_NAMES:
            loop = loop_analysis(alice_map, bob_map)
            rows.append({**loop, "n_fixed_points": len(loop["fixed_points"])})
    return rows


@functools.cache
def _policy_scan_summary() -> dict:
    """A report's policy-scan summary, the same for every config: counted once per process, on first use; each report copies it."""
    counts = [row["n_fixed_points"] for row in policy_scan()]
    return {
        "pairs": len(counts),
        "contradictory_pairs": counts.count(0),
        "underdetermined_pairs": counts.count(2),
        "pairs_without_unique_fixed_point": len(counts) - counts.count(1),
    }


def round_trip_chronology(alice_x: float, bob_x: float, send_t: float, beta: float) -> dict:
    """Where and when does the reply to a two-leg superluminal exchange land?

    Alice's bit travels instantaneously in this frame from (send_t,
    alice_x) to Bob at (send_t, bob_x).  Bob's reply travels
    instantaneously in the frame boosted by beta, i.e. along the primed
    simultaneity line t - beta*x = const through his reception event, and
    is read off where that line crosses Alice's worldline.  The reply is
    retrocausal when it arrives strictly before the send.  Its time is
    computed exactly: the verdict is read from the exact time, and the
    reported arrival rounds it once.
    """
    if not abs(beta) < 1:  # also refuses NaN
        raise ValueError("boost velocity must satisfy |beta| < 1")
    exact = Fraction(send_t) - Fraction(beta) * (Fraction(bob_x) - Fraction(alice_x))
    reply = SpacetimeEvent(t=_round_once(exact, "the reply's arrival"), x=alice_x)
    return {
        "reply_arrival": reply,
        "retrocausal": exact < send_t,
    }


def causal_report(data) -> tuple[dict, dict]:
    """The ``causal`` report's results and checks from a parsed config: a section for each part it holds.

    A config that is not an object, is malformed or holds no section is a ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError("causal config must be a JSON object")
    events = {key: event_from_json_obj(data[key]) for key in ("a_hat", "b_hat", "j_hat") if key in data}
    results: dict = {}
    checks: dict = {}

    if "a_hat" in events and "b_hat" in events:
        apex = cone_overlap_apex(events["a_hat"], events["b_hat"]).to_json_obj()
        results["overlap_apex"] = apex
        if "j_hat" in events:
            holds = binary_condition(**events)
            results["binary_condition"] = {"holds": holds, "overlap_apex": apex}
            checks["binary_condition_holds"] = holds

    if "beta" in data:
        if "a_hat" not in events or "b_hat" not in events:
            raise ValueError("round-trip chronology needs a_hat and b_hat events")
        try:
            beta = json_number(data["beta"])
        except (TypeError, ValueError, OverflowError):
            raise ValueError("beta must be a number") from None
        chrono = round_trip_chronology(
            alice_x=events["a_hat"].x,
            bob_x=events["b_hat"].x,
            send_t=events["a_hat"].t,
            beta=beta,
        )
        results["round_trip"] = {
            "reply_arrival": chrono["reply_arrival"].to_json_obj(),
            "retrocausal": chrono["retrocausal"],
            "beta": beta,
        }
        checks["retrocausal"] = chrono["retrocausal"]

    if "alice_map" in data or "bob_map" in data:
        if not ("alice_map" in data and "bob_map" in data):
            raise ValueError("loop analysis needs both alice_map and bob_map")
        results["loop"] = loop = loop_analysis(data["alice_map"], data["bob_map"])
        results["policy_scan_summary"] = dict(_policy_scan_summary())
        checks["loop_consistent"] = loop["consistent"]

    if not results:
        raise ValueError("config contains no analyzable sections")
    return results, checks
