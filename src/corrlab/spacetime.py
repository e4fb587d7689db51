"""1+1D Minkowski geometry: boosts, light cones, and causal-loop logic.

Units have c = 1.  Light cones are closed, so lightlike separation counts
as inside; the containment questions below are stated as closed-cone
membership.  Cone memberships, overlap apexes and reply times are computed
exactly on the rationals the float coordinates stand for, and a reported
coordinate is rounded once, so the boundary is decided without rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

FIXED_POINT_DOMAIN = ((0, 0), (0, 1), (1, 0), (1, 1))

MAP_NAMES = ("echo", "invert", "const0", "const1")
_MAP_TABLE = {
    "echo": lambda b: b,
    "invert": lambda b: 1 - b,
    "const0": lambda b: 0,
    "const1": lambda b: 1,
}


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


def boost(e: SpacetimeEvent, beta: float) -> SpacetimeEvent:
    """The event in the frame moving with velocity beta, |beta| < 1."""
    if not math.isfinite(beta) or abs(beta) >= 1:
        raise ValueError("boost velocity must satisfy |beta| < 1")
    g = 1.0 / math.sqrt(1.0 - beta * beta)
    return SpacetimeEvent(
        t=g * (e.t - beta * e.x),
        x=g * (e.x - beta * e.t),
    )


def in_future_cone(apex: SpacetimeEvent, e: SpacetimeEvent) -> bool:
    """Closed future light cone: (e.t - apex.t) >= |e.x - apex.x|, compared exactly."""
    return Fraction(e.t) - Fraction(apex.t) >= abs(Fraction(e.x) - Fraction(apex.x))


@dataclass(frozen=True)
class CausalConfig:
    """The three events of the jamming geometry question."""

    a_hat: SpacetimeEvent
    b_hat: SpacetimeEvent
    j_hat: SpacetimeEvent


def _null_coordinates(e: SpacetimeEvent) -> tuple[Fraction, Fraction]:
    """The exact (u, v) = (t - x, t + x): e's closed future cone is the quadrant u' >= u, v' >= v."""
    t, x = Fraction(e.t), Fraction(e.x)
    return t - x, t + x


def _overlap_corner(a: SpacetimeEvent, b: SpacetimeEvent) -> tuple[Fraction, Fraction]:
    """The exact (t, x) of the apex of the overlap of a's and b's future cones.

    The intersection of two quadrants is again a quadrant, whose corner has
    the componentwise maxima of their null coordinates.
    """
    (ua, va), (ub, vb) = _null_coordinates(a), _null_coordinates(b)
    u, v = max(ua, ub), max(va, vb)
    return (u + v) / 2, (v - u) / 2


def cone_overlap_apex(a: SpacetimeEvent, b: SpacetimeEvent) -> SpacetimeEvent:
    """Apex of the intersection of two future light cones in 1+1D.

    The apex is the earliest event causally after both inputs; when it is
    one of them, it is returned as given.  Otherwise it is computed exactly
    and each coordinate rounded once, so every apex within float range
    comes out, and one beyond it is refused.
    """
    if in_future_cone(b, a):
        return a
    if in_future_cone(a, b):
        return b
    t, x = _overlap_corner(a, b)
    what = "the apex of the two cones' overlap"
    return SpacetimeEvent(t=_round_once(t, what), x=_round_once(x, what))


def binary_condition(config: CausalConfig) -> dict:
    """Does the overlap of the futures of a_hat and b_hat sit inside j_hat's future?

    In 1+1D the overlap region is itself a (closed) future cone, so it is
    contained in another future cone exactly when its apex is: when each of
    the apex's null coordinates, the maxima over a_hat and b_hat, reaches
    j_hat's.  The verdict is read from these exact values, not from the
    rounded apex reported, and the apex is computed once, by cone_overlap_apex.
    """
    (ua, va), (ub, vb), (uj, vj) = map(_null_coordinates, (config.a_hat, config.b_hat, config.j_hat))
    return {
        "holds": max(ua, ub) >= uj and max(va, vb) >= vj,
        "overlap_apex": cone_overlap_apex(config.a_hat, config.b_hat),
    }


@dataclass(frozen=True)
class DevicePolicy:
    """How each device turns the bit it receives into the bit it emits."""

    alice_map: str
    bob_map: str

    def __post_init__(self):
        for name in (self.alice_map, self.bob_map):
            if not isinstance(name, str) or name not in _MAP_TABLE:
                raise ValueError(f"unknown device map {name!r}; choose from {MAP_NAMES}")


def loop_analysis(policy: DevicePolicy) -> dict:
    """Solve the closed loop i_A = alice(i_B), i_B = bob(i_A) over bits.

    The loop is consistent when at least one fixed point exists.  Zero
    fixed points is the self-contradictory configuration; two fixed
    points means the loop is consistent but underdetermined.
    """
    alice, bob = _MAP_TABLE[policy.alice_map], _MAP_TABLE[policy.bob_map]
    fixed_points = [
        (i_a, i_b)
        for i_a, i_b in FIXED_POINT_DOMAIN
        if alice(i_b) == i_a and bob(i_a) == i_b
    ]
    return {
        "consistent": len(fixed_points) >= 1,
        "fixed_points": fixed_points,
    }


def policy_scan() -> list[dict]:
    """loop_analysis over all 16 (alice_map, bob_map) pairs.

    Exactly the four pairs where both maps are bijective fail to have a
    unique fixed point: the two opposite-parity pairs (echo with invert)
    have none at all, and the two equal-parity pairs have two.
    """
    rows = []
    for alice_map in MAP_NAMES:
        for bob_map in MAP_NAMES:
            policy = DevicePolicy(alice_map=alice_map, bob_map=bob_map)
            result = loop_analysis(policy)
            rows.append(
                {
                    "alice_map": alice_map,
                    "bob_map": bob_map,
                    "consistent": result["consistent"],
                    "n_fixed_points": len(result["fixed_points"]),
                    "fixed_points": result["fixed_points"],
                }
            )
    return rows


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
