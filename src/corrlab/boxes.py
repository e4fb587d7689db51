"""Correlation boxes: explicit conditional outcome distributions.

A box stores P(outcomes | settings) for two or three parties, each party
holding one dichotomic observable per setting label ("u" unprimed, "p"
primed).  Probabilities may be exact rationals or floats; the one box
the package builds, the Tsirelson box, is a Born-rule box of floats.
A malformed table, label or party count raises ``ValueError``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .quantum import PureState, bell_state, joint_probabilities, outcome_tuples


LABELS: tuple[str, str] = ("u", "p")
PROB_TOL = 1e-12


def _as_label(value) -> str:
    if value in LABELS:
        return value
    raise ValueError(f"unknown setting label {value!r}")


@dataclass(frozen=True, eq=False)
class DichotomicBox:
    """Conditional distribution table over +1/-1 outcome tuples.

    ``table`` maps a label per party (e.g. ("u", "p")) to a probability row
    over the 2^parties outcome tuples in canonical order (+1 before -1,
    party 0 slowest).
    """

    parties: int
    table: dict[tuple[str, ...], tuple[Fraction | float, ...]]

    def __post_init__(self):
        if self.parties not in (2, 3):
            raise ValueError("only 2- and 3-party boxes are supported")
        expected = set(itertools.product(LABELS, repeat=self.parties))
        clean: dict[tuple[str, ...], tuple[Fraction | float, ...]] = {}
        for key, row in self.table.items():
            key = tuple(_as_label(k) for k in key)
            if key not in expected:
                raise ValueError(f"unexpected setting key {key!r}")
            row = tuple(row)
            if len(row) != 2**self.parties:
                raise ValueError(f"row for {key!r} has length {len(row)}")
            for p in row:
                if p < 0 or p > 1:
                    raise ValueError(f"probability {p!r} outside [0,1]")
            total = sum(row)
            exact = all(isinstance(p, Fraction) for p in row)
            if (exact and total != 1) or (not exact and abs(float(total) - 1.0) > PROB_TOL):
                raise ValueError(f"row for {key!r} sums to {total!r}")
            clean[key] = row
        missing = expected - set(clean)
        if missing:
            raise ValueError(f"missing setting keys: {sorted(missing)}")
        object.__setattr__(self, "table", clean)

    @property
    def outcomes(self) -> tuple[tuple[int, ...], ...]:
        return outcome_tuples(self.parties)

    def row(self, labels) -> tuple[Fraction | float, ...]:
        key = tuple(_as_label(k) for k in labels)
        if len(key) != self.parties:
            raise ValueError(f"need {self.parties} labels, got {len(key)}")
        return self.table[key]

    def marginal(self, labels, keep: tuple[int, ...]) -> tuple[Fraction | float, ...]:
        """Marginal outcome distribution of the parties in ``keep``.

        Each entry sums its row entries in their own arithmetic: a float where
        one of them is a float, a Fraction otherwise.
        """
        row = self.row(labels)
        acc: dict[tuple[int, ...], Fraction | float] = {}
        for full, p in zip(self.outcomes, row):
            o = tuple(full[i] for i in keep)
            acc[o] = acc[o] + p if o in acc else p
        return tuple(_exact_unless_float(acc[o]) for o in outcome_tuples(len(keep)))


def _exact_unless_float(value) -> Fraction | float:
    """A float sum as a float, and any other (int or Fraction) as a Fraction."""
    if isinstance(value, float):
        return float(value)
    return value if isinstance(value, Fraction) else Fraction(value)


def correlation(box: DichotomicBox, settings) -> Fraction | float:
    """E[product of all outcomes] under the given settings."""
    acc = 0
    # Added in order, not with sum(), whose float path compensates rounding since Python 3.12.
    for outcome, p in zip(box.outcomes, box.row(settings)):
        acc = acc + math.prod(outcome) * p
    return _exact_unless_float(acc)


def check_no_signaling(box: DichotomicBox) -> dict:
    """Verify each party subset's marginal ignores the remaining settings.

    Looks at every nonempty proper subset of parties: its marginal outcome
    distribution, given its own labels, must not depend on how the other
    parties are set, up to ``PROB_TOL``.  Exact boxes give an exactly zero
    deviation.
    """
    n = box.parties
    max_dev: Fraction | float = Fraction(0)
    for size in range(1, n):
        for keep in itertools.combinations(range(n), size):
            # Each group's reference is its first settings, with every other party on "u".
            references: dict[tuple[str, ...], tuple] = {}
            for labels in itertools.product(LABELS, repeat=n):
                marg = box.marginal(labels, keep)
                reference = references.setdefault(tuple(labels[i] for i in keep), marg)
                for a, b in zip(reference, marg):
                    dev = abs(a - b)
                    if dev > max_dev:
                        max_dev = dev
    if not isinstance(max_dev, Fraction):
        max_dev = float(max_dev)
    return {"holds": bool(max_dev <= PROB_TOL), "max_marginal_deviation": max_dev}


def box_from_quantum(
    state: PureState, observables: tuple[tuple[str | float, str | float], ...]
) -> DichotomicBox:
    """Build a box from Born-rule joint probabilities.

    ``observables`` gives each party a (unprimed, primed) pair of
    single-site operators on that party's qubit.
    """
    parties = len(observables)
    if state.n_qubits != parties:
        raise ValueError(
            f"state has {state.n_qubits} qubits but {parties} parties were configured"
        )
    outcomes = outcome_tuples(parties)
    table = {}
    for key in itertools.product(LABELS, repeat=parties):
        factors = tuple(observables[i][0 if key[i] == "u" else 1] for i in range(parties))
        probs = joint_probabilities(state, factors)
        table[key] = tuple(probs[o] for o in outcomes)
    return DichotomicBox(parties=parties, table=table)


def make_tsirelson_box() -> DichotomicBox:
    """Bell-state box saturating the quantum CHSH maximum 2*sqrt(2).

    Alice measures Z or X; Bob measures (Z+X)/sqrt(2) or (Z-X)/sqrt(2),
    the xz-plane observables at angles +45 and -45 degrees.
    """
    return box_from_quantum(bell_state(), (("Z", "X"), (math.pi / 4, -math.pi / 4)))


def chsh_value(box: DichotomicBox) -> Fraction | float:
    """C(u,u) + C(u,p) + C(p,u) - C(p,p) for a bipartite box."""
    if box.parties != 2:
        raise ValueError("CHSH is defined for bipartite boxes")
    val = (
        correlation(box, ("u", "u"))
        + correlation(box, ("u", "p"))
        + correlation(box, ("p", "u"))
        - correlation(box, ("p", "p"))
    )
    return val
