"""Independent oracle computations used to cross-check the package.

Everything here is deliberately written from scratch against the same
definitions, using different routes (brute-force enumeration, symbolic
Born rule, GF(2) linear algebra, grid geometry) so the main code and the
tests cannot share a bug.  The paper's boxes that no report reads (the
PR box, the GHZ box and the local deterministic boxes) and the Lorentz
boost live here too, as the references the package is checked against.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import os
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import sympy as sp

from corrlab.boxes import LABELS, DichotomicBox, box_from_quantum
from corrlab.ensembles import EnsembleRun, ExactDistribution, JammingRecords
from corrlab.errors import InvariantViolation
from corrlab.quantum import _projections, ghz_state, outcome_tuples
from corrlab.spacetime import SpacetimeEvent


def pr_bruteforce_joint(n: int, choice: str) -> dict[tuple[Fraction, Fraction], Fraction]:
    """Joint (B, B') pmf by enumerating all 2^n outcome strings.

    Each round Alice's outcome is +1/-1 with probability 1/2; Bob's pair
    is (a, a) under the unprimed choice and (a, -a) under the primed one.
    """
    out: dict[tuple[Fraction, Fraction], Fraction] = defaultdict(Fraction)
    weight = Fraction(1, 2**n)
    for bits in itertools.product((1, -1), repeat=n):
        b_sum = sum(bits)
        bp_sum = b_sum if choice == "u" else -b_sum
        key = (Fraction(b_sum, n), Fraction(bp_sum, n))
        out[key] += weight
    return dict(out)


def make_pr_box() -> DichotomicBox:
    """The maximally CHSH-violating no-signaling box.

    C(u,u) = C(u,p) = C(p,u) = 1 and C(p,p) = -1 with unbiased marginals,
    so outcomes agree with probability 1/2 each except under (p,p) where
    they disagree.
    """
    half = Fraction(1, 2)
    zero = Fraction(0)
    agree = (half, zero, zero, half)
    disagree = (zero, half, half, zero)
    table = {
        ("u", "u"): agree,
        ("u", "p"): agree,
        ("p", "u"): agree,
        ("p", "p"): disagree,
    }
    return DichotomicBox(parties=2, table=table)


def make_local_deterministic_box(responses: tuple[dict[str, int], ...]) -> DichotomicBox:
    """Box where each party outputs a fixed +1/-1 per setting label.

    ``responses`` holds one {label: outcome} dict per party.
    """
    parties = len(responses)
    outcomes = outcome_tuples(parties)
    table = {}
    for key in itertools.product(LABELS, repeat=parties):
        fixed = tuple(responses[i][key[i]] for i in range(parties))
        table[key] = tuple(Fraction(1) if o == fixed else Fraction(0) for o in outcomes)
    return DichotomicBox(parties=parties, table=table)


def make_ghz_box() -> DichotomicBox:
    """Three-party box from the GHZ state with X as unprimed, Y as primed."""
    return box_from_quantum(ghz_state(), (("X", "Y"),) * 3)


@dataclass(frozen=True, eq=False)
class FractionDistribution:
    """Joint pmf of collective variables as sorted Fraction tuples with Fraction probabilities.

    Support points are distinct tuples of Fractions on the lattice
    {-1 + 2k/N}, kept in sorted order; probabilities are non-negative and
    sum to exactly 1.  The dict-and-Fraction route to every statistic of
    ``ExactDistribution``.
    """

    labels: tuple[str, ...]
    support: tuple[tuple[Fraction, ...], ...]
    probs: tuple[Fraction, ...]
    n_rounds: int

    def __post_init__(self):
        assert sum(self.probs) == 1 and all(p >= 0 for p in self.probs)
        n = self.n_rounds
        for point in self.support:
            assert len(point) == len(self.labels)
            for v in point:
                assert v * n == int(v * n) and abs(v) <= 1 and (int(v * n) - n) % 2 == 0
        order = sorted(range(len(self.support)), key=self.support.__getitem__)
        object.__setattr__(self, "support", tuple(self.support[i] for i in order))
        object.__setattr__(self, "probs", tuple(self.probs[i] for i in order))
        assert len(set(self.support)) == len(self.support)

    @classmethod
    def from_mapping(cls, mapping, labels, n_rounds) -> "FractionDistribution":
        items = [(tuple(Fraction(x) for x in k), Fraction(v)) for k, v in mapping.items() if v]
        return cls(labels, tuple(k for k, _ in items), tuple(v for _, v in items), n_rounds)

    def as_mapping(self) -> dict[tuple[Fraction, ...], Fraction]:
        return dict(zip(self.support, self.probs))

    def probability(self, predicate) -> Fraction:
        return sum((p for v, p in zip(self.support, self.probs) if predicate(v)), Fraction(0))

    def marginal(self, indices: tuple[int, ...]) -> "FractionDistribution":
        acc: dict[tuple[Fraction, ...], Fraction] = defaultdict(Fraction)
        for v, p in zip(self.support, self.probs):
            acc[tuple(v[i] for i in indices)] += p
        return FractionDistribution.from_mapping(acc, tuple(self.labels[i] for i in indices), self.n_rounds)

    def mean(self, coeffs) -> Fraction:
        return sum((p * sum(Fraction(c) * x for c, x in zip(coeffs, v)) for v, p in zip(self.support, self.probs)), Fraction(0))

    def variance(self, coeffs) -> Fraction:
        m = self.mean(coeffs)
        total = Fraction(0)
        for v, p in zip(self.support, self.probs):
            s = sum(Fraction(c) * x for c, x in zip(coeffs, v))
            total += p * s * s
        return total - m * m

    def atoms(self) -> list[tuple[tuple[str, ...], int, int]]:
        """Each support point as "n/d" text with its probability's numerator and denominator."""
        return [
            (tuple(f"{x.numerator}/{x.denominator}" for x in v), p.numerator, p.denominator)
            for v, p in zip(self.support, self.probs)
        ]


def total_variation_by_union(p: FractionDistribution, q: FractionDistribution) -> Fraction:
    """(1/2) * sum of |p - q| over the union of the two supports."""
    mp, mq = p.as_mapping(), q.as_mapping()
    return sum((abs(mp.get(k, 0) - mq.get(k, 0)) for k in set(mp) | set(mq)), Fraction(0)) / 2


def box_marginal_from_zero(box, labels, keep: tuple[int, ...]) -> tuple:
    """A box row's marginal on the parties ``keep``, each entry summed from Fraction(0).

    The sums of ``DichotomicBox.marginal`` before it added entries in the
    row's own arithmetic: an entry is a Fraction unless a float was added.
    """
    sub = list(itertools.product((1, -1), repeat=len(keep)))
    acc = {o: Fraction(0) for o in sub}
    for full, p in zip(itertools.product((1, -1), repeat=box.parties), box.row(labels)):
        acc[tuple(full[i] for i in keep)] += p
    return tuple(acc[o] for o in sub)


def box_correlation_from_zero(box, settings) -> Fraction | float:
    """E[product of all outcomes] summed from Fraction(0), then a float unless still a Fraction."""
    acc = Fraction(0)
    for outcome, p in zip(itertools.product((1, -1), repeat=box.parties), box.row(settings)):
        acc = acc + math.prod(outcome) * p
    return acc if isinstance(acc, Fraction) else float(acc)


def lattice_mapping(dist: ExactDistribution) -> dict[tuple[Fraction, ...], Fraction]:
    """The nonzero cells of a lattice distribution as {value tuple: probability}, in grid order."""
    n = dist.n_rounds
    out = {}
    for cell, w in zip(dist.cells, dist.weights):
        point = []
        for _ in dist.labels:
            cell, digit = divmod(cell, n + 1)
            point.insert(0, Fraction(2 * digit - n, n))
        out[tuple(point)] = Fraction(w, dist.denominator)
    return out


def receivers_by_full_empirical(run: EnsembleRun) -> FractionDistribution:
    """The (A_x, B_x) pmf of a sampled three-party run, by projecting its whole empirical pmf.

    Builds the empirical distribution of all three components by a
    row-wise unique, then sums out Jim's, instead of histogramming the
    receivers' columns alone.
    """
    full = empirical_by_row_unique(run.sums, run.n_rounds)
    return FractionDistribution.from_mapping(full, run.labels, run.n_rounds).marginal((0, 1))


def binomial_collective_pmf(n: int) -> dict[Fraction, Fraction]:
    """pmf of the average of n fair +1/-1 coins."""
    return {
        Fraction(n - 2 * k, n): Fraction(math.comb(n, k), 2**n) for k in range(n + 1)
    }


def _kron(*mats: sp.Matrix) -> sp.Matrix:
    out = mats[0]
    for m in mats[1:]:
        rows = out.rows * m.rows
        cols = out.cols * m.cols
        new = sp.zeros(rows, cols)
        for i in range(out.rows):
            for j in range(out.cols):
                new[i * m.rows : (i + 1) * m.rows, j * m.cols : (j + 1) * m.cols] = out[i, j] * m
        out = new
    return out


_SX = sp.Matrix([[0, 1], [1, 0]])
_SY = sp.Matrix([[0, -sp.I], [sp.I, 0]])
_SZ = sp.Matrix([[1, 0], [0, -1]])
_ID = sp.eye(2)

_SYMBOLIC = {"X": _SX, "Y": _SY, "Z": _SZ, "I": _ID}


def _symbolic_factor(factor) -> sp.Matrix:
    if isinstance(factor, str):
        return _SYMBOLIC[factor]
    # xz-plane angle; only multiples of pi/4 appear in these tests
    theta = sp.nsimplify(factor, [sp.pi])
    return sp.cos(theta) * _SZ + sp.sin(theta) * _SX


def ghz_vector() -> sp.Matrix:
    v = sp.zeros(8, 1)
    v[0] = 1 / sp.sqrt(2)
    v[7] = -1 / sp.sqrt(2)
    return v


def bell_vector() -> sp.Matrix:
    v = sp.zeros(4, 1)
    v[0] = 1 / sp.sqrt(2)
    v[3] = 1 / sp.sqrt(2)
    return v


def symbolic_expectation(state: sp.Matrix, factors) -> sp.Expr:
    op = _kron(*[_symbolic_factor(f) for f in factors])
    return sp.simplify((state.H * op * state)[0, 0])


def symbolic_joint_pmf(state: sp.Matrix, factors) -> dict[tuple[int, ...], Fraction]:
    """Exact Born probabilities for joint single-site measurements."""
    n = len(factors)
    mats = [_symbolic_factor(f) for f in factors]
    pmf = {}
    for outcome in itertools.product((1, -1), repeat=n):
        projs = [(_ID + o * m) / 2 for o, m in zip(outcome, mats)]
        op = _kron(*projs)
        p = sp.simplify((state.H * op * state)[0, 0])
        p = sp.nsimplify(p, rational=True)
        pmf[outcome] = Fraction(int(sp.numer(p)), int(sp.denom(p)))
    total = sum(pmf.values())
    assert total == 1, f"oracle pmf sums to {total}"
    return pmf


# The engine's former kernel: one 2x2 matmul per site on the (2,)*n tensor.
_DENSE_SITE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _site_matrix(factor) -> np.ndarray:
    if isinstance(factor, str):
        return _DENSE_SITE[factor]
    c, s = math.cos(factor), math.sin(factor)
    return np.array([[c, s], [s, -c]], dtype=complex)


def _contract(amps: np.ndarray, mats) -> np.ndarray:
    """Contract one 2x2 matrix into each tensor index of a flat vector, site 0 first; None skips a site."""
    vec = amps
    for axis, mat in enumerate(mats):
        if mat is not None:
            vec = np.matmul(mat, vec.reshape(2**axis, 2, -1)).reshape(-1)
    return vec


def apply_by_matmul(observable, amps: np.ndarray) -> np.ndarray:
    """O|psi> on a flat vector by one 2x2 matmul per non-identity site."""
    return _contract(amps, [None if f == "I" else _site_matrix(f) for f in observable.factors])


def commutator_norm_by_dense(a, b) -> float:
    """Frobenius norm of ab - ba from the observables' dense Kronecker-product matrices."""
    ma, mb = (functools.reduce(np.kron, [_site_matrix(f) for f in obs.factors], np.eye(1)) for obs in (a, b))
    return float(np.linalg.norm(ma @ mb - mb @ ma))


def joint_probability_by_matmul(amps: np.ndarray, factors, outcome: tuple[int, ...]) -> float:
    """Born probability of one joint outcome: the 2x2 projectors (I + o*M)/2 contracted site by site."""
    eye = np.eye(2, dtype=complex)
    vec = _contract(amps, [(eye + o * _site_matrix(f)) / 2.0 for o, f in zip(outcome, factors)])
    return float(np.vdot(vec, vec).real)


def measure_by_matmul(amps: np.ndarray, observable, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Outcome and normalized post state of one projective measurement, by the matmul route."""
    applied = apply_by_matmul(observable, amps)
    p_plus = min(1.0, max(0.0, (1.0 + float(np.vdot(amps, applied).real)) / 2.0))
    outcome = 1 if rng.random() < p_plus else -1
    projected = (amps + outcome * applied) / 2.0
    return outcome, projected / np.linalg.norm(projected)


def signed_permutation(observable) -> tuple[np.ndarray, np.ndarray, tuple]:
    """corrlab's former ``quantum._signed_permutation``, uncached: the observable as (index, phase, tilted sites).

    The Pauli letters give (O psi)[i] = phase[i] * psi[index[i]]
    with index[i] = i ^ mask: X and Y flip their site's bit, Y and Z
    contribute +-1 or +-i by the bit of i.  Each tilted site then adds, in
    turn, cos(theta) * Z (one diagonal term) and sin(theta) * X (one flip
    term), as (rows, [[c], [-c]], s) for the site's (rows, 2, -1) view of
    the vector.
    """
    n = observable.n_qubits
    basis = np.arange(2**n)
    mask = 0
    phase = np.ones(2**n, dtype=complex)
    tilted = []
    for k, factor in enumerate(observable.factors):
        bit = 1 << (n - 1 - k)
        down = (basis & bit) != 0
        if factor == "X":
            mask |= bit
        elif factor == "Y":
            mask |= bit
            phase *= np.where(down, 1j, -1j)
        elif factor == "Z":
            phase[down] *= -1
        elif factor != "I":
            c, s = math.cos(float(factor)), math.sin(float(factor))
            tilted.append((2**k, np.array([[c], [-c]], dtype=complex), s))
    return basis ^ mask, phase, tuple(tilted)


def apply_by_signed_permutation(observable, amps: np.ndarray) -> np.ndarray:
    """O|psi> as corrlab's former ``quantum._apply`` built it: the signed permutation, then each tilted site."""
    index, phase, tilted = signed_permutation(observable)
    out = phase * amps[index]
    for rows, diag, s in tilted:
        view = out.reshape(rows, 2, -1)
        out = (diag * view + s * view[:, ::-1]).reshape(-1)
    return out

def pauli_weights_by_float(amplitudes: tuple[int, ...], factors: tuple[str, ...]) -> list[int]:
    """corrlab's former ``quantum.pauli_weights``: each weight as a complex128 squared norm of ``_projections``.

    Exact only while |c|^2 * 4^n < 2^53, where every value is an integer-valued float.
    """
    vecs = _projections(np.array(amplitudes, complex), tuple(factors))
    return [int(np.vdot(vec, vec).real) for vec in vecs]


def pauli_weights(amplitudes: tuple[int, ...], factors: tuple[str, ...]) -> list[int]:
    """The exact weights |prod_k (I + o_k P_k) c|^2 of an integer vector c, in ``outcome_tuples`` order.

    corrlab's former ``quantum.pauli_weights``.  Pauli letters act as signed
    permutations with phases in {+-1, +-i}, so amplitudes stay Gaussian
    integers, held here as (re, im) pairs of Python ints: site k's letter
    maps amplitude i to amplitude i, or i with k's bit flipped for X and Y,
    turned by a power of i (Y: +i where k's bit of i is set, -i where clear;
    Z: -1 where set).  Each weight is then a sum of re^2 + im^2, and p(o) on
    c/|c| is the weight over |c|^2 * 4^n.  |c|^2 * 4^n >= 2^53 raises
    ValueError, so every weight is also exact in complex128 arithmetic
    (``pauli_weights_by_float``); a factor other than I, X, Y, Z and a
    length other than 2^n raise as well.
    """
    n = len(factors)
    if any(f not in ("I", "X", "Y", "Z") for f in factors):
        raise ValueError(f"factors {factors!r} are not all Pauli letters")
    if len(amplitudes) != 2**n:
        raise ValueError(f"{len(amplitudes)} amplitudes for {n} factors")
    if sum(a * a for a in amplitudes) * 4**n >= 2**53:
        raise ValueError("weights reach 2^53, past exact float arithmetic")
    weights = []
    for outcome in itertools.product((1, -1), repeat=n):
        vec = [(a, 0) for a in amplitudes]
        for k, (o, letter) in enumerate(zip(outcome, factors)):
            bit = 1 << (n - 1 - k)
            flip = bit if letter in ("X", "Y") else 0
            # Quarter turns of the image where k's bit is set and where it is clear.
            turns = {"Y": (1, 3), "Z": (2, 0)}.get(letter, (0, 0))
            summed = []
            for i, (re, im) in enumerate(vec):
                pre, pim = vec[i ^ flip]
                for _ in range(turns[0] if i & bit else turns[1]):
                    pre, pim = -pim, pre
                summed.append((re + o * pre, im + o * pim))
            vec = summed
        weights.append(sum(re * re + im * im for re, im in vec))
    return weights


def parity_planes(round_pmf: ExactDistribution) -> tuple[list[tuple[int, ...]], list[bool]]:
    """Per column, the bit-planes whose XOR marks the table rows differing from row 0, and whether row 0 is -1 there.

    corrlab's former ``ensembles._parity_planes``, which read a sampled
    round pmf's affine form back out of the pmf.  The table of D = 2^d rows
    lists the 2^r atoms in ``outcome_tuples`` order (+1 first), the reverse
    of grid cell order, so a uniform pmf puts atom index i in row bits
    d-r .. d-1.  Column c is -1 where row 0's value XOR the parity of i's
    bits in c's mask is, so its indicator is the XOR of planes d - r + j
    over the bits j of that mask.  A pmf that is not dyadic over at most
    2^16 rows, or not uniform over an affine outcome set, raises
    InvariantViolation.
    """
    denom = round_pmf.denominator
    if denom & (denom - 1) or denom > 1 << 16:
        raise InvariantViolation(f"round pmf with denominator {denom} is not dyadic over <= {1 << 16} cells")
    # Equal weights summing to D = 2^d leave 2^r atoms.
    affine = min(round_pmf.weights) == max(round_pmf.weights)
    d, r = denom.bit_length() - 1, len(round_pmf.weights).bit_length() - 1
    planes, negative_first = [], []
    for column in round_pmf._digit_columns():
        negative = [digit == 0 for digit in reversed(column)]
        mask = sum(1 << j for j in range(r) if negative[1 << j] != negative[0])
        affine &= all(neg == negative[0] ^ (i & mask).bit_count() % 2 for i, neg in enumerate(negative))
        planes.append(tuple(d - r + j for j in range(r) if mask >> j & 1))
        negative_first.append(negative[0])
    if not affine:
        raise InvariantViolation("round pmf is not uniform over an affine outcome set")
    return planes, negative_first


def iid_sum_bruteforce(
    round_pmf: dict[tuple[int, ...], Fraction], n: int
) -> dict[tuple[int, ...], Fraction]:
    """N-round sum pmf by enumerating every round-outcome sequence."""
    k = len(next(iter(round_pmf)))
    out: dict[tuple[int, ...], Fraction] = defaultdict(Fraction)
    for seq in itertools.product(round_pmf.items(), repeat=n):
        sums = [0] * k
        prob = Fraction(1)
        for outcome, p in seq:
            prob *= p
            for i, o in enumerate(outcome):
                sums[i] += o
        out[tuple(sums)] += prob
    return dict(out)


def convolve_by_dict(
    round_pmf: dict[tuple[int, ...], Fraction], n: int
) -> dict[tuple[int, ...], Fraction]:
    """N-round sum pmf by N dict-of-tuples convolution steps over integer weights."""
    denom = 1
    for p in round_pmf.values():
        denom = math.lcm(denom, p.denominator)
    weights = {out: p.numerator * (denom // p.denominator) for out, p in round_pmf.items()}
    k = len(next(iter(round_pmf)))
    acc: dict[tuple[int, ...], int] = {(0,) * k: 1}
    for _ in range(n):
        nxt: dict[tuple[int, ...], int] = defaultdict(int)
        for sums, w in acc.items():
            for out, rw in weights.items():
                nxt[tuple(s + o for s, o in zip(sums, out))] += w * rw
        acc = dict(nxt)
    total = denom**n
    return {sums: Fraction(w, total) for sums, w in acc.items()}


def sums_by_table_lookup(
    round_pmf: dict[tuple[int, ...], Fraction],
    n_rounds: int,
    trials: int,
    seed: int,
    stream: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial sums and (trials, N, k) round records by one table lookup per round.

    Draws the same raw bit-planes as the package, d planes of ceil(N/64)
    PCG64 words per trial for a denominator D = 2^d, all trials at once.
    Round i's table row has bit j equal to bit i % 64 of word i // 64 of
    plane j, and the table holds the atoms in ``outcome_tuples`` order, each
    p*D times.
    """
    k = len(next(iter(round_pmf)))
    order = [o for o in itertools.product((1, -1), repeat=k) if o in round_pmf]
    denom = math.lcm(*(p.denominator for p in round_pmf.values()))
    d = denom.bit_length() - 1
    table = np.repeat(np.array(order, dtype=np.int8), [int(round_pmf[o] * denom) for o in order], axis=0)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, *stream)))
    planes = rng.bit_generator.random_raw((trials, d, -(-n_rounds // 64)))
    i = np.arange(n_rounds)
    bits = (planes[:, :, i // 64] >> (i % 64).astype(np.uint64)) & np.uint64(1)
    rows = (bits << np.arange(d, dtype=np.uint64)[:, None]).sum(axis=1, dtype=np.uint64)
    rounds = table[rows.astype(np.int64)]
    return rounds.sum(axis=1, dtype=np.int64), rounds


def minus_one_counts(rounds: np.ndarray) -> np.ndarray:
    """The (k, trials) counts of -1 rounds of (trials, N, k) +1/-1 round records, in the narrowest dtype that holds N."""
    return np.count_nonzero(rounds == -1, axis=1).T.astype(np.min_scalar_type(rounds.shape[1]))


def minus_one_words(rounds: np.ndarray) -> np.ndarray:
    """The (k, trials, ceil(N/64)) uint64 words of (trials, N, k) +1/-1 round records, by ``np.packbits``.

    Bit b of word w of column c's row t is set where rounds[t, 64*w + b, c]
    is -1; the bits past N are clear.
    """
    trials, n, k = rounds.shape
    words = -(-n // 64)
    bits = np.zeros((k, trials, 64 * words), dtype=bool)
    bits[:, :, :n] = np.moveaxis(rounds == -1, 2, 0)
    return np.packbits(bits, axis=2, bitorder="little").view("<u8")


def empirical_by_row_unique(
    rows: np.ndarray, n_rounds: int
) -> dict[tuple[Fraction, ...], Fraction]:
    """Empirical pmf {row / n_rounds: count / trials} by a row-wise ``np.unique`` sort."""
    uniq, counts = np.unique(rows, axis=0, return_counts=True)
    trials = rows.shape[0]
    return {
        tuple(Fraction(int(s), n_rounds) for s in row): Fraction(int(c), trials)
        for row, c in zip(uniq, counts)
    }


def jamming_records_from_rows(rows: np.ndarray, jim_choice: str) -> JammingRecords:
    """Jamming records of (m, 3) +1/-1 rows, packed one bit at a time.

    Bit t % 64 of word t // 64 of indicator row c is set where rows[t, c] is -1.
    """
    m = len(rows)
    words = [[0] * -(-m // 64) for _ in range(3)]
    for t, row in enumerate(rows.tolist()):
        for c, v in enumerate(row):
            if v == -1:
                words[c][t // 64] |= 1 << (t % 64)
    return JammingRecords(jim_choice=jim_choice, trials=m, indicators=np.array(words, dtype=np.uint64))


def jamming_correlations_by_rows(rows: np.ndarray) -> tuple[dict[int, int], dict[int, float | None], float]:
    """Triplets per Jim outcome j, the a_x*b_x correlation within each bin, and overall, row by row."""
    counts = {1: 0, -1: 0}
    agree = {1: 0, -1: 0}
    for a, b, j in rows.tolist():
        counts[j] += 1
        agree[j] += a * b
    binned = {j: agree[j] / counts[j] if counts[j] else None for j in counts}
    return counts, binned, (agree[1] + agree[-1]) / len(rows)


def render_csv_by_writer(source) -> str:
    """CSV report of a scenario verdict's runs or of jamming records through ``csv.writer``.

    Builds one Python row list per exact atom, sampled trial or triplet,
    with floats for the sampled collectives and ints for jamming outcomes,
    and leaves their text and any quoting to the ``csv`` module.
    """
    if isinstance(source, JammingRecords):
        header = ["triplet", "a_x", "b_x", "j"]
        rows = [[i, int(r[0]), int(r[1]), int(r[2])] for i, r in enumerate(source.outcomes)]
    else:
        runs = source
        # A column's runs share its label, or name it by the stem before their axes.
        labels = [
            os.path.commonprefix(col).rstrip("_") if len(set(col)) > 1 else col[0]
            for col in zip(*(run.labels for run in runs.values()))
        ]
        rows = []
        if all(isinstance(run, ExactDistribution) for run in runs.values()):
            header = ["choice", *labels, "numerator", "denominator"]
            for choice, dist in runs.items():
                for point, prob in lattice_mapping(dist).items():
                    rows.append([choice, *plain_values(point), prob.numerator, prob.denominator])
        else:
            header = ["choice", "trial", *labels]
            for choice, run in runs.items():
                for trial, row in enumerate(run.sums / run.n_rounds):
                    rows.append([choice, trial, *[float(x) for x in row]])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def plain_values(obj):
    """A report structure as plain JSON values, by one converted copy of every node.

    Fractions become "n/d" strings and each ``ExactDistribution`` the list
    of its atoms read through ``lattice_mapping``; an Enum, which no report
    holds, raises as the report writer does.  The writer's former first
    pass.
    """
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if isinstance(obj, ExactDistribution):
        return [
            {"value": plain_values(point), "numerator": p.numerator, "denominator": p.denominator}
            for point, p in lattice_mapping(obj).items()
        ]
    if isinstance(obj, dict):
        return {str(k): plain_values(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain_values(v) for v in obj]
    raise TypeError(f"cannot encode {type(obj).__name__} into a report")


def dump_by_json(report) -> str:
    """A report's text through ``json.dumps`` of its plain values, indent 2 and keys sorted."""
    return json.dumps(plain_values(report), indent=2, sort_keys=True) + "\n"


def binomial_mean_abs_deviation(n: int, p: float) -> float:
    """E|X - np| for X ~ Binomial(n, p), by de Moivre's closed form.

    E|X - np| = 2 m C(n, m) p^m (1 - p)^(n - m + 1) with m = floor(np) + 1,
    evaluated in log space with ``math.lgamma`` so large n does not
    overflow.
    """
    if p <= 0.0 or p >= 1.0:
        return 0.0
    m = math.floor(n * p) + 1
    log_term = (
        math.log(2 * m)
        + math.lgamma(n + 1)
        - math.lgamma(m + 1)
        - math.lgamma(n - m + 1)
        + m * math.log(p)
        + (n - m + 1) * math.log1p(-p)
    )
    return math.exp(log_term)


def expected_sampling_tv(probs, trials: int) -> float:
    """Expected TV between a ``trials``-draw histogram and the pmf ``probs``.

    Each atom's count is Binomial(trials, p), so the expectation is
    (1/2) * sum of E|count - trials p| / trials.  It grows roughly with
    the square root of the number of atoms, which is why a fixed TV
    bound cannot fit every support size.
    """
    total = sum(binomial_mean_abs_deviation(trials, float(p)) for p in probs)
    return total / (2 * trials)


def parity_solution_count(constraints) -> int:
    """Number of +1/-1 assignments satisfying parity constraints, via GF(2).

    Maps each value v to a bit x with v = (-1)^x; a constraint
    (variables, required) becomes sum of bits = (0 if required == +1 else
    1) mod 2.  Solutions number 2^(n - rank) or zero if inconsistent.
    """
    names = ("a_x", "a_y", "b_x", "b_y", "j_x", "j_y")
    rows = []
    for variables, required in constraints:
        row = [0] * len(names)
        for v in variables:
            row[names.index(v)] ^= 1
        rhs = 0 if required == 1 else 1
        rows.append((row, rhs))
    # Gaussian elimination over GF(2)
    rank = 0
    n_vars = len(names)
    pivot_col = 0
    rows = [list(r[0]) + [r[1]] for r in rows]
    for col in range(n_vars):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    for r in range(rank, len(rows)):
        if rows[r][-1] and not any(rows[r][:-1]):
            return 0
    # consistency among pivot rows is automatic after elimination
    for row in rows[:rank]:
        if row[-1] and not any(row[:-1]):
            return 0
    return 2 ** (n_vars - rank)


_LOOP_TABLES = {
    "echo": {0: 0, 1: 1},
    "invert": {0: 1, 1: 0},
    "const0": {0: 0, 1: 0},
    "const1": {0: 1, 1: 1},
}


def loop_fixed_points_by_scan(alice_map: str, bob_map: str) -> list[tuple[int, int]]:
    """The fixed points of i_A = alice(i_B), i_B = bob(i_A), by scanning all four bit pairs, via truth tables."""
    alice, bob = _LOOP_TABLES[alice_map], _LOOP_TABLES[bob_map]
    return [(i_a, i_b) for i_a in (0, 1) for i_b in (0, 1) if alice[i_b] == i_a and bob[i_a] == i_b]


def truth_table_loop_scan() -> dict[tuple[str, str], int]:
    """Fixed-point counts for every device-policy pair, via truth tables."""
    return {(a, b): len(loop_fixed_points_by_scan(a, b)) for a in _LOOP_TABLES for b in _LOOP_TABLES}


def boost(e: SpacetimeEvent, beta: float) -> SpacetimeEvent:
    """The event in the frame moving with velocity beta, |beta| < 1."""
    if not math.isfinite(beta) or abs(beta) >= 1:
        raise ValueError("boost velocity must satisfy |beta| < 1")
    g = 1.0 / math.sqrt(1.0 - beta * beta)
    return SpacetimeEvent(
        t=g * (e.t - beta * e.x),
        x=g * (e.x - beta * e.t),
    )


def in_future_cone_by_interval(apex: SpacetimeEvent, e: SpacetimeEvent) -> bool:
    """Closed future light cone: (e.t - apex.t) >= |e.x - apex.x|, compared exactly."""
    return Fraction(e.t) - Fraction(apex.t) >= abs(Fraction(e.x) - Fraction(apex.x))


def overlap_corner_by_rays(a: SpacetimeEvent, b: SpacetimeEvent) -> SimpleNamespace:
    """The exact (t, x) of the earliest event in both closed future cones, as Fractions.

    It is the later input when that one is in the other's cone, and
    otherwise the crossing of the light ray leaving the left event rightward
    with the one leaving the right event leftward.
    """
    if in_future_cone_by_interval(b, a):
        return SimpleNamespace(t=Fraction(a.t), x=Fraction(a.x))
    if in_future_cone_by_interval(a, b):
        return SimpleNamespace(t=Fraction(b.t), x=Fraction(b.x))
    left, right = sorted((a, b), key=lambda e: Fraction(e.x))
    lt, lx, rt, rx = map(Fraction, (left.t, left.x, right.t, right.x))
    return SimpleNamespace(t=(lt + rt + rx - lx) / 2, x=(lx + rx + rt - lt) / 2)


def grid_cone_check(a, b, j, radius: float = 6.0, step: float = 0.5) -> bool:
    """Sampled version of the overlap-containment question.

    True iff every grid event inside both future cones of a and b is also
    inside the future cone of j.  A False from the analytic routine must
    be witnessed by the overlap apex, which is checked by the caller.
    """

    def inside(apex_t, apex_x, t, x):
        return (t - apex_t) >= abs(x - apex_x)

    steps = int(2 * radius / step) + 1
    for i in range(steps):
        for k in range(steps):
            t = -radius + i * step
            x = -radius + k * step
            if inside(a[0], a[1], t, x) and inside(b[0], b[1], t, x):
                if not inside(j[0], j[1], t, x):
                    return False
    return True
