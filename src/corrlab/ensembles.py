"""N-round ensemble scenarios: exact enumeration and seeded Monte Carlo.

Each scenario runs N i.i.d. rounds per trial and reports collective
variables, the per-component averages (1/N)*sum of +1/-1 round outcomes.
Exact mode computes the full joint pmf of the collectives, as integer
weights over one denominator, by N-fold convolution of the single-round
pmf; Monte Carlo mode samples trials with reproducible per-(seed,
scenario, choice) random streams and histograms them on the same grid:
its cells are counted, or the trials' cells sorted where it dwarfs them.
A sampled trial is a few random bit-planes, each word of which holds one
bit of the table rows of 64 rounds.  Each component's indicator, the
rounds where it differs from row 0, is one straight-line Boolean program
over the planes, compiled from its truth table by Shannon expansion as in
a reduced ordered decision diagram (R. E. Bryant, "Graph-based algorithms
for Boolean function manipulation", IEEE Trans. Comput. C-35, 677, 1986),
and its sums are popcounts of that indicator.  A receivers-only GHZ run
samples the receivers' round marginal, which keeps the whole pmf's table
rows, and a jamming run keeps its indicator words and counts its
histogram from them.  Seeded draws changed when this sampler replaced
the one-word-per-round table lookup.

The Born round pmfs (GHZ, Tsirelson with Bob's marginal, and jamming) are
built once per process, in a 16-entry cache that their 8 pmfs fit, from
``quantum.joint_probabilities``, which keeps its own 64-entry cache per
(state amplitudes, factor tuple).  A distribution's cells and weights are
tuples, so no caller can change a cached pmf.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .errors import InvariantViolation
from .quantum import bell_state, ghz_state, joint_probabilities

EXACT_MAX_ROUNDS = 24
# Alice's and Bob's components of a three-party run: the receivers of Jim's choice.
GHZ_RECEIVERS = (0, 1)
# Live 64-bit words per sampled chunk (2 MiB), so sampling memory stays flat in N.
_SAMPLE_WORDS = 1 << 18
_MAX_TABLE_CELLS = 1 << 16
# Grid cells per trial up to which a histogram counts every cell, so counts never outgrow the sums.
_COUNT_CELLS_PER_TRIAL = 4


class ScenarioKind(Enum):
    PR_BOX = "pr-box"
    TSIRELSON = "tsirelson"
    GHZ = "ghz"


class RunMode(Enum):
    EXACT = "exact"
    MONTE_CARLO = "mc"


_KIND_STREAM = {ScenarioKind.PR_BOX: 0, ScenarioKind.TSIRELSON: 1, ScenarioKind.GHZ: 2}
_JAMMING_STREAM = 3
_CHOICE_INDEX = {"u": 0, "p": 1}


@dataclass(frozen=True)
class ScenarioSpec:
    """Configuration for one ensemble run.

    ``sender_choice`` is the signaling party's setting label: Alice's
    unprimed/primed observable for the bipartite scenarios, Jim's x/y
    basis for the three-party one.
    """

    kind: ScenarioKind
    n_rounds: int
    sender_choice: str = "u"
    trials: int = 100_000
    seed: int = 0
    mode: RunMode = RunMode.EXACT
    keep_rounds: bool = False

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be at least 1")
        if self.mode is RunMode.EXACT and self.n_rounds > EXACT_MAX_ROUNDS:
            raise ValueError(f"exact mode supports at most {EXACT_MAX_ROUNDS} rounds")
        if self.sender_choice not in _CHOICE_INDEX:
            raise ValueError("sender_choice must be 'u' or 'p'")
        if self.mode is RunMode.MONTE_CARLO and self.trials < 1:
            raise ValueError("trials must be positive")
        _check_seed(self.seed)


def _check_seed(seed: int) -> None:
    """Reject seeds outside the 64-bit range every sampled run accepts."""
    if not (0 <= seed < 2**64):
        raise ValueError("seed must fit in 64 bits")


def snap_dyadic(p: float) -> Fraction:
    """Round a Born-rule float to the nearest multiple of 2^-30.

    The per-round probabilities of every scenario here are exact multiples
    of 2^-3, computed to a few ulps, so the float must sit within 1e-12 of
    the snapped value.  The tolerance is far below the 2^-31 lattice
    half-spacing, so garbage like 0.3 is rejected rather than silently
    rounded.
    """
    snapped = Fraction(round(p * 2**30), 2**30)
    if abs(float(snapped) - p) > 1e-12:
        raise InvariantViolation(f"probability {p!r} is not dyadic within 1e-12")
    return snapped


def snap_pmf(pmf: Mapping[tuple[int, ...], float]) -> dict[tuple[int, ...], Fraction]:
    """Snap a float pmf to exact dyadic rationals, dropping zero entries."""
    out = {}
    for outcome, p in pmf.items():
        q = snap_dyadic(float(p))
        if q:
            out[outcome] = q
    total = sum(out.values())
    if total != 1:
        raise InvariantViolation(f"snapped pmf sums to {total}, not 1")
    return out


def _cell(point: tuple, k: int, n: int) -> int:
    """Index of the k-component value tuple ``point`` in the lexicographic N-round grid."""
    if len(point) != k:
        raise ValueError(f"value tuple {point} has arity {len(point)}, not the {k} of the labels")
    cell = 0
    for v in point:
        # v = s/N for an integer s of N's parity with |s| <= N.
        num, den = v.as_integer_ratio()
        if n % den or abs(num) > den or (num * (n // den) - n) % 2:
            raise ValueError(f"value {v} is off the N={n} lattice")
        cell = cell * (n + 1) + (num * (n // den) + n) // 2
    return cell


@dataclass(frozen=True, eq=False)
class ExactDistribution:
    """Joint pmf of collective variables as integer weights over one denominator.

    The collectives lie on the grid {-1, -1 + 2/N, ..., 1}^k, k =
    len(labels).  The cell of component sums (s_0, ..., s_(k-1)) is the
    base-(N+1) number with digits (s_c + N) / 2, so cell order is
    lexicographic value order.  ``cells`` holds the cells of nonzero
    probability in increasing order and ``weights`` their positive integer
    weights, both as tuples; a cell's probability is its weight over
    ``denominator``.  Exact runs hold weights over denom^N, sampled
    histograms counts over the trials, and neither stores the empty cells.
    """

    labels: tuple[str, ...]
    n_rounds: int
    cells: tuple[int, ...]
    weights: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        # Tuples, so that no caller can change a cached round pmf under the others.
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "weights", tuple(self.weights))
        size = (self.n_rounds + 1) ** len(self.labels)
        if len(self.cells) != len(self.weights):
            raise ValueError(f"{len(self.cells)} cells for {len(self.weights)} weights")
        if not self.cells or self.cells[0] < 0 or self.cells[-1] >= size:
            raise ValueError(f"cells must lie in the {size} cells of the N={self.n_rounds} grid")
        if any(a >= b for a, b in zip(self.cells, self.cells[1:])):
            raise ValueError("a cell appears twice or out of order")
        if min(self.weights) <= 0:
            raise ValueError(f"weight {min(self.weights)} is negative or zero")
        if sum(self.weights) != self.denominator:
            raise ValueError("probabilities must sum to exactly 1")

    @classmethod
    def from_mapping(
        cls, mapping: Mapping[tuple, Fraction], labels: tuple[str, ...], n_rounds: int
    ) -> "ExactDistribution":
        """The pmf with probability ``mapping[v]`` at each value tuple v on the N grid, 0 elsewhere."""
        denominator = math.lcm(*(p.denominator for p in mapping.values()))
        pairs = sorted(
            (_cell(point, len(labels), n_rounds), p.numerator * (denominator // p.denominator))
            for point, p in mapping.items()
            if p
        )
        return cls(labels, n_rounds, [c for c, _ in pairs], [w for _, w in pairs], denominator)

    @classmethod
    def from_grid(
        cls, labels: tuple[str, ...], n_rounds: int, weights: list[int], denominator: int
    ) -> "ExactDistribution":
        """The pmf with weight ``weights[c]`` at every cell c of the whole N grid."""
        cells = [c for c, w in enumerate(weights) if w]
        return cls(labels, n_rounds, cells, [weights[c] for c in cells], denominator)

    def probability(self, point: tuple) -> Fraction:
        """Probability of the value tuple ``point``."""
        cell = _cell(point, len(self.labels), self.n_rounds)
        i = bisect.bisect_left(self.cells, cell)
        found = i < len(self.cells) and self.cells[i] == cell
        return Fraction(self.weights[i] if found else 0, self.denominator)

    def _digit_columns(self) -> list[list[int]]:
        """Each component's digit (s_c + N) / 2 in every cell, component 0's column first.

        Component c of a cell is its base-(N+1) digit at stride (N+1)^(k-1-c).
        """
        base, k = self.n_rounds + 1, len(self.labels)
        strides = [base ** (k - 1 - c) for c in range(k)]
        return [[cell // stride % base for cell in self.cells] for stride in strides]

    def marginal(self, indices: tuple[int, ...]) -> "ExactDistribution":
        """The pmf of the components ``indices``, in that order."""
        base, columns = self.n_rounds + 1, self._digit_columns()
        out = [0] * len(self.cells)
        for i in indices:
            out = [o * base + d for o, d in zip(out, columns[i])]
        acc: dict[int, int] = {}
        for cell, w in zip(out, self.weights):
            acc[cell] = acc.get(cell, 0) + w
        cells = sorted(acc)
        labels = tuple(self.labels[i] for i in indices)
        return ExactDistribution(labels, self.n_rounds, cells, [acc[c] for c in cells], self.denominator)

    def _moments(self, coeffs: tuple[int, ...]) -> tuple[int, int]:
        """Sums of w*t and w*t^2 over the cells, t = sum of coeffs times component sums."""
        n = self.n_rounds
        first = second = 0
        for digits, w in zip(zip(*self._digit_columns()), self.weights):
            t = sum(c * (2 * d - n) for c, d in zip(coeffs, digits))
            first += w * t
            second += w * t * t
        return first, second

    def variance(self, coeffs: tuple[int, ...]) -> Fraction:
        first, second = self._moments(coeffs)
        scale = self.denominator * self.n_rounds
        return Fraction(second * self.denominator - first * first, scale * scale)

    def atoms(self) -> Iterator[tuple[tuple[str, ...], int, int]]:
        """Each nonzero cell in grid order: its values as "n/d" text, then its reduced probability."""
        n, d = self.n_rounds, self.denominator
        texts = []
        for s in range(-n, n + 1, 2):
            g = math.gcd(s, n)
            texts.append(f"{s // g}/{n // g}")
        columns = [[texts[digit] for digit in column] for column in self._digit_columns()]
        gcds = [math.gcd(w, d) for w in self.weights]
        return zip(zip(*columns), [w // g for w, g in zip(self.weights, gcds)], [d // g for g in gcds])


def convolve_iid_rounds(round_pmf: ExactDistribution, n_rounds: int) -> list[int]:
    """Weights over round_pmf.denominator**N of the sum of N i.i.d. rounds, on the whole N grid.

    The one-round pmf is a polynomial in k variables, one {0,1} exponent
    per component (1 for +1), and the N-round pmf is its N-th power.
    Kronecker substitution (Harvey, arXiv:0712.4046) turns that into one
    big-int power: component 0 gets the most significant stride (N+1)^(k-1),
    and every integer weight gets a byte slot wide enough for any
    coefficient of the power.  The slots come out in grid order, empty
    cells included.
    """
    if round_pmf.n_rounds != 1:
        raise ValueError(f"round pmf is an N={round_pmf.n_rounds} distribution, not a single round")
    k = len(round_pmf.labels)
    base = n_rounds + 1
    # Every coefficient of the power is at most denominator**N.
    width = (round_pmf.denominator**n_rounds).bit_length() // 8 + 1
    poly = 0
    for digits, w in zip(zip(*round_pmf._digit_columns()), round_pmf.weights):
        exponent = 0
        for d in digits:
            exponent = exponent * base + d
        poly += w << (8 * width * exponent)
    data = (poly**n_rounds).to_bytes(width * base**k, "little")
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


@dataclass(frozen=True, eq=False)
class EnsembleRun:
    """Monte Carlo samples of collective variables.

    ``sums`` is a (trials, k) int64 array of the per-trial componentwise
    sums of +1/-1 round outcomes, so collectives are sums / n_rounds.
    ``rounds`` holds the (trials, N, k) per-round records only when the
    spec asked for them with ``keep_rounds=True``; otherwise it is None.
    """

    labels: tuple[str, ...]
    sums: np.ndarray
    n_rounds: int
    rounds: np.ndarray | None = field(default=None, repr=False)

    def empirical(self) -> ExactDistribution:
        """Empirical pmf of the collectives: each grid cell's count over the trials."""
        return _grid_counts(self.labels, self.sums, self.n_rounds)

    def marginal(self, indices: tuple[int, ...]) -> "EnsembleRun":
        """The same trials restricted to the components ``indices``."""
        cols = list(indices)
        rounds = None if self.rounds is None else self.rounds[:, :, cols]
        return replace(self, labels=tuple(self.labels[i] for i in cols), sums=self.sums[:, cols], rounds=rounds)


def _grid_counts(labels: tuple[str, ...], sums: np.ndarray, n_rounds: int) -> ExactDistribution:
    """The pmf of (trials, k) component sums: the occupied grid cells and their counts.

    A trial's cell is (sum_c s_c (N+1)^(k-1-c) + N sum_j (N+1)^j) / 2, exact since every
    s_c + N is even.  Twice a cell stays below 2^63 on a grid of fewer than 2^62 cells, so
    cells are int64 there and Python ints (object) on a larger grid, which k = 3 reaches
    beyond N of about 1.66e6.  A grid of at most ``_COUNT_CELLS_PER_TRIAL`` cells per trial
    is counted with ``np.bincount``, in time linear in the trials; a larger one sorts the
    trials' cells instead.
    """
    base, k = n_rounds + 1, sums.shape[1]
    trials, size = sums.shape[0], base**k
    cells = sums[:, 0].astype(np.int64 if size < 2**62 else object)
    for c in range(1, k):
        cells *= base
        cells += sums[:, c]
    cells += n_rounds * sum(base**j for j in range(k))
    cells >>= 1
    if size <= _COUNT_CELLS_PER_TRIAL * trials:
        counts = np.bincount(cells, minlength=size)
        cells = np.flatnonzero(counts)
        counts = counts[cells]
    else:
        cells, counts = np.unique(cells, return_counts=True)
    return ExactDistribution(labels, n_rounds, cells.tolist(), counts.tolist(), trials)


def _stream_rng(seed: int, stream: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, *stream)))


def _compile_indicators(round_pmf: ExactDistribution) -> tuple[list[tuple], list[int], list[bool]]:
    """A straight-line Boolean program over the bit-planes that marks, per column, the rows differing from row 0.

    The table lists the atoms in ``outcome_tuples`` order (+1 first), the
    reverse of grid cell order, in which a digit of 0 is -1; atom i holds
    the rows [lo_i, hi_i), hi_i - lo_i being its weight.  A column's
    indicator is a truth table over the D = 2^d rows, an int with bit r set
    where row r's value differs from row 0's.  It compiles by Shannon
    expansion on the top plane b, f = b ? f1 : f0, memoised per (table,
    planes) as in a reduced decision diagram (R. E. Bryant, IEEE Trans.
    Comput. C-35, 677, 1986): equal halves skip b, a constant half leaves
    one AND or OR of b or of NOT b, complementary halves one XOR, and any
    other pair the mux f0 ^ (b & (f0 ^ f1)).  An operation already made is
    reused.

    Operands are ~j for plane j and r >= 0 for register r.  Step r is
    (ufunc, x, y), run as ``ufunc(x, y, out=r)``, y None for NOT.  Also
    returns each column's output operand, where a column equal to row 0 on
    every row reads the register after the last step, which no step writes,
    and each column's value at row 0, True for -1.
    """
    denom = round_pmf.denominator
    if denom & (denom - 1) or denom > _MAX_TABLE_CELLS:
        raise InvariantViolation(f"round pmf with denominator {denom} is not dyadic over <= {_MAX_TABLE_CELLS} cells")
    steps: list[tuple] = []
    made: dict[tuple, int] = {}
    nodes: dict[tuple[int, int], int | None] = {}

    def emit(ufunc, x: int, y: int | None = None) -> int:
        if (ufunc, x, y) not in made:
            made[ufunc, x, y] = len(steps)
            steps.append((ufunc, x, y))
        return made[ufunc, x, y]

    def node(table: int, j: int) -> int | None:
        """The operand of planes 0..j-1 whose 2^j-bit truth table is ``table``, never all ones; None for 0."""
        if table and (table, j) not in nodes:
            half = 1 << (j - 1)
            ones = (1 << half) - 1
            f0, f1, b = table & ones, table >> half, ~(j - 1)
            if f0 == f1:
                out = node(f0, j - 1)
            elif f0 == 0:
                out = b if f1 == ones else emit(np.bitwise_and, b, node(f1, j - 1))
            elif f0 == ones:
                out = emit(np.invert, b) if f1 == 0 else emit(np.bitwise_or, emit(np.invert, b), node(f1, j - 1))
            elif f1 == 0:
                out = emit(np.bitwise_and, emit(np.invert, b), node(f0, j - 1))
            elif f1 == ones:
                out = emit(np.bitwise_or, b, node(f0, j - 1))
            elif f1 == f0 ^ ones:
                out = emit(np.bitwise_xor, b, node(f0, j - 1))
            else:
                low = node(f0, j - 1)
                out = emit(np.bitwise_xor, low, emit(np.bitwise_and, b, emit(np.bitwise_xor, low, node(f1, j - 1))))
            nodes[table, j] = out
        return nodes.get((table, j))

    bounds = [0, *itertools.accumulate(round_pmf.weights[::-1])]
    outputs, negative_first = [], []
    for column in round_pmf._digit_columns():
        negative = [digit == 0 for digit in reversed(column)]
        table = sum((1 << hi) - (1 << lo) for neg, lo, hi in zip(negative, bounds, bounds[1:]) if neg != negative[0])
        outputs.append(node(table, denom.bit_length() - 1))
        negative_first.append(negative[0])
    zero = len(steps)
    return steps, [zero if v is None else v for v in outputs], negative_first


def _indicator_chunks(
    round_pmf: ExactDistribution,
    n_rounds: int,
    trials: int,
    seed: int,
    stream: tuple[int, ...],
    spare: int,
) -> Iterator[tuple[slice, int, bool, np.ndarray, np.ndarray]]:
    """Draw (trials, N) rounds as random bit-planes and yield each chunk's column indicators and their bit counts.

    The pmf must be dyadic with common denominator D = 2^d.  A table of D
    rows holds each atom p*D times, in ``outcome_tuples`` order, and a
    round is a uniform row.  A trial draws d bit-planes of ceil(N/64) raw
    PCG64 words, all of its planes in a row, so the stream does not depend
    on the chunk size: bit b of word w of plane j is bit j of the row of
    round 64*w + b.  The program of ``_compile_indicators`` then marks, 64
    rounds per word, where each column differs from row 0, and a popcount
    per word (Knuth, TAOCP 4A, 7.1.3) counts them.

    Yields, per chunk and column: the chunk's trials, the column, whether
    row 0 is -1 there, the (chunk, ceil(N/64)) indicator words and their
    uint8 popcounts, both overwritten after the next yield.  A chunk holds
    at most ``_SAMPLE_WORDS`` live words, which count the planes, one
    register per step, the popcounts and ``spare`` words of the caller's
    per indicator word.
    """
    steps, outputs, negative_first = _compile_indicators(round_pmf)
    registers = len(steps) + (len(steps) in outputs)
    d = round_pmf.denominator.bit_length() - 1
    words = -(-n_rounds // 64)
    tail = n_rounds % 64
    chunk_trials = min(trials, max(1, _SAMPLE_WORDS // (words * (d + registers + 1 + spare))))
    buffers = np.zeros((registers, chunk_trials, words), dtype=np.uint64)
    bit_counts = np.empty((chunk_trials, words), dtype=np.uint8)
    bitgen = _stream_rng(seed, stream).bit_generator
    for done in range(0, trials, chunk_trials):
        chunk = min(chunk_trials, trials - done)
        planes = bitgen.random_raw((chunk, d, words))
        if tail:
            # Rounds past N read as row 0, where every indicator is clear.
            planes[:, :, -1] &= np.uint64((1 << tail) - 1)
        regs = buffers[:, :chunk]
        for out, (ufunc, x, y) in enumerate(steps):
            x = regs[x] if x >= 0 else planes[:, ~x]
            if y is None:
                ufunc(x, out=regs[out])
            else:
                ufunc(x, regs[y] if y >= 0 else planes[:, ~y], out=regs[out])
        for c, v in enumerate(outputs):
            x = regs[v] if v >= 0 else planes[:, ~v]
            yield slice(done, done + chunk), c, negative_first[c], x, np.bitwise_count(x, out=bit_counts[:chunk])
        del planes, regs, x  # free this chunk's planes before the next draw


def _sample_outcome_rows(
    round_pmf: ExactDistribution,
    n_rounds: int,
    trials: int,
    seed: int,
    stream: tuple[int, ...],
    keep_rounds: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Each trial's component sums over N rounds, from ``_indicator_chunks``.

    A column's indicator, 64 rounds per word, is the output of one
    straight-line Boolean program over the random bit-planes, compiled once
    per call from its truth table by Shannon expansion (R. E. Bryant, IEEE
    Trans. Comput. C-35, 677, 1986; see ``_compile_indicators``).  Its sum
    is N - 2 * the count of its -1 rounds, the rounds the indicator marks,
    or those it leaves clear where row 0 is -1.  These draws replaced a
    table lookup on one raw word per round, so seeded samples differ from
    corrlab releases before the bit-sliced sampler.
    """
    k = len(round_pmf.labels)
    # Column-major, so that each column's sums are written contiguously.
    sums = np.empty((k, trials), dtype=np.int64).T
    rounds = np.empty((trials, n_rounds, k), dtype=np.int8) if keep_rounds else None
    # Round records unpack each indicator word into 8 words of bytes.
    chunks = _indicator_chunks(round_pmf, n_rounds, trials, seed, stream, 8 if keep_rounds else 0)
    for rows, c, negative_first, indicator, bit_counts in chunks:
        column = sums[rows, c]
        np.sum(bit_counts, axis=1, dtype=np.int64, out=column)
        column *= 2 if negative_first else -2
        column += -n_rounds if negative_first else n_rounds
        if rounds is not None:
            bits = np.unpackbits(indicator.astype("<u8", copy=False).view(np.uint8), axis=1, count=n_rounds, bitorder="little")
            rounds[rows, :, c] = 1 - 2 * (bits ^ negative_first).view(np.int8)
    return sums, rounds


def _run_from_round_pmf(
    spec: ScenarioSpec, round_pmf: ExactDistribution, stream: tuple[int, ...]
) -> ExactDistribution | EnsembleRun:
    n = spec.n_rounds
    if spec.mode is RunMode.EXACT:
        weights = convolve_iid_rounds(round_pmf, n)
        return ExactDistribution.from_grid(round_pmf.labels, n, weights, round_pmf.denominator**n)
    sums, rounds = _sample_outcome_rows(round_pmf, n, spec.trials, spec.seed, stream, spec.keep_rounds)
    return EnsembleRun(labels=round_pmf.labels, sums=sums, n_rounds=n, rounds=rounds)


@functools.lru_cache(maxsize=16)
def _born_round_pmf(
    state: str, factors: tuple[str, ...], labels: tuple[str, ...], keep: tuple[int, ...] | None = None
) -> ExactDistribution:
    """The snapped Born pmf of one round of ``factors`` on the "ghz" or "bell" state, labelled ``labels``.

    With ``keep``, the round marginal of those components.  A round pmf is a
    pure function of its arguments and immutable, so each is built once per
    process: the Born round pmfs of every scenario are 8 entries, 2 GHZ, 4
    Tsirelson and 2 jamming ones, of at most 8 atoms each.
    """
    born = snap_pmf(joint_probabilities(ghz_state() if state == "ghz" else bell_state(), factors))
    pmf = ExactDistribution.from_mapping(born, labels, 1)
    return pmf if keep is None else pmf.marginal(keep)


def pr_round_pmf(sender_choice: str) -> ExactDistribution:
    """Per-round pmf of Bob's jointly read (B, B') pair.

    The four perfect (anti)correlations of the maximal box fix the pair
    from Alice's unbiased outcome: b equals it, and b' equals it under the
    unprimed choice and is its negative under the primed one.
    """
    sign = 1 if sender_choice == "u" else -1
    half = Fraction(1, 2)
    return ExactDistribution.from_mapping({(1, sign): half, (-1, -sign): half}, ("B", "B_prime"), 1)


def run_pr_scenario(spec: ScenarioSpec) -> ExactDistribution | EnsembleRun:
    """Collective (B, B') statistics for the maximal bipartite box.

    Under the unprimed choice B' = B identically and under the primed
    choice B' = -B.
    """
    if spec.kind is not ScenarioKind.PR_BOX:
        raise ValueError("spec.kind must be PR_BOX")
    stream = (_KIND_STREAM[spec.kind], _CHOICE_INDEX[spec.sender_choice])
    return _run_from_round_pmf(spec, pr_round_pmf(spec.sender_choice), stream)


def ghz_round_pmf(sender_choice: str) -> ExactDistribution:
    """Born pmf of (A_x, B_x, J) for one triplet, Jim on x ("u") or y ("p")."""
    jim_factor = "X" if sender_choice == "u" else "Y"
    return _born_round_pmf("ghz", ("X", "X", jim_factor), ("A_x", "B_x", f"J_{jim_factor.lower()}"))


def run_ghz_scenario(spec: ScenarioSpec, receivers_only: bool = False) -> ExactDistribution | EnsembleRun:
    """Collective statistics for the three-party ensembles.

    Alice and Bob measure x on every triplet; Jim measures x or y per
    ``sender_choice``.  Components are (A_x, B_x, J_<axis>), or with
    ``receivers_only`` the receivers' (A_x, B_x) alone: the run then uses
    their round marginal, since the marginal of an i.i.d. sum is the i.i.d.
    sum of the round marginal.  That marginal keeps the denominator, and
    (A_x, B_x) are the leading digits, so each of its atoms holds the same
    table rows as the whole pmf's atoms it merges: a sampled receivers-only
    run draws the receivers' columns of a whole run on the same seed.
    """
    if spec.kind is not ScenarioKind.GHZ:
        raise ValueError("spec.kind must be GHZ")
    pmf = ghz_round_pmf(spec.sender_choice)
    if receivers_only:
        pmf = pmf.marginal(GHZ_RECEIVERS)
    stream = (_KIND_STREAM[spec.kind], _CHOICE_INDEX[spec.sender_choice])
    return _run_from_round_pmf(spec, pmf, stream)


def tsirelson_round_pmf(sender_choice: str, bob_axis: str) -> ExactDistribution:
    """Bob's exact per-round marginal on a Bell pair.

    Alice measures Z ("u") or X ("p"); Bob measures Z or X per
    ``bob_axis``.  The z and x observables are the sum and difference
    combinations of his two tilted settings, rescaled to unit length.
    """
    if bob_axis not in ("z", "x"):
        raise ValueError("bob_axis must be 'z' or 'x'")
    alice_factor = "Z" if sender_choice == "u" else "X"
    return _born_round_pmf("bell", (alice_factor, bob_axis.upper()), ("alice", f"bob_{bob_axis}"), (1,))


def run_tsirelson_scenario(
    spec: ScenarioSpec, bob_axis: str = "z"
) -> ExactDistribution | EnsembleRun:
    """Bob's collective for one of his rescaled sum/difference observables."""
    if spec.kind is not ScenarioKind.TSIRELSON:
        raise ValueError("spec.kind must be TSIRELSON")
    pmf = tsirelson_round_pmf(spec.sender_choice, bob_axis)
    stream = (
        _KIND_STREAM[spec.kind],
        _CHOICE_INDEX[spec.sender_choice],
        0 if bob_axis == "z" else 1,
    )
    return _run_from_round_pmf(spec, pmf, stream)


SCENARIO_RUNNERS = {
    ScenarioKind.PR_BOX: run_pr_scenario,
    ScenarioKind.TSIRELSON: run_tsirelson_scenario,
    ScenarioKind.GHZ: run_ghz_scenario,
}


def _clear_tail(words: np.ndarray, bits: int) -> None:
    """Clear the bits past the first ``bits`` of each row of 64-bit words."""
    if bits % 64:
        words[..., -1] &= np.uint64((1 << bits % 64) - 1)


@dataclass(frozen=True, eq=False)
class JammingRecords:
    """The (a_x, b_x, jim) outcomes of a jamming run's triplets, as three rows of indicator words.

    Bit b of word w of row c of ``indicators``, a (3, ceil(trials/64))
    uint64 array, is set where component c of triplet 64*w + b is -1; the
    bits past ``trials`` are clear.
    """

    jim_choice: str
    trials: int
    indicators: np.ndarray

    @property
    def labels(self) -> tuple[str, str, str]:
        return ("a_x", "b_x", f"j_{self.jim_choice}")

    @functools.cached_property
    def outcomes(self) -> np.ndarray:
        """The (trials, 3) int8 outcomes of +1/-1, columns (a_x, b_x, j), unpacked from the indicators when first read."""
        bytes_ = self.indicators.astype("<u8", copy=False).view(np.uint8)
        bits = np.unpackbits(bytes_, axis=1, count=self.trials, bitorder="little").view(np.int8)
        outcomes = np.multiply(bits.T, np.int8(-2), order="C")
        outcomes += 1
        return outcomes

    def empirical(self) -> ExactDistribution:
        """Counts of the 8 (a_x, b_x, j) outcomes over the triplets.

        A cell's count is the popcount of the AND of the indicators of its
        -1 components and the complements, tail cleared, of its +1 ones.
        """
        minus = self.indicators
        plus = ~minus
        _clear_tail(plus, self.trials)
        pair = np.empty_like(minus[0])
        cell = np.empty_like(pair)
        counts = []
        # Grid cells in order: digit 0 is -1, and a_x is the most significant digit.
        for a in (minus[0], plus[0]):
            for b in (minus[1], plus[1]):
                np.bitwise_and(a, b, out=pair)
                for j in (minus[2], plus[2]):
                    np.bitwise_and(pair, j, out=cell)
                    counts.append(int(np.bitwise_count(cell).sum()))
        return ExactDistribution.from_grid(self.labels, 1, counts, self.trials)

    def correlations(self) -> tuple[dict[int, int], dict[int, float | None], float]:
        """Triplets per Jim outcome j, the a_x*b_x correlation within each bin, and overall.

        Each correlation is (count with a_x = b_x - count with a_x != b_x) / count,
        read from the 8 cells of ``empirical``; an empty bin has none.
        """
        counts = {1: 0, -1: 0}
        agree = {1: 0, -1: 0}
        emp = self.empirical()
        for digits, c in zip(zip(*emp._digit_columns()), emp.weights):
            a, b, j = (2 * d - 1 for d in digits)
            counts[j] += c
            agree[j] += c if a == b else -c
        binned = {j: agree[j] / counts[j] if counts[j] else None for j in counts}
        return counts, binned, (agree[1] + agree[-1]) / self.trials


def jamming_round_pmf(jim_choice: str) -> ExactDistribution:
    """Exact Born pmf of (a_x, b_x, j) with Jim on x or z."""
    if jim_choice not in ("x", "z"):
        raise ValueError("jim_choice must be 'x' or 'z'")
    return _born_round_pmf("ghz", ("X", "X", jim_choice.upper()), ("a_x", "b_x", f"j_{jim_choice}"))


def run_jamming_scenario(
    n_rounds: int, jim_choice: str, trials: int, seed: int
) -> JammingRecords:
    """Sample trials*n_rounds independent triplets and record (a_x, b_x, j).

    All three single-site observables commute, so sampling the joint Born
    distribution is equivalent to measuring Jim first and then Alice and
    Bob on the post-measurement state.  The triplets are the rounds of one
    long sampled trial, and the records keep its three indicator words.
    """
    if n_rounds < 1 or trials < 1:
        raise ValueError("n_rounds and trials must be positive")
    _check_seed(seed)
    pmf = jamming_round_pmf(jim_choice)
    stream = (_JAMMING_STREAM, 0 if jim_choice == "x" else 1)
    triplets = n_rounds * trials
    indicators = np.empty((3, -(-triplets // 64)), dtype=np.uint64)
    for _, c, negative_first, indicator, _ in _indicator_chunks(pmf, triplets, 1, seed, stream, 0):
        # The indicator marks where c differs from row 0: its -1 triplets, or its +1 ones where row 0 is -1.
        if negative_first:
            np.invert(indicator[0], out=indicators[c])
        else:
            indicators[c] = indicator[0]
    _clear_tail(indicators, triplets)
    return JammingRecords(jim_choice=jim_choice, trials=triplets, indicators=indicators)


def scenario_exact_distribution(spec: ScenarioSpec, **kwargs) -> ExactDistribution:
    """Exact-mode result for any scenario kind, regardless of spec.mode."""
    exact_spec = replace(spec, mode=RunMode.EXACT)
    return SCENARIO_RUNNERS[spec.kind](exact_spec, **kwargs)  # type: ignore[return-value]
