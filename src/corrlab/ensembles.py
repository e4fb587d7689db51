"""N-round ensemble scenarios: exact enumeration and seeded Monte Carlo.

Each scenario runs N i.i.d. rounds per trial and reports collective
variables, the per-component averages (1/N)*sum of +1/-1 round outcomes.
Exact mode computes the full joint pmf of the collectives, as integer
weights over one denominator, by N-fold convolution of the single-round
pmf; Monte Carlo mode samples trials with reproducible per-(seed,
scenario, choice) random streams and histograms them on the same grid:
its cells are counted, or the trials' cells sorted where it dwarfs them.
A sampled trial is a few random bit-planes, each word of which holds one
bit of the table rows of 64 rounds.  Every sampled pmf is a Pauli
measurement on a stabilizer state, or the maximal box's B' = +-B pair, so
it is uniform over an affine set of outcomes (S. Aaronson and D.
Gottesman, "Improved simulation of stabilizer circuits", Phys. Rev. A 70,
052328, 2004).  Each component's indicator, the rounds where it differs
from row 0, is then an XOR of bit-planes, and its count of -1 rounds
follows from the popcount of that indicator (D. E. Knuth, TAOCP 4A,
7.1.3).  A scenario run keeps only those narrow -1 counts, one per
component and trial in the narrowest unsigned dtype that holds N (uint8
up to N = 255), never a round-by-round record or an int64 sum, since
every report reads the collectives alone.  Its histogram builds grid
cells from the counts in blocks of trials, in one reused int64 buffer.  A
receivers-only GHZ run samples the receivers' round marginal, which keeps
the whole pmf's table rows, and a jamming run draws its indicator words
in place, with no popcount, and counts its histogram from them.  Seeded
draws changed when this sampler replaced the one-word-per-round table
lookup.

The Born round pmfs (GHZ, Tsirelson with Bob's marginal, and jamming) are
Pauli measurements on the GHZ or Bell state, whose amplitudes are
integers over sqrt(2), so each is exact from the start: integer weights
from ``quantum.pauli_weights``.  They are built once per process, in a
16-entry cache that their 8 pmfs fit.  A distribution's cells and weights
are tuples, so no caller can change a cached pmf.

Exact runs are pure Python: Born weights, Kronecker-substituted big-int
powers and tuple distributions.  Only the sampler, sampled runs and their
histograms and the jamming records read numpy, through ``_numpy``, so an
exact run never loads it.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Iterator, Mapping

from ._numpy import np
from .errors import InvariantViolation
from .quantum import BELL_ROOT2, GHZ_ROOT2, pauli_weights

EXACT_MAX_ROUNDS = 24
# Alice's and Bob's components of a three-party run: the receivers of Jim's choice.
GHZ_RECEIVERS = (0, 1)
# Live 64-bit words per sampled chunk (2 MiB), so sampling memory stays flat in N.
_SAMPLE_WORDS = 1 << 18
_MAX_TABLE_CELLS = 1 << 16
# Grid cells per trial up to which a histogram counts every cell, so counts never outgrow the trials.
_COUNT_CELLS_PER_TRIAL = 4
# Trials per block of a histogram, whose cells share one reused buffer (128 KiB of int64).
_HISTOGRAM_TRIALS = 1 << 14


class ScenarioKind(Enum):
    PR_BOX = "pr-box"
    TSIRELSON = "tsirelson"
    GHZ = "ghz"


class RunMode(Enum):
    EXACT = "exact"
    MONTE_CARLO = "mc"


_KIND_STREAM = {ScenarioKind.PR_BOX: 0, ScenarioKind.TSIRELSON: 1, ScenarioKind.GHZ: 2}
# Components k of a scenario's sampled run: (B, B'), Bob's one axis, and a whole GHZ run's (A_x, B_x, J).
_KIND_COMPONENTS = {ScenarioKind.PR_BOX: 2, ScenarioKind.TSIRELSON: 1, ScenarioKind.GHZ: 3}
# The most bytes numpy lets one array hold: the largest np.intp, which is sys.maxsize.
_MAX_ARRAY_BYTES = sys.maxsize
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

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be at least 1")
        if self.mode is RunMode.EXACT and self.n_rounds > EXACT_MAX_ROUNDS:
            raise ValueError(f"exact mode supports at most {EXACT_MAX_ROUNDS} rounds")
        if self.sender_choice not in _CHOICE_INDEX:
            raise ValueError("sender_choice must be 'u' or 'p'")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        # A sampled run's sums, as ``EnsembleRun.sums`` builds them, hold k int64 per trial in one array.
        k = _KIND_COMPONENTS[self.kind]
        if self.mode is RunMode.MONTE_CARLO and self.trials > _MAX_ARRAY_BYTES // (8 * k):
            raise ValueError(f"trials must be at most {_MAX_ARRAY_BYTES // (8 * k)} to hold {k} int64 sums per trial")
        _check_seed(self.seed)


def _check_seed(seed: int) -> None:
    """Reject seeds outside the 64-bit range every sampled run accepts."""
    if not (0 <= seed < 2**64):
        raise ValueError("seed must fit in 64 bits")


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
        if not all(map(operator.lt, self.cells, self.cells[1:])):
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

    ``negatives`` is a (k, trials) array whose row c holds each trial's
    count m of -1 rounds of component c, in the narrowest unsigned dtype
    that holds N (uint8 up to N = 255), so a trial's sum is N - 2m and its
    collective (N - 2m) / N; no run keeps a round-by-round record.
    ``sums`` is derived from the counts on each read, and ``rounds`` is
    always None.  Both are kept only because the benchmark's
    ``perfbench/spans.py:_observe_scenario`` reads ``result.sums`` and
    ``result.rounds``, and go together with those reads.
    """

    labels: tuple[str, ...]
    negatives: np.ndarray
    n_rounds: int
    rounds: None = field(default=None, repr=False)

    @property
    def sums(self) -> np.ndarray:
        """The (trials, k) int64 sums N - 2m of the trials' +1/-1 round outcomes, built anew on each read."""
        return self.n_rounds - 2 * self.negatives.T.astype(np.int64)

    def empirical(self) -> ExactDistribution:
        """Empirical pmf of the collectives: each grid cell's count over the trials."""
        return _grid_counts(self.labels, self.negatives, self.n_rounds)

    def marginal(self, indices: tuple[int, ...]) -> "EnsembleRun":
        """The same trials restricted to the components ``indices``."""
        rows = list(indices)
        return replace(self, labels=tuple(self.labels[i] for i in rows), negatives=self.negatives[rows])


def _grid_counts(labels: tuple[str, ...], negatives: np.ndarray, n_rounds: int) -> ExactDistribution:
    """The pmf of (k, trials) counts of -1 rounds: the occupied grid cells and their counts.

    A grid of at most ``_COUNT_CELLS_PER_TRIAL`` cells per trial adds each
    block of cells into its counts with ``np.add.at``, in time linear in the
    trials.  A larger grid sorts each block's cells into distinct cells and
    their counts, then adds the blocks' counts up by distinct cell.
    """
    k, trials = negatives.shape
    size = (n_rounds + 1) ** k
    if size <= _COUNT_CELLS_PER_TRIAL * trials:
        counts = np.zeros(size, dtype=np.int64)
        for cells in _block_cells(negatives, n_rounds):
            np.add.at(counts, cells, 1)
        cells = np.flatnonzero(counts)
        counts = counts[cells]
    else:
        runs = [np.unique(cells, return_counts=True) for cells in _block_cells(negatives, n_rounds)]
        cells, merged = np.unique(np.concatenate([distinct for distinct, _ in runs]), return_inverse=True)
        counts = np.zeros(len(cells), dtype=np.int64)
        np.add.at(counts, merged, np.concatenate([block_counts for _, block_counts in runs]))
    return ExactDistribution(labels, n_rounds, cells.tolist(), counts.tolist(), trials)


def _block_cells(negatives: np.ndarray, n_rounds: int) -> Iterator[np.ndarray]:
    """The grid cells of each block of ``_HISTOGRAM_TRIALS`` trials of (k, trials) counts of -1 rounds.

    Component c of a trial has digit (s_c + N) / 2 = N - m_c, so its cell is
    (N+1)^k - 1 - sum_c m_c (N+1)^(k-1-c).  Every block is built in one
    reused buffer, overwritten after the next yield, so no per-trial array
    outlives a block: int64 on a grid of fewer than 2^62 cells, and Python
    ints (object) on a larger grid, which k = 3 reaches beyond N of about
    1.66e6.
    """
    k, trials = negatives.shape
    size = (n_rounds + 1) ** k
    buffer = np.empty(min(trials, _HISTOGRAM_TRIALS), dtype=np.int64 if size < 2**62 else object)
    for start in range(0, trials, buffer.size):
        rows = negatives[:, start : start + buffer.size]
        cells = buffer[: rows.shape[1]]
        cells[...] = rows[0]
        for row in rows[1:]:
            cells *= n_rounds + 1
            cells += row
        yield np.subtract(size - 1, cells, out=cells)


def _stream_rng(seed: int, stream: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, *stream)))


def _parity_planes(round_pmf: ExactDistribution) -> tuple[list[tuple[int, ...]], list[bool]]:
    """Per column, the bit-planes whose XOR marks the table rows differing from row 0, and whether row 0 is -1 there.

    The table of D = 2^d rows lists the 2^r atoms in ``outcome_tuples``
    order (+1 first), the reverse of grid cell order, so a uniform pmf puts
    atom index i in row bits d-r .. d-1.  Sorted, the outcomes of an affine
    set are an affine function of i: column c is -1 where row 0's value XOR
    the parity of i's bits in c's mask is, so its indicator is the XOR of
    planes d - r + j over the bits j of that mask, none where c is
    constant.  A pmf that is not uniform over an affine outcome set raises.
    """
    denom = round_pmf.denominator
    if denom & (denom - 1) or denom > _MAX_TABLE_CELLS:
        raise InvariantViolation(f"round pmf with denominator {denom} is not dyadic over <= {_MAX_TABLE_CELLS} cells")
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


def _indicator(planes: np.ndarray, column: tuple[int, ...], scratch: np.ndarray) -> np.ndarray:
    """Where ``column`` differs from row 0, 64 rounds per word: the XOR of its ``planes[:, j]``.

    A one-plane column is a view of its plane; any other column is XORed
    into ``scratch``, zeros for no plane, which it returns.
    """
    if len(column) == 1:
        return planes[:, column[0]]
    scratch.fill(0)
    for j in column:
        scratch ^= planes[:, j]
    return scratch


def _sample_outcome_rows(
    round_pmf: ExactDistribution,
    n_rounds: int,
    trials: int,
    seed: int,
    stream: tuple[int, ...],
) -> np.ndarray:
    """Draw (trials, N) rounds as random bit-planes and count each column's -1 rounds per trial, as a (k, trials) array.

    The pmf must be dyadic with common denominator D = 2^d.  A table of D
    rows holds each atom p*D times, in ``outcome_tuples`` order, and a
    round is a uniform row.  A trial draws d bit-planes of ceil(N/64) raw
    PCG64 words, all of its planes in a row, so the stream does not depend
    on the chunk size: bit b of word w of plane j is bit j of the row of
    round 64*w + b.  Since every sampled pmf is uniform over an affine
    outcome set, a column's indicator, where it differs from row 0, is the
    XOR of the planes ``_parity_planes`` names (``_indicator``).  Its -1
    rounds are the rounds the indicator marks, or those it leaves clear
    where row 0 is -1, so a count is the indicator's popcount (Knuth, TAOCP
    4A, 7.1.3) or N minus it.  Counts are in ``np.min_scalar_type(N)``, the
    narrowest unsigned dtype that holds N.  A chunk of trials holds at most
    ``_SAMPLE_WORDS`` live words: the planes, one scratch row if some column
    needs it, and the uint8 popcounts.  A jamming run draws one trial of
    this stream in place, with no popcount.  These draws replaced a table
    lookup on one raw word per round, so seeded samples differ from corrlab
    releases before the bit-sliced sampler.
    """
    negatives = np.empty((len(round_pmf.labels), trials), dtype=np.min_scalar_type(n_rounds))
    planes_of, negative_first = _parity_planes(round_pmf)
    scratch_rows = int(any(len(p) != 1 for p in planes_of))
    d = round_pmf.denominator.bit_length() - 1
    words = -(-n_rounds // 64)
    chunk_trials = min(trials, max(1, _SAMPLE_WORDS // (words * (d + scratch_rows + 1))))
    scratch = np.empty((scratch_rows * chunk_trials, words), dtype=np.uint64)
    bit_counts = np.empty((chunk_trials, words), dtype=np.uint8)
    bitgen = _stream_rng(seed, stream).bit_generator
    for done in range(0, trials, chunk_trials):
        chunk = min(chunk_trials, trials - done)
        planes = bitgen.random_raw((chunk, d, words))
        # Rounds past N read as row 0, where every indicator is clear.
        _clear_tail(planes, n_rounds)
        for c, column in enumerate(planes_of):
            x = _indicator(planes, column, scratch[:chunk])
            row = negatives[c, done : done + chunk]
            np.sum(np.bitwise_count(x, out=bit_counts[:chunk]), axis=1, dtype=negatives.dtype, out=row)
            if negative_first[c]:
                np.subtract(n_rounds, row, out=row)
        del planes, x  # free this chunk's planes before the next draw
    return negatives


def _run_from_round_pmf(
    spec: ScenarioSpec, round_pmf: ExactDistribution, *axis: int
) -> ExactDistribution | EnsembleRun:
    """The exact or sampled run of ``round_pmf``; a sample draws the stream of its kind, choice and ``axis``."""
    n = spec.n_rounds
    if spec.mode is RunMode.EXACT:
        weights = convolve_iid_rounds(round_pmf, n)
        return ExactDistribution.from_grid(round_pmf.labels, n, weights, round_pmf.denominator**n)
    stream = (_KIND_STREAM[spec.kind], _CHOICE_INDEX[spec.sender_choice], *axis)
    negatives = _sample_outcome_rows(round_pmf, n, spec.trials, spec.seed, stream)
    return EnsembleRun(labels=round_pmf.labels, negatives=negatives, n_rounds=n)


@functools.lru_cache(maxsize=16)
def _born_round_pmf(
    state: tuple[int, ...], factors: tuple[str, ...], labels: tuple[str, ...], keep: tuple[int, ...] | None = None
) -> ExactDistribution:
    """The exact Born pmf of one round of ``factors`` on the integer state ``state``, labelled ``labels``.

    Its weights are ``pauli_weights`` in grid order, the reverse of outcome
    order, over their gcd.  With ``keep``, the round marginal of those
    components.  Pure and immutable, so each is built once per process: the
    8 Born round pmfs are 2 GHZ, 4 Tsirelson and 2 jamming ones.
    """
    weights = pauli_weights(state, factors)[::-1]
    scale = math.gcd(*weights)
    pmf = ExactDistribution.from_grid(labels, 1, [w // scale for w in weights], sum(weights) // scale)
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
    return _run_from_round_pmf(spec, pr_round_pmf(spec.sender_choice))


def ghz_round_pmf(sender_choice: str) -> ExactDistribution:
    """Born pmf of (A_x, B_x, J) for one triplet, Jim on x ("u") or y ("p")."""
    jim_factor = "X" if sender_choice == "u" else "Y"
    return _born_round_pmf(GHZ_ROOT2, ("X", "X", jim_factor), ("A_x", "B_x", f"J_{jim_factor.lower()}"))


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
    return _run_from_round_pmf(spec, pmf)


def tsirelson_round_pmf(sender_choice: str, bob_axis: str) -> ExactDistribution:
    """Bob's exact per-round marginal on a Bell pair.

    Alice measures Z ("u") or X ("p"); Bob measures Z or X per
    ``bob_axis``.  The z and x observables are the sum and difference
    combinations of his two tilted settings, rescaled to unit length.
    """
    if bob_axis not in ("z", "x"):
        raise ValueError("bob_axis must be 'z' or 'x'")
    alice_factor = "Z" if sender_choice == "u" else "X"
    return _born_round_pmf(BELL_ROOT2, (alice_factor, bob_axis.upper()), ("alice", f"bob_{bob_axis}"), (1,))


def run_tsirelson_scenario(
    spec: ScenarioSpec, bob_axis: str = "z"
) -> ExactDistribution | EnsembleRun:
    """Bob's collective for one of his rescaled sum/difference observables."""
    if spec.kind is not ScenarioKind.TSIRELSON:
        raise ValueError("spec.kind must be TSIRELSON")
    axis = 0 if bob_axis == "z" else 1
    return _run_from_round_pmf(spec, tsirelson_round_pmf(spec.sender_choice, bob_axis), axis)


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
    bits past ``trials`` are clear.  The run draws them in place, with no
    popcount.
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
    return _born_round_pmf(GHZ_ROOT2, ("X", "X", jim_choice.upper()), ("a_x", "b_x", f"j_{jim_choice}"))


def run_jamming_scenario(
    n_rounds: int, jim_choice: str, trials: int, seed: int
) -> JammingRecords:
    """Sample trials*n_rounds independent triplets and record (a_x, b_x, j).

    All three single-site observables commute, so sampling the joint Born
    distribution is equivalent to measuring Jim first and then Alice and
    Bob on the post-measurement state.  The triplets are the rounds of one
    long sampled trial, whose d planes it draws after allocating the three
    indicator rows and XORs or inverts straight into them, with no popcount
    and no scratch row: it peaks at (d + 3) * 8 * ceil(triplets/64) bytes.
    """
    if n_rounds < 1 or trials < 1:
        raise ValueError("n_rounds and trials must be positive")
    # The run holds 3 indicator words per 64 triplets in one array.
    most = 64 * (_MAX_ARRAY_BYTES // (3 * 8)) // n_rounds
    if trials > most:
        raise ValueError(f"trials must be at most {most} at n={n_rounds} to hold 3 indicator words per 64 triplets")
    _check_seed(seed)
    pmf = jamming_round_pmf(jim_choice)
    stream = (_JAMMING_STREAM, 0 if jim_choice == "x" else 1)
    triplets = n_rounds * trials
    words = -(-triplets // 64)
    indicators = np.empty((3, words), dtype=np.uint64)
    planes_of, negative_first = _parity_planes(pmf)
    planes = _stream_rng(seed, stream).bit_generator.random_raw((1, pmf.denominator.bit_length() - 1, words))
    for c, column in enumerate(planes_of):
        row = indicators[c : c + 1]
        x = _indicator(planes, column, row)
        # The indicator marks where c differs from row 0: its -1 triplets, or its +1 ones where row 0 is -1.
        if negative_first[c]:
            np.invert(x, out=row)
        elif x is not row:
            row[...] = x
    _clear_tail(indicators, triplets)
    return JammingRecords(jim_choice=jim_choice, trials=triplets, indicators=indicators)


def scenario_exact_distribution(spec: ScenarioSpec, **kwargs) -> ExactDistribution:
    """Exact-mode result for any scenario kind, regardless of spec.mode."""
    exact_spec = replace(spec, mode=RunMode.EXACT)
    return SCENARIO_RUNNERS[spec.kind](exact_spec, **kwargs)  # type: ignore[return-value]
