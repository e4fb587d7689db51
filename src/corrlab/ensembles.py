"""N-round ensemble scenarios: exact enumeration and seeded Monte Carlo.

Each scenario runs N i.i.d. rounds per trial and reports collective
variables, the per-component averages (1/N)*sum of +1/-1 round outcomes.
Exact mode computes the full joint pmf of the collectives, as integer
weights over one denominator, by N-fold convolution of the single-round
pmf; Monte Carlo mode samples trials with reproducible per-(seed,
runner, choice) random streams, each runner owning its stream id (PR box 0,
Tsirelson 1 and Bob's axis, GHZ 2, jamming 3), and histograms them on the
same grid: its cells are counted, or the trials' cells sorted where it
dwarfs them.

Every round pmf is a Pauli measurement on a stabilizer state (the Bell
pair, the GHZ triplet) or the maximal box's B' = +-B pair, so it is
uniform over an affine set of outcomes (S. Aaronson and D. Gottesman,
"Improved simulation of stabilizer circuits", Phys. Rev. A 70, 052328,
2004).  Each has one affine form, built once per process: the Born ones
from the state's stabilizer group, in a 16-entry cache that their 10
forms fit, the box's by hand.  A form holds the one-round pmf, whose
cells and weights are tuples so that no caller can change it, and each
component's bit-planes.  A sampled trial draws random bit-planes, each
word of which holds one bit of the table rows of 64 rounds.  A
component's indicator, the rounds where it differs from row 0, is the
XOR of its planes, and its count of -1 rounds follows from the popcount
of that indicator (D. E. Knuth, TAOCP 4A, 7.1.3).  A scenario run keeps
only those narrow -1 counts, one per component and trial in the
narrowest unsigned dtype that holds N, never a round-by-round record or
an int64 sum.  Its histogram builds grid cells from the counts in blocks
of trials, in one reused int64 buffer.  A marginal form selects its
components' columns of the joint form, so it draws the joint's planes.
A jamming run draws its indicator words in place, counts its histogram
from them, and unpacks them only in ``JammingRecords.codes``.

Exact runs are pure Python: stabilizer groups, Kronecker-substituted
big-int powers unpacked as 64-bit words and tuple distributions.  An exact
run reduces its round pmf to lowest terms and reads its N-round pmf from
a one-entry memo, so the two choices of a report whose round pmfs are
equal there (Bob's on each axis, the GHZ receivers') share one run, one
object.  Only sampling, histograms and jamming records read numpy (through
``_numpy``), and only Born forms and ``JammingRecords.outcomes`` import
``quantum``, so an exact run never loads numpy, nor a PR run ``quantum``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from ._numpy import np

EXACT_MAX_ROUNDS = 24
# Alice's and Bob's components of a three-party run: the receivers of Jim's choice.
GHZ_RECEIVERS = (0, 1)
# Live 64-bit words per sampled chunk of trials (2 MiB), so memory stays flat in the trials; but a chunk
# holds at least one trial, (8d + 8s + 1) * ceil(N/64) bytes for d planes and s scratch rows, so not in N.
_SAMPLE_WORDS = 1 << 18
# Grid cells per trial up to which a histogram counts every cell, so counts never outgrow the trials.
_COUNT_CELLS_PER_TRIAL = 4
# Trials per block of a histogram, whose cells share one reused buffer (128 KiB of int64).
_HISTOGRAM_TRIALS = 1 << 14


class RunMode(Enum):
    EXACT = "exact"
    MONTE_CARLO = "mc"


# The most bytes numpy lets one array hold: the largest np.intp, which is sys.maxsize.
_MAX_ARRAY_BYTES = sys.maxsize
_PR_STREAM, _TSIRELSON_STREAM, _GHZ_STREAM, _JAMMING_STREAM = range(4)  # each runner's stream id
_CHOICE_INDEX = {"u": 0, "p": 1}


@dataclass(frozen=True)
class ScenarioSpec:
    """Configuration for one ensemble run.

    ``sender_choice`` is the signaling party's setting label: Alice's
    unprimed/primed observable for the bipartite scenarios, Jim's x/y
    basis for the three-party one.  The runner it is handed is the scenario.
    """

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
    ``denominator``.  Exact runs hold weights over D^N, D the round pmf's
    denominator in lowest terms, sampled histograms counts over the trials,
    and neither stores the empty cells.
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
        columns = self._digit_columns()
        # Texts only for the digits that occur, of the N + 1: a sampled histogram at large N holds few.
        texts = {}
        for digit in set().union(*columns):
            g = math.gcd(2 * digit - n, n)
            texts[digit] = f"{(2 * digit - n) // g}/{n // g}"
        columns = [[texts[digit] for digit in column] for column in columns]
        gcds = [math.gcd(w, d) for w in self.weights]
        return zip(zip(*columns), [w // g for w, g in zip(self.weights, gcds)], [d // g for g in gcds])


def convolve_iid_rounds(round_pmf: ExactDistribution, n_rounds: int) -> list[int]:
    """Weights over round_pmf.denominator**N of the sum of N i.i.d. rounds, on the whole N grid.

    The one-round pmf is a polynomial in k variables, one {0,1} exponent
    per component (1 for +1), and the N-round pmf is its N-th power.
    Kronecker substitution (Harvey, arXiv:0712.4046) turns that into one
    big-int power: component 0 gets the most significant stride (N+1)^(k-1),
    and every integer weight gets a byte slot wide enough for any
    coefficient of the power.  Each slot's bytes are then spread over
    whole 64-bit words, bit_length(D**N) // 64 + 1 of them, and read back
    as one list of native words; a slot of more than one word ORs its
    higher words in.  The slots come out in grid order, empty cells
    included.
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
    # The power is raised on narrow byte slots, the cheaper to square.  Byte j of a slot is byte j % 8 of
    # its word j // 8: offset j among the slot's words in little-endian order, j ^ 7 in big-endian.
    words = -(-width // 8)
    padded = bytearray(8 * words * base**k)
    for j in range(width):
        padded[j if sys.byteorder == "little" else j ^ 7 :: 8 * words] = data[j::width]
    values = memoryview(padded).cast("Q").tolist()
    slots = values[::words]
    for j in range(1, words):
        slots = [low | high << (64 * j) for low, high in zip(slots, values[j::words])]
    return slots


@dataclass(frozen=True, eq=False)
class _AffineForm:
    """A round pmf uniform over an affine outcome set, and the bit-planes that sample it.

    ``pmf`` is over a table of D = 2^d rows, D its denominator.
    ``planes[c]`` names the planes whose XOR marks the rows where component
    c differs from row 0, and ``negative_first[c]`` whether row 0 is -1 there.
    """

    pmf: ExactDistribution
    planes: tuple[tuple[int, ...], ...]
    negative_first: tuple[bool, ...]


def _affine_form(atoms: Sequence[tuple], labels: tuple[str, ...]) -> _AffineForm:
    """The form of the pmf uniform over ``atoms``, an affine outcome set in ``outcome_tuples`` order.

    The table lists the 2^d atoms once each, in outcome order (+1 first,
    the reverse of grid order), so row i is atom i.  Sorted, an affine
    set's outcomes are affine in i: column c is atom 0's value flipped by
    the parity of the bits j of i where atom 2^j differs from atom 0 at c,
    so its indicator is the XOR of planes j over those j.
    """
    pmf = ExactDistribution.from_mapping(dict.fromkeys(atoms, Fraction(1, len(atoms))), labels, 1)
    d = len(atoms).bit_length() - 1
    planes = tuple(tuple(j for j in range(d) if atoms[1 << j][c] != atoms[0][c]) for c in range(len(atoms[0])))
    return _AffineForm(pmf, planes, tuple(v < 0 for v in atoms[0]))


# The maximal box's (B, B') pair: b is Alice's unbiased outcome, and b' is b under "u" and -b under "p".
_PR_FORMS = {choice: _affine_form(((1, s), (-1, -s)), ("B", "B_prime")) for choice, s in (("u", 1), ("p", -1))}


@functools.lru_cache(maxsize=16)
def _born_form(generators: tuple, factors: tuple, labels: tuple, keep: tuple | None = None) -> _AffineForm:
    """The form of one round of the Pauli letters ``factors`` on the stabilizer state of ``generators``.

    A site set T whose product string (I elsewhere) is in the state's
    stabilizer group with sign s fixes prod_{k in T} o_k = s, and the
    outcomes that meet every such constraint, an affine set, are equally
    likely (Aaronson & Gottesman); an "I" site is always +1.  With
    ``keep``, the marginal form: the joint form's columns ``keep`` and its
    pmf's ``.marginal(keep)``.  Pure and immutable, so each is built once
    per process: the 10 Born forms are 2 GHZ, 2 GHZ receivers, 4 Tsirelson
    and 2 jamming ones.
    """
    from .quantum import _stabilizer_group, outcome_tuples
    group = _stabilizer_group(generators)
    subsets = itertools.product((False, True), repeat=len(factors))
    constraints = [(t, group.get(tuple(f if on else "I" for f, on in zip(factors, t)))) for t in subsets]
    outcomes = outcome_tuples(len(factors))
    atoms = [o for o in outcomes if all(s is None or math.prod(itertools.compress(o, t)) == s for t, s in constraints)]
    form = _affine_form(atoms, labels)
    if keep is None:
        return form
    columns = (tuple(column[i] for i in keep) for column in (form.planes, form.negative_first))
    return _AffineForm(form.pmf.marginal(keep), *columns)


@dataclass(frozen=True, eq=False)
class EnsembleRun:
    """Monte Carlo samples of collective variables.

    ``negatives`` is a (k, trials) array whose row c holds each trial's
    count m of -1 rounds of component c, in the narrowest unsigned dtype
    that holds N (uint8 up to N = 255), so a trial's sum is N - 2m and its
    collective (N - 2m) / N; no run keeps a round-by-round record.
    ``sums`` is derived from the counts on each read, and the class
    attribute ``rounds`` is None.  Both are kept only because the
    benchmark's ``perfbench/spans.py:_observe_scenario`` reads
    ``result.sums`` and ``result.rounds``, and go together with those reads.
    """

    labels: tuple[str, ...]
    negatives: np.ndarray
    n_rounds: int
    rounds = None

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
    ints (object) on a larger grid.  No report histograms a 3-component
    run, so in reports only k = 2 runs with N >= 2^31 - 1 reach the latter.
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


def _sample_outcome_rows(form: _AffineForm, n_rounds: int, trials: int, seed: int, stream: tuple) -> np.ndarray:
    """Draw (trials, N) rounds of ``form`` as bit-planes and count each column's -1 rounds per trial, as (k, trials).

    A table of D = 2^d rows, D the pmf's denominator, holds each atom p*D
    times, in ``outcome_tuples`` order, and a round is a uniform row.  A
    trial draws d bit-planes of ceil(N/64) raw PCG64 words, all of its
    planes in a row, so the stream does not depend on the chunk size: bit b
    of word w of plane j is bit j of the row of round 64*w + b.  A column's
    indicator, where it differs from row 0, is the XOR of the form's planes
    (``_indicator``).  Its -1 rounds are the rounds the indicator marks, or
    those it leaves clear where row 0 is -1, so a count is the indicator's
    popcount or N minus it, in ``np.min_scalar_type(N)``.  A chunk of
    trials holds the planes, s = 1 scratch row if some column needs it
    (else 0) and the uint8 popcounts: at most ``_SAMPLE_WORDS`` words, but
    at least one trial's (8d + 8s + 1) * ceil(N/64) bytes.  A jamming run
    draws one trial of this stream in place, with no popcount.
    These draws replaced a table lookup on one raw word per round, so
    seeded samples differ from corrlab releases before the bit-sliced
    sampler.
    """
    negatives = np.empty((len(form.planes), trials), dtype=np.min_scalar_type(n_rounds))
    scratch_rows = int(any(len(p) != 1 for p in form.planes))
    d = form.pmf.denominator.bit_length() - 1
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
        for c, column in enumerate(form.planes):
            x = _indicator(planes, column, scratch[:chunk])
            row = negatives[c, done : done + chunk]
            np.sum(np.bitwise_count(x, out=bit_counts[:chunk]), axis=1, dtype=negatives.dtype, out=row)
            if form.negative_first[c]:
                np.subtract(n_rounds, row, out=row)
        del planes, x  # free this chunk's planes before the next draw
    return negatives


@functools.lru_cache(maxsize=1)
def _exact_run(labels: tuple, cells: tuple, weights: tuple, denominator: int, n: int) -> ExactDistribution:
    """The N-round pmf of the round pmf (``labels``, ``cells``, ``weights`` over ``denominator``), in lowest terms.

    One entry: a scenario runs its two choices in turn, so equal round
    pmfs of the two share one run, one object.
    """
    round_pmf = ExactDistribution(labels, 1, cells, weights, denominator)
    return ExactDistribution.from_grid(labels, n, convolve_iid_rounds(round_pmf, n), denominator**n)


def _run_from_form(spec: ScenarioSpec, form: _AffineForm, stream_id: int, *axis: int) -> ExactDistribution | EnsembleRun:
    """The exact or sampled run of ``form``; a sample draws the stream (``stream_id``, choice, ``*axis``)."""
    n = spec.n_rounds
    if spec.mode is RunMode.EXACT:
        pmf = form.pmf
        # The weights sum to the denominator, so their gcd divides it too.
        g = math.gcd(*pmf.weights)
        return _exact_run(pmf.labels, pmf.cells, tuple(w // g for w in pmf.weights), pmf.denominator // g, n)
    # Refused before any allocation: ``EnsembleRun.sums`` holds k int64 per trial, for the form's k components.
    k = len(form.planes)
    if spec.trials > _MAX_ARRAY_BYTES // (8 * k):
        raise ValueError(f"trials must be at most {_MAX_ARRAY_BYTES // (8 * k)} to hold {k} int64 sums per trial")
    stream = (stream_id, _CHOICE_INDEX[spec.sender_choice], *axis)
    negatives = _sample_outcome_rows(form, n, spec.trials, spec.seed, stream)
    return EnsembleRun(labels=form.pmf.labels, negatives=negatives, n_rounds=n)


def run_pr_scenario(spec: ScenarioSpec) -> ExactDistribution | EnsembleRun:
    """Collective (B, B') statistics for the maximal bipartite box.

    Under the unprimed choice B' = B identically and under the primed
    choice B' = -B.  Its sampled runs draw stream 0.
    """
    return _run_from_form(spec, _PR_FORMS[spec.sender_choice], _PR_STREAM)


def _ghz_form(sender_choice: str, receivers_only: bool = False) -> _AffineForm:
    """The form of (A_x, B_x, J) for one triplet, Jim on x ("u") or y ("p"), or of (A_x, B_x) alone."""
    from .quantum import GHZ_STABILIZERS
    jim_factor = "X" if sender_choice == "u" else "Y"
    labels = ("A_x", "B_x", f"J_{jim_factor.lower()}")
    return _born_form(GHZ_STABILIZERS, ("X", "X", jim_factor), labels, GHZ_RECEIVERS if receivers_only else None)


def run_ghz_scenario(spec: ScenarioSpec, receivers_only: bool = False) -> ExactDistribution | EnsembleRun:
    """Collective statistics for the three-party ensembles.

    Alice and Bob measure x on every triplet; Jim measures x or y per
    ``sender_choice``.  Components are (A_x, B_x, J_<axis>), or with
    ``receivers_only`` the receivers' (A_x, B_x) alone: the run then uses
    their round marginal, since the marginal of an i.i.d. sum is the i.i.d.
    sum of the round marginal.  Its form selects the receivers' columns of
    the whole form, so a sampled receivers-only run draws the receivers'
    columns of a whole run, on the same seed and stream 2.
    """
    return _run_from_form(spec, _ghz_form(spec.sender_choice, receivers_only), _GHZ_STREAM)


def _tsirelson_form(sender_choice: str, bob_axis: str) -> _AffineForm:
    """The form of Bob's round marginal on a Bell pair.

    Alice measures Z ("u") or X ("p"); Bob measures Z or X per
    ``bob_axis``.  The z and x observables are the sum and difference
    combinations of his two tilted settings, rescaled to unit length.
    Bob's site comes first, so his column is the joint's leading plane.
    """
    from .quantum import _BELL_STABILIZERS
    if bob_axis not in ("z", "x"):
        raise ValueError("bob_axis must be 'z' or 'x'")
    alice_factor = "Z" if sender_choice == "u" else "X"
    return _born_form(_BELL_STABILIZERS, (bob_axis.upper(), alice_factor), (f"bob_{bob_axis}", "alice"), (0,))


def run_tsirelson_scenario(spec: ScenarioSpec, bob_axis: str = "z") -> ExactDistribution | EnsembleRun:
    """Bob's collective for one of his rescaled sum/difference observables; samples draw stream 1 and his axis."""
    axis = 0 if bob_axis == "z" else 1
    return _run_from_form(spec, _tsirelson_form(spec.sender_choice, bob_axis), _TSIRELSON_STREAM, axis)


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
    popcount.  ``codes`` alone unpacks them: each triplet's code indexes
    its outcome in ``outcome_tuples(3)``.
    """

    jim_choice: str
    trials: int
    indicators: np.ndarray

    @property
    def labels(self) -> tuple[str, str, str]:
        return ("a_x", "b_x", f"j_{self.jim_choice}")

    def codes(self, start: int, stop: int) -> np.ndarray:
        """The uint8 code 4*[a_x = -1] + 2*[b_x = -1] + [j = -1] of each triplet start..stop-1.

        Unpacks only their bytes, and drops the ``start % 8`` bits before ``start``.
        """
        bytes_ = self.indicators.astype("<u8", copy=False).view(np.uint8)[:, start // 8 : -(-stop // 8)]
        bits = np.unpackbits(bytes_, axis=1, count=stop - start + start % 8, bitorder="little")[:, start % 8 :]
        return bits[0] << 2 | bits[1] << 1 | bits[2]

    @functools.cached_property
    def outcomes(self) -> np.ndarray:
        """The (trials, 3) int8 outcomes of +1/-1, columns (a_x, b_x, j), looked up by code when first read.

        No report reads it: the CSV looks up each block's ``codes`` itself.
        It is kept for the benchmark's jamming observer and the tests.
        """
        from .quantum import outcome_tuples
        return np.array(outcome_tuples(3), dtype=np.int8).take(self.codes(0, self.trials), axis=0)

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


def _jamming_form(jim_choice: str) -> _AffineForm:
    """The form of (a_x, b_x, j) with Jim on x or z."""
    from .quantum import GHZ_STABILIZERS
    if jim_choice not in ("x", "z"):
        raise ValueError("jim_choice must be 'x' or 'z'")
    return _born_form(GHZ_STABILIZERS, ("X", "X", jim_choice.upper()), ("a_x", "b_x", f"j_{jim_choice}"))


def jamming_round_pmf(jim_choice: str) -> ExactDistribution:
    """Exact Born pmf of (a_x, b_x, j) with Jim on x or z."""
    return _jamming_form(jim_choice).pmf


def run_jamming_scenario(n_rounds: int, jim_choice: str, trials: int, seed: int) -> JammingRecords:
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
    form = _jamming_form(jim_choice)
    stream = (_JAMMING_STREAM, 0 if jim_choice == "x" else 1)
    triplets = n_rounds * trials
    words = -(-triplets // 64)
    indicators = np.empty((3, words), dtype=np.uint64)
    planes = _stream_rng(seed, stream).bit_generator.random_raw((1, form.pmf.denominator.bit_length() - 1, words))
    for c, column in enumerate(form.planes):
        row = indicators[c : c + 1]
        x = _indicator(planes, column, row)
        # The indicator marks where c differs from row 0: its -1 triplets, or its +1 ones where row 0 is -1.
        if form.negative_first[c]:
            np.invert(x, out=row)
        elif x is not row:
            row[...] = x
    _clear_tail(indicators, triplets)
    return JammingRecords(jim_choice=jim_choice, trials=triplets, indicators=indicators)

