"""N-round ensemble scenarios: exact enumeration and seeded Monte Carlo.

Each scenario runs N i.i.d. rounds per trial and reports collective
variables, the per-component averages (1/N)*sum of +1/-1 round outcomes.
Exact mode computes the full joint pmf of the collectives as rationals by
N-fold convolution of the single-round pmf; Monte Carlo mode samples
trials with reproducible per-(seed, scenario, choice) random streams.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .errors import InvariantViolation
from .quantum import ghz_state, joint_probabilities, outcome_tuples

EXACT_MAX_ROUNDS = 24
# Alice's and Bob's components of a three-party run: the receivers of Jim's choice.
GHZ_RECEIVERS = (0, 1)
_SAMPLE_CHUNK = 1 << 16
_MAX_TABLE_CELLS = 1 << 16


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


def snap_dyadic(p: float, max_exp: int = 30, tol: float = 1e-12) -> Fraction:
    """Round a Born-rule float to the nearest dyadic rational.

    The per-round probabilities of every scenario here are exact multiples
    of 2^-3, computed to a few ulps, so the float must sit within ``tol``
    of the snapped value.  The tolerance is far below the 2^-31 lattice
    half-spacing, so garbage like 0.3 is rejected rather than silently
    rounded.
    """
    scale = 1 << max_exp
    snapped = Fraction(round(p * scale), scale)
    if abs(float(snapped) - p) > tol:
        raise InvariantViolation(f"probability {p!r} is not dyadic within {tol}")
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


def marginal_mapping(mapping: Mapping, indices: tuple[int, ...]) -> dict:
    """The pmf of the components ``indices`` of a pmf keyed by outcome tuples."""
    out: dict = defaultdict(Fraction)
    for key, prob in mapping.items():
        out[tuple(key[i] for i in indices)] += prob
    return dict(out)


def convolve_iid_rounds(
    round_pmf: Mapping[tuple[int, ...], Fraction], n_rounds: int
) -> dict[tuple[int, ...], Fraction]:
    """Exact pmf of the componentwise sum of n_rounds i.i.d. +1/-1 outcome tuples.

    The round pmf is a polynomial in k variables, one {0,1} exponent per
    component (1 for +1), and the N-round pmf is its N-th power.  Kronecker
    substitution (Harvey, arXiv:0712.4046) turns that into one big-int power:
    component 0 gets the most significant stride (N+1)^(k-1), and every
    integer weight over the common denominator gets a byte slot wide enough
    for any coefficient of the power.  Keys come out in lexicographic order.
    """
    outcomes = list(round_pmf)
    k = len(outcomes[0])
    for out in outcomes:
        if len(out) != k:
            raise ValueError(f"round pmf mixes outcome arities {k} and {len(out)}")
        if any(o not in (1, -1) for o in out):
            raise ValueError(f"round outcome {out} has an entry outside {{-1, +1}}")
    denom = math.lcm(*(p.denominator for p in round_pmf.values()))
    weights = [p.numerator * (denom // p.denominator) for p in round_pmf.values()]
    if any(w < 0 for w in weights):
        raise ValueError("round pmf has a negative probability")
    base = n_rounds + 1
    # Every coefficient of the power is at most sum(weights)**N, i.e. denom**N for a pmf.
    width = (sum(weights) ** n_rounds).bit_length() // 8 + 1
    poly = 0
    for out, w in zip(outcomes, weights):
        exponent = 0
        for o in out:
            exponent = exponent * base + (o > 0)
        poly += w << (8 * width * exponent)
    data = (poly**n_rounds).to_bytes(width * base**k, "little")
    total = denom**n_rounds
    keys = itertools.product(range(-n_rounds, n_rounds + 1, 2), repeat=k)
    result = {}
    for key, start in zip(keys, range(0, len(data), width)):
        w = int.from_bytes(data[start : start + width], "little")
        if w:
            result[key] = Fraction(w, total)
    return result


@dataclass(frozen=True, eq=False)
class ExactDistribution:
    """Joint pmf of collective variables with exact rational probabilities.

    Support points are distinct tuples of Fractions on the lattice
    {-1 + 2k/N}, kept in sorted order; probabilities are non-negative and
    sum to exactly 1.
    """

    labels: tuple[str, ...]
    support: tuple[tuple[Fraction, ...], ...]
    probs: tuple[Fraction, ...]
    n_rounds: int

    def __post_init__(self):
        if len(self.support) != len(self.probs):
            raise ValueError("support and probability lengths differ")
        denom = math.lcm(*(p.denominator for p in self.probs))
        total = 0
        for p in self.probs:
            if p.numerator < 0:
                raise ValueError(f"probability {p} is negative")
            total += p.numerator * (denom // p.denominator)
        if total != denom:
            raise ValueError("probabilities must sum to exactly 1")
        n = self.n_rounds
        for point in self.support:
            if len(point) != len(self.labels):
                raise ValueError("support tuple arity does not match labels")
            for v in point:
                # v = s/N for an integer s of N's parity with |s| <= N.
                num, den = v.as_integer_ratio()
                if n % den or abs(num) > den or (num * (n // den) - n) % 2:
                    raise ValueError(f"value {v} is off the N={n} lattice")
        # Strictly increasing input is sorted and free of duplicates already.
        if any(a >= b for a, b in zip(self.support, self.support[1:])):
            order = sorted(range(len(self.support)), key=self.support.__getitem__)
            support = tuple(self.support[i] for i in order)
            for a, b in zip(support, support[1:]):
                if a == b:
                    raise ValueError(f"support point {a} appears twice")
            object.__setattr__(self, "support", support)
            object.__setattr__(self, "probs", tuple(self.probs[i] for i in order))

    @classmethod
    def from_mapping(
        cls, mapping: Mapping[tuple[Fraction, ...], Fraction], labels: tuple[str, ...], n_rounds: int
    ) -> "ExactDistribution":
        items = [(k, v) for k, v in mapping.items() if v]
        return cls(
            labels=labels,
            support=tuple(k for k, _ in items),
            probs=tuple(v for _, v in items),
            n_rounds=n_rounds,
        )

    def as_mapping(self) -> dict[tuple[Fraction, ...], Fraction]:
        return dict(zip(self.support, self.probs))

    def probability(self, predicate: Callable[[tuple[Fraction, ...]], bool]) -> Fraction:
        return sum((p for v, p in zip(self.support, self.probs) if predicate(v)), Fraction(0))

    def marginal(self, indices: tuple[int, ...]) -> "ExactDistribution":
        acc: dict[tuple[Fraction, ...], Fraction] = defaultdict(Fraction)
        for v, p in zip(self.support, self.probs):
            acc[tuple(v[i] for i in indices)] += p
        labels = tuple(self.labels[i] for i in indices)
        return ExactDistribution.from_mapping(acc, labels, self.n_rounds)

    def mean(self, coeffs: tuple[int | Fraction, ...]) -> Fraction:
        total = Fraction(0)
        for v, p in zip(self.support, self.probs):
            total += p * sum((Fraction(c) * x for c, x in zip(coeffs, v)), Fraction(0))
        return total

    def variance(self, coeffs: tuple[int | Fraction, ...]) -> Fraction:
        m = self.mean(coeffs)
        total = Fraction(0)
        for v, p in zip(self.support, self.probs):
            s = sum((Fraction(c) * x for c, x in zip(coeffs, v)), Fraction(0))
            total += p * s * s
        return total - m * m

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "value": [f"{x.numerator}/{x.denominator}" for x in v],
                "numerator": p.numerator,
                "denominator": p.denominator,
            }
            for v, p in zip(self.support, self.probs)
        ]


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
    seed: int
    rounds: np.ndarray | None = field(default=None, repr=False)

    @property
    def trials(self) -> int:
        return int(self.sums.shape[0])

    @property
    def collectives(self) -> np.ndarray:
        return self.sums / float(self.n_rounds)

    def empirical(self) -> dict[tuple[Fraction, ...], Fraction]:
        """Empirical pmf of the collectives, exact over the sample."""
        return _histogram(self.sums, self.n_rounds)

    def marginal(self, indices: tuple[int, ...]) -> "EnsembleRun":
        """The same trials restricted to the components ``indices``."""
        cols = list(indices)
        rounds = None if self.rounds is None else self.rounds[:, :, cols]
        return replace(self, labels=tuple(self.labels[i] for i in cols), sums=self.sums[:, cols], rounds=rounds)

    def mean(self, coeffs: tuple[float, ...]) -> float:
        combo = self.collectives @ np.asarray(coeffs, dtype=float)
        return float(combo.mean())

    def variance(self, coeffs: tuple[float, ...]) -> float:
        if self.trials < 2:
            raise ValueError("variance needs at least 2 samples")
        combo = self.collectives @ np.asarray(coeffs, dtype=float)
        return float(combo.var())


def _histogram(rows: np.ndarray, n_rounds: int) -> dict[tuple[Fraction, ...], Fraction]:
    """Empirical pmf {row / n_rounds: count / trials} of integer rows.

    Each row becomes one int64 cell over the sample's own per-component
    min..max box, so a 1-D sort counts them; keys come out in
    lexicographic row order, as a row-wise unique would give them.
    """
    lo = rows.min(axis=0)
    dims = tuple(int(d) for d in rows.max(axis=0) - lo + 1)
    cells, counts = np.unique(
        np.ravel_multi_index(tuple((rows - lo).T), dims), return_counts=True
    )
    columns = []
    for offset, coords in zip(lo.tolist(), np.unravel_index(cells, dims)):
        values = (coords + offset).tolist()
        fractions = {v: Fraction(v, n_rounds) for v in set(values)}
        columns.append([fractions[v] for v in values])
    trials = rows.shape[0]
    return {key: Fraction(c, trials) for key, c in zip(zip(*columns), counts.tolist())}


def _stream_rng(seed: int, stream: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, *stream)))


def _sample_outcome_rows(
    round_pmf: Mapping[tuple[int, ...], Fraction],
    n_rounds: int,
    trials: int,
    seed: int,
    stream: tuple[int, ...],
    keep_rounds: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Draw (trials, N) round outcomes by table lookup in fixed-size chunks.

    The pmf must be dyadic with common denominator D = 2^d.  A table of D
    cells holds each atom p*D times, and the top d bits of a raw PCG64 word
    pick a cell (Marsaglia, Tsang & Wang, J. Stat. Softw. 11(3), 2004): the
    same atoms, one word per round, as ``Generator.random`` plus
    ``searchsorted`` over the CDF.  Each trial's component sum is
    N - 2 * (rounds whose atom is -1 in that component).
    """
    k = len(next(iter(round_pmf)))
    order = [o for o in outcome_tuples(k) if o in round_pmf]
    denom = math.lcm(*(round_pmf[o].denominator for o in order))
    cells = [round_pmf[o].numerator * (denom // round_pmf[o].denominator) for o in order]
    if denom & (denom - 1) or denom > _MAX_TABLE_CELLS or sum(cells) != denom:
        raise InvariantViolation(f"round pmf with denominator {denom} is not dyadic over <= {_MAX_TABLE_CELLS} cells")
    atoms_by_cell = np.repeat(np.array(order, dtype=np.int8), cells, axis=0)
    negative = [atoms_by_cell[:, c] < 0 for c in range(k)]
    # 64 - log2(D); a shift of 64 (D = 1) gives cell 0 for every word.
    shift = 65 - denom.bit_length()
    bitgen = _stream_rng(seed, stream).bit_generator
    sums = np.empty((trials, k), dtype=np.int64)
    rounds = np.empty((trials, n_rounds, k), dtype=np.int8) if keep_rounds else None
    done = 0
    while done < trials:
        chunk = min(_SAMPLE_CHUNK, trials - done)
        raw = bitgen.random_raw((chunk, n_rounds))
        np.right_shift(raw, shift, out=raw)
        # Cells are below 2^16, so the int64 view indexes without a converted copy.
        cell = raw.view(np.int64)
        block = sums[done : done + chunk]
        for c, neg in enumerate(negative):
            block[:, c] = n_rounds - 2 * np.count_nonzero(neg[cell], axis=1)
        if rounds is not None:
            rounds[done : done + chunk] = atoms_by_cell[cell]
        done += chunk
    return sums, rounds


def _run_from_round_pmf(
    spec: ScenarioSpec,
    round_pmf: Mapping[tuple[int, ...], Fraction],
    labels: tuple[str, ...],
    stream: tuple[int, ...],
) -> ExactDistribution | EnsembleRun:
    if spec.mode is RunMode.EXACT:
        n = spec.n_rounds
        lattice = {s: Fraction(s, n) for s in range(-n, n + 1, 2)}
        sums = convolve_iid_rounds(round_pmf, n)
        support = tuple(tuple(lattice[s] for s in key) for key in sums)
        return ExactDistribution(labels, support, tuple(sums.values()), n)
    sums, rounds = _sample_outcome_rows(
        round_pmf, spec.n_rounds, spec.trials, spec.seed, stream, spec.keep_rounds
    )
    return EnsembleRun(labels=labels, sums=sums, n_rounds=spec.n_rounds, seed=spec.seed, rounds=rounds)


def pr_round_pmf(sender_choice: str) -> dict[tuple[int, int], Fraction]:
    """Per-round pmf of Bob's jointly read (b, b') pair.

    The four perfect (anti)correlations of the maximal box fix the pair
    from Alice's unbiased outcome: b equals it, and b' equals it under the
    unprimed choice and is its negative under the primed one.
    """
    sign = 1 if sender_choice == "u" else -1
    half = Fraction(1, 2)
    return {(1, sign): half, (-1, -sign): half}


def run_pr_scenario(spec: ScenarioSpec) -> ExactDistribution | EnsembleRun:
    """Collective (B, B') statistics for the maximal bipartite box.

    Under the unprimed choice B' = B identically and under the primed
    choice B' = -B.
    """
    if spec.kind is not ScenarioKind.PR_BOX:
        raise ValueError("spec.kind must be PR_BOX")
    pmf = pr_round_pmf(spec.sender_choice)
    stream = (_KIND_STREAM[spec.kind], _CHOICE_INDEX[spec.sender_choice])
    return _run_from_round_pmf(spec, pmf, ("B", "B_prime"), stream)


def ghz_round_pmf(sender_choice: str) -> dict[tuple[int, int, int], Fraction]:
    """Born pmf of (a_x, b_x, j) for one triplet, Jim on x ("u") or y ("p")."""
    jim_factor = "X" if sender_choice == "u" else "Y"
    born = joint_probabilities(ghz_state(), ("X", "X", jim_factor))
    return snap_pmf(born)


def run_ghz_scenario(spec: ScenarioSpec, receivers_only: bool = False) -> ExactDistribution | EnsembleRun:
    """Collective statistics for the three-party ensembles.

    Alice and Bob measure x on every triplet; Jim measures x or y per
    ``sender_choice``.  Components are (A_x, B_x, J_<axis>), or with
    ``receivers_only`` the receivers' (A_x, B_x) alone: the run then uses
    their round marginal, since the marginal of an i.i.d. sum is the i.i.d.
    sum of the round marginal.  A sampled receivers-only run draws from
    that marginal, so its draws are not the receivers' columns of a whole
    run on the same seed.
    """
    if spec.kind is not ScenarioKind.GHZ:
        raise ValueError("spec.kind must be GHZ")
    pmf = ghz_round_pmf(spec.sender_choice)
    labels = ("A_x", "B_x", "J_x" if spec.sender_choice == "u" else "J_y")
    if receivers_only:
        pmf = marginal_mapping(pmf, GHZ_RECEIVERS)
        labels = tuple(labels[i] for i in GHZ_RECEIVERS)
    stream = (_KIND_STREAM[spec.kind], _CHOICE_INDEX[spec.sender_choice])
    return _run_from_round_pmf(spec, pmf, labels, stream)


def tsirelson_round_pmf(sender_choice: str, bob_axis: str) -> dict[tuple[int], Fraction]:
    """Bob's exact per-round marginal on a Bell pair.

    Alice measures Z ("u") or X ("p"); Bob measures Z or X per
    ``bob_axis``.  The z and x observables are the sum and difference
    combinations of his two tilted settings, rescaled to unit length.
    """
    if bob_axis not in ("z", "x"):
        raise ValueError("bob_axis must be 'z' or 'x'")
    from .quantum import bell_state

    alice_factor = "Z" if sender_choice == "u" else "X"
    joint = joint_probabilities(bell_state(), (alice_factor, bob_axis.upper()))
    marginal: dict[tuple[int], float] = defaultdict(float)
    for (a, b), p in joint.items():
        marginal[(b,)] += p
    return snap_pmf(marginal)


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
    return _run_from_round_pmf(spec, pmf, (f"bob_{bob_axis}",), stream)


SCENARIO_RUNNERS = {
    ScenarioKind.PR_BOX: run_pr_scenario,
    ScenarioKind.TSIRELSON: run_tsirelson_scenario,
    ScenarioKind.GHZ: run_ghz_scenario,
}


@dataclass(frozen=True, eq=False)
class JammingRecords:
    """Per-triplet outcomes (a_x, b_x, jim) from a jamming run."""

    jim_choice: str
    outcomes: np.ndarray  # (m, 3) of +1/-1, columns (a_x, b_x, j)
    seed: int

    @property
    def labels(self) -> tuple[str, str, str]:
        return ("a_x", "b_x", f"j_{self.jim_choice}")

    @property
    def trials(self) -> int:
        return int(self.outcomes.shape[0])

    @property
    def n_rounds(self) -> int:
        return 1

    def empirical(self) -> dict[tuple[Fraction, ...], Fraction]:
        return _histogram(self.outcomes, 1)

    def bin_by_jim(self) -> dict[int, np.ndarray]:
        """Rows with jim outcome +1 and -1 separately."""
        j = self.outcomes[:, 2]
        return {1: self.outcomes[j == 1], -1: self.outcomes[j == -1]}

    def binned_correlations(self) -> dict[int, float | None]:
        out: dict[int, float | None] = {}
        for j, rows in self.bin_by_jim().items():
            if rows.shape[0] == 0:
                out[j] = None
                continue
            out[j] = float(np.mean(rows[:, 0].astype(np.int64) * rows[:, 1]))
        return out

    def overall_correlation(self) -> float:
        a = self.outcomes[:, 0].astype(np.int64)
        return float(np.mean(a * self.outcomes[:, 1]))


def jamming_round_pmf(jim_choice: str) -> dict[tuple[int, int, int], Fraction]:
    """Exact Born pmf of (a_x, b_x, j) with Jim on x or z."""
    if jim_choice not in ("x", "z"):
        raise ValueError("jim_choice must be 'x' or 'z'")
    born = joint_probabilities(ghz_state(), ("X", "X", jim_choice.upper()))
    return snap_pmf(born)


def jamming_exact_distribution(jim_choice: str) -> ExactDistribution:
    """Single-triplet exact distribution, for the exact unary-condition check."""
    pmf = jamming_round_pmf(jim_choice)
    mapping = {tuple(Fraction(o) for o in k): p for k, p in pmf.items()}
    return ExactDistribution.from_mapping(mapping, ("a_x", "b_x", f"j_{jim_choice}"), 1)


def run_jamming_scenario(
    n_rounds: int, jim_choice: str, trials: int, seed: int
) -> JammingRecords:
    """Sample trials*n_rounds independent triplets and record (a_x, b_x, j).

    All three single-site observables commute, so sampling the joint Born
    distribution is equivalent to measuring Jim first and then Alice and
    Bob on the post-measurement state.
    """
    if n_rounds < 1 or trials < 1:
        raise ValueError("n_rounds and trials must be positive")
    _check_seed(seed)
    pmf = jamming_round_pmf(jim_choice)
    total = n_rounds * trials
    stream = (_JAMMING_STREAM, 0 if jim_choice == "x" else 1)
    sums, _ = _sample_outcome_rows(pmf, 1, total, seed, stream, keep_rounds=False)
    return JammingRecords(jim_choice=jim_choice, outcomes=sums.astype(np.int8), seed=seed)


def scenario_exact_distribution(spec: ScenarioSpec, **kwargs) -> ExactDistribution:
    """Exact-mode result for any scenario kind, regardless of spec.mode."""
    exact_spec = replace(spec, mode=RunMode.EXACT)
    return SCENARIO_RUNNERS[spec.kind](exact_spec, **kwargs)  # type: ignore[return-value]
