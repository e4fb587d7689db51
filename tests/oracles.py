"""Independent oracle computations used to cross-check the package.

Everything here is deliberately written from scratch against the same
definitions, using different routes (brute-force enumeration, symbolic
Born rule, GF(2) linear algebra, grid geometry) so the main code and the
tests cannot share a bug.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import sympy as sp

from corrlab.ensembles import EnsembleRun, ExactDistribution, JammingRecords, RunMode
from corrlab.reportio import encode


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


def receivers_by_full_empirical(run: EnsembleRun) -> ExactDistribution:
    """The (A_x, B_x) pmf of a sampled three-party run, by projecting its whole empirical pmf.

    Builds the exact empirical distribution of all three components, then
    sums out Jim's, instead of histogramming the receivers' columns alone.
    """
    full = ExactDistribution.from_mapping(run.empirical(), run.labels, run.n_rounds)
    return full.marginal((0, 1))


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


def symbolic_expectation(state: sp.Matrix, factors, sign: int = 1) -> sp.Expr:
    op = sign * _kron(*[_symbolic_factor(f) for f in factors])
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


def sample_by_searchsorted(
    round_pmf: dict[tuple[int, ...], Fraction],
    n_rounds: int,
    trials: int,
    seed: int,
    stream: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial sums and (trials, N, k) round records by inverse CDF.

    Draws ``Generator.random`` floats from the same per-(seed, stream)
    generator as the package, all trials at once, and looks each up in the
    float CDF of the atoms in ``outcome_tuples`` order with ``searchsorted``.
    """
    k = len(next(iter(round_pmf)))
    order = [o for o in itertools.product((1, -1), repeat=k) if o in round_pmf]
    cdf = np.cumsum([float(round_pmf[o]) for o in order])
    cdf[-1] = 1.0
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, *stream)))
    idx = np.searchsorted(cdf, rng.random((trials, n_rounds)), side="right")
    rounds = np.array(order, dtype=np.int8)[idx]
    return rounds.sum(axis=1, dtype=np.int64), rounds


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


def render_csv_by_writer(source) -> str:
    """CSV report of a scenario verdict or of jamming records through ``csv.writer``.

    Builds one Python row list per exact atom, sampled trial or triplet,
    with floats for the sampled collectives and ints for jamming outcomes,
    and leaves their text and any quoting to the ``csv`` module.
    """
    if isinstance(source, JammingRecords):
        header = ["triplet", "a_x", "b_x", "j"]
        rows = [[i, int(r[0]), int(r[1]), int(r[2])] for i, r in enumerate(source.outcomes)]
    else:
        v = source
        labels = next(iter(v.runs.values())).labels
        rows = []
        if v.mode is RunMode.EXACT:
            header = ["choice", *labels, "numerator", "denominator"]
            for choice, dist in v.runs.items():
                for point, prob in zip(dist.support, dist.probs):
                    rows.append([choice, *encode(point), prob.numerator, prob.denominator])
        else:
            header = ["choice", "trial", *labels]
            for choice, run in v.runs.items():
                for trial, row in enumerate(run.collectives):
                    rows.append([choice, trial, *[float(x) for x in row]])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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


def truth_table_loop_scan() -> dict[tuple[str, str], int]:
    """Fixed-point counts for every device-policy pair, via truth tables."""
    tables = {
        "echo": {0: 0, 1: 1},
        "invert": {0: 1, 1: 0},
        "const0": {0: 0, 1: 0},
        "const1": {0: 1, 1: 1},
    }
    out = {}
    for a_name, a_map in tables.items():
        for b_name, b_map in tables.items():
            count = 0
            for i_a in (0, 1):
                for i_b in (0, 1):
                    if a_map[i_b] == i_a and b_map[i_a] == i_b:
                        count += 1
            out[(a_name, b_name)] = count
    return out


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
