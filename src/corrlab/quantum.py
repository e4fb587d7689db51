"""Minimal dense-state engine for few-qubit spin measurements.

States are pure vectors over n qubits (1 <= n <= 12) stored as flat
complex arrays with qubit 0 as the slowest (most significant) index.
Observables are tensor products of single-site spin operators, each a
Pauli letter or an angle in the xz-plane, so every observable squares
to the identity and measurements are dichotomic with outcomes +1/-1.

An observable acts on the flat vector as a signed permutation: its Pauli
letters flip the bits of their sites and multiply by a phase in
{+1, -1, +i, -i} (the stabilizer-simulation view of Aaronson & Gottesman,
Phys. Rev. A 70, 052328 (2004)), and each tilted site adds one diagonal
and one bit-flip term.  Commutator norms need no state at all: each
site's pair of factors contributes its Bloch vectors' dot and cross
products to a closed form, exact on Pauli letters and linear in the sites.

The float simulator (``PureState``, the state builders, the expectations
and the Born branches and pmfs) reads numpy through ``_numpy``, which
loads it on first use.  Observables, commutator norms, ``pauli_weights``
and the assignment search are pure Python, so a process that needs only
exact Born weights, as the exact ``pr-signal`` and ``ghz-signal`` commands
and ``causal`` do, never loads numpy; ``tsirelson`` (its tilted box) and
``ghz-algebra`` (the GHZ state vector) load it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

from ._numpy import np
from .errors import InvariantViolation, NonCommutingError

MAX_QUBITS = 12
_COMMUTATOR_TOL = 1e-10
_PAULI_AXES = {"X": (1.0, 0.0, 0.0), "Y": (0.0, 1.0, 0.0), "Z": (0.0, 0.0, 1.0)}

def _tilt(factor: str | float) -> tuple[float, float] | None:
    """One site's (cos(theta), sin(theta)) for an xz-plane angle theta, or None for a Pauli letter.

    Angle theta means cos(theta)*Z + sin(theta)*X, which has eigenvalues
    +1/-1 for every theta.
    """
    if isinstance(factor, str):
        if factor not in ("I", "X", "Y", "Z"):
            raise ValueError(f"unknown spin factor {factor!r}")
        return None
    theta = float(factor)
    if not math.isfinite(theta):
        raise ValueError(f"spin angle must be finite, got {factor!r}")
    return math.cos(theta), math.sin(theta)


def _bloch(factor: str | float) -> tuple[float, float, float]:
    """Bloch vector n of a non-identity factor n . (X, Y, Z): a unit axis, or (sin, 0, cos) of an angle."""
    tilt = _tilt(factor)
    return _PAULI_AXES[factor] if tilt is None else (tilt[1], 0.0, tilt[0])


@dataclass(frozen=True)
class PauliObservable:
    """Tensor product of single-site dichotomic spin operators.

    ``factors`` holds one entry per qubit: "I", "X", "Y", "Z", or a float
    angle theta for cos(theta)*Z + sin(theta)*X.  Squares to the identity,
    so eigenvalues are +1/-1.
    """

    factors: tuple[str | float, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("observable needs at least one factor")
        for f in self.factors:
            _tilt(f)  # validates

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    def label(self) -> str:
        parts = []
        for f in self.factors:
            parts.append(f if isinstance(f, str) else f"theta({f:+.4f})")
        return "*".join(parts)


@lru_cache(maxsize=256)
def _signed_permutation(observable: PauliObservable) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The observable as (index, phase, tilted sites) over the 2^n basis states.

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
            c, s = _tilt(factor)
            tilted.append((2**k, np.array([[c], [-c]], dtype=complex), s))
    index = basis ^ mask
    index.setflags(write=False)
    phase.setflags(write=False)
    return index, phase, tuple(tilted)


def _apply(observable: PauliObservable, amps: np.ndarray) -> np.ndarray:
    """O|psi> on the flat amplitude vector."""
    index, phase, tilted = _signed_permutation(observable)
    if index.size != len(amps):
        raise ValueError("observable and state act on different qubit counts")
    out = phase * amps[index]
    for rows, diag, s in tilted:
        view = out.reshape(rows, 2, -1)
        out = (diag * view + s * view[:, ::-1]).reshape(-1)
    return out


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state of ``n_qubits`` qubits, read from the vector's length.

    Amplitudes are stored flat, basis index with qubit 0 most significant
    and spin-up mapped to bit 0.
    """

    amplitudes: np.ndarray = field(repr=False)
    n_qubits: int = field(init=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            amps = amps.reshape(-1)
        n = int(amps.size).bit_length() - 1
        if 2**n != amps.size or not (1 <= n <= MAX_QUBITS):
            raise ValueError(f"amplitude vector length {amps.size} is not a supported qubit count")
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"state is not normalized (norm={norm!r})")
        # A read-only vector that owns its memory cannot change under the state; any other is copied.
        if amps.flags.writeable or not amps.flags.owndata:
            amps = amps.copy()
            amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "n_qubits", n)


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One projective measurement: what came out, and what remains."""

    outcome: int
    post_state: PureState


# The Bell and GHZ states times sqrt(2): integer amplitudes, so Pauli projections of them stay exact.
BELL_ROOT2 = (1, 0, 0, 1)
GHZ_ROOT2 = (1, 0, 0, 0, 0, 0, 0, -1)


def bell_state() -> PureState:
    """(|up,up> + |down,down>)/sqrt(2) on two qubits."""
    return PureState(np.array(BELL_ROOT2, complex) / math.sqrt(2.0))


def ghz_state() -> PureState:
    """(|up,up,up> - |down,down,down>)/sqrt(2) on three qubits."""
    return PureState(np.array(GHZ_ROOT2, complex) / math.sqrt(2.0))


def expectation(state: PureState, observable: PauliObservable) -> float:
    return float(np.vdot(state.amplitudes, _apply(observable, state.amplitudes)).real)


def commutator_norm(a: PauliObservable, b: PauliObservable) -> float:
    """Frobenius norm of [a, b] = ab - ba, in closed form from each site's Bloch vectors n and m.

    At a site without "I", a_k b_k = S_k + A_k and b_k a_k = S_k - A_k with
    S_k = (n.m) I and A_k = i (n x m).(X, Y, Z), so ab - ba is twice the sum,
    over odd site sets T, of A on T and S elsewhere ("I" sites, which commute,
    keep their factor).  The terms are Frobenius-orthogonal with squares
    2^n prod_T |n x m|^2 prod_rest (n.m)^2, so ||[a, b]||^2 = 4 * 2^n * odd, where
    ``odd`` sums those products over odd T: a sum of non-negative terms,
    exactly 0.0 or 1.0 on Pauli letters.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError("observables act on different qubit counts")
    odd, even = 0.0, 1.0
    for fa, fb in zip(a.factors, b.factors):
        if "I" in (fa, fb):
            continue
        (x1, y1, z1), (x2, y2, z2) = _bloch(fa), _bloch(fb)
        c2 = (x1 * x2 + y1 * y2 + z1 * z2) ** 2
        s2 = (y1 * z2 - z1 * y2) ** 2 + (z1 * x2 - x1 * z2) ** 2 + (x1 * y2 - y1 * x2) ** 2
        odd, even = odd * c2 + even * s2, even * c2 + odd * s2
    return math.sqrt(math.ldexp(odd, a.n_qubits + 2))


@lru_cache(maxsize=1024)
def commutes(a: PauliObservable, b: PauliObservable) -> bool:
    """True when [a, b] vanishes (Frobenius norm below 1e-10).

    Cached per pair; a pair on different qubit counts raises each time, as
    ``commutator_norm`` does, since a raised call is not cached.
    """
    return commutator_norm(a, b) < _COMMUTATOR_TOL


@lru_cache(maxsize=64)
def _born_branches(key: bytes, observable: PauliObservable) -> tuple[float, PureState | None, PureState | None]:
    """(p(+1), post state after +1, post state after -1) of the state whose amplitude bytes are ``key``.

    Keyed on content, so equal states share an entry and a returned post state hits
    it again when measured next; a branch of norm below 1e-9 is None.  An entry holds
    at most three 2^n-amplitude vectors, 192 KiB at MAX_QUBITS, so about 12 MiB in all.
    """
    amps = np.frombuffer(key, complex)
    applied = _apply(observable, amps)
    p_plus = min(1.0, max(0.0, (1.0 + float(np.vdot(amps, applied).real)) / 2.0))
    posts = [None, None]
    # Twice each projection (psi +- O psi) / 2: the factor 2 cancels in the normalisation.
    for i, doubled in enumerate((amps + applied, amps - applied)):
        norm = math.sqrt(np.vdot(doubled, doubled).real)
        if norm >= 2e-9:
            doubled /= norm
            doubled.setflags(write=False)
            posts[i] = PureState(doubled)
    return p_plus, posts[0], posts[1]


def measure(state: PureState, observable: PauliObservable, rng: np.random.Generator) -> MeasurementRecord:
    """Projective measurement of a dichotomic observable.

    Outcome +1 occurs with Born probability (1 + <O>)/2; the post state is
    the normalized projection onto the sampled eigenspace, shared by every
    caller measuring an equal state: only the draw differs between calls.
    """
    if observable.n_qubits != state.n_qubits:
        raise ValueError("observable and state act on different qubit counts")
    p_plus, plus, minus = _born_branches(state.amplitudes.tobytes(), observable)
    outcome = 1 if rng.random() < p_plus else -1
    post = plus if outcome == 1 else minus
    if post is None:
        raise InvariantViolation("sampled a branch of vanishing probability")
    return MeasurementRecord(outcome=outcome, post_state=post)


def sequential_measure(
    state: PureState,
    observables: tuple[PauliObservable, ...] | list[PauliObservable],
    rng: np.random.Generator,
) -> tuple[MeasurementRecord, ...]:
    """Measure several observables in order on the evolving state.

    Requires every pair to commute so that the joint outcome distribution
    is order independent; raises NonCommutingError naming the first
    offending pair otherwise.
    """
    obs = tuple(observables)
    for i in range(len(obs)):
        for j in range(i + 1, len(obs)):
            if not commutes(obs[i], obs[j]):
                raise NonCommutingError(f"observables {obs[i].label()} and {obs[j].label()} do not commute")
    records = []
    current = state
    for o in obs:
        rec = measure(current, o, rng)
        records.append(rec)
        current = rec.post_state
    return tuple(records)


def product_expectation(state: PureState, a: PauliObservable, b: PauliObservable) -> float:
    """<psi| A B |psi> for Hermitian A, B; must come out real.

    Used for identities like (XX)(YY) = -ZZ on entangled states, where
    the operator product has a definite value even though neither factor
    does.
    """
    value = np.vdot(_apply(a, state.amplitudes), _apply(b, state.amplitudes))
    if abs(value.imag) > 1e-12:
        raise InvariantViolation(f"product expectation has imaginary part {value.imag!r}")
    return float(value.real)


def outcome_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    """All +1/-1 outcome tuples for n sites, +1 first, site 0 slowest."""
    return _outcome_tuples(n)


@lru_cache(maxsize=MAX_QUBITS + 1)
def _outcome_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product((1, -1), repeat=n))


def joint_probabilities(
    state: PureState, factors: tuple[str | float, ...] | list[str | float]
) -> dict[tuple[int, ...], float]:
    """Born probabilities for jointly measuring one site observable per qubit.

    Single-site operators on distinct qubits always commute, so the joint
    distribution is well defined.  Keys run over all outcome tuples in
    canonical order (+1 before -1, qubit 0 slowest).  The pmf is computed
    once per process for each state content and factor tuple (see
    ``_born_pmf``); every call returns a fresh dict.
    """
    if len(factors) != state.n_qubits:
        raise ValueError("need exactly one factor per qubit")
    return dict(_born_pmf(state.amplitudes.tobytes(), tuple(factors)))


def _projections(amps: np.ndarray, factors: tuple[str | float, ...]):
    """prod_k (I + o_k M_k) amps, 2^n times its projection, for each outcome tuple o in ``outcome_tuples`` order."""
    n = len(factors)
    sites = [PauliObservable(("I",) * k + (f,) + ("I",) * (n - 1 - k)) for k, f in enumerate(factors)]
    for outcome in outcome_tuples(n):
        vec = amps
        for site, o in zip(sites, outcome):
            vec = vec + o * _apply(site, vec)
        yield vec


@lru_cache(maxsize=64)
def _born_pmf(key: bytes, factors: tuple[str | float, ...]) -> dict[tuple[int, ...], float]:
    """The ``joint_probabilities`` pmf of the state whose amplitude bytes are ``key``.

    Keyed on content, as ``_born_branches`` is.  Each probability is a
    ``_projections`` squared norm over 4^n, equal to the bit to halving each
    site's projector, since scaling by a power of two is exact.  A pmf that
    does not sum to 1 raises, so it is never cached.  An entry holds 2^n
    floats keyed by the shared outcome tuples and its 2^n amplitude bytes,
    about 0.3 MiB at MAX_QUBITS, so about 20 MiB in all.
    """
    n = len(factors)
    vecs = _projections(np.frombuffer(key, complex), factors)
    probs = {outcome: float(np.vdot(vec, vec).real) / 4**n for outcome, vec in zip(outcome_tuples(n), vecs)}
    total = sum(probs.values())
    if not abs(total - 1.0) <= 1e-9:
        raise InvariantViolation(f"joint outcome probabilities sum to {total!r}")
    return probs


def pauli_weights(amplitudes: tuple[int, ...], factors: tuple[str, ...]) -> list[int]:
    """The exact weights |prod_k (I + o_k P_k) c|^2 of an integer vector c, in ``outcome_tuples`` order.

    Pauli letters act as signed permutations with phases in {+-1, +-i}, so
    amplitudes stay Gaussian integers, held here as (re, im) pairs of Python
    ints: site k's letter maps amplitude i to amplitude i, or i with k's bit
    flipped for X and Y, turned by a power of i (Y: +i where k's bit of i is
    set, -i where clear; Z: -1 where set).  Each weight is then a sum of
    re^2 + im^2, and p(o) on c/|c| is the weight over |c|^2 * 4^n.  Integer
    arithmetic is exact at any size, but |c|^2 * 4^n >= 2^53 raises
    ValueError, so every weight is also exact in the complex128 arithmetic
    of ``joint_probabilities``; a factor other than I, X, Y, Z and a length
    other than 2^n raise as well.
    """
    n = len(factors)
    if any(f not in ("I", "X", "Y", "Z") for f in factors):
        raise ValueError(f"factors {factors!r} are not all Pauli letters")
    if len(amplitudes) != 2**n:
        raise ValueError(f"{len(amplitudes)} amplitudes for {n} factors")
    if sum(a * a for a in amplitudes) * 4**n >= 2**53:
        raise ValueError("weights reach 2^53, past exact float arithmetic")
    weights = []
    for outcome in outcome_tuples(n):
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


# Three-party correlation facts used by the ensemble and algebra layers.
# Party order is (Alice, Bob, Jim) throughout.

GHZ_STABILIZERS: tuple[tuple[PauliObservable, int], ...] = (
    (PauliObservable(("Y", "X", "Y")), 1),
    (PauliObservable(("Y", "Y", "X")), 1),
    (PauliObservable(("X", "Y", "Y")), 1),
    (PauliObservable(("X", "X", "X")), -1),
)

ASSIGNMENT_VARIABLES: tuple[str, ...] = ("a_x", "a_y", "b_x", "b_y", "j_x", "j_y")

# Products of preassigned +1/-1 values that would have to reproduce the
# stabilizer expectations above if every local spin had a definite value:
# site k's letter L is party "abj"[k]'s variable for axis L.
GHZ_PRODUCT_CONSTRAINTS: tuple[tuple[tuple[str, str, str], int], ...] = tuple(
    (tuple(f"{party}_{letter.lower()}" for party, letter in zip("abj", obs.factors)), expected)
    for obs, expected in GHZ_STABILIZERS
)


def ghz_assignment_search(
    constraints: tuple[tuple[tuple[str, str, str], int], ...] = GHZ_PRODUCT_CONSTRAINTS,
) -> list[dict[str, int]]:
    """Exhaustive search for +1/-1 assignments satisfying parity constraints.

    Enumerates all 2**6 assignments to the six local values and returns the
    ones meeting every (variables, required product) constraint.  With the
    full constraint set the result is empty: the four parities multiply to
    -1 on the left but every variable appears twice on the right.
    """
    solutions = []
    for values in itertools.product((1, -1), repeat=len(ASSIGNMENT_VARIABLES)):
        assignment = dict(zip(ASSIGNMENT_VARIABLES, values))
        if all(math.prod(assignment[v] for v in variables) == required for variables, required in constraints):
            solutions.append(assignment)
    return solutions
