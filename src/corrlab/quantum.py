"""Minimal dense-state engine for few-qubit spin measurements.

States are pure vectors over n qubits (1 <= n <= 12) stored as flat
complex arrays with qubit 0 as the slowest (most significant) index.
Observables are tensor products of single-site spin operators, each a
Pauli letter or an angle in the xz-plane, so every observable squares
to the identity and measurements are dichotomic with outcomes +1/-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvariantViolation, NonCommutingError

MAX_QUBITS = 12
# Dense matrices are only materialized for commutation checks; cap the size.
_DENSE_LIMIT = 10
_COMMUTATOR_TOL = 1e-10

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _factor_matrix(factor: str | float) -> np.ndarray:
    """2x2 matrix for one site: a Pauli letter or an xz-plane angle.

    Angle theta means cos(theta)*Z + sin(theta)*X, which has eigenvalues
    +1/-1 for every theta.
    """
    if isinstance(factor, str):
        try:
            return _PAULI[factor]
        except KeyError:
            raise ValueError(f"unknown spin factor {factor!r}") from None
    theta = float(factor)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


@dataclass(frozen=True)
class PauliObservable:
    """Tensor product of single-site dichotomic spin operators.

    ``factors`` holds one entry per qubit: "I", "X", "Y", "Z", or a float
    angle theta for cos(theta)*Z + sin(theta)*X.  ``sign`` flips the whole
    operator.  Squares to the identity, so eigenvalues are +1/-1.
    """

    factors: tuple[str | float, ...]
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not self.factors:
            raise ValueError("observable needs at least one factor")
        for f in self.factors:
            _factor_matrix(f)  # validates

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    def label(self) -> str:
        parts = []
        for f in self.factors:
            parts.append(f if isinstance(f, str) else f"theta({f:+.4f})")
        prefix = "-" if self.sign < 0 else ""
        return prefix + "*".join(parts)

    def to_json_obj(self) -> dict:
        return {"factors": list(self.factors), "sign": self.sign}


def _apply_site(tensor: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """Contract a 2x2 matrix into one tensor index."""
    out = np.matmul(mat, tensor.reshape(2**axis, 2, -1))
    return out.reshape(tensor.shape)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state of ``n_qubits`` qubits.

    Amplitudes are stored flat, basis index with qubit 0 most significant
    and spin-up mapped to bit 0.
    """

    amplitudes: np.ndarray = field(repr=False)
    n_qubits: int = 0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        n = int(amps.size).bit_length() - 1
        if 2**n != amps.size or not (1 <= n <= MAX_QUBITS):
            raise ValueError(f"amplitude vector length {amps.size} is not a supported qubit count")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized (norm={norm!r})")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "n_qubits", n)

    @property
    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def to_json_obj(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One projective measurement: what was measured, what came out, what remains."""

    observable: PauliObservable
    outcome: int
    post_state: PureState

    def to_json_obj(self) -> dict:
        return {
            "observable": self.observable.to_json_obj(),
            "outcome": self.outcome,
        }


def bell_state() -> PureState:
    """(|up,up> + |down,down>)/sqrt(2) on two qubits."""
    r = 1.0 / math.sqrt(2.0)
    return PureState(np.array([r, 0.0, 0.0, r], dtype=complex))


def ghz_state() -> PureState:
    """(|up,up,up> - |down,down,down>)/sqrt(2) on three qubits."""
    r = 1.0 / math.sqrt(2.0)
    amps = np.zeros(8, dtype=complex)
    amps[0] = r
    amps[7] = -r
    return PureState(amps)


def apply_observable(observable: PauliObservable, state: PureState) -> np.ndarray:
    """Return O|psi> as a tensor of shape (2,)*n."""
    if observable.n_qubits != state.n_qubits:
        raise ValueError("observable and state act on different qubit counts")
    out = state.tensor
    for axis, factor in enumerate(observable.factors):
        if factor == "I":
            continue
        out = _apply_site(out, _factor_matrix(factor), axis)
    if observable.sign < 0:
        out = -out
    return out


def expectation(state: PureState, observable: PauliObservable) -> float:
    applied = apply_observable(observable, state)
    return float(np.vdot(state.tensor, applied).real)


@lru_cache(maxsize=256)
def _dense_matrix(observable: PauliObservable) -> np.ndarray:
    if observable.n_qubits > _DENSE_LIMIT:
        raise ValueError(f"dense matrix limited to {_DENSE_LIMIT} qubits")
    mat = np.array([[observable.sign]], dtype=complex)
    for factor in observable.factors:
        mat = np.kron(mat, _factor_matrix(factor))
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=1024)
def _commutes(a: PauliObservable, b: PauliObservable) -> bool:
    ma, mb = _dense_matrix(a), _dense_matrix(b)
    comm = ma @ mb - mb @ ma
    return float(np.linalg.norm(comm)) < _COMMUTATOR_TOL


def commutator_norm(a: PauliObservable, b: PauliObservable) -> float:
    """Frobenius norm of [a, b] = ab - ba."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("observables act on different qubit counts")
    ma, mb = _dense_matrix(a), _dense_matrix(b)
    return float(np.linalg.norm(ma @ mb - mb @ ma))


def commutes(a: PauliObservable, b: PauliObservable) -> bool:
    """True when [a, b] vanishes (Frobenius norm below 1e-10)."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("observables act on different qubit counts")
    return _commutes(a, b)


def measure(state: PureState, observable: PauliObservable, rng: np.random.Generator) -> MeasurementRecord:
    """Projective measurement of a dichotomic observable.

    Outcome +1 occurs with Born probability (1 + <O>)/2; the post state is
    the normalized projection onto the sampled eigenspace.
    """
    applied = apply_observable(observable, state)
    exp = float(np.vdot(state.tensor, applied).real)
    p_plus = min(1.0, max(0.0, (1.0 + exp) / 2.0))
    outcome = 1 if rng.random() < p_plus else -1
    projected = (state.tensor + outcome * applied) / 2.0
    norm = float(np.linalg.norm(projected))
    if norm < 1e-9:
        raise InvariantViolation("sampled a branch of vanishing probability")
    post = PureState((projected / norm).reshape(-1))
    return MeasurementRecord(observable=observable, outcome=outcome, post_state=post)


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
                raise NonCommutingError(
                    f"observables {obs[i].label()} and {obs[j].label()} do not commute",
                    pair=(i, j),
                )
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
    va = apply_observable(a, state)
    vb = apply_observable(b, state)
    value = np.vdot(va.reshape(-1), vb.reshape(-1))
    if abs(value.imag) > 1e-12:
        raise InvariantViolation(f"product expectation has imaginary part {value.imag!r}")
    return float(value.real)


def outcome_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    """All +1/-1 outcome tuples for n sites, +1 first, site 0 slowest."""
    out = []
    for idx in range(2**n):
        out.append(tuple(-1 if (idx >> (n - 1 - k)) & 1 else 1 for k in range(n)))
    return tuple(out)


def joint_probabilities(
    state: PureState, factors: tuple[str | float, ...] | list[str | float]
) -> dict[tuple[int, ...], float]:
    """Born probabilities for jointly measuring one site observable per qubit.

    Single-site operators on distinct qubits always commute, so the joint
    distribution is well defined.  Keys run over all outcome tuples in
    canonical order (+1 before -1, qubit 0 slowest).
    """
    n = state.n_qubits
    if len(factors) != n:
        raise ValueError("need exactly one factor per qubit")
    mats = [_factor_matrix(f) for f in factors]
    eye = np.eye(2, dtype=complex)
    probs: dict[tuple[int, ...], float] = {}
    for outcome in outcome_tuples(n):
        vec = state.tensor
        for axis, (mat, o) in enumerate(zip(mats, outcome)):
            vec = _apply_site(vec, (eye + o * mat) / 2.0, axis)
        probs[outcome] = float(np.vdot(vec, vec).real)
    total = sum(probs.values())
    if abs(total - 1.0) > 1e-9:
        raise InvariantViolation(f"joint outcome probabilities sum to {total!r}")
    return probs


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
# stabilizer expectations above if every local spin had a definite value.
GHZ_PRODUCT_CONSTRAINTS: tuple[tuple[tuple[str, str, str], int], ...] = (
    (("a_y", "b_x", "j_y"), 1),
    (("a_y", "b_y", "j_x"), 1),
    (("a_x", "b_y", "j_y"), 1),
    (("a_x", "b_x", "j_x"), -1),
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
    names = ASSIGNMENT_VARIABLES
    for bits in range(2 ** len(names)):
        assignment = {
            name: 1 - 2 * ((bits >> (len(names) - 1 - k)) & 1) for k, name in enumerate(names)
        }
        ok = True
        for variables, required in constraints:
            prod = 1
            for v in variables:
                prod *= assignment[v]
            if prod != required:
                ok = False
                break
        if ok:
            solutions.append(assignment)
    return solutions
