from __future__ import annotations

import hashlib
import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from corrlab import ensembles, quantum
from corrlab.errors import InvariantViolation
from corrlab.quantum import (
    BELL_ROOT2,
    GHZ_PRODUCT_CONSTRAINTS,
    GHZ_ROOT2,
    GHZ_STABILIZERS,
    MAX_QUBITS,
    PauliObservable,
    PureState,
    _BELL_STABILIZERS,
    _apply,
    _born_branches,
    _born_pmf,
    _stabilizer_group,
    bell_state,
    commutator_norm,
    commutes,
    expectation,
    ghz_assignment_search,
    ghz_state,
    joint_probabilities,
    measure,
    outcome_tuples,
    product_expectation,
    sequential_measure,
)

RT2 = math.sqrt(2.0)


def slipped_state(amplitudes: list[complex]) -> PureState:
    """A two-qubit state that slipped past the normalisation check: its ``key`` holds ``amplitudes``."""
    state = bell_state()
    key = np.array(amplitudes, dtype=complex).tobytes()
    object.__setattr__(state, "key", key)
    object.__setattr__(state, "amplitudes", np.frombuffer(key, complex))
    return state


def obs(*factors):
    return PauliObservable(tuple(factors))


class TestStates:
    def test_bell_amplitudes(self):
        amps = bell_state().amplitudes
        np.testing.assert_allclose(amps, [1 / RT2, 0, 0, 1 / RT2], atol=1e-15)

    def test_ghz_amplitudes(self):
        amps = ghz_state().amplitudes
        assert amps[0] == pytest.approx(1 / RT2)
        assert amps[7] == pytest.approx(-1 / RT2)
        assert np.all(amps[1:7] == 0)

    @pytest.mark.parametrize(
        "make, digest",
        [
            (bell_state, "37fe4d07afc183c37066a83fb1e1ccff488c19a4bd0fe73a2ea8233dfe0ae1a0"),
            (ghz_state, "8f58a6969d606590046b1025a2d439941eb2231f42ea357a9a89f68899c9fba2"),
        ],
    )
    def test_amplitude_bytes_are_pinned(self, make, digest):
        # The float Tsirelson box and the ghz-algebra numbers start from these bytes.
        amps = make().amplitudes
        assert amps[0].real.hex() == "0x1.6a09e667f3bccp-1"
        assert hashlib.sha256(amps.tobytes()).hexdigest() == digest

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="qubit count"):
            PureState(np.array([1.0, 0.0, 0.0]))

    def test_rejects_too_many_qubits(self):
        amps = np.zeros(2 ** (MAX_QUBITS + 1))
        amps[0] = 1.0
        with pytest.raises(ValueError, match="qubit count"):
            PureState(amps)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="normalized"):
            PureState(np.array([bad, 0.0]))

    def test_qubit_count_comes_from_the_vector(self):
        assert PureState(np.array([1, 0, 0, 0])).n_qubits == 2
        with pytest.raises(TypeError):
            PureState(np.array([1, 0, 0, 0]), n_qubits=5)

    def test_amplitudes_are_read_only(self):
        state = bell_state()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_amplitudes_are_a_read_only_copy(self):
        owned = np.array([1.0, 0.0], dtype=complex)
        owned.setflags(write=False)
        amps = PureState(owned).amplitudes
        assert amps.tolist() == owned.tolist()
        assert not amps.flags.writeable
        writable = np.array([1.0, 0.0], dtype=complex)
        view = writable[::-1]
        view.setflags(write=False)
        states = [PureState(writable), PureState(view)]
        writable[:] = [0.0, 1.0]
        assert states[0].amplitudes.tolist() == [1.0, 0.0]
        assert states[1].amplitudes.tolist() == [0.0, 1.0]


class TestObservables:
    def test_rejects_unknown_letter(self):
        with pytest.raises(ValueError, match="unknown spin factor"):
            obs("X", "Q")

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angle(self, angle):
        with pytest.raises(ValueError, match="finite"):
            obs(angle, "Z")
        with pytest.raises(ValueError, match="finite"):
            joint_probabilities(bell_state(), (angle, "Z"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one factor"):
            PauliObservable(())

    def test_label(self):
        assert obs("X", "I", "Z").label() == "X*I*Z"
        assert "theta" in obs(math.pi / 4).label()

    def test_angle_matches_pauli_combination(self):
        # cos(t)*Z + sin(t)*X at t = 0 and t = pi/2 are Z and X themselves
        state = bell_state()
        assert expectation(state, obs(0.0, "Z")) == pytest.approx(
            expectation(state, obs("Z", "Z"))
        )
        assert expectation(state, obs(math.pi / 2, "X")) == pytest.approx(
            expectation(state, obs("X", "X"))
        )

    def test_mismatched_qubit_count(self):
        with pytest.raises(ValueError, match="qubit counts"):
            expectation(bell_state(), obs("X"))


class TestExpectations:
    def test_ghz_stabilizers(self):
        state = ghz_state()
        seen = [expectation(state, o) for o, _ in GHZ_STABILIZERS]
        expected = [e for _, e in GHZ_STABILIZERS]
        np.testing.assert_allclose(seen, expected, atol=1e-12)
        assert expected == [1, 1, 1, -1]

    def test_ghz_stabilizers_match_symbolic_born_rule(self):
        state = ghz_state()
        vec = oracles.ghz_vector()
        for o, _ in GHZ_STABILIZERS:
            exact = oracles.symbolic_expectation(vec, o.factors)
            assert expectation(state, o) == pytest.approx(float(exact), abs=1e-12)

    def test_ghz_pairwise_z_agreement(self):
        state = ghz_state()
        for factors in (("Z", "Z", "I"), ("Z", "I", "Z"), ("I", "Z", "Z")):
            assert expectation(state, obs(*factors)) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_local_spins_are_unbiased(self):
        state = ghz_state()
        for letter in ("X", "Y", "Z"):
            for site in range(3):
                factors = ["I"] * 3
                factors[site] = letter
                assert expectation(state, obs(*factors)) == pytest.approx(0.0, abs=1e-12)

    def test_bell_correlations(self):
        state = bell_state()
        assert expectation(state, obs("Z", "Z")) == pytest.approx(1.0)
        assert expectation(state, obs("X", "X")) == pytest.approx(1.0)
        assert expectation(state, obs("Y", "Y")) == pytest.approx(-1.0)

    def test_bell_tilted_correlations(self):
        # Alice Z or X against Bob's xz-plane observables at +-45 degrees
        state = bell_state()
        plus, minus = math.pi / 4, -math.pi / 4
        for a, b, want in (
            ("Z", plus, RT2 / 2),
            ("Z", minus, RT2 / 2),
            ("X", plus, RT2 / 2),
            ("X", minus, -RT2 / 2),
        ):
            assert expectation(state, obs(a, b)) == pytest.approx(want, abs=1e-12)
            exact = oracles.symbolic_expectation(oracles.bell_vector(), (a, b))
            assert float(exact) == pytest.approx(want, abs=1e-12)


class TestCommutation:
    def test_pair_products_on_ghz(self):
        state = ghz_state()
        xx, yy = obs("X", "X", "I"), obs("Y", "Y", "I")
        xy, yx = obs("X", "Y", "I"), obs("Y", "X", "I")
        assert product_expectation(state, xx, yy) == pytest.approx(-1.0, abs=1e-12)
        assert product_expectation(state, xy, yx) == pytest.approx(1.0, abs=1e-12)
        # consistent with (XX)(YY) = -ZZ and (XY)(YX) = +ZZ
        assert expectation(state, obs("Z", "Z", "I")) == pytest.approx(1.0, abs=1e-12)

    def test_pair_products_on_bell(self):
        state = bell_state()
        assert product_expectation(state, obs("X", "X"), obs("Y", "Y")) == pytest.approx(-1.0)
        assert product_expectation(state, obs("X", "Y"), obs("Y", "X")) == pytest.approx(1.0)

    def test_commuting_pairs(self):
        assert commutes(obs("X", "X", "I"), obs("Y", "Y", "I"))
        assert commutes(obs("X", "Y", "I"), obs("Y", "X", "I"))
        assert commutator_norm(obs("X", "X", "I"), obs("Y", "Y", "I")) < 1e-12

    def test_non_commuting_pair(self):
        assert not commutes(obs("X", "I"), obs("Y", "I"))
        assert commutator_norm(obs("X", "I"), obs("Y", "I")) > 1.0

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError, match="qubit counts"):
            commutes(obs("X"), obs("X", "X"))


class TestCommutesCache:
    def test_each_pair_is_checked_once(self, monkeypatch):
        """Repeated batches on GHZ pairs compute one commutator per distinct ordered pair; every other check hits."""
        norm = quantum.commutator_norm
        calls = []
        monkeypatch.setattr(quantum, "commutator_norm", lambda a, b: calls.append((a, b)) or norm(a, b))
        commutes.cache_clear()
        pairs = [(obs("X", "X", "I"), obs("Y", "Y", "I")), (obs("X", "Y", "I"), obs("Y", "X", "I"))]
        rng = np.random.default_rng(0)
        for _ in range(3):
            for pair in pairs:
                for _ in range(100):
                    sequential_measure(ghz_state(), pair, rng)
        assert calls == pairs
        info = commutes.cache_info()
        assert (info.hits, info.misses, info.currsize) == (598, 2, 2)

    def test_mismatched_pair_raises_on_every_call(self):
        size = commutes.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValueError, match="different qubit counts"):
                commutes(obs("X"), obs("X", "X"))
            with pytest.raises(ValueError, match="different qubit counts"):
                sequential_measure(bell_state(), (obs("Z", "I"), obs("Z")), np.random.default_rng(0))
        assert commutes.cache_info().currsize == size


class TestMeasurement:
    def test_collapse_to_branch(self):
        # measuring Z on Alice's qubit of the GHZ state collapses all three
        rng = np.random.default_rng(5)
        state = ghz_state()
        for _ in range(20):
            rec = measure(state, obs("Z", "I", "I"), rng)
            tail = sequential_measure(
                rec.post_state, (obs("I", "Z", "I"), obs("I", "I", "Z")), rng
            )
            assert tail[0].outcome == rec.outcome
            assert tail[1].outcome == rec.outcome

    def test_eigenstate_measures_deterministically(self):
        rng = np.random.default_rng(1)
        state = ghz_state()
        for o, want in GHZ_STABILIZERS:
            for _ in range(5):
                rec = measure(state, o, rng)
                assert rec.outcome == want
                # projecting an eigenstate changes nothing
                overlap = abs(np.vdot(rec.post_state.amplitudes, state.amplitudes))
                assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_repeated_measurement_is_stable(self):
        rng = np.random.default_rng(7)
        state = bell_state()
        o = obs("Z", "I")
        for _ in range(20):
            first = measure(state, o, rng)
            second = measure(first.post_state, o, rng)
            assert second.outcome == first.outcome

    def test_outcome_frequencies(self):
        rng = np.random.default_rng(11)
        state = bell_state()
        trials = 20_000
        total = sum(measure(state, obs("Z", "I"), rng).outcome for _ in range(trials))
        assert abs(total / trials) < 4.0 / math.sqrt(trials)

    def test_sequential_requires_commuting(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=r"^observables X\*I\*I and Y\*I\*I do not commute$"):
            sequential_measure(ghz_state(), (obs("X", "I", "I"), obs("Y", "I", "I")), rng)

    def test_sequential_product_identity(self):
        # per-trial identity o1*o2 = -o3 from (XX)(YY) = -ZZ on the GHZ state
        rng = np.random.default_rng(3)
        trio = (obs("X", "X", "I"), obs("Y", "Y", "I"), obs("Z", "Z", "I"))
        for _ in range(200):
            recs = sequential_measure(ghz_state(), trio, rng)
            assert recs[0].outcome * recs[1].outcome == -recs[2].outcome

    def test_order_independence_of_joint_statistics(self):
        trials = 20_000
        pair = (obs("X", "X", "I"), obs("Y", "Y", "I"))
        counts = {}
        for tag, order in (("ab", pair), ("ba", pair[::-1])):
            rng = np.random.default_rng(17)
            c = {}
            for _ in range(trials):
                recs = sequential_measure(ghz_state(), order, rng)
                by_obs = {o: r.outcome for o, r in zip(order, recs, strict=True)}
                key = (by_obs[pair[0]], by_obs[pair[1]])
                c[key] = c.get(key, 0) + 1
            counts[tag] = c
        keys = set(counts["ab"]) | set(counts["ba"])
        tv = sum(abs(counts["ab"].get(k, 0) - counts["ba"].get(k, 0)) for k in keys) / (
            2 * trials
        )
        assert tv < 4.0 / math.sqrt(trials)

    def test_sequential_on_twelve_qubits(self):
        """Commutation is checked at every supported qubit count, not only up to 10."""
        n = MAX_QUBITS
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = amps[-1] = 1 / RT2
        state = PureState(amps)
        z0, z1 = obs("Z", *"I" * (n - 1)), obs("I", "Z", *"I" * (n - 2))
        rng = np.random.default_rng(0)
        for _ in range(5):
            first, second = sequential_measure(state, (z0, z1), rng)
            assert first.outcome == second.outcome
        x0 = obs("X", *"I" * (n - 1))
        with pytest.raises(ValueError, match=rf"^observables {re.escape(z0.label())} and {re.escape(x0.label())} do not commute$"):
            sequential_measure(state, (z0, x0), rng)

    def test_outcomes_are_pinned(self):
        """The seeded measurement outcomes and post-state bits never change silently.

        Two batches measure the GHZ pairs of the measured-pair-products gate;
        the third measures a tilted two-qubit observable together with its
        two single-site factors on the Bell state, so every outcome there
        depends on the post state of the one before.
        """
        batches = (
            (ghz_state(), (obs("X", "X", "I"), obs("Y", "Y", "I")), 2024),
            (ghz_state(), (obs("X", "Y", "I"), obs("Y", "X", "I")), 2025),
            (bell_state(), (obs("Z", 0.7), obs("Z", "I"), obs("I", 0.7)), 2026),
        )
        digest, posts = hashlib.sha256(), hashlib.sha256()
        for state, observables, seed in batches:
            rng = np.random.default_rng(seed)
            batch = [sequential_measure(state, observables, rng) for _ in range(1000)]
            outcomes = np.array([[r.outcome for r in records] for records in batch], dtype=np.int8)
            if len(observables) == 3:
                assert np.all(outcomes[:, 0] == outcomes[:, 1] * outcomes[:, 2])
            digest.update(outcomes.tobytes())
            for records in batch:
                for r in records:
                    posts.update(r.post_state.amplitudes.tobytes())
        assert digest.hexdigest() == "72e02b51953b83d51a0c832cbe7fa408400715247e0d41f50ccd31ff0a172a85"
        assert posts.hexdigest() == "fb346422f5cb09c93d17536e19275d32af1cb8625d97c305b6b8629e874de885"


class TestJointProbabilities:
    def test_outcome_tuple_order(self):
        assert outcome_tuples(2) == ((1, 1), (1, -1), (-1, 1), (-1, -1))

    def test_ghz_zzz(self):
        probs = joint_probabilities(ghz_state(), ("Z", "Z", "Z"))
        assert probs[(1, 1, 1)] == pytest.approx(0.5)
        assert probs[(-1, -1, -1)] == pytest.approx(0.5)
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_ghz_xxx_support(self):
        # every outcome with nonzero weight has product -1
        probs = joint_probabilities(ghz_state(), ("X", "X", "X"))
        for outcome, p in probs.items():
            prod = outcome[0] * outcome[1] * outcome[2]
            if prod == 1:
                assert p == pytest.approx(0.0, abs=1e-12)
            else:
                assert p == pytest.approx(0.25, abs=1e-12)

    def test_matches_symbolic_born_rule(self):
        for factors in (("X", "X", "X"), ("X", "X", "Y"), ("X", "X", "Z"), ("Y", "Y", "X")):
            numeric = joint_probabilities(ghz_state(), factors)
            exact = oracles.symbolic_joint_pmf(oracles.ghz_vector(), factors)
            for outcome, p in numeric.items():
                assert p == pytest.approx(float(exact[outcome]), abs=1e-12)

    def test_rejects_probabilities_that_are_not_numbers(self):
        state = slipped_state([math.nan, 0.0, 0.0, 0.0])
        with pytest.raises(InvariantViolation, match="sum to nan"):
            joint_probabilities(state, ("Z", "Z"))

    def test_needs_factor_per_qubit(self):
        with pytest.raises(ValueError, match="one factor per qubit"):
            joint_probabilities(ghz_state(), ("X", "X"))


_PAULI_CASES = [
    *((oracles.bell_vector, BELL_ROOT2, _BELL_STABILIZERS, f) for f in itertools.product("IXYZ", repeat=2)),
    *((oracles.ghz_vector, GHZ_ROOT2, GHZ_STABILIZERS, f) for f in itertools.product("IXYZ", repeat=3)),
]


class TestPauliWeights:
    """Affine forms of Pauli measurements on Bell and GHZ, and the ``oracles.pauli_weights`` oracle."""

    @pytest.mark.parametrize(
        "vector, root2, stabilizers, factors", _PAULI_CASES, ids=["".join(f) for *_, f in _PAULI_CASES]
    )
    def test_matches_symbolic_born_rule(self, vector, root2, stabilizers, factors):
        """The form's pmf, uniform over the stabilizer group's atoms, is the Born pmf and the oracle's support."""
        labels = tuple(f"c{k}" for k in range(len(factors)))
        pmf = ensembles._born_form(stabilizers, factors, labels).pmf
        want = {o: p for o, p in oracles.symbolic_joint_pmf(vector(), factors).items() if p}
        assert oracles.lattice_mapping(pmf) == want
        weights = oracles.pauli_weights(root2, factors)
        assert {o for o, w in zip(outcome_tuples(len(factors)), weights) if w} == set(want)

    def test_rejects_a_tilted_factor(self):
        with pytest.raises(ValueError, match="Pauli letters"):
            oracles.pauli_weights(BELL_ROOT2, ("Z", math.pi / 4))

    def test_rejects_a_length_other_than_two_to_the_n(self):
        with pytest.raises(ValueError, match="8 amplitudes for 2 factors"):
            oracles.pauli_weights(GHZ_ROOT2, ("X", "X"))

    def test_rejects_weights_past_exact_floats(self):
        # |c|^2 * 4^n = 2^52 is exact; twice that reaches 2^53.
        assert oracles.pauli_weights((2**25, 0), ("Z",)) == [2**52, 0]
        assert oracles.pauli_weights((2**25, 0), ("X",)) == [2**51, 2**51]
        with pytest.raises(ValueError, match="2\\^53"):
            oracles.pauli_weights((2**25, 2**25), ("Z",))

    @given(st.data())
    @settings(max_examples=40)
    def test_matches_the_float_projections_on_every_pauli_tuple(self, data):
        """Integer vectors on 1-4 qubits under the 2^53 guard: the Gaussian-integer weights equal the complex128 ones."""
        n = data.draw(st.integers(min_value=1, max_value=4), label="n")
        # Every weight is at most |c|^2 * 4^n <= 2^n * bound^2 * 4^n < 2^53.
        bound = math.isqrt((2**53 - 1) // 8**n)
        amplitudes = data.draw(
            st.tuples(*[st.integers(min_value=-bound, max_value=bound)] * 2**n), label="amplitudes"
        )
        for factors in itertools.product("IXYZ", repeat=n):
            assert oracles.pauli_weights(amplitudes, factors) == oracles.pauli_weights_by_float(amplitudes, factors), factors


def _strings(group: dict[tuple[str, ...], int]) -> dict[str, int]:
    return {"".join(letters): sign for letters, sign in group.items()}


class TestStabilizerGroup:
    def test_bell_group(self):
        assert _strings(_stabilizer_group(_BELL_STABILIZERS)) == {"II": 1, "XX": 1, "ZZ": 1, "YY": -1}

    def test_ghz_group_closes_on_eight_strings(self):
        """The four GHZ stabilizers are dependent: XXX = -1 is the product of the three +1 ones."""
        group = _strings(_stabilizer_group(GHZ_STABILIZERS))
        assert len(group) == 8
        assert (group["XXX"], group["ZZI"], group["IZZ"], group["ZIZ"]) == (-1, 1, 1, 1)
        for observable, sign in GHZ_STABILIZERS:
            assert group["".join(observable.factors)] == sign

    def test_rejects_generators_that_do_not_commute(self):
        generators = ((PauliObservable(("X", "I")), 1), (PauliObservable(("Z", "I")), 1))
        with pytest.raises(InvariantViolation, match="Z\\*I, X\\*I do not commute"):
            _stabilizer_group(generators)

    def test_rejects_a_string_with_both_signs(self):
        generators = ((PauliObservable(("Z", "Z")), 1), (PauliObservable(("Z", "Z")), -1))
        with pytest.raises(InvariantViolation, match="Z\\*Z both signs"):
            _stabilizer_group(generators)

    def test_rejects_too_few_generators(self):
        with pytest.raises(InvariantViolation, match="close on 2 strings, which fix no 2-qubit state"):
            _stabilizer_group(((PauliObservable(("Z", "Z")), 1),))


class TestAssignmentSearch:
    def test_constraints_are_the_stabilizers_read_as_local_values(self):
        """Site k's letter L of each stabilizer is party "abj"[k]'s value on axis L, and its product the expectation."""
        assert GHZ_PRODUCT_CONSTRAINTS == (
            (("a_y", "b_x", "j_y"), 1),
            (("a_y", "b_y", "j_x"), 1),
            (("a_x", "b_y", "j_y"), 1),
            (("a_x", "b_x", "j_x"), -1),
        )

    def test_full_constraints_have_no_solution(self):
        assert ghz_assignment_search() == []
        assert oracles.parity_solution_count(GHZ_PRODUCT_CONSTRAINTS) == 0

    def test_positive_constraints_admit_solutions(self):
        positive = tuple(c for c in GHZ_PRODUCT_CONSTRAINTS if c[1] == 1)
        found = ghz_assignment_search(positive)
        assert len(found) == oracles.parity_solution_count(positive) == 8
        for assignment in found:
            for variables, required in positive:
                prod = 1
                for v in variables:
                    prod *= assignment[v]
                assert prod == required

    def test_any_three_constraints_admit_solutions(self):
        for drop in range(4):
            kept = tuple(c for i, c in enumerate(GHZ_PRODUCT_CONSTRAINTS) if i != drop)
            found = ghz_assignment_search(kept)
            assert len(found) == oracles.parity_solution_count(kept) == 8


@st.composite
def random_states(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(vec / np.linalg.norm(vec))


@st.composite
def observables_for(draw, n):
    letters = st.sampled_from(["I", "X", "Y", "Z"])
    return PauliObservable(tuple(draw(letters) for _ in range(n)))


@given(random_states(), st.integers(min_value=0, max_value=2**32 - 1), st.data())
@settings(max_examples=60)
def test_measurement_invariants(state, seed, data):
    o = data.draw(observables_for(state.n_qubits))
    rng = np.random.default_rng(seed)
    exp = expectation(state, o)
    assert -1.0 - 1e-9 <= exp <= 1.0 + 1e-9
    rec = measure(state, o, rng)
    assert rec.outcome in (1, -1)
    assert np.linalg.norm(rec.post_state.amplitudes) == pytest.approx(1.0, abs=1e-9)
    # projective repeatability
    again = measure(rec.post_state, o, rng)
    assert again.outcome == rec.outcome


def test_measure_zero_probability_branch_is_never_sampled():
    rng = np.random.default_rng(2)
    state = PureState(np.array([1.0, 0.0]))
    for _ in range(50):
        assert measure(state, obs("Z"), rng).outcome == 1


class _DrawsOne:
    """An rng stub whose every draw is 1.0, past every Born probability."""

    def random(self):
        return 1.0


class TestBornBranchCache:
    def test_qubit_counts_are_checked_before_the_lookup(self):
        before = _born_branches.cache_info()
        with pytest.raises(ValueError, match="different qubit counts"):
            measure(ghz_state(), obs("Z", "I"), np.random.default_rng(0))
        after = _born_branches.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_vanishing_branch_is_refused_on_every_call(self):
        """The cached None branch raises each time it is sampled, not only when first computed."""
        state = PureState(np.array([1.0, 0.0]))
        for _ in range(3):
            with pytest.raises(InvariantViolation, match="sampled a branch of vanishing probability"):
                measure(state, obs("Z"), _DrawsOne())

    def test_amplitudes_view_the_key(self):
        state = ghz_state()
        assert state.amplitudes.base is state.key

    def test_draws_of_a_branch_share_its_record(self):
        state = PureState(np.array([1.0, 0.0]))
        first, second = (measure(state, obs("Z"), np.random.default_rng(seed)) for seed in (0, 1))
        assert first is second

    def test_warm_batches_build_nothing(self, monkeypatch):
        """After one warm batch, each GHZ pair measurement is cache hits and draws: no miss, no state, no record."""
        state = ghz_state()
        pair = (obs("X", "X", "I"), obs("Y", "Y", "I"))
        rng = np.random.default_rng(8)
        for _ in range(1000):
            sequential_measure(state, pair, rng)
        built = []
        for name in ("PureState", "MeasurementRecord"):
            cls = getattr(quantum, name)
            monkeypatch.setattr(quantum, name, lambda *a, _cls=cls, **k: built.append(_cls) or _cls(*a, **k))
        misses = _born_branches.cache_info().misses
        for _ in range(1000):
            sequential_measure(state, pair, rng)
        assert _born_branches.cache_info().misses == misses
        assert built == []

    def test_cache_size_is_bounded(self):
        maxsize = _born_branches.cache_info().maxsize
        rng = np.random.default_rng(3)
        for _ in range(maxsize + 10):
            vec = rng.normal(size=8) + 1j * rng.normal(size=8)
            measure(PureState(vec / np.linalg.norm(vec)), obs("X", "Y", "Z"), rng)
        assert _born_branches.cache_info().currsize <= maxsize


class TestBornPmfCache:
    def test_returned_dict_is_the_callers_own(self):
        first = joint_probabilities(ghz_state(), ("X", "X", "Y"))
        want = dict(first)
        first[(1, 1, 1)] = 7.0
        first.clear()
        assert joint_probabilities(ghz_state(), ("X", "X", "Y")) == want

    def test_equal_states_and_factors_share_an_entry(self):
        joint_probabilities(bell_state(), ("Z", math.pi / 4))
        before = _born_pmf.cache_info()
        joint_probabilities(bell_state(), ["Z", math.pi / 4])
        after = _born_pmf.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_unnormalised_state_raises_on_every_call(self):
        state = slipped_state([1.0, 0.0, 0.0, 1.0])
        size = _born_pmf.cache_info().currsize
        for _ in range(3):
            with pytest.raises(InvariantViolation, match="sum to 2.0"):
                joint_probabilities(state, ("Z", "Z"))
        assert _born_pmf.cache_info().currsize == size

    def test_cache_size_is_bounded(self):
        maxsize = _born_pmf.cache_info().maxsize
        rng = np.random.default_rng(4)
        for _ in range(maxsize + 10):
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            joint_probabilities(PureState(vec / np.linalg.norm(vec)), ("X", "Z"))
        assert _born_pmf.cache_info().currsize <= maxsize


@given(
    random_states(),
    st.lists(st.one_of(st.sampled_from("IXYZ"), st.floats(-10, 10, allow_nan=False)), min_size=3, max_size=3),
)
@example(ghz_state(), ["X", "X", "Y"])
@example(bell_state(), ["Z", math.pi / 4, "I"])
@settings(max_examples=60)
def test_joint_probabilities_match_the_uncached_pmf(state, factors):
    """Twice in a row, a call equals the pmf computed afresh, entry by entry and bit for bit."""
    factors = tuple(factors[: state.n_qubits])
    want = _born_pmf.__wrapped__(state.amplitudes.tobytes(), factors)
    for _ in range(2):
        got = joint_probabilities(state, factors)
        assert list(got.items()) == list(want.items())


_SITE_FACTORS = st.lists(
    st.one_of(st.sampled_from("IXYZ"), st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)),
    min_size=MAX_QUBITS,
    max_size=MAX_QUBITS,
)
_TWELVE = ["X", 0.3, "Y", "Z", -2.5, "I", "Y", 1.0, "X", -0.1, "Z", 7.0]


@given(
    n=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    a_factors=_SITE_FACTORS,
    b_factors=_SITE_FACTORS,
)
@example(n=MAX_QUBITS, seed=0, a_factors=_TWELVE, b_factors=_TWELVE[::-1])
@settings(max_examples=150)
def test_site_kernel_matches_matmul(n, seed, a_factors, b_factors):
    """Every operation on the site-by-site kernel agrees with the 2x2-matmul oracle to 1e-12."""
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state = PureState(vec / np.linalg.norm(vec))
    amps = state.amplitudes
    a = PauliObservable(tuple(a_factors[:n]))
    b = PauliObservable(tuple(b_factors[:n]))
    va, vb = oracles.apply_by_matmul(a, amps), oracles.apply_by_matmul(b, amps)

    np.testing.assert_allclose(_apply(a, amps), va, rtol=0, atol=1e-12)
    assert expectation(state, a) == pytest.approx(np.vdot(amps, va).real, abs=1e-12)

    product = np.vdot(va, vb)
    if abs(product.imag) > 1e-9:
        with pytest.raises(InvariantViolation, match="imaginary"):
            product_expectation(state, a, b)
    elif abs(product.imag) < 1e-13:
        assert product_expectation(state, a, b) == pytest.approx(product.real, abs=1e-12)

    probs = joint_probabilities(state, a.factors)
    assert list(probs) == list(outcome_tuples(n))
    # every outcome up to n = 6, every 64th beyond
    for outcome in list(probs)[:: 2 ** max(0, n - 6)]:
        want = oracles.joint_probability_by_matmul(amps, a.factors, outcome)
        assert probs[outcome] == pytest.approx(want, abs=1e-12)

    outcome, post = oracles.measure_by_matmul(amps, a, np.random.default_rng(seed))
    # The first call may fill the cache; the same state and an equal fresh one then hit it.
    for measured in (state, state, PureState(amps.copy())):
        rec = measure(measured, a, np.random.default_rng(seed))
        assert rec.outcome == outcome
        np.testing.assert_allclose(rec.post_state.amplitudes, post, rtol=0, atol=1e-12)
        # Cached post states are shared between callers, so none of them may write.
        assert not rec.post_state.amplitudes.flags.writeable


_AMPLITUDES = st.lists(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False), min_size=32, max_size=32
)


@given(n=st.integers(min_value=1, max_value=5), factors=_SITE_FACTORS, amplitudes=_AMPLITUDES)
@example(n=3, factors=["Y", 0.7, "X", *_TWELVE[3:]], amplitudes=[*GHZ_ROOT2, *[0j] * 24])
@example(n=5, factors=[-2.5, "Y", "Z", 1.0, "X", *_TWELVE[5:]], amplitudes=[complex(k, -k) for k in range(32)])
@settings(max_examples=200)
def test_apply_equals_the_signed_permutation_oracle(n, factors, amplitudes):
    """Site by site, ``_apply`` gives exactly the values of the former signed permutation and tilted-site pass."""
    amps = np.array(amplitudes[: 2**n], dtype=complex)
    observable = PauliObservable(tuple(factors[:n]))
    assert np.array_equal(_apply(observable, amps), oracles.apply_by_signed_permutation(observable, amps))


@given(
    n=st.integers(min_value=1, max_value=10),
    a_factors=_SITE_FACTORS,
    b_factors=_SITE_FACTORS,
)
@example(n=10, a_factors=_TWELVE, b_factors=_TWELVE[::-1])
@example(n=10, a_factors=_TWELVE, b_factors=["X", 0.3, *"IIIIIIII"])
# Three commuting sites ("I" once, equal factors twice) scale the norm 2*sqrt(2) of [X, Y] to 8.
@example(n=4, a_factors=["X", 0.3, "I", "Z"], b_factors=["Y", 0.3, "Z", "Z"])
# Every site commutes.
@example(n=5, a_factors=["X", 0.3, "I", "Z", "Y"], b_factors=["X", 0.3, "Y", "Z", "I"])
@settings(max_examples=40)
def test_commutator_norm_matches_dense(n, a_factors, b_factors):
    """The kernel's commutator norm agrees with the dense Kronecker-product oracle up to 10 qubits."""
    a = PauliObservable(tuple(a_factors[:n]))
    b = PauliObservable(tuple(b_factors[:n]))
    want = oracles.commutator_norm_by_dense(a, b)
    assert commutator_norm(a, b) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_commutator_norm_costs_only_the_sites_that_do_not_commute():
    """At 12 qubits with two non-commuting sites, the norm is 2^5 times theirs, well inside 0.5 s.

    The closed form visits each site once; a dense commutator of this pair has 2^24 entries.
    """
    b_factors = ("Y", *_TWELVE[1:4], 1.5, *_TWELVE[5:])
    a, b = PauliObservable(tuple(_TWELVE)), PauliObservable(b_factors)
    start = time.perf_counter()
    got = commutator_norm(a, b)
    elapsed = time.perf_counter() - start
    sites = oracles.commutator_norm_by_dense(PauliObservable(("X", -2.5)), PauliObservable(("Y", 1.5)))
    assert got == pytest.approx(2**5 * sites, rel=1e-12)
    assert elapsed < 0.5, f"{elapsed:.3f} s against a 0.5 s budget"


@given(st.lists(st.tuples(st.sampled_from("IXYZ"), st.sampled_from("IXYZ")), min_size=1, max_size=64))
# X^40 against Z^39 I: 39 anticommuting sites, far past any dense commutator.
@example([("X", "Z")] * 39 + [("X", "I")])
@settings(max_examples=200)
def test_commutator_norm_on_pauli_letters_is_exact(pairs):
    """On Pauli letters, [a, b] is exactly 0.0 when an even number of sites anticommute, else 2^(1+n/2) to 1 ulp.

    Two sites anticommute when neither letter is "I" and the letters differ.
    """
    a, b = (PauliObservable(factors) for factors in zip(*pairs))
    odd = sum("I" not in pair and pair[0] != pair[1] for pair in pairs) % 2 == 1
    norm = commutator_norm(a, b)
    if odd:
        want = 2 ** (1 + len(pairs) / 2)
        assert abs(norm - want) <= math.ulp(want)
    else:
        assert norm == 0.0
    assert commutes(a, b) is not odd
