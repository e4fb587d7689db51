from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from corrlab.boxes import (
    LABELS,
    DichotomicBox,
    box_from_quantum,
    check_no_signaling,
    chsh_value,
    correlation,
    make_ghz_box,
    make_local_deterministic_box,
    make_pr_box,
    make_tsirelson_box,
)
from corrlab.ensembles import ExactDistribution, ScenarioKind, ScenarioSpec, scenario_exact_distribution
from corrlab.errors import BoxValidationError
from corrlab.quantum import bell_state

RT2 = math.sqrt(2.0)
HALF = Fraction(1, 2)


def pr_round_pmf(choice: str) -> ExactDistribution:
    """The maximal box's round pmf: its exact run of one round."""
    return scenario_exact_distribution(ScenarioSpec(kind=ScenarioKind.PR_BOX, n_rounds=1, sender_choice=choice))


class TestMaximalBox:
    def test_correlations(self):
        box = make_pr_box()
        assert correlation(box, ("u", "u")) == 1
        assert correlation(box, ("u", "p")) == 1
        assert correlation(box, ("p", "u")) == 1
        assert correlation(box, ("p", "p")) == -1

    def test_exact_and_maximally_chsh_violating(self):
        box = make_pr_box()
        value = chsh_value(box)
        assert isinstance(value, Fraction) and value == 4

    def test_unbiased_marginals(self):
        box = make_pr_box()
        for key in itertools.product(LABELS, repeat=2):
            for keep in ((0,), (1,)):
                assert box.marginal(key, keep) == (HALF, HALF)

    def test_no_signaling_is_exact(self):
        report = check_no_signaling(make_pr_box())
        assert report["holds"] is True
        assert report["max_marginal_deviation"] == Fraction(0)


class TestDeterministicBoxes:
    def test_correlations_factor(self):
        responses = ({"u": 1, "p": 1}, {"u": 1, "p": -1})
        box = make_local_deterministic_box(responses)
        for key in itertools.product(LABELS, repeat=2):
            want = responses[0][key[0]] * responses[1][key[1]]
            assert correlation(box, key) == want

    def test_chsh_reaches_classical_bound(self):
        box = make_local_deterministic_box(({"u": 1, "p": 1}, {"u": 1, "p": -1}))
        assert chsh_value(box) == 2

    @given(
        st.integers(min_value=2, max_value=3),
        st.lists(st.sampled_from([1, -1]), min_size=6, max_size=6),
    )
    @settings(max_examples=40)
    def test_deterministic_boxes_never_signal(self, parties, signs):
        responses = tuple(
            {"u": signs[2 * i], "p": signs[2 * i + 1]} for i in range(parties)
        )
        box = make_local_deterministic_box(responses)
        report = check_no_signaling(box)
        assert report["holds"] is True
        assert report["max_marginal_deviation"] == 0
        if parties == 2:
            assert abs(chsh_value(box)) <= 2
        for key in itertools.product(LABELS, repeat=parties):
            want = 1
            for i in range(parties):
                want *= responses[i][key[i]]
            assert correlation(box, key) == want


class TestSignalingDetection:
    def _biased_box(self):
        # Alice's marginal is 3/5 when Bob picks "u" and 1/2 when he picks "p"
        def row(p_plus):
            return (
                p_plus * HALF,
                p_plus * HALF,
                (1 - p_plus) * HALF,
                (1 - p_plus) * HALF,
            )

        table = {
            ("u", "u"): row(Fraction(3, 5)),
            ("p", "u"): row(Fraction(3, 5)),
            ("u", "p"): row(HALF),
            ("p", "p"): row(HALF),
        }
        return DichotomicBox(parties=2, table=table)

    def test_detects_marginal_shift(self):
        report = check_no_signaling(self._biased_box())
        assert report["holds"] is False
        assert report["max_marginal_deviation"] == Fraction(1, 10)


class TestQuantumBoxes:
    def test_tsirelson_correlations(self):
        box = make_tsirelson_box()
        for key, want in (
            (("u", "u"), RT2 / 2),
            (("u", "p"), RT2 / 2),
            (("p", "u"), RT2 / 2),
            (("p", "p"), -RT2 / 2),
        ):
            assert correlation(box, key) == pytest.approx(want, abs=1e-12)

    def test_tsirelson_saturates_quantum_bound(self):
        assert chsh_value(make_tsirelson_box()) == pytest.approx(2 * RT2, abs=1e-12)

    def test_tsirelson_matches_symbolic_born_rule(self):
        box = make_tsirelson_box()
        vec = oracles.bell_vector()
        settings_map = {"u": ("Z", math.pi / 4), "p": ("X", -math.pi / 4)}
        for a_lab, b_lab in itertools.product(LABELS, repeat=2):
            factors = (settings_map[a_lab][0], settings_map[b_lab][1])
            exact = oracles.symbolic_expectation(vec, factors)
            assert correlation(box, (a_lab, b_lab)) == pytest.approx(
                float(exact), abs=1e-12
            )

    def test_tsirelson_no_signaling(self):
        report = check_no_signaling(make_tsirelson_box())
        assert report["holds"] is True
        assert report["max_marginal_deviation"] < 1e-12

    def test_ghz_full_correlations(self):
        box = make_ghz_box()
        # unprimed = x, primed = y on each site
        for key, want in (
            (("u", "u", "u"), -1.0),
            (("u", "p", "p"), 1.0),
            (("p", "u", "p"), 1.0),
            (("p", "p", "u"), 1.0),
            (("p", "p", "p"), 0.0),
            (("u", "u", "p"), 0.0),
        ):
            assert correlation(box, key) == pytest.approx(want, abs=1e-12)

    def test_ghz_pairwise_marginals_are_flat(self):
        box = make_ghz_box()
        for key in itertools.product(LABELS, repeat=3):
            for keep in ((0, 1), (0, 2), (1, 2)):
                for p in box.marginal(key, keep):
                    assert float(p) == pytest.approx(0.25, abs=1e-12)

    def test_ghz_no_signaling(self):
        report = check_no_signaling(make_ghz_box())
        assert report["holds"] is True

    def test_party_count_mismatch(self):
        with pytest.raises(BoxValidationError, match="parties"):
            box_from_quantum(bell_state(), (("X", "Y"),) * 3)


class TestValidation:
    def test_row_must_sum_to_one(self):
        table = {
            key: (HALF, HALF, Fraction(0), Fraction(0))
            for key in itertools.product(LABELS, repeat=2)
        }
        table[("u", "u")] = (HALF, HALF, HALF, Fraction(0))
        with pytest.raises(BoxValidationError, match="sums to"):
            DichotomicBox(parties=2, table=table)

    def test_probabilities_in_range(self):
        table = {
            key: (Fraction(3, 2), -HALF, Fraction(0), Fraction(0))
            for key in itertools.product(LABELS, repeat=2)
        }
        with pytest.raises(BoxValidationError, match="outside"):
            DichotomicBox(parties=2, table=table)

    def test_missing_key(self):
        table = {("u", "u"): (HALF, Fraction(0), Fraction(0), HALF)}
        with pytest.raises(BoxValidationError, match="missing"):
            DichotomicBox(parties=2, table=table)

    def test_unknown_key(self):
        box = make_pr_box()
        table = dict(box.table)
        table[("q", "u")] = table[("u", "u")]
        with pytest.raises(BoxValidationError, match="unknown setting label"):
            DichotomicBox(parties=2, table=table)

    def test_party_count(self):
        with pytest.raises(BoxValidationError, match="2- and 3-party"):
            DichotomicBox(parties=4, table={})

    def test_row_length(self):
        table = {key: (HALF, HALF) for key in itertools.product(LABELS, repeat=2)}
        with pytest.raises(BoxValidationError, match="length"):
            DichotomicBox(parties=2, table=table)

    def test_chsh_needs_two_parties(self):
        with pytest.raises(BoxValidationError, match="bipartite"):
            chsh_value(make_ghz_box())


class TestJointReadout:
    def test_round_pmf(self):
        assert oracles.lattice_mapping(pr_round_pmf("u")) == {(1, 1): HALF, (-1, -1): HALF}
        assert oracles.lattice_mapping(pr_round_pmf("p")) == {(1, -1): HALF, (-1, 1): HALF}

    def test_pmf_reproduces_box_correlations(self):
        # the round pmf is exactly the maximal box's conditional law with
        # Bob's two settings read jointly; b carries Alice's outcome verbatim
        box = make_pr_box()
        for choice in LABELS:
            pmf = oracles.lattice_mapping(pr_round_pmf(choice))
            c_ab = sum(p * b * b for (b, _), p in pmf.items())
            c_abp = sum(p * b * bp for (b, bp), p in pmf.items())
            assert c_ab == correlation(box, (choice, "u"))
            assert c_abp == correlation(box, (choice, "p"))


@st.composite
def mixed_boxes(draw):
    """A box whose rows hold Fractions, floats, ints (0 and 1) or a mix of them."""
    parties = draw(st.sampled_from((2, 3)))
    size = 2**parties
    table = {}
    for key in itertools.product(LABELS, repeat=parties):
        weights = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size).filter(any))
        kinds = draw(st.lists(st.sampled_from((Fraction, float, int)), min_size=size, max_size=size))
        total = sum(weights)
        row = []
        for w, kind in zip(weights, kinds):
            if kind is float:
                row.append(w / total)
            elif kind is int and w in (0, total):
                row.append(w // total)
            else:
                row.append(Fraction(w, total))
        table[key] = tuple(row)
    return DichotomicBox(parties=parties, table=table)


@given(mixed_boxes())
@example(DichotomicBox(parties=2, table={key: (0, 1, 0, 0) for key in itertools.product(LABELS, repeat=2)}))
@example(make_tsirelson_box())
@example(make_pr_box())
@settings(max_examples=80)
def test_sums_keep_the_row_arithmetic(box):
    """Marginals and correlations equal sums from Fraction(0), in value and in type, entry by entry."""
    for labels in itertools.product(LABELS, repeat=box.parties):
        got, want = correlation(box, labels), oracles.box_correlation_from_zero(box, labels)
        assert (type(got), got) == (type(want), want)
        for size in range(1, box.parties):
            for keep in itertools.combinations(range(box.parties), size):
                got, want = box.marginal(labels, keep), oracles.box_marginal_from_zero(box, labels, keep)
                assert [(type(g), g) for g in got] == [(type(w), w) for w in want]
