from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from corrlab import ensembles
from corrlab.ensembles import (
    EXACT_MAX_ROUNDS,
    EnsembleRun,
    ExactDistribution,
    RunMode,
    ScenarioSpec,
    _sample_outcome_rows,
    convolve_iid_rounds,
    jamming_round_pmf,
    run_ghz_scenario,
    run_jamming_scenario,
    run_pr_scenario,
    run_tsirelson_scenario,
)
from corrlab.errors import InvariantViolation
from corrlab.quantum import _BELL_STABILIZERS
from corrlab.reportio import encode
from corrlab.signaling import total_variation

HALF = Fraction(1, 2)
LABELS = ("c0", "c1", "c2")


def round_distribution(pmf: dict) -> ExactDistribution:
    """A one-round pmf {outcome tuple: probability} as an N=1 lattice distribution."""
    return ExactDistribution.from_mapping(pmf, LABELS[: len(next(iter(pmf)))], 1)


# The round pmfs of the forms the runners read, under the builder names that parametrized test ids carry.
def pr_round_pmf(choice: str) -> ExactDistribution:
    return ensembles._PR_FORMS[choice].pmf


def ghz_round_pmf(choice: str) -> ExactDistribution:
    return ensembles._ghz_form(choice).pmf


def tsirelson_round_pmf(choice: str, axis: str) -> ExactDistribution:
    return ensembles._tsirelson_form(choice, axis).pmf


def affine_form(round_pmf: ExactDistribution) -> ensembles._AffineForm:
    """The sampler's form of ``round_pmf``, with the planes and row-0 signs ``oracles.parity_planes`` reads from it."""
    planes, negative_first = oracles.parity_planes(round_pmf)
    return ensembles._AffineForm(round_pmf, tuple(planes), tuple(negative_first))


def dense_weights(mapping: dict, n: int, k: int, denominator: int) -> list[int]:
    """The weights over ``denominator`` of a {sum tuple: probability} pmf, on the N grid in lexicographic order."""
    cells = itertools.product(range(-n, n + 1, 2), repeat=k)
    return [mapping.get(cell, 0) * denominator for cell in cells]


def spec(n, choice="u", mode=RunMode.EXACT, trials=1000, seed=0, **kw):
    return ScenarioSpec(n_rounds=n, sender_choice=choice, trials=trials, seed=seed, mode=mode, **kw)


class TestSpecValidation:
    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError, match="at least 1"):
            spec(0)

    def test_exact_round_cap(self):
        with pytest.raises(ValueError, match=str(EXACT_MAX_ROUNDS)):
            spec(EXACT_MAX_ROUNDS + 1)
        assert spec(30, mode=RunMode.MONTE_CARLO).n_rounds == 30

    def test_rejects_bad_choice(self):
        with pytest.raises(ValueError, match="sender_choice"):
            spec(4, choice="x")

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError, match="trials"):
            spec(4, mode=RunMode.MONTE_CARLO, trials=0)

    def test_largest_array_is_numpys(self):
        """The module sets the limit without importing numpy; it must stay numpy's, or the --trials refusals drift."""
        assert ensembles._MAX_ARRAY_BYTES == np.iinfo(np.intp).max

    @pytest.mark.parametrize(
        "runner, kwargs, k",
        [
            (run_pr_scenario, {}, 2),
            (run_tsirelson_scenario, {"bob_axis": "x"}, 1),
            (run_ghz_scenario, {"receivers_only": True}, 2),
            (run_ghz_scenario, {}, 3),
        ],
        ids=["pr", "tsirelson", "ghz-receivers", "ghz-whole"],
    )
    def test_rejects_trials_past_the_largest_sums_array(self, monkeypatch, runner, kwargs, k):
        """A sampled run's k int64 sums per trial, k its own components, must fit numpy's largest array.

        The run refuses one trial past that before the sampler allocates,
        and hands the bound itself to the sampler; exact runs ignore trials.
        """
        sampled = []

        def stub(form, n, trials, seed, stream):
            sampled.append(trials)
            return np.zeros((len(form.planes), 1), np.uint8)

        monkeypatch.setattr(ensembles, "_sample_outcome_rows", stub)
        most = np.iinfo(np.intp).max // (8 * k)
        assert len(runner(spec(4, mode=RunMode.MONTE_CARLO, trials=most), **kwargs).labels) == k
        assert sampled == [most]
        assert runner(spec(4, trials=most + 1), **kwargs).labels == runner(spec(4), **kwargs).labels
        with pytest.raises(ValueError, match=f"trials must be at most {most} to hold {k} int64 sums per trial"):
            runner(spec(4, mode=RunMode.MONTE_CARLO, trials=most + 1), **kwargs)
        assert sampled == [most]

    def test_spec_holds_trials_past_every_run_and_checks_the_seed_first(self):
        """The spec names no run, so it keeps any positive trials; a bad seed is refused when the spec is built."""
        past = sys.maxsize // 8 + 1
        assert spec(4, mode=RunMode.MONTE_CARLO, trials=past).trials == past
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            spec(4, mode=RunMode.MONTE_CARLO, trials=sys.maxsize, seed=-1)

    @pytest.mark.parametrize("n", [1, 6, 7])
    def test_jamming_rejects_trials_past_the_largest_indicator_array(self, n):
        """3 indicator words per 64 triplets must fit numpy's largest array, refused before any allocation."""
        most = 64 * (np.iinfo(np.intp).max // 24) // n
        assert 3 * 8 * -(-n * most // 64) <= np.iinfo(np.intp).max < 3 * 8 * -(-n * (most + 1) // 64)
        with pytest.raises(ValueError, match=f"trials must be at most {most} at n={n}"):
            run_jamming_scenario(n, "x", most + 1, 0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            spec(4, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            spec(4, seed=2**64)


SHIPPED_ROUND_PMFS = {
    **{f"pr-{c}": pr_round_pmf(c) for c in "up"},
    **{f"tsirelson-{c}{axis}": tsirelson_round_pmf(c, axis) for c in "up" for axis in "zx"},
    **{f"ghz-{c}": ghz_round_pmf(c) for c in "up"},
}


@st.composite
def dyadic_round_pmfs(draw, max_exp=10, k=None):
    """Round pmfs over k in 1..3 components of +1/-1, with dyadic denominators up to 2^max_exp."""
    if k is None:
        k = draw(st.integers(min_value=1, max_value=3))
    scale = 2 ** draw(st.integers(min_value=0, max_value=max_exp))
    atoms = draw(
        st.lists(
            st.sampled_from(list(itertools.product((1, -1), repeat=k))),
            min_size=1,
            max_size=min(2**k, scale),
            unique=True,
        )
    )
    cuts = draw(
        st.lists(
            st.integers(min_value=1, max_value=max(scale - 1, 1)),
            min_size=len(atoms) - 1,
            max_size=len(atoms) - 1,
            unique=True,
        )
    )
    bounds = [0, *sorted(cuts), scale]
    return {atom: Fraction(hi - lo, scale) for atom, lo, hi in zip(atoms, bounds, bounds[1:])}


@st.composite
def affine_round_pmfs(draw):
    """Round pmfs over k in 1..3 components, uniform over an offset plus the span of up to k random bit vectors.

    Bit k-1-c of a vector is set where component c is -1.
    """
    k = draw(st.integers(min_value=1, max_value=3))
    vectors = draw(st.lists(st.integers(min_value=0, max_value=2**k - 1), max_size=k))
    offset = draw(st.integers(min_value=0, max_value=2**k - 1))
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return {
        tuple(-1 if (offset ^ s) >> (k - 1 - c) & 1 else 1 for c in range(k)): Fraction(1, len(span)) for s in span
    }


class TestConvolution:
    @given(dyadic_round_pmfs(), st.integers(min_value=1, max_value=12))
    @example({(1,): Fraction(1)}, 12)
    @example({(-1, 1, -1): Fraction(1)}, 7)
    @example({(1,): Fraction(1023, 1024), (-1,): Fraction(1, 1024)}, 12)
    @example({(1, 1, 1): Fraction(1, 1024), (-1, -1, -1): Fraction(1023, 1024)}, 12)
    # Each side of a step in the slot's word count, bit_length(D**N) // 64 + 1: D**N = 2^62 and 2^63,
    # 2^126 and 2^127.  The last two fill a slot's second word, where the weights near D**N lie.
    @example({(1,): Fraction(1, 2**31), (-1,): 1 - Fraction(1, 2**31)}, 2)
    @example({(1, -1): Fraction(1, 2**21), (-1, 1): 1 - Fraction(1, 2**21)}, 3)
    @example({(1,): Fraction(1, 2**63), (-1,): 1 - Fraction(1, 2**63)}, 2)
    @example({(1, 1, -1): Fraction(3, 2**127), (-1, 1, 1): 1 - Fraction(3, 2**127)}, 1)
    @settings(max_examples=200)
    def test_matches_dict_convolution(self, pmf, n):
        round_pmf = round_distribution(pmf)
        got = convolve_iid_rounds(round_pmf, n)
        want = oracles.convolve_by_dict(pmf, n)
        assert got == dense_weights(want, n, len(round_pmf.labels), round_pmf.denominator**n)

    @pytest.mark.parametrize("name", sorted(SHIPPED_ROUND_PMFS))
    def test_shipped_round_pmfs_at_exact_limit(self, name):
        pmf = SHIPPED_ROUND_PMFS[name]
        n = EXACT_MAX_ROUNDS
        got = convolve_iid_rounds(pmf, n)
        want = oracles.convolve_by_dict(oracles.lattice_mapping(pmf), n)
        assert got == dense_weights(want, n, len(pmf.labels), pmf.denominator**n)

    def test_rejects_mixed_arity(self):
        with pytest.raises(ValueError, match="arity"):
            round_distribution({(1,): HALF, (1, -1): HALF})

    @pytest.mark.parametrize("outcome", [(0,), (2,), (1, 3)])
    def test_rejects_entries_outside_plus_minus_one(self, outcome):
        other = (-1,) * len(outcome)
        with pytest.raises(ValueError, match="off the N=1 lattice"):
            round_distribution({outcome: HALF, other: HALF})

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match="negative"):
            round_distribution({(1,): Fraction(3, 2), (-1,): -HALF})

    def test_rejects_a_round_pmf_over_more_rounds(self):
        with pytest.raises(ValueError, match="single round"):
            convolve_iid_rounds(run_pr_scenario(spec(2)), 2)

    def test_matches_bruteforce_for_pr_rounds(self):
        for choice in ("u", "p"):
            pmf = pr_round_pmf(choice)
            for n in (1, 2, 3, 6, 10):
                got = convolve_iid_rounds(pmf, n)
                want = oracles.iid_sum_bruteforce(oracles.lattice_mapping(pmf), n)
                assert got == dense_weights(want, n, 2, pmf.denominator**n)

    def test_matches_bruteforce_for_ghz_rounds(self):
        for choice in ("u", "p"):
            pmf = ghz_round_pmf(choice)
            for n in (1, 2, 3, 4):
                want = oracles.iid_sum_bruteforce(oracles.lattice_mapping(pmf), n)
                assert convolve_iid_rounds(pmf, n) == dense_weights(want, n, 3, pmf.denominator**n)

    @given(
        st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=2),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40)
    def test_mean_and_variance_scale_linearly(self, weights, n):
        total = sum(weights)
        pmf = {(1,): Fraction(weights[0], total), (-1,): Fraction(weights[1], total)}
        round_pmf = round_distribution(pmf)
        weights_n = convolve_iid_rounds(round_pmf, n)
        denominator = round_pmf.denominator**n
        assert sum(weights_n) == denominator
        convolved = {(s,): Fraction(w, denominator) for s, w in zip(range(-n, n + 1, 2), weights_n)}
        m1 = sum(p * k[0] for k, p in pmf.items())
        v1 = sum(p * k[0] * k[0] for k, p in pmf.items()) - m1 * m1
        mn = sum(p * k[0] for k, p in convolved.items())
        vn = sum(p * k[0] * k[0] for k, p in convolved.items()) - mn * mn
        assert mn == n * m1
        assert vn == n * v1


class TestRoundPmfCache:
    BUILDERS = [
        *((ghz_round_pmf, (c,)) for c in ("u", "p")),
        *((tsirelson_round_pmf, (c, axis)) for c in ("u", "p") for axis in ("z", "x")),
        *((jamming_round_pmf, (j,)) for j in ("x", "z")),
    ]

    # (labels, cells, weights, denominator) of each.  A changed denominator would change how many
    # bit-planes a sampled run draws, and so every seeded draw.
    PINNED = [
        (("A_x", "B_x", "J_x"), (0, 3, 5, 6), (1, 1, 1, 1), 4),
        (("A_x", "B_x", "J_y"), tuple(range(8)), (1,) * 8, 8),
        (("bob_z",), (0, 1), (1, 1), 2),
        (("bob_x",), (0, 1), (2, 2), 4),
        (("bob_z",), (0, 1), (2, 2), 4),
        (("bob_x",), (0, 1), (1, 1), 2),
        (("a_x", "b_x", "j_x"), (0, 3, 5, 6), (1, 1, 1, 1), 4),
        (("a_x", "b_x", "j_z"), tuple(range(8)), (1,) * 8, 8),
    ]

    @pytest.mark.parametrize("builder, args, pinned", [(*b, p) for b, p in zip(BUILDERS, PINNED)])
    def test_born_round_pmf_is_pinned(self, builder, args, pinned):
        pmf = builder(*args)
        assert (pmf.labels, pmf.cells, pmf.weights, pmf.denominator) == pinned

    @pytest.mark.parametrize("builder, args", BUILDERS)
    def test_cached_pmf_is_immutable(self, builder, args):
        pmf = builder(*args)
        assert builder(*args) is pmf
        assert type(pmf.cells) is tuple and type(pmf.weights) is tuple
        with pytest.raises(TypeError):
            pmf.weights[0] += 1
        with pytest.raises(AttributeError):
            pmf.cells = ()

    def test_every_scenario_fits_the_bounded_cache(self):
        """The 10 Born forms: 2 GHZ, 2 GHZ receivers, 4 Tsirelson and 2 jamming ones."""
        ensembles._born_form.cache_clear()
        for builder, args in [*self.BUILDERS, *((ensembles._ghz_form, (c, True)) for c in "up")] * 2:
            builder(*args)
        info = ensembles._born_form.cache_info()
        assert (info.misses, info.hits, info.currsize) == (10, 10, 10)
        assert info.maxsize == 16

    @pytest.mark.parametrize(
        "marginal, joint, keep",
        [
            *((ensembles._ghz_form(c, True), ensembles._ghz_form(c), ensembles.GHZ_RECEIVERS) for c in "up"),
            *(
                (
                    ensembles._tsirelson_form(c, axis),
                    ensembles._born_form(_BELL_STABILIZERS, (axis.upper(), alice), (f"bob_{axis}", "alice")),
                    (0,),
                )
                for c, alice in (("u", "Z"), ("p", "X"))
                for axis in "zx"
            ),
        ],
        ids=[*(f"ghz-receivers-{c}" for c in "up"), *(f"tsirelson-{c}{axis}" for c in "up" for axis in "zx")],
    )
    def test_marginal_form_is_the_marginal_of_its_joint_form(self, marginal, joint, keep):
        """A marginal form keeps its joint's denominator and selects its joint's columns, so it draws the joint's planes.

        Bob's site leads each Tsirelson joint, so his column is its leading plane.
        """
        want = joint.pmf.marginal(keep)
        got = marginal.pmf
        assert (got.labels, got.cells, got.weights) == (want.labels, want.cells, want.weights)
        assert got.denominator == want.denominator == joint.pmf.denominator
        assert marginal.planes == tuple(joint.planes[i] for i in keep)
        assert marginal.negative_first == tuple(joint.negative_first[i] for i in keep)

    def test_constructor_takes_any_sequence_and_keeps_tuples(self):
        dist = ExactDistribution(("B",), 1, [0, 1], [1, 1], 2)
        assert (dist.cells, dist.weights) == ((0, 1), (1, 1))


class TestExactDistribution:
    def _pr_n2(self):
        return run_pr_scenario(spec(2))

    def test_support_is_sorted_and_normalized(self):
        dist = self._pr_n2()
        assert sum(dist.weights) == dist.denominator
        assert [point for point, _, _ in dist.atoms()] == [("-1/1", "-1/1"), ("0/1", "0/1"), ("1/1", "1/1")]
        assert oracles.lattice_mapping(dist) == {
            (Fraction(-1), Fraction(-1)): Fraction(1, 4),
            (Fraction(0), Fraction(0)): HALF,
            (Fraction(1), Fraction(1)): Fraction(1, 4),
        }

    def test_probability(self):
        dist = self._pr_n2()
        assert dist.probability((1, 1)) == Fraction(1, 4)
        assert dist.probability((Fraction(0), 0)) == HALF
        assert dist.probability((1, -1)) == 0
        with pytest.raises(ValueError, match="lattice"):
            dist.probability((Fraction(1, 3), 0))
        with pytest.raises(ValueError, match="arity"):
            dist.probability((1,))

    def test_marginal(self):
        dist = self._pr_n2()
        marg = dist.marginal((0,))
        assert marg.labels == ("B",)
        assert oracles.lattice_mapping(marg) == {
            (Fraction(-1),): Fraction(1, 4),
            (Fraction(0),): HALF,
            (Fraction(1),): Fraction(1, 4),
        }
        assert dist.marginal((1, 0)).labels == ("B_prime", "B")

    def test_mean_and_variance(self):
        dist = self._pr_n2()
        oracle = oracles.FractionDistribution.from_mapping(oracles.lattice_mapping(dist), dist.labels, dist.n_rounds)
        assert oracle.mean((1, 0)) == 0
        assert dist.variance((1, 0)) == HALF  # Var(B) = 1/N
        assert dist.variance((1, 1)) == 2  # Var(B + B') = 4/N under "u"
        assert dist.variance((1, -1)) == 0

    def test_lattice_validation(self):
        with pytest.raises(ValueError, match="lattice"):
            ExactDistribution.from_mapping({(Fraction(1, 3),): Fraction(1)}, ("B",), 2)

    @pytest.mark.parametrize("value, n", [(Fraction(0), 1), (Fraction(0), 3), (HALF, 2), (HALF, 6)])
    def test_lattice_parity_validation(self, value, n):
        # N*v must have the parity of N: a sum of N +1/-1 outcomes.
        with pytest.raises(ValueError, match="lattice"):
            ExactDistribution.from_mapping({(value,): Fraction(1)}, ("B",), n)

    def test_probability_sum_validation(self):
        with pytest.raises(ValueError, match="sum to exactly 1"):
            ExactDistribution.from_mapping({(Fraction(1),): HALF}, ("B",), 1)
        with pytest.raises(ValueError, match="sum to exactly 1"):
            ExactDistribution(("B",), 1, [0, 1], [1, 2], 2)

    def test_negative_probability_validation(self):
        with pytest.raises(ValueError, match="negative"):
            ExactDistribution.from_mapping({(Fraction(1),): Fraction(3, 2), (Fraction(-1),): -HALF}, ("B",), 1)

    def test_duplicate_support_validation(self):
        for cells in ([1, 1], [0, 1, 0]):
            with pytest.raises(ValueError, match="twice"):
                ExactDistribution(("B",), 1, cells, [1] * len(cells), len(cells))

    def test_cell_validation(self):
        # Cells lie on the (N+1)^k grid, one positive weight each.
        for cells, weights in (([4], [1]), ([-1], [1]), ([0, 3], [1]), ([0, 3], [2, 0]), ([], [])):
            with pytest.raises(ValueError, match="cell|weight"):
                ExactDistribution(("B", "B_prime"), 1, cells, weights, 2)

    def test_arity_validation(self):
        with pytest.raises(ValueError, match="arity"):
            ExactDistribution.from_mapping({(Fraction(1),): Fraction(1)}, ("B", "B_prime"), 1)

    def test_json_shape(self):
        rows = json.loads(encode(self._pr_n2()))
        assert rows[0] == {"value": ["-1/1", "-1/1"], "numerator": 1, "denominator": 4}


@st.composite
def lattice_cases(draw):
    """(round pmf, second round pmf of the same arity, N, integer coefficients)."""
    first = draw(dyadic_round_pmfs())
    k = len(next(iter(first)))
    second = draw(dyadic_round_pmfs(k=k))
    n = draw(st.integers(min_value=1, max_value=12))
    coeffs = tuple(draw(st.integers(min_value=-3, max_value=3)) for _ in range(k))
    return first, second, n, coeffs


@st.composite
def sparse_grid_points(draw):
    """(N, distinct component-sum tuples): a few points of an N grid far larger than the support."""
    k = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=30000))
    sums = st.integers(min_value=0, max_value=n).map(lambda j: 2 * j - n)
    return n, draw(st.lists(st.tuples(*[sums] * k), min_size=1, max_size=6, unique=True))


def grid_ends(k: int, n: int) -> tuple:
    """Points whose components sit at both ends of the N grid and one step in, no two in the same order."""
    ends = [-n, n, n - 2, 2 - n]
    return n, [tuple(ends[(i + c) % 4] for c in range(k)) for i in range(4)]


class TestLatticeAgainstFractionOracle:
    """Every statistic of the lattice type equals the Fraction-tuple oracle's."""

    @staticmethod
    def _both(pmf, n):
        round_pmf = round_distribution(pmf)
        dist = ExactDistribution.from_grid(round_pmf.labels, n, convolve_iid_rounds(round_pmf, n), round_pmf.denominator**n)
        sums = oracles.convolve_by_dict(pmf, n)
        values = {tuple(Fraction(s, n) for s in key): p for key, p in sums.items()}
        return dist, oracles.FractionDistribution.from_mapping(values, round_pmf.labels, n)

    @given(lattice_cases())
    @example(({(1,): Fraction(1)}, {(-1,): Fraction(1)}, 1, (1,)))
    @example(({(1, -1, 1): Fraction(1)}, {(-1, 1, -1): Fraction(1)}, 12, (3, -3, 1)))
    @settings(max_examples=60, deadline=None)
    def test_statistics(self, case):
        first, second, n, coeffs = case
        dist, oracle = self._both(first, n)
        other, other_oracle = self._both(second, n)
        k = len(dist.labels)
        assert list(dist.atoms()) == oracle.atoms()
        want = oracle.as_mapping()
        for point in itertools.product([Fraction(s, n) for s in range(-n, n + 1, 2)], repeat=k):
            assert dist.probability(point) == want.get(point, 0)
        for size in range(1, k + 1):
            for indices in itertools.permutations(range(k), size):
                marg, marg_oracle = dist.marginal(indices), oracle.marginal(indices)
                assert marg.labels == marg_oracle.labels
                assert list(marg.atoms()) == marg_oracle.atoms()
        assert dist.variance(coeffs) == oracle.variance(coeffs)
        assert total_variation(dist, other) == oracles.total_variation_by_union(oracle, other_oracle)

    @given(sparse_grid_points())
    @example(grid_ends(1, 3999))
    @example(grid_ends(2, 3999))
    @example(grid_ends(3, 3999))
    @example(grid_ends(1, 20000))
    @example(grid_ends(2, 20000))
    @example(grid_ends(3, 20000))
    @settings(max_examples=60, deadline=None)
    def test_atoms_on_sparse_large_grids(self, case):
        """Each component's text is read at its own stride, on grids as large as sampled histograms reach."""
        n, points = case
        k = len(points[0])
        total = len(points) * (len(points) + 1) // 2
        mapping = {tuple(Fraction(s, n) for s in p): Fraction(i + 1, total) for i, p in enumerate(points)}
        dist = ExactDistribution.from_mapping(mapping, LABELS[:k], n)
        assert list(dist.atoms()) == oracles.FractionDistribution.from_mapping(mapping, LABELS[:k], n).atoms()

    def test_atoms_at_a_billion_rounds_build_texts_only_for_their_digits(self):
        """A 2-cell histogram at N = 10^9 renders its atoms in small memory, not a text per lattice value."""
        n = 10**9
        mapping = {(Fraction(-1), Fraction(2 - n, n)): Fraction(1, 4), (Fraction(0), Fraction(1)): Fraction(3, 4)}
        dist = ExactDistribution.from_mapping(mapping, LABELS[:2], n)
        tracemalloc.start()
        try:
            atoms = list(dist.atoms())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert atoms == [(("-1/1", "-499999999/500000000"), 1, 4), (("0/1", "1/1"), 3, 4)]
        assert peak < 64 << 10


class TestMaximalBoxScenario:
    def test_readout_identity_under_each_choice(self):
        for n in (1, 3, 6):
            du = run_pr_scenario(spec(n, "u"))
            dp = run_pr_scenario(spec(n, "p"))
            assert all(v[1] == v[0] for v in oracles.lattice_mapping(du))
            assert all(v[1] == -v[0] for v in oracles.lattice_mapping(dp))

    def test_collective_marginal_is_binomial(self):
        for choice in ("u", "p"):
            dist = run_pr_scenario(spec(6, choice))
            marg = oracles.lattice_mapping(dist.marginal((0,)))
            want = {(k,): v for k, v in oracles.binomial_collective_pmf(6).items()}
            assert marg == want

    def test_matches_bruteforce_joint(self):
        for choice in ("u", "p"):
            for n in (1, 2, 5):
                dist = run_pr_scenario(spec(n, choice))
                assert oracles.lattice_mapping(dist) == oracles.pr_bruteforce_joint(n, choice)

    def test_labels(self):
        dist = run_pr_scenario(spec(2))
        assert dist.labels == ("B", "B_prime")


class TestGhzScenario:
    def test_round_pmf_matches_symbolic_born_rule(self):
        for choice, jim_factor in (("u", "X"), ("p", "Y")):
            pmf = oracles.lattice_mapping(ghz_round_pmf(choice))
            exact = oracles.symbolic_joint_pmf(oracles.ghz_vector(), ("X", "X", jim_factor))
            assert pmf == {k: v for k, v in exact.items() if v}

    def test_x_choice_support_parity(self):
        # with Jim on x every triplet satisfies a*b*j = -1
        pmf = oracles.lattice_mapping(ghz_round_pmf("u"))
        assert len(pmf) == 4
        for (a, b, j), p in pmf.items():
            assert a * b * j == -1
            assert p == Fraction(1, 4)

    def test_y_choice_is_uniform(self):
        pmf = oracles.lattice_mapping(ghz_round_pmf("p"))
        assert len(pmf) == 8
        assert set(pmf.values()) == {Fraction(1, 8)}

    def test_labels_follow_jim_axis(self):
        assert run_ghz_scenario(spec(1, "u")).labels == (
            "A_x",
            "B_x",
            "J_x",
        )
        assert run_ghz_scenario(spec(1, "p")).labels == (
            "A_x",
            "B_x",
            "J_y",
        )


class TestTsirelsonScenario:
    def test_round_pmf_is_unbiased(self):
        for choice in ("u", "p"):
            for axis in ("z", "x"):
                pmf = tsirelson_round_pmf(choice, axis)
                assert pmf.labels == (f"bob_{axis}",)
                assert oracles.lattice_mapping(pmf) == {(1,): HALF, (-1,): HALF}

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="bob_axis"):
            tsirelson_round_pmf("u", "y")

    def test_collective_is_binomial(self):
        dist = run_tsirelson_scenario(spec(6))
        want = {(k,): v for k, v in oracles.binomial_collective_pmf(6).items()}
        assert oracles.lattice_mapping(dist) == want
        assert dist.labels == ("bob_z",)

    def test_axis_label(self):
        run = run_tsirelson_scenario(spec(2), bob_axis="x")
        assert run.labels == ("bob_x",)


def grid_at_switch(k: int, m: int, past: bool) -> dict:
    """An empirical() case whose (N+1)^k grid has exactly the most cells still counted, or one more.

    With C cells counted per trial, N + 1 = C*m and C^(k-1) * m^k trials put
    the grid at C times the trials; N + 1 = C*m + 1 and ((N+1)^k - 1) / C
    trials put it one cell past.
    """
    per_trial = ensembles._COUNT_CELLS_PER_TRIAL
    base = per_trial * m + past
    trials = (base**k - past) // per_trial
    assert base**k == per_trial * trials + past
    return {"k": k, "n": base - 1, "trials": trials, "spread": base - 1, "seed": 4 + k}


class TestMonteCarlo:
    def test_deterministic_replay(self):
        s = spec(6, mode=RunMode.MONTE_CARLO, trials=500, seed=9)
        a = run_pr_scenario(s)
        b = run_pr_scenario(s)
        assert np.array_equal(a.sums, b.sums)

    def test_streams_differ_by_seed_and_choice(self):
        base = dict(mode=RunMode.MONTE_CARLO, trials=500, seed=9)
        a = run_pr_scenario(spec(6, "u", **base))
        b = run_pr_scenario(
            spec(6, "u", mode=RunMode.MONTE_CARLO, trials=500, seed=10)
        )
        assert not np.array_equal(a.sums, b.sums)
        # the "p" stream is distinct, not a reuse of the "u" stream
        c = run_pr_scenario(spec(6, "p", **base))
        assert not np.array_equal(a.sums[:, 0], c.sums[:, 0])

    def test_scenario_streams_are_separate(self):
        base = dict(mode=RunMode.MONTE_CARLO, trials=500, seed=9)
        pr = run_pr_scenario(spec(6, "u", **base))
        ts = run_tsirelson_scenario(spec(6, "u", **base))
        assert not np.array_equal(pr.sums[:, 0], ts.sums[:, 0])

    def test_readout_identity_survives_sampling(self):
        base = dict(mode=RunMode.MONTE_CARLO, trials=2000, seed=4)
        ru = run_pr_scenario(spec(5, "u", **base))
        rp = run_pr_scenario(spec(5, "p", **base))
        assert np.array_equal(ru.sums[:, 1], ru.sums[:, 0])
        assert np.array_equal(rp.sums[:, 1], -rp.sums[:, 0])

    def test_ghz_x_parity_survives_sampling(self):
        run = run_ghz_scenario(
            spec(1, "u", mode=RunMode.MONTE_CARLO, trials=2000, seed=4)
        )
        prods = run.sums[:, 0] * run.sums[:, 1] * run.sums[:, 2]
        assert np.all(prods == -1)

    def test_marginal_keeps_the_chosen_columns(self):
        s = spec(3, "p", mode=RunMode.MONTE_CARLO, trials=50, seed=1)
        run = run_ghz_scenario(s)
        marg = run.marginal((2, 0))
        assert marg.labels == ("J_y", "A_x")
        assert np.array_equal(marg.sums, run.sums[:, [2, 0]])
        assert marg.n_rounds == run.n_rounds

    @pytest.mark.parametrize(
        "runner, n, choice, kwargs, digest",
        [
            (run_pr_scenario, 60, "p", {},
             "8c15111cff5594f424d56790e428f7c88f8a0bf20350a0a0afb025128c4e4d00"),
            (run_tsirelson_scenario, 6, "u", {"bob_axis": "x"},
             "fbb43d5dd70a5cf88a115f2b09925ce6b18a3380464bc84427150b289a2e5a25"),
            (run_tsirelson_scenario, 6, "p", {"bob_axis": "x"},
             "e55b75020ae8b0b72a853ebb459387aa2591b02c8aefe05775298ce4d5ab84dc"),
            (run_ghz_scenario, 60, "p", {},
             "7bec7772185ab8a29db67dfff02473e51094e144f116b2a543817a9c8e7177f0"),
        ],
        ids=["pr-p-60", "tsirelson-x-u-6", "tsirelson-x-p-6", "ghz-p-60"],
    )
    def test_sampled_sums_are_pinned(self, runner, n, choice, kwargs, digest):
        """The seeded draws and their per-trial sums never change silently.

        The digests are those of the bit-sliced sampler, recorded when it
        replaced the one-word-per-round table lookup.
        """
        s = spec(n, choice, mode=RunMode.MONTE_CARLO, trials=100_000, seed=0)
        run = runner(s, **kwargs)
        assert run.sums.dtype == np.int64
        assert hashlib.sha256(run.sums.tobytes()).hexdigest() == digest

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 3),
        n=st.integers(1, 1000),
        trials=st.integers(1, 500),
        spread=st.integers(0, 1000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=3, n=1000, trials=1, spread=0, seed=0)
    @example(k=2, n=7, trials=500, spread=0, seed=1)
    @example(k=3, n=1000, trials=500, spread=1000, seed=2)
    # (N+1)^3 passes 2^62 here, so the cells are Python ints.
    @example(k=3, n=2**22, trials=500, spread=2**22, seed=3)
    # The largest grids still counted, and the smallest sorted ones.
    @example(**grid_at_switch(1, 125, past=False))
    @example(**grid_at_switch(1, 125, past=True))
    @example(**grid_at_switch(2, 5, past=False))
    @example(**grid_at_switch(2, 5, past=True))
    @example(**grid_at_switch(3, 3, past=False))
    @example(**grid_at_switch(3, 2, past=True))
    # The last N of uint8 and uint16 counts, and the first of uint16 and uint32.
    @example(k=3, n=255, trials=500, spread=255, seed=11)
    @example(k=3, n=256, trials=500, spread=256, seed=12)
    @example(k=2, n=65535, trials=500, spread=65535, seed=13)
    @example(k=2, n=65536, trials=500, spread=65536, seed=14)
    # Histogram blocks whose last holds one trial: counted, sorted then merged, and of Python int cells.
    @example(k=2, n=6, trials=2 * ensembles._HISTOGRAM_TRIALS + 1, spread=6, seed=15)
    @example(k=2, n=1000, trials=2 * ensembles._HISTOGRAM_TRIALS + 1, spread=1000, seed=16)
    @example(k=3, n=2**22, trials=ensembles._HISTOGRAM_TRIALS + 1, spread=2**22, seed=17)
    def test_empirical_matches_row_unique(self, k, n, trials, spread, seed):
        rng = np.random.default_rng(seed)
        low = rng.integers(0, n + 1, size=k)
        negatives = np.minimum(low + rng.integers(0, spread + 1, size=(trials, k)), n)
        sums = n - 2 * negatives.astype(np.int64)
        run = EnsembleRun(labels=LABELS[:k], negatives=negatives.T.astype(np.min_scalar_type(n)), n_rounds=n)
        got = run.empirical()
        assert (got.labels, got.n_rounds, got.denominator) == (run.labels, n, trials)
        want = oracles.empirical_by_row_unique(sums, n)
        assert list(oracles.lattice_mapping(got).items()) == list(want.items())

    @pytest.mark.parametrize("n", [1_664_509, 1_664_510])
    def test_empirical_at_the_ends_of_the_int64_grid(self, n):
        """(N+1)^3 is just below 2^62 at N = 1664509, so cells are int64, and past it at N = 1664510."""
        negatives = np.array([[0, 0, 0], [n, n, n], [0, n, 0], [0, 0, 0]])
        got = EnsembleRun(labels=LABELS, negatives=negatives.T.astype(np.min_scalar_type(n)), n_rounds=n).empirical()
        want = oracles.empirical_by_row_unique(n - 2 * negatives, n)
        assert list(oracles.lattice_mapping(got).items()) == list(want.items())

    @pytest.mark.parametrize("k, n", [(3, 2_000_000), (2, 2**31 + 5)])
    def test_grid_counts_on_python_int_cells(self, k, n):
        """Grids of 2^62 cells or more hold their cells as Python ints; the counts match a pure-Python count.

        Reports reach this with k = 2 from N = 2^31 - 1 on.
        """
        rng = np.random.default_rng(k)
        drawn = rng.integers(0, n + 1, size=(40, k)).tolist()
        # Both grid ends, and every drawn trial twice, so cells repeat.
        trials = [[0] * k, [n] * k, *drawn, *drawn[::-1]]
        negatives = np.array(trials).T.astype(np.min_scalar_type(n))
        assert next(ensembles._block_cells(negatives, n)).dtype == object
        got = ensembles._grid_counts(LABELS[:k], negatives, n)
        want: dict[int, int] = {}
        for counts in trials:
            cell = 0
            for m in counts:
                cell = cell * (n + 1) + n - m
            want[cell] = want.get(cell, 0) + 1
        assert (got.labels, got.denominator) == (LABELS[:k], len(trials))
        assert list(zip(got.cells, got.weights)) == sorted(want.items())

    def test_empirical_never_allocates_the_whole_grid(self):
        """N = 20000 has 4e8 (B, B') cells, 3.2 GB of counts, which 50 trials must not allocate."""
        run = run_pr_scenario(spec(20_000, mode=RunMode.MONTE_CARLO, trials=50))
        tracemalloc.start()
        try:
            got = run.empirical()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        want = oracles.empirical_by_row_unique(run.sums, 20_000)
        assert list(oracles.lattice_mapping(got).items()) == list(want.items())

    @pytest.mark.parametrize("n", [6, 60])
    def test_runs_keep_narrow_counts_and_histogram_in_blocks(self, n):
        """A (B, B') run of 1e5 trials keeps 2 bytes per trial, and its histogram one block of int64 cells.

        Int64 sums held 16 bytes per trial, and a histogram over a whole-run
        cell array peaked at 8 more.  The histogram's own bound is one block's
        int64 cells plus its grid's counts, at most 3 arrays of 8 bytes per cell.
        The slack covers numpy's ufunc buffers (8192 elements) and small objects.
        """
        trials = 100_000
        # numpy.random's first import stays in memory; make it before tracing.
        run_pr_scenario(spec(n, mode=RunMode.MONTE_CARLO, trials=1)).empirical()
        tracemalloc.start()
        try:
            run = run_pr_scenario(spec(n, mode=RunMode.MONTE_CARLO, trials=trials))
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = run.empirical()
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        slack = 128 << 10
        assert held <= 2 * trials + slack
        assert peak <= 8 * ensembles._HISTOGRAM_TRIALS + 3 * 8 * (n + 1) ** 2 + slack
        assert run.negatives.dtype == np.uint8
        assert list(oracles.lattice_mapping(got).items()) == list(oracles.empirical_by_row_unique(run.sums, n).items())

    def test_sampling_memory_floor_is_one_trial(self):
        """A sampled chunk holds at least one whole trial: (8d + 8s + 1) * ceil(N/64) bytes, past the word budget.

        The (B, B') form has d = 1 plane and s = 0 scratch rows, so at N = 2^25
        one trial's planes and popcounts are 4.5 MiB, twice the 2 MiB chunk
        budget.  The sampler does not split a trial's words, so memory is flat
        in the trials but not in N; a sampler that chunks by words changes this bound.
        """
        n, form = 2**25, ensembles._PR_FORMS["u"]
        d = form.pmf.denominator.bit_length() - 1
        s = int(any(len(column) != 1 for column in form.planes))
        assert (d, s) == (1, 0)
        floor = (8 * d + 8 * s + 1) * -(-n // 64)
        assert floor > 8 * ensembles._SAMPLE_WORDS
        # numpy.random's first import stays in memory; make it before tracing.
        run_pr_scenario(spec(64, mode=RunMode.MONTE_CARLO, trials=1))
        tracemalloc.start()
        try:
            run_pr_scenario(spec(n, mode=RunMode.MONTE_CARLO, trials=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert floor <= peak <= floor + (64 << 10)

    def test_empirical_pmf(self):
        run = run_pr_scenario(
            spec(2, mode=RunMode.MONTE_CARLO, trials=400, seed=2)
        )
        emp = run.empirical()
        assert sum(emp.weights) == emp.denominator == 400
        assert all(v[1] == v[0] for v in oracles.lattice_mapping(emp))
        assert run.sums.shape[0] == 400

    def test_mean_and_variance_match_numpy(self):
        run = run_pr_scenario(
            spec(3, mode=RunMode.MONTE_CARLO, trials=300, seed=8)
        )
        combo = (run.sums / 3.0) @ np.array([1.0, -1.0])
        assert float(run.empirical().variance((1, -1))) == pytest.approx(float(combo.var()))

    def test_convergence_to_exact(self):
        trials = 40_000
        s = spec(4, mode=RunMode.MONTE_CARLO, trials=trials, seed=3)
        run = run_pr_scenario(s)
        tv = total_variation(run.empirical(), run_pr_scenario(spec(4)))
        assert float(tv) < 5.0 / math.sqrt(trials)


SAMPLER_STREAM = (7, 1)


def indicator_words(round_pmf: ExactDistribution, n: int, trials: int, seed: int) -> np.ndarray:
    """Each column's -1 indicator words, from ``_indicator`` on the trials' planes, as (k, trials, ceil(N/64)) words."""
    planes_of, negative_first = oracles.parity_planes(round_pmf)
    d, words = round_pmf.denominator.bit_length() - 1, -(-n // 64)
    planes = ensembles._stream_rng(seed, SAMPLER_STREAM).bit_generator.random_raw((trials, d, words))
    scratch = np.empty((trials, words), dtype=np.uint64)
    got = []
    for column, negative in zip(planes_of, negative_first):
        x = ensembles._indicator(planes, column, scratch)
        # Where row 0 is -1, the indicator marks the +1 rounds; copied before the next column reuses the scratch rows.
        got.append(~x if negative else x.copy())
    got = np.stack(got)
    ensembles._clear_tail(got, n)
    return got


def record_draws(monkeypatch) -> list[tuple[int, ...]]:
    """The shapes of the ``random_raw`` draws of every sampler stream made after this call, in order."""
    shapes = []
    stream_rng = ensembles._stream_rng

    def recording_rng(seed, stream):
        bitgen = stream_rng(seed, stream).bit_generator

        def random_raw(size):
            shapes.append(size)
            return bitgen.random_raw(size)

        return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=random_raw))

    monkeypatch.setattr(ensembles, "_stream_rng", recording_rng)
    return shapes


class TestTableLookupSampler:
    """The bit-sliced sampler draws what one table lookup per round on the same bit-planes would."""

    @given(
        pmf=affine_round_pmfs(),
        n=st.integers(1, 200),
        trials=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
    )
    # One-atom pmfs (d = 0): every column equals row 0, so it reads the zeroed scratch row.
    @example(pmf={(1,): Fraction(1)}, n=200, trials=300, seed=0)
    @example(pmf={(-1, 1, -1): Fraction(1)}, n=3, trials=5, seed=1)
    # Jim on y: each component is one plane.
    @example(pmf=oracles.lattice_mapping(ghz_round_pmf("p")), n=60, trials=300, seed=3)
    # Jim on x: J_x is the XOR of planes 0 and 1, and row 0 is -1 there.
    @example(pmf=oracles.lattice_mapping(ghz_round_pmf("u")), n=64, trials=50, seed=4)
    @example(pmf=oracles.lattice_mapping(tsirelson_round_pmf("p", "x")), n=129, trials=50, seed=5)
    # c2 = c0 XOR c1 with row 0 all +1: c2 is the XOR of planes 0 and 1, and row 0 is +1 there.
    @example(
        pmf={outcome: Fraction(1, 4) for outcome in [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]},
        n=65,
        trials=40,
        seed=6,
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_table_lookup(self, pmf, n, trials, seed):
        _, want_rounds = oracles.sums_by_table_lookup(pmf, n, trials, seed, SAMPLER_STREAM)
        round_pmf = round_distribution(pmf)
        got = _sample_outcome_rows(affine_form(round_pmf), n, trials, seed, SAMPLER_STREAM)
        assert got.dtype == np.min_scalar_type(n)
        assert np.array_equal(got, oracles.minus_one_counts(want_rounds))
        assert np.array_equal(indicator_words(round_pmf, n, trials, seed), oracles.minus_one_words(want_rounds))

    # A trial of 130 rounds of the Jim-on-y pmf keeps 3 words of each of its
    # 3 planes live, plus 3 words of popcounts; it needs no scratch row,
    # since each component is one plane: 12 words.  84 words hold
    # 7 of the 53 trials, which leaves a last chunk of 4, 24 words hold 2,
    # which leaves a last chunk of 1, and 3 words hold 1.
    @pytest.mark.parametrize("words, chunk", [(84, 7), (24, 2), (3, 1)], ids=["7-trials", "2-trials", "1-trial"])
    def test_draws_do_not_depend_on_word_budget(self, monkeypatch, words, chunk):
        monkeypatch.setattr(ensembles, "_SAMPLE_WORDS", words)
        pmf = ghz_round_pmf("p")
        _, want_rounds = oracles.sums_by_table_lookup(oracles.lattice_mapping(pmf), 130, 53, 11, SAMPLER_STREAM)
        draws = record_draws(monkeypatch)
        got = _sample_outcome_rows(affine_form(pmf), 130, 53, 11, SAMPLER_STREAM)
        assert np.array_equal(got, oracles.minus_one_counts(want_rounds))
        assert draws == [(min(chunk, 53 - done), 3, 3) for done in range(0, 53, chunk)]

    @pytest.mark.parametrize("choice", ["x", "z"])
    def test_jamming_triplets_are_the_table_rows_of_their_bits(self, choice):
        """Jamming's triplets are the rounds of one long trial, in bit order, kept as their packed -1 bits."""
        records = run_jamming_scenario(7, choice, 30, seed=4)
        stream = (ensembles._JAMMING_STREAM, 0 if choice == "x" else 1)
        pmf = oracles.lattice_mapping(jamming_round_pmf(choice))
        _, want = oracles.sums_by_table_lookup(pmf, 7 * 30, 1, 4, stream)
        # 210 triplets leave 46 bits of tail, which stay clear even where row 0 is -1 (j under x).
        assert np.array_equal(records.indicators, oracles.jamming_records_from_rows(want[0], choice).indicators)
        assert records.outcomes.dtype == np.int8
        assert np.array_equal(records.outcomes, want[0])

    def test_peak_memory_is_flat_in_rounds(self):
        """A chunk holds at most 2^18 live words (2 MiB), so N = 400 peaks no higher than N = 60."""

        def peak_bytes(n):
            tracemalloc.start()
            try:
                run_pr_scenario(spec(n, mode=RunMode.MONTE_CARLO, trials=20_000))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(400) <= peak_bytes(60) + (2 << 20)

    @pytest.mark.parametrize(
        "pmf",
        [
            {(1,): Fraction(1, 3), (-1,): Fraction(2, 3)},
            {(1,): Fraction(1, 2**17), (-1,): Fraction(2**17 - 1, 2**17)},
        ],
        ids=["third", "denominator-2^17"],
    )
    def test_rejects_pmfs_without_a_small_dyadic_table(self, pmf):
        with pytest.raises(InvariantViolation, match="dyadic"):
            oracles.parity_planes(round_distribution(pmf))

    @pytest.mark.parametrize(
        "pmf",
        [
            # Row >= 1 over 16 planes, and at d = 3.
            {(1, 1, 1): Fraction(1, 2**16), (-1, -1, -1): Fraction(2**16 - 1, 2**16)},
            {(1,): Fraction(1, 8), (-1,): Fraction(7, 8)},
            # c1 differs from row 0 on the single interior row 5; c0 on rows 6-7.
            {(1, 1): Fraction(5, 8), (1, -1): Fraction(1, 8), (-1, 1): Fraction(1, 4)},
            # c2 differs on rows {1, 2, 4, 7}.
            {
                (1, 1, 1): Fraction(1, 8),
                (1, 1, -1): Fraction(1, 4),
                (1, -1, 1): Fraction(1, 8),
                (1, -1, -1): Fraction(1, 8),
                (-1, 1, 1): Fraction(1, 4),
                (-1, 1, -1): Fraction(1, 8),
            },
            # c1 differs on rows 4-6.
            {(1, 1): Fraction(1, 2), (1, -1): Fraction(3, 8), (-1, 1): Fraction(1, 8)},
            # c2 differs on rows {1, 5, 6}.
            {
                (1, 1, 1): Fraction(1, 8),
                (1, 1, -1): Fraction(1, 8),
                (1, -1, 1): Fraction(3, 8),
                (1, -1, -1): Fraction(1, 4),
                (-1, 1, 1): Fraction(1, 8),
            },
            # Uniform over four outcomes, but no affine set: c0 is -1 on atom 3 alone.
            {outcome: Fraction(1, 4) for outcome in [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)]},
        ],
        ids=["row-ge-1-16-planes", "row-ge-1-3-planes", "one-interior-row", "rows-1247", "rows-4-6", "rows-156", "uniform"],
    )
    def test_rejects_pmfs_not_uniform_over_an_affine_set(self, pmf):
        with pytest.raises(InvariantViolation, match="affine"):
            oracles.parity_planes(round_distribution(pmf))

    @pytest.mark.parametrize(
        "form, planes",
        [
            (ensembles._PR_FORMS["u"], ([(0,), (0,)], [False, False])),
            (ensembles._PR_FORMS["p"], ([(0,), (0,)], [False, True])),
            (ensembles._tsirelson_form("u", "z"), ([(0,)], [False])),
            (ensembles._tsirelson_form("u", "x"), ([(1,)], [False])),
            (ensembles._tsirelson_form("p", "z"), ([(1,)], [False])),
            (ensembles._tsirelson_form("p", "x"), ([(0,)], [False])),
            (ensembles._ghz_form("u"), ([(1,), (0,), (0, 1)], [False, False, True])),
            (ensembles._ghz_form("p"), ([(2,), (1,), (0,)], [False, False, False])),
            (ensembles._ghz_form("u", True), ([(1,), (0,)], [False, False])),
            (ensembles._ghz_form("p", True), ([(2,), (1,)], [False, False])),
            (ensembles._jamming_form("x"), ([(1,), (0,), (0, 1)], [False, False, True])),
            (ensembles._jamming_form("z"), ([(2,), (1,), (0,)], [False, False, False])),
        ],
        ids=[
            *(f"pr-{c}" for c in "up"),
            *(f"tsirelson-{c}{axis}" for c in "up" for axis in "zx"),
            *(f"ghz-{c}" for c in "up"),
            *(f"ghz-receivers-{c}" for c in "up"),
            *(f"jamming-{c}" for c in "xz"),
        ],
    )
    def test_every_sampled_round_pmf_is_a_parity(self, form, planes):
        """Each round pmf a CLI command samples marks its components with these planes' XORs.

        A one-plane column is a view of its plane, and only the Jim-on-x
        third component XORs two.  Where the table has more rows than
        atoms (Tsirelson u on x and p on z, the Jim-on-y receivers) the
        atom index sits in the top planes.  The oracle reads the same
        planes back out of the form's pmf.
        """
        assert (list(form.planes), list(form.negative_first)) == planes
        assert oracles.parity_planes(form.pmf) == planes


class TestJamming:
    def test_round_pmf_matches_symbolic_born_rule(self):
        for choice, jim_factor in (("x", "X"), ("z", "Z")):
            pmf = oracles.lattice_mapping(jamming_round_pmf(choice))
            exact = oracles.symbolic_joint_pmf(oracles.ghz_vector(), ("X", "X", jim_factor))
            assert pmf == {k: v for k, v in exact.items() if v}

    def test_x_choice_support(self):
        pmf = oracles.lattice_mapping(jamming_round_pmf("x"))
        assert len(pmf) == 4
        assert all(a * b * j == -1 for a, b, j in pmf)

    def test_z_choice_is_uniform(self):
        pmf = oracles.lattice_mapping(jamming_round_pmf("z"))
        assert len(pmf) == 8
        assert set(pmf.values()) == {Fraction(1, 8)}

    def test_bad_choice(self):
        with pytest.raises(ValueError, match="jim_choice"):
            jamming_round_pmf("y")
        with pytest.raises(ValueError, match="positive"):
            run_jamming_scenario(0, "x", 10, 0)

    def test_exact_distribution(self):
        dist = jamming_round_pmf("x")
        assert dist.labels == ("a_x", "b_x", "j_x")
        assert dist.n_rounds == 1
        assert set(oracles.lattice_mapping(dist).values()) == {Fraction(1, 4)}

    def test_records(self):
        records = run_jamming_scenario(6, "x", 200, seed=5)
        assert records.outcomes.shape == (1200, 3)
        assert records.trials == 1200
        assert records.labels == ("a_x", "b_x", "j_x")
        prods = records.outcomes.astype(np.int64).prod(axis=1)
        assert np.all(prods == -1)
        emp = records.empirical()
        assert emp.labels == records.labels
        assert sum(emp.weights) == emp.denominator == 1200

    def test_binned_correlations_are_exact_for_x(self):
        records = run_jamming_scenario(4, "x", 500, seed=6)
        counts, binned, overall = records.correlations()
        assert binned[1] == -1.0
        assert binned[-1] == 1.0
        j = records.outcomes[:, 2]
        assert counts == {1: np.count_nonzero(j == 1), -1: np.count_nonzero(j == -1)}
        assert counts[1] + counts[-1] == records.trials
        assert overall == float(np.mean(records.outcomes[:, 0].astype(np.int64) * records.outcomes[:, 1]))

    def test_z_choice_is_uncorrelated(self):
        records = run_jamming_scenario(5, "z", 4000, seed=6)
        counts, binned, overall = records.correlations()
        assert abs(overall) < 4.0 / math.sqrt(records.trials)
        for j in (1, -1):
            rows = records.outcomes[records.outcomes[:, 2] == j].astype(np.int64)
            assert binned[j] == float(np.mean(rows[:, 0] * rows[:, 1]))

    @pytest.mark.parametrize("start", [0, 1, 7, 8, 63, 64, 65])
    @pytest.mark.parametrize("stop", [147, 150])
    def test_codes_of_any_triplet_range(self, start, stop):
        """150 triplets end in a partial third word: 147 stops inside it, 150 at its last triplet."""
        records = run_jamming_scenario(1, "x", 150, seed=4)
        got = records.codes(start, stop)
        assert got.dtype == np.uint8
        want = (records.outcomes[start:stop] == -1) @ np.array([4, 2, 1])
        assert np.array_equal(got, want)

    def test_outcomes_are_pinned(self):
        records = run_jamming_scenario(6, "z", 100_000, seed=0)
        assert records.outcomes.dtype == np.int8
        digest = hashlib.sha256(records.outcomes.tobytes()).hexdigest()
        assert digest == "a551fb9e78d6c8ba028e312f2e1559cfbcd80e7500f0a1ea77365fb6dd0522a9"

    @settings(max_examples=100, deadline=None)
    @given(trials=st.integers(1, 500), atoms=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @example(trials=1, atoms=8, seed=0)
    @example(trials=500, atoms=1, seed=1)
    # Triplets that fill the last word but one bit, all of it, and one bit of the next.
    @example(trials=63, atoms=8, seed=2)
    @example(trials=64, atoms=8, seed=3)
    @example(trials=65, atoms=8, seed=4)
    @example(trials=65, atoms=1, seed=5)
    def test_empirical_matches_row_unique(self, trials, atoms, seed):
        rng = np.random.default_rng(seed)
        triplets = np.array(list(itertools.product((1, -1), repeat=3)), dtype=np.int8)
        pool = triplets[rng.permutation(8)[:atoms]]
        outcomes = pool[rng.integers(0, atoms, size=trials)]
        want = oracles.empirical_by_row_unique(outcomes, 1)
        for choice in ("x", "z"):
            records = oracles.jamming_records_from_rows(outcomes, choice)
            assert np.array_equal(records.outcomes, outcomes)
            got = records.empirical()
            assert got.labels == ("a_x", "b_x", f"j_{choice}")
            assert list(oracles.lattice_mapping(got).items()) == list(want.items())
            assert records.correlations() == oracles.jamming_correlations_by_rows(outcomes)

    @pytest.mark.parametrize("choice", ["x", "z"])
    def test_sampled_empirical_matches_row_unique(self, choice):
        records = run_jamming_scenario(6, choice, 1000, seed=9)
        assert records.outcomes.dtype == np.int8
        want = oracles.empirical_by_row_unique(records.outcomes, 1)
        assert list(oracles.lattice_mapping(records.empirical()).items()) == list(want.items())

    @pytest.mark.parametrize("choice", ["x", "z"])
    def test_peak_memory_is_planes_and_indicators(self, choice):
        """A run peaks at its d planes and 3 indicator rows of ceil(triplets/64) words: no popcounts, no scratch row."""
        d = jamming_round_pmf(choice).denominator.bit_length() - 1
        words = -(-6 * 1_000_000 // 64)
        # numpy.random's first import and the round pmf stay in memory; make them before tracing.
        run_jamming_scenario(1, choice, 1, 0)
        tracemalloc.start()
        try:
            run_jamming_scenario(6, choice, 1_000_000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (d + 3) * 8 * words + (16 << 10)

    def test_replay(self):
        a = run_jamming_scenario(3, "z", 100, seed=12)
        b = run_jamming_scenario(3, "z", 100, seed=12)
        assert np.array_equal(a.outcomes, b.outcomes)
