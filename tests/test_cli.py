from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from child_env import child_env
from corrlab import cli, ensembles, quantum, reportio, spacetime
from corrlab.boxes import make_pr_box
from corrlab.cli import main
from corrlab.ensembles import (
    EXACT_MAX_ROUNDS,
    EnsembleRun,
    ExactDistribution,
    RunMode,
    ScenarioKind,
    run_jamming_scenario,
)
from corrlab.signaling import SignalingVerdict, Statistic, verdict
from corrlab.spacetime import SpacetimeEvent

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(tmp_path, *args):
    out = tmp_path / "report.out"
    code = main([*args, "--out", str(out)])
    return code, out.read_text() if out.exists() else None


def run_json(tmp_path, *args):
    code, text = run_cli(tmp_path, *args)
    assert code == 0
    return json.loads(text)


def spy_calls(monkeypatch, owner, name) -> list:
    """Record each call of owner.name while the test runs."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _nested_config(depth: int) -> str:
    """A causal config whose "deep" entry is ``depth`` nested arrays."""
    return '{"a_hat": {"t": 0, "x": 0}, "b_hat": {"t": 0, "x": 1}, "deep": ' + "[" * depth + "]" * depth + "}"


def run_proc(*args):
    return subprocess.run(
        [sys.executable, "-m", "corrlab", *args], capture_output=True, text=True, env=child_env()
    )


class TestMaximalBoxCommand:
    def test_exact_report(self, tmp_path):
        report = run_json(tmp_path, "pr-signal")
        assert report["schema_version"] == 1
        assert report["command"] == "pr-signal"
        assert report["config"]["n"] == 6
        verdict = report["results"]["verdict"]
        assert verdict["values"] == ["0/1", "11/16"]
        assert verdict["distinguishable"] is True
        assert verdict["threshold"] == "0/1"
        sig = report["results"]["variance_signature"]
        assert sig["u"] == {"var_sum": "2/3", "var_diff": "0/1"}
        assert sig["p"] == {"var_sum": "0/1", "var_diff": "2/3"}
        rare = report["results"]["rare_events"]
        assert rare["p_both_plus_under_u"] == "1/64"
        assert rare["p_plus_minus_under_p"] == "1/64"
        assert report["checks"] == {
            "distinguishable": True,
            "variance_collapse": True,
            "rare_event_match": True,
        }
        assert len(report["results"]["joint_distribution"]["u"]) == 7

    def test_sampled_report(self, tmp_path):
        report = run_json(
            tmp_path, "pr-signal", "--mode", "mc", "--trials", "20000", "--seed", "3"
        )
        verdict = report["results"]["verdict"]
        assert verdict["mode"] == "mc"
        assert isinstance(verdict["values"][1], float)
        assert verdict["values"][1] > 0.6
        assert report["checks"]["distinguishable"] is True

    def test_exact_csv(self, tmp_path):
        code, text = run_cli(tmp_path, "pr-signal", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["choice", "B", "B_prime", "numerator", "denominator"]
        assert len(rows) == 1 + 7 + 7
        choices = {r[0] for r in rows[1:]}
        assert choices == {"u", "p"}

    def test_sampled_csv(self, tmp_path):
        code, text = run_cli(
            tmp_path, "pr-signal", "--format", "csv", "--mode", "mc", "--trials", "40"
        )
        assert code == 0
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["choice", "trial", "B", "B_prime"]
        assert len(rows) == 1 + 80


@pytest.mark.parametrize("command, key", [("pr-signal", "variance_signature"), ("tsirelson", "collective_variance")])
def test_one_trial_reports_zero_variance(tmp_path, command, key):
    """One sampled trial has population variance 0.0; no report refuses it."""
    report = run_json(tmp_path, command, "--mode", "mc", "--trials", "1")
    variances = [value for per_choice in report["results"][key].values() for value in per_choice.values()]
    assert variances and all(value == 0.0 and isinstance(value, float) for value in variances)


class TestTsirelsonCommand:
    def test_exact_report(self, tmp_path):
        report = run_json(tmp_path, "tsirelson")
        results = report["results"]
        assert results["chsh"] == pytest.approx(2.8284271247461903)
        assert results["box_correlations"]["u|u"] == pytest.approx(0.7071067811865476)
        assert results["box_correlations"]["p|p"] == pytest.approx(-0.7071067811865476)
        assert results["verdict"]["distinguishable"] is False
        assert results["tv_per_axis"] == {"z": "0/1", "x": "0/1"}
        assert set(results["bob_distribution"]) == {"z|u", "z|p", "x|u", "x|p"}
        assert report["checks"] == {
            "no_signaling": True,
            "chsh_saturates_quantum_bound": True,
            "no_signaling_box": True,
        }


class TestGhzSignalCommand:
    def test_exact_report(self, tmp_path):
        report = run_json(tmp_path, "ghz-signal", "--n", "5")
        results = report["results"]
        assert results["hit_probability"] == {"u": "1/1024", "p": "1/1024"}
        assert results["tv_joint_receiver"] == "0/1"
        assert set(results["receiver_distribution"]) == {"u", "p"}
        assert report["checks"] == {
            "no_signaling": True,
            "hit_probabilities_equal": True,
            "hit_probability_matches": True,
        }

    def test_sampled_report(self, tmp_path):
        report = run_json(
            tmp_path, "ghz-signal", "--n", "3", "--mode", "mc", "--trials", "5000"
        )
        assert report["checks"]["no_signaling"] is True
        assert "hit_probability_matches" not in report["checks"]
        assert "hit_probabilities_equal" not in report["checks"]

    def test_exact_json_convolves_only_the_receivers(self, tmp_path, monkeypatch):
        calls = spy_calls(monkeypatch, ensembles, "convolve_iid_rounds")
        run_json(tmp_path, "ghz-signal", "--n", "4")
        assert [len(round_pmf.labels) for round_pmf, _ in calls] == [2, 2]

    def test_exact_csv_prints_the_whole_joint(self, tmp_path, monkeypatch):
        calls = spy_calls(monkeypatch, ensembles, "convolve_iid_rounds")
        code, text = run_cli(tmp_path, "ghz-signal", "--n", "4", "--format", "csv")
        assert code == 0
        header, *rows = text.splitlines()
        assert header == "choice,A_x,B_x,J,numerator,denominator"
        assert {len(row.split(",")) for row in rows} == {6}
        assert {row.split(",")[0] for row in rows} == {"u", "p"}
        assert sorted(len(round_pmf.labels) for round_pmf, _ in calls) == [3, 3]


@pytest.mark.parametrize("command, runs", [("pr-signal", 2), ("tsirelson", 4), ("ghz-signal", 2)])
class TestEachDistributionRunsOnce:
    """A scenario report computes each of its distributions exactly once."""

    def test_exact(self, tmp_path, monkeypatch, command, runs):
        calls = spy_calls(monkeypatch, ensembles, "convolve_iid_rounds")
        assert run_cli(tmp_path, command, "--n", "3")[0] == 0
        assert len(calls) == runs

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sampled(self, tmp_path, monkeypatch, command, runs, fmt):
        calls = spy_calls(monkeypatch, EnsembleRun, "empirical")
        code, _ = run_cli(
            tmp_path, command, "--n", "3", "--mode", "mc", "--trials", "200", "--format", fmt
        )
        assert code == 0
        assert len(calls) == runs

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_receiver_marginals(self, tmp_path, monkeypatch, command, runs, mode):
        """No JSON report projects an N-round distribution: only round pmfs are projected, once per form.

        tsirelson takes Bob's round marginal and ghz-signal its receivers' in both modes, and
        pr-signal projects nothing.  Each marginal is a cached form, so a second report in the
        same process projects nothing.
        """
        ensembles._born_form.cache_clear()
        calls = spy_calls(monkeypatch, ExactDistribution, "marginal")
        cold = runs if command in ("tsirelson", "ghz-signal") else 0
        for projected in (cold, 0):
            calls.clear()
            code, _ = run_cli(tmp_path, command, "--n", "3", "--mode", mode, "--trials", "200")
            assert code == 0
            assert [dist.n_rounds for dist, _ in calls] == [1] * projected


class TestGhzAlgebraCommand:
    def test_report(self, tmp_path):
        report = run_json(tmp_path, "ghz-algebra")
        results = report["results"]
        expectations = {s["observable"]: s["expectation"] for s in results["stabilizers"]}
        assert expectations["Y*X*Y"] == pytest.approx(1.0)
        assert expectations["X*X*X"] == pytest.approx(-1.0)
        assert all(v == 0.0 for v in results["commutator_norms"].values())
        assert results["pair_products"]["xx_times_yy"] == pytest.approx(-1.0)
        assert results["pair_products"]["xy_times_yx"] == pytest.approx(1.0)
        assert results["assignment_search"] == {
            "full_constraints_solutions": 0,
            "positive_constraints_solutions": 8,
        }
        assert all(report["checks"].values())

    def test_no_csv_available(self):
        """CSV is refused before the command runs, so a missing config is never read."""
        for args in [("ghz-algebra",), ("causal", "--config", "no-such-config.json")]:
            proc = run_proc(*args, "--format", "csv")
            assert proc.returncode == 2
            assert proc.stderr == f"error: csv output is not available for {args[0]}\n"


class TestJammingCommand:
    def test_x_axis_report(self, tmp_path):
        report = run_json(tmp_path, "jamming", "--jim", "x", "--n", "4", "--trials", "500")
        results = report["results"]
        assert results["triplets"] == 2000
        assert results["binned_correlation"] == {"1": -1.0, "-1": 1.0}
        assert results["unary_condition"]["holds"] is True
        assert results["unary_condition"]["max_marginal_tv"] == "0/1"
        assert report["checks"] == {"unary_holds": True, "binned_constraint_ok": True}

    def test_z_axis_report(self, tmp_path):
        report = run_json(tmp_path, "jamming", "--jim", "z", "--n", "4", "--trials", "2000")
        assert report["checks"] == {"unary_holds": True, "uncorrelated": True}
        assert abs(report["results"]["overall_correlation"]) < 0.05

    def test_csv(self, tmp_path):
        code, text = run_cli(
            tmp_path, "jamming", "--jim", "x", "--n", "2", "--trials", "25", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["triplet", "a_x", "b_x", "j"]
        assert len(rows) == 1 + 50
        for row in rows[1:]:
            a, b, j = int(row[1]), int(row[2]), int(row[3])
            assert a * b * j == -1


def sampled_verdict(runs: dict[str, EnsembleRun]) -> SignalingVerdict:
    """A sampled verdict that carries the given runs."""
    run = next(iter(runs.values()))
    return SignalingVerdict(
        scenario=ScenarioKind.TSIRELSON,
        n_rounds=run.n_rounds,
        mode=RunMode.MONTE_CARLO,
        statistic=Statistic.TOTAL_VARIATION,
        values=(0.0, 0.0),
        distinguishable=False,
        threshold=0.0,
        seed=0,
        runs=runs,
    )


def assert_same_text(text: str, expected: str) -> None:
    """Byte-for-byte equality that reports the first differing line, not a diff of the whole text."""
    if text == expected:
        return
    got, want = text.splitlines(keepends=True), expected.splitlines(keepends=True)
    line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    pytest.fail(
        f"line {line} differs: {got[line:line + 1]!r} != {want[line:line + 1]!r} "
        f"({len(got)} lines against {len(want)})"
    )


class _CountingSink(io.TextIOBase):
    """A stdout that keeps only the count of the lines written to it."""

    lines = 0

    def write(self, text: str) -> int:
        self.lines += text.count("\n")
        return len(text)


class TestCsvMatchesWriter:
    """CSV reports are byte-identical to the ``csv.writer`` rendering of one row per record."""

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(1, 3),
        n=st.integers(1, 200),
        trials=st.integers(1, 300),
        runs=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        flips=st.tuples(st.integers(0, 200), st.integers(0, 200)),
    )
    @example(k=3, n=1, trials=1, runs=1, seed=0, flips=(0, 200))
    @example(k=2, n=7, trials=300, runs=4, seed=1, flips=(0, 200))
    @example(k=1, n=200, trials=2, runs=2, seed=2, flips=(0, 200))
    # Row counts on each side of a power of ten, where the trial index gains a digit.
    @example(k=1, n=3, trials=9, runs=2, seed=3, flips=(0, 200))
    @example(k=2, n=1, trials=10, runs=1, seed=4, flips=(0, 200))
    @example(k=3, n=2, trials=11, runs=3, seed=5, flips=(0, 200))
    @example(k=3, n=6, trials=100, runs=4, seed=6, flips=(0, 200))
    @example(k=2, n=60, trials=1001, runs=2, seed=7, flips=(0, 200))
    # A long lattice of few trials, whose sums span 401 of its 40001 values.
    @example(k=2, n=20000, trials=50, runs=2, seed=8, flips=(9900, 10100))
    # Every trial has the same sum.
    @example(k=3, n=7, trials=20, runs=2, seed=9, flips=(3, 3))
    # Sums from -4 to 2: the span is not centred on zero.
    @example(k=2, n=6, trials=30, runs=3, seed=10, flips=(2, 5))
    # Trial counts across the 10^4-row CSV block, where the index's low digits restart zero-padded.
    @example(k=1, n=6, trials=9999, runs=2, seed=11, flips=(0, 200))
    @example(k=1, n=6, trials=10000, runs=2, seed=12, flips=(0, 200))
    @example(k=1, n=6, trials=10001, runs=2, seed=13, flips=(0, 200))
    @example(k=1, n=6, trials=20001, runs=2, seed=14, flips=(0, 200))
    @example(k=3, n=6, trials=9999, runs=1, seed=15, flips=(0, 200))
    @example(k=3, n=6, trials=10000, runs=1, seed=16, flips=(0, 200))
    @example(k=3, n=6, trials=10001, runs=1, seed=17, flips=(0, 200))
    @example(k=3, n=6, trials=20001, runs=1, seed=18, flips=(0, 200))
    def test_sampled(self, k, n, trials, runs, seed, flips):
        """``flips`` bounds each trial's count of -1 rounds, so the sums span all of the lattice or part of it."""
        rng = np.random.default_rng(seed)
        labels = ("A_x", "B_x", "J_x")[:k]
        fewest, most = sorted(min(f, n) for f in flips)
        samples = {}
        for choice in ("z|u", "z|p", "x|u", "x|p")[:runs]:
            negatives = rng.integers(fewest, most + 1, size=(trials, k)).T.astype(np.min_scalar_type(n))
            # Both ends of the span, in the first and the last column.
            negatives[0, 0], negatives[-1, -1] = fewest, most
            samples[choice] = EnsembleRun(labels=labels, negatives=negatives, n_rounds=n)
        v = sampled_verdict(samples)
        assert_same_text("".join(cli._dist_csv(v)), oracles.render_csv_by_writer(v))

    @settings(max_examples=50, deadline=None)
    @given(
        jim=st.sampled_from(["x", "z"]),
        n=st.integers(1, 20),
        trials=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(jim="z", n=1, trials=1, seed=0)
    # n * trials triplets on each side of a power of ten, where the index gains a digit.
    @example(jim="x", n=3, trials=3, seed=1)
    @example(jim="z", n=2, trials=5, seed=2)
    @example(jim="x", n=1, trials=11, seed=3)
    @example(jim="z", n=10, trials=10, seed=4)
    @example(jim="x", n=7, trials=143, seed=5)
    # Triplet counts across the 10^4-row CSV block.  Blocks 1, 2 and 3 start at bits 16, 32 and 48 of a word.
    @example(jim="x", n=1, trials=10000, seed=6)
    @example(jim="z", n=1, trials=10001, seed=7)
    @example(jim="x", n=1, trials=20003, seed=8)
    @example(jim="z", n=1, trials=30001, seed=9)
    def test_jamming(self, jim, n, trials, seed):
        records = run_jamming_scenario(n, jim, trials, seed)
        assert_same_text("".join(cli._jamming_csv(records)), oracles.render_csv_by_writer(records))

    def test_block_digits_are_read_only(self):
        for padded in (False, True):
            digits = cli._block_digits(padded)
            assert digits.shape == (cli._BLOCK_ROWS, 4)
            assert not digits.flags.writeable
            with pytest.raises(ValueError):
                digits[0, 0] = ord("1")

    def test_jamming_peak_memory(self):
        """Draining the blocks of 2.4e6 triplets peaks no higher than 6e5 do, but for the larger indicator words and 64 KiB."""
        # Two blocks, so both digit matrices are built before the runs measured.
        assert "".join(cli._jamming_csv(run_jamming_scenario(1, "z", 10_001, 0))).count("\n") == 10_002
        peaks, words = [], []
        for trials in (100_000, 400_000):
            records = run_jamming_scenario(6, "z", trials, 0)
            tracemalloc.start()
            try:
                rows = sum(block.count("\n") for block in cli._jamming_csv(records))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rows == 6 * trials + 1
            words.append(records.indicators.nbytes)
        assert peaks[1] - peaks[0] <= words[1] - words[0] + 64 * 1024, (peaks, words)

    def test_streamed_report_peak_memory(self, monkeypatch):
        """A sampled CSV report written by ``main`` peaks higher at 2^19 trials than at 2^17 only by its larger uint8 counts and 64 KiB.

        The report has two runs of two components, so 4 bytes of counts per trial.
        """
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        peaks = []
        # The first run builds what later runs reuse: the parser, the round pmfs and both digit matrices.
        for trials in (10_001, 2**17, 2**19):
            argv = ["pr-signal", "--mode", "mc", "--n", "6", "--trials", str(trials), "--format", "csv"]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sink.lines == 2 * trials + 1
            sink.lines = 0
        assert peaks[2] - peaks[1] <= 4 * (2**19 - 2**17) + 64 * 1024, peaks

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(list(ScenarioKind)), n=st.integers(1, 24))
    @example(kind=ScenarioKind.GHZ, n=24)
    @example(kind=ScenarioKind.TSIRELSON, n=1)
    @example(kind=ScenarioKind.PR_BOX, n=7)
    def test_exact(self, kind, n):
        v = verdict(kind, n, RunMode.EXACT, joint=True)
        assert_same_text("".join(cli._dist_csv(v)), oracles.render_csv_by_writer(v))


@st.composite
def lattice_distributions(draw):
    """An ExactDistribution with random weights on a small grid."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    weights = draw(st.lists(st.integers(0, 2**70), min_size=(n + 1) ** k, max_size=(n + 1) ** k))
    weights[draw(st.integers(0, len(weights) - 1))] += 1
    return ExactDistribution.from_grid(("A_x", "B_x", "J_x")[:k], n, weights, sum(weights))


_JSON_LEAVES = st.one_of(
    st.fractions(),
    st.booleans(),
    st.none(),
    st.integers(),
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.text(),
    lattice_distributions(),
)
_JSON_KEYS = st.one_of(st.text(), st.integers(-3, 3), st.booleans(), st.none())
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_KEYS, children, max_size=4),
    ),
    max_leaves=20,
)

# Every subcommand as shipped, exact and sampled at a small trial count; causal
# configs relative to the repository root.
SHIPPED_REPORTS = [
    *[
        (command, *mode)
        for command in ("pr-signal", "tsirelson", "ghz-signal")
        for mode in (("--n", "7"), ("--n", "24"), ("--mode", "mc", "--n", "9", "--trials", "300"))
    ],
    ("ghz-algebra",),
    ("jamming", "--jim", "x", "--trials", "300"),
    ("jamming", "--jim", "z", "--trials", "300"),
    *[("causal", "--config", f"scenarios/{path.name}") for path in sorted(SCENARIOS.glob("*.json"))],
]


class TestJsonMatchesOracle:
    """JSON reports are byte-identical to ``json.dumps(indent=2, sort_keys=True)`` of their plain values."""

    @settings(max_examples=300, deadline=None)
    @given(_JSON_TREES)
    @example(1e400)
    @example(-0.0)
    @example({"é\u0001": -1e400, "\u2028": float("nan")})
    @example({"": {}, "list": [], "tuple": (), "nested": [{}, [[]]]})
    @example({1: "int key", "1": "str key", True: "bool key"})
    @example([[ExactDistribution.from_grid(("B",), 2, [1, 0, 3], 4)], {"d": ExactDistribution.from_grid(("B",), 1, [0, 1], 1)}])
    def test_trees(self, tree):
        assert_same_text(reportio.dump_report(tree), oracles.dump_by_json(tree))

    @pytest.mark.parametrize("args", SHIPPED_REPORTS, ids=" ".join)
    def test_shipped_reports(self, monkeypatch, tmp_path, args):
        monkeypatch.chdir(SCENARIOS.parent)
        dumps = spy_calls(monkeypatch, cli, "dump_report")
        code, text = run_cli(tmp_path, *args)
        assert code == 0
        ((report,),) = dumps
        assert_same_text(text, oracles.dump_by_json(report))

    @pytest.mark.parametrize(
        "obj", [SpacetimeEvent(t=0.0, x=1.0), make_pr_box(), RunMode.EXACT], ids=["event", "box", "enum"]
    )
    def test_dataclasses_are_not_encoded(self, obj):
        """A report holds a dataclass or an Enum only as the plain values its ``to_json_obj`` returns."""
        with pytest.raises(TypeError, match="cannot encode"):
            reportio.encode({"x": obj})
        with pytest.raises(TypeError, match="cannot encode"):
            oracles.dump_by_json({"x": obj})

    def test_causal_echoes_any_config(self, tmp_path, capsys):
        config = tmp_path / "odd.json"
        config.write_text(
            '{"a_hat": {"t": 0, "x": -1}, "b_hat": {"t": 0, "x": 1e0}, "note": "\\u00e9\\u0001\\ud834",'
            ' "big": ' + "9" * 401 + ', "zero": -0.0, "huge": 1e400, "nan": NaN, "empty": [{}, []]}'
        )
        assert main(["causal", "--config", str(config)]) == 0
        out, _ = capsys.readouterr()
        report = json.loads(out)
        assert report["config"]["config"]["big"] == int("9" * 401)
        assert out == oracles.dump_by_json(report)


# One argv per subcommand, each flag at a value other than its default where it has one.
ECHO_ARGVS = [
    ["pr-signal", "--n", "3", "--seed", "2"],
    ["tsirelson", "--mode", "mc", "--n", "2", "--trials", "30", "--seed", "4"],
    ["ghz-signal", "--n", "2", "--trials", "7"],
    ["ghz-algebra"],
    ["jamming", "--jim", "z", "--n", "2", "--trials", "20", "--seed", "1"],
    ["causal", "--config", "./scenarios/causal_loop.json"],
]


def test_echo_argvs_cover_every_subcommand():
    assert [argv[0] for argv in ECHO_ARGVS] == list(cli._COMMANDS)


@pytest.mark.parametrize("argv", ECHO_ARGVS, ids=" ".join)
def test_config_echoes_every_parsed_flag_but_out(monkeypatch, tmp_path, argv):
    """The echo is the parsed flags minus the subcommand and --out; causal adds the object its file held."""
    monkeypatch.chdir(SCENARIOS.parent)
    parsed = vars(cli.build_parser().parse_args(argv))
    code, text = run_cli(tmp_path, *argv)
    assert code == 0
    want = {flag: value for flag, value in parsed.items() if flag not in ("command", "out")}
    if argv[0] == "causal":
        assert want["config_path"] == "scenarios/causal_loop.json"
        want["config"] = json.loads((SCENARIOS / "causal_loop.json").read_text())
    assert json.loads(text)["config"] == want
    assert str(tmp_path) not in text


# Each component column of a scenario CSV: the runs' shared label, or the stem
# before the axis where the runs measure different axes.
CSV_COMPONENT_COLUMNS = {
    "pr-signal": ["B", "B_prime"],
    "tsirelson": ["bob"],
    "ghz-signal": ["A_x", "B_x", "J"],
}


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("command", list(CSV_COMPONENT_COLUMNS))
def test_csv_header_holds_for_every_run(command, mode):
    kind, _ = cli._SCENARIOS[command]
    v = verdict(kind, 2, cli._MODES[mode], 50, 0, joint=True)
    header = "".join(cli._dist_csv(v)).split("\n", 1)[0].split(",")
    columns = header[1:-2] if mode == "exact" else header[2:]
    assert columns == CSV_COMPONENT_COLUMNS[command]
    for run in v.runs.values():
        assert len(run.labels) == len(columns)
        for name, label in zip(columns, run.labels):
            assert label == name or label.startswith(name + "_"), (name, label)


# sha256 of each report's stdout, recorded with the csv.writer renderer. The
# tsirelson and ghz-signal digests were re-recorded when component columns that
# differ between runs took their axis-free stem, and the sampled ones when the
# bit-sliced sampler moved every seeded draw.
CSV_REPORT_DIGESTS = [
    (
        ("pr-signal", "--mode", "mc", "--n", "6", "--trials", "10000", "--seed", "0"),
        "8443dd9a168570c81638e40089ec10e93a7337a62db601bedc26e47871f2be20",
    ),
    (
        ("tsirelson", "--mode", "mc", "--n", "6", "--trials", "10000", "--seed", "0"),
        "a0c686210b74bb563fdddbe7cf9708454e18c2a6d6cbbef8d6a0527134afa31c",
    ),
    (
        ("ghz-signal", "--mode", "mc", "--n", "6", "--trials", "10000", "--seed", "0"),
        "dbf9fdcf16a3e32bbf56c7613ce804d747b2cf2d7bebf5ea34a3d949070264e8",
    ),
    (
        ("jamming", "--jim", "z", "--n", "6", "--trials", "10000"),
        "5863fc8c030ccf0224916f53f896a91e2f2bf1d8b2c1d2eea9f717211ab25606",
    ),
    (
        ("jamming", "--jim", "x", "--n", "6", "--trials", "10000"),
        "7dad9d099a7ef1166bda6c81c514625f40cadbcf7774ef0b309f39a15dc01058",
    ),
    # A 121-field table of wide floats.
    (
        ("pr-signal", "--mode", "mc", "--n", "60", "--trials", "10000", "--seed", "0"),
        "b9b462fff97fe122d952b0b08040749f54c0b27f5b6d2149723d6587ba7c0ac7",
    ),
    # 6e5 triplets, whose index text runs from 1 to 6 digits.
    (
        ("jamming", "--jim", "z"),
        "f0e06c251b493de7cf887c2b3e14eae791ce46af3058af29d71abd643cabd8a5",
    ),
    (
        ("ghz-signal", "--n", "24"),
        "a66ed37f5e3e63187a748a0f58b102a14737a684ca0222ed3b06b221d7e1a334",
    ),
]


@pytest.mark.parametrize(
    "args, digest",
    CSV_REPORT_DIGESTS,
    ids=["pr-mc", "tsirelson-mc", "ghz-mc", "jamming-z", "jamming-x", "pr-mc-60", "jamming-z-default", "ghz-exact-24"],
)
def test_csv_reports_are_pinned(capsys, args, digest):
    assert main([*args, "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of each JSON report's stdout. The ghz-signal digests were recorded
# while it still projected the receivers out of the whole (A_x, B_x, J) joint,
# the others while reports were still written by json.dumps; the sampled ones
# were re-recorded when the bit-sliced sampler moved every seeded draw, and the
# sampled pr-signal and tsirelson ones again when their variances became the
# correctly rounded variances of their samples. Causal configs are passed
# relative to the repository root, which their reports echo.
JSON_REPORT_DIGESTS = [
    pytest.param(("ghz-signal", "--n", "1"), "5fcf431f017df14d4fddd4b6c04d82a326ec71db0926c6ba3d835d44887aa212", id="ghz-exact-1"),
    pytest.param(("ghz-signal", "--n", "6"), "a04c021c52dc29bce01c2981abf5186b53467d25c34d25195fa4be7108d095be", id="ghz-exact-6"),
    pytest.param(("ghz-signal", "--n", "24"), "b5ab99b33fb819fd6933ee9555ba89c1fba90b5e252712d3b23f02589fc0f36f", id="ghz-exact-24"),
    pytest.param(
        ("ghz-signal", "--mode", "mc", "--n", "6", "--trials", "10000", "--seed", "0"),
        "4e610fee9bb99c620657f5d400221afead99fc5add75672e6008787e0259fb95",
        id="ghz-mc-6",
    ),
    pytest.param(
        ("ghz-signal", "--mode", "mc", "--n", "60", "--trials", "10000", "--seed", "0"),
        "2bb24f194d81c3046a74ae1738068b500f1385ccd4c78fc4f78a74eee082605b",
        id="ghz-mc-60",
    ),
    pytest.param(("pr-signal", "--n", "1"), "9eef09e47e108a4e821be0a7e76d446c36a3a608f07d51ffa4870b90bdffd7c9", id="pr-exact-1"),
    pytest.param(("pr-signal", "--n", "24"), "7f2f9c38436b010e38b5d3b2b8e3c614cbd3e0a7bea93ffafd005d419bcd6a48", id="pr-exact-24"),
    pytest.param(("tsirelson", "--n", "1"), "e1c5a49a150602ba399e6206a11e255c57a8aab7d4fde6ec31ee5f4ed3611057", id="tsirelson-exact-1"),
    pytest.param(("tsirelson", "--n", "24"), "4d0602451d697c8a2dc41a07960635699e7d97b22ea0f9c3cf4d66fce81600dc", id="tsirelson-exact-24"),
    pytest.param(
        ("pr-signal", "--mode", "mc", "--n", "6", "--trials", "10000", "--seed", "0"),
        "33b0cebea9f1d15a7f2aa9db2d7fc12315160d6cf7346d9a2a410b0518d9afc4",
        id="pr-mc-6",
    ),
    pytest.param(
        ("tsirelson", "--mode", "mc", "--n", "6", "--trials", "10000", "--seed", "0"),
        "c9bb03a97c68984e967ff1550fc9ffff443f9a9d16348cfaaa90768aa7f396cd",
        id="tsirelson-mc-6",
    ),
    pytest.param(
        ("pr-signal", "--mode", "mc", "--n", "60"),
        "a6d588824118bf59ae2be6815d02db3a50784feec41e41b2e223431adccfc677",
        id="pr-mc-60",
    ),
    pytest.param(
        ("tsirelson", "--mode", "mc", "--n", "60"),
        "97aef83e09ca03652bed195243c19ee6052ec8e8d68fb9b5cd1234860d98a24d",
        id="tsirelson-mc-60",
    ),
    # Its (N+1)^2 = 4e8-cell grid dwarfs the 50 trials, so the histogram sorts them.
    pytest.param(
        ("pr-signal", "--mode", "mc", "--n", "20000", "--trials", "50"),
        "90cf773505c4c972562b396a6621dae4eceba787a5241e0a29ae4d7ce15e5bc9",
        id="pr-mc-20000-sorted",
    ),
    pytest.param(("jamming", "--jim", "x"), "d9fd03abc79c176abd50aa49a3e5bd6a7ff628cde0dffc2ff83b34269529784b", id="jamming-x"),
    pytest.param(("jamming", "--jim", "z"), "1ea266a0a2d76c0e5103133f3765bc001e9b59ad758db1bfca5df5b97070205c", id="jamming-z"),
    pytest.param(("ghz-algebra",), "45475d9a230f789cab63eed14d9e260ad8eca487dbfe061c936b5fde815e01a1", id="ghz-algebra"),
    pytest.param(
        ("causal", "--config", "scenarios/causal_loop.json"),
        "0a13dac865e0bf422831b2b7474ca58422b7883135f6bf48ad5da7b144790cd9",
        id="causal-loop",
    ),
    pytest.param(
        ("causal", "--config", "scenarios/jammer_after_measurements.json"),
        "4eff91c150fa48132286287c27544d69475948ae567dd32e456815d9817c6e7b",
        id="causal-jammer-after-measurements",
    ),
    pytest.param(
        ("causal", "--config", "scenarios/jammer_inside_overlap.json"),
        "ac4b8d6ae78ad22f9b2a88cc79a268c81663450c2cd9e5d019ba8aa2916e4364",
        id="causal-jammer-inside-overlap",
    ),
    pytest.param(
        ("causal", "--config", "scenarios/jammer_outside_overlap.json"),
        "8091c7c46c2f08ba6d71e9670b521cb2c316854e68b6317b3f2b5651a79f8270",
        id="causal-jammer-outside-overlap",
    ),
    pytest.param(
        ("causal", "--config", "scenarios/timelike_separated_measurements.json"),
        "c0542325279b34855bfb332eb4aed48398cca3ec63b12b6d7786525b3e2e00ea",
        id="causal-timelike-separated-measurements",
    ),
]


def test_json_reports_cover_every_scenario_file():
    pinned = {p.values[0][-1] for p in JSON_REPORT_DIGESTS if p.values[0][0] == "causal"}
    assert pinned == {f"scenarios/{path.name}" for path in SCENARIOS.glob("*.json")}


@pytest.mark.parametrize("args, digest", JSON_REPORT_DIGESTS)
def test_json_reports_are_pinned(capsys, monkeypatch, args, digest):
    monkeypatch.chdir(SCENARIOS.parent)
    assert main(list(args)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCausalCommand:
    def _run(self, tmp_path, name):
        return run_json(tmp_path, "causal", "--config", str(SCENARIOS / name))

    def test_jammer_inside_overlap(self, tmp_path):
        report = self._run(tmp_path, "jammer_inside_overlap.json")
        binary = report["results"]["binary_condition"]
        assert binary["holds"] is True
        assert binary["overlap_apex"] == {"t": 1.0, "x": 0.0}

    def test_overlap_apex_is_computed_once(self, tmp_path, monkeypatch):
        calls = spy_calls(monkeypatch, spacetime, "cone_overlap_apex")
        report = self._run(tmp_path, "jammer_inside_overlap.json")
        assert len(calls) == 1
        assert report["results"]["overlap_apex"] == report["results"]["binary_condition"]["overlap_apex"]

    def test_jammer_outside_overlap(self, tmp_path):
        report = self._run(tmp_path, "jammer_outside_overlap.json")
        assert report["results"]["binary_condition"]["holds"] is False
        assert report["checks"]["binary_condition_holds"] is False

    def test_jammer_after_measurements(self, tmp_path):
        report = self._run(tmp_path, "jammer_after_measurements.json")
        assert report["results"]["binary_condition"]["holds"] is True
        assert report["results"]["overlap_apex"] == {"t": 2.0, "x": 0.0}

    def test_timelike_separated_measurements(self, tmp_path):
        report = self._run(tmp_path, "timelike_separated_measurements.json")
        assert report["results"]["binary_condition"]["holds"] is True

    def test_causal_loop(self, tmp_path):
        report = self._run(tmp_path, "causal_loop.json")
        results = report["results"]
        assert results["round_trip"]["retrocausal"] is True
        assert results["round_trip"]["reply_arrival"]["t"] == pytest.approx(-0.5)
        assert results["loop"]["consistent"] is False
        assert results["loop"]["fixed_points"] == []
        assert results["policy_scan_summary"] == {
            "pairs": 16,
            "contradictory_pairs": 2,
            "underdetermined_pairs": 2,
            "pairs_without_unique_fixed_point": 4,
        }

    @pytest.mark.parametrize(
        "beta", [None, [1], {}, 10**400, True, False], ids=["null", "list", "object", "huge-int", "true", "false"]
    )
    def test_beta_must_be_a_number(self, tmp_path, capsys, beta):
        config = tmp_path / "beta.json"
        config.write_text(json.dumps({"a_hat": {"t": 0, "x": 0}, "b_hat": {"t": 0, "x": 1}, "beta": beta}))
        assert main(["causal", "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: beta must be a number\n"

    @pytest.mark.parametrize("event", [{"t": True, "x": 0}, {"t": 0, "x": False}], ids=["true-t", "false-x"])
    def test_event_coordinates_must_not_be_bools(self, tmp_path, capsys, event):
        config = tmp_path / "event.json"
        config.write_text(json.dumps({"a_hat": event, "b_hat": {"t": 0, "x": 1}}))
        assert main(["causal", "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: malformed event object {event!r}\n"

    def test_apex_at_the_float_range(self, tmp_path):
        # Its null coordinate t - x = 2e308 is beyond the float range; the apex is not.
        event = {"t": 1e308, "x": -1e308}
        config = tmp_path / "edge.json"
        config.write_text(json.dumps({"a_hat": event, "b_hat": event}))
        assert run_json(tmp_path, "causal", "--config", str(config))["results"]["overlap_apex"] == event

    def test_jammer_cone_at_the_float_range(self, tmp_path):
        # The apex is a_hat; from j_hat, dt = 1.9e308 while |dx| = 2e308 overflows: not in its cone.
        event = {"t": 1e308, "x": -1e308}
        config = tmp_path / "edge.json"
        config.write_text(json.dumps({"a_hat": event, "b_hat": event, "j_hat": {"t": -9e307, "x": 1e308}}))
        binary = run_json(tmp_path, "causal", "--config", str(config))["results"]["binary_condition"]
        assert binary == {"holds": False, "overlap_apex": event}

    def test_jammer_cone_below_float_resolution(self, tmp_path):
        # The apex is (1, 0); from j_hat, dt = 1 - 1e-17 < |dx| = 1, though 1 - 1e-17 rounds to 1.0.
        config = tmp_path / "tilted.json"
        config.write_text(
            json.dumps({"a_hat": {"t": 0, "x": -1}, "b_hat": {"t": 0, "x": 1}, "j_hat": {"t": 1e-17, "x": 1}})
        )
        binary = run_json(tmp_path, "causal", "--config", str(config))["results"]["binary_condition"]
        assert binary == {"holds": False, "overlap_apex": {"t": 1.0, "x": 0.0}}

    def test_apex_beyond_the_float_range(self, tmp_path, capsys):
        config = tmp_path / "beyond.json"
        config.write_text(json.dumps({"a_hat": {"t": 1e308, "x": 1e308}, "b_hat": {"t": 1e308, "x": -1e308}}))
        assert main(["causal", "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the apex of the two cones' overlap lies beyond the float range\n"

    @pytest.mark.parametrize("beta", [float("nan"), "nan"], ids=["nan", "nan-string"])
    def test_nan_beta_is_not_a_boost(self, tmp_path, capsys, beta):
        config = tmp_path / "beta.json"
        config.write_text(json.dumps({"a_hat": {"t": 0, "x": 0}, "b_hat": {"t": 0, "x": 1}, "beta": beta}))
        assert main(["causal", "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: boost velocity must satisfy |beta| < 1\n"

    @pytest.mark.parametrize("event", [{"t": 10**400, "x": 0}, {"t": 0, "x": -(10**400)}], ids=["huge-t", "huge-x"])
    def test_event_coordinates_must_fit_a_float(self, tmp_path, capsys, event):
        config = tmp_path / "event.json"
        config.write_text(json.dumps({"a_hat": event, "b_hat": {"t": 0, "x": 1}}))
        assert main(["causal", "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: malformed event object ")
        assert err.count("\n") == 1

    def test_beta_may_be_a_numeric_string(self, tmp_path):
        config = tmp_path / "beta.json"
        config.write_text(json.dumps({"a_hat": {"t": 0, "x": 0}, "b_hat": {"t": 0, "x": 1}, "beta": "0.5"}))
        report = run_json(tmp_path, "causal", "--config", str(config))
        assert report["results"]["round_trip"]["beta"] == 0.5
        assert report["results"]["round_trip"]["retrocausal"] is True

    def test_partial_config(self, tmp_path):
        config = tmp_path / "partial.json"
        config.write_text(json.dumps({"a_hat": {"t": 0, "x": -1}, "b_hat": {"t": 0, "x": 1}}))
        report = run_json(tmp_path, "causal", "--config", str(config))
        assert report["results"]["overlap_apex"] == {"t": 1.0, "x": 0.0}
        assert "binary_condition" not in report["results"]

    def test_missing_config_file(self):
        proc = run_proc("causal", "--config", "/nonexistent/config.json")
        assert proc.returncode == 2
        assert "cannot read config" in proc.stderr

    def test_invalid_json(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        proc = run_proc("causal", "--config", str(config))
        assert proc.returncode == 2
        assert "not valid JSON" in proc.stderr

    def test_empty_config(self, tmp_path):
        config = tmp_path / "empty.json"
        config.write_text("{}")
        proc = run_proc("causal", "--config", str(config))
        assert proc.returncode == 2
        assert "no analyzable sections" in proc.stderr

    @pytest.mark.parametrize("depth", [cli._MAX_CONFIG_DEPTH, 987, 988, 989, 5000])
    def test_deeply_nested_config(self, tmp_path, depth):
        """A config nested past the bound is refused before it is parsed, with the one message on every interpreter.

        ``depth`` arrays inside the config object nest it ``depth + 1`` levels
        deep; 987-989 and 5000 arrays lie where interpreters' stacks run out.
        """
        config = tmp_path / "deep.json"
        config.write_text(_nested_config(depth))
        proc = run_proc("causal", "--config", str(config))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: config file {config} nests more than {cli._MAX_CONFIG_DEPTH} levels deep\n"

    @pytest.mark.parametrize(
        "text",
        [
            _nested_config(cli._MAX_CONFIG_DEPTH - 1),
            json.dumps({"a_hat": {"t": 0, "x": 0}, "b_hat": {"t": 0, "x": 1}, "deep": "[{" * 5000}),
        ],
        ids=["at-the-bound", "brackets-in-a-string"],
    )
    def test_config_at_the_nesting_bound_is_read(self, tmp_path, text):
        config = tmp_path / "deep.json"
        config.write_text(text)
        proc = run_proc("causal", "--config", str(config))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["config"]["config"] == json.loads(text)

    def test_loop_needs_both_maps(self, tmp_path):
        config = tmp_path / "half.json"
        config.write_text(json.dumps({"alice_map": "echo"}))
        proc = run_proc("causal", "--config", str(config))
        assert proc.returncode == 2
        assert "both alice_map and bob_map" in proc.stderr


    @pytest.mark.parametrize("bad", [[], {}])
    def test_map_name_must_be_a_string(self, tmp_path, bad):
        config = tmp_path / "maps.json"
        config.write_text(json.dumps({"alice_map": bad, "bob_map": "echo"}))
        proc = run_proc("causal", "--config", str(config))
        assert proc.returncode == 2
        assert "unknown device map" in proc.stderr


class TestSharedParser:
    """``main`` parses every call on one parser, built on first use, so no parse may leave state on it."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_turn_match_fresh_processes(self, capsys, monkeypatch):
        # Help text wraps at the terminal width; fix it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        calls = [
            ("pr-signal", "--mode", "mc", "--trials", "200", "--format", "csv"),
            ("pr-signal", "--n", "x"),
            ("jamming", "--jim", "z", "--trials", "100"),
            ("ghz-algebra",),
            ("pr-signal",),
            ("--help",),
            ("jamming", "--help"),
        ]
        codes = []
        for args in calls:
            try:
                code = main(list(args))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            proc = run_proc(*args)
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), args
            codes.append(code)
        assert codes == [0, 2, 0, 0, 0, 0, 0]


WARM_COMMANDS = [
    *(
        (command, "--mode", mode, "--format", fmt, "--n", n, "--trials", "3000")
        for command in ("pr-signal", "tsirelson", "ghz-signal")
        for mode in ("exact", "mc")
        for fmt in ("json", "csv")
        for n in ("1", "6")
    ),
    *(
        ("jamming", "--jim", jim, "--format", fmt, "--n", n, "--trials", "3000")
        for jim in ("x", "z")
        for fmt in ("json", "csv")
        for n in ("1", "6")
    ),
]


def test_warm_process_reports_match_fresh_processes(tmp_path):
    """Every scenario report, made in turn in one process from cold caches, in two orders, has a fresh interpreter's bytes.

    Round pmfs and Born pmfs are cached per process, so a report that left
    state behind for the next would differ from the one-command processes.
    """
    env = child_env()

    def fresh(args):
        proc = subprocess.run([sys.executable, "-m", "corrlab", *args], capture_output=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, b""), args
        return proc.stdout

    with ThreadPoolExecutor(max_workers=2) as pool:
        expected = dict(zip(WARM_COMMANDS, pool.map(fresh, WARM_COMMANDS)))
    out = tmp_path / "report.out"
    for order in (WARM_COMMANDS, WARM_COMMANDS[::-1]):
        ensembles._born_form.cache_clear()
        quantum._born_pmf.cache_clear()
        for args in order:
            assert main([*args, "--out", str(out)]) == 0
            assert out.read_bytes() == expected[args], args


_NUMPY_FREE_PROBE = """
import contextlib, inspect, io, json, sys
steps = []
import corrlab.cli
steps.append(["import corrlab.cli", None, "numpy" in sys.modules])
for name, mod in list(sys.modules.items()):
    if name.startswith("corrlab."):
        for obj in list(vars(mod).values()):
            getattr(obj, "__module__", None), inspect.isfunction(obj), inspect.isclass(obj)
            hasattr(obj, "__wrapped__")
steps.append(["inspect corrlab attributes", None, "numpy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = corrlab.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    steps.append([" ".join(argv), rc, "numpy" in sys.modules])
print(json.dumps(steps))
"""

_NUMPY_FREE_COMMANDS = [
    *(
        [command, "--n", "24", "--format", fmt]
        for command in ("pr-signal", "ghz-signal")
        for fmt in ("json", "csv")
    ),
    *(["causal", "--config", str(SCENARIOS / name)] for name in sorted(p.name for p in SCENARIOS.glob("*.json"))),
    ["--help"],
    ["pr-signal", "--n", "25"],
]


def test_exact_commands_never_import_numpy():
    """Importing the CLI, exact pr-signal and ghz-signal, causal, --help and a refused --n leave numpy unloaded.

    So does reading ``__module__``, ``inspect.isfunction`` and
    ``inspect.isclass`` of every attribute of every loaded corrlab module,
    as the benchmark's tracer does when it wraps the layers, and looking
    for a ``__wrapped__`` on each, as ``inspect.unwrap`` does.

    One child interpreter runs every command in turn; a last ``tsirelson``
    run, whose tilted box needs the float simulator, shows the probe sees
    numpy once something loads it.
    """
    assert len(_NUMPY_FREE_COMMANDS) == 4 + 5 + 2
    argvs = [*_NUMPY_FREE_COMMANDS, ["tsirelson", "--n", "2"]]
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_PROBE, json.dumps(argvs)], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    *numpy_free, last = steps
    assert numpy_free == [
        ["import corrlab.cli", None, False],
        ["inspect corrlab attributes", None, False],
        *([" ".join(argv), 2 if argv[-1] == "25" else 0, False] for argv in _NUMPY_FREE_COMMANDS),
    ]
    assert last == ["tsirelson --n 2", 0, True]


def test_numpy_free_commands_run_where_numpy_is_missing(tmp_path):
    """Each numpy-free command runs under an interpreter that cannot import numpy, and writes its pinned bytes.

    numpy is hidden by a package of its name that raises on import, first on
    the child's path.  Causal configs are passed relative to the repository
    root, as their pinned reports echo them.
    """
    hidden = tmp_path / "hidden"
    (hidden / "numpy").mkdir(parents=True)
    (hidden / "numpy" / "__init__.py").write_text("raise ModuleNotFoundError(\"No module named 'numpy'\", name='numpy')\n")
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join((str(hidden), env["PYTHONPATH"]))
    pinned = {(*p.values[0], "--format", "json"): p.values[1] for p in JSON_REPORT_DIGESTS}
    pinned.update({(*args, "--format", "csv"): digest for args, digest in CSV_REPORT_DIGESTS})
    argvs = [
        [str(Path(a).relative_to(SCENARIOS.parent)) if a.startswith(str(SCENARIOS)) else a for a in argv]
        for argv in _NUMPY_FREE_COMMANDS
    ]

    def child(argv):
        return subprocess.run([sys.executable, "-m", "corrlab", *argv], capture_output=True, cwd=SCENARIOS.parent, env=env)

    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(child, argvs))
    checked = 0
    for argv, proc in zip(argvs, procs):
        assert proc.returncode == (2 if argv[-1] == "25" else 0), (argv, proc.stderr)
        key = tuple(argv) if "--format" in argv else (*argv, "--format", "json")
        if key in pinned:
            assert hashlib.sha256(proc.stdout).hexdigest() == pinned[key], argv
            checked += 1
    # pr-signal and ghz-signal --n 24 as JSON, ghz-signal --n 24 as CSV, and the 5 causal configs.
    assert checked == 3 + 5


class TestDeterminismAndErrors:
    def test_reports_are_byte_identical(self, tmp_path):
        _, first = run_cli(tmp_path, "pr-signal", "--n", "4")
        _, second = run_cli(tmp_path, "pr-signal", "--n", "4")
        assert first == second
        _, mc1 = run_cli(tmp_path, "pr-signal", "--n", "4", "--mode", "mc", "--trials", "500")
        _, mc2 = run_cli(tmp_path, "pr-signal", "--n", "4", "--mode", "mc", "--trials", "500")
        assert mc1 == mc2
        _, other_seed = run_cli(
            tmp_path, "pr-signal", "--n", "4", "--mode", "mc", "--trials", "500", "--seed", "1"
        )
        assert other_seed != mc1

    def test_stdout_matches_out_file(self, tmp_path):
        proc = run_proc("ghz-algebra")
        assert proc.returncode == 0
        _, from_file = run_cli(tmp_path, "ghz-algebra")
        assert proc.stdout == from_file

    def test_console_script(self, tmp_path):
        """The declared ``[project.scripts]`` entry runs as a command.

        Runs what an installer's generated wrapper runs, so no install is
        needed; an installed ``corrlab`` executable must print the same bytes.
        """
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["corrlab"]
        module, _, attr = target.partition(":")
        wrapper = (
            "import importlib, sys\n"
            "sys.argv[0] = 'corrlab'\n"
            f"func = getattr(importlib.import_module({module!r}), {attr!r})\n"
            "sys.exit(func())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "ghz-algebra"],
            capture_output=True,
            cwd=tmp_path,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert json.loads(proc.stdout)["command"] == "ghz-algebra"
        installed = shutil.which("corrlab")
        if installed is not None:
            script = subprocess.run([installed, "ghz-algebra"], capture_output=True)
            assert script.returncode == 0, script.stderr.decode()
            assert script.stdout == proc.stdout

    def test_invalid_round_count(self):
        assert run_proc("pr-signal", "--n", "0").returncode == 2
        assert run_proc("pr-signal", "--n", "30", "--mode", "exact").returncode == 2

    def test_unknown_subcommand(self):
        assert run_proc("frobnicate").returncode == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("pr-signal", "--mode", "mc", "--n", "1"),
            ("jamming", "--jim", "z"),
            # A CSV report is written as it is built, but only after the run has sampled.
            ("pr-signal", "--mode", "mc", "--n", "1", "--format", "csv"),
            ("jamming", "--jim", "z", "--format", "csv"),
        ],
    )
    def test_out_of_memory_exits_2(self, args):
        # Petabytes of samples: the first allocation fails before any work starts.
        proc = run_proc(*args, "--trials", str(10**15))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: out of memory")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            ("pr-signal", "--mode", "mc", "--trials", "0"),
            ("ghz-signal", "--mode", "mc", "--n", "1", "--trials", str(10**15)),
            ("jamming", "--jim", "z", "--trials", str(10**15)),
        ],
        ids=["trials-0", "ghz-out-of-memory", "jamming-out-of-memory"],
    )
    def test_refused_csv_run_leaves_out_file_unchanged(self, tmp_path, args):
        """``--out`` opens its file only once the report's work is done, so a refusal never truncates it."""
        out = tmp_path / "report.csv"
        out.write_bytes(b"an earlier report\n")
        proc = run_proc(*args, "--format", "csv", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert out.read_bytes() == b"an earlier report\n"

    def test_out_into_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.csv"
        argv = ["jamming", "--jim", "x", "--n", "1", "--trials", "10", "--format", "csv", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: {str(out)!r}\n")
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ("pr-signal", "--mode", "mc", "--n", "1", "--trials", str(2**63)),
            ("pr-signal", "--mode", "mc", "--n", "1", "--trials", str(2**62)),
            ("jamming", "--jim", "x", "--trials", str(10**30)),
        ],
        ids=["pr-2^63", "pr-2^62", "jamming-10^30"],
    )
    def test_trials_too_large_to_sample_exits_2(self, capsys, args):
        # Past numpy's largest array: refused before any allocation, naming trials.
        assert main(list(args)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: trials must be at most ") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize(
        "args", [("jamming", "--jim", "z"), ("pr-signal", "--mode", "mc")], ids=["jamming", "pr-signal"]
    )
    def test_seed_must_fit_in_64_bits(self, capsys, args, seed):
        assert main([*args, "--trials", "10", "--seed", seed]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: seed must fit in 64 bits\n"

    @pytest.mark.parametrize("trials", ["0", "-1"])
    @pytest.mark.parametrize("mode", ["exact", "mc"])
    @pytest.mark.parametrize("command", ["pr-signal", "tsirelson", "ghz-signal"])
    def test_trials_must_be_positive(self, capsys, command, mode, trials):
        """Exact runs ignore ``--trials`` but still refuse one below 1, as sampled runs do."""
        assert main([command, "--mode", mode, "--trials", trials]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: trials must be positive\n"

    def test_invariant_violation_exits_3(self, capsys, monkeypatch):
        """Stabilizers that fix no state end with exit 3 and no report: XXX = +1 contradicts the other three."""
        xxx, _ = quantum.GHZ_STABILIZERS[3]
        monkeypatch.setattr(ensembles, "GHZ_STABILIZERS", (*quantum.GHZ_STABILIZERS[:3], (xxx, 1)))
        assert main(["ghz-signal", "--mode", "mc", "--n", "2", "--trials", "10"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "invariant violation: stabilizers give X*X*X both signs\n"

    def test_large_n_allowed_in_sampled_mode(self, tmp_path):
        report = run_json(
            tmp_path, "pr-signal", "--n", "30", "--mode", "mc", "--trials", "200"
        )
        assert report["results"]["verdict"]["N"] == 30

    @pytest.mark.parametrize("command", ["pr-signal", "tsirelson", "ghz-signal"])
    def test_large_n_with_few_trials(self, tmp_path, monkeypatch, command):
        # The (N+1)^2 grid has 4e8 cells; a histogram holds only the trials' cells.
        calls = spy_calls(monkeypatch, EnsembleRun, "empirical")
        report = run_json(tmp_path, command, "--n", "20000", "--mode", "mc", "--trials", "50")
        assert report["results"]["verdict"]["N"] == 20000
        assert calls


# Integers at each edge the CLI checks: zero, the signs, the exact cap, and 64-bit overflow,
# and one word that is no integer.  Any pair of the small ones keeps trials x N at most 625;
# a run with a huge one is refused or fails its first allocation at once.
_EDGE_INTS = [0, 1, -1, 6, EXACT_MAX_ROUNDS, EXACT_MAX_ROUNDS + 1, 2**63 - 1, 2**63, -(2**63), 2**64, 2**64 + 1, 10**30]
_INT_ARGS = st.sampled_from([*map(str, _EDGE_INTS), "x"])


@st.composite
def _argvs(draw):
    """One subcommand's argv, with edge-valued --n, --trials and --seed, in either format."""
    command = draw(st.sampled_from(["pr-signal", "tsirelson", "ghz-signal", "jamming", "ghz-algebra"]))
    argv = [command]
    if command == "jamming":
        argv += ["--jim", draw(st.sampled_from(["x", "z"]))]
    elif command != "ghz-algebra":
        argv += ["--mode", draw(st.sampled_from(["exact", "mc"]))]
    if command != "ghz-algebra":
        argv += ["--n", draw(_INT_ARGS), "--trials", draw(_INT_ARGS)]
        if draw(st.booleans()):
            argv += ["--seed", draw(_INT_ARGS)]
    return argv + ["--format", draw(st.sampled_from(["json", "csv"]))]


def _assert_clean_exit(argv: list[str]) -> None:
    """``main(argv)`` exits 0 with a report that parses, or 2 or 3 with one ``error:`` or ``invariant violation:`` line.

    An argparse usage error exits 2 through SystemExit, after its usage text.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2 and out.getvalue() == ""
            assert ": error: " in err.getvalue().splitlines()[-1]
            return
    assert code in (0, 2, 3)
    if code:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(("error:", "invariant violation:")), err.getvalue()
    elif argv[-1] == "csv":
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}
        assert err.getvalue() == ""
    else:
        json.loads(out.getvalue())
        assert err.getvalue() == ""


@given(_argvs())
@example(["ghz-signal", "--mode", "exact", "--n", str(EXACT_MAX_ROUNDS), "--trials", "1", "--format", "csv"])
@example(["jamming", "--jim", "z", "--n", "1", "--trials", str(2**63), "--seed", str(2**64), "--format", "json"])
@settings(max_examples=150)
def test_bad_arguments_never_end_in_a_traceback(argv):
    _assert_clean_exit(argv)


_NUMBERS = st.one_of(
    st.floats(),
    st.integers(-3, 3),
    st.sampled_from([*_EDGE_INTS, 10**400, True, False, "0", "-1.5", "1e400", "nan", "t"]),
)


def _config_branches(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["t", "x", "y"]), inner, max_size=3)


_CONFIG_TREES = st.recursive(st.one_of(st.none(), _NUMBERS, st.text(max_size=6)), _config_branches, max_leaves=6)
_EVENTS = st.one_of(
    st.fixed_dictionaries({"t": _NUMBERS, "x": _NUMBERS}),
    st.fixed_dictionaries({}, optional={"t": _NUMBERS, "x": _NUMBERS, "y": _NUMBERS}),
    _CONFIG_TREES,
)
_MAPS = st.one_of(st.sampled_from(spacetime.MAP_NAMES), _CONFIG_TREES)
_OPTIONAL_SECTIONS = {"j_hat": _EVENTS, "beta": st.one_of(st.floats(-1, 1), _NUMBERS), "alice_map": _MAPS, "bob_map": _MAPS}
_CAUSAL_CONFIGS = st.one_of(
    st.fixed_dictionaries({"a_hat": _EVENTS, "b_hat": _EVENTS}, optional=_OPTIONAL_SECTIONS),
    st.fixed_dictionaries({}, optional={"a_hat": _EVENTS, "b_hat": _EVENTS, **_OPTIONAL_SECTIONS}),
    _CONFIG_TREES,
)


@pytest.fixture(scope="module")
def causal_config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("causal") / "config.json"


@given(config=_CAUSAL_CONFIGS)
@settings(max_examples=150)
def test_bad_causal_configs_never_end_in_a_traceback(causal_config_path, config):
    causal_config_path.write_text(json.dumps(config))
    _assert_clean_exit(["causal", "--config", str(causal_config_path), "--format", "json"])
