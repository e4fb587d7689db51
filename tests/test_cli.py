from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corrlab
import oracles
from corrlab import cli, ensembles, signaling
from corrlab.cli import main
from corrlab.ensembles import (
    EnsembleRun,
    ExactDistribution,
    RunMode,
    ScenarioKind,
    run_jamming_scenario,
)
from corrlab.signaling import SignalingVerdict, Statistic, verdict

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


def run_proc(*args):
    return subprocess.run(
        [sys.executable, "-m", "corrlab", *args], capture_output=True, text=True
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
        assert [len(next(iter(round_pmf))) for round_pmf, _ in calls] == [2, 2]

    def test_exact_csv_prints_the_whole_joint(self, tmp_path, monkeypatch):
        calls = spy_calls(monkeypatch, ensembles, "convolve_iid_rounds")
        code, text = run_cli(tmp_path, "ghz-signal", "--n", "4", "--format", "csv")
        assert code == 0
        header, *rows = text.splitlines()
        assert header == "choice,A_x,B_x,J_x,numerator,denominator"
        assert {len(row.split(",")) for row in rows} == {6}
        assert {row.split(",")[0] for row in rows} == {"u", "p"}
        assert sorted(len(next(iter(round_pmf))) for round_pmf, _ in calls) == [2, 2, 3, 3]


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
        """No report projects a distribution: ghz-signal computes its receivers' directly."""
        calls = spy_calls(monkeypatch, ExactDistribution, "marginal")
        code, _ = run_cli(tmp_path, command, "--n", "3", "--mode", mode, "--trials", "200")
        assert code == 0
        assert len(calls) == 0


class TestGhzAlgebraCommand:
    def test_report(self, tmp_path):
        report = run_json(tmp_path, "ghz-algebra")
        results = report["results"]
        expectations = {s["observable"]: s["expectation"] for s in results["stabilizers"]}
        assert expectations["Y*X*Y"] == pytest.approx(1.0)
        assert expectations["X*X*X"] == pytest.approx(-1.0)
        assert all(v < 1e-12 for v in results["commutator_norms"].values())
        assert results["pair_products"]["xx_times_yy"] == pytest.approx(-1.0)
        assert results["pair_products"]["xy_times_yx"] == pytest.approx(1.0)
        assert results["assignment_search"] == {
            "full_constraints_solutions": 0,
            "positive_constraints_solutions": 8,
        }
        assert all(report["checks"].values())

    def test_no_csv_available(self):
        proc = run_proc("ghz-algebra", "--format", "csv")
        assert proc.returncode == 2
        assert "csv output is not available" in proc.stderr


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
    """A sampled verdict that carries the given runs and their empirical pmfs."""
    run = next(iter(runs.values()))
    return SignalingVerdict(
        scenario=ScenarioKind.TSIRELSON,
        n_rounds=run.n_rounds,
        mode=RunMode.MONTE_CARLO,
        statistic=Statistic.TOTAL_VARIATION,
        values=(0.0, 0.0),
        distinguishable=False,
        threshold=0.0,
        seed=run.seed,
        trials=run.trials,
        distributions=signaling._distributions(runs, RunMode.MONTE_CARLO),
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


class TestCsvMatchesWriter:
    """CSV reports are byte-identical to the ``csv.writer`` rendering of one row per record."""

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(1, 3),
        n=st.integers(1, 200),
        trials=st.integers(1, 300),
        runs=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=3, n=1, trials=1, runs=1, seed=0)
    @example(k=2, n=7, trials=300, runs=4, seed=1)
    @example(k=1, n=200, trials=2, runs=2, seed=2)
    def test_sampled(self, k, n, trials, runs, seed):
        rng = np.random.default_rng(seed)
        labels = ("A_x", "B_x", "J_x")[:k]
        samples = {}
        for choice in ("z|u", "z|p", "x|u", "x|p")[:runs]:
            sums = n - 2 * rng.integers(0, n + 1, size=(trials, k))
            sums[0], sums[-1] = n, -n  # both ends of the lattice
            samples[choice] = EnsembleRun(labels=labels, sums=sums, n_rounds=n, seed=seed)
        v = sampled_verdict(samples)
        assert_same_text(cli._dist_csv(v), oracles.render_csv_by_writer(v))

    @settings(max_examples=50, deadline=None)
    @given(
        jim=st.sampled_from(["x", "z"]),
        n=st.integers(1, 20),
        trials=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(jim="z", n=1, trials=1, seed=0)
    def test_jamming(self, jim, n, trials, seed):
        records = run_jamming_scenario(n, jim, trials, seed)
        assert_same_text(cli._jamming_csv(records), oracles.render_csv_by_writer(records))

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(list(ScenarioKind)), n=st.integers(1, 24))
    @example(kind=ScenarioKind.GHZ, n=24)
    @example(kind=ScenarioKind.TSIRELSON, n=1)
    @example(kind=ScenarioKind.PR_BOX, n=7)
    def test_exact(self, kind, n):
        v = verdict(kind, n, RunMode.EXACT, None, 0, joint=True)
        assert_same_text(cli._dist_csv(v), oracles.render_csv_by_writer(v))


# sha256 of each report's stdout, recorded with the csv.writer renderer.
CSV_REPORT_DIGESTS = [
    (
        ("pr-signal", "--mode", "mc", "--n", "6", "--trials", "10000", "--seed", "0"),
        "80668e0a469c3c0469cc5a019764ff2a8484652f688bc17a9a489a7830e82ca7",
    ),
    (
        ("tsirelson", "--mode", "mc", "--n", "6", "--trials", "10000", "--seed", "0"),
        "4f4e77a7e4694740214de1e72b821c667b50bd448f429c3b81b5ab6f70f26644",
    ),
    (
        ("ghz-signal", "--mode", "mc", "--n", "6", "--trials", "10000", "--seed", "0"),
        "9cbaf7a7e503a783a121631d905e6e8b5ef61c04a34a509f06565ef9a806b65d",
    ),
    (
        ("jamming", "--jim", "z", "--n", "6", "--trials", "10000"),
        "1e21337f901d06174875e52e42ee9d375a559fa9ab2e2f642ef6d34f4ac15167",
    ),
    (
        ("ghz-signal", "--n", "24"),
        "660c289bf297c81102969884283b9659faad277b662389801fe4635399e57a7c",
    ),
]


@pytest.mark.parametrize("args, digest", CSV_REPORT_DIGESTS, ids=["pr-mc", "tsirelson-mc", "ghz-mc", "jamming-z", "ghz-exact-24"])
def test_csv_reports_are_pinned(capsys, args, digest):
    assert main([*args, "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of each JSON report's stdout, recorded while ghz-signal still
# projected the receivers out of the whole (A_x, B_x, J) joint.
JSON_REPORT_DIGESTS = [
    (("ghz-signal", "--n", "1"), "5fcf431f017df14d4fddd4b6c04d82a326ec71db0926c6ba3d835d44887aa212"),
    (("ghz-signal", "--n", "6"), "a04c021c52dc29bce01c2981abf5186b53467d25c34d25195fa4be7108d095be"),
    (("ghz-signal", "--n", "24"), "b5ab99b33fb819fd6933ee9555ba89c1fba90b5e252712d3b23f02589fc0f36f"),
    (
        ("ghz-signal", "--mode", "mc", "--n", "6", "--trials", "10000", "--seed", "0"),
        "3fda914631b783296eeaf10ec1b37df8c1d98d2bdfa35ec6a6e6f4396068ccde",
    ),
    (
        ("ghz-signal", "--mode", "mc", "--n", "60", "--trials", "10000", "--seed", "0"),
        "005dee521151699d9e2d605d085d9ab339d07e1c01497a2823b1c74aec7fc240",
    ),
]


@pytest.mark.parametrize("args, digest", JSON_REPORT_DIGESTS, ids=["ghz-exact-1", "ghz-exact-6", "ghz-exact-24", "ghz-mc-6", "ghz-mc-60"])
def test_json_reports_are_pinned(capsys, args, digest):
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

    @pytest.mark.parametrize("beta", [None, [1], {}], ids=["null", "list", "object"])
    def test_beta_must_be_a_number(self, tmp_path, capsys, beta):
        config = tmp_path / "beta.json"
        config.write_text(json.dumps({"a_hat": {"t": 0, "x": 0}, "b_hat": {"t": 0, "x": 1}, "beta": beta}))
        assert main(["causal", "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: beta must be a number\n"

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
        package_root = str(Path(corrlab.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "ghz-algebra"],
            capture_output=True,
            cwd=tmp_path,
            env=env,
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
        ],
    )
    def test_out_of_memory_exits_2(self, args):
        # Petabytes of samples: the first allocation fails before any work starts.
        proc = run_proc(*args, "--trials", str(10**15))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: out of memory")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize(
        "args", [("jamming", "--jim", "z"), ("pr-signal", "--mode", "mc")], ids=["jamming", "pr-signal"]
    )
    def test_seed_must_fit_in_64_bits(self, capsys, args, seed):
        assert main([*args, "--trials", "10", "--seed", seed]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: seed must fit in 64 bits\n"

    def test_large_n_allowed_in_sampled_mode(self, tmp_path):
        report = run_json(
            tmp_path, "pr-signal", "--n", "30", "--mode", "mc", "--trials", "200"
        )
        assert report["results"]["verdict"]["N"] == 30
