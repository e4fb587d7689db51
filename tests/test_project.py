"""Checks that tie the package to the files around it: README's example, the benchmark's spans,
a consumer inside the package for every public name, the numpy pin and its one importer."""

from __future__ import annotations

import ast
import importlib.util
import json
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import corrlab
from child_env import child_env
from corrlab import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(corrlab.__file__).resolve().parent.parent


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


# Runs in a fresh interpreter, so the wrappers that install() puts on corrlab
# never reach another test.
_TRACED_REPORTS = """
import contextlib, importlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import spans
from corrlab import cli, quantum

tracer = spans.Tracer()
# The CLI imports a layer only when a command runs it; the benchmark wraps the layers after its warm-up has run them all.
spans.install(tracer, {layer: importlib.import_module(f"corrlab.{layer}") for layer in spans.LAYERS})
with contextlib.redirect_stdout(io.StringIO()):
    codes = tracer.run_root(lambda: [
        cli.main(["ghz-signal", "--n", "4"]),
        cli.main(["tsirelson", "--n", "4"]),
        cli.main(["pr-signal", "--mode", "mc", "--n", "3", "--trials", "200"]),
        len(quantum.sequential_measure(
            quantum.ghz_state(),
            (quantum.PauliObservable(("X", "X", "I")), quantum.PauliObservable(("Y", "Y", "I"))),
            np.random.default_rng(0),
        )),
    ])
tracer.verify()
print(json.dumps({"codes": codes, "calls": dict(tracer.calls)}))
"""


def test_benchmark_spans_find_their_functions():
    """The names the benchmark's per-layer metrics wrap still exist and still run in reports.

    The traced run holds two exact reports, one sampled report and one
    sequential measurement of a GHZ pair, so inlining or renaming a wrapped
    function fails here instead of zeroing its metric.  The exact Tsirelson
    report is the one whose box rows reach ``joint_probabilities``.  Each JSON report is
    one ``dump_report`` span around one ``encode`` span, so a writer that
    skips ``encode``, or reaches it once per node, fails here too.  Every
    pinned runner and verdict span the three reports reach must fire, so a
    report that routes around one fails here, not only under ``--trace 1``.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_REPORTS, str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 2]
    for name in (
        "quantum.sequential_measure",
        "quantum.measure",
        "quantum.joint_probabilities",
        "ensembles.convolve_iid_rounds",
        "ensembles.ExactDistribution.__post_init__",
        "ensembles.EnsembleRun.empirical",
        "signaling.total_variation",
        "ensembles.run_ghz_scenario[exact]",
        "ensembles.run_tsirelson_scenario[exact]",
        "ensembles.run_pr_scenario[mc]",
        "signaling.pr_verdict",
        "signaling.tsirelson_verdict",
        "signaling.ghz_verdict",
        "signaling.verdict",
        "boxes.chsh_value",
        "boxes.check_no_signaling",
    ):
        assert result["calls"].get(name, 0) > 0, name
    for name in ("reportio.dump_report", "reportio.encode"):
        assert result["calls"].get(name, 0) == 3, name


# Public names that no code in the package calls, each kept for its reason.
UNCALLED_PUBLIC_NAMES = {
    "sequential_measure": "benchmark entry point: perfbench's small-reports batches call it",
    "sums": "benchmark contract: perfbench/spans.py:_observe_scenario reads result.sums",
    "outcomes": "benchmark contract: perfbench/spans.py:_observe_jamming reads result.outcomes",
    "error": "argparse hook: ArgumentParser calls cli._Parser.error on every refused argument",
}


def _public_definitions(tree: ast.Module):
    """Each public module-level function and class, and each public method or property of a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def _references(tree: ast.AST) -> Counter:
    """How often each identifier is read: as a bare name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_public_names_have_a_consumer():
    """Every public name in the package is read somewhere in it outside its own definition.

    A name only tests reach is a hook; delete it, or put it on the allowlist with its reason.
    """
    trees = {path.name: ast.parse(path.read_text()) for path in sorted((SRC / "corrlab").glob("*.py"))}
    read = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}:{qualname}"
        for module, tree in trees.items()
        for qualname, node in _public_definitions(tree)
        if node.name not in UNCALLED_PUBLIC_NAMES and read[node.name] == _references(node)[node.name]
    ]
    assert not unused, f"public names with no consumer in the package: {unused}"


def test_exception_types_are_caught():
    """Every exception class the package defines is named by an ``except`` clause in it.

    The public-name check counts ``raise X(...)`` as a read, so it cannot
    find a type that is raised but never told apart from ``ValueError``.
    """
    caught = Counter()
    for path in (SRC / "corrlab").glob("*.py"):
        for handler in ast.walk(ast.parse(path.read_text())):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                caught += _references(handler.type)
    modules = [importlib.import_module(f"corrlab.{path.stem}") for path in (SRC / "corrlab").glob("*.py") if path.stem != "__main__"]
    defined = [
        (module.__name__, name)
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__
    ]
    uncaught = sorted(f"{module}.{name}" for module, name in defined if not caught[name])
    assert defined and not uncaught, f"exception types no except clause names: {uncaught}"


def test_cli_holds_no_tolerance_or_bound():
    """``cli`` is transport: every tolerance and statistical bound lives in the module that owns the report section."""
    tree = ast.parse((SRC / "corrlab" / "cli.py").read_text())
    floats = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, float)]
    sqrts = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "sqrt" or isinstance(node, ast.Name) and node.id == "sqrt"
    ]
    assert floats == [] and sqrts == [], (floats, sqrts)


def _scenario_tables(path: Path):
    """Each dict display or comprehension in the module that names ``ScenarioKind``, by the name it is bound to."""
    tree = ast.parse(path.read_text())
    bound = {
        id(node.value): target.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.Dict, ast.DictComp)) and _references(node)["ScenarioKind"]:
            yield f"{path.stem}.{bound.get(id(node), f'<line {node.lineno}>')}"


def test_only_the_verdict_layer_and_cli_name_scenarios():
    """The run layer takes a spec that names no scenario: ``ScenarioKind`` is read only by ``signaling`` and ``cli``.

    And only one table is keyed on it: the verdict of each scenario.  The
    CLI's table names each subcommand's member by its name, and reads the
    member only when the subcommand runs.
    """
    paths = sorted((SRC / "corrlab").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    naming = {
        name
        for name, tree in trees.items()
        if _references(tree)["ScenarioKind"]
        or any(
            isinstance(node, ast.ClassDef) and node.name == "ScenarioKind"
            or isinstance(node, ast.ImportFrom) and any(alias.name == "ScenarioKind" for alias in node.names)
            for node in ast.walk(tree)
        )
    }
    assert naming == {"signaling.py", "cli.py"}, naming
    tables = sorted(table for path in paths for table in _scenario_tables(path))
    assert tables == ["signaling._VERDICTS"], tables


def test_numpy_pin_admits_the_installed_numpy():
    """pyproject's numpy floor is met by the numpy under test and has the ``bitwise_count`` sampling needs.

    ``np.bitwise_count`` first shipped in numpy 2.0.
    """
    pins = re.findall(r'"numpy>=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert len(pins) == 1
    floor = tuple(map(int, pins[0]))
    installed = tuple(map(int, re.match(r"(\d+)\.(\d+)", np.__version__).groups()))
    assert (2, 0) <= floor <= installed
    assert hasattr(np, "bitwise_count")


def test_only_the_lazy_module_imports_numpy():
    """``corrlab._numpy`` alone decides when numpy loads; every other module reads its ``np``."""
    importers = sorted(
        f"{path.name}:{node.lineno}"
        for path in (SRC / "corrlab").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
    )
    assert {site.split(":")[0] for site in importers} == {"_numpy.py"}, importers


def _report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
    report_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_diff)
    return report_diff


def test_report_diff_covers_every_subcommand():
    """tools/report_diff.py runs each subcommand in both formats, through --out too, and causal on every shipped config."""
    report_diff = _report_diff()
    cmds = report_diff.commands("edge")

    def formats(argvs):
        return {(argv[0], argv[argv.index("--format") + 1] if "--format" in argv else "json") for argv in argvs}

    runs = [argv for argv in cmds if argv and argv[0] in cli._COMMANDS]
    # Besides the one format argparse refuses.
    assert formats(runs) == {(command, fmt) for command in cli._COMMANDS for fmt in ("json", "csv")} | {("pr-signal", "xml")}
    # Every report the subcommand can write, also through --out.
    written = formats(argv for argv in runs if "--out" in argv)
    assert written == {(command, "json") for command in cli._COMMANDS} | {(command, "csv") for command in cli._CSV_COMMANDS}
    configs = {argv[2] for argv in cmds if argv[:2] == ["causal", "--config"]}
    assert {f"scenarios/{path.name}" for path in (ROOT / "scenarios").glob("*.json")} <= configs
    assert {f"edge/{name}" for name in (*report_diff.EDGE_CONFIGS, *report_diff.EDGE_TEXTS)} <= configs
    assert len(cmds) == len({tuple(argv) for argv in cmds})
    # A sampled CSV run of fewer trials than rounds, whose sums cover only part of the lattice.
    assert any(
        int(argv[argv.index("--n") + 1]) > int(argv[argv.index("--trials") + 1])
        for argv in cmds
        if {"mc", "csv", "--n", "--trials"} <= set(argv)
    )


_NO_NUMPY_TRACEBACK = (
    "Traceback (most recent call last):\n"
    '  File "<frozen runpy>", line 198, in _run_module_as_main\n'
    "    import numpy\n"
    "ModuleNotFoundError: No module named 'numpy'\n"
)


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        ((0, "aa", ""), (0, "aa", ""), "identical"),
        ((0, "aa", ""), (1, "e3b0", _NO_NUMPY_TRACEBACK), "skipped"),
        ((1, "e3b0", _NO_NUMPY_TRACEBACK), (1, "e3b0", _NO_NUMPY_TRACEBACK), "skipped"),
        ((0, "aa", ""), (0, "bb", ""), "differ"),
        ((2, "e3b0", "error: beta must be a number\n"), (2, "e3b0", "error: beta must be a number.\n"), "differ"),
        ((0, "aa", ""), (1, "e3b0", _NO_NUMPY_TRACEBACK.replace("'numpy'", "'sympy'")), "differ"),
        ((0, "aa", ""), (1, "e3b0", _NO_NUMPY_TRACEBACK + "\nDuring handling of the above exception:\nKeyError\n"), "differ"),
    ],
    ids=["same", "change-lacks-numpy", "both-lack-numpy", "stdout", "stderr", "other-module", "numpy-not-last"],
)
def test_report_diff_skips_only_runs_that_end_for_want_of_numpy(parent, change, verdict):
    assert _report_diff().compare(parent, change) == verdict


def test_report_diff_runs_the_change_side_under_another_interpreter(tmp_path, monkeypatch, capsys):
    """Under an interpreter whose numpy is missing, a command that needs numpy is skipped and the rest compared."""
    report_diff = _report_diff()
    hidden = tmp_path / "hidden"
    (hidden / "numpy").mkdir(parents=True)
    (hidden / "numpy" / "__init__.py").write_text("raise ModuleNotFoundError(\"No module named 'numpy'\", name='numpy')\n")
    interp = tmp_path / "python-without-numpy"
    interp.write_text(f'#!/bin/sh\nPYTHONPATH="{hidden}:$PYTHONPATH" exec {shlex.quote(sys.executable)} "$@"\n')
    interp.chmod(0o755)
    cmds = [["pr-signal", "--mode", "mc", "--n", "1", "--trials", "1"], ["causal", "--config", "scenarios/causal_loop.json"]]
    monkeypatch.setattr(report_diff, "commands", lambda config_dir: cmds)
    assert report_diff.main([str(ROOT), str(ROOT), "--python", str(interp)]) == 0
    out = capsys.readouterr().out
    assert "2 commands, 1 identical, 0 differ, 1 skipped\n" in out
    total = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "corrlab").glob("*.py"))
    assert f"1 skipped\nsrc/corrlab/*.py: {total} -> {total} lines (+0)\n" in out
