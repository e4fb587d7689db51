"""Compare the reports of two corrlab checkouts, command by command.

    python tools/report_diff.py PARENT_CHECKOUT CHANGE_CHECKOUT [--python INTERP]

Runs every command of ``commands()`` as ``python -m corrlab`` against each
checkout's ``src/``, with the checkout as working directory, and compares
the sha256 of stdout, the exit code and stderr.  ``--python`` runs the
change side under another interpreter, so one checkout can be diffed under
two Pythons; a run that ends in ``ModuleNotFoundError: No module named
'numpy'`` is then counted as skipped, not as differing.  The commands cover every
subcommand in json and csv, at default and small ``--trials``, and the
refused inputs, including causal configs written to a temporary directory
that both checkouts read, each subcommand written through
``--out /dev/stdout``, CSV reports across the 10^4-row block through both,
sampled JSON reports of a few trials at N = 10^6, and an ``--out`` into a
missing directory.  Prints one line per command that differs, then a
summary with the skipped count and ``wc -l src/corrlab/*.py`` of each
checkout; exits 1 if any command differs, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SCENARIO_COMMANDS = ("pr-signal", "tsirelson", "ghz-signal")
SCENARIO_FILES = (
    "causal_loop.json",
    "jammer_after_measurements.json",
    "jammer_inside_overlap.json",
    "jammer_outside_overlap.json",
    "timelike_separated_measurements.json",
)
_ORIGIN = {"t": 0, "x": 0}
_EAST = {"t": 0, "x": 1}
# Causal configs at the edges of what is accepted, by file name.
EDGE_CONFIGS = {
    "bool-t.json": {"a_hat": {"t": True, "x": 0}, "b_hat": _EAST},
    "bool-x.json": {"a_hat": {"t": 0, "x": False}, "b_hat": _EAST},
    "bool-beta.json": {"a_hat": _ORIGIN, "b_hat": _EAST, "beta": False},
    "string-beta.json": {"a_hat": _ORIGIN, "b_hat": _EAST, "beta": "0.5"},
    "null-beta.json": {"a_hat": _ORIGIN, "b_hat": _EAST, "beta": None},
    "nan-beta.json": {"a_hat": _ORIGIN, "b_hat": _EAST, "beta": "nan"},
    "huge-beta.json": {"a_hat": _ORIGIN, "b_hat": _EAST, "beta": 10**400},
    "huge-t.json": {"a_hat": {"t": 10**400, "x": 0}, "b_hat": _EAST},
    "edge-apex.json": {"a_hat": {"t": 1e308, "x": -1e308}, "b_hat": {"t": 1e308, "x": -1e308}},
    "wide-apex.json": {"a_hat": {"t": 1e308, "x": -5e307}, "b_hat": {"t": 1e308, "x": 5e307}},
    "beyond-apex.json": {"a_hat": {"t": 1e308, "x": 1e308}, "b_hat": {"t": 1e308, "x": -1e308}},
    "edge-jammer.json": {
        "a_hat": {"t": 1e308, "x": -1e308},
        "b_hat": {"t": 1e308, "x": -1e308},
        "j_hat": {"t": -9e307, "x": 1e308},
    },
    # The apex is a_hat as given, x = -0.0; the corner recomputed would print 0.0.
    "negative-zero-apex.json": {"a_hat": {"t": 1, "x": -0.0}, "b_hat": _ORIGIN},
    "lightlike-apex.json": {"a_hat": _ORIGIN, "b_hat": {"t": 1, "x": 1}, "j_hat": {"t": 1, "x": 1}},
    "beyond-apex-jammer.json": {
        "a_hat": {"t": 1e308, "x": 1e308},
        "b_hat": {"t": 1e308, "x": -1e308},
        "j_hat": _ORIGIN,
    },
    "subnormal-apex.json": {"a_hat": {"t": 0, "x": -5e-324}, "b_hat": {"t": 0, "x": 5e-324}, "j_hat": {"t": 0, "x": -5e-324}},
    "wide-reply.json": {"a_hat": {"t": 0, "x": -1e308}, "b_hat": {"t": 0, "x": 1e308}, "beta": 0.1},
    # Light-cone boundaries below float resolution at the coordinates.
    "tilted-jammer.json": {"a_hat": {"t": 0, "x": -1}, "b_hat": _EAST, "j_hat": {"t": 1e-17, "x": 1}},
    "slow-reply.json": {"a_hat": {"t": 1, "x": 0}, "b_hat": {"t": 1, "x": 1}, "beta": 1e-17},
    "decimal-apex.json": {"a_hat": {"t": 0.1, "x": 0.7}, "b_hat": {"t": 0.3, "x": -0.2}},
    "jammer-at-rounded-apex.json": {
        "a_hat": {"t": 0.1, "x": 0.7},
        "b_hat": {"t": 0.3, "x": -0.2},
        "j_hat": {"t": 0.65, "x": 0.14999999999999997},
    },
    "missing-x.json": {"a_hat": {"t": 0}, "b_hat": _EAST},
    "half-loop.json": {"alice_map": "echo"},
    "bad-map.json": {"alice_map": [], "bob_map": "echo"},
    "beta-alone.json": {"beta": 0.5},
    "empty.json": {},
    "list.json": [],
}
# The deepest config causal reads, cli._MAX_CONFIG_DEPTH, the outer object being level 1.
CONFIG_DEPTH_BOUND = 512


def _deep(arrays: int) -> str:
    """A causal config nested arrays + 1 levels deep."""
    return '{"a_hat": {"t": 0, "x": 0}, "b_hat": {"t": 0, "x": 1}, "deep": ' + "[" * arrays + "]" * arrays + "}"


# Causal config files that are not JSON objects, or nest near the interpreters' stack limits, by file name.
EDGE_TEXTS = {
    "invalid.json": "{not json",
    "deep-at-bound.json": _deep(CONFIG_DEPTH_BOUND - 1),
    "deep-past-bound.json": _deep(CONFIG_DEPTH_BOUND),
    "deep.json": _deep(988),
    "deep-995.json": _deep(995),
    "deep-1100.json": _deep(1100),
    "deep-5000.json": _deep(5000),
}


def commands(config_dir: str) -> list[list[str]]:
    """Every command to compare; the edge-case causal configs are read from ``config_dir``."""
    cmds: list[list[str]] = []
    for command in SCENARIO_COMMANDS:
        for fmt in ("json", "csv"):
            cmds += [[command, "--n", str(n), "--format", fmt] for n in (1, 2, 6, 7, 24)]
            for trials in (1, 2, 3, 300, 10_000):
                cmds += [
                    [command, "--mode", "mc", "--n", "6", "--trials", str(trials), "--seed", seed, "--format", fmt]
                    for seed in ("0", "5")
                ]
            cmds.append([command, "--mode", "mc", "--n", "20000", "--trials", "50", "--format", fmt])
            # The last N of uint8 and uint16 counts of -1 rounds, and the first of uint16 and uint32.
            cmds += [[command, "--mode", "mc", "--n", n, "--trials", "50", "--format", fmt] for n in ("255", "256", "65535", "65536")]
            # Trial counts one below, at and one above a histogram block of 2^14 trials.
            cmds += [[command, "--mode", "mc", "--n", "6", "--trials", str(t), "--format", fmt] for t in (16383, 16384, 16385)]
        # Two histogram blocks, the second of one trial: the sorted (B, B') and (A_x, B_x) grids merge them.
        cmds.append([command, "--mode", "mc", "--n", "1000", "--trials", "16385"])
        cmds += [
            [command, "--mode", "mc"],
            [command, "--mode", "mc", "--n", "60"],
            [command, "--mode", "mc", "--format", "csv"],
            [command, "--mode", "mc", "--n", "60", "--format", "csv"],
            [command, "--mode", "mc", "--n", "60", "--trials", "10000"],
            [command, "--mode", "mc", "--n", "1", "--trials", "1"],
            # Sampled grids at and one past the cell count where the histogram sorts.
            [command, "--mode", "mc", "--n", "3999", "--trials", "1000"],
            [command, "--mode", "mc", "--n", "4000", "--trials", "1000"],
            [command, "--n", "0"],
            [command, "--n", "30", "--mode", "exact"],
            [command, "--n", "x"],
            [command, "--mode", "mc", "--trials", "0"],
            [command, "--trials", "0"],
            [command, "--trials", "-1"],
            [command, "--mode", "mc", "--trials", "10", "--seed", "-1"],
            [command, "--mode", "mc", "--trials", str(10**15)],
            [command, "--help"],
        ]
    cmds.append(["ghz-signal", "--mode", "mc", "--n", "400"])
    # A few occupied cells of a 10^6-round grid: the atoms' texts cover only the digits that occur.
    cmds += [[command, "--mode", "mc", "--n", "1000000", "--trials", "20"] for command in SCENARIO_COMMANDS]
    # A joint (A_x, B_x, J) run on a grid past 2^62 cells: CSV prints all three components,
    # and the histogram reads the receivers' (A_x, B_x) marginal, on int64 cells.
    cmds.append(["ghz-signal", "--mode", "mc", "--n", "2000000", "--trials", "3", "--format", "csv"])
    # Trial counts past numpy's largest array: 2 int64 sums per trial, and 3 indicator words per 64 triplets.
    cmds += [["pr-signal", "--mode", "mc", "--n", "1", "--trials", str(t)] for t in (2**63, 2**62)]
    cmds.append(["jamming", "--jim", "x", "--trials", str(10**30)])
    # Rounds that fill one word, one word and a bit, and two words and two bits.
    for command in SCENARIO_COMMANDS:
        for n in ("64", "65", "130"):
            for seed in ("0", "5"):
                cmds += [[command, "--mode", "mc", "--n", n, "--seed", seed, "--format", fmt] for fmt in ("json", "csv")]
    # One sampled trial of one component per run: each run's CSV field table holds a single value.
    cmds.append(["tsirelson", "--mode", "mc", "--n", "3", "--trials", "1", "--format", "csv"])
    for fmt in ("json", "csv"):
        cmds.append(["ghz-algebra", "--format", fmt])
    for jim in ("x", "z"):
        cmds += [
            ["jamming", "--jim", jim],
            ["jamming", "--jim", jim, "--n", "1", "--trials", "1"],
            # Triplet counts that are not a multiple of 64: 63 and 65.
            ["jamming", "--jim", jim, "--n", "7", "--trials", "9"],
            ["jamming", "--jim", jim, "--n", "1", "--trials", "65"],
            # The fewest triplets whose last word has no tail: 64.
            *[["jamming", "--jim", jim, "--n", "1", "--trials", "64", "--format", fmt] for fmt in ("json", "csv")],
            ["jamming", "--jim", jim, "--trials", "300", "--format", "csv"],
            # Triplet indices of one to six digits.
            ["jamming", "--jim", jim, "--format", "csv"],
            ["jamming", "--jim", jim, "--n", "1", "--trials", "10", "--format", "csv"],
            ["jamming", "--jim", jim, "--n", "10", "--trials", "100", "--format", "csv"],
            ["jamming", "--jim", jim, "--trials", "0"],
            ["jamming", "--jim", jim, "--trials", str(10**15)],
        ]
    configs = [f"scenarios/{name}" for name in SCENARIO_FILES] + ["no-such-config.json"]
    configs += [os.path.join(config_dir, name) for name in (*EDGE_CONFIGS, *EDGE_TEXTS)]
    for config in configs:
        cmds += [["causal", "--config", config, "--format", fmt] for fmt in ("json", "csv")]
    cmds += [["--help"], ["ghz-algebra", "--help"], ["jamming", "--help"], ["causal", "--help"], ["frobnicate"], []]
    # Each subcommand written through --out, in each format it offers; the JSON config echo leaves --out out.
    cmds += [[c, "--format", fmt, "--out", "/dev/stdout"] for c in SCENARIO_COMMANDS for fmt in ("json", "csv")]
    cmds += [["jamming", "--jim", "z", "--trials", "300", "--format", fmt, "--out", "/dev/stdout"] for fmt in ("json", "csv")]
    cmds += [["ghz-algebra", "--out", "/dev/stdout"], ["causal", "--config", "scenarios/causal_loop.json", "--out", "/dev/stdout"]]
    # CSV rows one below, at and one above a 10^4-row block, and into a third block, through stdout and --out.
    block_csv = [
        [command, "--mode", "mc", "--n", "6", "--trials", str(t), "--format", "csv"]
        for command in ("pr-signal", "ghz-signal")
        for t in (9999, 10000, 10001, 20001)
    ]
    block_csv += [
        ["jamming", "--jim", jim, "--n", n, "--trials", t, "--format", "csv"]
        for jim in ("x", "z")
        for n, t in (("1", "10001"), ("7", "1429"))
    ]
    cmds += block_csv + [[*argv, "--out", "/dev/stdout"] for argv in block_csv]
    # --out into a directory that does not exist: exit 2, and no file.
    cmds.append(["pr-signal", "--mode", "mc", "--trials", "10001", "--format", "csv", "--out", os.path.join(config_dir, "no-such-dir", "report.csv")])
    return cmds


def write_configs(config_dir: str) -> None:
    for name, obj in EDGE_CONFIGS.items():
        Path(config_dir, name).write_text(json.dumps(obj))
    for name, text in EDGE_TEXTS.items():
        Path(config_dir, name).write_text(text)


def run(checkout: Path, argv: list[str], python: str = sys.executable) -> tuple[int, str, str]:
    """(exit code, sha256 of stdout, stderr) of ``python -m corrlab`` on the checkout's source."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(checkout / "src")
    env["COLUMNS"] = "80"
    proc = subprocess.run(
        [python, "-m", "corrlab", *argv], cwd=checkout, env=env, capture_output=True
    )
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), proc.stderr.decode(errors="replace")


def line_counts(checkout: Path) -> str:
    """The output of ``wc -l src/corrlab/*.py`` in the checkout."""
    files = sorted(str(f.relative_to(checkout)) for f in (checkout / "src" / "corrlab").glob("*.py"))
    return subprocess.run(["wc", "-l", *files], cwd=checkout, capture_output=True, text=True, check=True).stdout


NO_NUMPY = "ModuleNotFoundError: No module named 'numpy'\n"


def compare(parent: tuple[int, str, str], change: tuple[int, str, str]) -> str:
    """The verdict on one command: "skipped" when either run ended for want of numpy, else "identical" or "differ"."""
    if any(run[2].endswith(NO_NUMPY) for run in (parent, change)):
        return "skipped"
    return "identical" if parent == change else "differ"


def describe(parent: tuple[int, str, str], change: tuple[int, str, str]) -> str:
    parts = []
    if parent[0] != change[0]:
        parts.append(f"exit {parent[0]} -> {change[0]}")
    if parent[1] != change[1]:
        parts.append(f"stdout sha256 {parent[1][:12]} -> {change[1][:12]}")
    if parent[2] != change[2]:
        parts.append(f"stderr {parent[2]!r} -> {change[2]!r}")
    return "; ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--python", default=sys.executable, metavar="INTERP", help="interpreter for the change side")
    args = parser.parse_args(argv)
    checkouts = (args.parent.resolve(), args.change.resolve())
    sides = tuple(zip(checkouts, (sys.executable, args.python)))
    with tempfile.TemporaryDirectory(prefix="report_diff_") as config_dir:
        write_configs(config_dir)
        cmds = commands(config_dir)
        # Two processes at a time: each command on both sides.
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(lambda job: run(*job), [(c, argv, py) for argv in cmds for c, py in sides]))
    verdicts = {"identical": 0, "differ": 0, "skipped": 0}
    for i, argv in enumerate(cmds):
        parent, change = results[2 * i], results[2 * i + 1]
        verdict = compare(parent, change)
        verdicts[verdict] += 1
        if verdict == "differ":
            print(f"DIFF corrlab {shlex.join(argv)}: {describe(parent, change)}")
    print(f"{len(cmds)} commands, " + ", ".join(f"{n} {verdict}" for verdict, n in verdicts.items()))
    for checkout in checkouts:
        print(f"\nwc -l src/corrlab/*.py in {checkout}:\n{line_counts(checkout)}", end="")
    return 1 if verdicts["differ"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
