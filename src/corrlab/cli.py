"""Command-line front end.

Subcommands run the ensemble scenarios, the three-party algebra checks,
and the causal-geometry analyses, emitting deterministic JSON (or CSV
sample tables) so identical invocations produce byte-identical reports.

Each ``cmd_*`` handler returns its report's results, checks and CSV
blocks, having done all of its report's work; ``main`` alone builds the
JSON envelope, whose ``config`` echoes every parsed flag except ``--out``,
plus the object ``causal`` read.  ``main`` writes a CSV report block by
block as ``_table_blocks`` builds it, 10^4 sampled rows at a time, so its
memory is the run's per-trial counts plus one block, not the whole text.

Importing this module, parsing the arguments and running exact
``pr-signal`` or ``ghz-signal`` or ``causal`` never load numpy, which
``_numpy`` loads on first use: the sampled tables here and the sampled
runs behind them load it, and ``tsirelson`` and ``ghz-algebra`` load it
through the float simulator in ``quantum``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

from . import quantum, spacetime
from ._numpy import np
from .ensembles import EXACT_MAX_ROUNDS, JammingRecords, RunMode, ScenarioKind, run_jamming_scenario
from .errors import InvariantViolation
from .reportio import SCHEMA_VERSION, dump_report
from .signaling import SignalingVerdict, jamming_unary_exact, verdict

# The deepest causal config read, the outer value being level 1: far below the depth
# at which any supported interpreter's json.loads, or the report writer echoing the
# config, runs out of stack, so every interpreter refuses the same configs.
_MAX_CONFIG_DEPTH = 512
_JSON_STRINGS = re.compile(r'"(?:[^"\\]|\\.)*"')
_NOT_BRACKETS = re.compile(r"[^\[\]{}]+")


def _nesting_depth(text: str) -> int:
    """How deep the brackets of a JSON text nest, the outer value being level 1; brackets in strings do not count."""
    brackets = _NOT_BRACKETS.sub("", _JSON_STRINGS.sub("", text))
    return max(itertools.accumulate(1 if c in "[{" else -1 for c in brackets), default=0)


# Rows per CSV block.  A power of ten, so the low digits of every block's row indices
# are the same 0..9999: past block 0 they are zero-padded and the block number leads them.
_BLOCK_ROWS = 10_000
_BLOCK_DIGITS = 4


@functools.cache
def _block_digits(padded: bool) -> np.ndarray:
    """The read-only (10^4, 4) uint8 text of 0..9999, each leading zero a ``0`` if ``padded`` else a NUL."""
    places = 10 ** np.arange(_BLOCK_DIGITS - 1, -1, -1)
    rows = np.arange(_BLOCK_ROWS)[:, None]
    digits = (rows // places % 10 + ord("0")).astype(np.uint8)
    if not padded:
        digits[(rows < places) & (places > 1)] = 0
    digits.flags.writeable = False
    return digits


def _table_blocks(
    prefix: str, tables: list[np.ndarray], rows: int, codes: Callable[[int, int], Iterable[np.ndarray]]
) -> Iterator[str]:
    """The text of ``rows`` lines, 10^4 at a time: ``prefix``, the index, ``tables[c][code]`` for each c, a newline.

    ``codes(start, stop)`` gives each table's codes for the lines start..stop-1.
    A table is an ``S`` array of field text, leading comma included, so the
    text of a value is built once, not once per line.  A block is one
    (lines, width) uint8 matrix: the prefix, with the block number after it
    past block 0, the lines' low index digits read from ``_block_digits``,
    one gather per table, NUL-padded to its widest field, and a newline
    column.  Dropping every NUL in one pass leaves the block's text.
    """
    width = sum(table.itemsize for table in tables) + 1
    for start in range(0, rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, rows)
        block = start // _BLOCK_ROWS
        head = np.frombuffer(f"{prefix}{block or ''}".encode("ascii"), np.uint8)
        column = head.size + _BLOCK_DIGITS
        matrix = np.empty((stop - start, column + width), np.uint8)
        matrix[:, : head.size] = head
        matrix[:, head.size : column] = _block_digits(block > 0)[: stop - start]
        for table, code in zip(tables, codes(start, stop)):
            matrix[:, column : column + table.itemsize] = table.take(code).view(np.uint8).reshape(-1, table.itemsize)
            column += table.itemsize
        matrix[:, column] = ord("\n")
        text = matrix.ravel()
        yield str(text[text != 0], "ascii")


def _csv_columns(runs) -> list[str]:
    """Each component's column name: its label, or its axis-free stem where the runs' labels differ.

    Bob's z and x runs name his component ``bob``, Jim's x and y runs ``J``;
    the choice column says which axis each row holds.
    """
    columns = zip(*(run.labels for run in runs))
    return [col[0] if len(set(col)) == 1 else col[0].rsplit("_", 1)[0] for col in columns]


def _dist_csv(v: SignalingVerdict) -> Iterator[str]:
    """The CSV blocks of exact pmf rows, or of one row per sampled trial, for each run.

    A sampled run's rows come 10^4 at a time from ``_table_blocks``: the
    choice, the trial index and each component's collective, looked up by
    its count m of -1 rounds in the field text of (N - 2m) / N for only the
    counts from the run's least to its greatest.
    """
    labels = _csv_columns(v.runs.values())
    if v.mode is RunMode.EXACT:
        yield ",".join(["choice", *labels, "numerator", "denominator"]) + "\n"
        yield "".join(
            ",".join([choice, *point, str(num), str(den)]) + "\n"
            for choice, dist in v.runs.items()
            for point, num, den in dist.atoms()
        )
        return
    yield ",".join(["choice", "trial", *labels]) + "\n"
    for choice, run in v.runs.items():
        negatives = run.negatives
        n, lo, hi = run.n_rounds, int(negatives.min()), int(negatives.max())
        tables = [np.array([f",{(n - 2 * m) / n!r}".encode("ascii") for m in range(lo, hi + 1)])] * len(negatives)
        yield from _table_blocks(f"{choice},", tables, negatives.shape[1], lambda i, j: negatives[:, i:j] - lo)


# Each triplet's row text after its index, by its code: the outcome it indexes in ``outcome_tuples(3)``.
_JAMMING_ROWS = [",{},{},{}".format(*outcome).encode("ascii") for outcome in quantum.outcome_tuples(3)]


def _jamming_csv(records: JammingRecords) -> Iterator[str]:
    """The CSV blocks of one row per triplet: its index and its (a_x, b_x, j) outcomes.

    Each block of ``_table_blocks`` reads only its own triplets' codes from
    ``JammingRecords.codes``, each the index of its row in ``_JAMMING_ROWS``.
    """
    yield "triplet,a_x,b_x,j\n"
    yield from _table_blocks("", [np.array(_JAMMING_ROWS)], records.trials, lambda i, j: [records.codes(i, j)])


# Each scenario subcommand: the box it runs and its help text.
_SCENARIOS = {
    "pr-signal": (ScenarioKind.PR_BOX, "classical-limit signaling test for the maximal bipartite box"),
    "tsirelson": (ScenarioKind.TSIRELSON, "classical-limit signaling test for the Bell-state box"),
    "ghz-signal": (ScenarioKind.GHZ, "three-party rare-event signaling test"),
}


def cmd_scenario(args) -> tuple[dict, dict, Iterable[str] | None]:
    """pr-signal, tsirelson and ghz-signal: one verdict, which holds the report's results and checks."""
    kind = _SCENARIOS[args.command][0]
    # A CSV report prints each run's every component; a JSON one only what its verdict compared.
    v = verdict(kind, args.n, RunMode(args.mode), args.trials, args.seed, joint=args.format == "csv")
    return {**v.results, "verdict": v.to_json_obj()}, v.checks, _dist_csv(v) if args.format == "csv" else None


def cmd_ghz_algebra(args) -> tuple[dict, dict, Iterable[str] | None]:
    state = quantum.ghz_state()
    stabilizers = [
        {
            "observable": obs.label(),
            "expected": expected,
            "expectation": quantum.expectation(state, obs),
        }
        for obs, expected in quantum.GHZ_STABILIZERS
    ]
    xx = quantum.PauliObservable(("X", "X", "I"))
    yy = quantum.PauliObservable(("Y", "Y", "I"))
    xy = quantum.PauliObservable(("X", "Y", "I"))
    yx = quantum.PauliObservable(("Y", "X", "I"))
    zz = quantum.PauliObservable(("Z", "Z", "I"))

    commutators = {
        "[XX,YY]": quantum.commutator_norm(xx, yy),
        "[XY,YX]": quantum.commutator_norm(xy, yx),
    }
    products = {
        "xx_times_yy": quantum.product_expectation(state, xx, yy),
        "xy_times_yx": quantum.product_expectation(state, xy, yx),
        "zz": quantum.expectation(state, zz),
    }
    full_search = quantum.ghz_assignment_search()
    positive_only = quantum.ghz_assignment_search(
        tuple(c for c in quantum.GHZ_PRODUCT_CONSTRAINTS if c[1] == 1)
    )
    results = {
        "stabilizers": stabilizers,
        "commutator_norms": commutators,
        "pair_products": products,
        "assignment_search": {
            "full_constraints_solutions": len(full_search),
            "positive_constraints_solutions": len(positive_only),
        },
    }
    checks = {
        "stabilizers_match": all(
            abs(s["expectation"] - s["expected"]) < 1e-12 for s in stabilizers
        ),
        "commutators_vanish": all(v == 0.0 for v in commutators.values()),
        "pair_products_match": abs(products["xx_times_yy"] + 1.0) < 1e-12
        and abs(products["xy_times_yx"] - 1.0) < 1e-12,
        "no_consistent_assignment": len(full_search) == 0,
    }
    return results, checks, None


def cmd_jamming(args) -> tuple[dict, dict, Iterable[str] | None]:
    records = run_jamming_scenario(args.n, args.jim, args.trials, args.seed)
    counts, binned, overall = records.correlations()
    bin_counts = {str(j): c for j, c in counts.items()}
    unary = jamming_unary_exact()
    total = records.trials
    results = {
        "jim_choice": args.jim,
        "triplets": total,
        "bin_counts": bin_counts,
        "binned_correlation": {str(j): c for j, c in binned.items()},
        "overall_correlation": overall,
        "unary_condition": unary,
    }
    checks = {"unary_holds": unary["holds"]}
    if args.jim == "x":
        ok = all(c is not None and c == -float(j) for j, c in binned.items())
        checks["binned_constraint_ok"] = ok
    else:
        bound = 4.0 / math.sqrt(total)
        per_bin_ok = all(
            c is None or abs(c) < 4.0 / math.sqrt(counts[j])
            for j, c in binned.items()
        )
        checks["uncorrelated"] = abs(overall) < bound and per_bin_ok
    return results, checks, _jamming_csv(records) if args.format == "csv" else None


def cmd_causal(args) -> tuple[dict, dict, Iterable[str] | None]:
    """Analyse the config file at --config, and set ``args.config`` to the object read, for the report to echo."""
    path = Path(args.config_path)
    try:
        text = path.read_text()
        # A text of at most _MAX_CONFIG_DEPTH characters cannot nest deeper, so it is not scanned.
        if len(text) > _MAX_CONFIG_DEPTH and _nesting_depth(text) > _MAX_CONFIG_DEPTH:
            raise ValueError(f"config file {path} nests more than {_MAX_CONFIG_DEPTH} levels deep")
        data = json.loads(text)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("causal config must be a JSON object")

    events = {key: spacetime.event_from_json_obj(data[key]) for key in ("a_hat", "b_hat", "j_hat") if key in data}
    results: dict = {}
    checks: dict = {}

    if "a_hat" in events and "b_hat" in events:
        apex = spacetime.cone_overlap_apex(events["a_hat"], events["b_hat"]).to_json_obj()
        results["overlap_apex"] = apex
        if "j_hat" in events:
            holds = spacetime.binary_condition(**events)
            results["binary_condition"] = {"holds": holds, "overlap_apex": apex}
            checks["binary_condition_holds"] = holds

    if "beta" in data:
        if "a_hat" not in events or "b_hat" not in events:
            raise ValueError("round-trip chronology needs a_hat and b_hat events")
        try:
            beta = spacetime.json_number(data["beta"])
        except (TypeError, ValueError, OverflowError):
            raise ValueError("beta must be a number") from None
        chrono = spacetime.round_trip_chronology(
            alice_x=events["a_hat"].x,
            bob_x=events["b_hat"].x,
            send_t=events["a_hat"].t,
            beta=beta,
        )
        results["round_trip"] = {
            "reply_arrival": chrono["reply_arrival"].to_json_obj(),
            "retrocausal": chrono["retrocausal"],
            "beta": beta,
        }
        checks["retrocausal"] = chrono["retrocausal"]

    if "alice_map" in data or "bob_map" in data:
        if not ("alice_map" in data and "bob_map" in data):
            raise ValueError("loop analysis needs both alice_map and bob_map")
        results["loop"] = loop = spacetime.loop_analysis(data["alice_map"], data["bob_map"])
        scan = spacetime.policy_scan()
        results["policy_scan_summary"] = {
            "pairs": len(scan),
            "contradictory_pairs": sum(1 for r in scan if r["n_fixed_points"] == 0),
            "underdetermined_pairs": sum(1 for r in scan if r["n_fixed_points"] == 2),
            "pairs_without_unique_fixed_point": sum(1 for r in scan if r["n_fixed_points"] != 1),
        }
        checks["loop_consistent"] = loop["consistent"]

    if not results:
        raise ValueError("config contains no analyzable sections")
    args.config = data
    return results, checks, None


def _emit(blocks: Iterable[str], out: str | None) -> None:
    """Write each block as it comes, to stdout or to ``out``, which opens only once its report's work is done."""
    if out is None:
        for block in blocks:
            sys.stdout.write(block)
    else:
        with open(out, "w") as file:
            for block in blocks:
                file.write(block)


_COMMANDS = {
    **dict.fromkeys(_SCENARIOS, cmd_scenario),
    "ghz-algebra": cmd_ghz_algebra,
    "jamming": cmd_jamming,
    "causal": cmd_causal,
}


# The commands whose handlers also return a CSV report.
_CSV_COMMANDS = {*_SCENARIOS, "jamming"}


def _add_output_flags(sp) -> None:
    sp.add_argument("--out", default=None, help="write the report to this path instead of stdout")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def _add_scenario_flags(sp) -> None:
    sp.add_argument(
        "--n", type=int, default=6, help=f"rounds per trial (exact mode: at most {EXACT_MAX_ROUNDS})"
    )
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mode", choices=[mode.value for mode in RunMode], default=RunMode.EXACT.value)
    _add_output_flags(sp)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Parsing leaves no state on it: each parse fills a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="corrlab",
        description="Ensemble signaling experiments and causal-geometry checks for correlation boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (_, help_text) in _SCENARIOS.items():
        _add_scenario_flags(sub.add_parser(command, help=help_text))

    _add_output_flags(sub.add_parser("ghz-algebra", help="stabilizer, commutator, and assignment-search identities"))

    sp = sub.add_parser("jamming", help="binned third-party jamming statistics")
    sp.add_argument("--jim", choices=("x", "z"), required=True, help="Jim's measurement axis")
    sp.add_argument("--n", type=int, default=6, help="triplet rounds per trial")
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    _add_output_flags(sp)

    sp = sub.add_parser("causal", help="light-cone geometry and causal-loop analysis")
    # Parsed to the text of its Path, so ./x.json reads and echoes as x.json.
    sp.add_argument(
        "--config", dest="config_path", metavar="CONFIG", type=lambda text: str(Path(text)), required=True,
        help="JSON file with events, boost, and device maps",
    )
    _add_output_flags(sp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        if args.format == "csv" and args.command not in _CSV_COMMANDS:
            raise ValueError(f"csv output is not available for {args.command}")
        results, checks, blocks = handler(args)
        if args.format != "csv":
            config = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
            report = {"schema_version": SCHEMA_VERSION, "command": args.command, "config": config}
            blocks = [dump_report({**report, "results": results, "checks": checks})]
        _emit(blocks, args.out)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
