"""Command-line front end.

Subcommands run the ensemble scenarios, the three-party algebra checks,
and the causal-geometry analyses, emitting deterministic JSON (or CSV
sample tables) so identical invocations produce byte-identical reports.

Each ``cmd_*`` handler returns its report's results, checks and CSV text;
``main`` alone builds the JSON envelope, whose ``config`` echoes every
parsed flag except ``--out``, plus the object ``causal`` read.

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
from pathlib import Path

from . import quantum, spacetime
from ._numpy import np
from .ensembles import EXACT_MAX_ROUNDS, JammingRecords, RunMode, ScenarioKind, run_jamming_scenario
from .errors import InvariantViolation
from .reportio import SCHEMA_VERSION, dump_report
from .signaling import SignalingVerdict, jamming_unary_exact, verdict

_MODES = {"exact": RunMode.EXACT, "mc": RunMode.MONTE_CARLO}

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


def _index_digits(rows: int) -> list[np.ndarray]:
    """The decimal text of 0..rows-1 as right-aligned (rows, 1) uint8 digit columns, NUL for a leading zero.

    Digit j of i is i // 10**(w-1-j) % 10 + 48; it is computed once per run
    of equal digits and repeated over the run.
    """
    width = len(str(max(rows - 1, 0)))
    columns = []
    for j in range(width):
        place = 10 ** (width - 1 - j)
        runs = np.arange(-(-rows // place)) % 10 + ord("0")
        column = np.repeat(runs.astype(np.uint8), place)[:rows]
        if j < width - 1:
            column[:place] = 0
        columns.append(column[:, None])
    return columns


def _table_lines(prefix: str, fields: np.ndarray, codes: np.ndarray) -> str:
    """One line per row of ``codes``: ``prefix``, the row's index, then ``fields[code]`` for each column.

    ``fields`` is an ``S`` array of each value's field text, leading comma
    included, so the text of a lattice value is built once, not once per
    row.  The lines are one (rows, width) uint8 matrix, stacked from a fixed
    number of blocks: the prefix's bytes, the index digits, each column's
    fields gathered from ``fields`` (NUL-padded to the widest) and the
    newline.  Dropping every NUL in one pass leaves the text, decoded once.
    """
    rows = len(codes)
    head = np.frombuffer(prefix.encode("ascii"), np.uint8)
    matrix = np.concatenate(
        [
            np.broadcast_to(head, (rows, head.size)),
            *_index_digits(rows),
            *(fields.take(c).view(np.uint8).reshape(rows, fields.itemsize) for c in codes.T),
            np.broadcast_to(np.uint8(ord("\n")), (rows, 1)),
        ],
        axis=1,
    ).ravel()
    return str(matrix[matrix != 0], "ascii")


def _csv_columns(runs) -> list[str]:
    """Each component's column name: its label, or its axis-free stem where the runs' labels differ.

    Bob's z and x runs name his component ``bob``, Jim's x and y runs ``J``;
    the choice column says which axis each row holds.
    """
    columns = zip(*(run.labels for run in runs))
    return [col[0] if len(set(col)) == 1 else col[0].rsplit("_", 1)[0] for col in columns]


def _dist_csv(v: SignalingVerdict) -> str:
    """Exact pmf rows, or one row per sampled trial, for each run.

    A sampled run's rows are one byte matrix built by ``_table_lines``: the
    choice, the trial index and each component's collective, looked up by
    its count m of -1 rounds in the field text of (N - 2m) / N for only the
    counts from the run's least to its greatest.
    """
    labels = _csv_columns(v.runs.values())
    if v.mode is RunMode.EXACT:
        header = ["choice", *labels, "numerator", "denominator"]
        lines = [
            ",".join([choice, *point, str(num), str(den)]) + "\n"
            for choice, dist in v.runs.items()
            for point, num, den in dist.atoms()
        ]
    else:
        header = ["choice", "trial", *labels]
        lines = []
        for choice, run in v.runs.items():
            n, lo, hi = run.n_rounds, int(run.negatives.min()), int(run.negatives.max())
            fields = np.array([f",{(n - 2 * m) / n!r}".encode("ascii") for m in range(lo, hi + 1)])
            lines.append(_table_lines(f"{choice},", fields, (run.negatives - lo).T))
    return ",".join(header) + "\n" + "".join(lines)


def _jamming_csv(records: JammingRecords) -> str:
    """One row per triplet: its index and its (a_x, b_x, j) outcomes, built as one byte matrix by ``_table_lines``."""
    # Field text of a +1/-1 outcome, indexed by outcome + 1.
    sign_fields = np.array([b",-1", b",0", b",1"])
    return "triplet,a_x,b_x,j\n" + _table_lines("", sign_fields, records.outcomes + 1)


# Each scenario subcommand: the box it runs and its help text.
_SCENARIOS = {
    "pr-signal": (ScenarioKind.PR_BOX, "classical-limit signaling test for the maximal bipartite box"),
    "tsirelson": (ScenarioKind.TSIRELSON, "classical-limit signaling test for the Bell-state box"),
    "ghz-signal": (ScenarioKind.GHZ, "three-party rare-event signaling test"),
}


def cmd_scenario(args) -> tuple[dict, dict, str | None]:
    """pr-signal, tsirelson and ghz-signal: one verdict, which holds the report's results and checks."""
    kind = _SCENARIOS[args.command][0]
    # A CSV report prints each run's every component; a JSON one only what its verdict compared.
    v = verdict(kind, args.n, _MODES[args.mode], args.trials, args.seed, joint=args.format == "csv")
    return {**v.results, "verdict": v.to_json_obj()}, v.checks, _dist_csv(v) if args.format == "csv" else None


def cmd_ghz_algebra(args) -> tuple[dict, dict, str | None]:
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


def cmd_jamming(args) -> tuple[dict, dict, str | None]:
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


def cmd_causal(args) -> tuple[dict, dict, str | None]:
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
            holds = spacetime.binary_condition(spacetime.CausalConfig(**events))
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
        policy = spacetime.DevicePolicy(alice_map=data["alice_map"], bob_map=data["bob_map"])
        loop = spacetime.loop_analysis(policy)
        scan = spacetime.policy_scan()
        results["loop"] = {
            "alice_map": policy.alice_map,
            "bob_map": policy.bob_map,
            "consistent": loop["consistent"],
            "fixed_points": loop["fixed_points"],
        }
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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


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
    sp.add_argument("--mode", choices=("exact", "mc"), default="exact")
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
        results, checks, text = handler(args)
        if args.format != "csv":
            config = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
            report = {"schema_version": SCHEMA_VERSION, "command": args.command, "config": config}
            text = dump_report({**report, "results": results, "checks": checks})
        _emit(text, args.out)
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
