"""Command-line front end.

Subcommands run the ensemble scenarios, the three-party algebra checks,
and the causal-geometry analyses, emitting deterministic JSON (or CSV
sample tables) so identical invocations produce byte-identical reports.

Each command's results, checks and CSV runs come from the module that
owns them: ``signaling.verdict`` and ``jamming_verdict``,
``quantum.algebra_report`` and ``spacetime.causal_report``.  ``cli`` is
transport: the parser, reading the causal config with its depth guard,
the envelope, whose ``config`` echoes every parsed flag except ``--out``
plus the object ``causal`` read, the CSV tables and writing.  ``main``
writes a CSV report block by block as ``_table_blocks`` builds it, 10^4
sampled rows at a time, so its memory is the run's per-trial counts plus
one block, not the whole text.

Importing this module loads only ``errors`` and ``_numpy``: handlers,
parser and JSON writer import their modules when they run.  Parsing and
exact ``pr-signal``, ``ghz-signal`` or ``causal`` never load numpy, which
``_numpy`` loads on first use: sampled runs and tables load it, and
``tsirelson`` and ``ghz-algebra`` through the float simulator in ``quantum``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

from ._numpy import np
from .errors import InvariantViolation

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


def _dist_csv(runs: dict, mode: RunMode) -> Iterator[str]:
    """The CSV blocks of exact pmf rows, or of one row per sampled trial, for each run.

    A sampled run's rows come 10^4 at a time from ``_table_blocks``: the
    choice, the trial index and each component's collective, looked up by
    its count m of -1 rounds in the field text of (N - 2m) / N for only the
    counts from the run's least to its greatest.
    """
    from .ensembles import RunMode
    labels = _csv_columns(runs.values())
    if mode is RunMode.EXACT:
        yield ",".join(["choice", *labels, "numerator", "denominator"]) + "\n"
        yield "".join(
            ",".join([choice, *point, str(num), str(den)]) + "\n"
            for choice, dist in runs.items()
            for point, num, den in dist.atoms()
        )
        return
    yield ",".join(["choice", "trial", *labels]) + "\n"
    for choice, run in runs.items():
        negatives = run.negatives
        n, lo, hi = run.n_rounds, int(negatives.min()), int(negatives.max())
        tables = [np.array([f",{(n - 2 * m) / n!r}".encode("ascii") for m in range(lo, hi + 1)])] * len(negatives)
        yield from _table_blocks(f"{choice},", tables, negatives.shape[1], lambda i, j: negatives[:, i:j] - lo)


@functools.cache
def _jamming_rows() -> tuple[bytes, ...]:
    """Each triplet's row text after its index, by its code: the outcome it indexes in ``outcome_tuples(3)``."""
    from .quantum import outcome_tuples
    return tuple(",{},{},{}".format(*outcome).encode("ascii") for outcome in outcome_tuples(3))


def _jamming_csv(records: JammingRecords) -> Iterator[str]:
    """The CSV blocks of one row per triplet: its index and its (a_x, b_x, j) outcomes.

    Each block of ``_table_blocks`` reads only its own triplets' codes from
    ``JammingRecords.codes``, each the index of its row in ``_jamming_rows()``.
    """
    yield "triplet,a_x,b_x,j\n"
    yield from _table_blocks("", [np.array(_jamming_rows())], records.trials, lambda i, j: [records.codes(i, j)])


# Each scenario subcommand: the name of the ``ScenarioKind`` member it runs, and its help text.
_SCENARIOS = {
    "pr-signal": ("PR_BOX", "classical-limit signaling test for the maximal bipartite box"),
    "tsirelson": ("TSIRELSON", "classical-limit signaling test for the Bell-state box"),
    "ghz-signal": ("GHZ", "three-party rare-event signaling test"),
}


def _scenario(args) -> tuple[dict, dict, Iterable[str] | None]:
    from .ensembles import RunMode
    from .signaling import ScenarioKind, verdict
    mode = RunMode(args.mode)
    csv = args.format == "csv"
    # A CSV report prints each run's every component; a JSON one only what its verdict compared.
    results, checks, runs = verdict(ScenarioKind[_SCENARIOS[args.command][0]], args.n, mode, args.trials, args.seed, joint=csv)
    return results, checks, _dist_csv(runs, mode) if csv else None


def _jamming(args) -> tuple[dict, dict, Iterable[str] | None]:
    from .signaling import jamming_verdict
    results, checks, records = jamming_verdict(args.n, args.jim, args.trials, args.seed)
    return results, checks, _jamming_csv(records) if args.format == "csv" else None


def _algebra(args) -> tuple[dict, dict, None]:
    from .quantum import algebra_report
    return (*algebra_report(), None)


def _causal(args) -> tuple[dict, dict, Iterable[str] | None]:
    """Read the --config file for ``spacetime.causal_report``, and set ``args.config`` to its object, for the echo."""
    from .spacetime import causal_report
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
    args.config = data
    return (*causal_report(data), None)


def _close_refused(stream) -> None:
    """Close a standard stream that refused a write, dropping the bytes it holds, so the interpreter's flush at exit cannot fail on them again."""
    with contextlib.suppress(OSError):
        stream.close()


def _emit(blocks: Iterable[str], out: str | None) -> None:
    """Write each block as it comes, to stdout or to ``out``, which opens only once its report's work is done.

    Stdout is flushed here, so a write it refuses fails the report, not the interpreter's exit.
    """
    if out is None:
        try:
            for block in blocks:
                sys.stdout.write(block)
            sys.stdout.flush()
        except OSError:
            _close_refused(sys.stdout)
            raise
    else:
        with open(out, "w") as file:
            for block in blocks:
                file.write(block)


_COMMANDS = {
    **dict.fromkeys(_SCENARIOS, _scenario),
    "ghz-algebra": _algebra,
    "jamming": _jamming,
    "causal": _causal,
}


# The commands whose handlers also return a CSV report.
_CSV_COMMANDS = {*_SCENARIOS, "jamming"}


def _add_output_flags(sp) -> None:
    sp.add_argument("--out", default=None, help="write the report to this path instead of stdout")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def _add_scenario_flags(sp) -> None:
    from .ensembles import EXACT_MAX_ROUNDS, RunMode
    sp.add_argument(
        "--n", type=int, default=6, help=f"rounds per trial (exact mode: at most {EXACT_MAX_ROUNDS})"
    )
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mode", choices=[mode.value for mode in RunMode], default=RunMode.EXACT.value)
    _add_output_flags(sp)


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals ``_complain`` writes, so none reaches stdout; its subparsers share the class."""

    def error(self, message: str):
        _complain(f"{self.format_usage()}{self.prog}: error: {message}")
        raise SystemExit(2)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Parsing leaves no state on it: each parse fills a fresh namespace.
    """
    parser = _Parser(
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


def _complain(line: str) -> None:
    """Print ``line`` on stderr, unless stderr is closed or refuses it: the exit code still tells."""
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        _close_refused(sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code, never raising it: 0 for a report or ``--help``, 2 for a refused input, 3 for an internal fault."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    handler = _COMMANDS[args.command]
    try:
        # A process started with stdout closed has None for it: refused before any work.
        if args.out is None and sys.stdout is None:
            raise ValueError("stdout is closed; write the report with --out")
        if args.format == "csv" and args.command not in _CSV_COMMANDS:
            raise ValueError(f"csv output is not available for {args.command}")
        results, checks, blocks = handler(args)
        if args.format != "csv":
            from .reportio import SCHEMA_VERSION, dump_report
            config = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
            report = {"schema_version": SCHEMA_VERSION, "command": args.command, "config": config}
            blocks = [dump_report({**report, "results": results, "checks": checks})]
        _emit(blocks, args.out)
    except InvariantViolation as exc:
        _complain(f"invariant violation: {exc}")
        return 3
    except (ValueError, OSError) as exc:
        _complain(f"error: {exc}")
        return 2
    except MemoryError as exc:
        _complain(f"error: out of memory: {exc}")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
