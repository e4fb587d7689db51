"""Running one job against corrlab's public entry points, and checking its output.

`bootstrap()` must run before numpy is imported: it pins the BLAS and OpenMP
thread pools to one thread and puts the checkout's `src/` first on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import time
from pathlib import Path

from workloads import CAUSAL_CONFIGS, MEASURE_BATCH, MEASURE_PAIRS, Job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# What a correct mc report says about signaling, per scenario kind.
EXACT_DISTINGUISHABLE = {"pr-signal": True, "tsirelson": False, "ghz-signal": False}
# Rows per trial in an mc CSV report: one per sender choice (and Bob axis).
CSV_ROWS_PER_TRIAL = {"pr-signal": 2, "tsirelson": 4, "ghz-signal": 2}


# One small job per code path, run untimed so lazy imports and caches are
# filled before the first timed report.
WARM_UP = (
    *(Job(cmd, n=2, mode="exact", seed=0) for cmd in ("pr-signal", "tsirelson", "ghz-signal")),
    *(Job(cmd, n=2, mode="mc", seed=0, trials=1000, fmt=fmt)
      for cmd in ("pr-signal", "tsirelson", "ghz-signal") for fmt in ("json", "csv")),
    *(Job("jamming", n=1, jim="x", seed=0, trials=1000, fmt=fmt) for fmt in ("json", "csv")),
    Job("ghz-algebra"),
    Job("causal", config=CAUSAL_CONFIGS[0]),
    Job("sequential_measure", seed=0, pair=0),
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run or measure; no result is printed."""


def pin_threads(env: dict) -> dict:
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def bootstrap():
    """Pin threads, import corrlab from this checkout's src/, return its modules."""
    if not (SRC / "corrlab" / "__init__.py").is_file():
        raise BenchError(f"no corrlab sources under {SRC}")
    pin_threads(os.environ)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import corrlab.cli
    import corrlab.quantum

    if Path(corrlab.__file__).resolve().parent != SRC / "corrlab":
        raise BenchError(f"imported corrlab from {corrlab.__file__}, not from {SRC}")
    return corrlab.cli, corrlab.quantum


class Runner:
    """Executes jobs in this process, one at a time (a closed loop, one client)."""

    def __init__(self, cli, quantum):
        import numpy as np

        self.cli = cli
        self.quantum = quantum
        self.np = np
        self.pairs = [
            ((quantum.PauliObservable(a), quantum.PauliObservable(b)), want)
            for (a, b), want in MEASURE_PAIRS
        ]

    def execute(self, job: Job) -> tuple[float, float, int, str]:
        """Run one job; return (start, end, exit code, report text), times from perf_counter."""
        if job.is_cli:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                rc = self.cli.main(job.argv())
                t1 = time.perf_counter()
            return t0, t1, rc, buf.getvalue()
        return self._measure_batch(job)

    def warm_up(self) -> None:
        for job in WARM_UP:
            _, _, rc, _ = self.execute(job)
            if rc != 0:
                raise BenchError(f"warm-up job {job.argv()} exited {rc}")

    def _measure_batch(self, job: Job) -> tuple[float, float, int, str]:
        quantum = self.quantum
        pair, want = self.pairs[job.pair]
        t0 = time.perf_counter()
        state = quantum.ghz_state()
        rng = self.np.random.default_rng(job.seed)
        good = 0
        for _ in range(MEASURE_BATCH):
            recs = quantum.sequential_measure(state, pair, rng)
            good += recs[0].outcome * recs[1].outcome == want
        t1 = time.perf_counter()
        return t0, t1, 0, json.dumps({"good": int(good), "measured": MEASURE_BATCH})


def check_metric_names(metrics: dict, kind: str) -> None:
    """The run must print exactly the metrics, with the units, that BENCHMARK.json declares."""
    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    printed = {name: unit for name, (_, unit) in metrics.items()}
    if declared != printed:
        raise BenchError(f"metrics differ from BENCHMARK.json {kind}: {sorted(set(declared.items()) ^ set(printed.items()))}")


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def report_digest(text: str) -> str:
    """sha256 of a report with its echoed seeds set to 0.

    Exact results do not depend on the seed, but the report echoes it, so the
    digest recorded with --seed 0 covers every seed; `check` compares the
    echoed seed with the job's separately.
    """
    return hashlib.sha256(re.sub(r'"seed": \d+', '"seed": 0', text).encode()).hexdigest()


def check(job: Job, rc: int, text: str, digests: dict[str, str]) -> tuple[str | None, int]:
    """Apply the correctness oracle to one job's output.

    Returns (failure reason or None, number of report checks that came out
    false).  False checks are recorded, not failures: one of them, mc
    ghz-signal's hit_probabilities_equal, compares two noisy estimates for
    exact equality and is false on most seeds.
    """
    if rc != 0:
        return f"exit code {rc}", 0
    if not job.is_cli:
        batch = json.loads(text)
        if batch["good"] != batch["measured"]:
            return f"{batch['measured'] - batch['good']} products missed the stabilizer value", 0
        return None, 0
    if job.fmt == "csv":
        return _check_csv(job, text), 0
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"report does not parse: {exc}", 0
    checks_false = sum(1 for v in report.get("checks", {}).values() if v is False)
    if report.get("command") != job.command:
        return f"report is for {report.get('command')!r}", checks_false
    if job.deterministic:
        want = digests.get(job.digest_key())
        if want is None:
            return f"no recorded digest for {job.digest_key()!r}", checks_false
        if report_digest(text) != want:
            return "report bytes differ from the recorded digest", checks_false
        if job.seed is not None and report["config"]["seed"] != job.seed:
            return "report echoes another seed", checks_false
    elif job.command in EXACT_DISTINGUISHABLE:
        got = report["results"]["verdict"]["distinguishable"]
        if got is not EXACT_DISTINGUISHABLE[job.command]:
            return f"mc verdict distinguishable={got} contradicts the exact answer", checks_false
    return None, checks_false


def _check_csv(job: Job, text: str) -> str | None:
    """Row count and row width, counted in place so the check adds no memory.

    Fields are plain numbers and labels, never quoted, so a well-formed
    report has the header's comma count on every one of its lines.
    """
    if job.command == "jamming":
        want_rows = job.n * job.trials
    else:
        want_rows = CSV_ROWS_PER_TRIAL[job.command] * job.trials
    lines = text.count("\n")
    if lines - 1 != want_rows or not text.endswith("\n"):
        return f"csv has {lines - 1} rows, want {want_rows}"
    width = text.count(",", 0, text.index("\n"))
    if width == 0 or text.count(",") != width * lines or '"' in text:
        return "csv rows and header differ in width"
    return None
