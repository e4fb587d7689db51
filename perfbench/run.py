"""corrlab's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 10 --trace 0

Drives `corrlab.cli.main(argv)` and `corrlab.quantum.sequential_measure` in
this process as a closed loop with one client: each report starts when the
previous one has returned.  Reports go to an in-memory buffer.  Every job's
output is checked (see harness.check).

--trace 0 prints the end-to-end metrics: set-up time, reports per second,
median and tail report time, and peak RSS.  Times are scaled by the
host-speed probe (see hostspeed.py); the raw wall-time figures are printed
beside them.  --trace 1 runs the same job list once untraced and once with
spans around every public corrlab function, and prints the per-layer
metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exits 2, printing no result,
when the benchmark cannot run (e.g. no corrlab sources in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import harness
import hostspeed
import spans
from workloads import WORKLOADS, cycles_for, make_jobs

SETUP_REPEATS = 9
TAIL_BEYOND = 10
FEW_REPORTS_TAIL = 0.9
QUANTILE_GRID = 100_000
SETUP_CODE = (
    "import sys; sys.path[:0] = [{src!r}, {bench!r}]\n"
    "import corrlab, corrlab.cli, workloads\n"
    "workloads.make_jobs({name!r}, {seed}, {seconds})\n"
)


def measure_setup(name: str, seed: int, seconds: float, probe: hostspeed.Probe) -> tuple[float, float]:
    """Median (scaled, raw) time of a fresh interpreter importing corrlab and making the jobs.

    The interpreter is another process, so the probe samples taken next to
    one of them say less about its speed than about the whole set-up phase:
    the median time is scaled by the median of all probe samples around it.
    """
    code = SETUP_CODE.format(
        src=str(harness.SRC), bench=os.path.dirname(os.path.abspath(__file__)),
        name=name, seed=seed, seconds=seconds,
    )
    env = harness.pin_threads(dict(os.environ))
    first = len(probe.durations)
    raw = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise harness.BenchError(f"set-up interpreter failed: {proc.stderr.decode()[-2000:]}")
    probe.sample()
    median = statistics.median(raw)
    return median * hostspeed.NOMINAL_S / probe.median_s(first), median


class Pass:
    """Runs a job list once, timing and checking every report.

    `times` are the reports' wall times scaled by the host-speed probe,
    `raw_times` their wall times.
    """

    def __init__(self, runner, digests, probe, tracer=None):
        self.runner = runner
        self.digests = digests
        self.probe = probe
        self.tracer = tracer
        self.spans: list[tuple[float, float]] = []
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self.failed = 0
        self.checks_false = 0
        self.output_bytes = 0
        self.repeats = 0

    def run(self, jobs) -> "Pass":
        seen = set()
        for job in jobs:
            key = job.inputs()
            self.repeats += key in seen
            seen.add(key)
            self.probe.maybe_sample()
            self._one(job)
            if self.tracer is not None:
                self.tracer.end_report()
        self.probe.sample()
        self.raw_times = [end - start for start, end in self.spans]
        self.times = [self.probe.scale(start, end) for start, end in self.spans]
        return self

    def _one(self, job) -> None:
        """Run and check one job; its report is dropped on return, before the next job runs."""
        start = time.perf_counter()
        try:
            start, end, rc, text = self.runner.execute(job)
            reason, checks_false = harness.check(job, rc, text, self.digests)
        except Exception:  # a crashing report is a failed report; keep measuring
            traceback.print_exc()
            end, text, reason, checks_false = time.perf_counter(), "", "raised", 0
        self.spans.append((start, end))
        self.output_bytes += len(text) if text.isascii() else len(text.encode())
        self.checks_false += checks_false
        if reason is not None:
            self.failed += 1
            print(f"FAILED {' '.join(job.argv()) if job.is_cli else job}: {reason}", file=sys.stderr)

    @property
    def reports_per_s(self) -> float:
        return len(self.times) / sum(self.times)

    @property
    def raw_reports_per_s(self) -> float:
        return len(self.raw_times) / sum(self.raw_times)


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of values.

    A mean of the order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    distribution, rather than one order statistic: on a host whose speed
    varies from report to report, neighbouring reports share the weight, so
    the estimate varies less from run to run.
    """
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = (np.arange(QUANTILE_GRID) + 0.5) / QUANTILE_GRID  # midpoints, so no pole at 0 or 1
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, QUANTILE_GRID + 1), cdf)
    return float(np.diff(edges) @ ordered)


def tail_share(n: int) -> float:
    """Share of the tail percentile: the highest with ten of n reports beyond it.

    With 2 * TAIL_BEYOND reports or fewer that percentile would be the
    median or lower, so p90 is used instead.
    """
    return 1 - TAIL_BEYOND / n if n > 2 * TAIL_BEYOND else FEW_REPORTS_TAIL


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in harness.THREAD_VARS},
    }


def end_to_end(name, seed, seconds, runner, digests, jobs, probe):
    setup_s, raw_setup_s = measure_setup(name, seed, seconds, probe)
    p = Pass(runner, digests, probe).run(jobs)
    n = len(p.times)
    share = tail_share(n)
    metrics = {
        "setup_s": (setup_s, "s"),
        "reports_per_s": (p.reports_per_s, "1/s"),
        "report_s.p50": (quantile(p.times, 0.5), "s"),
        "report_s.tail": (quantile(p.times, share), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"report_s.tail is p{100 * share:.1f} of {n} reports ({n * (1 - share):.1f} beyond it)",
        f"fail_ratio {p.failed / n:g} ({p.failed} of {n} reports failed)",
        f"cli.checks_false {p.checks_false}",
        f"host probe median {probe.median_s() * 1e3:.3f} ms over {len(probe.durations)} samples "
        f"(times are scaled to {hostspeed.NOMINAL_S * 1e3:g} ms)",
        f"raw wall time: setup_s {raw_setup_s:.6g} s, reports_per_s {p.raw_reports_per_s:.6g} 1/s, "
        f"report_s.p50 {quantile(p.raw_times, 0.5):.6g} s, report_s.tail {quantile(p.raw_times, share):.6g} s",
    ]
    return [p], metrics, notes


def per_layer(name, runner, digests, jobs, probe):
    import corrlab

    untraced = Pass(runner, digests, probe).run(jobs)
    tracer = spans.Tracer()
    wrapped = spans.install(tracer, {layer: getattr(corrlab, layer) for layer in spans.LAYERS})
    traced = Pass(runner, digests, probe, tracer)
    tracer.run_root(lambda: traced.run(jobs))
    tracer.verify()

    g = spans.SPAN_GROUPS
    counts = tracer.counts
    reports = len(traced.times)
    runs = counts["ensembles.runs"]
    metrics = {
        "cli.self_s": (tracer.layer_self_s("cli"), "s"),
        "cli.output_bytes": (traced.output_bytes, "bytes"),
        "cli.checks_false": (traced.checks_false, "count"),
        "ensembles.runs_per_report": (runs / reports, "ratio"),
        "ensembles.useful_run_ratio": (counts["ensembles.distinct_runs"] / runs if runs else 0.0, "ratio"),
        "ensembles.exact_atoms": (counts["ensembles.exact_atoms"], "count"),
        "ensembles.sampled_rounds": (counts["ensembles.sampled_rounds"], "count"),
        "ensembles.sample_bytes": (counts["ensembles.sample_bytes"], "computed_bytes"),
    }
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.layer_self_s(layer), "s")
    for group in (
        "quantum.joint_probabilities", "quantum.sequential_measure", "quantum.measure",
        "ensembles.convolve", "ensembles.empirical", "signaling.total_variation",
    ):
        metrics[f"{group}.calls"] = (tracer.sum_calls(g[group]), "count")
    for group in g:
        metrics[f"{group}.self_s"] = (tracer.sum_self_s(g[group]), "s")
    metrics["bench.self_s"] = (tracer.self_s[spans.ROOT_SPAN], "s")
    metrics["trace.wall_s"] = (tracer.wall_s, "s")
    metrics["trace.overhead_ratio"] = (traced.reports_per_s / untraced.reports_per_s, "ratio")
    metrics["input_repeat_share"] = (traced.repeats / reports, "ratio")

    missing = [span for span in WORKLOADS[name].expected_spans if tracer.calls[span] == 0]
    if missing:
        raise spans.TraceError(f"expected spans never fired on {name}: {', '.join(missing)}")
    notes = [
        f"{wrapped} corrlab callables traced; span self times sum to the traced wall time {tracer.wall_s:.3f} s",
        f"host probe median {probe.median_s() * 1e3:.3f} ms over {len(probe.durations)} samples",
    ]
    return [untraced, traced], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        runner = harness.Runner(*harness.bootstrap())
        digests = harness.load_digests()
        jobs = make_jobs(args.workload, args.seed, args.seconds)
        runner.warm_up()
        probe = hostspeed.Probe()
        if args.trace:
            passes, metrics, notes = per_layer(args.workload, runner, digests, jobs, probe)
        else:
            passes, metrics, notes = end_to_end(
                args.workload, args.seed, args.seconds, runner, digests, jobs, probe
            )
        harness.check_metric_names(metrics, "per_layer" if args.trace else "end_to_end")
    except (harness.BenchError, spans.TraceError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"cycles {cycles_for(args.workload, args.seconds)}  reports {len(passes[-1].times)}"
    )
    print(f"machine {json.dumps(machine_facts(), sort_keys=True)}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<40} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
