"""Time single CLI reports and their layer split, for comparison with a baseline.

    python3 perfbench/crosscheck.py

Each report runs in a fresh interpreter (so peak RSS is its own): once
untraced after the warm-up, then once with the benchmark's spans installed.
Prints wall time, peak RSS and the spans with the largest self time.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys

from workloads import MC_TRIALS, Job

JOBS = (
    Job("ghz-signal", n=24, mode="exact", seed=0),
    Job("pr-signal", n=6, mode="mc", trials=MC_TRIALS, seed=0),
    Job("tsirelson", n=6, mode="mc", trials=MC_TRIALS, seed=0),
    Job("ghz-signal", n=6, mode="mc", trials=MC_TRIALS, seed=0),
    Job("ghz-signal", n=60, mode="mc", trials=MC_TRIALS, seed=0),
    Job("jamming", n=6, jim="z", trials=MC_TRIALS, seed=0),
)


def one(job: Job) -> dict:
    import harness
    import spans

    cli, quantum = harness.bootstrap()
    import corrlab

    runner = harness.Runner(cli, quantum)
    runner.warm_up()
    start, end, rc, _ = runner.execute(job)
    tracer = spans.Tracer()
    spans.install(tracer, {layer: getattr(corrlab, layer) for layer in spans.LAYERS})
    tracer.run_root(lambda: runner.execute(job))
    tracer.verify()
    top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:6]
    return {
        "argv": " ".join(job.argv()),
        "rc": rc,
        "untraced_s": end - start,
        "traced_s": tracer.wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "top_self_s": [(name, round(s, 4), tracer.calls[name]) for name, s in top],
    }


def main() -> None:
    if len(sys.argv) > 1:
        print(json.dumps(one(JOBS[int(sys.argv[1])])))
        return
    for i in range(len(JOBS)):
        proc = subprocess.run([sys.executable, __file__, str(i)], capture_output=True, text=True, check=True)
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{r['argv']}\n  untraced {r['untraced_s']:.3f} s  traced {r['traced_s']:.3f} s  "
              f"peak RSS {r['peak_rss_mb']:.0f} MB  exit {r['rc']}")
        for name, s, calls in r["top_self_s"]:
            print(f"    {name:<48} {s:>8.3f} s  {calls:>5} calls")


if __name__ == "__main__":
    main()
