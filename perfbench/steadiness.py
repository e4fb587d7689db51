"""Repeat the benchmark and report how steady each metric is.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/evidence/steadiness-a.json
    python3 perfbench/steadiness.py --runs 10 --baseline perfbench/evidence/steadiness-a.json

Runs perfbench/run.py once per seed (seeds first-seed, first-seed+1, ...) for
each workload, one run at a time, and prints for every metric its median,
quartiles (statistics.quantiles, n=4) and spread = (q3 - q1) / median, beside
the bound BENCHMARK.json sets for it.  A spread above a third of the bound is
flagged.  With --baseline, each median is also compared with the median of
an earlier file; a change worse than the bound is flagged.  Machine facts
(nproc, Python, numpy, pinned thread settings) are recorded with the numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(line[len("machine "):]) for line in lines if line.startswith("machine "))
    result = json.loads(lines[-1])
    result["run_wall_s"] = elapsed
    result["machine"] = machine
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--baseline", type=Path, help="earlier --out file to compare medians with")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    baseline = json.loads(args.baseline.read_text())["workloads"] if args.baseline else {}

    out = {"seconds": bench["run_seconds"], "runs": args.runs, "first_seed": args.first_seed, "workloads": {}}
    for workload in workloads:
        results = [run_once(workload, args.first_seed + i, bench["run_seconds"]) for i in range(args.runs)]
        out["machine"] = results[-1]["machine"]
        failed = sum(r["failed"] for r in results)
        metrics = {}
        for name in results[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = results[0]["metrics"][name]["unit"]
        out["workloads"][workload] = {
            "failed": failed,
            "attempted": sum(r["attempted"] for r in results),
            "run_wall_s": summarize([r["run_wall_s"] for r in results]),
            "metrics": metrics,
        }
        print(f"{workload}: {args.runs} runs, {failed} failed reports, "
              f"median run wall {out['workloads'][workload]['run_wall_s']['median']:.1f} s")
        for name, s in metrics.items():
            line = f"  {name:<36} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}"
            bound = bounds.get(name, {}).get("bound")
            if bound is not None:
                flag = "" if s["spread"] <= bound / 3 or name == "setup_s" else "  SPREAD > bound/3"
                line += f"  bound {bound}{flag}"
                old = baseline.get(workload, {}).get("metrics", {}).get(name)
                if old:
                    ratio = s["median"] / old["median"]
                    worse = ratio - 1 if bounds[name]["better"] == "lower" else 1 - ratio
                    line += f"  vs baseline {ratio:.4f}" + ("  WORSE THAN BOUND" if worse > bound else "")
            print(line, flush=True)
    print(f"machine {json.dumps(out.get('machine'), sort_keys=True)}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
