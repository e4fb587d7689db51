"""Record the sha256 digest of every deterministic report the workloads send.

    python3 perfbench/record_digests.py

Runs each exact-mode scenario report (N = 1..24), ghz-algebra and every
causal config once with --seed 0 and writes perfbench/digests.json.  Run it
only when a change is meant to alter report bytes, and say so in the change.
"""

from __future__ import annotations

import json

import harness
from workloads import CAUSAL_CONFIGS, EXACT_MAX_N, SCENARIO_COMMANDS, Job


def main() -> None:
    cli, quantum = harness.bootstrap()
    runner = harness.Runner(cli, quantum)
    jobs = [Job(cmd, n=n, mode="exact", seed=0) for cmd in SCENARIO_COMMANDS for n in range(1, EXACT_MAX_N + 1)]
    jobs += [Job("ghz-algebra")] + [Job("causal", config=path) for path in CAUSAL_CONFIGS]
    digests = {}
    for job in jobs:
        _, _, rc, text = runner.execute(job)
        if rc != 0:
            raise harness.BenchError(f"{job.argv()} exited {rc}")
        digests[job.digest_key()] = harness.report_digest(text)
    harness.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {harness.DIGESTS}")


if __name__ == "__main__":
    main()
