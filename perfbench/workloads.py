"""Workload definitions: which jobs a benchmark run sends, generated from its seed.

A job is one report: a `corrlab` CLI invocation, or one batch of
`quantum.sequential_measure` calls.  A workload is a fixed multiset of jobs
(one "cycle") that every run repeats a whole number of times; the seed
chooses the job order, the `corrlab --seed` of every job and the
measurement RNG seeds, never which jobs or sizes are in the cycle.  That
keeps the work of a run the same for every seed, so runs on different
seeds (and on different commits) can be compared metric by metric.

This module imports nothing heavy: set-up time is measured by a fresh
interpreter that imports corrlab and this module and generates the jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

SCENARIO_COMMANDS = ("pr-signal", "tsirelson", "ghz-signal")
CAUSAL_CONFIGS = (
    "scenarios/causal_loop.json",
    "scenarios/jammer_after_measurements.json",
    "scenarios/jammer_inside_overlap.json",
    "scenarios/jammer_outside_overlap.json",
    "scenarios/timelike_separated_measurements.json",
)
MC_TRIALS = 100_000
# CSV reports print one row per trial.  At 1e5 trials each takes 2-3 s and
# is bound by memory traffic, so a run holds few reports and its times swing
# with the machine's load; 1e4 trials keep the same per-trial path dominant
# in reports of about 0.2 s.
CSV_TRIALS = 10_000
EXACT_MAX_N = 24
MEASURE_BATCH = 1_000
# Pairs of commuting GHZ observables, each with the product value every
# measurement must give (the loop of test_measured_pair_products).
MEASURE_PAIRS = (
    ((("X", "X", "I"), ("Y", "Y", "I")), -1),
    ((("X", "Y", "I"), ("Y", "X", "I")), 1),
)


@dataclass(frozen=True)
class Job:
    """One report: a CLI subcommand with its flags, or a measurement batch."""

    command: str
    n: int | None = None
    mode: str | None = None
    fmt: str = "json"
    seed: int | None = None
    trials: int | None = None
    jim: str | None = None
    config: str | None = None
    pair: int | None = None

    @property
    def is_cli(self) -> bool:
        return self.command != "sequential_measure"

    @property
    def deterministic(self) -> bool:
        """Reports whose bytes are fixed by the inputs (seed echo aside)."""
        return self.mode == "exact" or self.command in ("ghz-algebra", "causal")

    def argv(self) -> list[str]:
        argv = [self.command]
        if self.command == "causal":
            argv += ["--config", self.config]
        if self.jim is not None:
            argv += ["--jim", self.jim]
        if self.n is not None:
            argv += ["--n", str(self.n)]
        if self.mode is not None:
            argv += ["--mode", self.mode]
        if self.trials is not None:
            argv += ["--trials", str(self.trials)]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv + ["--format", self.fmt]

    def digest_key(self) -> str:
        """Key of the recorded digest: the argv without the seed."""
        argv = self.argv()
        if "--seed" in argv:
            i = argv.index("--seed")
            del argv[i : i + 2]
        return " ".join(argv)

    def inputs(self) -> tuple:
        """Everything the program receives for this job."""
        if self.is_cli:
            return tuple(self.argv())
        return (self.command, self.pair, self.seed)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def _exact(rng: random.Random, max_n: int) -> list[Job]:
    return [
        Job(cmd, n=n, mode="exact", seed=_seed(rng))
        for cmd in SCENARIO_COMMANDS
        for n in range(1, max_n + 1)
    ]


def _mc(rng: random.Random, ns: tuple[int, ...], fmt: str, trials: int) -> list[Job]:
    jobs = [
        Job(cmd, n=n, mode="mc", fmt=fmt, seed=_seed(rng), trials=trials)
        for cmd in SCENARIO_COMMANDS
        for n in ns
    ]
    jobs += [
        Job("jamming", n=6, jim=jim, fmt=fmt, seed=_seed(rng), trials=trials)
        for jim in ("x", "z")
    ]
    return jobs


def _exact_sweep(rng: random.Random) -> list[Job]:
    return _exact(rng, EXACT_MAX_N)


def _mc_json(rng: random.Random) -> list[Job]:
    return _mc(rng, (6, 60), "json", MC_TRIALS)


def _mc_csv(rng: random.Random) -> list[Job]:
    return _mc(rng, (6,), "csv", CSV_TRIALS)


def _small_reports(rng: random.Random) -> list[Job]:
    jobs = _exact(rng, 8)
    jobs.append(Job("ghz-algebra"))
    jobs += [Job("causal", config=path) for path in CAUSAL_CONFIGS]
    jobs += [Job("sequential_measure", seed=_seed(rng), pair=i % 2) for i in range(4)]
    return jobs


@dataclass(frozen=True)
class Workload:
    cycle: Callable[[random.Random], list[Job]]
    # Wall seconds of one untraced cycle, measured on the 2-core reference
    # machine at the seed commit.  Only used to turn --seconds into a whole
    # number of cycles, so a run's work never depends on how fast it went.
    nominal_cycle_s: float
    # Spans every traced run must record.  A zero means a rename or a new
    # call path in corrlab bypassed the spans.
    expected_spans: tuple[str, ...]
    # Fewest cycles in a run, however short --seconds is: one report's time
    # varies by about 12% from run to run, so the median and tail of a run
    # need enough reports to average that out.
    min_cycles: int = 1


WORKLOADS: dict[str, Workload] = {
    "exact-sweep": Workload(
        _exact_sweep,
        41.0,
        (
            "cli.main", "ensembles.convolve_iid_rounds", "ensembles.ExactDistribution.__post_init__",
            "ensembles.run_ghz_scenario[exact]", "signaling.ghz_verdict", "signaling.total_variation",
            "quantum.joint_probabilities", "boxes.chsh_value", "reportio.dump_report",
        ),
    ),
    "mc-json": Workload(
        _mc_json,
        21.0,
        (
            "cli.main", "ensembles.run_ghz_scenario[mc]", "ensembles.run_jamming_scenario",
            "ensembles.EnsembleRun.empirical", "signaling.total_variation", "reportio.dump_report",
        ),
        min_cycles=2,
    ),
    "mc-csv": Workload(
        _mc_csv,
        1.1,
        (
            "cli.main", "ensembles.run_pr_scenario[mc]", "ensembles.run_jamming_scenario",
            "ensembles.EnsembleRun.empirical",
        ),
    ),
    "small-reports": Workload(
        _small_reports,
        1.6,
        (
            "cli.main", "quantum.sequential_measure", "quantum.measure", "quantum.joint_probabilities",
            "boxes.check_no_signaling", "spacetime.loop_analysis", "spacetime.cone_overlap_apex",
            "ensembles.convolve_iid_rounds", "reportio.dump_report",
        ),
    ),
}


def cycles_for(name: str, seconds: float) -> int:
    workload = WORKLOADS[name]
    return max(workload.min_cycles, round(seconds / workload.nominal_cycle_s))


def make_jobs(name: str, seed: int, seconds: float) -> list[Job]:
    """The run's job list: whole cycles, each shuffled with fresh seeds."""
    rng = random.Random(f"{name}/{seed}")
    jobs: list[Job] = []
    for _ in range(cycles_for(name, seconds)):
        cycle = WORKLOADS[name].cycle(rng)
        rng.shuffle(cycle)
        jobs += cycle
    return jobs
