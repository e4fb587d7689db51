"""Outside-in tracing of corrlab's layers, installed from the benchmark's files.

`install` wraps every public function and public method (plus dataclass
`__post_init__`, i.e. construction) of each layer module in a span, and
rebinds every reference to the original that corrlab holds: names imported
by name into other modules and functions stored in module-level dicts such
as the CLI's command table.  It then fails if any reference to an original
remains, so a call path that bypasses the spans cannot go unnoticed.

A span's self time is its duration minus the durations of the spans it
called.  Everything runs inside one root span, so the self times of all
spans sum to the traced wall time; `Tracer.verify` checks that identity.
A function that calls itself (reportio.encode) is one span, not one per level.
"""

from __future__ import annotations

import gc
import inspect
import sys
import time
import types
from collections import defaultdict
from enum import Enum

LAYERS = ("cli", "quantum", "boxes", "ensembles", "signaling", "reportio", "spacetime")
ROOT_SPAN = "bench.harness"
_SCENARIO_RUNS = ("run_pr_scenario", "run_tsirelson_scenario", "run_ghz_scenario")


class TraceError(RuntimeError):
    """Tracing would report wrong or missing layers."""


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, seconds of children, function]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.report_runs: set = set()  # distinct scenario runs of the current report
        self.wall_s = 0.0

    def wrap(self, name, fn, namer=None, observe=None):
        stack, calls, self_s, clock = self.stack, self.calls, self.self_s, time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][2] is fn:
                return fn(*args, **kwargs)
            span = namer(name, args, kwargs) if namer else name
            frame = [span, 0.0, fn]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                calls[span] += 1
                self_s[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def run_root(self, body):
        """Run body() as the root span; its duration is the traced wall time."""
        if self.stack:
            raise TraceError("root span opened inside another span")
        root = self.wrap(ROOT_SPAN, body)
        t0 = time.perf_counter()
        result = root()
        self.wall_s += time.perf_counter() - t0
        return result

    def end_report(self):
        self.counts["ensembles.distinct_runs"] += len(self.report_runs)
        self.report_runs.clear()

    def verify(self):
        """Self times must account for the traced wall time, and no span stays open."""
        if self.stack:
            raise TraceError(f"spans left open: {[f[0] for f in self.stack]}")
        total = sum(self.self_s.values())
        if abs(total - self.wall_s) > 1e-3 + 1e-6 * self.wall_s:
            raise TraceError(f"span self times sum to {total:.6f} s, traced wall time is {self.wall_s:.6f} s")

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.split(".")[0] == layer)

    def sum_calls(self, names) -> int:
        return sum(self.calls[n] for n in names)

    def sum_self_s(self, names) -> float:
        return sum(self.self_s[n] for n in names)


# --- corrlab-specific span names and counters --------------------------------


def _spec(args, kwargs):
    return args[0] if args else kwargs["spec"]


def _scenario_namer(name, args, kwargs):
    """Split a scenario run by mode: mc runs sample, exact runs convolve."""
    return f"{name}[{_spec(args, kwargs).mode.value}]"


def _observe_scenario(tracer, args, kwargs, result):
    spec = _spec(args, kwargs)
    tracer.counts["ensembles.runs"] += 1
    tracer.report_runs.add((spec, tuple(sorted(kwargs.items())), args[1:]))
    if spec.mode.value == "mc":
        tracer.counts["ensembles.sampled_rounds"] += spec.trials * spec.n_rounds
        nbytes = result.sums.nbytes
        if result.rounds is not None:
            nbytes += result.rounds.nbytes
        tracer.counts["ensembles.sample_bytes"] += nbytes


def _observe_jamming(tracer, args, kwargs, result):
    tracer.counts["ensembles.runs"] += 1
    tracer.report_runs.add(("jamming", args, tuple(sorted(kwargs.items()))))
    tracer.counts["ensembles.sampled_rounds"] += result.trials
    # The sampler allocates int64 sums, which the run keeps as int8 outcomes.
    tracer.counts["ensembles.sample_bytes"] += result.outcomes.size * 8 + result.outcomes.nbytes


def _observe_convolve(tracer, args, kwargs, result):
    tracer.counts["ensembles.exact_atoms"] += len(result)


NAMERS = {f"ensembles.{fn}": _scenario_namer for fn in _SCENARIO_RUNS}
OBSERVERS = {
    **{f"ensembles.{fn}": _observe_scenario for fn in _SCENARIO_RUNS},
    "ensembles.run_jamming_scenario": _observe_jamming,
    "ensembles.convolve_iid_rounds": _observe_convolve,
}

# Spans behind each per-layer metric.  install() fails when one of these
# functions no longer exists, so a rename cannot silently zero a metric.
SPAN_GROUPS = {
    "quantum.joint_probabilities": ("quantum.joint_probabilities",),
    "quantum.sequential_measure": ("quantum.sequential_measure",),
    "quantum.measure": ("quantum.measure",),
    "ensembles.convolve": ("ensembles.convolve_iid_rounds",),
    "ensembles.exact_build": (
        "ensembles.ExactDistribution.__post_init__",
        "ensembles.ExactDistribution.from_mapping",
    ),
    "ensembles.sample": (
        *(f"ensembles.{fn}[mc]" for fn in _SCENARIO_RUNS),
        "ensembles.run_jamming_scenario",
    ),
    "ensembles.empirical": ("ensembles.EnsembleRun.empirical", "ensembles.JammingRecords.empirical"),
    "signaling.verdict": (
        "signaling.pr_verdict",
        "signaling.tsirelson_verdict",
        "signaling.ghz_verdict",
        "signaling.verdict",
    ),
    "signaling.total_variation": ("signaling.total_variation",),
    "reportio.dump_report": ("reportio.dump_report",),
    "reportio.encode": ("reportio.encode",),
}


def _base(span: str) -> str:
    return span.split("[")[0]


def install(tracer: Tracer, modules: dict) -> int:
    """Wrap the layer modules' public callables; return how many were wrapped."""
    wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    names: set[str] = set()

    def wrap(name, fn):
        w = tracer.wrap(name, fn, NAMERS.get(name), OBSERVERS.get(name))
        wrappers[id(fn)] = (fn, w)
        names.add(name)
        return w

    for layer in LAYERS:
        mod = modules[layer]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                setattr(mod, attr, wrap(f"{layer}.{attr}", obj))
            elif inspect.isclass(obj) and not issubclass(obj, Enum):
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_") and mname != "__post_init__":
                        continue
                    name = f"{layer}.{attr}.{mname}"
                    if isinstance(member, (classmethod, staticmethod)):
                        setattr(obj, mname, type(member)(wrap(name, member.__func__)))
                    elif inspect.isfunction(member):
                        setattr(obj, mname, wrap(name, member))

    for group, spans in SPAN_GROUPS.items():
        for span in spans:
            if _base(span) not in names:
                raise TraceError(f"metric {group} needs {_base(span)}, which corrlab no longer has")

    _rebind(wrappers)
    _check_no_originals_left(wrappers)
    return len(wrappers)


def _corrlab_modules():
    return [m for name, m in sys.modules.items() if name == "corrlab" or name.startswith("corrlab.")]


def _rebind(wrappers: dict[int, tuple]) -> None:
    """Point names imported by name, and module-level tables, at the wrappers."""

    def swap(value):
        hit = wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    for mod in _corrlab_modules():
        for attr, value in list(vars(mod).items()):
            w = swap(value)
            if w is not None:
                setattr(mod, attr, w)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    w = swap(item)
                    if w is not None:
                        value[key] = w


def _check_no_originals_left(wrappers: dict[int, tuple]) -> None:
    """Only the wrappers' closures and the registry may still hold an original."""
    gc.collect()
    allowed = {id(entry) for entry in wrappers.values()}
    for _, w in wrappers.values():
        allowed.update(id(cell) for cell in w.__closure__ or ())
    for original, _ in wrappers.values():
        for ref in gc.get_referrers(original):
            if id(ref) in allowed or isinstance(ref, types.FrameType):
                continue
            raise TraceError(
                f"{original.__module__}.{original.__qualname__} is still reachable unwrapped "
                f"through a {type(ref).__name__}"
            )
