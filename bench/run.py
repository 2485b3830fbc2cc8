"""Benchmark of the multifilt library: one workload per process.

Run from the repository root:

    python3 bench/run.py --workload paper-grids --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the same checkout.  The workload is
a closed loop with one client on one thread: each op starts when the
previous one has finished.  One pass runs every op of the workload once;
passes repeat until ``--seconds`` have gone by.  Every op's answer is checked
(see workloads.py); a wrong answer or an exception is a failed op, and any
failure makes the exit code 1.

``--trace 0`` reports the end-to-end metrics, with no wrappers installed.
Their times are scaled to a reference host speed (see hostclock.py); the
unscaled figures are printed too.  ``--trace 1`` alternates untraced and
traced passes over the same ops and reports the per-layer metrics of the
traced passes (see tracing.py) in unscaled seconds, plus the tracing
overhead; its spans go to ``bench/out/trace-<workload>.jsonl``.

stdout ends with two lines: a JSON object describing the run (seed, the
environment, every pass's wall and CPU time, fail_ratio, sample counts and
the unscaled metrics), then the result object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up (a fresh import of the library plus input generation) is repeated
# at least SETUP_REPEATS times and for SETUP_SECONDS, and its median
# reported, so that one slow start does not move setup_s.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

Interval = tuple[float, float, float]  # start, end, seconds


@dataclass
class Pass:
    traced: bool
    wall_s: float
    cpu_s: float
    intervals: list[Interval]  # one per op, in op order
    failures: list[str]


def import_fresh():
    """Import multifilt from this checkout's src/, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "multifilt" or n.startswith("multifilt.")]:
        del sys.modules[name]
    mf = importlib.import_module("multifilt")
    if Path(mf.__file__).resolve().parent != SRC / "multifilt":
        raise ImportError(f"imported multifilt from {mf.__file__}, not from {SRC}")
    return mf


def set_up(name: str, seed: int, sizes: workloads.Sizes, clock: hostclock.HostClock):
    """Repeated set-up: returns the last library module and ops, the interval
    of every repetition, and whether every repetition built identical inputs."""
    intervals, digests = [], set()
    while len(intervals) < SETUP_REPEATS or sum(iv[2] for iv in intervals) < SETUP_SECONDS:
        mark = clock.mark()
        mf = import_fresh()
        ops = workloads.build(name, mf, seed, sizes)
        intervals.append(clock.interval(mark))
        digests.add(hashlib.sha256(repr([(op.key, op.inputs) for op in ops]).encode()).hexdigest())
        gc.collect()  # free the dropped library copy now, so peak RSS holds one
    return mf, ops, intervals, len(digests) == 1


def run_pass(ops: list[workloads.Op], clock: hostclock.HostClock, tracer: tracing.Tracer | None) -> Pass:
    intervals, failures = [], []
    wall, cpu = time.perf_counter(), time.process_time()
    for op in ops:
        if tracer is not None:
            tracer.op = op.key
        mark = clock.mark()
        try:
            ok = op.run()
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            ok = False
            failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
        else:
            if not ok:
                failures.append(f"{op.key}: wrong answer")
        intervals.append(clock.interval(mark))
    return Pass(tracer is not None, time.perf_counter() - wall, time.process_time() - cpu, intervals, failures)


def measure(ops, seconds: float, clock: hostclock.HostClock, tracer: tracing.Tracer | None) -> list[Pass]:
    """Passes until ``seconds`` have gone by.  With a tracer, every second
    pass is traced, and at least one is."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds or (tracer and len(passes) < 2):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            try:
                passes.append(run_pass(ops, clock, tracer))
            finally:
                tracer.uninstall()
            tracer.settle()
        else:
            passes.append(run_pass(ops, clock, None))
    return passes


def end_to_end(passes: list[Pass], setups: list[Interval], seconds) -> dict:
    """The end-to-end metrics, with times measured by ``seconds(interval)``.

    An op's latency is the median of its times over the passes; the
    percentiles are taken over ops.  Throughput is the median over passes of
    ops divided by the pass's summed op times.
    """
    times = [[seconds(iv) for iv in p.intervals] for p in passes]
    per_op = [statistics.median(t[i] for t in times) * 1e3 for i in range(len(times[0]))]
    p90 = statistics.quantiles(per_op, n=10, method="inclusive")[8] if len(per_op) > 1 else per_op[0]
    return {
        "ops_per_s": (statistics.median(len(t) / sum(t) for t in times), "1/s"),
        "op_ms_p50": (statistics.median(per_op), "ms"),
        "op_ms_p90": (p90, "ms"),
        "setup_s": (statistics.median(seconds(iv) for iv in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: tracing.Tracer, passes: list[Pass]) -> dict:
    traced = [p.wall_s for p in passes if p.traced]
    untraced = [p.wall_s for p in passes if not p.traced]
    metrics = {name: (value, "s" if name.endswith("_s") else "count") for name, value in tracer.layer_metrics(len(traced)).items()}
    for name in ("homspaces.nnz_ratio", "homspaces.rank_row_ratio"):
        metrics[name] = (metrics[name][0], "ratio")
    metrics["trace.wall_s"] = (sum(traced) / len(traced), "s")
    metrics["bench.self_s"] = ((sum(traced) - tracer.spanned_s) / len(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return metrics


def environment() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None, sizes: workloads.Sizes = workloads.PAPER, hook=None) -> int:
    """Run one workload; returns the exit code.  ``hook(mf)``, if given, runs
    after set-up and may replace library functions (the tests use it to
    corrupt answers)."""
    args = parse_args(argv)
    if not (SRC / "multifilt" / "__init__.py").is_file():
        print(f"bench: no library sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    clock = hostclock.HostClock()
    if args.trace:
        # Spans must not include sampler time, so the traced run samples nothing.
        mf, ops, setups, deterministic = set_up(args.workload, args.seed, sizes, clock)
        if hook is not None:
            hook(mf)
        tracer = tracing.Tracer(mf)
        passes = measure(ops, args.seconds, clock, tracer)
    else:
        with clock:
            mf, ops, setups, deterministic = set_up(args.workload, args.seed, sizes, clock)
            if hook is not None:
                hook(mf)
            passes = measure(ops, args.seconds, clock, None)

    attempted = sum(len(p.intervals) for p in passes)
    failures = [f for p in passes for f in p.failures]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "inputs_deterministic": deterministic,
        "setup_s_each": [iv[2] for iv in setups],
        "passes": [
            {"traced": p.traced, "ops": len(p.intervals), "failed": len(p.failures), "wall_s": p.wall_s, "cpu_s": p.cpu_s}
            for p in passes
        ],
        "fail_ratio": len(failures) / attempted,
        "samples": {"ops": len(ops), "timings_per_op": len(passes), "setups": len(setups)},
    }
    if args.trace:
        metrics = per_layer(tracer, passes)
        tracer.write_spans(HERE / "out" / f"trace-{args.workload}.jsonl")
    else:
        metrics = end_to_end(passes, setups, clock.scaled)
        details["unscaled"] = {name: value for name, (value, _) in end_to_end(passes, setups, lambda iv: iv[2]).items()}
        details["host_speed"] = clock.summary()
    for failure in failures[:10]:
        print(f"bench: failed op {failure}", file=sys.stderr)
    correct = deterministic and not failures
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
