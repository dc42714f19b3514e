"""Benchmark of the courantalg library: one workload, one seed, one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload jacobi --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with no instrumentation.  Times are
the process's CPU time: the library is single-threaded and does no I/O, and
CPU time leaves out the time the process waits while other processes run.

    setup_s         median over SETUP_REPS fresh imports of the library plus the
                    workload's set-up (contexts, structures, first inputs),
                    spread evenly over the run
    ops_per_s       ops answered per second of op time (CPU)
    latency_p50_ms  median time per op
    latency_p90_ms  90th percentile of time per op
    peak_rss_mb     the process's ru_maxrss once RSS_CYCLES cycles are done
    ok_ratio        ops whose verdict was right / ops attempted

Ops run in whole cycles until --seconds of op time have passed and at least
RSS_CYCLES cycles are done, so every run sees the same mix of op shapes.  The
first set-up makes the objects the ops use; the others run between cycles at
even intervals, so that set-up and ops sample the machine over the same span,
and are thrown away.  Memory is read
after a fixed number of cycles because the library's caches grow with every
cycle: a faster library must not be charged for finishing more of them.

--trace 1 instead runs TRACE_CYCLES cycles twice, each on a fresh import:
untraced, then with every layer instrumented (tracing.py).  It reports the
per-layer metrics and the ratio of the two CPU times, and is correct only if
both passes give identical outcomes.  --seconds does not apply to it.

The last line of standard output is the JSON result; the line before it
records the Python version, commit, nproc and seed.  The exit code is 0 only
when every op gave the expected verdict.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))

from load import ROOT, library_modules, load_library, run_facts, unload_library  # noqa: E402
from tracing import instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 9
# at most half of what the current code finishes in 25 s on a 2-core x86 VM
RSS_CYCLES = {"jacobi": 8, "cohomology": 7, "verify": 4, "cli_batch": 16}
TRACE_CYCLES = {"jacobi": 1, "cohomology": 1, "verify": 1, "cli_batch": 2}
SPAN_DIR = Path(__file__).resolve().parent / "out"


def set_up(cls, seed: int):
    """Fresh library, built workload and its first cycle of inputs."""
    lib = load_library()
    workload = cls(lib, seed)
    return lib, workload, workload.cycle(0)


def timed_set_up(cls, seed: int, keep: bool):
    """CPU time of one set-up, and what it built if keep, else None.

    The objects alive before it are frozen out of garbage collection while it
    runs, so that a set-up late in a run, beside large caches, does the same
    work as the first.  A set-up that is not kept is dropped again and the
    run's own import of the library put back.
    """
    own = library_modules()
    gc.freeze()
    start = process_time()
    state = set_up(cls, seed)
    elapsed = process_time() - start
    if not keep:
        state = None
        unload_library()
        sys.modules.update(own)
        gc.collect()  # frees the dropped import; the frozen objects are not visited
    gc.unfreeze()
    return elapsed, state


def run_cycle(workload, ops, record):
    """Run one cycle of ops; calls record(op, seconds, outcome, ok) for each."""
    results = []
    for op in ops:
        start = process_time()
        try:
            outcome, raised = op.run(), False
        except Exception as ex:  # an op that raises is a failed op, not a failed run
            outcome, raised = "%s: %s" % (type(ex).__name__, ex), True
        results.append((process_time() - start, outcome, raised))
    bad = workload.close_cycle(ops, [outcome for _, outcome, _ in results])
    for i, (op, (seconds, outcome, raised)) in enumerate(zip(ops, results)):
        record(op, seconds, outcome, not raised and i not in bad and op.check(outcome))


def measure(cls, seed: int, seconds: float):
    elapsed, (lib, workload, ops) = timed_set_up(cls, seed, keep=True)
    setup_times = [elapsed]
    latencies, failures = [], []

    def record(op, elapsed, outcome, ok):
        latencies.append(elapsed)
        if not ok:
            failures.append("%s -> %.200r" % (op.label, outcome))

    start = perf_counter()
    paused = 0.0  # wall time of the set-ups between cycles
    k = 0
    while True:
        run_cycle(workload, ops, record)
        k += 1
        if k == RSS_CYCLES[cls.name]:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = perf_counter() - start - paused
        while len(setup_times) < SETUP_REPS and elapsed >= len(setup_times) * seconds / SETUP_REPS:
            pause = perf_counter()
            setup_times.append(timed_set_up(cls, seed, keep=False)[0])
            paused += perf_counter() - pause
        if elapsed >= seconds and k >= RSS_CYCLES[cls.name]:
            break
        ops = workload.cycle(k)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1000 * deciles[8], "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
        "ok_ratio": ((len(latencies) - len(failures)) / len(latencies), "ratio"),
    }
    info = {"cycles": k, "ops": len(latencies),
            "ops_beyond_p90": sum(1 for t in latencies if t > deciles[8]),
            "setup_s_reps": setup_times, "failed_ratio": len(failures) / len(latencies)}
    return metrics, len(latencies), failures, info


def trace_pass(cls, seed: int, cycles: int, traced: bool):
    start = process_time()
    lib = load_library()
    tracer = instrument(lib) if traced else None
    workload = cls(lib, seed)
    outcomes = []

    def record(op, elapsed, outcome, ok):
        outcomes.append((op.label, outcome, ok))

    for k in range(cycles):
        run_cycle(workload, workload.cycle(k), record)
    return process_time() - start, lib, tracer, outcomes


def measure_traced(cls, seed: int):
    cycles = TRACE_CYCLES[cls.name]
    plain_s, _, _, plain = trace_pass(cls, seed, cycles, traced=False)
    gc.collect()
    traced_s, lib, tracer, traced = trace_pass(cls, seed, cycles, traced=True)
    # an op fails if either pass got it wrong or the passes disagree on it
    failures = ["%.300r (untraced: %.300r)" % (t, p)
                for p, t in zip(plain, traced) if p != t or not t[2]]
    if len(plain) != len(traced):
        failures.append("traced and untraced passes ran different op counts")
    metrics = tracer.metrics(lib, traced_s / plain_s)
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / ("spans-%s-%d.jsonl" % (cls.name, seed))
    tracer.write_spans(span_file)
    info = {"cycles": cycles, "ops": len(traced), "untraced_s": plain_s, "traced_s": traced_s,
            "inclusive_s": {k: round(v, 4) for k, v in sorted(tracer.total_s.items()) if v},
            "spans": len(tracer.spans), "span_file": str(span_file.relative_to(ROOT))}
    return metrics, len(traced), failures, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cls = WORKLOADS[args.workload]
    if args.trace:
        metrics, attempted, failures, info = measure_traced(cls, args.seed)
    else:
        metrics, attempted, failures, info = measure(cls, args.seed, args.seconds)
    for line in failures[:20]:
        print("FAILED " + line)
    print(json.dumps({"facts": run_facts(args.workload, args.seed, args.trace), **info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
