#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one timed run of vermasig.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1`` it
runs every round both untraced and traced, and reports per-layer metrics from
the spans.  Standard output ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is a
report (environment, output digest, failures, tail percentile).  Every failed
item is printed to standard error with the inputs that reproduce it, and the
exit status is 1 when any item failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("oracle", "formulas", "census")
# set-up is timed in this many fresh interpreters and the median reported,
# each preceded by this many calibration loops
SETUP_PROBES = 7
SETUP_LOOPS = 10
# the tail is the slowest item that still has this many items beyond it
TAIL_BEYOND = 10
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """One BLAS thread, no sweep workers: must run before numpy is imported."""
    if "numpy" in sys.modules and any(os.environ.get(v) != "1" for v in THREAD_VARIABLES):
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    os.environ.pop("VERMASIG_THREADS", None)


def import_library() -> None:
    if not (SRC / "vermasig" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no vermasig sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vermasig

    if Path(vermasig.__file__).resolve().parent != SRC / "vermasig":
        raise SystemExit(f"perfbench: imported vermasig from {vermasig.__file__}, not {SRC}")


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    source = hashlib.sha256()
    for path in sorted((SRC / "vermasig").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": source.hexdigest(),
        "threads": {v: os.environ[v] for v in THREAD_VARIABLES},
    }


class Outcomes:
    """Item durations, failures, short searches and the digest of round 0."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.durations: list[float] = []
        self.failures = 0
        self.short = 0
        self.digest = hashlib.sha256()
        self.calibration: list[float] = []

    def run(self, item, counts, in_digest: bool) -> None:
        start = time.perf_counter()
        try:
            result = self.workload.run(item, counts)
            shortfall = self.workload.shortfall(result)
            if shortfall:
                self.short += 1
                print(f"SHORT {self.workload.name} {item.kind}: {item.repro}: {shortfall}",
                      file=sys.stderr)
        except Exception as exc:  # a raising item is a failed item, not a crash
            result = None
            self.failures += 1
            print(
                f"FAILED {self.workload.name} {item.kind}: {item.repro}: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
        self.durations.append(time.perf_counter() - start)
        if in_digest:
            self.digest.update(repr((item.kind, result)).encode() + b"\n")


def measure_setup(args) -> tuple[float, float]:
    """Set-up time in reference seconds and in wall seconds.

    Median over fresh interpreters that import the library and build round
    0.  Calibration loops are timed before each probe.
    """
    command = [sys.executable, str(HERE / "run.py"), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    times, loops = [], []
    for _ in range(SETUP_PROBES):
        loops += [calibration.time_loop() for _ in range(SETUP_LOOPS)]
        start = time.perf_counter()
        # no timeout: with one, the wait polls with sleeps of up to 50 ms,
        # which would quantize the measured time
        subprocess.run(command, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    wall = statistics.median(times)
    return calibration.reference_seconds(wall, loops), wall


def timed_run(workload, seed: int, seconds: float, first_round) -> tuple[Outcomes, float, int]:
    """Items until the deadline, but never less than all of round 0.

    Between items it also times a calibration loop every INTERVAL_S seconds;
    the returned wall time leaves those loops out.
    """
    outcomes = Outcomes(workload)
    counts: Counter = Counter()
    items, k = first_round, 0
    start = time.perf_counter()
    deadline = start + seconds
    next_calibration = start

    def wall() -> float:
        return time.perf_counter() - start - sum(outcomes.calibration)

    while True:
        for item in items:
            now = time.perf_counter()
            if k and now >= deadline:
                return outcomes, wall(), k
            if now >= next_calibration:
                outcomes.calibration.append(calibration.time_loop())
                next_calibration = now + calibration.INTERVAL_S
            outcomes.run(item, counts, in_digest=(k == 0))
        k += 1
        if time.perf_counter() >= deadline:
            return outcomes, wall(), k
        items = workload.round(seed, k)


def tail(durations: list[float]) -> tuple[float, float]:
    """(seconds, percentile) of the slowest item with TAIL_BEYOND items beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(args, workload, first_round) -> tuple[dict, dict, Outcomes]:
    setup_ref_s, setup_wall_s = measure_setup(args)
    outcomes, wall, rounds = timed_run(workload, args.seed, args.seconds, first_round)
    tail_s, tail_pct = tail(outcomes.durations)
    n = len(outcomes.durations)
    metrics = {
        # in reference seconds, like items_per_ref_s (see calibration.py)
        "setup_s": (setup_ref_s, "s"),
        "items_per_ref_s": (n / calibration.reference_seconds(wall, outcomes.calibration),
                            "1/ref_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # Wall-clock figures and item latencies are reported but not gated:
    # between runs they move by more than any bound the benchmark may set
    # (see perfbench/README.md).
    report = {
        "rounds": rounds, "wall_s": wall, "items_per_s": n / wall,
        "setup_wall_s": setup_wall_s,
        "calibration_loop_ms": statistics.fmean(outcomes.calibration) * 1e3,
        "calibration_loops": len(outcomes.calibration),
        "item_ms_p50": statistics.median(outcomes.durations) * 1e3,
        "item_ms_tail": tail_s * 1e3, "tail_percentile": tail_pct,
    }
    return metrics, report, outcomes


def layer_metrics(tracer, rounds: int, untraced_s: float, traced_s: float) -> dict:
    """Per-round calls, self time and errors per function, shares and work counts."""
    from tracer import ITEM_SPAN, MODULES, TRACED

    stats = tracer.self_times()
    item_s = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    metrics = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for name in TRACED:
        calls, self_s, errors = stats[name]
        metrics[f"{name}.calls"] = (calls / rounds, "count/round")
        metrics[f"{name}.self_ms"] = (self_s * 1e3 / rounds, "ms/round")
        metrics[f"{name}.errors"] = (errors / rounds, "count/round")
        module_self[name.split(".")[0]] += self_s
    for module, self_s in module_self.items():
        metrics[f"{module}.self_share"] = (self_s / item_s, "ratio")
    metrics["bench.self_share"] = (stats[ITEM_SPAN][1] / item_s, "ratio")
    counts = tracer.counts
    for name in ("sigchar.peel_terms", "quantum.compositions", "shapovalov.basis_len",
                 "shapovalov.gram_entries", "bethe.spectrum_dim"):
        metrics[name] = (counts[name] / rounds, "count/round")
    wanted = counts["bethe.points_wanted"]
    metrics["bethe.points_found_ratio"] = (
        counts["bethe.points_found"] / wanted if wanted else 0.0, "ratio"
    )
    metrics["cli.report_bytes"] = (counts["cli.report_bytes"] / rounds, "B/round")
    metrics["trace.overhead_ratio"] = (untraced_s / traced_s, "ratio")
    return metrics


def per_layer(args, workload, first_round) -> tuple[dict, dict, Outcomes]:
    """Whole rounds until the deadline, each run both untraced and traced.

    Running every round twice back to back keeps the host's slow speed drift
    out of the tracing overhead; alternating which pass goes first cancels
    the head start the second pass gets from the first.
    """
    from tracer import ITEM_SPAN, Tracer

    tracer = Tracer()
    untraced, traced = Outcomes(workload), Outcomes(workload)
    run_traced = tracer.wrap(ITEM_SPAN, traced.run)

    def untraced_pass(items, in_digest):
        for item in items:
            untraced.run(item, Counter(), in_digest)

    def traced_pass(items, in_digest):
        tracer.install()
        try:
            for item in items:
                run_traced(item, tracer.counts, in_digest)
        finally:
            tracer.uninstall()

    items, rounds = first_round, 0
    deadline = time.perf_counter() + args.seconds
    while True:
        passes = (untraced_pass, traced_pass) if rounds % 2 == 0 else (traced_pass, untraced_pass)
        for run_pass in passes:
            run_pass(items, rounds == 0)
        rounds += 1
        if time.perf_counter() >= deadline:
            break
        items = workload.round(args.seed, rounds)
    if traced.digest.digest() != untraced.digest.digest():
        traced.failures += 1
        print(f"FAILED {workload.name}: traced and untraced round 0 differ", file=sys.stderr)
    metrics = layer_metrics(tracer, rounds, sum(untraced.durations), sum(traced.durations))

    out = HERE / "out" / f"trace-{workload.name}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "rounds": rounds,
        "environment": environment(), "span_fields": ["name", "start", "end", "parent", "raised"],
        "names": tracer.names, "spans": tracer.spans,
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }))
    untraced.failures += traced.failures
    untraced.short += traced.short
    untraced.durations += traced.durations
    report = {"rounds": rounds, "trace_file": str(out.relative_to(ROOT))}
    return metrics, report, untraced


def run_all(args) -> int:
    """Each workload in its own process; exit 1 if any of them failed."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            command.append("--tiny")
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="", flush=True)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
    if any(r is None for r in results.values()):
        return status or 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small items per round (the benchmark's self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build round 0, then exit (set-up timing probe)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if args.workload == "all":
        return run_all(args)
    import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    first_round = workload.round(args.seed, 0)
    if args.setup_only:
        return 0
    measure = per_layer if args.trace else end_to_end
    metrics, report, outcomes = measure(args, workload, first_round)

    attempted = len(outcomes.durations)
    report.update({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "attempted": attempted, "failed": outcomes.failures,
        "failed_ratio": outcomes.failures / attempted,
        "short_searches": outcomes.short,
        "digest_round0": outcomes.digest.hexdigest(),
        "environment": environment(),
    })
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} {value!r} {unit}")
    if not args.trace:
        print(f"{workload.name} setup_wall_s {report['setup_wall_s']!r} s")
        print(f"{workload.name} items_per_s {report['items_per_s']!r} 1/s")
        print(f"{workload.name} item_ms_p50 {report['item_ms_p50']!r} ms")
        print(f"{workload.name} item_ms_tail {report['item_ms_tail']!r} ms "
              f"(p{report['tail_percentile']:.2f} of {len(outcomes.durations)} items)")
    print(f"{workload.name} failed_ratio {report['failed_ratio']!r} ratio")
    print(f"{workload.name} short_searches {outcomes.short} count")
    print(f"{workload.name} digest {report['digest_round0']}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": outcomes.failures == 0,
        "attempted": attempted,
        "failed": outcomes.failures,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if outcomes.failures else 0


if __name__ == "__main__":
    sys.exit(main())
