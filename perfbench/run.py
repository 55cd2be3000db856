"""qcext benchmark runner.

    python3 perfbench/run.py --workload verify_fine --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from
``src/``.  One workload runs in this process as a closed loop of whole
passes for ``--seconds`` seconds, and every op's exit code and output bytes
are checked against the digests in ``perfbench/refs``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics.  glibc malloc is set to keep
freed memory (see ``keep_freed_memory``).  ``--workload all`` runs every
workload in a process of its own.  The last line of standard output is one
JSON object: correct, attempted, failed and the metrics named in
BENCHMARK.json.  The lines above it repeat each metric with its unit and
sample count, plus the run record.
"""

from __future__ import annotations

import os

# single-threaded process: fix the BLAS pools before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import numpy

from tracing import COUNT_NAMES, SPANS, Tracer
from workloads import WORKLOAD_CLASSES, WORKLOADS, OpResult

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUPS = 5
CALIBRATION_N = 1_000_000


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# the allocator


def keep_freed_memory() -> bool:
    """Make glibc malloc keep freed memory in the process: no mmap, no trim.

    qcext allocates a full-size numpy temporary per expression node.  With
    the default thresholds, glibc hands large freed blocks back to the
    kernel and the next op faults them in again: about 20,000 page faults
    per verify_fine op, a third of its time, and a kernel cost that made
    runs of the same code spread past the benchmark's bounds.  With mmap
    and trimming off, freed blocks stay on the heap and are reused.  Returns
    False where the C library has no mallopt (not glibc); the allocator is
    then left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
    return bool(mallopt(M_MMAP_MAX, 0)) and bool(mallopt(M_TRIM_THRESHOLD, 2**31 - 1))


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(n: int, wanted: int = 90, beyond: int = 10) -> int:
    """The wanted percentile, lowered until at least ``beyond`` samples lie
    above it, but never below the median (runs of fewer than 2 * beyond ops)."""
    return max(50, min(wanted, math.floor(100 * (n - beyond) / n)))


# ---------------------------------------------------------------------------
# run record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibration_s() -> float:
    """Median of three timings of a fixed pure-Python loop (context only)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_N):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_record(args, numpy_version: str, kept_freed_memory: bool) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "qcx_threads_unset": "QCX_THREADS" not in os.environ,
        "malloc_keeps_freed_memory": kept_freed_memory,
        "calibration_s": round(calibration_s(), 6),
    }


# ---------------------------------------------------------------------------
# the closed loop


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run whole passes until ``seconds`` have elapsed.

    With a tracer, even passes run untraced and odd passes traced, and the
    loop ends after a traced pass; counts are snapshotted after the first
    traced pass, so per-op counts repeat exactly for a seed.
    """
    derive = workload.q.mapexpr.derive
    info0 = derive.cache_info()
    times: List[Tuple[str, float]] = []
    traced_times: List[Tuple[str, float]] = []
    attempted = failed = 0
    first_counts = None
    passes = 0
    t_end = time.perf_counter() + seconds
    for ops in workload.passes():
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        for op in ops:
            workload.prepare(op)
            if traced:
                tracer.op_id = attempted
            t0 = time.perf_counter()
            try:
                if traced:
                    result = tracer.span("op", workload.execute, op)
                else:
                    result = workload.execute(op)
            except Exception as exc:  # an op that raises is a failed op
                result = OpResult(None, error=f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            workload.collect(op, result)
            attempted += 1
            if workload.check(op, result):
                (traced_times if traced else times).append((workload.group(op), dt))
            else:
                failed += 1
                print(f"failed op {op!r}: exit {result.code} {result.error or ''}".rstrip(), file=sys.stderr)
        if traced:
            tracer.uninstall()
            if first_counts is None:
                first_counts = (len(ops), dict(tracer.calls), dict(tracer.counts))
        passes += 1
        if time.perf_counter() >= t_end and (tracer is None or traced):
            break
    info1 = derive.cache_info()
    return {
        "times": times,
        "traced_times": traced_times,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "first_counts": first_counts,
        "derive_hits": info1.hits - info0.hits,
        "derive_misses": info1.misses - info0.misses,
    }


# ---------------------------------------------------------------------------
# metrics


def end_to_end(run: dict, setup_times: List[float], peak_rss_mb: float):
    """Metric values and the text shown beside each (sample counts)."""
    if not run["times"]:
        raise BenchmarkError("no op passed its check, so there is no latency to report")
    times = sorted(dt for _, dt in run["times"])
    n = len(times)
    q = tail_percentile(n)
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    values = {
        "setup_s": statistics.median(setup_times),
        "latency_ms.p50": cuts[49] * 1e3,
        "latency_ms.p90": cuts[q - 1] * 1e3,
        "maps_per_s": n / sum(times),
        "fail_share": run["failed"] / run["attempted"],
        "peak_rss_mb": peak_rss_mb,
    }
    beyond = sum(1 for t in times if t > cuts[q - 1])
    notes = {
        "setup_s": f"median of n={len(setup_times)} set-ups",
        "latency_ms.p50": f"n={n} ops",
        "latency_ms.p90": f"p{q:g} of n={n} ops, {beyond} beyond",
        "maps_per_s": f"{n} ops in {sum(times):.3f} s of op time",
        "fail_share": f"{run['failed']} of {run['attempted']} ops",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return values, notes


def per_layer(run: dict, tracer) -> Dict[str, float]:
    """Per-op self times (ms), first-traced-pass counts per op, and ratios."""
    n_traced = len(run["traced_times"])
    self_s = tracer.self_times()
    values: Dict[str, float] = {}
    for name in SPANS:
        values[f"{name}.ms"] = self_s.get(name, 0.0) * 1e3 / n_traced
    first_ops, calls, counts = run["first_counts"]
    for name in SPANS:
        values[f"{name}.calls"] = calls.get(name, 0) / first_ops
    for key in COUNT_NAMES:
        values[key] = counts.get(key, 0) / first_ops
    certify_s = sum(t1 - t0 for name, t0, t1, _, _ in tracer.spans if name == "beltrami.certify_qc")
    certify_points = tracer.counts.get("beltrami.points", 0)
    values["beltrami.points_per_s"] = certify_points / certify_s if certify_s > 0 else 0.0
    lookups = run["derive_hits"] + run["derive_misses"]
    values["mapexpr.derive.hit_ratio"] = run["derive_hits"] / lookups if lookups else 0.0
    plain = statistics.fmean(dt for _, dt in run["times"])
    traced = statistics.fmean(dt for _, dt in run["traced_times"])
    values["trace.overhead_share"] = (traced - plain) / plain
    values["trace.uncovered_ms"] = self_s.get("op", 0.0) * 1e3 / n_traced
    return values


# ---------------------------------------------------------------------------
# entry points


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_environment() -> None:
    if "QCX_THREADS" in os.environ:
        raise BenchmarkError(
            "QCX_THREADS is set; the benchmark measures the default "
            "single-threaded path, so unset it"
        )
    if not os.path.isfile(os.path.join(SRC, "qcext", "__init__.py")):
        raise BenchmarkError(f"no qcext sources under {SRC}; run from a source checkout")


def run_workload(args) -> dict:
    spec = load_spec()
    record = run_record(args, numpy.__version__, keep_freed_memory())
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOAD_CLASSES[args.workload](args.seed, OUT_DIR)
    setup_times = []
    for _ in range(SETUPS):
        gc.collect()  # free the previous set-up's modules before timing the next
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    qcext_file = sys.modules["qcext"].__file__
    if not os.path.abspath(qcext_file).startswith(SRC + os.sep):
        raise BenchmarkError(f"qcext was imported from {qcext_file}, not from {SRC}")

    tracer = Tracer() if args.trace else None
    run = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["passes"] = run["passes"]
    print("run " + json.dumps(record, sort_keys=True))

    if tracer is None:
        values, notes = end_to_end(run, setup_times, peak_rss_mb)
        declared = spec["end_to_end"]
        # fail_share is 0 whenever the run is correct, so it is shown here
        # and carried by "failed" in the result, not declared as a metric
        print(f"metric fail_share = {values['fail_share']:.6g} share ({notes['fail_share']})")
    else:
        values = per_layer(run, tracer)
        notes = {}
        declared = spec["per_layer"]
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz"))
    metrics = {}
    for m in declared:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"])
        print(f"metric {m['name']} = {value:.6g} {m['unit']}" + (f" ({note})" if note else ""))
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own process; their output is passed through."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="verify_fine, chain, cli_sweep or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        check_environment()
        sys.path.insert(0, SRC)
        if args.workload == "all":
            return run_all(args)
        if args.workload not in WORKLOADS:
            raise BenchmarkError(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
        result = run_workload(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
