"""One workload in its own process: set up, then measure for a fixed time.

Started by run.py, which times the set-up from outside. The worker imports
quasitur from the checkout's ``src``, builds the seeded inputs, runs the
warm-up ops, and then drives one closed-loop client: the next op starts only
after the previous one and its gate have finished. It prints one JSON line.

Untraced (``--trace 0``): latencies, throughput and peak RSS.
Traced (``--trace 1``): the input pool is run in whole rounds, alternating
untraced and traced rounds, so the traced wall can be compared with the
untraced wall of the same ops and the per-op counters repeat exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
#: failure reasons kept in the result file
MAX_REASONS = 5


def _import_quasitur():
    sys.path.insert(0, str(SRC))
    import quasitur
    if Path(quasitur.__file__).resolve().parent != SRC / "quasitur":
        raise SystemExit(f"quasitur imported from {quasitur.__file__}, not from {SRC}")


def run_op(workload, item, rec=None):
    """Run one op and its gate; return (op latency in s, failure reason or None).

    An op fails when it raises or when its gate rejects the output.
    """
    span = rec.span if rec is not None else (lambda name: contextlib.nullcontext())
    start = time.perf_counter()
    try:
        with span("bench.op"):
            out = workload.op(item)
    except Exception as exc:  # a failing op is counted, and the run goes on
        return time.perf_counter() - start, f"op raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    with span("bench.gate"):
        try:
            return latency, workload.check(item, out)
        except Exception as exc:  # a gate that cannot read the output rejects it
            return latency, f"gate raised {type(exc).__name__}: {exc}"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(reason)


def measure(workload, seconds: float, tally: Tally) -> dict:
    """Closed loop over the pool until ``seconds`` have passed.

    The machine is shared, and other tenants slow every op in bursts of a
    few seconds. The bounded metrics therefore use each input's fastest
    repeat in the run: ``latency_p50_ms`` is the median over the inputs,
    ``ops_per_s`` the rate of one pass over them. The plain percentiles and
    rate of all ops, bursts included, are kept as ``raw_*``.
    """
    best = [math.inf] * len(workload.pool)
    latencies = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        index = i % len(workload.pool)
        latency, reason = run_op(workload, workload.pool[index])
        tally.add(reason)
        latencies.append(latency * 1e3)
        best[index] = min(best[index], latency * 1e3)
        i += 1
        if time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - start
    seen = [value for value in best if value < math.inf]
    metrics = {
        "ops_per_s": 1e3 * len(seen) / math.fsum(seen),
        "latency_p50_ms": statistics.median(seen),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_ops_per_s": len(latencies) / elapsed,
        "raw_latency_p50_ms": statistics.median(latencies),
    }
    # a tail percentile is reported only with at least ten samples beyond it
    if len(latencies) >= 100:
        metrics["raw_latency_p90_ms"] = statistics.quantiles(latencies, n=100, method="inclusive")[89]
    if len(latencies) >= 1000:
        metrics["raw_latency_p99_ms"] = statistics.quantiles(latencies, n=100, method="inclusive")[98]
    samples = {name: len(seen) if name in ("ops_per_s", "latency_p50_ms") else len(latencies)
               for name in metrics}
    samples["peak_rss_mb"] = 1
    return {"ops": len(latencies), "measured_s": elapsed, "metrics": metrics, "samples": samples}


def measure_traced(workload, seconds: float, tally: Tally, trace_path: Path) -> dict:
    """Alternate untraced and traced rounds over the whole pool until ``seconds`` pass."""
    import numpy as np

    import tracing

    rec = tracing.Recorder()
    tracer = tracing.Tracer(rec)
    walls = {False: 0, True: 0}
    traced_ops = 0
    start = time.perf_counter()
    pair = 0
    while True:
        pair_start = time.perf_counter()
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                round_start = time.perf_counter_ns()
                for item in workload.pool:
                    if traced:
                        rec.op = traced_ops
                        traced_ops += 1
                    tally.add(run_op(workload, item, rec if traced else None)[1])
                walls[traced] += time.perf_counter_ns() - round_start
            finally:
                if traced:
                    tracer.uninstall()
        pair += 1
        now = time.perf_counter()
        if now + (now - pair_start) > start + seconds:
            break
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    spans = np.frombuffer(rec.spans, dtype=np.int64).reshape(-1, len(tracing.SPAN_FIELDS))
    np.savez_compressed(trace_path, spans=spans, names=np.array(rec.names),
                        fields=np.array(tracing.SPAN_FIELDS))
    metrics = tracing.layer_metrics(rec, traced_ops, walls[True], walls[False])
    return {
        "ops": traced_ops,
        "measured_s": time.perf_counter() - start,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "metrics": metrics,
        "samples": dict.fromkeys(metrics, traced_ops),
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once set up; run.py uses this to sample set-up time")
    args = parser.parse_args(argv)

    _import_quasitur()
    import workloads

    workdir = OUT_DIR / "tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny", str(workdir))
        tally = Tally()
        for item in workload.warmup:
            tally.add(run_op(workload, item)[1])
        ready_ns = time.monotonic_ns()
        result = {"ready_ns": ready_ns, "pool": len(workload.pool)}
        if not args.setup_only:
            if args.trace:
                trace_path = OUT_DIR / "traces" / f"{args.workload}_seed{args.seed}.npz"
                result.update(measure_traced(workload, args.seconds, tally, trace_path))
            else:
                result.update(measure(workload, args.seconds, tally))
            result["env"] = environment()
        result.update(attempted=tally.attempted, failed=tally.failed, reasons=tally.reasons)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
