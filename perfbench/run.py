"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; quasitur is imported from its ``src``.
The workload runs in a child process (worker.py). Set-up time is measured
from outside, from spawning the child to the moment it is ready to measure:
interpreter start, ``import quasitur``, input generation and warm-up ops.
An untraced run samples set-up several times and reports the median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json for ``--trace 0``, its per-layer metrics for
``--trace 1``. ``attempted`` counts every op the workload process ran,
warm-up included; ``failed`` those that raised or failed their gate. The
full result, with sample counts, library versions and the machine, goes to
``.perfbench/results/``; ``report.py`` prints it.
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
WORKER = HERE / "worker.py"
RESULTS = ROOT / ".perfbench" / "results"
WORKLOADS = ("tur_ensemble", "classical_bridge", "dense_tables", "collective_sweep")
#: set-up-only child processes started before the measured one
SETUP_PROBES = 4
#: units of the result-file metrics that BENCHMARK.json does not bound
RAW_UNITS = {"raw_ops_per_s": "1/s", "raw_latency_p50_ms": "ms",
             "raw_latency_p90_ms": "ms", "raw_latency_p99_ms": "ms"}
#: every run, its set-up included, must end within this many seconds
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def git_commit(root: Path):
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(args, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    if setup_only:
        cmd.append("--setup-only")
    start_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = (result["ready_ns"] - start_ns) / 1e9
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test only")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "quasitur" / "__init__.py").is_file():
        print(f"error: no quasitur sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        probes = [] if args.trace else [spawn(args, deadline, True) for _ in range(SETUP_PROBES)]
        result = spawn(args, deadline, False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_samples = [probe["setup_s"] for probe in probes] + [result["setup_s"]]
    values = dict(result["metrics"], setup_s=statistics.median(setup_samples))
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    samples = dict(result["samples"], setup_s=len(setup_samples))
    units = {m["name"]: m["unit"] for m in (*spec["end_to_end"], *spec["per_layer"])}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_commit": git_commit(ROOT),
        "env": result["env"],
        "pool": result["pool"],
        "ops": result["ops"],
        "measured_s": result["measured_s"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": result["failed"] / result["attempted"],
        "failure_reasons": result["reasons"],
        "setup_samples_s": setup_samples,
        "trace_file": result.get("trace_file"),
        "metrics": {name: {"value": value, "unit": units.get(name) or RAW_UNITS[name],
                           "samples": samples[name]}
                    for name, value in values.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
