"""Print every metric of benchmark result files by name, with its unit.

    python3 perfbench/report.py                 # all files in .perfbench/results
    python3 perfbench/report.py FILE...         # the given result files
    python3 perfbench/report.py --medians FILE...

Each metric is printed with its sample count. A per-layer metric also names
the end-to-end metric it should move on that workload (layer_map.json).
``--medians`` prints, as JSON, the median of each metric per workload and
trace mode over the given files; baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench" / "results"


def moves(workload: str) -> dict:
    layer_map = json.loads((HERE / "layer_map.json").read_text())["map"]
    out = defaultdict(list)
    for entry in layer_map:
        if entry["workload"] == workload:
            for name in entry["per_layer"]:
                out[name].extend(entry["end_to_end"])
    return out


def print_result(path: Path, record: dict) -> None:
    env = record["env"]
    print(f"== {path.name}: {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"({record['ops']} ops in {record['measured_s']:.1f} s, "
          f"{record['failed']}/{record['attempted']} failed, error_rate {record['error_rate']:g})")
    print(f"   nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']} {env['blas_version']} with "
          f"{env['blas_threads']} threads, commit {record['git_commit']}")
    targets = moves(record["workload"]) if record["trace"] else {}
    for name, metric in sorted(record["metrics"].items()):
        note = f"  -> {', '.join(targets[name])}" if name in targets else ""
        print(f"   {name:34s} {metric['value']:>14.6g} {metric['unit']:<15s} "
              f"n={metric['samples']}{note}")
    for reason in record["failure_reasons"]:
        print(f"   failed: {reason}")


def medians(records: list[dict]) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    units = {}
    for record in records:
        key = f"{record['workload']}/trace{record['trace']}"
        seeds[key].append(record["seed"])
        for name, metric in record["metrics"].items():
            values[key][name].append(metric["value"])
            units[name] = metric["unit"]
    return {
        "git_commits": sorted({str(record["git_commit"]) for record in records}),
        "env": records[0]["env"],
        "seconds": sorted({record["seconds"] for record in records}),
        "seeds": {key: sorted(v) for key, v in sorted(seeds.items())},
        "medians": {key: {name: {"median": statistics.median(v), "unit": units[name],
                                 "runs": len(v)}
                          for name, v in sorted(metrics.items())}
                    for key, metrics in sorted(values.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print benchmark results.")
    parser.add_argument("files", nargs="*", type=Path)
    parser.add_argument("--medians", action="store_true",
                        help="print per-workload medians over the files as JSON")
    args = parser.parse_args(argv)
    files = args.files or sorted(RESULTS.glob("*.json"))
    if not files:
        print(f"no result files in {RESULTS}", file=sys.stderr)
        return 1
    records = [(path, json.loads(path.read_text())) for path in files]
    if args.medians:
        print(json.dumps(medians([record for _path, record in records]), indent=1))
        return 0
    for path, record in records:
        print_result(path, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
