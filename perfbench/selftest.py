"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks, for every workload:
- an untraced and a traced run emit exactly the metrics BENCHMARK.json
  declares, with its units, and no op fails;
- the traced run covers its wall (0.9 <= trace.coverage <= 1.1), and the
  kernel and layer counters repeat exactly in a second traced run;
- a deliberately corrupted output is rejected by the gate and counted as
  a failed op.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: per-layer metrics that are counts, and so must repeat exactly
EXACT_SUFFIXES = ("calls", "applies", "builds", "max_dim", "flux_columns", "propagator_mb")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    expect(proc.returncode == 0, f"{workload} trace {trace} exits 0")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emitted(spec: dict, workload: str) -> None:
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        line = run(workload, trace)
        expect(set(line) == {"correct", "attempted", "failed", "metrics"},
               f"{workload} trace {trace} result has the four keys")
        expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
               f"{workload} trace {trace} has no failed op")
        got = {name: metric["unit"] for name, metric in line["metrics"].items()}
        expect(got == {m["name"]: m["unit"] for m in declared},
               f"{workload} trace {trace} emits every declared metric with its unit")
        if trace:
            coverage = line["metrics"]["trace.coverage"]["value"]
            expect(0.9 <= coverage <= 1.1, f"{workload} trace coverage {coverage:.3f}")
            again = run(workload, 1)["metrics"]
            counters = [name for name in got if name.endswith(EXACT_SUFFIXES)]
            expect(all(line["metrics"][n]["value"] == again[n]["value"] for n in counters),
                   f"{workload} {len(counters)} counters repeat exactly")


def corrupt(name: str, item, out, workload):
    """The op's output with one value perturbed beyond the gate's tolerance."""
    if name == "tur_ensemble":
        report, geo = out
        return report, dataclasses.replace(geo, epr_norm=geo.epr_norm + 1e-6)
    if name == "classical_bridge":
        return dataclasses.replace(out, generating_residual=1e-6)
    if name == "dense_tables":
        obs, table, evolved, moment = out
        table.values[0, 0] += 1e-6
        return obs, table, evolved, moment
    # collective_sweep: in the JSON report the op wrote, flip the minus
    # state's Q1 verdict, or raise the m_H exponent of the other states
    with open(workload.json_path) as fh:
        report = json.load(fh)
    result = report["result"]
    if item[0] == "-":
        result["conditions"]["q1"]["satisfied"] = True
    else:
        result["exponents"]["m_x"]["slope"] += 1.0
    with open(workload.json_path, "w") as fh:
        json.dump(report, fh)
    return out


def check_corruption(tmp: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import worker
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        workload = cls(7, True, str(tmp))
        item = workload.pool[0]
        out = workload.op(item)
        expect(workload.check(item, out) is None, f"{name} gate accepts a correct output")
        out = workload.op(item)
        reason = workload.check(item, corrupt(name, item, out, workload))
        expect(reason is not None, f"{name} gate rejects a corrupted output ({reason})")

        clean_op = workload.op
        workload.op = lambda item, w=workload, op=clean_op, n=name: corrupt(n, item, op(item), w)
        tally = worker.Tally()
        worker.measure(workload, 0.2, tally)
        expect(tally.attempted >= 1 and tally.failed == tally.attempted,
               f"{name} counts {tally.failed}/{tally.attempted} corrupted ops as failed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        print(f"{entry['name']}:")
        check_emitted(spec, entry["name"])
    tmp = ROOT / ".perfbench" / "tmp" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    print("corrupted outputs:")
    try:
        check_corruption(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
