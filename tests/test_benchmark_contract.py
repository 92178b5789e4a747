"""The benchmark's tiny input pools run clean against the library.

Every workload under ``perfbench/`` is built at its tiny size and each op of
its pool is run through ``worker.run_op``, once untraced and once with
``tracing.Tracer`` installed. An op fails when it raises or when its gate
rejects the output, so an API the benchmark relies on (a CLI option, a
patched module attribute, a report field) that goes missing fails here.
The files under ``perfbench/`` are only read.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


worker = _load("worker")
workloads = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pool_runs_clean(name, tmp_path):
    workload = workloads.WORKLOADS[name](7, True, str(tmp_path))
    reasons = [worker.run_op(workload, item)[1] for item in workload.pool]
    rec = tracing.Recorder()
    tracer = tracing.Tracer(rec)
    tracer.install()
    try:
        reasons += [worker.run_op(workload, item, rec)[1] for item in workload.pool]
    finally:
        tracer.uninstall()
    assert reasons == [None] * (2 * len(workload.pool))
    assert rec.calls, "the tracer saw no library call"
