"""The exit status and labels of ``tests/golden_outputs.py --compare`` on
two small output directories."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "golden_outputs.py"
ENV = {**os.environ, "PYTHONPATH": str(SCRIPT.parents[1] / "src")}
REPORT = '{"epr": 0.125, "verdict": "ok"}\n'


def _compare(dir_a, dir_b):
    return subprocess.run([sys.executable, str(SCRIPT), "--compare", str(dir_a), str(dir_b)],
                          env=ENV, capture_output=True, text=True, timeout=300)


def test_compare_exits_one_on_any_difference(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "demos").mkdir(parents=True)
        (root / "tur.json").write_text(REPORT)
        (root / "demos" / "01.txt").write_text("exit 0\nslack 1.5e-3\n")
    identical = _compare(a, b)
    assert (identical.returncode, identical.stdout) == (0, "")

    (b / "tur.json").write_text(REPORT.replace("0.125", "0.126"))
    one_digit = _compare(a, b)
    assert one_digit.returncode == 1
    assert one_digit.stdout.startswith("tur.json: 1 of 1 numbers differ, max abs 1.000e-03")
    assert one_digit.stdout.endswith("; changed\n")

    # 0.12500000000000003 is 0.125 plus one unit in the last place
    (b / "tur.json").write_text(REPORT.replace("0.125", "0.12500000000000003"))
    last_place = _compare(a, b)
    assert last_place.returncode == 1
    assert last_place.stdout == ("tur.json: 1 of 1 numbers differ, max abs 2.776e-17, "
                                 "max rel 2.220e-16; rounding\n")

    # a residual of 1e-17 that moves by half is rounding next to the 0.125 in its file
    (a / "tur.json").write_text(REPORT.replace('"ok"', '"ok", "residual": 1e-17'))
    (b / "tur.json").write_text(REPORT.replace('"ok"', '"ok", "residual": 1.5e-17'))
    residual = _compare(a, b)
    assert residual.stdout == ("tur.json: 1 of 2 numbers differ, max abs 5.000e-18, "
                               "max rel 3.333e-01; rounding\n")
    (a / "tur.json").write_text(REPORT)

    (b / "tur.json").write_text(REPORT.replace("0.125", "0.12500000000000003").replace("ok", "no"))
    verdict = _compare(a, b)
    assert verdict.stdout.endswith("; other text differs; changed\n")

    (b / "tur.json").write_text(REPORT)
    (a / "demos" / "02.txt").write_text("exit 0\n")
    one_side = _compare(a, b)
    assert (one_side.returncode, one_side.stdout) == (1, f"demos/02.txt: only in {a}\n")
