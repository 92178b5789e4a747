"""Write every CLI report, the demo output and the ACCEPTANCE lines to one
directory, so that two trees can be compared byte for byte.

    PYTHONPATH=src python tests/golden_outputs.py OUTDIR

Run it once per tree (each with its own ``src`` on ``PYTHONPATH``, the tool
reads the demos and the acceptance suite next to it), then compare with
``diff -r OUTDIR_A OUTDIR_B`` or with

    PYTHONPATH=src python tests/golden_outputs.py --compare OUTDIR_A OUTDIR_B

which names every file that differs and prints, over the numbers parsed
from both (CSV, JSON and text alike), the largest absolute and relative
difference, and whether the text around the numbers differs too (hashes,
verdicts). Each such line ends in ``; rounding`` when no other text
differs and every pair of numbers agrees to 1e-12 times the largest
absolute number in the file, so that a residual near zero may move by
rounding of the quantities it is a difference of; and in ``; changed``
otherwise. The label does not change the exit status: 0 when the two
directories are byte-identical, 1 when any file differs or exists on one
side only.

The input files are built from fixed seeds and saved into OUTDIR first,
and every command runs inside OUTDIR with relative paths, so the paths
recorded in the reports agree between runs. Wall times in the ACCEPTANCE
lines are masked. pytest does not collect this file (its name does not
start with ``test_``).
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from quasitur.classical import ClassicalModel, save_classical_model
from quasitur.cli import run
from quasitur.ensembles import (
    random_model,
    random_observable,
    random_probability,
    random_reversible_rate_matrix,
    random_state,
)
from quasitur.lindblad import QuantumState, save_model, save_state
from quasitur.util import matrix_to_json

from oracles import ladder_model, ladder_state

ROOT = Path(__file__).resolve().parent.parent
WALL_TIME = re.compile(r"(?<![\w.])\d+\.\d+s\b")
# a whole token that parses as a float; digits inside a hex digest do not count
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?!\w|\.\d)|\b(?:nan|inf)\b")

SWEEP = ["sweep", "--output-csv", "{tag}.csv", "--output-json", "{tag}.json"]
COMMANDS = {
    "validate": ["validate", "--model", "model.json", "--output", "validate.json"],
    "propagate": ["propagate", "--model", "model.json", "--state", "state.json",
                  "--time", "0.7", "--output", "propagate.json"],
    "tur": ["tur", "--model", "model.json", "--state", "state.json",
            "--observable", "observable.json", "--output", "tur.json"],
    "tur_floored": ["tur", "--model", "model.json", "--state", "rank_deficient.json",
                    "--observable", "observable.json", "--output", "tur_floored.json"],
    "sweep_plus": SWEEP + ["--n", "4,8,16,32", "--sign", "+"],
    "sweep_minus": SWEEP + ["--n", "4,8,16,32", "--sign", "-"],
    "sweep_diagonal": SWEEP + ["--n", "4,8,16,32", "--sign", "diagonal"],
    "sweep_odd": SWEEP + ["--n", "3,5,7,9", "--sign", "+", "--gammas", "0.7,1.3"],
    # odd N, where the - state's interband flux is nonzero
    "sweep_minus_odd": SWEEP + ["--n", "3,5,7,9", "--sign", "-"],
    "example_plus": ["example", "--n", "2,3,4,8", "--sign", "+", "--output", "example_plus.csv"],
    "example_minus": ["example", "--n", "2,3,4,8", "--sign", "-", "--output", "example_minus.csv"],
    "fcs_compare": ["fcs-compare", "--model", "ladder.json", "--state", "ladder_state.json",
                    "--observable", "ladder_observable.json", "--output", "fcs_compare.csv"],
    "classical_check": ["classical-check", "--model", "classical.json",
                        "--output", "classical_check.json"],
}


def write_inputs() -> None:
    """Seeded model, state, observable and classical files in the cwd."""
    rng = np.random.default_rng(2025)
    model = random_model(rng, 4, 2)
    save_model(model, "model.json")
    save_state(random_state(rng, 4), "state.json")
    # rank 2 of 4, so tur floors it
    vecs = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0]
    save_state(QuantumState((vecs * [0.6, 0.4]) @ vecs.conj().T), "rank_deficient.json")
    with open("observable.json", "w") as fh:
        json.dump({"observable": matrix_to_json(random_observable(rng, 4).astype(complex))}, fh)
    save_model(ladder_model(), "ladder.json")
    save_state(ladder_state(), "ladder_state.json")
    with open("ladder_observable.json", "w") as fh:
        json.dump({"observable": matrix_to_json(np.diag([0.0, 1.0, 2.0]).astype(complex))}, fh)
    save_classical_model(ClassicalModel(rate_matrix=random_reversible_rate_matrix(rng, 4),
                                        p0=random_probability(rng, 4), f=rng.normal(size=4)),
                         "classical.json")


def run_commands() -> None:
    """Every CLI command in-process; stdout, stderr and exit code go to
    ``<tag>.out`` next to the report files the command writes."""
    for tag, argv in COMMANDS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([arg.format(tag=tag) for arg in argv])
        Path(f"{tag}.out").write_text(f"exit {code}\n{out.getvalue()}{err.getvalue()}")


def run_demos(env: dict) -> None:
    Path("demos").mkdir()
    for path in sorted((ROOT / "demos").glob("*.py")):
        done = subprocess.run([sys.executable, str(path)], env=env, capture_output=True, text=True)
        Path("demos", path.stem + ".txt").write_text(f"exit {done.returncode}\n{done.stdout}")


def run_acceptance(env: dict) -> None:
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                           str(ROOT / "tests" / "test_acceptance.py")],
                          env=env, cwd=ROOT, capture_output=True, text=True)
    # with -q -s a verdict line may follow the progress dots on its line
    lines = [WALL_TIME.sub("<wall>s", line[line.index("ACCEPTANCE"):])
             for line in done.stdout.splitlines() if "ACCEPTANCE" in line]
    Path("acceptance.txt").write_text("\n".join(lines) + "\n")


def compare(dir_a: str, dir_b: str) -> bool:
    """Print, per file that differs between the two output directories, the
    largest absolute and relative difference between its parsed numbers.
    Return whether any file differs or exists on one side only."""
    a_root, b_root = Path(dir_a), Path(dir_b)
    names = sorted({p.relative_to(root).as_posix() for root in (a_root, b_root)
                    for p in root.rglob("*") if p.is_file()})
    differs = False
    for name in names:
        a_path, b_path = a_root / name, b_root / name
        if not (a_path.is_file() and b_path.is_file()):
            print(f"{name}: only in {dir_a if a_path.is_file() else dir_b}")
            differs = True
            continue
        if a_path.read_bytes() == b_path.read_bytes():
            continue
        differs = True
        a_text, b_text = a_path.read_text(), b_path.read_text()
        a_nums = np.array([float(x) for x in NUMBER.findall(a_text)])
        b_nums = np.array([float(x) for x in NUMBER.findall(b_text)])
        other = NUMBER.sub("#", a_text) != NUMBER.sub("#", b_text)
        if a_nums.shape != b_nums.shape:
            print(f"{name}: {len(a_nums)} against {len(b_nums)} numbers; changed")
            continue
        diff = np.abs(a_nums - b_nums)
        scale = np.maximum(np.abs(a_nums), np.abs(b_nums))
        rel = np.divide(diff, scale, out=np.zeros_like(diff), where=diff > 0)
        rounding = not other and diff.max(initial=0.0) <= 1e-12 * scale.max(initial=0.0)
        print(f"{name}: {int(np.sum(diff > 0))} of {len(diff)} numbers differ, "
              f"max abs {diff.max(initial=0.0):.3e}, max rel {rel.max(initial=0.0):.3e}"
              + ("; other text differs" if other else "")
              + ("; rounding" if rounding else "; changed"))
    return differs


def main(outdir: str) -> None:
    out = Path(outdir).resolve()
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    os.chdir(out)
    write_inputs()
    run_commands()
    run_demos(env)
    run_acceptance(env)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(int(compare(sys.argv[2], sys.argv[3])))
    elif len(sys.argv) == 2:
        main(sys.argv[1])
    else:
        sys.exit(__doc__)
