import json

import numpy as np
import pytest

from quasitur.cli import run
from quasitur.lindblad import (
    JumpPair,
    LindbladModel,
    QuantumState,
    load_state,
    propagate,
    save_model,
    save_state,
)
from quasitur.util import matrix_to_json, write_json

from oracles import SIGMA_MINUS, SIGMA_PLUS, thermal_qubit


@pytest.fixture
def workdir(tmp_path):
    model = thermal_qubit(0.5, 1.0)
    save_model(model, tmp_path / "model.json")
    save_state(QuantumState(np.diag([0.7, 0.3]).astype(complex)), tmp_path / "state.json")
    with open(tmp_path / "observable.json", "w") as fh:
        json.dump({"observable": matrix_to_json(np.diag([0.0, 1.0]).astype(complex))}, fh)
    with open(tmp_path / "classical.json", "w") as fh:
        json.dump({"rate_matrix": [[-1.0, 2.0], [1.0, -2.0]],
                   "p0": [0.6, 0.4], "f": [0.0, 1.0]}, fh)
    return tmp_path


class TestValidate:
    def test_pass(self, workdir, capsys):
        code = run(["validate", "--model", str(workdir / "model.json")])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_fail_exit_one(self, workdir):
        pair = JumpPair(np.sqrt(0.5) * SIGMA_PLUS, SIGMA_MINUS, 1.0)  # wrong current
        save_model(LindbladModel(np.zeros((2, 2), complex), (pair,)), workdir / "bad.json")
        assert run(["validate", "--model", str(workdir / "bad.json")]) == 1

    def test_report_file(self, workdir):
        out = workdir / "validate.json"
        run(["validate", "--model", str(workdir / "model.json"), "--output", str(out)])
        payload = json.loads(out.read_text())
        assert payload["result"]["passed"] is True
        assert payload["config"]["tol"] == 1e-8

    def test_non_finite_residual_written_as_null(self, workdir):
        # exp(s/2) overflows at s = 2000, so the second residual is NaN; the
        # report must still parse as strict JSON
        overflowing = JumpPair(SIGMA_PLUS, SIGMA_MINUS, 2000.0)
        model = thermal_qubit(0.5, 1.0)
        save_model(LindbladModel(model.hamiltonian, (*model.jump_pairs, overflowing)),
                   workdir / "overflow.json")
        out = workdir / "validate.json"
        code = run(["validate", "--model", str(workdir / "overflow.json"), "--output", str(out)])
        assert code == 1

        def strict(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        result = json.loads(out.read_text(), parse_constant=strict)["result"]
        assert result["residuals"][1] is None
        assert 0.0 <= result["residuals"][0] <= 1e-8
        assert result["passed"] is False

    def test_write_json_refuses_non_finite(self, tmp_path):
        out = tmp_path / "report.json"
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                write_json(out, {"result": [0.0, value]})
            assert not out.exists()


class TestTUR:
    def test_report_and_exit_zero(self, workdir):
        out = workdir / "tur.json"
        code = run([
            "tur", "--model", str(workdir / "model.json"),
            "--state", str(workdir / "state.json"),
            "--observable", str(workdir / "observable.json"),
            "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        result = payload["result"]
        assert result["slack"] >= -1e-9 * max(result["epr"], 1.0)
        for key in ("epr", "current", "fluctuation", "bound", "slack", "diffusivity",
                    "model_hash", "observable_hash"):
            assert key in result

    def test_byte_identical_reruns(self, workdir):
        args = [
            "tur", "--model", str(workdir / "model.json"),
            "--state", str(workdir / "state.json"),
            "--observable", str(workdir / "observable.json"),
        ]
        out1 = workdir / "tur1.json"
        out2 = workdir / "tur2.json"
        run(args + ["--output", str(out1)])
        run(args + ["--output", str(out2)])
        text1 = out1.read_text().replace("tur1", "tur")
        text2 = out2.read_text().replace("tur2", "tur")
        assert text1 == text2

    def test_violation_exit_one(self, workdir):
        # mislabeled entropy current: the report must flag the inconsistency
        gp, gm = 0.1, 2.0
        pair = JumpPair(np.sqrt(gp) * SIGMA_PLUS, np.sqrt(gm) * SIGMA_MINUS,
                        -np.log(gp / gm))
        save_model(LindbladModel(np.diag([0.0, 1.0]).astype(complex), (pair,)),
                   workdir / "inconsistent.json")
        save_state(QuantumState(np.diag([0.05, 0.95]).astype(complex)),
                   workdir / "skewed.json")
        code = run([
            "tur", "--model", str(workdir / "inconsistent.json"),
            "--state", str(workdir / "skewed.json"),
            "--observable", str(workdir / "observable.json"),
        ])
        assert code == 1


    def test_nan_floor_exit_two(self, workdir):
        out = workdir / "tur.json"
        code = run([
            "tur", "--model", str(workdir / "model.json"),
            "--state", str(workdir / "state.json"),
            "--observable", str(workdir / "observable.json"),
            "--floor", "nan", "--output", str(out),
        ])
        assert code == 2
        assert not out.exists()


class TestPropagate:
    def test_matches_library(self, workdir):
        out = workdir / "evolved.json"
        code = run([
            "propagate", "--model", str(workdir / "model.json"),
            "--state", str(workdir / "state.json"),
            "--time", "0.65", "--output", str(out),
        ])
        assert code == 0
        evolved = load_state(out)
        expected = propagate(thermal_qubit(0.5, 1.0),
                             QuantumState(np.diag([0.7, 0.3]).astype(complex)), 0.65)
        np.testing.assert_allclose(evolved.rho, expected.rho, atol=1e-12)

    def test_has_no_method_option(self, workdir):
        out = workdir / "evolved.json"
        with pytest.raises(SystemExit) as exit_info:
            run(["propagate", "--model", str(workdir / "model.json"),
                 "--state", str(workdir / "state.json"),
                 "--time", "0.65", "--method", "ivp", "--output", str(out)])
        assert exit_info.value.code == 2
        assert not out.exists()


class TestExample:
    def test_quadratic_fluctuation_column(self, workdir):
        out = workdir / "example.csv"
        code = run(["example", "--sign", "+", "--n", "4,8,16,32", "--omega", "1",
                    "--gammas", "1,1", "--pg", "0.5", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[0] == "N"
        m_col = lines[1].split(",").index("m_H")
        values = [float(line.split(",")[m_col]) for line in lines[2:]]
        assert values == [16.0, 64.0, 256.0, 1024.0]

    def test_minus_sign_even(self, workdir):
        out = workdir / "example_minus.csv"
        assert run(["example", "--sign", "-", "--n", "2,4,6", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        m_col = lines[1].split(",").index("m_H")
        assert all(float(line.split(",")[m_col]) == 0.0 for line in lines[2:])


class TestSweep:
    def test_outputs(self, workdir):
        csv_path = workdir / "sweep.csv"
        json_path = workdir / "sweep.json"
        code = run(["sweep", "--n", "4,8,16,32", "--sign", "+",
                    "--output-csv", str(csv_path), "--output-json", str(json_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "N,m_X,escape_rate,min_T,J_d,epr,bound"
        assert len(lines) == 5
        summary = json.loads(json_path.read_text())
        assert summary["result"]["exponents"]["m_x"]["slope"] == pytest.approx(2.0, abs=0.05)
        assert summary["result"]["conditions"]["q1"]["satisfied"] is True

    def test_deterministic(self, workdir):
        paths = []
        for tag in ("a", "b"):
            csv_path = workdir / f"sweep_{tag}.csv"
            run(["sweep", "--n", "4,8", "--output-csv", str(csv_path),
                 "--output-json", str(workdir / f"sweep_{tag}.json")])
            paths.append(csv_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_worker_count_does_not_change_output(self, workdir):
        outputs = []
        for tag, workers in (("serial", "1"), ("parallel", "4")):
            csv_path = workdir / f"sweep_{tag}.csv"
            run(["sweep", "--n", "4,8,16", "--workers", workers,
                 "--output-csv", str(csv_path),
                 "--output-json", str(workdir / f"sweep_{tag}.json")])
            outputs.append(csv_path.read_bytes())
        assert outputs[0] == outputs[1]


class TestFCSCompare:
    def test_energy_observable(self, workdir):
        out = workdir / "fcs.csv"
        code = run([
            "fcs-compare", "--model", str(workdir / "model.json"),
            "--state", str(workdir / "state.json"),
            "--observable", str(workdir / "observable.json"),
            "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 42
        residuals = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(residuals) <= 1e-8

    def test_commutation_violation_exit_one(self, workdir):
        with open(workdir / "transverse.json", "w") as fh:
            json.dump({"observable": matrix_to_json(
                np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))}, fh)
        code = run([
            "fcs-compare", "--model", str(workdir / "model.json"),
            "--state", str(workdir / "state.json"),
            "--observable", str(workdir / "transverse.json"),
            "--output", str(workdir / "unused.csv"),
        ])
        assert code == 1


class TestClassicalCheck:
    def test_two_state(self, workdir):
        out = workdir / "classical_report.json"
        code = run(["classical-check", "--model", str(workdir / "classical.json"),
                    "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["reversible"] is True
        assert payload["result"]["fluctuation_residual"] <= 1e-10


class TestHelp:
    def test_defaults_documented(self, capsys):
        with pytest.raises(SystemExit):
            run(["tur", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "(default: 1e-12)" in text  # eigenvalue floor
        with pytest.raises(SystemExit):
            run(["sweep", "--help"])
        assert "(default: 0.5)" in " ".join(capsys.readouterr().out.split())


class TestErrorPaths:
    def test_missing_file_exit_two(self, workdir):
        assert run(["validate", "--model", str(workdir / "absent.json")]) == 2

    def test_corrupt_json_exit_two(self, workdir):
        bad = workdir / "corrupt.json"
        bad.write_text("{not json")
        assert run(["validate", "--model", str(bad)]) == 2

    def test_bad_schema_exit_two(self, workdir):
        bad = workdir / "schema.json"
        bad.write_text(json.dumps({"dim": 2}))
        assert run(["validate", "--model", str(bad)]) == 2

    def test_sweep_nan_floor_exit_two(self, workdir):
        csv_path, json_path = workdir / "s.csv", workdir / "s.json"
        code = run(["sweep", "--n", "4,8", "--floor", "nan",
                    "--output-csv", str(csv_path), "--output-json", str(json_path)])
        assert code == 2
        assert not csv_path.exists() and not json_path.exists()

    def test_sweep_repeated_n_exit_two(self, workdir, capsys):
        # used to exit 0 with two identical rows for N = 8
        csv_path, json_path = workdir / "s.csv", workdir / "s.json"
        code = run(["sweep", "--n", "4,8,8,16",
                    "--output-csv", str(csv_path), "--output-json", str(json_path)])
        assert code == 2
        assert "strictly ascending" in capsys.readouterr().err
        assert not csv_path.exists() and not json_path.exists()

    @pytest.mark.parametrize("outputs", [["sweep", "--output-csv", "s.csv", "--output-json", "s.json"],
                                         ["example", "--output", "e.csv"]])
    def test_empty_n_list_exit_two(self, workdir, outputs, capsys):
        command, *paths = outputs
        paths = [str(workdir / p) if p.endswith(("csv", "json")) else p for p in paths]
        with pytest.raises(SystemExit) as exc:
            run([command, "--n", "", *paths])
        assert exc.value.code == 2
        assert "expected at least one integer" in capsys.readouterr().err

    def test_classical_nan_rate_exit_two(self, workdir, capsys):
        # used to print "generating 0.000e+00 -> FAIL" and exit 1
        bad = workdir / "nan_rates.json"
        bad.write_text(json.dumps({"rate_matrix": [[float("nan"), 2.0], [1.0, -2.0]],
                                   "p0": [0.6, 0.4], "f": [0.0, 1.0]}))
        out = workdir / "report.json"
        assert run(["classical-check", "--model", str(bad), "--output", str(out)]) == 2
        assert "error: rate matrix has non-finite entries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option", [["--omega", "nan"], ["--gammas", "inf,1"]])
    def test_example_non_finite_parameter_exit_two(self, workdir, option, capsys):
        # used to write m_H = nan or inf fluxes and exit 0 with PASS
        out = workdir / "example.csv"
        assert run(["example", "--n", "2,4", *option, "--output", str(out)]) == 2
        assert "positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lags", ["", ","])
    def test_empty_lag_list_exit_two(self, workdir, lags, capsys):
        # an empty list used to compare no table and print PASS
        with pytest.raises(SystemExit) as exc:
            run(["classical-check", "--model", str(workdir / "classical.json"), "--delta-ts", lags])
        assert exc.value.code == 2
        assert "expected at least one lag" in capsys.readouterr().err
