"""Command-line front end.

Subcommands parse model/state/observable files, dispatch the library
computations, and emit JSON (scalar results) or CSV (tables and sweeps)
reports. Outputs are deterministic: identical config and seed produce
byte-identical files. Exit codes: 0 success, 1 validation failure,
2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .classical import load_classical_model, quantize_and_compare
from .degeneracy import (
    CollectiveModelParams,
    ClosedFormFluxes,
    build_collective_model,
    build_plus_minus_state,
    closed_form_reference,
    collective_basis,
    q1_q2_diagnostics,
    scaling_sweep,
    sweep_summary,
    sweep_to_csv,
)
from .errors import CommutationViolatedError, QuasiturError
from .fcs import compare_rates
from .lindblad import (
    load_model,
    load_state,
    propagate,
    save_state,
    validate_local_detailed_balance,
)
from .quasiprob import ObservableDecomposition, flux_matrix, short_time_moment
from .thermo import DEFAULT_EIGENVALUE_FLOOR, tur_check, tur_report_dict
from .util import (CLOSED_FORM_TOL, DETAILED_BALANCE_TOL, EMBEDDING_TOL, TUR_SLACK_TOL,
                   float_repr, matrix_from_json, read_json, write_json)


def _load_observable(path) -> ObservableDecomposition:
    return ObservableDecomposition.from_operator(matrix_from_json(read_json(path)["observable"]))


def _write_json(path, config: dict, result: dict) -> None:
    write_json(path, {"config": config, "result": result})


def _config_dict(args, keys) -> dict:
    return {key: getattr(args, key.replace("-", "_")) for key in keys}


#: largest N whose closed forms ``example`` cross-checks against summed fluxes
EXAMPLE_VERIFY_MAX_N = 64


def _list_of(kind, noun: str):
    """argparse type: a non-empty comma-separated list of ``kind``."""
    def parse(text: str) -> list:
        values = [kind(part) for part in text.split(",") if part]
        if not values:
            raise argparse.ArgumentTypeError(f"expected at least one {noun}")
        return values
    return parse


def _float_pair(text: str) -> tuple[float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated values")
    return parts[0], parts[1]


def cmd_validate(args) -> int:
    model = load_model(args.model)
    report = validate_local_detailed_balance(model)
    result = {
        "residuals": list(report.residuals),
        "tolerance": DETAILED_BALANCE_TOL,
        "passed": report.passed,
    }
    if args.output:
        config = {"model": args.model, "tol": DETAILED_BALANCE_TOL, "seed": args.seed}
        _write_json(args.output, config, result)
    print(f"local detailed balance: {'PASS' if report.passed else 'FAIL'} "
          f"(max residual {report.max_residual:.3e}, tol {DETAILED_BALANCE_TOL:.1e})")
    return 0 if report.passed else 1


def cmd_propagate(args) -> int:
    model = load_model(args.model)
    state = load_state(args.state)
    final = propagate(model, state, args.time, method=args.method)
    save_state(final, args.output)
    print(f"propagated to t={args.time}; state written to {args.output}")
    return 0


def cmd_tur(args) -> int:
    model = load_model(args.model)
    state = load_state(args.state)
    obs = _load_observable(args.observable)
    report = tur_check(model, state, obs, eigenvalue_floor=args.floor)
    result = tur_report_dict(report, model, obs)
    config = _config_dict(args, ["model", "state", "observable", "floor", "seed"])
    if args.output:
        _write_json(args.output, config, result)
    ok = report.slack >= -TUR_SLACK_TOL * max(report.epr, 1.0)
    print(f"epr={report.epr!r} bound={report.bound!r} slack={report.slack!r} "
          f"-> {'PASS' if ok else 'VIOLATION'}")
    return 0 if ok else 1


def _collective_params(args, n: int) -> CollectiveModelParams:
    gamma_plus, gamma_minus = args.gammas
    return CollectiveModelParams(
        n_levels=n,
        omega=args.omega,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        p_g=args.pg,
    )


def cmd_sweep(args) -> int:
    template = _collective_params(args, args.n[0])
    balance = None if args.balance is not None and args.balance <= 0 else args.balance
    report = scaling_sweep(
        template,
        args.n,
        state_kind=args.sign,
        epr_floor=args.floor,
        balance_scale=balance,
        workers=args.workers,
    )
    conditions = q1_q2_diagnostics(report) if len(args.n) >= 4 else None
    sweep_to_csv(report, args.output_csv)
    config = _config_dict(args, ["sign", "omega", "pg", "floor", "workers", "seed"])
    config["n"] = args.n
    config["gammas"] = list(args.gammas)
    config["balance"] = balance
    _write_json(args.output_json, config, sweep_summary(report, conditions))
    print(f"sweep over N={args.n} written to {args.output_csv} and {args.output_json}")
    for name, fit in report.exponents.items():
        print(f"  {name}: exponent {fit.slope:.4f} (R^2 {fit.r_squared:.5f})")
    if conditions is not None:
        print(f"  Q1 satisfied: {conditions.q1.satisfied}  Q2 satisfied: {conditions.q2.satisfied}")
    return 0


def cmd_example(args) -> int:
    """Closed-form fluxes for the collective model, cross-checked numerically."""
    rows = []
    worst = 0.0
    for n in args.n:
        params = _collective_params(args, n)
        ref = closed_form_reference(params, args.sign)
        row = {"N": n, "ref": ref}
        if n <= EXAMPLE_VERIFY_MAX_N:
            model = build_collective_model(params)
            state = build_plus_minus_state(params, args.sign)
            flux = flux_matrix(model, state, collective_basis(params))
            integrated = flux.integrated
            got = ClosedFormFluxes(
                t_eg=integrated[1, 0],
                t_gg=integrated[0, 0],
                t_ge=integrated[0, 1],
                t_ee=integrated[1, 1],
                escape_rate=flux.escape_rate,
                m_h=short_time_moment(flux, 2).value,
            )
            residual = max(
                abs(getattr(got, name) - getattr(ref, name)) / max(abs(getattr(ref, name)), 1.0)
                for name in ("t_eg", "t_gg", "t_ge", "t_ee", "escape_rate", "m_h")
            )
            worst = max(worst, residual)
            row["residual"] = residual
        rows.append(row)
    with open(args.output, "w") as fh:
        fh.write(f"# sign={args.sign} omega={float_repr(args.omega)} "
                 f"gamma_plus={float_repr(args.gammas[0])} gamma_minus={float_repr(args.gammas[1])} "
                 f"pg={float_repr(args.pg)} seed={args.seed}\n")
        fh.write("N,T_eg,T_gg,T_ge,T_ee,escape_rate,m_H,residual\n")
        for row in rows:
            ref = row["ref"]
            cells = [str(row["N"])] + [
                float_repr(v) for v in
                (ref.t_eg, ref.t_gg, ref.t_ge, ref.t_ee, ref.escape_rate, ref.m_h)
            ]
            cells.append(float_repr(row["residual"]) if "residual" in row else "")
            fh.write(",".join(cells) + "\n")
    ok = worst <= CLOSED_FORM_TOL
    print(f"closed forms written to {args.output}; worst residual {worst:.3e} "
          f"-> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_fcs_compare(args) -> int:
    model = load_model(args.model)
    state = load_state(args.state)
    obs = _load_observable(args.observable)
    try:
        comparison = compare_rates(model, state, obs)
    except CommutationViolatedError as exc:
        print(f"commutation condition violated: {exc}", file=sys.stderr)
        return 1
    comparison.to_csv(args.output)
    print(f"rate comparison written to {args.output}; sine-formula residual "
          f"{comparison.residual:.3e}, even-moment gaps "
          f"{comparison.even_moment_differences}")
    return 0


def cmd_classical_check(args) -> int:
    cls = load_classical_model(args.model)
    report = quantize_and_compare(cls.rate_matrix, cls.p0, cls.f, delta_ts=args.delta_ts)
    config = {"model": args.model, "tol": EMBEDDING_TOL, "seed": args.seed}
    config["delta_ts"] = ",".join(float_repr(dt) for dt in args.delta_ts)
    if args.output:
        _write_json(args.output, config, dataclasses.asdict(report))
    ok = report.max_residual <= EMBEDDING_TOL
    print(f"embedding residuals: fluctuation {report.fluctuation_residual:.3e}, "
          f"tables {[f'{r:.3e}' for r in report.table_residuals]}, "
          f"generating {report.generating_residual:.3e} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasitur",
        description="Quasiprobability statistics and thermodynamic uncertainty "
                    "diagnostics for Lindblad models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(fn=fn)
        p.add_argument("--seed", type=int, default=0,
                       help="seed recorded in report metadata")
        return p

    p = add("validate", cmd_validate, "check local detailed balance of a model file")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--output", default=None, help="optional JSON report path")

    p = add("propagate", cmd_propagate, "evolve a state file for a given time")
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--time", type=float, required=True, help="evolution time")
    p.add_argument("--method", choices=["auto", "ivp"], default="auto",
                   help="propagation backend: auto picks a route per call (see "
                        "README, Cost of propagation); ivp integrates with "
                        "adaptive Runge-Kutta as a cross-check")
    p.add_argument("--output", required=True, help="output state JSON path")

    p = add("tur", cmd_tur, "evaluate the uncertainty-relation report")
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--observable", required=True, help="observable JSON file")
    p.add_argument("--floor", type=float, default=DEFAULT_EIGENVALUE_FLOOR,
                   help="eigenvalue floor for rank-deficient states")
    p.add_argument("--output", default=None, help="optional JSON report path")

    p = add("sweep", cmd_sweep, "scaling sweep of the collective model over N")
    p.add_argument("--n", type=_list_of(int, "integer"), required=True,
                   help="strictly ascending N list, e.g. 4,8,16")
    p.add_argument("--sign", choices=["+", "-", "diagonal"], default="+",
                   help="band superposition sign or the diagonal control state")
    p.add_argument("--omega", type=float, default=1.0, help="band gap")
    p.add_argument("--gammas", type=_float_pair, default=(1.0, 1.0),
                   help="gamma_plus,gamma_minus")
    p.add_argument("--pg", type=float, default=0.5, help="ground-band weight")
    p.add_argument("--balance", type=float, default=0.5,
                   help="current scale kappa retuning p_g per N; <=0 keeps p_g fixed")
    p.add_argument("--floor", type=float, default=DEFAULT_EIGENVALUE_FLOOR,
                   help="EPR eigenvalue floor")
    p.add_argument("--workers", type=int, default=1, help="parallel sweep workers")
    p.add_argument("--output-csv", required=True)
    p.add_argument("--output-json", required=True)

    p = add("example", cmd_example, "closed-form collective-model fluxes per N")
    p.add_argument("--n", type=_list_of(int, "integer"), required=True, help="N list, e.g. 2,4,8")
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--gammas", type=_float_pair, default=(1.0, 1.0))
    p.add_argument("--pg", type=float, default=0.5)
    p.add_argument("--output", required=True, help="output CSV path")

    p = add("fcs-compare", cmd_fcs_compare,
            "compare quasiprobability and jump-counting generating rates")
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--observable", required=True)
    p.add_argument("--output", required=True, help="output CSV path")

    p = add("classical-check", cmd_classical_check,
            "verify the diagonal embedding of a classical model file")
    p.add_argument("--model", required=True, help="classical model JSON file")
    p.add_argument("--delta-ts", type=_list_of(float, "lag"), default="0.01,0.1",
                   help="comparison lags")
    p.add_argument("--output", default=None, help="optional JSON report path")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (QuasiturError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
