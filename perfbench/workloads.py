"""The benchmark workloads: seeded inputs, one operation each, and its gate.

Each workload builds a fixed pool of inputs from its seed during set-up.
The measured loop cycles through the pool, so runs of any length see the
same input mix, and the per-op counters of a traced run repeat exactly.
Operations call quasitur through module attributes (``thermo.tur_check``,
not a name bound at import), so the tracer's wrappers see every call.

A gate returns ``None`` when the output is correct and a one-line reason
otherwise. Tolerances are those of the acceptance suite.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os

import numpy as np

import quasitur.classical as classical
import quasitur.cli as cli
import quasitur.ensembles as ensembles
import quasitur.lindblad as lindblad
import quasitur.quasiprob as quasiprob
import quasitur.thermo as thermo


class TurEnsemble:
    """tur_check plus geometric_representation on small random instances.

    No propagation: per-call overhead, eigh and kubo_integral dominate.
    """

    name = "tur_ensemble"

    MAX_DIM = 6
    MAX_PAIRS = 3

    def __init__(self, seed: int, tiny: bool, workdir: str):
        rng = np.random.default_rng(seed)
        # every (dim, pairs) class of random_instance equally often, so the
        # seed changes the values and not the mix of sizes
        classes = [(dim, pairs) for dim in range(2, self.MAX_DIM + 1)
                   for pairs in range(1, self.MAX_PAIRS + 1)]
        per_class = 1 if tiny else 8
        self.pool = [(ensembles.random_model(rng, dim, pairs), ensembles.random_state(rng, dim),
                      ensembles.random_observable(rng, dim))
                     for _ in range(per_class) for dim, pairs in classes]
        self.warmup = self.pool[:len(classes)]

    def op(self, item):
        model, state, x = item
        return thermo.tur_check(model, state, x), thermo.geometric_representation(model, state)

    def check(self, item, out):
        report, geo = out
        if not report.slack >= -1e-9 * max(report.epr, 1.0):
            return f"TUR slack {report.slack:.3e} is negative"
        gap = abs(2.0 * report.diffusivity - report.fluctuation)
        if not gap <= 1e-10 * max(report.fluctuation, 1.0):
            return f"|2 D_X - m_X| = {gap:.3e}"
        for what, value in (("epr_inner", geo.epr_inner), ("epr_norm", geo.epr_norm)):
            gap = abs(value - report.epr)
            if not gap <= 1e-8 * max(abs(report.epr), 1.0):
                return f"{what} differs from the EPR by {gap:.3e}"
        return None


class ClassicalBridge:
    """quantize_and_compare on reversible chains, n cycling through 3, 4, 5.

    Default 2 lags and 21-point lambda grid: 44 tiny propagator builds per op.
    """

    name = "classical_bridge"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        rng = np.random.default_rng(seed)
        self.pool = []
        for i in range(3 if tiny else 12):
            n = 3 + i % 3
            r = ensembles.random_reversible_rate_matrix(rng, n)
            p = ensembles.random_probability(rng, n)
            f = rng.normal(size=n)
            # bounded spread, as in acceptance criterion 09
            f = 2.0 * f / max(float(f.max() - f.min()), 1e-12)
            self.pool.append((r, p, f))
        self.warmup = self.pool[:3]

    def op(self, item):
        return classical.quantize_and_compare(*item)

    def check(self, item, out):
        if not out.max_residual <= 1e-9:
            return f"embedding residual {out.max_residual:.3e}"
        if out.tur_slack is None or not out.tur_slack >= 0.0:
            return f"TUR slack {out.tur_slack!r} is not non-negative"
        return None


class DenseTables:
    """tmh_table, propagate and the generating-function moment at d = 32.

    Nearly all the time is the dense expm of the d^2 x d^2 generator.
    """

    name = "dense_tables"
    LAG = 0.05
    PAIRS = 3

    def __init__(self, seed: int, tiny: bool, workdir: str):
        rng = np.random.default_rng(seed)
        dim, count = (6, 2) if tiny else (32, 3)
        self.pool = [self._instance(rng, dim) for _ in range(count)]
        # a small instance loads the same code paths without a d = 32 expm
        self.warmup = [self._instance(rng, min(dim, 8))]

    def _instance(self, rng, dim):
        return (ensembles.random_model(rng, dim, self.PAIRS),
                ensembles.random_state(rng, dim),
                ensembles.random_observable(rng, dim))

    def op(self, item):
        model, state, x = item
        obs = quasiprob.ObservableDecomposition.from_operator(x)
        table = quasiprob.tmh_table(model, state, obs, self.LAG)
        evolved = lindblad.propagate(model, state, self.LAG)
        moment = quasiprob.moment_from_generating_function(model, state, obs, 2, self.LAG)
        return obs, table, evolved, moment

    def check(self, item, out):
        _model, state, _x = item
        obs, table, evolved, moment = out
        projectors = obs.projectors
        for what, marginal, rho in (("initial", table.marginal_initial(), state.rho),
                                    ("final", table.marginal_final(), evolved.rho)):
            populations = np.einsum("kij,ji->k", projectors, rho).real
            gap = float(np.max(np.abs(marginal - populations)))
            if not gap <= 1e-9:
                return f"{what} marginal differs from the populations by {gap:.3e}"
        gap = abs(table.moment(2) - moment.value)
        if not gap <= 1e-8:
            return f"table second moment differs from the generating function by {gap:.3e}"
        return None


class CollectiveSweep:
    """In-process ``quasitur sweep`` over the collective model, one state kind per op.

    The seed picks the band gap and the current scale; the exponents and
    verdicts checked do not depend on them.
    """

    name = "collective_sweep"
    KINDS = ("+", "-", "diagonal")

    def __init__(self, seed: int, tiny: bool, workdir: str):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.omega = float(rng.uniform(0.5, 2.0))
        self.balance = float(rng.uniform(0.25, 1.0))
        n_list = (4, 8, 16, 32) if tiny else (16, 32, 64, 128, 256)
        self.pool = [(kind, n_list) for kind in self.KINDS]
        self.warmup = [("+", (2, 4, 8, 16))]
        self.csv_path = os.path.join(workdir, "sweep.csv")
        self.json_path = os.path.join(workdir, "sweep.json")

    def op(self, item):
        kind, n_list = item
        argv = ["sweep", "--n", ",".join(str(n) for n in n_list), "--sign", kind,
                "--omega", repr(self.omega), "--balance", repr(self.balance),
                "--workers", "1", "--seed", str(self.seed),
                "--output-csv", self.csv_path, "--output-json", self.json_path]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(argv)

    def check(self, item, out):
        kind, _n_list = item
        if out != 0:
            return f"sweep exited with code {out}"
        with open(self.json_path) as fh:
            summary = json.load(fh)["result"]
        with open(self.csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        slopes = {name: fit["slope"] for name, fit in summary["exponents"].items()}
        q1 = summary["conditions"]["q1"]["satisfied"]
        q2 = summary["conditions"]["q2"]["satisfied"]
        if kind == "+":
            bounds = np.array([float(row["bound"]) for row in rows])
            spread = float(np.max(np.abs(bounds / bounds.mean() - 1.0)))
            if not abs(slopes["m_x"] - 2.0) <= 0.05:
                return f"m_H exponent {slopes['m_x']:.4f} is not 2"
            if not abs(slopes["current"] - 1.0) <= 0.05:
                return f"current exponent {slopes['current']:.4f} is not 1"
            if not spread <= 0.10:
                return f"bound spread {spread:.3%} exceeds 10%"
            if not (q1 and q2):
                return f"plus state verdicts (Q1, Q2) = ({q1}, {q2})"
        elif kind == "-":
            worst = max(abs(float(row["m_X"])) for row in rows)
            if not worst <= 1e-10:
                return f"minus-state m_H reaches {worst:.3e}"
            if q1 or q2:
                return f"minus state verdicts (Q1, Q2) = ({q1}, {q2})"
        elif not slopes["m_x"] <= 1.05:
            return f"diagonal m_H exponent {slopes['m_x']:.4f} exceeds 1.05"
        return None


WORKLOADS = {cls.name: cls for cls in (TurEnsemble, ClassicalBridge, DenseTables, CollectiveSweep)}
