"""Degenerate-eigenbasis fluxes, anomalous-scaling diagnostics, and the
collective two-band model used to exercise them.

For an observable with eigenvalue groups {x_s} spanned by bases {|s,j>},
the basis-resolved fluxes T_{s'j',sj} sum into integrated fluxes between
groups. Large negativity of some integrated flux (Q1) or super-linear
growth of the average escape rate (Q2) are the non-classical signatures
required for the short-time fluctuation to grow faster than the degeneracy.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import BasisMismatchError, InsufficientPointsError
from .lindblad import JumpPair, LindbladModel, QuantumState, resolved_fluxes
from .operators import ObservableDecomposition
from .thermo import DEFAULT_EIGENVALUE_FLOOR, entropy_production_rate, tur_bound
from .util import change_moment, dagger, float_repr, group_sums

#: floor used when taking logs of series that may contain exact zeros
LOG_CLIP = 1e-30


@dataclass(frozen=True)
class IntegratedFluxMatrix:
    """Group-to-group integrated fluxes and the average escape rate.

    ``values[s', s]`` sums the basis-resolved fluxes from group s to s',
    excluding the self-transitions (s, j) -> (s, j) on the diagonal. The
    escape rate is minus the sum of exactly those excluded self-terms, so
    the grand sum of ``values`` equals ``escape_rate``. ``resolved`` keeps
    the per-state matrix, indexed [final, initial] like the group table.
    """

    group_values: np.ndarray
    values: np.ndarray
    escape_rate: float
    resolved: np.ndarray

    def second_moment(self) -> float:
        """m_X = sum (x_s - x_s')^2 T_{s's}."""
        return change_moment(self.group_values, self.group_values, self.values, 2)

    @property
    def min_flux(self) -> float:
        return float(self.values.min())


def integrated_fluxes(model: LindbladModel, state: QuantumState,
                      basis: ObservableDecomposition) -> IntegratedFluxMatrix:
    """Basis-resolved fluxes T_{s'j',sj} summed into group fluxes.

    Each flux is tr({L^dag P_{s'j'}, P_{sj}} rho) / 2 with rank-one
    projectors, taken from :func:`quasitur.lindblad.resolved_fluxes` in one
    O(d^3) closed form. The group fluxes sum them with the self-terms
    (s, j) -> (s, j) removed; the escape rate is minus those self-terms.
    """
    if basis.dim != model.dim:
        raise BasisMismatchError("basis dimension differs from model")
    resolved = resolved_fluxes(model, state, basis.eigenvectors)
    self_terms = np.diag(resolved)
    values = group_sums(resolved - np.diag(self_terms), basis.class_members)
    return IntegratedFluxMatrix(
        group_values=basis.class_values,
        values=values,
        escape_rate=-float(self_terms.sum()),
        resolved=resolved,
    )


@dataclass(frozen=True)
class ClassicalityReport:
    """Jump matrix-element magnitudes and counts per basis transition."""

    max_magnitude: np.ndarray
    jump_counts: np.ndarray
    magnitude_bound: float
    count_bound: int
    classical: bool

    @property
    def worst_magnitude(self) -> float:
        return float(self.max_magnitude.max()) if self.max_magnitude.size else 0.0

    @property
    def worst_count(self) -> int:
        return int(self.jump_counts.max()) if self.jump_counts.size else 0


def classify_basis_classicality(model: LindbladModel, basis: ObservableDecomposition,
                                magnitude_bound: float, count_bound: int,
                                zero_tol: float = 1e-12) -> ClassicalityReport:
    """Classify a basis as classical if every transition is touched by at
    most ``count_bound`` jumps, each with matrix element at most
    ``magnitude_bound`` in magnitude."""
    if basis.dim != model.dim:
        raise BasisMismatchError("basis dimension differs from model")
    v = basis.eigenvectors
    n = v.shape[1]
    max_mag = np.zeros((n, n))
    counts = np.zeros((n, n), dtype=int)
    for op in model.jump_operators:
        mags = np.abs(dagger(v) @ op @ v)
        max_mag = np.maximum(max_mag, mags)
        counts += mags > zero_tol
    classical = bool(np.all(max_mag <= magnitude_bound) and np.all(counts <= count_bound))
    return ClassicalityReport(
        max_magnitude=max_mag,
        jump_counts=counts,
        magnitude_bound=float(magnitude_bound),
        count_bound=int(count_bound),
        classical=classical,
    )


def l1_coherence(state: QuantumState, basis: ObservableDecomposition) -> float:
    """Sum of absolute off-diagonal elements of rho in the given basis."""
    v = basis.eigenvectors
    mat = dagger(v) @ state.rho @ v
    return float(np.sum(np.abs(mat)) - np.sum(np.abs(np.diag(mat))))


# --- collective two-band model ---------------------------------------------


@dataclass(frozen=True)
class CollectiveModelParams:
    """Two N-fold degenerate bands with collective raising and lowering."""

    n_levels: int
    omega: float = 1.0
    gamma_plus: float = 1.0
    gamma_minus: float = 1.0
    p_g: float = 0.5

    def __post_init__(self):
        if self.n_levels < 1:
            raise ValueError("n_levels must be >= 1")
        if self.omega <= 0 or self.gamma_plus <= 0 or self.gamma_minus <= 0:
            raise ValueError("omega and rates must be positive")
        if not 0.0 <= self.p_g <= 1.0:
            raise ValueError("p_g must lie in [0, 1]")

    @property
    def p_e(self) -> float:
        return 1.0 - self.p_g

    @property
    def dim(self) -> int:
        return 2 * self.n_levels


def parity(n: int) -> int:
    """Remainder of n modulo 2; controls the alternating-sign closed forms."""
    return n % 2


def build_collective_model(params: CollectiveModelParams) -> LindbladModel:
    """H = omega on the upper band; collective all-to-all jump operators.

    Basis ordering: the N ground levels first, then the N excited levels.
    The pair entropy current is ln(gamma_+/gamma_-), which satisfies local
    detailed balance exactly by construction.
    """
    n = params.n_levels
    d = params.dim
    ham = np.zeros((d, d), dtype=complex)
    ham[n:, n:] = params.omega * np.eye(n)
    l_plus = np.zeros((d, d), dtype=complex)
    l_plus[n:, :n] = np.sqrt(params.gamma_plus)
    l_minus = np.zeros((d, d), dtype=complex)
    l_minus[:n, n:] = np.sqrt(params.gamma_minus)
    s_plus = float(np.log(params.gamma_plus / params.gamma_minus))
    pair = JumpPair(forward=l_plus, backward=l_minus, entropy_current=s_plus)
    return LindbladModel(hamiltonian=ham, jump_pairs=(pair,))


def collective_basis(params: CollectiveModelParams) -> ObservableDecomposition:
    """The product basis {|g,j>, |e,j>} with exact groups."""
    n = params.n_levels
    eye = np.eye(params.dim, dtype=complex)
    return ObservableDecomposition.from_groups(((0.0, eye[:, :n]), (params.omega, eye[:, n:])))


def _band_vector(params: CollectiveModelParams, band: int, sign: str) -> np.ndarray:
    n = params.n_levels
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    signs = (1.0 if sign == "+" else -1.0) ** np.arange(1, n + 1)
    vec = np.zeros(params.dim, dtype=complex)
    vec[band * n:(band + 1) * n] = signs / np.sqrt(n)
    return vec


def build_plus_minus_state(params: CollectiveModelParams, sign: str) -> QuantumState:
    """rho = p_g |g,sgn><g,sgn| + p_e |e,sgn><e,sgn| with the uniform
    (+) or alternating (-) superposition within each band."""
    vg = _band_vector(params, 0, sign)
    ve = _band_vector(params, 1, sign)
    rho = params.p_g * np.outer(vg, vg.conj()) + params.p_e * np.outer(ve, ve.conj())
    return QuantumState(rho)


def build_diagonal_state(params: CollectiveModelParams) -> QuantumState:
    """The incoherent counterpart: uniform populations within each band."""
    n = params.n_levels
    diag = np.concatenate([
        np.full(n, params.p_g / n),
        np.full(n, params.p_e / n),
    ])
    return QuantumState(np.diag(diag.astype(complex)))


def superposition_basis(params: CollectiveModelParams, sign: str) -> ObservableDecomposition:
    """A degenerate basis whose first vector per band is |s,+> (or |s,->).

    The remaining vectors complete each band orthonormally. Collective jump
    elements between the superposition vectors grow with N, making this
    basis non-classical.
    """
    n = params.n_levels
    groups = []
    for band, value in ((0, 0.0), (1, params.omega)):
        head = _band_vector(params, band, sign)[band * n:(band + 1) * n]
        seed = np.eye(n, dtype=complex)
        seed[:, 0] = head
        q, _ = np.linalg.qr(seed)
        # fix the first column phase to the requested vector
        q[:, 0] *= np.vdot(q[:, 0], head)
        block = np.zeros((params.dim, n), dtype=complex)
        block[band * n:(band + 1) * n, :] = q
        groups.append((value, block))
    return ObservableDecomposition.from_groups(groups)


@dataclass(frozen=True)
class ClosedFormFluxes:
    """Analytic integrated fluxes for the collective model states."""

    t_eg: float
    t_gg: float
    t_ge: float
    t_ee: float
    escape_rate: float
    m_h: float


def closed_form_reference(params: CollectiveModelParams, sign: str) -> ClosedFormFluxes:
    """Analytic T_{s's}, escape rate, and m_H for the |+> / |-> states.

    The alternating state suppresses the inter-band fluxes down to the
    parity of N, while the uniform state amplifies them to N^2.
    """
    n = params.n_levels
    gp, gm = params.gamma_plus, params.gamma_minus
    pg, pe = params.p_g, params.p_e
    omega = params.omega
    rate_sum = gp * pg + gm * pe
    chi = parity(n)
    if sign == "+":
        return ClosedFormFluxes(
            t_eg=pg * gp * n**2,
            t_gg=-(gp * pg / 2) * n * (n - 1),
            t_ge=pe * gm * n**2,
            t_ee=-(gm * pe / 2) * n * (n - 1),
            escape_rate=(rate_sum / 2) * n * (n + 1),
            m_h=omega**2 * rate_sum * n**2,
        )
    if sign == "-":
        return ClosedFormFluxes(
            t_eg=pg * gp * chi,
            t_gg=(gp * pg / 2) * (n - chi),
            t_ge=pe * gm * chi,
            t_ee=(gm * pe / 2) * (n - chi),
            escape_rate=(rate_sum / 2) * (n + chi),
            m_h=omega**2 * rate_sum * chi,
        )
    raise ValueError("sign must be '+' or '-'")


# --- scaling sweeps ---------------------------------------------------------


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    r_squared: float

    def reliable(self, r2_threshold: float = 0.99) -> bool:
        return self.r_squared >= r2_threshold


def fit_loglog(n_values, series, clip: float = 1e-300) -> ExponentFit:
    """Least-squares slope of log(series) against log(N).

    Values are clipped at ``clip`` so identically vanishing series produce
    a flat, fully determined fit instead of log(0).
    """
    n_values = np.asarray(n_values, dtype=float)
    series = np.maximum(np.abs(np.asarray(series, dtype=float)), clip)
    if len(n_values) < 2:
        raise InsufficientPointsError("need at least two points to fit an exponent")
    x = np.log(n_values)
    y = np.log(series)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return ExponentFit(slope=float(slope), r_squared=float(r2))


STATE_KINDS = ("+", "-", "diagonal")


def balanced_p_g(params: CollectiveModelParams, n: int, balance_scale: float) -> float:
    """p_g tuned so gamma_+ p_g - gamma_- p_e = balance_scale / N.

    Keeps the dissipative current at O(N) per band pair, the regime where
    the bound stays O(1) while the current grows; with p_g fixed instead,
    the current is either exactly balanced away or grows like N^2.
    """
    gp, gm = params.gamma_plus, params.gamma_minus
    p = (gm + balance_scale / n) / (gp + gm)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"balance scale {balance_scale!r} drives p_g to {p!r}")
    return p


@dataclass(frozen=True)
class ScalingSweepReport:
    """Series over the degeneracy N with fitted growth exponents."""

    n_values: tuple
    state_kind: str
    m_x: tuple
    escape_rates: tuple
    min_integrated_flux: tuple
    currents: tuple
    eprs: tuple
    bounds: tuple
    exponents: dict
    eigenvalue_floor: float
    balance_scale: float | None


def _sweep_point(params: CollectiveModelParams, state_kind: str,
                 epr_floor: float) -> tuple:
    model = build_collective_model(params)
    if state_kind == "diagonal":
        state = build_diagonal_state(params)
    else:
        state = build_plus_minus_state(params, state_kind)
    basis = collective_basis(params)
    fluxes = integrated_fluxes(model, state, basis)
    m_x = fluxes.second_moment()
    # X = H has no Hamiltonian current, so J_d = tr(L^dag(H) rho), the first moment
    j_d = change_moment(fluxes.group_values, fluxes.group_values, fluxes.values, 1)
    epr = entropy_production_rate(model, state, epr_floor)
    return m_x, fluxes.escape_rate, fluxes.min_flux, j_d, epr, tur_bound(j_d, m_x)


def scaling_sweep(params_template: CollectiveModelParams, n_list, state_kind: str = "+",
                  epr_floor: float = DEFAULT_EIGENVALUE_FLOOR, balance_scale: float | None = 0.5,
                  workers: int = 1) -> ScalingSweepReport:
    """Evaluate the collective model across degeneracies N.

    Per N the sweep records m_X, the escape rate, the most negative
    integrated flux, the dissipative current of H, the (floored-state)
    entropy production rate, and the bound 2|J|^2/m_X. Unless
    ``balance_scale`` is None, p_g is retuned per N via
    :func:`balanced_p_g`. Points are independent; ``workers`` bounds the
    parallelism while the assembly order always follows ``n_list``.
    """
    if state_kind not in STATE_KINDS:
        raise ValueError(f"state_kind must be one of {STATE_KINDS}")
    n_list = [int(n) for n in n_list]
    if len(n_list) < 2:
        raise InsufficientPointsError("sweep needs at least two N values")
    if sorted(n_list) != n_list:
        raise ValueError("N list must be ascending")

    def point_params(n: int) -> CollectiveModelParams:
        p_g = params_template.p_g if balance_scale is None else \
            balanced_p_g(params_template, n, balance_scale)
        return replace(params_template, n_levels=n, p_g=p_g)

    tasks = [point_params(n) for n in n_list]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda p: _sweep_point(p, state_kind, epr_floor), tasks))
    else:
        rows = [_sweep_point(p, state_kind, epr_floor) for p in tasks]
    m_x, escapes, min_flux, j_d, eprs, bounds = (tuple(col) for col in zip(*rows))
    exponents = {
        "m_x": fit_loglog(n_list, m_x),
        "current": fit_loglog(n_list, [abs(j) for j in j_d]),
        "escape_rate": fit_loglog(n_list, escapes),
    }
    return ScalingSweepReport(
        n_values=tuple(n_list),
        state_kind=state_kind,
        m_x=m_x,
        escape_rates=escapes,
        min_integrated_flux=min_flux,
        currents=j_d,
        eprs=eprs,
        bounds=bounds,
        exponents=exponents,
        eigenvalue_floor=float(epr_floor),
        balance_scale=balance_scale,
    )


@dataclass(frozen=True)
class QConditionReport:
    """Operationalized anomalous-scaling conditions over a finite sweep.

    Q1 asks whether some integrated flux dives to minus infinity faster
    than N; Q2 whether the escape rate outgrows N. Both are flagged from
    log-log slopes of the per-N series divided by N.
    """

    q1_exponent: float
    q1_r_squared: float
    q1_satisfied: bool
    q2_exponent: float
    q2_r_squared: float
    q2_satisfied: bool
    slope_threshold: float
    r2_threshold: float


def q1_q2_diagnostics(sweep: ScalingSweepReport, slope_threshold: float = 0.5,
                      r2_threshold: float = 0.99) -> QConditionReport:
    """Fit the Q1/Q2 series and report per-condition verdicts.

    A condition is satisfied when its slope exceeds ``slope_threshold``
    with a fit quality of at least ``r2_threshold``.
    """
    if len(sweep.n_values) < 4:
        raise InsufficientPointsError("Q1/Q2 diagnostics need at least four sweep points")
    n = np.asarray(sweep.n_values, dtype=float)
    negativity = np.maximum(-np.asarray(sweep.min_integrated_flux), LOG_CLIP)
    q1 = fit_loglog(n, negativity / n)
    q2 = fit_loglog(n, np.asarray(sweep.escape_rates) / n)
    return QConditionReport(
        q1_exponent=q1.slope,
        q1_r_squared=q1.r_squared,
        q1_satisfied=bool(q1.slope > slope_threshold and q1.reliable(r2_threshold)),
        q2_exponent=q2.slope,
        q2_r_squared=q2.r_squared,
        q2_satisfied=bool(q2.slope > slope_threshold and q2.reliable(r2_threshold)),
        slope_threshold=float(slope_threshold),
        r2_threshold=float(r2_threshold),
    )


def sweep_to_csv(report: ScalingSweepReport, path) -> None:
    """Plot-ready CSV: one row per N."""
    with open(path, "w") as fh:
        fh.write("N,m_X,escape_rate,min_T,J_d,epr,bound\n")
        for n, *values in zip(report.n_values, report.m_x, report.escape_rates,
                              report.min_integrated_flux, report.currents, report.eprs,
                              report.bounds):
            fh.write(",".join([str(n)] + [float_repr(v) for v in values]) + "\n")


def sweep_summary(report: ScalingSweepReport, conditions: QConditionReport | None = None) -> dict:
    """JSON-ready summary with fitted exponents and optional Q verdicts."""
    out = {
        "n_values": list(report.n_values),
        "state_kind": report.state_kind,
        "eigenvalue_floor": report.eigenvalue_floor,
        "balance_scale": report.balance_scale,
        "exponents": {
            name: {"slope": fit.slope, "r_squared": fit.r_squared}
            for name, fit in report.exponents.items()
        },
    }
    if conditions is not None:
        out["conditions"] = {
            "q1": {
                "exponent": conditions.q1_exponent,
                "r_squared": conditions.q1_r_squared,
                "satisfied": conditions.q1_satisfied,
            },
            "q2": {
                "exponent": conditions.q2_exponent,
                "r_squared": conditions.q2_r_squared,
                "satisfied": conditions.q2_satisfied,
            },
            "slope_threshold": conditions.slope_threshold,
            "r2_threshold": conditions.r2_threshold,
        }
    return out
