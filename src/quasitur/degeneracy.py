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
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import InsufficientPointsError
from .lindblad import JumpPair, LindbladModel, QuantumState, _check_dim
from .operators import ObservableDecomposition, _observable
from .quasiprob import flux_matrix, short_time_moment
from .thermo import DEFAULT_EIGENVALUE_FLOOR, entropy_production_rate, tur_bound
from .util import Q_R2_THRESHOLD, Q_SLOPE_THRESHOLD, ZERO_ELEMENT_TOL, _rotation, write_csv

#: floor used when taking logs of series that may contain exact zeros
LOG_CLIP = 1e-30


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
                                magnitude_bound: float, count_bound: int) -> ClassicalityReport:
    """Classify a basis as classical if every transition is touched by at
    most ``count_bound`` jumps (elements above ``ZERO_ELEMENT_TOL``), each
    with matrix element at most ``magnitude_bound`` in magnitude."""
    v = _observable(basis, model.dim).eigenvectors
    n = v.shape[1]
    max_mag = np.zeros((n, n))
    counts = np.zeros((n, n), dtype=int)
    rotate = _rotation(v)
    for op in model.jump_operators:
        mags = np.abs(rotate(op))
        max_mag = np.maximum(max_mag, mags)
        counts += mags > ZERO_ELEMENT_TOL
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
    _check_dim(state, basis.dim)
    mat = _rotation(basis.eigenvectors)(state.rho)
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
        if not all(0 < v < np.inf for v in (self.omega, self.gamma_plus, self.gamma_minus)):
            raise ValueError("omega and rates must be positive and finite")
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
    ham = np.zeros((d, d))
    ham[n:, n:] = params.omega * np.eye(n)
    l_plus = np.zeros((d, d))
    l_plus[n:, :n] = np.sqrt(params.gamma_plus)
    l_minus = np.zeros((d, d))
    l_minus[:n, n:] = np.sqrt(params.gamma_minus)
    s_plus = float(np.log(params.gamma_plus / params.gamma_minus))
    pair = JumpPair(forward=l_plus, backward=l_minus, entropy_current=s_plus)
    return LindbladModel(hamiltonian=ham, jump_pairs=(pair,))


def collective_basis(params: CollectiveModelParams) -> ObservableDecomposition:
    """The product basis {|g,j>, |e,j>} with exact groups."""
    n = params.n_levels
    eye = np.eye(params.dim)
    return ObservableDecomposition.from_groups(((0.0, eye[:, :n]), (params.omega, eye[:, n:])))


def _band_vector(params: CollectiveModelParams, band: int, sign: str) -> np.ndarray:
    n = params.n_levels
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    signs = (1.0 if sign == "+" else -1.0) ** np.arange(1, n + 1)
    vec = np.zeros(params.dim)
    vec[band * n:(band + 1) * n] = signs / np.sqrt(n)
    return vec


def _band_completion(params: CollectiveModelParams, sign: str) -> np.ndarray:
    """The (N, N) Householder reflector I - 2 w w^T / w^T w, w = v - e, for
    the band vector v of ``sign`` within one band and the first basis vector
    e: its first column is v, and its others complete v orthonormally, in
    O(N^2). Both bands share it."""
    n = params.n_levels
    w = _band_vector(params, 0, sign)[:n]
    w[0] -= 1.0
    reflector = np.eye(n)
    if w.any():  # v = e for the |+> state at N = 1
        reflector -= np.outer(w, (2.0 / (w @ w)) * w)
    return reflector


def build_plus_minus_state(params: CollectiveModelParams, sign: str) -> QuantumState:
    """rho = p_g |g,sgn><g,sgn| + p_e |e,sgn><e,sgn| with the uniform
    (+) or alternating (-) superposition within each band.

    The state carries its spectrum without an ``eigh``: p_g and p_e on the
    two band vectors, and 0 on the rest of each band, which
    :func:`_band_completion` spans.
    """
    n = params.n_levels
    vg = _band_vector(params, 0, sign)
    ve = _band_vector(params, 1, sign)
    rho = params.p_g * np.outer(vg, vg) + params.p_e * np.outer(ve, ve)
    vectors = np.zeros((params.dim, params.dim))
    vectors[:n, :n] = vectors[n:, n:] = _band_completion(params, sign)
    values = np.zeros(params.dim)
    values[[0, n]] = params.p_g, params.p_e
    return _state_from_spectrum(rho, values, vectors)


def build_diagonal_state(params: CollectiveModelParams) -> QuantumState:
    """The incoherent counterpart: uniform populations within each band.

    Its spectrum is its diagonal, on the standard basis, so no ``eigh``
    decomposes it."""
    n = params.n_levels
    diag = np.concatenate([
        np.full(n, params.p_g / n),
        np.full(n, params.p_e / n),
    ])
    return _state_from_spectrum(np.diag(diag), diag, np.eye(params.dim))


def _state_from_spectrum(rho: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> QuantumState:
    """The state rho = sum_j values[j] |vectors_j><vectors_j|, its spectrum
    sorted ascending by a stable argsort, with no ``eigh``."""
    order = np.argsort(values, kind="stable")
    return QuantumState._from_spectrum(rho, values[order], vectors[:, order])


def superposition_basis(params: CollectiveModelParams, sign: str) -> ObservableDecomposition:
    """A degenerate basis whose first vector per band is |s,+> (or |s,->).

    The remaining vectors complete each band orthonormally
    (:func:`_band_completion`). Collective jump elements between the
    superposition vectors grow with N, making this basis non-classical.
    """
    n = params.n_levels
    blocks = np.zeros((2, params.dim, n))
    blocks[0, :n] = blocks[1, n:] = _band_completion(params, sign)
    return ObservableDecomposition.from_groups(((0.0, blocks[0]), (params.omega, blocks[1])))


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


def fit_loglog(n_values, series) -> ExponentFit:
    """Least-squares slope of log(series) against log(N).

    Values are clipped at 1e-300 so identically vanishing series produce
    a flat, fully determined fit instead of log(0). N <= 0 and non-finite
    entries raise ``ValueError`` instead of giving a NaN slope.
    """
    n_values = np.asarray(n_values, dtype=float)
    series = np.asarray(series, dtype=float)
    if len(n_values) < 2:
        raise InsufficientPointsError("need at least two points to fit an exponent")
    if not np.all((n_values > 0) & (n_values < np.inf)):
        raise ValueError(f"N must be positive and finite, got {n_values.tolist()}")
    if not np.all(np.isfinite(series)):
        raise ValueError(f"series has non-finite entries: {series.tolist()}")
    series = np.maximum(np.abs(series), 1e-300)
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
    flux = flux_matrix(model, state, collective_basis(params))
    m_x = short_time_moment(flux, 2).value
    # X = H has no Hamiltonian current, so J_d = tr(L^dag(H) rho), the first moment
    j_d = short_time_moment(flux, 1).value
    epr = entropy_production_rate(model, state, epr_floor)
    return m_x, flux.escape_rate, float(flux.integrated.min()), j_d, epr, tur_bound(j_d, m_x)


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
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"N list must be strictly ascending, got {n_list}")

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
class QCondition:
    """One condition's log-log fit and its verdict."""

    exponent: float
    r_squared: float
    satisfied: bool


@dataclass(frozen=True)
class QConditionReport:
    """Operationalized anomalous-scaling conditions over a finite sweep.

    Q1 asks whether some integrated flux dives to minus infinity faster
    than N; Q2 whether the escape rate outgrows N. Both are flagged from
    log-log slopes of the per-N series divided by N.
    """

    q1: QCondition
    q2: QCondition
    slope_threshold: float
    r2_threshold: float


def _q_condition(n: np.ndarray, series: np.ndarray) -> QCondition:
    fit = fit_loglog(n, series)
    satisfied = fit.slope > Q_SLOPE_THRESHOLD and fit.r_squared >= Q_R2_THRESHOLD
    return QCondition(exponent=fit.slope, r_squared=fit.r_squared, satisfied=bool(satisfied))


def q1_q2_diagnostics(sweep: ScalingSweepReport) -> QConditionReport:
    """Fit the Q1/Q2 series and report per-condition verdicts.

    A condition is satisfied when its slope exceeds ``Q_SLOPE_THRESHOLD``
    with a fit quality of at least ``Q_R2_THRESHOLD``.
    """
    if len(sweep.n_values) < 4:
        raise InsufficientPointsError("Q1/Q2 diagnostics need at least four sweep points")
    n = np.asarray(sweep.n_values, dtype=float)
    negativity = np.maximum(-np.asarray(sweep.min_integrated_flux), LOG_CLIP)
    return QConditionReport(
        q1=_q_condition(n, negativity / n),
        q2=_q_condition(n, np.asarray(sweep.escape_rates) / n),
        slope_threshold=Q_SLOPE_THRESHOLD,
        r2_threshold=Q_R2_THRESHOLD,
    )


def sweep_to_csv(report: ScalingSweepReport, path) -> None:
    """Plot-ready CSV: one row per N."""
    write_csv(path, ["N", "m_X", "escape_rate", "min_T", "J_d", "epr", "bound"],
              zip(report.n_values, report.m_x, report.escape_rates, report.min_integrated_flux,
                  report.currents, report.eprs, report.bounds))


def sweep_summary(report: ScalingSweepReport, conditions: QConditionReport | None = None) -> dict:
    """JSON-ready summary with fitted exponents and optional Q verdicts."""
    out = {
        "n_values": list(report.n_values),
        "state_kind": report.state_kind,
        "eigenvalue_floor": report.eigenvalue_floor,
        "balance_scale": report.balance_scale,
        "exponents": {name: asdict(fit) for name, fit in report.exponents.items()},
    }
    if conditions is not None:
        out["conditions"] = asdict(conditions)
    return out
