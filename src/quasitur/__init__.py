"""Quasiprobability statistics and thermodynamic uncertainty diagnostics
for Markovian open quantum systems."""

from .classical import (
    ClassicalModel,
    classical_generating_function,
    classical_joint_moment,
    classical_propagate,
    classical_short_time_second_moment,
    quantize_and_compare,
    quantize_rate_matrix,
)
from .degeneracy import (
    ClosedFormFluxes,
    CollectiveModelParams,
    ScalingSweepReport,
    build_collective_model,
    build_diagonal_state,
    build_plus_minus_state,
    classify_basis_classicality,
    closed_form_reference,
    collective_basis,
    l1_coherence,
    q1_q2_diagnostics,
    scaling_sweep,
    superposition_basis,
)
from .errors import (
    BasisMismatchError,
    CommutationViolatedError,
    DegeneratePairError,
    DimMismatchError,
    ImaginaryResidueError,
    InsufficientPointsError,
    NonConvergenceError,
    NotHermitianError,
    QuasiturError,
    SingularStateError,
    TracePreservationError,
    ZeroFluctuationError,
)
from .fcs import (
    CommutationCheckResult,
    GeneratingRateComparison,
    commutation_check,
    compare_rates,
    default_lambda_grid,
    fcs_generating_rate,
    tmh_generating_rate,
)
from .lindblad import (
    JumpPair,
    LindbladModel,
    QuantumState,
    apply_adjoint_dissipator,
    apply_adjoint_liouvillian,
    apply_dissipator,
    apply_liouvillian,
    decompose_pair,
    heisenberg_propagator,
    load_model,
    load_state,
    propagate,
    save_model,
    save_state,
    validate_local_detailed_balance,
)
from .operators import ObservableDecomposition
from .quasiprob import (
    FluxMatrix,
    MomentReport,
    QuasiprobTable,
    flux_matrix,
    generating_function,
    moment_from_generating_function,
    short_time_fluctuation_operator_form,
    short_time_moment,
    tmh_table,
)
from .thermo import (
    CurrentDecomposition,
    GeometricRepresentation,
    TURReport,
    currents,
    entropy_production_rate,
    floored_state,
    geometric_representation,
    quantum_diffusivity,
    tur_bound,
    tur_check,
    tur_report_dict,
)

__version__ = "0.1.0"
