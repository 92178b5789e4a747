"""Exception types raised across the package."""


class QuasiturError(Exception):
    """Base class for all package errors."""


class NotHermitianError(QuasiturError):
    """An operator required to be Hermitian is not, beyond tolerance."""


class DimMismatchError(QuasiturError):
    """Operands have incompatible dimensions."""


class DegeneratePairError(QuasiturError):
    """A jump pair cannot be decomposed because an operator vanishes."""


class NonConvergenceError(QuasiturError):
    """An adaptive integrator failed to meet its tolerance."""


class SingularStateError(QuasiturError):
    """A state is rank deficient where full rank is required."""


class BasisMismatchError(QuasiturError, ValueError):
    """A supplied eigenbasis is incomplete, not orthonormal, or inconsistent
    with the observable."""


class InsufficientPointsError(QuasiturError):
    """Too few sweep points for the requested fit or diagnostic."""


class ZeroFluctuationError(QuasiturError):
    """Vanishing short-time fluctuation together with a nonzero current.

    The uncertainty relation forbids this combination at finite entropy
    production rate, so it signals numerically inconsistent inputs.
    """


class CommutationViolatedError(QuasiturError):
    """No jump weights exist: some [X, L_k] is not proportional to L_k."""


class TracePreservationError(QuasiturError):
    """Flux columns do not sum to zero: the generator is not trace preserving."""


class ImaginaryResidueError(QuasiturError):
    """A quantity that must be real carries a large imaginary part.

    Indicates a broken Hermiticity invariant upstream; raised instead of
    silently truncating.
    """
