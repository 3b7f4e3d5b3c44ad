"""Exception types shared across the package."""


class SipLabError(Exception):
    """Base class for all sip-lab errors."""


class DomainError(SipLabError, ValueError):
    """A point lies outside the declared domain/support."""


class NotPositiveDefiniteError(SipLabError, ValueError):
    """A matrix that must be symmetric positive definite is not."""


class RankDeficiencyError(SipLabError, ValueError):
    """A matrix that must have full (row or column) rank does not."""


class PredictabilityError(SipLabError, ValueError):
    """A ratio-form density has a positive numerator over a vanishing denominator."""


class NonConvergenceError(SipLabError, RuntimeError):
    """An iterative solve did not reach its tolerance within the iteration budget."""


class NoSolutionError(SipLabError, RuntimeError):
    """A run's pilot, its first rows, drew observable values with no pre-image."""
