"""Exception types shared across the package."""


class TwoStateError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(TwoStateError):
    """Operands live in Hilbert spaces of different dimensions."""


class NormalizationError(TwoStateError):
    """A state violates its normalization invariant."""


class ObservableError(TwoStateError):
    """A spectral observable violates its projector/resolution invariants."""


class ZeroDenominatorError(TwoStateError):
    """Post-selection is unreachable through every branch of a measurement."""


class ZeroOverlapError(TwoStateError):
    """Weak value undefined: pre- and post-selected states are orthogonal."""


class InsufficientAcceptedTrialsError(TwoStateError):
    """Too few accepted trials for meaningful conditional statistics."""


class AllRejectedError(InsufficientAcceptedTrialsError):
    """Every Monte-Carlo trial failed post-selection."""


class ScenarioFormatError(TwoStateError):
    """A scenario document violates the schema; message carries the field path."""


class PointerGridError(TwoStateError):
    """Pointer grid too coarse, or a branch shift exceeds the safe grid margin."""
