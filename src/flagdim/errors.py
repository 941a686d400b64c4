"""Exception types shared across the toolkit."""


class FlagdimError(Exception):
    """Base class for all toolkit errors."""


class DegenerateBasis(FlagdimError):
    """A basis (or a leading block of one) is numerically singular."""


class InvalidSpec(FlagdimError):
    """An ensemble description failed validation.

    Carries a list of human-readable reasons in ``.reasons``.
    """

    def __init__(self, reasons):
        if isinstance(reasons, str):
            reasons = [reasons]
        self.reasons = list(reasons)
        super().__init__("; ".join(self.reasons))


class GapTooSmall(FlagdimError):
    """An exponent gap is too small for the requested computation to converge."""


class DegenerateFiberPair(FlagdimError):
    """The forward and stable fiber points coincide; the realization is degenerate."""


class IntervalWrap(FlagdimError):
    """A mapped interval failed the arc ordering check (numerical failure)."""


class InsufficientMass(FlagdimError):
    """Too few usable radius levels above the mass floor for a dimension fit."""


class BandwidthTooSmall(FlagdimError):
    """A kernel density query found fewer than the minimum local sample count."""


class AtomicFiber(FlagdimError):
    """Fiber measures carry a persistent atom; entropy estimators refuse."""


class NoAcceptedReplicas(FlagdimError):
    """Every replica was rejected by the interval acceptance filter."""


class HypothesisNotMet(FlagdimError):
    """A theorem hypothesis (e.g. significantly positive entropy) is not met."""


class ConfigError(FlagdimError):
    """An experiment configuration is malformed (unknown keys are errors)."""
