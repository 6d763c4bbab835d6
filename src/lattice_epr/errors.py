"""Exception hierarchy for lattice_epr."""


class LatticeEprError(Exception):
    """Base class for all package errors."""


class DomainError(LatticeEprError, ValueError):
    """An input is outside the physical domain of a formula (e.g. mass <= 0)."""


class SingularityError(LatticeEprError, ZeroDivisionError):
    """A formula was evaluated at one of its singular points."""


class ConvergenceError(LatticeEprError, RuntimeError):
    """A numerical result did not converge to the requested accuracy."""


class DegenerateBandError(LatticeEprError, RuntimeError):
    """Wannier phase fixing failed because the band is degenerate (free lattice)."""


class RegimeError(LatticeEprError, RuntimeError):
    """Parameters are outside the regime where the requested quantity is defined
    (e.g. the bound two-atom branch merges with the continuum)."""


class SizeError(LatticeEprError, ValueError):
    """The lattice is too small to hold the requested state without boundary
    artifacts."""


class GridError(LatticeEprError, ValueError):
    """A sampling grid is too coarse or incommensurate with the lattice comb."""


class ConditioningError(LatticeEprError, ValueError):
    """Conditioning a joint distribution on a zero-probability value."""


class NoPeakError(LatticeEprError, ValueError):
    """Peak metrics were requested on a distribution without a local maximum."""


class ScenarioError(LatticeEprError, ValueError):
    """A scenario file failed to parse or validate."""


class OutputError(LatticeEprError, OSError):
    """An output table could not be written."""
