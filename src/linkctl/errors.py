"""Exception types shared across the package."""


class LinkctlError(Exception):
    """Base class for all linkctl errors."""


class InvalidSpec(LinkctlError):
    """A linkage or chain description violates a structural invariant."""


class DimensionMismatch(LinkctlError):
    """Configuration shape does not match the linkage it is paired with."""


class DegenerateDirection(LinkctlError):
    """An operation needed a link direction but the endpoints coincide."""


class EmptyChain(LinkctlError):
    """A chain operation was given no links."""


class NotAligned(LinkctlError):
    """An operation requiring an aligned chain got a non-aligned one."""


class OutOfRange(LinkctlError):
    """A prismatic length lies outside the admissible interval."""


class NoConvergence(LinkctlError):
    """Iterative projection failed to reach the requested tolerance."""


class NoFeasiblePoint(LinkctlError):
    """No sample attempt produced a feasible configuration."""


class OffConstraint(LinkctlError):
    """A configuration expected on the constraint set is too far from it."""


class NotACurve(LinkctlError):
    """Continuation started at a point whose local solution set is not a curve."""


class CoincidentEndpoints(LinkctlError):
    """Base and effector occupy the same point; the reduced work data is undefined."""


class NotAPlatform(LinkctlError):
    """Linkage is not tagged as a parallel polygonal platform."""


class UnknownDemo(LinkctlError):
    """Demo name not in the registry."""
