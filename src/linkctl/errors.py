"""Exception types shared across the package.

A failure keeps a class of its own only where some code catches it apart
from the others; every other bad input raises InvalidSpec, and the command
line catches the base class.
"""


class LinkctlError(Exception):
    """Base class for all linkctl errors."""


class InvalidSpec(LinkctlError):
    """An input breaks a documented rule: a structural invariant, a shape
    that does not fit, an option out of range or an unknown name."""


class DegenerateDirection(LinkctlError):
    """An operation needed a direction but its endpoints coincide;
    stage_classify turns it into a reason."""


class NoConvergence(LinkctlError):
    """Iterative projection failed to reach the requested tolerance;
    stage_classify turns it into a reason and trace_curve into a shorter step."""


class NoFeasiblePoint(LinkctlError):
    """No sample attempt produced a feasible configuration."""


class OffConstraint(LinkctlError):
    """A configuration expected on the constraint set is too far from it."""
