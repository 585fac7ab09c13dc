"""Exception types shared across the package."""


class LeggedMpcError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(LeggedMpcError):
    """An array argument does not have the dimension the model implies."""


class RankDeficientContacts(LeggedMpcError):
    """The contact-space inertia is numerically singular (condition > 1e12);
    ``rows`` marks the singular states of a stacked contact solve."""

    def __init__(self, message: str, rows=None):
        super().__init__(message)
        self.rows = rows


class NonPDHessian(LeggedMpcError):
    """A control Hessian failed its Cholesky factorization at maximum regularization."""


class MaxIterations(LeggedMpcError):
    """An iterative routine hit its iteration cap before reaching tolerance."""


class NoStepAccepted(LeggedMpcError):
    """Line search exhausted every step length at maximum regularization."""


class Stage1Infeasible(LeggedMpcError):
    """The whole-body controller's dynamics stage admits no feasible point."""


class InvalidMeasurement(LeggedMpcError):
    """A state measurement holds a non-finite value."""


class ScheduleError(LeggedMpcError):
    """A contact schedule is inconsistent with the node grid or itself."""


class ConfigError(LeggedMpcError):
    """A configuration fails validation, or a policy message is not whole
    (see ``controllers._check_message``)."""
