"""Exception types shared across the package, and the rules for a setting
and for a time."""

import math


class LeggedMpcError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(LeggedMpcError):
    """An array argument does not have the dimension the model implies."""


class RankDeficientContacts(LeggedMpcError):
    """The contact-space inertia is numerically singular (condition > 1e12)."""


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


def check_setting(name: str, value, zero_ok: bool) -> float:
    """``value`` as a float, or ``ConfigError`` unless it is finite and
    positive; with ``zero_ok`` (a delay, a friction coefficient) 0 passes
    too."""
    value = float(value)
    if not (math.isfinite(value) and (value > 0.0 or zero_ok and value == 0.0)):
        raise ConfigError(f"{name} must be finite and "
                          f"{'non-negative' if zero_ok else 'positive'}, got {value!r}")
    return value


def check_time(t) -> None:
    """``ConfigError`` unless the time ``t`` is finite: a nan time compares
    false with every bound, and an infinite one has no slot on a grid."""
    if not math.isfinite(t):
        raise ConfigError(f"time must be finite, got {t!r}")
