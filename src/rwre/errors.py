"""Exception hierarchy shared by every module.

Each class maps to one failure regime so the CLI can assign stable exit
codes: configuration problems, statistical ineligibility, numerical
non-convergence, and simulation guard breaches.
"""

from __future__ import annotations


class RwreError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(RwreError):
    """A model or configuration value is malformed (exit-code class: config)."""


class ConfigError(ModelError):
    """An experiment configuration file or field is invalid."""


class NotCltEligibleError(RwreError):
    """The environment law does not satisfy the CLT eligibility conditions."""


class NonSummableError(RwreError):
    """A site series does not converge (non-negative drift)."""


class WindowTooSmallError(RwreError):
    """The realized window does not extend far enough for the computation."""


class QuadratureError(RwreError):
    """A law-functional quadrature failed to converge."""


class IndexRangeError(RwreError):
    """A summation range falls outside the available indices."""


class GuardBreachError(RwreError):
    """A walker reached a simulation guard boundary."""


class LeftGuardBreachError(GuardBreachError):
    """The walker reached the left guard; enlarge the guard margin."""


class RightGuardBreachError(GuardBreachError):
    """The walker reached the right window edge while still stepping."""


class StepBudgetExceededError(RwreError):
    """A trajectory exhausted its step budget before meeting its goal."""
