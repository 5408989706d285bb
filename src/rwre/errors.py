"""Exception hierarchy shared by every module.

Each class maps to one failure regime and carries its CLI exit code and
the label the CLI prints before the message: configuration problems (2,
"configuration error"), statistical ineligibility (3, "eligibility
error"), numerical non-convergence (4, "numerical error"), and simulation
guard breaches and step budgets (5, "simulation guard error").  Any other
package error exits 1 with "error".
"""

from __future__ import annotations


class RwreError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    label = "error"


class ModelError(RwreError):
    """A model or configuration value is malformed."""

    exit_code = 2
    label = "configuration error"


class ConfigError(ModelError):
    """An experiment configuration file or field is invalid."""


class NotCltEligibleError(RwreError):
    """The environment law does not satisfy the CLT eligibility conditions."""

    exit_code = 3
    label = "eligibility error"


class NumericalError(RwreError):
    """A computation did not converge or left its index range."""

    exit_code = 4
    label = "numerical error"


class NonSummableError(NumericalError):
    """A site series does not converge (non-negative drift)."""


class WindowTooSmallError(NumericalError):
    """The realized window does not extend far enough for the computation."""


class QuadratureError(NumericalError):
    """A law-functional quadrature failed to converge."""


class IndexRangeError(NumericalError):
    """A summation range falls outside the available indices."""


class GuardBreachError(RwreError):
    """A walker reached a simulation guard boundary."""

    exit_code = 5
    label = "simulation guard error"


class LeftGuardBreachError(GuardBreachError):
    """The walker reached the left guard; enlarge the guard margin."""


class RightGuardBreachError(GuardBreachError):
    """The walker reached the right window edge while still stepping."""


class StepBudgetExceededError(RwreError):
    """A trajectory exhausted its step budget before meeting its goal."""

    exit_code = 5
    label = "simulation guard error"
