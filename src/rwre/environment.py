"""Environment laws and quenched realizations.

An environment is a two-sided sequence ``p_k`` of right-jump probabilities.
Four law families are supported: a degenerate constant law, finitely
supported i.i.d. laws, parametric i.i.d. laws with mandatory support bounds
inside (0, 1), and quasi-periodic laws driven by a circle rotation.

Realization is a pure function of ``(model, seed, k)``: the value at a site
never depends on the window bounds, so windows can be extended in either
direction without disturbing already-realized sites.  For i.i.d. laws this
is achieved with a counter-based hash of ``(seed, k)``; quasi-periodic laws
are deterministic by construction.

Law functionals are closed forms or deterministic quadratures (Gauss-Legendre
in x = ln A for parametric laws), so none carries a sampling error.  The
quadrature weights use an in-house ``_log_expit``, bit-identical to
``scipy.special.log_expit``; scipy itself is imported only to realize a
beta-law window (``betainc`` / ``betaincinv``).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .errors import ModelError, QuadratureError

__all__ = [
    "Constant",
    "IidDiscrete",
    "IidParametric",
    "QuasiPeriodic",
    "EnvironmentModel",
    "EnvironmentWindow",
    "Regime",
    "Classification",
    "ConditionReport",
    "realize",
    "mean_log_odds",
    "classify",
    "odds_growth_rate",
    "check_conditions",
    "model_to_dict",
    "model_from_dict",
    "suggested_left_guard",
    "suggested_burn_in",
]

_PHASE_GRID = 8192  # density of the validation grid for quasi-periodic p(.)
RECURRENCE_TOL = 1e-9  # |E ln A| at or below this is classified recurrent
GAMMA = 3.0  # moment exponent (> 2) at which check_conditions evaluates C3 and C4
SEED_ATTENUATION_LOG = 46.0  # recursions are seeded this far back in summed log odds
_REALIZE_CHUNK = 1 << 16  # sites per pass of realize


# ---------------------------------------------------------------------------
# model declarations


@dataclass(frozen=True)
class Constant:
    """Every site has the same right-jump probability ``p``."""

    p: float

    def __post_init__(self) -> None:
        _check_prob("model.p", self.p)


@dataclass(frozen=True)
class IidDiscrete:
    """I.i.d. sites drawn from finitely many atoms ``(p_i, w_i)``."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        atoms = _converted("model.atoms", lambda v: tuple((float(p), float(w)) for p, w in v),
                           self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ModelError("model.atoms: at least one atom is required")
        for i, (p, w) in enumerate(atoms):
            _check_prob(f"model.atoms[{i}].p", p)
            if not w > 0.0:
                raise ModelError(f"model.atoms[{i}].w: weight must be positive, got {w}")
        total = math.fsum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ModelError(f"model.atoms: weights must sum to 1 within 1e-12, got {total!r}")


@dataclass(frozen=True)
class IidParametric:
    """I.i.d. sites from a named distribution truncated to ``[p_lo, p_hi]``.

    Supported families: ``uniform`` (no parameters) and ``beta`` (shape
    parameters ``a``, ``b``).  The support bounds are mandatory and must sit
    strictly inside (0, 1) so that all negative moments of ``p`` and ``1-p``
    are finite by construction.
    """

    family: str
    p_lo: float
    p_hi: float
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.family not in ("uniform", "beta"):
            raise ModelError(f"model.family: unknown family {self.family!r}")
        _check_prob("model.p_lo", self.p_lo)
        _check_prob("model.p_hi", self.p_hi)
        if not self.p_lo < self.p_hi:
            raise ModelError("model.p_lo: support bounds must satisfy p_lo < p_hi")
        params = _converted("model.params",  # a mapping or (name, value) pairs
                            lambda v: tuple(sorted((str(k), float(x)) for k, x in dict(v).items())),
                            self.params)
        object.__setattr__(self, "params", params)
        if self.family == "beta":
            d = dict(params)
            if "a" not in d or "b" not in d:
                raise ModelError("model.params: beta family needs shape parameters a and b")
            if d["a"] <= 0 or d["b"] <= 0:
                raise ModelError("model.params: beta shapes must be positive")

    def param(self, name: str) -> float:
        return dict(self.params)[name]


@dataclass(frozen=True)
class QuasiPeriodic:
    """Sites read off an irrational rotation: ``p_k = p((omega0 + k*alpha) mod 1)``.

    ``coeffs = (c0, c1, ...)`` defines the cosine series
    ``p(w) = c0 + sum_m c_m cos(2 pi m w)``.  Rational-looking ``alpha``
    values are accepted (tests use them deliberately) but draw a warning,
    since orbit averages then stop converging to circle averages.
    """

    alpha: float
    omega0: float
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = _converted("model.coeffs", lambda v: tuple(float(c) for c in v), self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "alpha", _converted("model.alpha", float, self.alpha))
        object.__setattr__(self, "omega0", _converted("model.omega0", float, self.omega0))
        if not 0.0 < self.alpha < 1.0:
            raise ModelError(f"model.alpha: rotation number must lie in (0,1), got {self.alpha}")
        if not 0.0 <= self.omega0 < 1.0:
            raise ModelError(f"model.omega0: initial phase must lie in [0,1), got {self.omega0}")
        if not self.coeffs:
            raise ModelError("model.coeffs: at least the constant coefficient is required")
        grid = np.arange(_PHASE_GRID) / _PHASE_GRID
        values = self.p_of_phase(grid)
        if values.min() <= 0.0 or values.max() >= 1.0:
            raise ModelError(
                "model.coeffs: p(.) must stay strictly inside (0,1); "
                f"grid range is [{values.min()!r}, {values.max()!r}]"
            )
        q = _small_denominator(self.alpha)
        if q is not None:
            warnings.warn(
                f"alpha={self.alpha} is within 1e-9 of a rational with denominator {q}; "
                "orbit averages will not converge uniformly to circle averages",
                stacklevel=2,
            )

    def p_of_phase(self, omega: np.ndarray | float) -> np.ndarray | float:
        """p at each phase: each harmonic ``c * cos((2 pi m) omega)`` goes through
        one reused work array into the sum, so phases cost two more arrays of
        their size (``realize`` gives one pass); a scalar phase gives a float."""
        omega = np.asarray(omega, dtype=np.float64)
        out = np.full_like(omega, self.coeffs[0])
        work = np.empty_like(omega)
        for m, c in enumerate(self.coeffs[1:], start=1):
            np.multiply(2.0 * np.pi * m, omega, out=work)
            np.cos(work, out=work)
            work *= c
            out += work
        return out if out.ndim else out[()]


EnvironmentModel = Union[Constant, IidDiscrete, IidParametric, QuasiPeriodic]


def _check_prob(field: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and 0.0 < float(value) < 1.0):
        raise ModelError(f"{field}: probability must lie strictly in (0,1), got {value!r}")


def _converted(field: str, convert, value):
    """``convert(value)``; a value it cannot convert is a ModelError naming ``field``."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{field}: malformed value {value!r}: {exc}") from exc


def _small_denominator(alpha: float) -> int | None:
    """Smallest denominator q <= 64 with |alpha - h/q| < 1e-9, else None."""
    for q in range(1, 65):
        h = round(alpha * q)
        if abs(alpha - h / q) < 1e-9:
            return q
    return None


# ---------------------------------------------------------------------------
# serialization (tagged JSON objects used by the CLI config format)


def model_to_dict(model: EnvironmentModel) -> dict:
    if isinstance(model, Constant):
        return {"type": "constant", "p": model.p}
    if isinstance(model, IidDiscrete):
        return {"type": "iid_discrete", "atoms": [[p, w] for p, w in model.atoms]}
    if isinstance(model, IidParametric):
        return {
            "type": "iid_parametric",
            "family": model.family,
            "p_lo": model.p_lo,
            "p_hi": model.p_hi,
            "params": dict(model.params),
        }
    if isinstance(model, QuasiPeriodic):
        return {
            "type": "quasi_periodic",
            "alpha": model.alpha,
            "omega0": model.omega0,
            "coeffs": list(model.coeffs),
        }
    raise ModelError(f"model: unsupported model object {model!r}")


def model_from_dict(data: dict) -> EnvironmentModel:
    if not isinstance(data, dict) or "type" not in data:
        raise ModelError("model: expected a tagged object with a 'type' field")
    tag = data["type"]
    fields = {k: v for k, v in data.items() if k != "type"}
    try:
        if tag == "constant":
            return Constant(**fields)
        if tag == "iid_discrete":
            return IidDiscrete(atoms=fields.pop("atoms"))
        if tag == "iid_parametric":
            return IidParametric(params=fields.pop("params", {}), **fields)
        if tag == "quasi_periodic":
            return QuasiPeriodic(coeffs=fields.pop("coeffs"), **fields)
    except KeyError as exc:
        raise ModelError(f"model: type {tag!r} needs the field {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ModelError(f"model: bad fields for type {tag!r}: {exc}") from exc
    raise ModelError(f"model.type: unknown model type {tag!r}")


# ---------------------------------------------------------------------------
# counter-based per-site randomness

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)


def _mix64(z):
    """The splitmix64 finalizer, in place on a uint64 array (a uint64 scalar
    comes back as a new scalar)."""
    # uint64 arithmetic wraps modulo 2^64 by design
    z ^= z >> np.uint64(30)
    z *= _MIX_A
    z ^= z >> np.uint64(27)
    z *= _MIX_B
    z ^= z >> np.uint64(31)
    return z


def _site_uniforms(seed: int, lo: int, hi: int) -> np.ndarray:
    """One uniform in [0,1) per site k in [lo, hi], a pure hash of (seed, k).

    The hash runs in place on one uint64 array, and the float result is scaled
    in place: the peak is twice the output (``realize`` asks for one pass).
    """
    z = np.arange(lo, hi + 1, dtype=np.int64).view(np.uint64)
    with np.errstate(over="ignore"):
        z *= _GOLDEN
        z += _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
        z = _mix64(z)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


def _sample_parametric(model: IidParametric, u: np.ndarray) -> np.ndarray:
    """Map site uniforms to the law's values; the uniform law reuses ``u``."""
    if model.family == "uniform":
        u *= model.p_hi - model.p_lo
        u += model.p_lo
        return u
    from scipy.special import betainc, betaincinv  # deferred: only beta windows need scipy

    a, b = model.param("a"), model.param("b")
    f_lo = betainc(a, b, model.p_lo)
    f_hi = betainc(a, b, model.p_hi)
    return betaincinv(a, b, f_lo + u * (f_hi - f_lo))


# ---------------------------------------------------------------------------
# quenched windows


@dataclass(frozen=True)
class EnvironmentWindow:
    """A realized environment ``p_k`` on the integer interval [lo, hi]."""

    lo: int
    hi: int
    p: np.ndarray

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ModelError(f"window: lo={self.lo} must not exceed hi={self.hi}")
        p = np.asarray(self.p, dtype=np.float64)
        if p.shape != (self.hi - self.lo + 1,):
            raise ModelError("window: p array length must equal hi - lo + 1")
        if p.min() <= 0.0 or p.max() >= 1.0:
            raise ModelError("window: every p_k must lie strictly in (0,1)")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    def __contains__(self, k: int) -> bool:
        return self.lo <= k <= self.hi

    def site(self, k: int) -> float:
        if k not in self:
            raise ModelError(f"window: index {k} outside [{self.lo}, {self.hi}]")
        return float(self.p[k - self.lo])

    def odds(self, k: int) -> float:
        pk = self.site(k)
        return (1.0 - pk) / pk

    def odds_array(self) -> np.ndarray:
        return (1.0 - self.p) / self.p

    @classmethod
    def from_values(cls, p, lo: int = 0) -> "EnvironmentWindow":
        p = np.asarray(p, dtype=np.float64)
        return cls(lo=lo, hi=lo + len(p) - 1, p=p)


def realize(model: EnvironmentModel, lo: int, hi: int, seed: int) -> EnvironmentWindow:
    """Realize the quenched environment on [lo, hi] from a 64-bit seed.

    Site values depend only on (model, seed, k): overlapping windows agree
    exactly on their intersection.  The output is filled in passes of
    _REALIZE_CHUNK sites by the family's elementwise formula, so the peak is
    the output plus a few pass-sized arrays.  A finite law's site takes the
    atom whose cumulative weight interval holds its uniform; a uniform at or
    above the last cumulative weight (a sum that rounds below 1) takes the last atom.
    """
    if lo > hi:
        raise ModelError(f"realize: lo={lo} must not exceed hi={hi}")
    if isinstance(model, IidDiscrete):
        values = np.array([a for a, _ in model.atoms])
        weights = np.array([w for _, w in model.atoms])
        cum = np.cumsum(weights / weights.sum())[:-1]
    elif not isinstance(model, (Constant, IidParametric, QuasiPeriodic)):
        raise ModelError(f"realize: unsupported model {model!r}")
    p = np.empty(hi - lo + 1)
    for k0 in range(lo, hi + 1, _REALIZE_CHUNK):
        k1 = min(k0 + _REALIZE_CHUNK - 1, hi)
        part = p[k0 - lo : k1 - lo + 1]
        if isinstance(model, Constant):
            part[:] = model.p
        elif isinstance(model, IidDiscrete):
            part[:] = values[np.searchsorted(cum, _site_uniforms(seed, k0, k1), side="right")]
        elif isinstance(model, IidParametric):
            part[:] = _sample_parametric(model, _site_uniforms(seed, k0, k1))
        else:
            phase = np.arange(k0, k1 + 1, dtype=np.float64)
            phase *= model.alpha
            phase += model.omega0
            part[:] = model.p_of_phase(np.mod(phase, 1.0, out=phase))
    return EnvironmentWindow(lo=lo, hi=hi, p=p)


# ---------------------------------------------------------------------------
# law-level functionals


@functools.cache
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [-1, 1] for even n, and the logs of their weights.

    Newton's method on s = 1 - x, with P_k(1 - s) from the recurrence in
    D_k = P_k - P_{k-1}, keeps nodes near 1 to full relative precision, and
    w = 2 / ((1 - x^2) P_n'(x)^2) uses (1 - x^2) P_n' = n (P_{n-1} - x P_n),
    which node rounding does not disturb: the outermost weights are right to
    about 1e-14, where numpy's ``leggauss`` is off by 1e-12 to 1e-11, enough
    to stall the doubling rule of ``_parametric_mean`` near the edges.
    """
    theta = np.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5)
    s = 2.0 * np.sin(0.5 * theta) ** 2  # within 4% of the roots: 5 steps suffice
    for _ in range(6):
        p_prev, p, d = np.ones_like(s), 1.0 - s, -s
        for k in range(2, n + 1):
            d = ((k - 1) * d - (2 * k - 1) * s * p) / k
            p_prev, p = p, p + d
        dp = n * (p_prev - (1.0 - s) * p)
        s = s + p * s * (2.0 - s) / dp
    log_w = np.log(2.0 * s * (2.0 - s)) - 2.0 * np.log(np.abs(dp))
    rule = np.concatenate([s - 1.0, 1.0 - s]), np.concatenate([log_w, log_w])
    for arr in rule:
        arr.setflags(write=False)  # shared by every caller through the cache
    return rule


def _log_expit(x: np.ndarray) -> np.ndarray:
    """ln(1 / (1 + e^-x)) elementwise, by scipy's ``log_expit`` formula.

    x - log1p(e^x) for x < 0, else -log1p(e^-x), each in scalar ``math``
    calls: numpy's vectorized exp and log1p round differently, by up to
    2 ulp, and the quadrature weights must not move.
    """
    return np.array([v - math.log1p(math.exp(v)) if v < 0 else -math.log1p(math.exp(-v))
                     for v in x.tolist()])


def _parametric_mean(model: IidParametric, g) -> float:
    """E g(x) for x = ln A under a truncated uniform or beta law.

    Gauss-Legendre quadrature over x in [ln A(p_hi), ln A(p_lo)], where
    p = 1/(1+e^x) and the density of p times the Jacobian |dp/dx| = p(1-p)
    is p^a (1-p)^b (a = b = 1 for the uniform).  The weights are normalised
    to sum to 1, which removes the truncation constant.  The node count
    doubles from 64 until two successive values agree within 1e-13 E|g|.
    """
    a, b = (1.0, 1.0) if model.family == "uniform" else (model.param("a"), model.param("b"))
    x_lo = math.log((1.0 - model.p_hi) / model.p_hi)
    x_hi = math.log((1.0 - model.p_lo) / model.p_lo)
    prev = None
    for n in (64, 128, 256, 512, 1024):
        nodes, log_w = _legendre(n)
        x = 0.5 * (x_hi - x_lo) * nodes + 0.5 * (x_hi + x_lo)
        log_w = log_w + a * _log_expit(-x) + b * _log_expit(x)
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        gx = g(x)
        cur = float(w @ gx)
        if prev is not None and abs(cur - prev) <= 1e-13 * float(w @ np.abs(gx)):
            return cur
        prev = cur
    raise QuadratureError(
        f"law functional of {model.family} on [{model.p_lo}, {model.p_hi}] did not "
        "converge at 1024 Gauss-Legendre nodes"
    )


def _qp_lambda(model: QuasiPeriodic) -> float:
    """Circle average of ln A via midpoint quadrature with grid doubling.

    The integrand is smooth and periodic, so the midpoint rule converges
    geometrically; failure to converge by 2^20 points is reported.
    """
    prev = None
    n = 4096
    while n <= 1 << 20:
        grid = (np.arange(n) + 0.5) / n
        p = model.p_of_phase(grid)
        cur = float(np.mean(np.log((1.0 - p) / p)))
        if prev is not None and abs(cur - prev) < 1e-12:
            return cur
        prev = cur
        n *= 2
    raise QuadratureError("circle average of ln A did not stabilize at 2^20 grid points")


def _atom_mean(model: Constant | IidDiscrete, f) -> float:
    """E f(p) over a constant or finite law, inf where a float overflows."""
    atoms = ((model.p, 1.0),) if isinstance(model, Constant) else model.atoms
    try:
        return math.fsum(w * f(p) for p, w in atoms)
    except OverflowError:
        return math.inf


def mean_log_odds(model: EnvironmentModel) -> float:
    """The drift functional: the expected log odds ratio E ln((1-p)/p).

    Its sign decides the transience direction.  Closed form for constant and
    finitely supported laws, quadrature for quasi-periodic and parametric
    laws.
    """
    if isinstance(model, (Constant, IidDiscrete)):
        return _atom_mean(model, lambda p: math.log((1.0 - p) / p))
    if isinstance(model, QuasiPeriodic):
        return _qp_lambda(model)
    return _parametric_mean(model, lambda x: x)


class Regime(Enum):
    TRANSIENT_RIGHT = "transient_right"
    TRANSIENT_LEFT = "transient_left"
    RECURRENT = "recurrent"


@dataclass(frozen=True)
class Classification:
    """Transience regime, the mean log odds behind it, and how that mean was
    computed: "closed-form" for constant and finite laws, else "quadrature"."""

    regime: Regime
    log_odds_mean: float
    tolerance: float
    within_tolerance: bool
    method: str


def classify(model: EnvironmentModel) -> Classification:
    """Transience classification by the sign of the mean log odds.

    ``|value| <= RECURRENCE_TOL`` is reported as recurrent with a
    within-tolerance flag.
    """
    lam = mean_log_odds(model)
    regime = _regime(lam)
    method = "closed-form" if isinstance(model, (Constant, IidDiscrete)) else "quadrature"
    return Classification(regime, lam, RECURRENCE_TOL, regime is Regime.RECURRENT, method)


def _regime(log_odds_mean: float) -> Regime:
    if abs(log_odds_mean) <= RECURRENCE_TOL:
        return Regime.RECURRENT
    return Regime.TRANSIENT_RIGHT if log_odds_mean < 0 else Regime.TRANSIENT_LEFT


def odds_growth_rate(model: EnvironmentModel, kappa: float) -> float:
    """Growth rate of the expected kappa-th power of odds-ratio products.

    For i.i.d. laws this is the kappa-th moment of a single odds ratio; for
    uniquely ergodic laws with continuous p it equals exp(kappa * drift).
    The value at kappa=1 controls the speed and at kappa=2 the variance.
    """
    if kappa < 0:
        raise ModelError(f"kappa: must be non-negative, got {kappa}")
    if kappa == 0:
        return 1.0
    if isinstance(model, (Constant, IidDiscrete)):
        return _atom_mean(model, lambda p: ((1.0 - p) / p) ** kappa)
    if isinstance(model, QuasiPeriodic):
        return math.exp(kappa * _qp_lambda(model))
    return _parametric_mean(model, lambda x: np.exp(kappa * x))


# ---------------------------------------------------------------------------
# condition checks


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts for the moment and ergodicity conditions at ``gamma`` = GAMMA.

    The paper needs the moments at some gamma > 2.  Every law family here
    keeps p inside (0, 1), so they are finite at every gamma and checking
    them at 3 loses nothing.  ``evidence`` carries the numbers behind the
    verdicts: C2 needs a finite drift, C3 finite E p^-gamma and E q^-gamma
    (for quasi-periodic laws, p(.) inside (0, 1)), C4 a finite gamma growth
    rate.
    """

    gamma: float
    holds_c1: bool
    holds_c2: bool
    holds_c3: bool
    holds_c4: bool
    r1: float
    r2: float
    log_odds_mean: float
    regime: str
    speed: str
    clt_eligible: bool
    evidence: dict


def check_conditions(model: EnvironmentModel) -> ConditionReport:
    """Evaluate the standing conditions: ergodicity, log moments, GAMMA-th
    negative moments of p and 1-p, and boundedness of the GAMMA growth rate.

    The evidence is exact for constant and finitely supported laws and comes
    from the deterministic quadratures for quasi-periodic and parametric
    laws, so every verdict is computed rather than sampled.
    """
    lam = mean_log_odds(model)
    r1 = odds_growth_rate(model, 1.0)
    r2 = odds_growth_rate(model, 2.0)
    evidence: dict = {"lambda": lam}
    holds_c1 = True
    if isinstance(model, (Constant, IidDiscrete)):
        evidence["E_p_neg_gamma"] = _atom_mean(model, lambda p: p**-GAMMA)
        evidence["E_q_neg_gamma"] = _atom_mean(model, lambda p: (1.0 - p) ** -GAMMA)
        evidence["r_gamma"] = odds_growth_rate(model, GAMMA)
    elif isinstance(model, QuasiPeriodic):
        q = _small_denominator(model.alpha)
        holds_c1 = q is None
        if q is not None:
            evidence["rational_denominator"] = q
        grid = model.p_of_phase(np.arange(_PHASE_GRID) / _PHASE_GRID)
        evidence["p_min"] = float(grid.min())
        evidence["p_max"] = float(grid.max())
        evidence["r_gamma"] = math.exp(GAMMA * lam)
    else:
        # p^-gamma = exp(-gamma ln p) with ln p = ln expit(-x), and likewise for 1-p
        evidence["E_p_neg_gamma"] = _parametric_mean(model, lambda x: np.exp(-GAMMA * _log_expit(-x)))
        evidence["E_q_neg_gamma"] = _parametric_mean(model, lambda x: np.exp(-GAMMA * _log_expit(x)))
        evidence["r_gamma"] = _parametric_mean(model, lambda x: np.exp(GAMMA * x))
        evidence["support"] = [model.p_lo, model.p_hi]
    evidence["r1"] = r1
    evidence["r2"] = r2
    if isinstance(model, QuasiPeriodic):
        holds_c3 = 0.0 < evidence["p_min"] and evidence["p_max"] < 1.0
    else:
        holds_c3 = math.isfinite(evidence["E_p_neg_gamma"]) and math.isfinite(evidence["E_q_neg_gamma"])

    regime = _regime(lam)
    return ConditionReport(
        gamma=GAMMA,
        holds_c1=holds_c1,
        holds_c2=math.isfinite(lam),
        holds_c3=holds_c3,
        holds_c4=math.isfinite(evidence["r_gamma"]),
        r1=r1,
        r2=r2,
        log_odds_mean=lam,
        regime=regime.value,
        speed="positive" if regime is Regime.TRANSIENT_RIGHT and r1 < 1.0 else "zero",
        clt_eligible=regime is Regime.TRANSIENT_RIGHT and r2 < 1.0,
        evidence=evidence,
    )


# ---------------------------------------------------------------------------
# sizing helpers used by simulation and analytics callers


def suggested_left_guard(model: EnvironmentModel) -> int:
    """Default left guard 50 + 10*ceil(1/|drift|) for transient-right walks."""
    lam = mean_log_odds(model)
    if lam >= 0:
        raise ModelError("suggested_left_guard: model is not transient to the right")
    return 50 + 10 * math.ceil(1.0 / abs(lam))


def suggested_burn_in(model: EnvironmentModel) -> int:
    """Sites left of 0 that attenuate recursion seeding by e^-SEED_ATTENUATION_LOG, plus 64."""
    lam = mean_log_odds(model)
    if lam >= 0:
        raise ModelError("suggested_burn_in: model is not transient to the right")
    return min(100_000, math.ceil(SEED_ATTENUATION_LOG / abs(lam)) + 64)
