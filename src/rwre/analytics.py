"""Quenched environment functionals.

Per-site quantities: the expected crossing time of edge k -> k+1 and its
variance, both given by geometric-type series in products of odds ratios.
Cumulative quantities: the expected hitting time H(n) of site n (the natural
centering for hitting-time fluctuations) and the explicit and implicit
position centerings built from H, all read from one ``MomentProfile``, and
the signed range sums of its prefix array used by the diagnostics.

Two independent computational routes are kept for the site moments: the
series summed to a tolerance with a truncation bound, and the left-to-right
one-step recursions

    mean_k = A_k * mean_{k-1} + 1/p_k
    var_k  = A_k * (var_{k-1} + (mean_{k-1} + 1)^2 / p_k)

seeded deep enough in the window that the seeding error is attenuated below
1e-20.  The recursions drive the bulk ``MomentProfile``; the series functions
cross-check them site by site.  Law-level constants (``summary``) realize no
window: closed forms for i.i.d. laws, and for quasi-periodic laws the same
recursions run over a grid of circle phases and averaged.

The profile is built once per window, over sites 0..hi, so each of its
values is a pure function of the window and not of the order of calls.  It
runs the recursions as a block scan: each block's affine transfer carries
start values across block boundaries, and every block then re-runs the
one-step recursions from its start, all blocks at once in numpy.  Each site
gets the loop's floating-point operations (the square is x*x), so only a
carried block start can differ from the loop's, in the last bits.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .environment import (
    RECURRENCE_TOL,
    SEED_ATTENUATION_LOG,
    EnvironmentModel,
    EnvironmentWindow,
    QuasiPeriodic,
    mean_log_odds,
    odds_growth_rate,
    suggested_burn_in,
)
from .errors import (
    IndexRangeError,
    ModelError,
    NonSummableError,
    NotCltEligibleError,
    QuadratureError,
    WindowTooSmallError,
)

__all__ = [
    "SiteMoments",
    "SummaryStatistics",
    "MomentProfile",
    "site_mean",
    "site_variance",
    "signed_range_sum",
    "summary",
    "closed_form_variance",
    "closed_form_variance_printed",
]

# relative tolerance at which the site series stop
_SERIES_TOL = 1e-12
_MIN_BURN = 32
# profile block scan: sites per chunk (working arrays ~1 MB) and per block;
# a run of up to _SCAN_BLOCK sites is one block, i.e. the sequential loop
_SCAN_CHUNK = 1 << 14
_SCAN_BLOCK = 64
# largest phase grid of the quasi-periodic circle averages
_CIRCLE_GRID_CAP = 1 << 14


@dataclass(frozen=True)
class SiteMoments:
    """Crossing-time moments at one site.

    ``mu`` is the quenched expected crossing time (always >= 1), ``sigma2``
    the quenched variance (>= 0, None when only the mean was requested).
    ``mu_trunc_bound`` comes from the observed geometric decay of the series
    terms.
    """

    odds: float
    mu: float
    mu_trunc_bound: float
    sigma2: float | None = None


def _decay_ratio(ratios: deque) -> float:
    """Conservative geometric decay estimate from recent term ratios."""
    if not ratios:
        return 0.5
    geo = float(np.exp(np.mean(np.log(ratios))))
    rho = max(geo, ratios[-1])
    return min(max(rho, 1e-9), 1.0 - 1e-9)


def _tail_failure(window: EnvironmentWindow, k: int, ratios: deque) -> Exception:
    """Classify a failed series: non-decaying terms vs a window that ended."""
    rho = float(np.exp(np.mean(np.log(ratios)))) if ratios else 1.0
    if rho >= 1.0 - 1e-9:
        return NonSummableError(
            f"series at site {k}: odds-ratio products are not decaying (ratio ~ {rho:.6f}); "
            "the law appears to have non-negative drift"
        )
    return WindowTooSmallError(
        f"series at site {k}: window [{window.lo}, {window.hi}] ended before the "
        "requested tolerance was reached; extend the window to the left"
    )


def site_mean(window: EnvironmentWindow, k: int) -> SiteMoments:
    """Expected crossing time of edge k -> k+1 for the quenched environment.

    Sums 1 + 2*sum_j prod_{i=k-j..k} A_i until the running product drops
    below _SERIES_TOL times the partial sum.  When the window ends first,
    raises NonSummableError if the products do not decay (non-negative
    drift) and WindowTooSmallError if they are still decaying.
    """
    if k not in window:
        raise WindowTooSmallError(f"site {k} outside window [{window.lo}, {window.hi}]")
    odds_k = window.odds(k)
    total = 1.0
    prod = 1.0
    ratios: deque = deque(maxlen=24)
    j = 0
    while True:
        i = k - j
        if i < window.lo:
            raise _tail_failure(window, k, ratios)
        a = window.odds(i)
        prod *= a
        ratios.append(a)
        total += 2.0 * prod
        if prod < _SERIES_TOL * total:
            break
        j += 1
    rho = _decay_ratio(ratios)
    bound = 2.0 * prod * rho / (1.0 - rho)
    return SiteMoments(odds=odds_k, mu=total, mu_trunc_bound=bound)


def site_variance(window: EnvironmentWindow, k: int) -> SiteMoments:
    """Quenched variance of the crossing time of edge k -> k+1.

    Sums sum_j (1/p_{k-j}) (mean_{k-j-1} + 1)^2 prod_{i=k-j..k} A_i, feeding
    it with crossing means produced by the recursion warmed up from deep in
    the window.
    """
    mean_part = site_mean(window, k)
    start = _burn_start(window, k)
    # warm the mean recursion from the seed site up to k
    mu_arr = np.empty(k - start + 1)
    mu_arr[0] = 1.0
    for idx, i in enumerate(range(start + 1, k + 1), start=1):
        mu_arr[idx] = window.odds(i) * mu_arr[idx - 1] + 1.0 / window.site(i)
    total = 0.0
    prod = 1.0
    ratios: deque = deque(maxlen=24)
    j = 0
    while True:
        i = k - j
        if i - 1 < start:
            raise _tail_failure(window, k, ratios)
        prod *= window.odds(i)
        ratios.append(window.odds(i))
        term = prod * (mu_arr[i - 1 - start] + 1.0) ** 2 / window.site(i)
        total += term
        if prod < _SERIES_TOL * max(total, 1.0) and term < _SERIES_TOL * max(total, 1.0):
            break
        j += 1
    return SiteMoments(
        odds=mean_part.odds,
        mu=mean_part.mu,
        mu_trunc_bound=mean_part.mu_trunc_bound,
        sigma2=total,
    )


def _burn_start(window: EnvironmentWindow, k0: int) -> int:
    """Leftmost seed index s such that recursions seeded at s are accurate at k0.

    The seeding error is multiplied by prod_{i=s+1..k0} A_i, so s is chosen
    where the accumulated log odds drops below -SEED_ATTENUATION_LOG.  A
    window that ends first raises: NonSummableError when the local drift is
    non-negative (the products never decay), WindowTooSmallError otherwise.
    """
    acc = 0.0
    i = k0
    log_odds = np.log(window.odds_array())
    while i > window.lo:
        acc += log_odds[i - window.lo]
        if acc <= -SEED_ATTENUATION_LOG and k0 - i >= _MIN_BURN:
            return i - 1
        i -= 1
    mean = acc / max(k0 - window.lo, 1)
    if mean > -1e-12:
        raise NonSummableError(
            f"window [{window.lo}, {window.hi}]: mean log odds {mean:.3e} is not negative; "
            "crossing-time series diverge"
        )
    raise WindowTooSmallError(
        f"window [{window.lo}, {window.hi}]: needs roughly {math.ceil(SEED_ATTENUATION_LOG / -mean)} "
        f"sites left of {k0} to attenuate recursion seeding"
    )


def _scan_chunk(p, state, mu_out, var_out, h_out):
    """Block scan of the one-step recursions over sites with probabilities p.

    ``state`` is (mean, variance, H sum, H compensation) just left of p[0];
    the outputs are filled and the state after p[-1] is returned.  Blocks of
    bs sites are the columns of (bs, nb) arrays, so row j holds the j-th site
    of every block and each numpy step advances all blocks by one site.
    """
    m = len(p)
    bs = min(m, _SCAN_BLOCK)
    nb = -(-m // bs)
    q = np.concatenate([p, np.full(nb * bs - m, 0.5)])  # pads the last block
    q = np.ascontiguousarray(q.reshape(nb, bs).T)
    a = (1.0 - q) / q
    inv_p = 1.0 / q
    prod = np.prod(a, axis=0).tolist()  # underflow to 0 only drops a forgotten start
    mu0, var0, s, c = state

    def carry(offset, x):
        # block transfer x -> prod*x + offset: every term is positive, so the
        # carried starts cancel nothing
        starts = np.empty(nb)
        for b, (pb, ob) in enumerate(zip(prod, offset.tolist())):
            starts[b] = x
            x = pb * x + ob
        return starts

    # means: offsets from a zero start, carry, then the loop's mu = a*mu + 1/p
    off = np.zeros(nb)
    for j in range(bs):
        off = a[j] * off + inv_p[j]
    prev = mu_start = carry(off, mu0)
    mu = np.empty((bs, nb))
    for j in range(bs):
        prev = mu[j] = a[j] * prev + inv_p[j]
    # variances: var holds (mu_prev + 1)^2 / p until the loop's
    # var = a*(var + (mu_prev + 1)^2 / p) overwrites it row by row
    var = (np.vstack([mu_start, mu[:-1]]) + 1.0) ** 2 * inv_p
    off = np.zeros(nb)
    for j in range(bs):
        off = a[j] * (off + var[j])
    prev = carry(off, var0)
    for j in range(bs):
        prev = var[j] = a[j] * (prev + var[j])
    mu_out[:] = mu.T.reshape(-1)[:m]
    var_out[:] = var.T.reshape(-1)[:m]
    # H: the loop's Neumaier sum.  Its running sum adds in site order, as
    # cumsum does, and each addition's rounding error is exact (TwoSum), so
    # both sequences are the loop's bit for bit.
    run = np.cumsum(np.concatenate(([s], mu_out)))
    z = run[1:] - run[:-1]
    err = (run[:-1] - (run[1:] - z)) + (mu_out - z)
    comp = np.cumsum(np.concatenate(([c], err)))
    np.add(run[1:], comp[1:], out=h_out)
    return float(mu_out[-1]), float(var_out[-1]), float(run[-1]), float(comp[-1])


def _moment_scan(p, state, mu_out, var_out, h_out):
    """``_scan_chunk`` over p in chunks of _SCAN_CHUNK sites."""
    for lo in range(0, len(p), _SCAN_CHUNK):
        hi = lo + _SCAN_CHUNK
        state = _scan_chunk(p[lo:hi], state, mu_out[lo:hi], var_out[lo:hi], h_out[lo:hi])
    return state


class MomentProfile:
    """Per-site moments and compensated prefix sums on sites 0..window.hi.

    Built once per window: crossing means and variances come from the
    one-step recursions, warmed up left of site 0 so the seeding is
    attenuated below ~1e-20, and one block scan over sites 0..hi fills them.
    The prefix of means (the expected hitting time H) is accumulated with
    Neumaier compensation, so centerings stay accurate far beyond what plain
    float summation guarantees.  Every value is a pure function of the
    window; the arrays are read-only, and the methods only read them.
    """

    def __init__(self, window: EnvironmentWindow):
        self.window = window
        start = _burn_start(window, 0)
        warm = window.p[start + 1 - window.lo : -window.lo]  # sites start+1..-1
        mu, var, _, _ = _moment_scan(warm, (1.0, 0.0, 0.0, 0.0), *np.empty((3, len(warm))))
        n = window.hi + 1
        self._mu, self._sigma2 = np.empty(n), np.empty(n)
        self._prefix = np.zeros(n + 1)  # prefix[m] = H(m)
        # (mu, var) is the state at site -1, or at the seed when start = -1
        _moment_scan(window.p[-window.lo :], (mu, var, 0.0, 0.0),
                     self._mu, self._sigma2, self._prefix[1:])
        for arr in (self._mu, self._sigma2, self._prefix):
            arr.flags.writeable = False

    @property
    def size(self) -> int:
        return len(self._mu)

    def _check(self, n: int) -> None:
        """Raise unless sites [0, n) are in the window."""
        if n < 0:
            raise IndexRangeError(f"profile needs n >= 0, got {n}")
        if n > self.size:
            raise WindowTooSmallError(
                f"profile needs sites up to {n - 1} but window ends at {self.window.hi}"
            )

    def mu_array(self, n: int) -> np.ndarray:
        self._check(n)
        return self._mu[:n]

    def sigma2_array(self, n: int) -> np.ndarray:
        self._check(n)
        return self._sigma2[:n]

    def hitting_centering(self, n: float) -> float:
        """Expected hitting time H(n) = sum_{k < floor(n)} mu_k; H(0) = 0."""
        if not n >= 0:  # NaN included
            raise IndexRangeError(f"hitting centering needs n >= 0, got {n}")
        m = math.floor(min(n, self.size + 1))  # math.floor(inf) would overflow
        self._check(m)
        return float(self._prefix[m])

    def implicit_center(self, t: float) -> int:
        """The unique integer b with H(b) <= t < H(b+1)."""
        if not t >= 0:  # NaN included
            raise IndexRangeError(f"implicit centering needs t >= 0, got {t}")
        if self._prefix[-1] <= t:
            raise WindowTooSmallError(
                f"window ends at {self.window.hi} before the cumulative "
                f"centering reaches t={t}"
            )
        return int(np.searchsorted(self._prefix, t, side="right")) - 1

    def explicit_center(self, t: float, mu_global: float) -> float:
        """2t/mu - H(t/mu)/mu, with the floor convention inside H."""
        if not t >= 0:  # NaN included
            raise IndexRangeError(f"explicit centering needs t >= 0, got {t}")
        z = t / mu_global
        return 2.0 * z - self.hitting_centering(z) / mu_global


def signed_range_sum(prefix: np.ndarray, a: float, b: float) -> float:
    """Sum of values over integer indices floor(a)..floor(b), read from their
    prefix sums: ``prefix[m]`` is the sum of the first m values.

    When floor(b) < floor(a) the range is inverted and the sum of the
    reversed range is negated, matching the signed summation convention used
    throughout the diagnostics.  A range outside the values raises
    IndexRangeError.
    """
    fa = math.floor(a)
    fb = math.floor(b)
    lo, hi, sign = (fa, fb, 1.0) if fa <= fb else (fb, fa, -1.0)
    if lo < 0 or hi + 1 >= len(prefix):
        raise IndexRangeError(
            f"range [{lo}, {hi}] outside available indices [0, {len(prefix) - 2}]"
        )
    return sign * float(prefix[hi + 1] - prefix[lo])


# ---------------------------------------------------------------------------
# law-level summary


@dataclass(frozen=True)
class SummaryStatistics:
    """Global functionals of an environment law.

    ``mu`` is the mean crossing time, ``sigma2`` the mean quenched crossing
    variance, and ``sigma_star`` the position-fluctuation scale with
    sigma_star^2 = mu^-3 sigma2 (computed from the stored values, never
    passed in, so the identity holds exactly).  All are exact law constants,
    and ``method`` says how mu and sigma2 were computed: "closed-form" for
    i.i.d.-type laws, "circle-average" for quasi-periodic ones.  The two closed-form
    variance fields carry the algebraic variants evaluated for i.i.d.-type
    laws: the variants disagree (one has a factor 1+r1, the other 1+r1^2)
    and only the former matches the independent oracles, so ``sigma2``
    equals it; both are reported and the mismatch is flagged rather than
    silently resolved.
    """

    log_odds_mean: float
    r1: float
    r2: float
    mu: float
    method: str
    sigma2: float
    sigma_star: float = field(init=False)
    sigma2_closed_form: float | None = None
    sigma2_closed_form_printed: float | None = None
    closed_form_mismatch: bool | None = None

    def __post_init__(self) -> None:
        if self.mu < 1.0:
            raise ModelError(f"summary: mean crossing time must be >= 1, got {self.mu}")
        if self.sigma2 < 0.0:
            raise ModelError(f"summary: crossing variance must be >= 0, got {self.sigma2}")
        object.__setattr__(self, "sigma_star", math.sqrt(self.mu**-3 * self.sigma2))


def closed_form_variance(r1: float, r2: float) -> float:
    """I.i.d. crossing-variance closed form, 4(r1+r2)(1+r1)/((1-r1)^2(1-r2)).

    This is the variant consistent with the exact constant-environment value
    and with the finite-chain oracle.
    """
    return 4.0 * (r1 + r2) * (1.0 + r1) / ((1.0 - r1) ** 2 * (1.0 - r2))


def closed_form_variance_printed(r1: float, r2: float) -> float:
    """Alternate closed-form variant with (1+r1^2) in place of (1+r1).

    Kept for the audit trail: it disagrees with the independent oracles
    (value 5 instead of the exact 6 at p = 0.75) and is reported, never used.
    """
    return 4.0 * (r1 + r2) * (1.0 + r1**2) / ((1.0 - r1) ** 2 * (1.0 - r2))


def _law_moments(model: EnvironmentModel, r1: float, r2: float) -> tuple[float, float]:
    """Law-level (mu, sigma2): mean crossing time and mean crossing variance.

    I.i.d.-type laws use the closed forms (1+r1)/(1-r1) and
    ``closed_form_variance`` (sigma2 is inf when r2 >= 1).  Quasi-periodic
    laws use circle averages: the one-step recursions run along the orbits
    that end at each phase of an equispaced midpoint grid, seeded
    ``suggested_burn_in`` steps back as in ``MomentProfile``, and the grid
    doubles from 64 phases until both averages repeat to 1e-12 relative.
    """
    if not isinstance(model, QuasiPeriodic):
        sigma2 = closed_form_variance(r1, r2) if r2 < 1.0 else math.inf
        return (1.0 + r1) / (1.0 - r1), sigma2
    burn = suggested_burn_in(model)
    prev = None
    n = 64
    while n <= _CIRCLE_GRID_CAP:
        phases = (np.arange(n) + 0.5) / n
        mu = np.ones(n)
        var = np.zeros(n)
        for j in range(burn - 1, -1, -1):
            p = model.p_of_phase(np.mod(phases - j * model.alpha, 1.0))
            a = (1.0 - p) / p
            var = a * (var + (mu + 1.0) ** 2 / p)
            mu = a * mu + 1.0 / p
        cur = (float(mu.mean()), float(var.mean()))
        if prev is not None and all(abs(c - b) <= 1e-12 * c for c, b in zip(cur, prev)):
            return cur
        prev = cur
        n *= 2
    raise QuadratureError(
        f"circle averages of the crossing moments did not stabilize at {_CIRCLE_GRID_CAP} phases"
    )


def summary(model: EnvironmentModel) -> SummaryStatistics:
    """Global law summary: drift, growth rates, mean crossing time, crossing
    variance, and the position scale.

    Raises NotCltEligibleError unless the drift is negative and the order-2
    growth rate is below 1.  Every value is exact: i.i.d.-type laws use the
    closed forms (method "closed-form"), quasi-periodic laws the circle
    averages of ``_law_moments`` (method "circle-average"); no environment
    is realized.  For i.i.d.-type laws both closed-form variance variants
    are recorded for audit, and the printed one is flagged when it differs
    from sigma2 by more than 1e-9 relative.
    """
    lam = mean_log_odds(model)
    r1 = odds_growth_rate(model, 1.0)
    r2 = odds_growth_rate(model, 2.0)
    if lam >= -RECURRENCE_TOL:
        raise NotCltEligibleError(
            f"mean log odds {lam:.6g} is not negative; walk is not transient right"
        )
    if r2 >= 1.0:
        raise NotCltEligibleError(
            f"order-2 growth rate {r2:.6g} >= 1; crossing variance is not integrable"
        )
    mu, sigma2 = _law_moments(model, r1, r2)
    closed = closed_printed = mismatch = None
    if isinstance(model, QuasiPeriodic):
        method = "circle-average"
    else:
        method = "closed-form"
        closed = sigma2
        closed_printed = closed_form_variance_printed(r1, r2)
        mismatch = abs(closed_printed - sigma2) > 1e-9 * sigma2
    return SummaryStatistics(
        log_odds_mean=lam,
        r1=r1,
        r2=r2,
        mu=mu,
        method=method,
        sigma2=sigma2,
        sigma2_closed_form=closed,
        sigma2_closed_form_printed=closed_printed,
        closed_form_mismatch=mismatch,
    )


def reference_crossing_mean(model: EnvironmentModel) -> float:
    """Law-level mean crossing time, independent of any single orbit.

    The closed form for i.i.d.-type laws; for quasi-periodic laws the circle
    average, which is the correct reference even when the rotation number
    is rational and single-orbit averages converge to the wrong value.
    Raises NotCltEligibleError when the order-1 growth rate is not below 1.
    """
    r1 = odds_growth_rate(model, 1.0)
    if r1 >= 1.0:
        raise NotCltEligibleError(f"order-1 growth rate {r1:.6g} >= 1; mean diverges")
    return _law_moments(model, r1, odds_growth_rate(model, 2.0))[0]
