"""Independent exact oracles for crossing and hitting moments.

The boundary-value route: on a finite interval [a, n] with absorbing ends,
the expected hitting time e(x) of the right end and its variance v(x)
satisfy one-step tridiagonal systems

    h_k = p_k h_{k+1} + q_k h_{k-1} + f_k,     h_a = h_n = 0,

with f = 1 for the expectation and, for the variance,
f(x) = p_x (e(x+1) - e(x) + 1)^2 + q_x (e(x-1) - e(x) + 1)^2 built directly
from the solved e.  The interior increments e(k) - e(k+1) and v(k) - v(k+1)
converge (as a -> -infinity) to the per-site crossing mean and variance, so
they serve as desk-scale ground truth for the series in ``analytics``.  The
solve is the forward sweep and back substitution of the tridiagonal system,
each run as a block scan in the layout of ``analytics``' moment scan, the
affine d and h through its ``_affine_scan``: a block's transfer carries the
start value across it, and every block then re-runs the sweep's per-site
operations from its start, all blocks at once in numpy.  Only a carried
block start can differ from a scalar sweep's, in the last bits.

A note on the variance forcing term: rewriting f in terms of crossing means
gives p_k (1 - mean_k)^2 + q_k (mean_{k-1} + 1)^2, but a commonly seen
transcription swaps the two arguments.  Both symbolic variants are evaluated
by ``forcing_terms`` and compared to the e-derived forcing; only the
unswapped variant matches, and the oracle always builds f from the solved e.

One banded forward propagation kernel gives the quenched laws of X(t)
(``position_law``) and of T(n) (``hitting_law``, absorbing at n and
recording the mass absorbed at each step) in O(steps * band).  ``_invert_law``
turns a law and one uniform per sample into samples, with one rule for guard
and step-cap errors, for the batch samplers in ``walk`` and for the Monte Carlo
route, which estimates single-edge crossing moments with standard errors from
the kernel's crossing law.  The T(n) law may stop once its CDF passes a target
(the largest uniform to invert), since no later step changes any sample.
Together they adjudicate every formula discrepancy flagged upstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import _SCAN_BLOCK, _SCAN_CHUNK, _affine_scan, _blocks, _unblock
from .environment import EnvironmentWindow
from .errors import (
    LeftGuardBreachError,
    ModelError,
    StepBudgetExceededError,
    WindowTooSmallError,
)

__all__ = [
    "FiniteChainSolution",
    "ExactPmf",
    "MomentEstimate",
    "solve_finite_chain",
    "expected_hitting_times",
    "hitting_time_variances",
    "position_law",
    "hitting_law",
    "exact_position_distribution",
    "mc_crossing_moments",
    "forcing_terms",
]

LAW_EPS = 1e-30
_MC_MAX_STEPS = 10_000_000  # the step cap of the Monte Carlo crossing law


@dataclass(frozen=True)
class FiniteChainSolution:
    """Solution of the absorbing-boundary one-step system on [a, n].

    ``h[k - a]`` is the solution at site k, with h(a) = h(n) = 0 imposed;
    ``residual`` is the largest violation of the defining equation over
    interior sites.
    """

    a: int
    n: int
    h: np.ndarray
    residual: float

    def value(self, k: int) -> float:
        if not self.a <= k <= self.n:
            raise ModelError(f"site {k} outside [{self.a}, {self.n}]")
        return float(self.h[k - self.a])

    def increments(self) -> np.ndarray:
        """h(k) - h(k+1) for k = a..n-1 (per-edge contributions)."""
        return -np.diff(self.h)


def _phi_rows(P, Q, starts):
    """(phi, den) at every site of the blocks of P, each run from its start phi."""
    PHI, DEN = np.empty_like(P), np.empty_like(P)
    prev = starts
    for p_j, q_j, phi_j, den_j in zip(P, Q, PHI, DEN):
        np.multiply(q_j, prev, out=den_j)
        np.subtract(1.0, den_j, out=den_j)
        prev = np.divide(p_j, den_j, out=phi_j)
    return PHI, DEN


def _sweep_chunk(p, f, phi_prev, d_prev, d_out):
    """The forward sweep over one chunk of interior sites with probabilities
    p and forcing f; (phi_prev, d_prev) belong to the site left of p[0].
    Fills d_out; returns (phi, d) at the chunk's last site and the blocks' phi starts."""
    bs = min(len(p), _SCAN_BLOCK)
    P = _blocks(p, 0.5, bs)
    F = _blocks(f, 0.0, bs)
    Q = 1.0 - P
    nb = P.shape[1]
    # in psi = 1 - phi the step is psi -> q psi/(p + q psi), the Moebius map
    # of [[q, 0], [q, p]].  A block's product, rescaled at every site so its
    # bottom row sums to 1, is [[A, 0], [1 - D, D]]: psi -> A psi/(psi + D phi),
    # every term positive.  A is psi from a zero phi start, and each rescale
    # is that start's den = p + q psi.
    A, D, s = np.ones(nb), np.ones(nb), np.empty(nb)
    for p_j, q_j in zip(P, Q):
        A *= q_j
        np.add(p_j, A, out=s)
        A /= s
        D *= p_j
        D /= s
    starts = np.empty(nb)
    x, psi = phi_prev, 1.0 - phi_prev
    for b, (ab, db) in enumerate(zip(A.tolist(), D.tolist())):
        starts[b] = x
        psi = ab * psi / (psi + db * x)
        x = 1.0 - psi
    # every block re-runs the loop's phi from its start, keeping each den
    PHI, DEN = _phi_rows(P, Q, starts)
    # d -> (q d + f)/den is affine, its block slope the product of q/den; F becomes d
    _affine_scan(lambda x, r: np.divide(np.add(np.multiply(x, r[0], x), r[1], x), r[2], x),
                 list(zip(Q, F, DEN)), np.prod(Q / DEN, axis=0), d_prev, F)
    _unblock(F, d_out)
    return float(PHI.T.flat[len(p) - 1]), float(d_out[-1]), starts


def _substitute_chunk(p, starts, h, h_next):
    """Back substitution h_k = phi_k h_{k+1} + d_k over one chunk, in place:
    h holds d on entry, phi is re-run from the sweep's block starts, and h_next
    is the solution right of the chunk.  Returns the solution at its first site."""
    bs = min(len(h), _SCAN_BLOCK)
    P = _blocks(p, 0.5, bs)
    PHI = _phi_rows(P, 1.0 - P, starts)[0]
    PHI[(len(h) - 1) % bs + 1 :, -1] = 1.0  # padded sites pass h_next through unchanged
    H = _blocks(h, 0.0, bs)  # h = phi h_next + d right to left; H becomes h
    _affine_scan(lambda x, r: np.add(np.multiply(x, r[0], x), r[1], x),
                 list(zip(PHI[::-1], H[::-1])), np.prod(PHI, axis=0), h_next, H[::-1], reverse=True)
    _unblock(H, h)
    return float(h[0])


def solve_finite_chain(
    window: EnvironmentWindow, a: int, n: int, f_values
) -> FiniteChainSolution:
    """Exact solve of the two-sided absorbing system by sweep and substitution.

    The forward sweep writes h_k = phi_k h_{k+1} + d_k with

        den_k = 1 - q_k phi_{k-1},  phi_k = p_k / den_k,
        d_k = (q_k d_{k-1} + f_k) / den_k,

    seeded phi_a = d_a = 0; back substitution from h_n = 0 finishes.  Both
    run as block scans, chunk by chunk: a block's Moebius (phi) or affine
    (d, h, through ``_affine_scan``) transfer carries the start value across
    it, then every block re-runs the per-site operations above from its start.  d is swept into
    ``h``, which the substitution overwrites in place, and phi is kept as its
    block starts (1/64 of the chain), so ``h`` is the only full-length array
    added to ``f_values``, the interior forcing f_k for k = a+1..n-1.
    """
    if not a < n:
        raise ModelError(f"solve_finite_chain: need a < n, got a={a}, n={n}")
    if a < window.lo or n > window.hi:
        raise WindowTooSmallError(
            f"window [{window.lo}, {window.hi}] does not cover [{a}, {n}]"
        )
    f = np.asarray(f_values, dtype=np.float64)
    m = n - a - 1  # interior sites a+1..n-1
    if f.shape != (m,):
        raise ModelError(
            f"f_values must have length n - a - 1 = {m}, got {f.shape}"
        )
    p = window.p[a + 1 - window.lo : n - window.lo]
    h = np.zeros(m + 2)
    chunks = [(lo, min(lo + _SCAN_CHUNK, m)) for lo in range(0, m, _SCAN_CHUNK)]
    state, starts = (0.0, 0.0), []  # starts: each chunk's phi block starts
    for lo, hi in chunks:
        *state, chunk_starts = _sweep_chunk(p[lo:hi], f[lo:hi], *state, h[lo + 1 : hi + 1])
        starts.append(chunk_starts)
    h_next = 0.0
    for (lo, hi), chunk_starts in zip(reversed(chunks), reversed(starts)):
        h_next = _substitute_chunk(p[lo:hi], chunk_starts, h[lo + 1 : hi + 1], h_next)
    residual = 0.0
    for lo, hi in chunks:  # h_k - (p_k h_{k+1} + q_k h_{k-1} + f_k), chunk by chunk
        r = p[lo:hi] * h[lo + 2 : hi + 2]
        q = 1.0 - p[lo:hi]
        q *= h[lo:hi]
        r += q
        r += f[lo:hi]
        np.subtract(h[lo + 1 : hi + 1], r, out=r)
        residual = np.maximum(residual, np.abs(r, out=r).max())  # NaN propagates
    return FiniteChainSolution(a=a, n=n, h=h, residual=float(residual))


def expected_hitting_times(window: EnvironmentWindow, a: int, n: int) -> FiniteChainSolution:
    """e(x) = expected time to hit n from x, absorbing at both a and n."""
    return solve_finite_chain(window, a, n, np.broadcast_to(1.0, n - a - 1))


def _variance_forcing(window: EnvironmentWindow, e: FiniteChainSolution) -> np.ndarray:
    """Interior forcing f_k = p_k (e(k+1) - e(k) + 1)^2 + q_k (e(k-1) - e(k) + 1)^2,
    built in place in f, _SCAN_CHUNK sites at a time."""
    p = window.p[e.a + 1 - window.lo : e.n - window.lo]
    h = e.h
    f = np.empty(len(p))
    for lo in range(0, len(p), _SCAN_CHUNK):
        hi = min(lo + _SCAN_CHUNK, len(p))
        fc = np.subtract(h[lo + 2 : hi + 2], h[lo + 1 : hi + 1], out=f[lo:hi])
        fc += 1.0
        np.square(fc, out=fc)
        fc *= p[lo:hi]
        back = h[lo:hi] - h[lo + 1 : hi + 1]
        back += 1.0
        np.square(back, out=back)
        back *= 1.0 - p[lo:hi]
        fc += back
    return f


def forcing_terms(window: EnvironmentWindow, e: FiniteChainSolution) -> dict:
    """The variance forcing f on interior sites, three ways.

    ``derived`` builds f from the solved expectations (authoritative);
    ``mean_form`` is the rewrite p_k (1-mean_k)^2 + q_k (mean_{k-1}+1)^2;
    ``mean_form_swapped`` is the transcription with the arguments exchanged.
    The maximum interior gaps against ``derived`` expose the swap.
    """
    derived = _variance_forcing(window, e)
    p = window.p[e.a - window.lo : e.n - window.lo + 1]
    q = 1.0 - p
    mu = e.increments()  # mu[k-a] approximates the crossing mean at site k
    mean_form = p[1:-1] * (1.0 - mu[1:]) ** 2 + q[1:-1] * (mu[:-1] + 1.0) ** 2
    swapped = p[1:-1] * (mu[1:] + 1.0) ** 2 + q[1:-1] * (1.0 - mu[:-1]) ** 2
    return {
        "derived": derived,
        "mean_form": mean_form,
        "mean_form_swapped": swapped,
        "max_gap_mean_form": float(np.max(np.abs(mean_form - derived))),
        "max_gap_swapped": float(np.max(np.abs(swapped - derived))),
    }


def hitting_time_variances(window: EnvironmentWindow, a: int, n: int) -> FiniteChainSolution:
    """v(x) = variance of the time to hit n from x; e builds the forcing and is freed first."""
    forcing = _variance_forcing(window, expected_hitting_times(window, a, n))
    return solve_finite_chain(window, a, n, forcing)


@dataclass(frozen=True)
class ExactPmf:
    """Exact position law after t steps: support positions and probabilities."""

    support: np.ndarray
    probabilities: np.ndarray

    def mean(self) -> float:
        return float(np.dot(self.support, self.probabilities))


TRIM_EVERY = 16


def _propagate(window: EnvironmentWindow, z0: int, steps: int, left_guard: int | None = None,
               right: int | None = None, target: float = math.inf):
    """Banded forward propagation of the quenched walk from z0, O(steps * band).

    Each step, mass m at x sends ``m p_x`` to x+1 and ``m - m p_x`` to x-1, in
    place in a buffer whose band buf[a:b] holds positions start, start + 2, ...
    Mass reaching -left_guard or ``right`` (if given) is absorbed.  Every
    TRIM_EVERY steps, and at the end, only the band from the first to the last
    cell of mass >= LAW_EPS is kept; each step adds one cell, so at most
    steps + 1 cells, each below LAW_EPS, are ever dropped.  Stops after
    ``steps`` steps, once the band is empty, or at the first step where the
    running sum of the hits exceeds ``target``; that sum is accumulated in
    the order of ``np.cumsum(hits)``, so it equals the hits' CDF bit for bit.
    Returns (start, masses, absorbed at the guard, dropped, hits), hits[s]
    being the mass absorbed at ``right`` at step s.

    Every cell the band holds lies in the reach [r0, r1], so p there is
    copied once into two contiguous parity planes, padded with TRIM_EVERY
    cells on each side.  The steps up to each scheduled trim form a segment:
    its band, shifted-band and scratch views and its p rows (plane
    (x - r0) % 2 for a view starting at x) are taken once, long enough for
    the segment's last step, and every step runs three ufunc calls on them.
    The cells past the live band, and those the guard cleared, hold exact
    zeros (0 p = 0, 0 - 0 = 0, x + 0.0 = x), so no value differs from a
    step on the live band alone.  The guard and top cells are read through a
    memoryview as Python floats, the same IEEE values as numpy scalars
    without their boxing; only the steps that absorb at ``right`` record
    their hit.  A trim scans the memoryview inward from each end of the band.
    """
    guard = None if left_guard is None else -left_guard
    left = z0 - steps if guard is None else guard
    top = z0 + steps if right is None else right
    if left < window.lo or top > window.hi:
        raise WindowTooSmallError(f"window [{window.lo}, {window.hi}] must cover [{left}, {top}]")
    if guard is not None and z0 <= guard:
        raise ModelError(f"start {z0} must lie right of the guard {guard}")
    r0, r1 = max(left, z0 - steps), min(top, z0 + steps)
    reach = window.p[r0 - window.lo : r1 - window.lo + 1]
    planes = (np.pad(reach[::2], TRIM_EVERY), np.pad(reach[1::2], TRIM_EVERY))
    width = (r1 - r0) // 2 + 2  # the widest band
    buf = np.zeros(2 * width + TRIM_EVERY + 2)
    moved = np.empty(width + TRIM_EVERY)
    cells = memoryview(buf)
    cells[0] = 1.0
    a, b, start = 0, 1, z0
    absorbed = dropped = total = 0.0
    hit_steps, hits = [], []
    multiply, subtract, add = np.multiply, np.subtract, np.add  # local names: about 5% a step
    s = 0
    while s < steps:
        seg = min(TRIM_EVERY, steps - s)
        n = b - a + seg - 1  # the band's length at the segment's last step
        if a + n + 1 > buf.size:  # slide the band back to the front of the buffer
            buf[: b - a] = buf[a:b]
            buf[b - a :] = 0.0
            a, b = 0, b - a
        band, up, m = buf[a : a + n], buf[a + 1 : a + n + 1], moved[:n]
        d0 = start - r0 + 2 * TRIM_EVERY  # position offset into the padded planes
        rows = [planes[d & 1][(d >> 1) : (d >> 1) + n] for d in range(d0, d0 - seg, -1)]
        for s, row in enumerate(rows, s + 1):
            multiply(band, row, m)
            subtract(band, m, band)
            add(up, m, up)
            b += 1
            start -= 1
            if start == guard:
                absorbed += cells[a]
                cells[a] = 0.0
                a += 1
                start += 2
            if start + 2 * (b - 1 - a) == right:
                b -= 1
                hit = cells[b]
                cells[b] = 0.0
                hit_steps.append(s)
                hits.append(hit)
                total += hit
                if total > target:
                    break
            if a == b:
                break
        else:  # the scheduled trim: scan inward from each end for the live cells
            i, j = a, b
            while i < j and not cells[i] >= LAW_EPS:
                i += 1
            while j > i and not cells[j - 1] >= LAW_EPS:
                j -= 1
            if i > a or j < b:
                dropped += float(buf[a:i].sum() + buf[j:b].sum())
                buf[j:b] = 0.0
                a, b, start = i, j, start + 2 * (i - a)
            if a < b:
                continue
        break  # the target was passed or the band is empty
    pmf = np.zeros(s + 1)
    pmf[hit_steps] = hits
    return start, buf[a:b].copy(), absorbed, dropped, pmf


def _invert_law(masses, absorbed, alive, u, n_replicas, left_guard) -> np.ndarray:
    """Each replica's cell of a law by inverting its CDF with its uniform of
    ``u[:n_replicas]``, laid out as ``masses``, then the mass absorbed at
    -left_guard, then the mass ``alive`` when the law stopped.  Any uniform of
    ``u`` (the batch samplers pass whole chunks) in the absorbed mass, or
    beyond it while mass is alive, raises (the guard first); one in the
    dropped mass takes the last cell."""
    cdf = np.cumsum(masses)
    beyond = u[u >= cdf[-1]] if masses.size else u
    if not masses.size or (beyond < cdf[-1] + absorbed).any():
        raise LeftGuardBreachError(f"a walker reached the left guard {-left_guard}; enlarge the guard")
    if alive > 0.0 and beyond.size:
        raise StepBudgetExceededError(f"a walker was still running after max_steps={masses.size - 1}")
    return np.minimum(np.searchsorted(cdf, u[:n_replicas], side="right"), masses.size - 1)


def position_law(window: EnvironmentWindow, z0: int, t: int, left_guard: int | None = None):
    """Quenched law of X(t) from z0, absorbed at -left_guard if given: (start,
    masses, absorbed, dropped), masses[i] = P(X(t) = start + 2i, no absorption)."""
    return _propagate(window, z0, t, left_guard)[:4]


def hitting_law(window: EnvironmentWindow, n: int, left_guard: int, max_steps: int,
                target: float = math.inf):
    """Quenched law of T(n) from 0, absorbed at -left_guard: (pmf, absorbed,
    alive, dropped), pmf[s] = P(T(n) = s) and ``alive`` the mass still in the
    band when propagation stopped (0 if the band emptied first).

    Propagation stops after max_steps steps, or at the first step s where
    ``np.cumsum(pmf)[s]`` exceeds ``target``: then pmf is a bit-identical
    prefix of the full law, enough to invert every uniform up to ``target``.
    With no target it is the full law."""
    if n < 1:
        raise ModelError(f"hitting_law: n must be >= 1, got {n}")
    _, masses, absorbed, dropped, pmf = _propagate(window, 0, max_steps, left_guard, n, target)
    return pmf, absorbed, float(masses.sum()), dropped


def exact_position_distribution(window: EnvironmentWindow, z0: int, t: int) -> ExactPmf:
    """Exact law of X(t) by ``position_law`` (no guard), cost O(t * band).

    The window must cover [z0 - t, z0 + t].  The support is the band's cells,
    which share the parity of z0 + t; the mass outside it is below (t+1) * 1e-30.
    """
    if t < 0:
        raise ModelError(f"exact_position_distribution: t must be >= 0, got {t}")
    start, masses, _, _ = position_law(window, z0, t)
    return ExactPmf(support=start + 2 * np.arange(masses.size), probabilities=masses)


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo crossing-time moments with standard errors."""

    mean: float
    mean_se: float
    variance: float
    variance_se: float
    n_samples: int


def mc_crossing_moments(
    window: EnvironmentWindow,
    k: int,
    n_samples: int,
    seed: int,
) -> MomentEstimate:
    """Monte Carlo witness: n_samples crossing times of edge k -> k+1.

    The crossing law is the hitting law of k + 1 from k, absorbed at
    ``window.lo`` and cut at _MC_MAX_STEPS steps, propagated only until its
    CDF passes the largest uniform; each sample inverts it with one uniform
    (``_invert_law``).  The moments are sums over the law's steps weighted by
    the sample counts; the variance standard error uses the fourth central
    moment.
    """
    if n_samples < 2:
        raise ModelError(f"mc_crossing_moments: n_samples must be >= 2, got {n_samples}")
    if k < window.lo + 1 or k + 1 > window.hi:
        raise WindowTooSmallError(f"edge {k} -> {k + 1} not inside window")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
    u = rng.random(n_samples)
    _, masses, absorbed, _, pmf = _propagate(window, k, _MC_MAX_STEPS, -window.lo, k + 1,
                                             float(u.max()))
    counts = np.bincount(_invert_law(pmf, absorbed, float(masses.sum()), u, n_samples, -window.lo))
    steps = np.arange(counts.size)
    mean = float(counts @ steps) / n_samples
    centered = steps - mean
    sq = centered * centered
    var = float(counts @ sq) / (n_samples - 1)
    m4 = float(counts @ (sq * sq)) / n_samples
    return MomentEstimate(
        mean=mean,
        mean_se=math.sqrt(var / n_samples),
        variance=var,
        variance_se=math.sqrt(max(m4 - var**2, 0.0) / n_samples),
        n_samples=n_samples,
    )
