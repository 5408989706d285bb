import inspect
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from rwre.analytics import MomentProfile, site_mean, site_variance
from rwre.environment import (
    Constant,
    EnvironmentWindow,
    IidDiscrete,
    QuasiPeriodic,
    realize,
    suggested_burn_in,
    suggested_left_guard,
)
from rwre.errors import LeftGuardBreachError, ModelError, WindowTooSmallError
from rwre.oracle import (
    LAW_EPS,
    FiniteChainSolution,
    TRIM_EVERY,
    _propagate,
    exact_position_distribution,
    expected_hitting_times,
    forcing_terms,
    hitting_law,
    hitting_time_variances,
    mc_crossing_moments,
    position_law,
    solve_finite_chain,
)

SLOW = IidDiscrete(atoms=((0.75, 0.5), (0.45, 0.5)))  # mu = 8, heavy crossing tails
HITTING_LAWS = {
    "two-point": IidDiscrete(atoms=((0.8, 0.5), (0.6, 0.5))),
    "golden": QuasiPeriodic(alpha=(5.0**0.5 - 1.0) / 2.0, omega0=0.0, coeffs=(0.7, 0.1)),
    "slow": SLOW,
}


def banded_reference(window, a, n, f):
    """Independent route: assemble the tridiagonal system and hand it to LAPACK."""
    size = n - a - 1  # unknowns at interior sites a+1..n-1
    p = window.p[a + 1 - window.lo : n - window.lo]
    q = 1.0 - p
    ab = np.zeros((3, size))
    ab[1, :] = 1.0
    ab[0, 1:] = -p[:-1]   # superdiagonal: -p_k h_{k+1}
    ab[2, :-1] = -q[1:]   # subdiagonal:   -q_k h_{k-1}
    h = solve_banded((1, 1), ab, np.asarray(f, dtype=float))
    return np.concatenate([[0.0], h, [0.0]])


def brute_force_law(window, z0, t, left_guard=None):
    """Reference O(t^2) propagation on the full grid [z0 - t, z0 + t].

    Returns the probabilities on that grid and the mass absorbed at
    -left_guard (if any).
    """
    size = 2 * t + 1
    probs = np.zeros(size)
    probs[t] = 1.0  # index i <-> position z0 - t + i
    p = window.p[z0 - t - window.lo : z0 + t - window.lo + 1]
    guard = None if left_guard is None or -left_guard < z0 - t else -left_guard - (z0 - t)
    absorbed = 0.0
    for _ in range(t):
        nxt = np.zeros(size)
        nxt[1:] += probs[:-1] * p[:-1]
        nxt[:-1] += probs[1:] * (1.0 - p[1:])
        if guard is not None:
            absorbed += nxt[guard]
            nxt[guard] = 0.0
        probs = nxt
    return probs, absorbed


def lockstep_positions(window, z0, t, n_replicas, seed):
    """Reference sampler: n_replicas walkers stepped together, one uniform each per step."""
    rng = np.random.default_rng(seed)
    x = np.full(n_replicas, z0, dtype=np.int64)
    for _ in range(t):
        u = rng.random(n_replicas)
        x += np.where(u < window.p[x - window.lo], 1, -1)
    return x


def stepped_solve(window, a, n, f_values):
    """Reference: ``solve_finite_chain`` as it ran before the block scan, its
    argument checks left out: one scalar forward sweep and one back
    substitution over memoryviews, and the residual, verbatim."""
    f = np.asarray(f_values, dtype=np.float64)
    size = n - a + 1
    p = window.p[a - window.lo : n - window.lo + 1]
    h = np.zeros(size)
    phi = np.zeros(size)
    pv, fv, hv, phiv = memoryview(p), memoryview(f), memoryview(h), memoryview(phi)
    phi_k = d_k = 0.0
    for idx in range(1, size - 1):  # interior sites a+1..n-1
        q_k = 1.0 - pv[idx]
        den = 1.0 - q_k * phi_k
        phi_k = phiv[idx] = pv[idx] / den
        d_k = hv[idx] = (q_k * d_k + fv[idx - 1]) / den
    h_k = 0.0
    for idx in range(size - 2, 0, -1):
        h_k = hv[idx] = phiv[idx] * h_k + hv[idx]
    interior = slice(1, size - 1)
    q = 1.0 - p
    residual = float(
        np.max(np.abs(h[interior] - (p[interior] * h[2:] + q[interior] * h[:-2] + f)))
    ) if size > 2 else 0.0
    return FiniteChainSolution(a=a, n=n, h=h, residual=residual)


def assert_close_to_references(window, a, n, f):
    """``solve_finite_chain`` agrees with the scalar sweep and with LAPACK to
    1e-12 relative at every interior site; returns its solution."""
    sol = solve_finite_chain(window, a, n, f)
    refs = [stepped_solve(window, a, n, f).h]
    if n - a > 1:
        refs.append(banded_reference(window, a, n, f))
    assert sol.h[0] == sol.h[-1] == 0.0
    for ref in refs:
        gap = np.abs(sol.h[1:-1] - ref[1:-1])
        assert np.all(gap <= 1e-12 * np.abs(ref[1:-1]))
    return sol


class TestSolveFiniteChain:
    def test_zero_forcing(self):
        w = realize(Constant(0.75), -50, 20, seed=0)
        sol = solve_finite_chain(w, -10, 10, np.zeros(19))
        assert np.allclose(sol.h, 0.0)

    def test_constant_unit_forcing(self):
        w = realize(Constant(0.75), -60, 20, seed=0)
        sol = solve_finite_chain(w, -40, 1, np.ones(40))
        # expected crossing time of 0 -> 1; the -40 boundary contributes ~ (1/3)^40
        assert sol.value(0) == pytest.approx(2.0, abs=1e-8)

    def test_two_site_hand_solve(self):
        w = realize(Constant(0.5), -5, 5, seed=0)
        sol = solve_finite_chain(w, -1, 2, np.ones(2))
        assert sol.value(0) == pytest.approx(2.0, abs=1e-12)
        assert sol.value(1) == pytest.approx(2.0, abs=1e-12)

    def test_residual_and_banded_agreement(self, two_point):
        for seed in range(5):
            w = realize(two_point, -60, 40, seed=seed)
            rng = np.random.default_rng(seed)
            f = rng.uniform(0.0, 3.0, size=49)
            sol = solve_finite_chain(w, -20, 30, f)
            assert sol.residual <= 1e-10
            ref = banded_reference(w, -20, 30, f)
            assert np.allclose(sol.h, ref, atol=1e-9)
        # a long chain: e (f = 1) and v (forcing derived from e), site by site
        for seed in range(3):
            w = realize(two_point, -2100, 20000, seed=seed)
            e = expected_hitting_times(w, -2000, 20000)
            v = hitting_time_variances(w, -2000, 20000)
            for sol, f in ((e, np.ones(21999)), (v, forcing_terms(w, e)["derived"])):
                ref = banded_reference(w, -2000, 20000, f)
                gap = np.abs(sol.h[1:-1] - ref[1:-1])
                assert np.all(gap <= 1e-12 * np.abs(ref[1:-1]))

    @pytest.mark.parametrize("interior", [0, 1, 2, 63, 64, 65, 129, 16385])
    def test_block_scan_matches_references(self, two_point, interior):
        # around one block (64 sites) and one chunk (16384) of the scan
        w = realize(two_point, -20, interior + 20, seed=interior)
        f = np.random.default_rng(interior).uniform(0.0, 3.0, size=interior)
        sol = assert_close_to_references(w, -5, interior - 4, f)
        if interior <= 64:  # one block is the scalar sweep, bit for bit
            ref = stepped_solve(w, -5, interior - 4, f)
            assert sol.h.tobytes() == ref.h.tobytes()
            assert sol.residual == ref.residual

    @pytest.mark.parametrize("model,a,n", [
        (Constant(0.3), -10, 3000),
        (IidDiscrete(atoms=((0.45, 0.5), (0.3, 0.5))), -10, 5000),
    ], ids=["constant-0.3", "iid-left"])
    def test_left_drift_chains(self, model, a, n):
        # the walk drifts to the left end: e and v grow toward n, and products
        # of q/p over the chain overflow
        w = realize(model, a - 5, n + 5, seed=3)
        e = assert_close_to_references(w, a, n, np.ones(n - a - 1))
        assert_close_to_references(w, a, n, forcing_terms(w, e)["derived"])

    def test_zero_drift_closed_form(self):
        # p = 1/2: phi_k = (k - a)/(k - a + 1) approaches 1 only like 1/k, and
        # e(x) = (x - a)(n - x); a block start carried in phi itself instead of
        # 1 - phi was 1e-11 off here
        a, n = -1000, 1000
        w = realize(Constant(0.5), a, n, seed=0)
        e = expected_hitting_times(w, a, n)
        x = np.arange(a + 1, n)
        exact = (x - a) * (n - x).astype(float)
        assert np.all(np.abs(e.h[1:-1] - exact) <= 1e-12 * exact)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="the reference needs an extended-precision long double")
    @pytest.mark.parametrize("p,a,n", [
        (0.3, -1000, 1000), (0.45, -2000, 1000), (0.6, -1000, 3000), (0.75, -3000, 3000),
    ])
    def test_drift_closed_form(self, p, a, n):
        # gambler's ruin: e(x) = (x - a)/(q - p) - (n - a)/(q - p) (1 - r^(x - a))/(1 - r^(n - a))
        # with r = q/p, in long double; LAPACK shares the sweep's rounding, so
        # it is no yardstick for accuracy
        w = realize(Constant(p), a, n, seed=0)
        e = expected_hitting_times(w, a, n)
        pl = np.longdouble(p)
        ql = 1 - pl
        z = np.arange(1, n - a, dtype=np.longdouble)
        exact = (z - (n - a) * (1 - (ql / pl) ** z) / (1 - (ql / pl) ** (n - a))) / (ql - pl)
        assert np.all(np.abs(e.h[1:-1] - exact) <= 1e-12 * exact)

    def test_variance_peak_memory(self, two_point):
        # the library chain of the analysis benchmark: e, the forcing, v and
        # phi are the only full-length arrays, so the peak stays under six
        a, n = -2000, 200_000
        w = realize(two_point, a, n, seed=1)
        tracemalloc.start()
        try:
            hitting_time_variances(w, a, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * (n - a + 1)

    def test_argument_validation(self):
        w = realize(Constant(0.75), -10, 10, seed=0)
        with pytest.raises(ModelError):
            solve_finite_chain(w, 5, 5, np.zeros(0))
        with pytest.raises(WindowTooSmallError):
            solve_finite_chain(w, -20, 5, np.zeros(24))
        with pytest.raises(ModelError):
            solve_finite_chain(w, -5, 5, np.zeros(3))


class TestExpectedHitting:
    def test_constant_increments(self):
        w = realize(Constant(0.75), -60, 20, seed=0)
        e = expected_hitting_times(w, -40, 10)
        inc = e.increments()
        for k in range(-10, 10):
            assert inc[k + 40] == pytest.approx(2.0, abs=1e-8)

    def test_constant_90(self):
        w = realize(Constant(0.9), -60, 20, seed=0)
        inc = expected_hitting_times(w, -40, 10).increments()
        assert inc[35] == pytest.approx(1.25, abs=1e-8)

    def test_strictly_decreasing(self, two_point):
        w = realize(two_point, -60, 20, seed=3)
        e = expected_hitting_times(w, -40, 10)
        h = e.h[(-10 + 40):]
        assert np.all(np.diff(h) < 0.0)

    def test_boundary_cauchy_property(self, two_point):
        w = realize(two_point, -60, 20, seed=4)
        e10 = expected_hitting_times(w, -10, 10)
        e20 = expected_hitting_times(w, -20, 10)
        e40 = expected_hitting_times(w, -40, 10)
        gap1 = abs(e20.value(0) - e10.value(0))
        gap2 = abs(e40.value(0) - e20.value(0))
        assert gap2 <= gap1 * 1e-2 + 1e-13


class TestVarianceHitting:
    def test_constant_increments(self):
        w = realize(Constant(0.75), -60, 20, seed=0)
        inc = hitting_time_variances(w, -40, 10).increments()
        for k in range(-10, 10):
            assert inc[k + 40] == pytest.approx(6.0, abs=1e-7)

    def test_constant_90(self):
        w = realize(Constant(0.9), -60, 20, seed=0)
        inc = hitting_time_variances(w, -40, 10).increments()
        assert inc[35] == pytest.approx(0.703125, abs=1e-7)

    def test_forcing_nonnegative_and_swap_detected(self, two_point):
        w = realize(two_point, -60, 20, seed=6)
        e = expected_hitting_times(w, -40, 10)
        audit = forcing_terms(w, e)
        assert np.all(audit["derived"] >= 0.0)
        # the consistent rewrite matches the e-derived forcing away from the
        # boundary; the swapped transcription is far off
        assert audit["max_gap_mean_form"] <= 1e-6
        assert audit["max_gap_swapped"] > 1.0

    def test_series_agreement(self, two_point):
        w = realize(two_point, -160, 40, seed=8)
        e_inc = expected_hitting_times(w, -40, 20).increments()
        v_inc = hitting_time_variances(w, -40, 20).increments()
        for k in range(0, 20):
            assert site_mean(w, k).mu == pytest.approx(e_inc[k + 40], abs=1e-8)
            assert site_variance(w, k).sigma2 == pytest.approx(v_inc[k + 40], abs=1e-7)


class TestExactPmf:
    def test_t2(self):
        w = realize(Constant(0.75), -10, 10, seed=0)
        pmf = exact_position_distribution(w, 0, 2)
        table = dict(zip(pmf.support.tolist(), pmf.probabilities.tolist()))
        assert table[2] == pytest.approx(0.5625, abs=1e-15)
        assert table[0] == pytest.approx(0.375, abs=1e-15)
        assert table[-2] == pytest.approx(0.0625, abs=1e-15)

    def test_t3(self):
        w = realize(Constant(0.75), -10, 10, seed=0)
        pmf = exact_position_distribution(w, 0, 3)
        table = dict(zip(pmf.support.tolist(), pmf.probabilities.tolist()))
        assert table[3] == pytest.approx(0.421875, abs=1e-15)
        assert table[1] == pytest.approx(0.421875, abs=1e-15)
        assert table[-1] == pytest.approx(0.140625, abs=1e-15)
        assert table[-3] == pytest.approx(0.015625, abs=1e-15)

    def test_mean_is_drift(self):
        w = realize(Constant(0.75), -15, 15, seed=0)
        pmf = exact_position_distribution(w, 0, 10)
        assert pmf.mean() == pytest.approx(10 * 0.5, abs=1e-12)

    def test_normalization_and_parity(self, two_point):
        w = realize(two_point, -60, 60, seed=2)
        pmf = exact_position_distribution(w, 0, 51)
        assert pmf.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pmf.probabilities >= 0.0)
        assert np.all((pmf.support + 51) % 2 == 0)

    def test_against_monte_carlo(self, two_point):
        w = realize(two_point, -80, 60, seed=2)
        pmf = exact_position_distribution(w, 0, 50)
        xs = lockstep_positions(w, 0, 50, 100_000, seed=31)
        positions, counts = np.unique(xs, return_counts=True)
        empirical = dict(zip(positions.tolist(), (counts / counts.sum()).tolist()))
        exact = dict(zip(pmf.support.tolist(), pmf.probabilities.tolist()))
        tv = 0.5 * sum(abs(empirical.get(x, 0.0) - exact.get(x, 0.0)) for x in empirical.keys() | exact)
        assert tv <= 0.02

    def test_coverage_error(self):
        w = realize(Constant(0.75), -5, 5, seed=0)
        with pytest.raises(WindowTooSmallError):
            exact_position_distribution(w, 0, 6)


class TestPositionLaw:
    @pytest.mark.parametrize("t", [400, 2000])
    @pytest.mark.parametrize("left_guard", [None, 5])
    @pytest.mark.parametrize("law", ["two_point", "golden_qp", "slow"])
    def test_against_brute_force(self, request, law, left_guard, t):
        model = SLOW if law == "slow" else request.getfixturevalue(law)
        w = realize(model, -t - 1, t + 1, seed=7)
        start, masses, absorbed, dropped = position_law(w, 0, t, left_guard)
        ref, ref_absorbed = brute_force_law(w, 0, t, left_guard)
        dense = np.zeros(2 * t + 1)
        dense[start + t + 2 * np.arange(masses.size)] = masses
        assert (start + t) % 2 == 0
        assert np.max(np.abs(dense - ref)) <= 1e-14
        assert abs(absorbed - ref_absorbed) <= 1e-14
        assert 0.0 <= dropped <= (t + 1) * LAW_EPS
        assert abs(masses.sum() + absorbed + dropped - 1.0) <= 1e-14
        assert masses[0] >= LAW_EPS and masses[-1] >= LAW_EPS
        if left_guard is not None:
            assert start > -left_guard and absorbed > 0.0

    def test_all_mass_absorbed(self):
        w = EnvironmentWindow.from_values([1e-40] * 30, lo=-10)
        start, masses, absorbed, dropped = position_law(w, 0, 12, left_guard=3)
        assert masses.size == 0
        assert absorbed == pytest.approx(1.0, abs=1e-15)
        assert dropped <= 13 * LAW_EPS

    def test_guard_coverage_error(self):
        w = realize(Constant(0.75), -5, 50, seed=0)
        position_law(w, 0, 40, left_guard=5)
        with pytest.raises(WindowTooSmallError):
            position_law(w, 0, 40, left_guard=6)
        with pytest.raises(WindowTooSmallError):
            position_law(w, 0, 51, left_guard=5)


def brute_force_hitting_pmf(window, n, left_guard, steps):
    """Reference: P(T(n) = s) for s <= steps on the full grid [-left_guard, n]."""
    a = -left_guard
    p = window.p[a - window.lo : n - window.lo + 1]
    probs = np.zeros(n - a + 1)
    probs[-a] = 1.0
    pmf = [0.0]
    for _ in range(steps):
        nxt = np.zeros_like(probs)
        nxt[1:] += probs[:-1] * p[:-1]
        nxt[:-1] += probs[1:] * (1.0 - p[1:])
        nxt[0] = 0.0
        pmf.append(nxt[-1])
        nxt[-1] = 0.0
        probs = nxt
    return np.array(pmf)


def stepped_propagate(window: EnvironmentWindow, z0: int, steps: int, left_guard: int | None = None,
                      right: int | None = None, target: float = math.inf):
    """Reference: ``oracle._propagate`` as it ran before the contiguous parity
    planes, the reused scratch and the Python-float edge cells, verbatim."""
    guard = None if left_guard is None else -left_guard
    left = z0 - steps if guard is None else guard
    top = z0 + steps if right is None else right
    if left < window.lo or top > window.hi:
        raise WindowTooSmallError(f"window [{window.lo}, {window.hi}] must cover [{left}, {top}]")
    p = window.p
    lo = window.lo
    width = (min(top, z0 + steps) - max(left, z0 - steps)) // 2 + 2  # the widest band
    buf = np.zeros(2 * width + TRIM_EVERY + 2)
    buf[0] = 1.0
    a, b, start = 0, 1, z0
    absorbed = dropped = total = 0.0
    hits = [0.0]
    for s in range(1, steps + 1):
        if b == buf.size:  # slide the band back to the front of the buffer
            buf[: b - a] = buf[a:b]
            buf[b - a :] = 0.0
            a, b = 0, b - a
        band = buf[a:b]
        moved = band * p[start - lo :: 2][: b - a]
        band -= moved
        buf[a + 1 : b + 1] += moved
        b += 1
        start -= 1
        if start == guard:
            absorbed += buf[a]
            buf[a] = 0.0
            a += 1
            start += 2
        if start + 2 * (b - 1 - a) == right:
            b -= 1
            hits.append(buf[b])
            buf[b] = 0.0
            total += hits[-1]
            if total > target:
                break
        else:
            hits.append(0.0)
        if s % TRIM_EVERY == 0 or s == steps or a == b:
            live = np.flatnonzero(buf[a:b] >= LAW_EPS)
            i, j = (live[0], live[-1] + 1) if live.size else (b - a, b - a)
            dropped += float(buf[a : a + i].sum() + buf[a + j : b].sum())
            buf[a + j : b] = 0.0
            a, b, start = a + i, a + j, start + 2 * i
            if a == b:
                break
    return start, buf[a:b].copy(), float(absorbed), dropped, np.array(hits)

def slides(window, *args, kernel=stepped_propagate) -> int:
    """How often ``kernel(window, *args)`` slid its band back to the front of
    its buffer, counted by tracing the slide's first line."""
    code = kernel.__code__
    lines, first = inspect.getsourcelines(kernel)
    slide = first + 1 + next(i for i, text in enumerate(lines) if "slide the band back" in text)
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if frame.f_code is not code:
            return None
        count += event == "line" and frame.f_lineno == slide
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        kernel(window, *args)
    finally:
        sys.settrace(previous)
    return count


def assert_same_kernel(window, *args):
    """``_propagate`` and the reference give the same (start, masses, absorbed,
    dropped, hits), bit for bit; returns the reference's."""
    got, ref = _propagate(window, *args), stepped_propagate(window, *args)
    assert got[0] == ref[0]
    for g, r in zip(got[1:], ref[1:]):
        if isinstance(r, np.ndarray):
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()
        else:
            assert type(g) is float and g.hex() == r.hex()
    return ref


@st.composite
def kernel_inputs(draw):
    """A two-atom window and kernel arguments: z0 strictly between the guard
    and the right edge, each of which may be absent."""
    left_guard = draw(st.none() | st.integers(1, 30))
    right = draw(st.none() | st.integers(1, 30))
    z0 = draw(st.integers(-10 if left_guard is None else 1 - left_guard,
                          10 if right is None else right - 1))
    steps = draw(st.integers(0, 400))
    target = draw(st.just(math.inf) | st.floats(0.0, 1.0))
    left = z0 - steps if left_guard is None else -left_guard
    top = z0 + steps if right is None else right
    atoms = ((draw(st.floats(0.01, 0.99)), 0.5), (draw(st.sampled_from([1e-40, 0.3, 0.6, 0.95])), 0.5))
    window = realize(IidDiscrete(atoms=atoms), left - draw(st.integers(0, 3)),
                     top + draw(st.integers(0, 3)), draw(st.integers(0, 2**32)))
    return window, (z0, steps, left_guard, right, target)


class TestPropagationKernel:
    """The kernel against ``stepped_propagate``, the loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(kernel_inputs())
    def test_matches_reference(self, inputs):
        window, args = inputs
        assert_same_kernel(window, *args)

    def test_every_stop_and_the_buffer_slide(self):
        w = realize(SLOW, -800, 12_000, seed=3)
        # no edges: runs out of steps
        _, masses, absorbed, _, hits = assert_same_kernel(w, 3, 700)
        assert masses.size and absorbed == 0.0 and hits.size == 701 and not hits.any()
        # a guard, no right edge
        _, masses, absorbed, _, hits = assert_same_kernel(w, 0, 700, 5)
        assert masses.size and absorbed > 0.0 and hits.size == 701
        # a right edge, no guard
        _, masses, absorbed, _, hits = assert_same_kernel(w, 0, 700, None, 20)
        assert masses.size and absorbed == 0.0 and hits.sum() > 0.0
        # both edges and no target: the band empties, after sliding back
        args = (0, 10**6, 30, 40)
        _, masses, absorbed, _, hits = assert_same_kernel(w, *args)
        assert masses.size == 0 and absorbed > 0.0 and hits.size < 10**6
        assert slides(w, *args) > 0
        # a finite target stops at the first step whose CDF passes it
        _, masses, _, _, hits = assert_same_kernel(w, 0, 10**6, 30, 40, 0.5)
        cdf = np.cumsum(hits)
        assert masses.size and cdf[-2] <= 0.5 < cdf[-1]
        # a step cap with mass still alive
        _, masses, _, _, hits = assert_same_kernel(w, 0, 400, 30, 40)
        assert masses.size and hits.size == 401
        # every step to the left: the guard absorbs the whole band
        left = EnvironmentWindow.from_values([1e-40] * 40, lo=-20)
        _, masses, absorbed, _, _ = assert_same_kernel(left, 0, 30, 5, 10)
        assert masses.size == 0 and absorbed == 1.0

    def test_start_must_lie_right_of_the_guard(self):
        w = realize(SLOW, -80, 100, seed=3)
        for z0 in (-5, -6):
            with pytest.raises(ModelError):
                position_law(w, z0, 10, left_guard=5)


class TestKernelSegmentEdges:
    """The kernel against ``stepped_propagate`` where its 16-step segments
    begin and end, and where the band empties or slides mid-run."""

    @pytest.mark.parametrize("edges", [(None, None), (40, None), (None, 5), (3, 4)])
    @pytest.mark.parametrize("steps", [0, 1, TRIM_EVERY - 1, TRIM_EVERY, TRIM_EVERY + 1,
                                       2 * TRIM_EVERY + 1])
    def test_segment_edges(self, steps, edges):
        w = realize(SLOW, -60, 60, seed=5)
        _, masses, _, _, hits = assert_same_kernel(w, 0, steps, *edges)
        assert masses.size and hits.size == steps + 1

    @pytest.mark.parametrize("step", [TRIM_EVERY, TRIM_EVERY + 1])
    def test_guard_absorbs_first_on_a_segment_edge(self, step):
        # from 0 the guard at -step is reached first at that step: the last
        # step of the first segment, or the first step of the second
        w = EnvironmentWindow.from_values([0.5] * 120, lo=-60)
        assert assert_same_kernel(w, 0, step - 1, step)[2] == 0.0
        assert assert_same_kernel(w, 0, step, step)[2] > 0.0
        assert assert_same_kernel(w, 0, step + 3, step, 50)[2] > 0.0

    @pytest.mark.parametrize("step", [2 * TRIM_EVERY, 2 * TRIM_EVERY + 1])
    def test_target_stops_on_a_segment_edge(self, step):
        # the target is the CDF one step before ``step``, which absorbs mass
        w = realize(SLOW, -60, 60, seed=5)
        right = 2 - step % 2  # hits fall on steps of the parity of ``right``
        hits = stepped_propagate(w, 0, 200, 30, right)[4]
        target = float(np.cumsum(hits)[step - 1])
        assert hits[step] > 0.0
        assert assert_same_kernel(w, 0, 200, 30, right, target)[4].size == step + 1

    def test_band_empties_mid_segment(self):
        # one site between the guard and the right edge: both absorb at step 1
        w = realize(SLOW, -60, 60, seed=5)
        _, masses, absorbed, dropped, hits = assert_same_kernel(w, 0, 40, 1, 1)
        assert masses.size == 0 and hits.size == 2 and dropped == 0.0
        assert absorbed + hits[1] == 1.0

    def test_buffer_slides_mid_run(self):
        w = realize(SLOW, -800, 12_000, seed=3)
        args = (0, 20_000, 30, 40)
        _, masses, _, _, hits = assert_same_kernel(w, *args)
        assert masses.size and hits.size == 20_001
        assert slides(w, *args) > 0 and slides(w, *args, kernel=_propagate) > 0


class TestHittingLaw:
    @staticmethod
    def _window(model, n):
        guard = suggested_left_guard(model)
        return realize(model, -max(guard + 2, suggested_burn_in(model)), n + 1, seed=5), guard

    @pytest.mark.parametrize("law", sorted(HITTING_LAWS))
    def test_moments_match_profile(self, law):
        # the propagation and the moment recursions are independent routes
        n = 1000
        w, guard = self._window(HITTING_LAWS[law], n)
        pmf, absorbed, alive, dropped = hitting_law(w, n, guard, 10**6)
        steps = np.arange(pmf.size)
        assert alive == 0.0 and 0.0 <= dropped <= pmf.size * LAW_EPS
        assert abs(pmf.sum() + absorbed + alive + dropped - 1.0) <= 1e-12
        assert np.all(pmf[(steps - n) % 2 == 1] == 0.0) and np.all(pmf[:n] == 0.0)
        mean = np.dot(steps, pmf) / pmf.sum()
        var = np.dot((steps - mean) ** 2, pmf) / pmf.sum()
        profile = MomentProfile(w)
        assert mean == pytest.approx(profile.hitting_centering(n), rel=1e-12)
        assert var == pytest.approx(float(profile.sigma2_array(n).sum()), rel=1e-12)

    @pytest.mark.parametrize("law", sorted(HITTING_LAWS))
    def test_target_stops_at_a_prefix(self, law):
        # propagation stops at the first step whose CDF exceeds the target,
        # and every step before it is the full law's, bit for bit
        n = 1000
        w, guard = self._window(HITTING_LAWS[law], n)
        full, _, _, _ = hitting_law(w, n, guard, 10**6)
        for target in (0.25, 0.9, 1.0 - 1e-6):
            pmf, absorbed, alive, dropped = hitting_law(w, n, guard, 10**6, target=target)
            cdf = np.cumsum(pmf)
            assert pmf.size < full.size and np.array_equal(pmf, full[: pmf.size])
            assert cdf[-2] <= target < cdf[-1]
            assert alive > 0.0 and abs(pmf.sum() + absorbed + alive + dropped - 1.0) <= 1e-12

    def test_against_brute_force_with_step_cap(self):
        n, guard, cap = 40, 12, 400
        w = realize(SLOW, -guard, n, seed=3)
        pmf, absorbed, alive, dropped = hitting_law(w, n, guard, cap)
        assert pmf.size == cap + 1 and alive > 0.0 and absorbed > 0.0
        assert np.max(np.abs(pmf - brute_force_hitting_pmf(w, n, guard, cap))) <= 1e-15
        assert abs(pmf.sum() + absorbed + alive + dropped - 1.0) <= 1e-12

    def test_first_atoms_exact(self):
        # T(1) = 1 with p_0, T(1) = 3 along 0 -> -1 -> 0 -> 1
        mixed = EnvironmentWindow.from_values([0.9] * 99 + [0.5, 0.75] + [0.9] * 10, lo=-100)
        p_m1, p_0 = 0.5, 0.75
        pmf, _, _, _ = hitting_law(mixed, 1, 80, 10**6)
        assert pmf[0] == 0.0 and pmf[1] == p_0
        assert pmf[2] == 0.0 and pmf[3] == (1.0 - p_0) * p_m1 * p_0

    def test_coverage_errors(self):
        w = realize(Constant(0.75), -5, 50, seed=0)
        hitting_law(w, 50, 5, 1000)
        with pytest.raises(WindowTooSmallError):
            hitting_law(w, 50, 6, 1000)
        with pytest.raises(WindowTooSmallError):
            hitting_law(w, 51, 5, 1000)
        with pytest.raises(ModelError):
            hitting_law(w, 0, 5, 1000)


class TestMcCrossingMoments:
    def test_constant_75(self):
        w = realize(Constant(0.75), -120, 5, seed=0)
        est = mc_crossing_moments(w, 0, 200_000, seed=12)
        assert est.mean == pytest.approx(2.0, abs=4 * est.mean_se)
        assert est.variance == pytest.approx(6.0, abs=4 * est.variance_se)

    def test_constant_90(self):
        w = realize(Constant(0.9), -120, 5, seed=0)
        est = mc_crossing_moments(w, 0, 100_000, seed=12)
        assert est.mean == pytest.approx(1.25, abs=4 * est.mean_se)
        assert est.variance == pytest.approx(0.703125, abs=4 * est.variance_se)

    def test_modified_neighbor_matches_solver(self):
        # deterministic window: constant 0.75 with a slow site just left of the
        # crossing edge; Monte Carlo must match the finite-chain increment
        p = np.full(120, 0.75)
        p[79] = 0.6  # site k-1 for the crossing at k = 80 - 100 = -20 ... keep absolute
        w = EnvironmentWindow.from_values(p, lo=-100)
        k = -20  # p[k-1] is the modified site
        e = expected_hitting_times(w, -90, 0)
        v = hitting_time_variances(w, -90, 0)
        mu_oracle = e.increments()[k + 90]
        var_oracle = v.increments()[k + 90]
        est = mc_crossing_moments(w, k, 400_000, seed=9)
        assert est.mean == pytest.approx(mu_oracle, abs=3 * est.mean_se)
        assert est.variance == pytest.approx(var_oracle, abs=3 * est.variance_se)

    def test_moments_are_sample_formulas(self, two_point):
        # the witness's sample is the law of T(1) from 0, guarded at window.lo,
        # inverted with its uniforms; its count-weighted moments are numpy's
        # sample formulas on that sample
        w = realize(two_point, -150, 5, seed=1)
        n, seed = 50_000, 31
        est = mc_crossing_moments(w, 0, n, seed)
        u = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,))).random(n)
        pmf, _, _, _ = hitting_law(w, 1, -w.lo, 10**7, target=float(u.max()))
        sample = np.searchsorted(np.cumsum(pmf), u, side="right")
        var = sample.var(ddof=1)
        m4 = np.mean((sample - sample.mean()) ** 4)
        expected = (sample.mean(), sample.std(ddof=1) / math.sqrt(n), var,
                    math.sqrt((m4 - var**2) / n))
        got = (est.mean, est.mean_se, est.variance, est.variance_se)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert est.n_samples == n

    def test_same_seed_same_estimate(self, two_point):
        w = realize(two_point, -150, 5, seed=1)
        assert mc_crossing_moments(w, 0, 20_000, 5) == mc_crossing_moments(w, 0, 20_000, 5)

    def test_left_guard_breach(self):
        # the walker steps from k onto window.lo with probability 1/4
        w = realize(Constant(0.75), -1, 5, seed=0)
        with pytest.raises(LeftGuardBreachError):
            mc_crossing_moments(w, 0, 1000, seed=1)

    def test_edge_at_window_end(self):
        w = realize(Constant(0.75), -10, 5, seed=0)
        for k in (w.lo, w.hi):
            with pytest.raises(WindowTooSmallError):
                mc_crossing_moments(w, k, 1000, seed=1)

    def test_sample_count_below_two(self):
        w = realize(Constant(0.75), -120, 5, seed=0)
        for n_samples in (-1, 0, 1):
            with pytest.raises(ModelError):
                mc_crossing_moments(w, 0, n_samples, seed=1)
