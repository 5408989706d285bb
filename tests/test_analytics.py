import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre import analytics
from rwre.analytics import (
    _SERIES_TOL,
    MomentProfile,
    SiteMoments,
    _burn_start,
    _decay_ratio,
    _tail_failure,
    closed_form_variance,
    closed_form_variance_printed,
    reference_crossing_mean,
    signed_range_sum,
    site_mean,
    site_variance,
    summary,
)
from rwre.environment import (
    Constant,
    IidDiscrete,
    IidParametric,
    QuasiPeriodic,
    realize,
    suggested_burn_in,
)
from rwre.errors import (
    IndexRangeError,
    NonSummableError,
    NotCltEligibleError,
    WindowTooSmallError,
)
from rwre.harness import ExperimentConfig, fluctuation_diagnostics


def constant_window(p=0.75, lo=-200, hi=600, seed=0):
    return realize(Constant(p), lo, hi, seed)


def constant_mu(p):
    # geometric series in the odds ratio: (1 + A) / (1 - A) = 1 / (2p - 1)
    return 1.0 / (2.0 * p - 1.0)


def constant_sigma2(p):
    # second-moment recursion for the crossing time of a homogeneous walk:
    # E tau^2 = p + q E(1 + tau' + tau'')^2 gives Var = (1 - (p-q)^2)/(p-q)^3
    d = 2.0 * p - 1.0
    return (1.0 - d * d) / d**3


def reference_site_mean(window, k):
    """Reference: ``site_mean`` as it read the window through ``window.odds``."""
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


def reference_site_variance(window, k):
    """Reference: ``site_variance`` as it read the window through
    ``window.odds`` and ``window.site`` and warmed up in a numpy array."""
    mean_part = reference_site_mean(window, k)
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


def moments_hex(moments):
    return tuple(None if v is None else float(v).hex()
                 for v in (moments.odds, moments.mu, moments.mu_trunc_bound, moments.sigma2))


def outcome(fn, window, k):
    try:
        return moments_hex(fn(window, k))
    except (NonSummableError, WindowTooSmallError) as exc:
        return type(exc), str(exc)


SERIES_LAWS = {
    "two-point": IidDiscrete(((0.8, 0.5), (0.6, 0.5))),
    "golden": QuasiPeriodic(alpha=(math.sqrt(5.0) - 1.0) / 2.0, omega0=0.0, coeffs=(0.7, 0.1)),
    "slow": IidDiscrete(((0.75, 0.5), (0.45, 0.5))),
    "beta": IidParametric(family="beta", p_lo=0.55, p_hi=0.95, params=(("a", 2.0), ("b", 2.0))),
}


class TestSeriesRoute:
    @pytest.mark.parametrize("name", sorted(SERIES_LAWS))
    def test_matches_the_window_method_route(self, name):
        # every field bit for bit, and every tail failure with its message;
        # the short window's left sites run out of series
        law = SERIES_LAWS[name]
        for seed in (1, 2, 3):
            for lo, hi, step in ((-600, 400, 3), (-40, 60, 1)):
                w = realize(law, lo, hi, seed)
                for k in range(lo, hi + 1, step):
                    assert outcome(site_mean, w, k) == outcome(reference_site_mean, w, k)
                    assert outcome(site_variance, w, k) == outcome(reference_site_variance, w, k)

    def test_site_outside_window(self, two_point):
        w = realize(two_point, -40, 60, seed=1)
        for k in (-41, 61):
            assert outcome(site_mean, w, k) == outcome(reference_site_mean, w, k)


class TestSiteMean:
    def test_constant_75(self):
        sm = site_mean(constant_window(0.75), 0)
        assert sm.mu == pytest.approx(2.0, abs=1e-10)
        assert sm.mu >= 1.0

    def test_constant_90(self):
        sm = site_mean(constant_window(0.9), 10)
        assert sm.mu == pytest.approx(1.25, abs=1e-10)

    def test_recurrent_is_non_summable(self):
        with pytest.raises(NonSummableError):
            site_mean(constant_window(0.5), 0)

    def test_window_too_small(self, two_point):
        w = realize(two_point, -4, 10, seed=1)
        with pytest.raises(WindowTooSmallError):
            site_mean(w, 8)

    def test_series_recursion_agreement(self, two_point):
        w = realize(two_point, -120, 1000, seed=42)
        mu = MomentProfile(w).mu_array(1000)
        for k in range(0, 1000, 7):
            sm = site_mean(w, k)
            assert abs(sm.mu - mu[k]) <= 10.0 * sm.mu_trunc_bound

    def test_mu_lower_bound(self, two_point):
        w = realize(two_point, -120, 300, seed=3)
        for k in range(0, 300, 11):
            sm = site_mean(w, k)
            assert sm.mu >= 1.0 + 2.0 * sm.odds


class TestSiteVariance:
    def test_constant_75(self):
        sv = site_variance(constant_window(0.75), 0)
        assert sv.sigma2 == pytest.approx(6.0, abs=1e-10)

    def test_constant_90(self):
        sv = site_variance(constant_window(0.9), 0)
        assert sv.sigma2 == pytest.approx(0.703125, abs=1e-10)

    def test_recurrent_is_non_summable(self):
        with pytest.raises(NonSummableError):
            site_variance(constant_window(0.5), 0)

    def test_series_matches_one_step_identity(self, two_point):
        # the identity var_k = A_k (var_{k-1} + (mean_{k-1}+1)^2 / p_k) is
        # algebra on the series; both routes must agree numerically
        w = realize(two_point, -140, 400, seed=9)
        sg = MomentProfile(w).sigma2_array(400)
        for k in range(0, 400, 13):
            sv = site_variance(w, k)
            assert sv.sigma2 == pytest.approx(sg[k], rel=1e-9, abs=1e-9)
            assert sv.sigma2 >= 0.0


class TestProfile:
    def test_matches_site_functions(self, two_point):
        w = realize(two_point, -140, 500, seed=7)
        profile = MomentProfile(w)
        mu = profile.mu_array(400)
        sg = profile.sigma2_array(400)
        for k in (0, 1, 57, 200, 399):
            assert mu[k] == pytest.approx(site_mean(w, k).mu, rel=1e-10)
            assert sg[k] == pytest.approx(site_variance(w, k).sigma2, rel=1e-9)

    def test_window_exhaustion(self, two_point):
        w = realize(two_point, -140, 50, seed=7)
        profile = MomentProfile(w)
        with pytest.raises(WindowTooSmallError):
            profile.mu_array(200)
        assert profile.size == 51
        for read in (profile.mu_array, profile.sigma2_array, profile.hitting_centering):
            read(51)
            with pytest.raises(WindowTooSmallError):
                read(52)
        end = profile.hitting_centering(51)
        assert profile.hitting_centering(51.5) == end
        assert profile.implicit_center(np.nextafter(end, 0.0)) == 50
        for t in (end, end + 1.0):
            with pytest.raises(WindowTooSmallError):
                profile.implicit_center(t)

    def test_negative_arguments_raise(self, two_point):
        profile = MomentProfile(realize(two_point, -140, 50, seed=7))
        for read in (lambda: profile.mu_array(-1),
                     lambda: profile.sigma2_array(-1),
                     lambda: profile.hitting_centering(-1),
                     lambda: profile.hitting_centering(-0.5),
                     lambda: profile.implicit_center(-1e-9),
                     lambda: profile.explicit_center(-1.0, 2.0),
                     # NaN fails every comparison: t < 0 let it through
                     lambda: profile.hitting_centering(math.nan),
                     lambda: profile.implicit_center(math.nan),
                     lambda: profile.explicit_center(math.nan, 2.0)):
            with pytest.raises(IndexRangeError):
                read()

    @pytest.mark.parametrize("read", [
        lambda profile: profile.hitting_centering(math.inf),
        lambda profile: profile.explicit_center(math.inf, 2.0),
        lambda profile: profile.implicit_center(math.inf),
    ], ids=["hitting_centering", "explicit_center", "implicit_center"])
    def test_infinite_argument_exhausts_window(self, two_point, read):
        # math.floor(inf) overflows; every centering must report the window instead
        profile = MomentProfile(realize(two_point, -140, 50, seed=7))
        with pytest.raises(WindowTooSmallError):
            read(profile)

    def test_arrays_are_read_only(self, two_point):
        profile = MomentProfile(realize(two_point, -140, 50, seed=7))
        for arr in (profile.mu_array(10), profile.sigma2_array(10)):
            with pytest.raises(ValueError):
                arr[0] = 1.0


def loop_profile(window, n):
    """Reference: the sequential one-step recursions and Neumaier-compensated
    prefix sum that ``MomentProfile`` ran site by site before the block scan.

    Returns mu_k, sigma2_k for k < n and H(m) for m <= n.
    """
    start = _burn_start(window, 0)
    mu = 1.0
    var = 0.0
    for i in range(start + 1, 0):
        a = window.odds(i)
        inv_p = 1.0 / window.site(i)
        var = a * (var + (mu + 1.0) ** 2 * inv_p)
        mu = a * mu + inv_p
    mu_out = np.empty(n)
    sg_out = np.empty(n)
    prefix = np.zeros(n + 1)
    p = window.p
    s = 0.0
    c = 0.0
    for k in range(n):
        pk = p[k - window.lo]
        a = (1.0 - pk) / pk
        inv_p = 1.0 / pk
        var = a * (var + (mu + 1.0) ** 2 * inv_p)
        mu = a * mu + inv_p
        mu_out[k] = mu
        sg_out[k] = var
        t = s + mu
        if abs(s) >= mu:
            c += (s - t) + mu
        else:
            c += (mu - t) + s
        s = t
        prefix[k + 1] = s + c
    return mu_out, sg_out, prefix


SCAN_LAWS = {
    # the benchmark's four laws
    "two-point": IidDiscrete(((0.8, 0.5), (0.6, 0.5))),
    "golden": QuasiPeriodic(alpha=(math.sqrt(5.0) - 1.0) / 2.0, omega0=0.0, coeffs=(0.7, 0.1)),
    "slow": IidDiscrete(((0.75, 0.5), (0.45, 0.5))),
    "beta": IidParametric(family="beta", p_lo=0.55, p_hi=0.95, params=(("a", 2.0), ("b", 2.0))),
    "constant-0.75": Constant(0.75),
    # odds 1e-5: products of odds underflow inside one block
    "constant-0.99999": Constant(0.99999),
    # the zero_speed fixture: order-1 growth rate > 1, so mu has heavy spikes
    "zero-speed": IidDiscrete(((0.9, 0.5), (0.15, 0.5))),
    # rare sites with odds ~1e4
    "rare-tiny-p": IidDiscrete(((1e-4, 0.001), (0.8, 0.999))),
}
SCAN_SITES = 200_000


def scan_window(law, n=SCAN_SITES, seed=3):
    return realize(law, -suggested_burn_in(law), n, seed)


class TestBlockScan:
    @pytest.mark.parametrize("name", sorted(SCAN_LAWS))
    def test_matches_sequential_loop(self, name):
        w = scan_window(SCAN_LAWS[name])
        ref_mu, ref_sg, ref_h = loop_profile(w, SCAN_SITES)
        profile = MomentProfile(w)
        mu = profile.mu_array(SCAN_SITES)
        sg = profile.sigma2_array(SCAN_SITES)
        h = np.array([profile.hitting_centering(m) for m in range(SCAN_SITES + 1)])
        for got, ref in ((mu, ref_mu), (sg, ref_sg), (h[1:], ref_h[1:])):
            assert np.isfinite(got).all()
            assert np.max(np.abs(got - ref) / ref) <= 1e-13
        assert h[0] == 0.0

    def test_constant_window_fixed_point(self):
        # the loop settles on the float fixed point just below 2 (1 ulp) and
        # the scan carries it exactly; H(m) is m * mu correctly rounded
        w = scan_window(Constant(0.75), n=50_000)
        ref_mu, ref_sg, _ = loop_profile(w, 50_000)
        profile = MomentProfile(w)
        mu = profile.mu_array(50_000)
        assert np.array_equal(mu, ref_mu)
        assert np.all(mu == mu[0]) and abs(mu[0] - 2.0) <= np.spacing(2.0)
        assert np.all(profile.sigma2_array(50_000) == 6.0) and np.all(ref_sg == 6.0)
        exact = Fraction(float(mu[0]))
        for m in range(50_001):
            assert profile.hitting_centering(m) == float(exact * m)

    @pytest.mark.parametrize("name", ["two-point", "slow", "zero-speed"])
    def test_piecewise_growth_equals_one_shot(self, name):
        # call order: a profile read in pieces holds the same bits as one
        # read whole, on laws whose carried block starts differ in the last
        # bits from one block partition to another (slow, zero-speed)
        w = scan_window(SCAN_LAWS[name])
        n = w.hi + 1
        whole = MomentProfile(w)
        mu, sg = whole.mu_array(n), whole.sigma2_array(n)
        h = np.array([whole.hitting_centering(m) for m in range(n + 1)])
        pieces = MomentProfile(w)
        for upto in (1, 37, 5000, n):
            pieces.mu_array(upto)
            pieces.hitting_centering(upto // 2)
        got_h = np.array([pieces.hitting_centering(m) for m in range(n + 1)])
        assert np.array_equal(pieces.mu_array(n), mu)
        assert np.array_equal(pieces.sigma2_array(n), sg)
        assert np.array_equal(got_h, h)


class TestHittingCentering:
    def test_constant_examples(self):
        profile = MomentProfile(constant_window(0.75))
        assert profile.hitting_centering(5) == pytest.approx(10.0, abs=1e-10)
        assert profile.hitting_centering(0) == 0.0
        assert profile.hitting_centering(5.9) == pytest.approx(10.0, abs=1e-10)

    def test_strictly_increasing(self, two_point):
        w = realize(two_point, -140, 300, seed=2)
        profile = MomentProfile(w)
        values = [profile.hitting_centering(n) for n in range(0, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestCenterings:
    def test_explicit_constant_examples(self):
        profile = MomentProfile(constant_window(0.75))
        mu = summary(Constant(0.75)).mu
        assert profile.explicit_center(100, mu) == pytest.approx(50.0, abs=1e-9)
        assert profile.explicit_center(101, mu) == pytest.approx(51.0, abs=1e-9)
        assert profile.explicit_center(0, mu) == 0.0
        assert profile.explicit_center(100, 2.0) == pytest.approx(50.0, abs=1e-9)

    def test_implicit_constant_examples(self):
        profile = MomentProfile(constant_window(0.75))
        b = profile.implicit_center(100)
        assert b == 50
        assert profile.hitting_centering(b) == pytest.approx(100.0, abs=1e-9)
        assert profile.hitting_centering(b + 1) == pytest.approx(102.0, abs=1e-9)
        assert profile.implicit_center(99) == 49
        assert profile.implicit_center(0) == 0

    def test_implicit_bracket_property(self, two_point):
        w = realize(two_point, -140, 3000, seed=5)
        profile = MomentProfile(w)
        rng = np.random.default_rng(0)
        for t in rng.uniform(0, 5000, size=1000):
            b = profile.implicit_center(float(t))
            assert profile.hitting_centering(b) <= t < profile.hitting_centering(b + 1)

    def test_tie_resolves_to_larger_index(self):
        profile = MomentProfile(constant_window(0.75))
        # t = H(51) = 102 exactly: strict right inequality picks 51
        b = profile.implicit_center(102)
        assert b == 51
        assert profile.hitting_centering(b) <= 102 < profile.hitting_centering(b + 1)

    def test_floor_relation_constant(self):
        w = constant_window(0.75)
        profile = MomentProfile(w)
        for t in range(0, 500):
            b = profile.explicit_center(t, 2.0)
            bt = profile.implicit_center(t)
            assert profile.hitting_centering(bt) <= t < profile.hitting_centering(bt + 1)
            assert math.floor(b) in (bt, bt + 1)


class TestFluctuationSeries:
    # the diagnostics' running max H*(n) = max_{s<n} |sum_{j<=s} (mu_j - mu)|,
    # read back from max_abs_over_n * n on one environment window

    def test_single_term(self, two_point):
        cfg = ExperimentConfig(
            model=two_point, kind="diagnostics", replicas=100,
            t_grid=(100,), n_grid=(1,), x_grid=(0.0,),
        )
        rep = fluctuation_diagnostics(cfg)
        w = realize(two_point, -140, 50, cfg.resolved_env_seed())
        mu0 = site_mean(w, 0).mu
        assert rep.max_abs_over_n[0] == pytest.approx(abs(mu0 - summary(two_point).mu), rel=1e-9)

    def test_monotone_and_dominating(self, two_point):
        c = 0.2
        cfg = ExperimentConfig(
            model=two_point, kind="diagnostics", replicas=100, diag_c=c,
            t_grid=(100,), n_grid=tuple(range(1, 1001)), x_grid=(0.0,),
        )
        rep = fluctuation_diagnostics(cfg)
        n = np.array(rep.n_grid, dtype=float)
        h_star = rep.max_abs_over_n * n
        h_abs = rep.centered_sum_scaled * n ** ((1 + c) / 2)
        assert np.all(np.diff(h_star) >= -1e-12 * h_star[1:])
        assert np.all(h_abs <= h_star * (1 + 1e-12) + 1e-12)


def prefix_of(values):
    """prefix[m] = sum of the first m values."""
    return np.concatenate([[0.0], np.cumsum(values)])


class TestSignedRangeSum:
    def test_examples(self):
        d = prefix_of([1.0, 2.0, 3.0])
        assert signed_range_sum(d, 0, 2) == 6.0
        assert signed_range_sum(d, 2, 0) == -6.0
        assert signed_range_sum(d, 1.9, 1.1) == 2.0

    def test_out_of_range(self):
        d = prefix_of([1.0, 2.0])
        for a, b in ((0, 5), (-1, 1), (0, 2), (1.5, -4.3)):
            with pytest.raises(IndexRangeError):
                signed_range_sum(d, a, b)

    @given(
        values=st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=30),
        a=st.floats(min_value=0, max_value=29.99),
        b=st.floats(min_value=0, max_value=29.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_inversion_antisymmetry(self, values, a, b):
        if math.floor(a) >= len(values) or math.floor(b) >= len(values):
            return
        prefix = prefix_of(values)
        assert signed_range_sum(prefix, a, b) == pytest.approx(
            -signed_range_sum(prefix, b, a) if math.floor(a) != math.floor(b)
            else signed_range_sum(prefix, b, a)
        )

    def test_against_brute_force(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=40)
        prefix = prefix_of(values)
        for _ in range(200):
            a, b = rng.uniform(0, 39.99, size=2)
            fa, fb = math.floor(a), math.floor(b)
            if fa <= fb:
                expected = float(values[fa : fb + 1].sum())
            else:
                expected = -float(values[fb : fa + 1].sum())
            assert signed_range_sum(prefix, a, b) == pytest.approx(expected, abs=1e-12)


class TestSummary:
    def test_constant_closed_forms(self):
        s = summary(Constant(0.75))
        assert s.mu == pytest.approx(2.0, abs=1e-10)
        assert s.sigma2 == pytest.approx(6.0, abs=1e-10)
        assert s.sigma_star**2 == pytest.approx(0.75, abs=1e-10)
        assert s.sigma_star == pytest.approx(math.sqrt(0.75), abs=1e-10)

    def test_two_point_mean(self, two_point):
        s = summary(two_point)
        assert s.mu == pytest.approx(35.0 / 13.0, rel=1e-12)
        assert s.method == "closed-form"

    def test_not_eligible(self, zero_speed):
        with pytest.raises(NotCltEligibleError):
            summary(Constant(0.5))
        with pytest.raises(NotCltEligibleError):
            summary(zero_speed)  # drift < 0 but order-2 rate > 1

    def test_scale_identity(self, two_point):
        s = summary(two_point)
        assert s.sigma_star**2 == pytest.approx(s.mu**-3 * s.sigma2, rel=1e-12)

    def test_closed_form_audit(self):
        s = summary(Constant(0.75))
        assert s.sigma2_closed_form_printed == pytest.approx(5.0, rel=1e-12)
        assert s.sigma2_closed_form == pytest.approx(6.0, rel=1e-12)
        assert s.closed_form_mismatch is True

    def test_two_point_variance_near_closed_form(self, two_point):
        s = summary(two_point)
        r1, r2 = 11.0 / 24.0, 73.0 / 288.0
        assert s.r1 == pytest.approx(r1, rel=1e-14)
        assert s.r2 == pytest.approx(r2, rel=1e-14)
        expected = closed_form_variance(r1, r2)
        assert s.sigma2 == pytest.approx(expected, rel=0.02)
        assert closed_form_variance_printed(r1, r2) < expected

    def test_circle_average_quasi_periodic(self, golden_qp):
        s = summary(golden_qp)
        assert s.method == "circle-average"
        # unique ergodicity: one long orbit's site averages are an
        # independent route to the same circle averages
        n = 200_000
        profile = MomentProfile(realize(golden_qp, -suggested_burn_in(golden_qp), n - 1, seed=0))
        assert s.mu == pytest.approx(float(profile.mu_array(n).mean()), rel=1e-4)
        assert s.sigma2 == pytest.approx(float(profile.sigma2_array(n).mean()), rel=1e-4)
        # uniquely ergodic law: the exponential growth-rate form holds
        assert s.r1 == pytest.approx(math.exp(s.log_odds_mean), rel=1e-12)

    def test_slow_law_exact_variance(self):
        # r1 = 7/9, r2 = 65/81: sigma2 = 1152 exactly, the printed variant 1040
        s = summary(IidDiscrete(atoms=((0.75, 0.5), (0.45, 0.5))))
        assert s.mu == pytest.approx(8.0, rel=1e-12)
        assert s.sigma2 == pytest.approx(1152.0, rel=1e-12)
        assert s.sigma2_closed_form_printed == pytest.approx(1040.0, rel=1e-12)
        assert s.closed_form_mismatch is True

    def test_no_realized_environment(self, monkeypatch, two_point, golden_qp,
                                     uniform_parametric):
        def refuse(self, window):
            raise AssertionError("law-level summary realized an environment")

        monkeypatch.setattr(analytics.MomentProfile, "__init__", refuse)
        for model in (Constant(0.75), two_point, uniform_parametric, golden_qp):
            assert summary(model).mu == reference_crossing_mean(model)
