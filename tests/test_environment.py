import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre.environment import (
    Constant,
    IidDiscrete,
    IidParametric,
    QuasiPeriodic,
    Regime,
    check_conditions,
    classify,
    mean_log_odds,
    model_from_dict,
    model_to_dict,
    odds_growth_rate,
    odds_ratio,
    realize,
)
from rwre.errors import ModelError, MomentDivergenceError


class TestRealize:
    def test_constant_all_sites(self, constant_75):
        w = realize(constant_75, -3, 3, seed=0)
        assert np.all(w.p == 0.75)
        assert w.lo == -3 and w.hi == 3

    def test_quasi_periodic_exact_site(self):
        with pytest.warns(UserWarning, match="denominator"):
            model = QuasiPeriodic(alpha=0.25, omega0=0.0, coeffs=(0.7, 0.1))
        w = realize(model, 0, 4, seed=99)
        # p_1 = 0.7 + 0.1 cos(pi/2) = 0.7 up to the cosine rounding
        assert w.site(1) == pytest.approx(0.7, abs=1e-12)
        assert w.site(0) == pytest.approx(0.8, abs=1e-12)
        assert w.site(2) == pytest.approx(0.6, abs=1e-12)

    def test_overlapping_windows_agree(self, two_point):
        w1 = realize(two_point, -10, 20, seed=5)
        w2 = realize(two_point, 3, 40, seed=5)
        assert w1.site(5) == w2.site(5)
        lo, hi = 3, 20
        assert np.array_equal(w1.p[lo - w1.lo : hi - w1.lo + 1], w2.p[: hi - lo + 1])

    def test_repeat_calls_byte_identical(self, uniform_parametric):
        w1 = realize(uniform_parametric, -50, 50, seed=11)
        w2 = realize(uniform_parametric, -50, 50, seed=11)
        assert w1.p.tobytes() == w2.p.tobytes()

    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        lo1=st.integers(min_value=-200, max_value=0),
        span=st.integers(min_value=0, max_value=100),
        k=st.integers(min_value=-50, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_site_determinism_property(self, seed, lo1, span, k):
        model = IidDiscrete(atoms=((0.8, 0.5), (0.6, 0.5)))
        wide = realize(model, -250, 200, seed=seed)
        narrow = realize(model, min(lo1, k), max(lo1 + span, k), seed=seed)
        assert wide.site(k) == narrow.site(k)

    def test_parametric_support_respected(self):
        model = IidParametric(family="beta", p_lo=0.6, p_hi=0.85, params=(("a", 2.0), ("b", 3.0)))
        w = realize(model, 0, 2000, seed=4)
        assert w.p.min() >= 0.6
        assert w.p.max() <= 0.85
        assert w.p.std() > 0.001

    def test_malformed_models_rejected(self):
        with pytest.raises(ModelError):
            Constant(p=1.2)
        with pytest.raises(ModelError):
            Constant(p=0.0)
        with pytest.raises(ModelError):
            IidDiscrete(atoms=((0.8, 0.7), (0.6, 0.7)))  # weights sum to 1.4
        with pytest.raises(ModelError):
            IidDiscrete(atoms=((0.8, 1.0), (0.6, -0.0)))
        with pytest.raises(ModelError):
            QuasiPeriodic(alpha=0.3, omega0=0.0, coeffs=(0.95, 0.1))  # escapes (0,1)
        with pytest.raises(ModelError):
            IidParametric(family="uniform", p_lo=0.9, p_hi=0.5)
        with pytest.raises(ModelError):
            realize(Constant(p=0.5), 3, 1, seed=0)

    def test_rational_alpha_warns(self):
        with pytest.warns(UserWarning, match="denominator"):
            QuasiPeriodic(alpha=0.25, omega0=0.0, coeffs=(0.7, 0.1))

    def test_roundtrip_serialization(self, two_point, golden_qp, uniform_parametric):
        for model in (Constant(0.33), two_point, golden_qp, uniform_parametric):
            assert model_from_dict(model_to_dict(model)) == model


class TestOddsRatio:
    def test_examples(self):
        w = realize(Constant(0.75), 0, 0, seed=0)
        assert odds_ratio(w, 0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        w = realize(Constant(0.5), 0, 0, seed=0)
        assert odds_ratio(w, 0) == pytest.approx(1.0)
        w = realize(Constant(0.8), 0, 0, seed=0)
        assert odds_ratio(w, 0) == pytest.approx(0.25, rel=1e-15)

    def test_out_of_window(self):
        w = realize(Constant(0.75), 0, 5, seed=0)
        with pytest.raises(ModelError):
            odds_ratio(w, 6)


class TestMeanLogOdds:
    def test_constant(self):
        assert mean_log_odds(Constant(0.75)).value == pytest.approx(math.log(1 / 3), rel=1e-14)
        assert mean_log_odds(Constant(0.5)).value == pytest.approx(0.0, abs=1e-15)

    def test_two_point_closed_form(self, two_point):
        expected = 0.5 * (math.log(0.25) + math.log(2.0 / 3.0))
        est = mean_log_odds(two_point)
        assert est.value == pytest.approx(expected, rel=1e-14)
        assert est.se == 0.0

    def test_quasi_periodic_quadrature_matches_orbit_average(self, golden_qp):
        # worst-start window averages of ln A approach the circle average;
        # single-start gaps oscillate with the rotation's continued fraction,
        # so the uniform (max over starts) version is what decreases
        lam = mean_log_odds(golden_qp).value
        w = realize(golden_qp, 0, 12_001, seed=0)
        prefix = np.concatenate([[0.0], np.cumsum(np.log(w.odds_array()))])
        starts = 500
        gaps = []
        for n in (100, 1000, 10_000):
            sums = prefix[n : n + starts] - prefix[0:starts]
            gaps.append(float(np.max(np.abs(sums / n - lam))))
        assert gaps[2] < gaps[1] < gaps[0]
        # the plain head average is within the worst-start envelope
        assert abs(float(np.mean(np.log(w.odds_array()[:10_000]))) - lam) <= gaps[2]

    def test_parametric_monte_carlo(self, uniform_parametric):
        est = mean_log_odds(uniform_parametric, mc_samples=50_000, seed=3)
        assert est.se > 0
        assert est.method == "monte-carlo"
        # uniform on [0.55, 0.9] is transient right decisively
        assert est.value < -3 * est.se


class TestClassify:
    def test_examples(self):
        assert classify(Constant(0.75)).regime is Regime.TRANSIENT_RIGHT
        assert classify(Constant(0.25)).regime is Regime.TRANSIENT_LEFT
        cls = classify(Constant(0.5))
        assert cls.regime is Regime.RECURRENT
        assert cls.within_tolerance

    @given(p=st.floats(min_value=0.02, max_value=0.98))
    @settings(max_examples=60, deadline=None)
    def test_sign_matches_p(self, p):
        if abs(p - 0.5) < 1e-6:
            return
        regime = classify(Constant(p)).regime
        assert regime is (Regime.TRANSIENT_RIGHT if p > 0.5 else Regime.TRANSIENT_LEFT)


class TestGrowthRate:
    def test_constant_kappa2(self):
        assert odds_growth_rate(Constant(0.75), 2.0).value == pytest.approx(1 / 9, rel=1e-14)

    def test_two_point_kappa1(self, two_point):
        expected = (0.25 + 2.0 / 3.0) / 2.0
        assert odds_growth_rate(two_point, 1.0).value == pytest.approx(expected, rel=1e-14)

    def test_kappa_zero_is_one(self, two_point, golden_qp, uniform_parametric):
        for model in (Constant(0.6), two_point, golden_qp, uniform_parametric):
            assert odds_growth_rate(model, 0.0).value == 1.0

    def test_quasi_periodic_exponential_form(self, golden_qp):
        lam = mean_log_odds(golden_qp).value
        for kappa in (0.5, 1.0, 2.0):
            assert odds_growth_rate(golden_qp, kappa).value == pytest.approx(
                math.exp(kappa * lam), rel=1e-12
            )

    def test_kappa_validation(self, two_point):
        with pytest.raises(ModelError):
            odds_growth_rate(two_point, -0.5)
        with pytest.raises(ModelError):
            odds_growth_rate(two_point, 4.0, gamma=3.0)

    def test_moment_divergence_guard(self):
        model = IidParametric(family="uniform", p_lo=0.2, p_hi=0.8)
        with pytest.raises(MomentDivergenceError):
            odds_growth_rate(model, 200.0, mc_samples=500, seed=1)

    def test_log_convexity_across_models(self, two_point, zero_speed, golden_qp,
                                         uniform_parametric, rational_qp):
        kappas = [0.25 * i for i in range(9)]
        for model in (Constant(0.75), Constant(0.9), two_point, zero_speed,
                      golden_qp, rational_qp, uniform_parametric):
            values = [math.log(odds_growth_rate(model, k).value) for k in kappas]
            second = [values[i + 1] - 2 * values[i] + values[i - 1] for i in range(1, 8)]
            assert min(second) >= -1e-9, f"log growth rate not convex for {model}"


class TestConditions:
    def test_constant_75(self):
        rep = check_conditions(Constant(0.75), gamma=3.0)
        assert rep.all_hold()
        assert not rep.estimated
        assert rep.r2 == pytest.approx(1 / 9, rel=1e-14)
        assert rep.clt_eligible
        assert rep.regime == "transient_right"
        assert rep.speed == "positive"

    def test_constant_half_not_eligible(self):
        rep = check_conditions(Constant(0.5), gamma=3.0)
        assert rep.all_hold()
        assert rep.r1 == pytest.approx(1.0)
        assert not rep.clt_eligible
        assert rep.regime == "recurrent"

    def test_two_point(self, two_point):
        rep = check_conditions(two_point, gamma=3.0)
        assert rep.all_hold()
        assert rep.r2 == pytest.approx(73.0 / 288.0, rel=1e-14)
        assert rep.clt_eligible

    def test_zero_speed_tagged(self, zero_speed):
        rep = check_conditions(zero_speed, gamma=3.0)
        assert rep.regime == "transient_right"
        assert rep.speed == "zero"
        assert not rep.clt_eligible  # r2 > 1

    def test_parametric_estimated(self, uniform_parametric):
        rep = check_conditions(uniform_parametric, gamma=3.0)
        assert rep.estimated
        assert rep.evidence["E_p_neg_gamma"] < 1 / 0.55**3 + 1

    def test_rational_alpha_c1_flagged(self, rational_qp):
        rep = check_conditions(rational_qp, gamma=3.0)
        assert not rep.holds_c1
        assert rep.evidence["rational_denominator"] == 4

    def test_gamma_validation(self, two_point):
        with pytest.raises(ModelError):
            check_conditions(two_point, gamma=2.0)
