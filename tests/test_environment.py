import json
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc, betaincinv, log_expit

from rwre import environment
from rwre.analytics import summary
from rwre.environment import (
    _log_expit,
    _site_uniforms,
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
    realize,
)
from rwre.errors import ModelError

# the benchmark's beta law: beta(2, 2) truncated to [0.55, 0.95]
BETA_22 = IidParametric(family="beta", p_lo=0.55, p_hi=0.95, params=(("a", 2.0), ("b", 2.0)))


def uniform_closed_forms(lo, hi):
    """E ln A, E A, E A^2, E p^-3 and E q^-3 for p uniform on [lo, hi]."""
    w = hi - lo

    def ent(p):  # antiderivative of ln((1-p)/p), up to a constant
        return -(1.0 - p) * math.log1p(-p) - p * math.log(p)

    return {
        "ln_a": (ent(hi) - ent(lo)) / w,
        "a": (math.log(hi / lo) - w) / w,
        "a2": ((1.0 / lo - 1.0 / hi) - 2.0 * math.log(hi / lo) + w) / w,
        "p_neg_3": (lo**-2 - hi**-2) / (2.0 * w),
        "q_neg_3": ((1.0 - hi) ** -2 - (1.0 - lo) ** -2) / (2.0 * w),
    }


def law_functionals(model):
    rep = check_conditions(model)
    return {
        "ln_a": mean_log_odds(model),
        "a": odds_growth_rate(model, 1.0),
        "a2": odds_growth_rate(model, 2.0),
        "p_neg_3": rep.evidence["E_p_neg_gamma"],
        "q_neg_3": rep.evidence["E_q_neg_gamma"],
    }


def beta_quad(model, g):
    """E g(p) under a truncated beta law by adaptive quadrature in p."""
    a, b = model.param("a"), model.param("b")

    def density(p):
        return p ** (a - 1.0) * (1.0 - p) ** (b - 1.0)

    def integral(f):
        return quad(f, model.p_lo, model.p_hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    return integral(lambda p: g(p) * density(p)) / integral(density)


def reference_realize(model, lo, hi, seed):
    """The site values by the allocating formulas that ``realize`` first used:
    a fresh array per hash step, ``searchsorted`` on the cumulative weights and
    one new array per harmonic."""

    def mix64(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    golden = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        k = np.arange(lo, hi + 1, dtype=np.int64).view(np.uint64)
        state = mix64(np.asarray(seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64) + golden) + k * golden
        u = (mix64(state) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    if isinstance(model, IidDiscrete):
        values = np.array([a for a, _ in model.atoms])
        weights = np.array([w for _, w in model.atoms])
        return values[np.searchsorted(np.cumsum(weights / weights.sum()), u, side="right")]
    if isinstance(model, IidParametric):
        return model.p_lo + u * (model.p_hi - model.p_lo)
    omega = np.mod(model.omega0 + np.arange(lo, hi + 1, dtype=np.float64) * model.alpha, 1.0)
    out = np.full_like(omega, model.coeffs[0])
    for m, c in enumerate(model.coeffs[1:], start=1):
        out = out + c * np.cos(2.0 * np.pi * m * omega)
    return out


TEN_ATOMS = IidDiscrete(atoms=tuple((0.5 + 0.04 * i, 0.1) for i in range(10)))
REALIZE_LAWS = {
    "one atom": IidDiscrete(atoms=((0.7, 1.0),)),
    "two atoms": IidDiscrete(atoms=((0.8, 0.5), (0.6, 0.5))),
    "three atoms": IidDiscrete(atoms=((0.9, 0.2), (0.6, 0.3), (0.45, 0.5))),
    "ten atoms": TEN_ATOMS,  # weights whose cumulative sum ends below 1
    "three hundred atoms": IidDiscrete(atoms=tuple((0.5 + 0.001 * i, 1.0 / 300) for i in range(300))),
    "uniform": IidParametric(family="uniform", p_lo=0.55, p_hi=0.9),
    "one coefficient": QuasiPeriodic(alpha=(math.sqrt(5.0) - 1.0) / 2.0, omega0=0.0, coeffs=(0.7,)),
    "golden": QuasiPeriodic(alpha=(math.sqrt(5.0) - 1.0) / 2.0, omega0=0.0, coeffs=(0.7, 0.1)),
    "three coefficients": QuasiPeriodic(alpha=(math.sqrt(5.0) - 1.0) / 2.0, omega0=0.3,
                                        coeffs=(0.6, 0.1, 0.05)),
}


class TestRealizeInPlace:
    @pytest.mark.parametrize("name", sorted(REALIZE_LAWS))
    def test_matches_allocating_formulas(self, name):
        model = REALIZE_LAWS[name]
        for lo, hi, seed in ((-3000, 5000, 7), (-1, 0, 2**64 - 1), (0, 0, 0)):
            want = reference_realize(model, lo, hi, seed)
            assert realize(model, lo, hi, seed).p.tobytes() == want.tobytes()

    def test_cumulative_weights_below_one_take_last_atom(self, monkeypatch):
        cum = np.cumsum(np.full(10, 0.1) / np.full(10, 0.1).sum())
        assert cum[-1] < 1.0  # searchsorted would index past the ten atoms
        u = np.array([0.0, 0.0999, cum[-1], np.nextafter(1.0, 0.0)])
        monkeypatch.setattr(environment, "_site_uniforms", lambda seed, lo, hi: u.copy())
        got = realize(TEN_ATOMS, 0, 3, seed=0).p
        assert got.tolist() == [0.5, 0.5, TEN_ATOMS.atoms[-1][0], TEN_ATOMS.atoms[-1][0]]

    def test_scalar_phase_gives_float(self, golden_qp):
        value = golden_qp.p_of_phase(0.25)
        assert isinstance(value, float)
        assert value == golden_qp.p_of_phase(np.array([0.25]))[0]

    @pytest.mark.parametrize(
        "name, bound", [("two atoms", 2.5), ("three hundred atoms", 2.5), ("golden", 3.5)]
    )
    def test_peak_memory(self, name, bound):
        model = REALIZE_LAWS[name]
        realize(model, -10, 10, seed=1)  # warm any lazily built state
        tracemalloc.start()
        try:
            window = realize(model, -200_000, 799_999, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * window.p.nbytes


def whole_window_realize(model, lo, hi, seed):
    """Reference: ``realize`` as it ran before its fixed passes, verbatim,
    every array the length of the whole window."""
    if lo > hi:
        raise ModelError(f"realize: lo={lo} must not exceed hi={hi}")
    if isinstance(model, Constant):
        p = np.full(hi - lo + 1, model.p, dtype=np.float64)
    elif isinstance(model, IidDiscrete):
        u = _site_uniforms(seed, lo, hi)
        values = np.array([a for a, _ in model.atoms])
        weights = np.array([w for _, w in model.atoms])
        cum = np.cumsum(weights / weights.sum())
        atom = np.searchsorted(cum[:-1], u, side="right")
        del u  # before the output is allocated
        p = values[atom]
    elif isinstance(model, IidParametric):
        p = environment._sample_parametric(model, _site_uniforms(seed, lo, hi))
    elif isinstance(model, QuasiPeriodic):
        phase = np.arange(lo, hi + 1, dtype=np.float64)
        phase *= model.alpha
        phase += model.omega0
        np.mod(phase, 1.0, out=phase)
        p = model.p_of_phase(phase)
    else:
        raise ModelError(f"realize: unsupported model {model!r}")
    return environment.EnvironmentWindow(lo=lo, hi=hi, p=p)


PASS = environment._REALIZE_CHUNK
PASS_LAWS = {
    "constant": Constant(0.7),
    "two atoms": IidDiscrete(atoms=((0.8, 0.5), (0.6, 0.5))),
    "three atoms": IidDiscrete(atoms=((0.9, 0.2), (0.6, 0.3), (0.45, 0.5))),
    "three atoms below 1": IidDiscrete(atoms=((0.9, 0.342), (0.6, 0.558), (0.45, 0.1))),
    "ten atoms": TEN_ATOMS,
    "uniform": IidParametric(family="uniform", p_lo=0.55, p_hi=0.9),
    "beta": BETA_22,
    "one harmonic": REALIZE_LAWS["golden"],
    "three harmonics": QuasiPeriodic(alpha=(math.sqrt(5.0) - 1.0) / 2.0, omega0=0.3,
                                     coeffs=(0.6, 0.1, 0.05, 0.02)),
}
PASS_WINDOWS = {
    "one site": (5, 5),
    "one pass": (0, PASS - 1),
    "one pass less one": (-3, PASS - 5),
    "one pass and one": (-1, PASS - 1),
    "several passes": (-2 * PASS - 7, 2 * PASS + 12),
    "negative lo": (-PASS - 100, -40),
}


class TestRealizeInPasses:
    def test_weights_sum_below_one(self):
        weights = np.array([w for _, w in PASS_LAWS["three atoms below 1"].atoms])
        assert np.cumsum(weights / weights.sum())[-1] < 1.0

    @pytest.mark.parametrize("window", sorted(PASS_WINDOWS))
    @pytest.mark.parametrize("name", sorted(PASS_LAWS))
    def test_matches_whole_window(self, name, window):
        lo, hi = PASS_WINDOWS[window]
        for seed in (3, 2**64 - 1):
            want = whole_window_realize(PASS_LAWS[name], lo, hi, seed).p
            assert realize(PASS_LAWS[name], lo, hi, seed).p.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(PASS_LAWS))
    def test_peak_is_output_plus_four_passes(self, name):
        # a whole-window realization of six passes holds at least one more
        # output (finite and parametric laws) or two (quasi-periodic)
        model = PASS_LAWS[name]
        realize(model, -10, 10, seed=1)  # warm any lazily built state
        tracemalloc.start()
        try:
            window = realize(model, -3 * PASS, 3 * PASS, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < window.p.nbytes + 4 * 8 * PASS


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

    def test_beta_window_matches_scipy_inverse(self, run_fresh):
        # scipy is imported only when a beta window is realized; a fresh
        # interpreter must still map each site uniform through betaincinv
        code = ("import json, sys\n"
                "from rwre.environment import IidParametric, realize\n"
                "model = IidParametric(family='beta', p_lo=0.55, p_hi=0.95, "
                "params=(('a', 2.0), ('b', 2.0)))\n"
                "assert not any(m.startswith('scipy') for m in sys.modules)\n"
                "print(json.dumps([v.hex() for v in realize(model, -40, 300, seed=9).p.tolist()]))")
        got = [float.fromhex(v) for v in json.loads(run_fresh(code))]
        a, b = BETA_22.param("a"), BETA_22.param("b")
        f_lo, f_hi = betainc(a, b, BETA_22.p_lo), betainc(a, b, BETA_22.p_hi)
        want = betaincinv(a, b, f_lo + _site_uniforms(9, -40, 300) * (f_hi - f_lo))
        assert got == want.tolist()

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

    @pytest.mark.parametrize("build, field", [
        (lambda: IidDiscrete(atoms=((0.6,),)), "model.atoms"),
        (lambda: IidDiscrete(atoms=(("x", 1.0),)), "model.atoms"),
        (lambda: IidDiscrete(atoms=5), "model.atoms"),
        (lambda: QuasiPeriodic(alpha=0.6, omega0=0.0, coeffs=("x",)), "model.coeffs"),
        (lambda: QuasiPeriodic(alpha="a", omega0=0.0, coeffs=(0.7, 0.1)), "model.alpha"),
        (lambda: QuasiPeriodic(alpha=0.6, omega0="a", coeffs=(0.7, 0.1)), "model.omega0"),
        (lambda: IidParametric(family="beta", p_lo=0.55, p_hi=0.95, params={"a": "x", "b": 2.0}),
         "model.params"),
        (lambda: IidParametric(family="beta", p_lo=0.55, p_hi=0.95, params=[1, 2]), "model.params"),
        (lambda: IidParametric(family="beta", p_lo=0.55, p_hi=0.95, params=(("a", "x"), ("b", 2.0))),
         "model.params"),
    ], ids=["atom-of-one", "atom-string", "atoms-int", "coeff-string", "alpha-string",
            "omega0-string", "params-dict-string", "params-ints", "params-string"])
    def test_malformed_fields_are_model_errors(self, build, field):
        # constructed directly, as a library caller does: a field that cannot be
        # read as numbers raises a ModelError naming it, not a bare TypeError
        with pytest.raises(ModelError, match=f"^{field}: "):
            build()

    def test_params_mapping_or_pairs(self):
        # a mapping, the form a JSON config holds, reads as its (name, value) pairs
        pairs = IidParametric(family="beta", p_lo=0.55, p_hi=0.95, params=(("b", 3), ("a", 2.0)))
        assert IidParametric(family="beta", p_lo=0.55, p_hi=0.95,
                             params={"a": 2.0, "b": 3.0}) == pairs
        assert pairs.params == (("a", 2.0), ("b", 3.0))

    @pytest.mark.parametrize("build, field, value", [
        (lambda: Constant(p=np.float32(0.6)), "p", float(np.float32(0.6))),
        (lambda: Constant(p=Fraction(3, 5)), "p", 0.6),
        (lambda: Constant(p=Decimal("0.6")), "p", 0.6),
        (lambda: IidParametric(family="uniform", p_lo=np.float32(0.55), p_hi=0.95),
         "p_lo", float(np.float32(0.55))),
        (lambda: IidParametric(family="uniform", p_lo=0.55, p_hi=Fraction(19, 20)), "p_hi", 0.95),
    ], ids=["constant-float32", "constant-fraction", "constant-decimal", "p_lo-float32",
            "p_hi-fraction"])
    def test_probabilities_convert_like_the_other_fields(self, build, field, value):
        # an in-range probability of any real type is read with float(), as
        # atoms, alpha and omega0 are, not reported out of range
        got = getattr(build(), field)
        assert type(got) is float and got == value

    @pytest.mark.parametrize("build, field", [
        (lambda: Constant(p=None), "model.p"),
        (lambda: Constant(p="x"), "model.p"),
        (lambda: IidParametric(family="uniform", p_lo=None, p_hi=0.95), "model.p_lo"),
        (lambda: IidParametric(family="uniform", p_lo=0.55, p_hi=[0.95]), "model.p_hi"),
    ], ids=["constant-none", "constant-string", "p_lo-none", "p_hi-list"])
    def test_unreadable_probability_names_its_field(self, build, field):
        with pytest.raises(ModelError, match=f"^{field}: malformed value"):
            build()

    def test_phases_convert_like_the_other_fields(self):
        model = QuasiPeriodic(alpha=np.float32(0.6180339), omega0=Decimal("0.25"), coeffs=(0.7, 0.1))
        assert type(model.alpha) is float and model.omega0 == 0.25

    def test_rational_alpha_warns(self):
        with pytest.warns(UserWarning, match="denominator"):
            QuasiPeriodic(alpha=0.25, omega0=0.0, coeffs=(0.7, 0.1))

    def test_roundtrip_serialization(self, two_point, golden_qp, uniform_parametric):
        for model in (Constant(0.33), two_point, golden_qp, uniform_parametric):
            assert model_from_dict(model_to_dict(model)) == model


class TestOddsRatio:
    def test_examples(self):
        w = realize(Constant(0.75), 0, 0, seed=0)
        assert w.odds(0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        w = realize(Constant(0.5), 0, 0, seed=0)
        assert w.odds(0) == pytest.approx(1.0)
        w = realize(Constant(0.8), 0, 0, seed=0)
        assert w.odds(0) == pytest.approx(0.25, rel=1e-15)

    def test_out_of_window(self):
        w = realize(Constant(0.75), 0, 5, seed=0)
        with pytest.raises(ModelError):
            w.odds(6)


class TestMeanLogOdds:
    def test_constant(self):
        assert mean_log_odds(Constant(0.75)) == pytest.approx(math.log(1 / 3), rel=1e-14)
        assert mean_log_odds(Constant(0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_two_point_closed_form(self, two_point):
        expected = 0.5 * (math.log(0.25) + math.log(2.0 / 3.0))
        assert mean_log_odds(two_point) == pytest.approx(expected, rel=1e-14)

    def test_quasi_periodic_quadrature_matches_orbit_average(self, golden_qp):
        # worst-start window averages of ln A approach the circle average;
        # single-start gaps oscillate with the rotation's continued fraction,
        # so the uniform (max over starts) version is what decreases
        lam = mean_log_odds(golden_qp)
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

    def test_parametric_uniform_closed_forms(self, uniform_parametric):
        assert classify(uniform_parametric).method == "quadrature"
        got = law_functionals(uniform_parametric)
        for name, want in uniform_closed_forms(0.55, 0.9).items():
            assert got[name] == pytest.approx(want, rel=1e-13), name

    def test_beta_against_adaptive_quadrature(self):
        skewed = IidParametric(family="beta", p_lo=0.51, p_hi=0.99, params=(("a", 0.3), ("b", 0.2)))
        for model in (BETA_22, skewed):
            got = law_functionals(model)
            assert got["ln_a"] == pytest.approx(
                beta_quad(model, lambda p: math.log((1.0 - p) / p)), rel=1e-12)
            assert got["q_neg_3"] == pytest.approx(
                beta_quad(model, lambda p: (1.0 - p) ** -3), rel=1e-12)

    def test_every_family_exact(self, two_point, golden_qp, uniform_parametric):
        for model in (Constant(0.75), two_point, golden_qp, uniform_parametric, BETA_22):
            for value in (mean_log_odds(model), odds_growth_rate(model, 1.0),
                          odds_growth_rate(model, 2.5)):
                assert type(value) is float, model
            atoms = isinstance(model, (Constant, IidDiscrete))
            assert classify(model).method == ("closed-form" if atoms else "quadrature"), model


class TestClassify:
    def test_examples(self):
        assert classify(Constant(0.75)).regime is Regime.TRANSIENT_RIGHT
        assert classify(Constant(0.25)).regime is Regime.TRANSIENT_LEFT
        cls = classify(Constant(0.5))
        assert cls.regime is Regime.RECURRENT
        assert cls.within_tolerance

    def test_symmetric_parametric_law_recurrent(self):
        cls = classify(IidParametric(family="uniform", p_lo=0.3, p_hi=0.7))
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
        assert odds_growth_rate(Constant(0.75), 2.0) == pytest.approx(1 / 9, rel=1e-14)

    def test_two_point_kappa1(self, two_point):
        expected = (0.25 + 2.0 / 3.0) / 2.0
        assert odds_growth_rate(two_point, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_kappa_zero_is_one(self, two_point, golden_qp, uniform_parametric):
        for model in (Constant(0.6), two_point, golden_qp, uniform_parametric):
            assert odds_growth_rate(model, 0.0) == 1.0

    def test_quasi_periodic_exponential_form(self, golden_qp):
        lam = mean_log_odds(golden_qp)
        for kappa in (0.5, 1.0, 2.0):
            assert odds_growth_rate(golden_qp, kappa) == pytest.approx(
                math.exp(kappa * lam), rel=1e-12
            )

    def test_kappa_validation(self, two_point):
        with pytest.raises(ModelError):
            odds_growth_rate(two_point, -0.5)

    def test_parametric_near_edge_law_converges(self):
        # the odds span 12 orders of magnitude; quadrature in p instead of
        # ln A leaves E p^-3 44% off even at 1024 nodes on this law
        lo, hi = 1e-6, 1.0 - 1e-6
        got = law_functionals(IidParametric(family="uniform", p_lo=lo, p_hi=hi))
        want = uniform_closed_forms(lo, hi)
        assert abs(got.pop("ln_a") - want.pop("ln_a")) <= 1e-12
        for name, value in want.items():
            assert got[name] == pytest.approx(value, rel=1e-12), name

    def test_beta_benchmark_law_exact(self):
        # density ~ p(1-p): r1 = int (1-p)^2 / int p(1-p) = 0.091/0.209 on [0.55, 0.95]
        assert odds_growth_rate(BETA_22, 1.0) == pytest.approx(91 / 209, rel=1e-13)
        summ = summary(BETA_22)
        assert summ.mu == pytest.approx(150 / 59, rel=1e-13)
        assert summ.method == "closed-form"

    def test_log_convexity_across_models(self, two_point, zero_speed, golden_qp,
                                         uniform_parametric, rational_qp):
        kappas = [0.25 * i for i in range(9)]
        for model in (Constant(0.75), Constant(0.9), two_point, zero_speed,
                      golden_qp, rational_qp, uniform_parametric):
            values = [math.log(odds_growth_rate(model, k)) for k in kappas]
            second = [values[i + 1] - 2 * values[i] + values[i - 1] for i in range(1, 8)]
            assert min(second) >= -1e-9, f"log growth rate not convex for {model}"


class TestLogExpit:
    def test_bit_identical_to_scipy(self):
        # the quadrature weights of every parametric law functional go through it
        edges = [0.0, 1e-300, 1e-16, 1e-8, 0.5, 1.0, 36.0, 37.0, 709.0, 710.0, 745.0, 800.0]
        magnitudes = np.concatenate([edges, np.geomspace(1e-300, 800.0, 20_001),
                                     np.linspace(0.0, 40.0, 40_001)])
        x = np.concatenate([magnitudes, -magnitudes])
        assert _log_expit(x).tobytes() == log_expit(x).tobytes()


class TestConditions:
    def test_constant_75(self):
        rep = check_conditions(Constant(0.75))
        assert rep.gamma == 3.0
        assert rep.holds_c1 and rep.holds_c2 and rep.holds_c3 and rep.holds_c4
        assert rep.evidence["E_p_neg_gamma"] == 0.75**-3.0
        assert rep.evidence["E_q_neg_gamma"] == 64.0
        assert rep.evidence["r_gamma"] == pytest.approx(1 / 27, rel=1e-14)
        assert rep.evidence["lambda"] == math.log(1 / 3)
        assert rep.r2 == pytest.approx(1 / 9, rel=1e-14)
        assert rep.clt_eligible
        assert rep.regime == "transient_right"
        assert rep.speed == "positive"

    def test_constant_half_not_eligible(self):
        rep = check_conditions(Constant(0.5))
        assert rep.holds_c1 and rep.holds_c2 and rep.holds_c3 and rep.holds_c4
        assert rep.r1 == pytest.approx(1.0)
        assert not rep.clt_eligible
        assert rep.regime == "recurrent"

    @pytest.mark.parametrize("model", [Constant(1e-120), IidDiscrete(((1e-120, 0.5), (0.8, 0.5)))])
    def test_overflowing_moments_are_infinite(self, model):
        # p^-3 and the odds cubed exceed the float range
        rep = check_conditions(model)
        assert rep.evidence["E_p_neg_gamma"] == math.inf
        assert rep.evidence["r_gamma"] == math.inf
        assert math.isfinite(rep.evidence["E_q_neg_gamma"])
        assert not rep.holds_c3 and not rep.holds_c4
        assert rep.regime == "transient_left"

    def test_two_point(self, two_point):
        rep = check_conditions(two_point)
        assert rep.holds_c1 and rep.holds_c2 and rep.holds_c3 and rep.holds_c4
        assert rep.r2 == pytest.approx(73.0 / 288.0, rel=1e-14)
        assert rep.clt_eligible

    def test_zero_speed_tagged(self, zero_speed):
        rep = check_conditions(zero_speed)
        assert rep.regime == "transient_right"
        assert rep.speed == "zero"
        assert not rep.clt_eligible  # r2 > 1

    def test_parametric_exact_evidence(self, uniform_parametric):
        rep = check_conditions(uniform_parametric)
        # E A^3 = int (1/p - 1)^3 dp / w
        lo, hi = 0.55, 0.9
        r3 = ((lo**-2 - hi**-2) / 2 - 3 * (1 / lo - 1 / hi) + 3 * math.log(hi / lo) - (hi - lo)) / (hi - lo)
        assert rep.evidence["r_gamma"] == pytest.approx(r3, rel=1e-13)
        assert rep.evidence["support"] == [0.55, 0.9]
        assert rep.holds_c1 and rep.holds_c2 and rep.holds_c3 and rep.holds_c4
        assert rep.regime == "transient_right" and rep.clt_eligible

    def test_quasi_periodic_c3_from_range(self, golden_qp):
        rep = check_conditions(golden_qp)
        assert rep.evidence["p_min"] == pytest.approx(0.6) and rep.evidence["p_max"] == pytest.approx(0.8)
        assert rep.holds_c2 and rep.holds_c3

    def test_rational_alpha_c1_flagged(self, rational_qp):
        rep = check_conditions(rational_qp)
        assert not rep.holds_c1
        assert rep.evidence["rational_denominator"] == 4
