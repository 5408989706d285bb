import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from rwre.analytics import reference_crossing_mean, summary
from rwre import analytics, harness, walk
from rwre.environment import Constant
from rwre.errors import (
    ConfigError,
    ModelError,
    NotCltEligibleError,
    StepBudgetExceededError,
)
from rwre.harness import (
    ExperimentConfig,
    _median,
    clt_hitting,
    clt_position,
    coupling_identity_check,
    default_ks_threshold,
    fluctuation_diagnostics,
    ks_distance,
    lln_check,
    normal_cdf,
    uniform_ergodicity_estimate,
    variance_ratio_check,
)

# hand ECDF computation: candidates |Phi(x_i) - i/3|, |Phi(x_i) - (i-1)/3| with
# Phi(-1) = 0.158655..., Phi(0) = 0.5, Phi(1) = 0.841345...; the max is
# 1/3 - Phi(-1)
KS_THREE_POINT = 0.17467807940187626


class TestKsDistance:
    def test_three_point_example(self):
        assert ks_distance([-1.0, 0.0, 1.0]) == pytest.approx(KS_THREE_POINT, abs=1e-12)

    def test_midpoint_construction(self):
        m = 8
        samples = ndtri((np.arange(1, m + 1) - 0.5) / m)
        assert ks_distance(samples) == pytest.approx(1.0 / (2 * m), abs=1e-12)

    def test_large_normal_sample(self):
        z = np.random.default_rng(2024).standard_normal(100_000)
        assert ks_distance(z) <= 0.01

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            ks_distance([])

    @given(
        scale=st.floats(min_value=0.1, max_value=10.0),
        shift=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_affine_invariance(self, scale, shift):
        z = np.random.default_rng(7).standard_normal(200)
        base = ks_distance(z)
        moved = ks_distance(scale * z + shift, lambda x: normal_cdf((x - shift) / scale))
        assert moved == pytest.approx(base, abs=1e-12)


def _ks_from_sorted(f: np.ndarray) -> float:
    """KS distance from ``f``, the reference CDF at each sorted sample value."""
    m = len(f)
    i = np.arange(1, m + 1, dtype=np.float64)
    return float(max(np.max(np.abs(f - i / m)), np.max(np.abs(f - (i - 1.0) / m))))


class TestCdfTable:
    """The driver's one table against ``_ks_from_sorted``, the KS over the
    whole sorted standardized sample that the driver computed before."""

    @staticmethod
    def check(samples, center, scale):
        rows, values, counts, phi, ks = harness._cdf_table(np.asarray(samples), center, scale)
        z = (np.asarray(samples) - center) / scale
        zs = np.sort(z)
        assert values[rows].tobytes() == z.tobytes()
        assert np.repeat(values, counts).tobytes() == zs.tobytes()
        assert np.repeat(phi, counts).tobytes() == normal_cdf(zs).tobytes()
        ref = _ks_from_sorted(normal_cdf(zs))
        assert ks.hex() == ref.hex() == ks_distance(z).hex()

    @pytest.mark.parametrize("samples", [
        np.random.default_rng(3).binomial(40, 0.3, 5000) * 2 - 7,
        np.full(300, 7),
        np.array([42]),
        np.array([3] * 5 + [9] * 2),
        np.array([9, 3, 3, 9, 3]),
    ], ids=["heavy-ties", "all-equal", "single", "two-values", "two-values-unsorted"])
    def test_ks_matches_sorted_reference(self, samples):
        self.check(samples, float(np.mean(samples)) + 0.1, 1.7)

    @given(samples=st.lists(st.integers(-60, 60), min_size=1, max_size=400),
           center=st.floats(-80.0, 80.0), scale=st.floats(0.01, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_ks_matches_sorted_reference_on_any_sample(self, samples, center, scale):
        self.check(samples, center, scale)

    @pytest.mark.parametrize("driver,fields", [
        (clt_hitting, {"n": 300}),
        (clt_position, {"t": 400, "centering": "implicit"}),
    ], ids=["hitting", "position"])
    def test_later_replicate_ks_is_its_ks_distance(self, two_point, driver, fields):
        cfg = ExperimentConfig(model=two_point, replicas=400, env_replicates=2, master_seed=4,
                               **fields)
        rep = driver(cfg)
        second = driver(ExperimentConfig(model=two_point, replicas=400, master_seed=4,
                                         env_seed=cfg.resolved_env_seed(1), **fields))
        assert rep.ks_distribution[1] == ks_distance(second.standardized)
        assert rep.ks_distribution[1] != rep.ks_distance


class TestNormalCdf:
    def test_array_with_repeats_matches_each_value(self):
        # Phi of an array, repeats, signed zeros and infinities included, is Phi of each value
        z = np.round(np.random.default_rng(3).standard_normal(5000), 2)
        z = np.concatenate([z, [0.0, -0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, 0.25]])
        want = np.array([normal_cdf(v) for v in z.tolist()])
        assert normal_cdf(z).tobytes() == want.tobytes()
        assert normal_cdf(np.array([])).shape == (0,)

    def test_scalar_gives_float(self):
        for x in (0.3, np.float64(-1.5), 2, np.array(0.7)):
            assert type(normal_cdf(x)) is float
        assert normal_cdf(0.0) == 0.5

    def test_array_gives_float64_of_same_shape(self):
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        phi = normal_cdf(x)
        assert phi.dtype == np.float64 and phi.shape == (3, 4)
        assert phi.tolist() == [[normal_cdf(v) for v in row] for row in x.tolist()]

    def test_close_to_ndtr(self):
        x = np.linspace(-8.0, 8.0, 160_001)
        assert np.max(np.abs(normal_cdf(x) - ndtr(x))) <= 1e-15

    def test_infinities(self):
        assert normal_cdf(-math.inf) == 0.0 and normal_cdf(math.inf) == 1.0
        assert normal_cdf(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]


class TestConfig:
    def test_validation(self, two_point):
        with pytest.raises(ConfigError):
            ExperimentConfig(model=two_point, replicas=50)
        with pytest.raises(ConfigError):  # still type-checked when unread
            ExperimentConfig(model=two_point, replicas=50.0, check_replicas=False)
        assert ExperimentConfig(model=two_point, replicas=50, check_replicas=False).replicas == 50
        with pytest.raises(ConfigError):
            ExperimentConfig(model=two_point, centering="middle")
        with pytest.raises(ConfigError):
            ExperimentConfig(model=two_point, x_grid=(2.0, -1.0))
        with pytest.raises(ConfigError):
            ExperimentConfig(model=two_point, n_grid=(0, 100))
        with pytest.raises(ConfigError):
            ExperimentConfig(model=two_point, t_grid=(0, 1000))
        with pytest.raises(ConfigError):
            ExperimentConfig(model=two_point, diag_c=-0.1)
        with pytest.raises(ConfigError):
            ExperimentConfig(model=two_point, kind="annealed")

    def test_seed_derivation(self, two_point):
        cfg = ExperimentConfig(model=two_point, master_seed=5)
        assert cfg.resolved_env_seed() != cfg.resolved_walk_seed()
        assert cfg.resolved_env_seed(1) != cfg.resolved_env_seed(0)
        explicit = ExperimentConfig(model=two_point, master_seed=5, env_seed=77)
        assert explicit.resolved_env_seed() == 77

    def test_default_threshold(self):
        assert default_ks_threshold(5000) == pytest.approx(max(0.03, 3 * 1.36 / math.sqrt(5000)))
        assert default_ks_threshold(10_000_000) == 0.03


class TestCltHitting:
    def test_constant_smoke(self):
        cfg = ExperimentConfig(model=Constant(0.75), n=500, replicas=800, master_seed=3)
        rep = clt_hitting(cfg)
        assert rep.ks_distance <= 0.08
        assert rep.verdict == (rep.ks_distance <= rep.threshold)
        assert len(rep.standardized) == 800
        # quenched contract: centering comes from the walkers' own window
        mean_gap = abs(float(np.mean(rep.raw_samples)) - rep.centering_value)
        sigma = math.sqrt(rep.window_sigma2)
        assert mean_gap <= 5.0 * sigma * math.sqrt(500 / 800)

    def test_not_eligible(self):
        cfg = ExperimentConfig(model=Constant(0.5), n=200, replicas=200)
        with pytest.raises(NotCltEligibleError):
            clt_hitting(cfg)

    def test_deterministic_given_config(self):
        cfg = ExperimentConfig(model=Constant(0.75), n=300, replicas=400, master_seed=11)
        a = clt_hitting(cfg)
        b = clt_hitting(cfg)
        assert np.array_equal(a.raw_samples, b.raw_samples)
        assert a.ks_distance == b.ks_distance

    def test_multi_environment_mode(self, two_point):
        cfg = ExperimentConfig(model=two_point, n=300, replicas=400, env_replicates=3)
        rep = clt_hitting(cfg)
        assert len(rep.ks_distribution) == 3
        assert rep.ks_distance == rep.ks_distribution[0]


class TestCltPosition:
    def test_constant_both_centerings_close(self):
        t = 900
        reps = {}
        for centering in ("explicit", "implicit"):
            cfg = ExperimentConfig(
                model=Constant(0.75), t=t, replicas=700, centering=centering, master_seed=5
            )
            reps[centering] = clt_position(cfg)
            assert reps[centering].ks_distance <= 0.08
        # same walkers, centerings differ by at most 1 + mu in position units
        z_gap = np.abs(reps["explicit"].standardized - reps["implicit"].standardized)
        mu, sigma_star = 2.0, math.sqrt(0.75)
        assert float(z_gap.max()) <= (1.0 + mu) / (math.sqrt(t) * sigma_star) + 1e-12

    def test_parity_preserved(self):
        cfg = ExperimentConfig(model=Constant(0.75), t=500, replicas=300, master_seed=9)
        rep = clt_position(cfg)
        assert np.all((rep.raw_samples + 500) % 2 == 0)

    def test_not_eligible(self, zero_speed):
        with pytest.raises(NotCltEligibleError):
            clt_position(ExperimentConfig(model=zero_speed, t=100, replicas=200))

    @pytest.mark.parametrize("t", [1, 10, 61])
    def test_small_t_runs(self, two_point, t):
        # the scale reads the profile to max(64, t/mu) sites, past t itself
        for centering in ("explicit", "implicit"):
            rep = clt_position(ExperimentConfig(model=two_point, t=t, replicas=200,
                                                centering=centering, ks_threshold=1.0))
            assert rep.scale == t and len(rep.raw_samples) == 200
            assert np.all((rep.raw_samples + t) % 2 == 0)
            assert math.isfinite(rep.scale_value) and rep.scale_value > 0


@pytest.fixture
def record_rights(monkeypatch):
    """The right end of every window the harness realizes."""
    rights = []
    realize = harness.realize

    def recording_realize(model, lo, hi, seed):
        rights.append(hi)
        return realize(model, lo, hi, seed)

    monkeypatch.setattr(harness, "realize", recording_realize)
    return rights


class TestLln:
    def test_constant(self):
        cfg = ExperimentConfig(model=Constant(0.75), kind="lln", n=20_000, t=20_000, replicas=100,
                               lln_rel_tol=0.05)
        rep = lln_check(cfg)
        assert rep.verdict
        assert rep.hitting_ratios[-1] == pytest.approx(2.0, rel=0.05)
        assert rep.position_ratios[-1] == pytest.approx(0.5, rel=0.05)

    def test_golden_mean_is_circle_average(self, golden_qp):
        # the i.i.d. formula (1 + r1) / (1 - r1) gives 2.4392 here, 2.7% low
        cfg = ExperimentConfig(model=golden_qp, kind="lln", n=100_000, t=100_000, replicas=100,
                               master_seed=0xC0FFEE)
        rep = lln_check(cfg)
        assert rep.mu == reference_crossing_mean(golden_qp)
        assert rep.mu == pytest.approx(2.5073827977, rel=1e-10)
        assert rep.hitting_rel_error <= 0.02 and rep.position_rel_error <= 0.02
        assert rep.verdict

    def test_zero_speed_trend(self, zero_speed, record_rights):
        cfg = ExperimentConfig(
            model=zero_speed, kind="lln", n=100, t=30_000, replicas=100,
            left_guard=300, t_grid=(1000, 30_000),
        )
        rep = lln_check(cfg)
        assert rep.mu is None
        assert rep.position_ratios[-1] < rep.position_ratios[0]
        assert record_rights == [30_000 + 1]  # no t/mu to guess from: the full window

    def test_left_walk_rejected(self):
        with pytest.raises(NotCltEligibleError):
            lln_check(ExperimentConfig(model=Constant(0.25), kind="lln", replicas=100))

    def test_t_grid_past_t_runs(self, two_point):
        cfg = ExperimentConfig(model=two_point, kind="lln", n=1000, t=1000, replicas=100,
                               t_grid=(100, 5000))
        rep = lln_check(cfg)
        assert rep.t_grid == (100, 5000)
        assert rep == lln_check(ExperimentConfig(model=two_point, kind="lln", n=1000, t=5000,
                                                 replicas=100, t_grid=(100, 5000)))

    def test_n_grid_past_n_runs(self, two_point):
        cfg = ExperimentConfig(model=two_point, kind="lln", n=1000, t=1000, replicas=100,
                               n_grid=(100, 5000))
        rep = lln_check(cfg)
        assert all(math.isfinite(r) for r in rep.hitting_ratios)
        assert math.isfinite(rep.hitting_rel_error)
        assert rep == lln_check(ExperimentConfig(model=two_point, kind="lln", n=5000, t=1000,
                                                 replicas=100, n_grid=(100, 5000)))

    def test_grid_tops_are_the_scales(self, two_point, record_rights):
        grids = {"n_grid": (10, 100, 1000), "t_grid": (10, 100, 2000)}
        below = lln_check(ExperimentConfig(model=two_point, kind="lln", n=20_000, t=20_000,
                                           replicas=100, **grids))
        at_top = lln_check(ExperimentConfig(model=two_point, kind="lln", n=1000, t=2000,
                                            replicas=100, **grids))
        assert below == at_top
        # the first guess max(n + 1, floor(1.1 t / mu) + 1) at the grid tops n = 1000,
        # t = 2000, two-point mu = 35/13, is 1001: the n side, below max(n, t) + 1
        end = max(1000 + 1, math.floor(1.1 * 2000 / reference_crossing_mean(two_point)) + 1)
        assert end == 1001
        assert record_rights == [end, end]

    def test_positive_speed_realizes_the_reach(self, two_point, record_rights):
        cfg = ExperimentConfig(model=two_point, kind="lln", n=100, t=20_000, replicas=100)
        lln_check(cfg)
        # one window, no fallback, to the reach t/mu = 7429 with a tenth's margin
        end = math.floor(1.1 * 20_000 / reference_crossing_mean(two_point)) + 1
        assert record_rights == [end] and end < 20_000 + 1

    def test_fallback_replays_the_walk(self, two_point, monkeypatch):
        cfg = ExperimentConfig(model=two_point, kind="lln", n=100, t=20_000, replicas=100)
        want = lln_check(cfg)
        rights = []
        window = harness._experiment_window

        def cut_first(config, right, env_seed, guard):
            # the first window cut to n + 1, which the walker reaches long before t steps
            rights.append(right if rights else 100 + 1)
            return window(config, rights[-1], env_seed, guard)

        monkeypatch.setattr(harness, "_experiment_window", cut_first)
        assert lln_check(cfg) == want
        assert rights == [100 + 1, 20_000 + 1]


class TestVarianceRatio:
    def test_constant_exact(self):
        cfg = ExperimentConfig(model=Constant(0.75), n=1000, replicas=100)
        rep = variance_ratio_check(cfg)
        assert rep.ratio[-1] == pytest.approx(1.0, abs=1e-9)
        assert rep.max_share[-1] == pytest.approx(1.0 / 1000, rel=1e-9)
        assert rep.ratio_converges and rep.share_vanishes

    def test_two_point(self, two_point):
        cfg = ExperimentConfig(model=two_point, n=10_000, replicas=100)
        rep = variance_ratio_check(cfg)
        assert abs(rep.ratio[-1] - 1.0) <= 0.05
        assert rep.max_share[-1] <= 10.0 / 10_000 * 10


class TestDiagnostics:
    @pytest.mark.parametrize("replicates", [1, 2, 3, 4, 5])
    def test_median_bit_identical_to_numpy(self, replicates):
        rng = np.random.default_rng(replicates)
        a = rng.standard_normal((replicates, 3, 4)) * np.logspace(-8, 8, 4)
        a[replicates // 2, 1, 2] = np.nan  # that column's median is NaN
        got, want = _median(a), np.median(a, axis=0)
        assert np.isnan(got[1, 2])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert _median(a[:, 0]).tobytes() == np.median(a[:, 0], axis=0).tobytes()

    def test_diagnostics_run_loads_no_masked_arrays(self, run_fresh, tmp_path):
        # np.median imports numpy.ma for its NaN check on its first call
        config = tmp_path / "diag.json"
        config.write_text(json.dumps({
            "model": {"type": "iid_discrete", "atoms": [[0.8, 0.5], [0.6, 0.5]]},
            "experiment": {"kind": "diagnostics", "env_replicates": 4, "t_grid": [100, 1000],
                           "n_grid": [10, 100], "x_grid": [0.0, 1.0]}}))
        loaded = run_fresh("import sys\nfrom rwre.cli import main\n"
                           f"code = main(['diagnostics', '--config', {str(config)!r}, "
                           f"'--out', {str(tmp_path / 'out')!r}])\n"
                           "print(code, 'numpy.ma' in sys.modules)")
        assert loaded.split() == ["0", "False"]

    @pytest.mark.parametrize("law", ["two_point", "golden_qp"])
    def test_one_replicate_alive_at_a_time(self, law, request):
        # each replicate's window, profile and prefix sums are freed before the
        # next replicate is realized, so three replicates peak where one does
        model = request.getfixturevalue(law)

        def peak(replicates):
            cfg = ExperimentConfig(model=model, kind="diagnostics", env_replicates=replicates,
                                   master_seed=3)
            tracemalloc.start()
            try:
                fluctuation_diagnostics(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm-up: law-level summaries and first-call imports
        assert peak(3) <= peak(1) + 64 * 1024

    def test_constant_all_zero(self):
        cfg = ExperimentConfig(
            model=Constant(0.75), kind="diagnostics", replicas=100,
            t_grid=(100, 1000), n_grid=(10, 100), x_grid=(-1.0, 0.0, 1.0),
        )
        rep = fluctuation_diagnostics(cfg)
        assert np.allclose(rep.explicit_window_sums, 0.0, atol=1e-7)
        assert np.allclose(rep.implicit_window_sums, 0.0, atol=1e-7)
        assert np.allclose(rep.max_abs_over_sqrt, 0.0, atol=1e-7)
        assert rep.explicit_decreasing

    def test_two_point_trends(self, two_point):
        cfg = ExperimentConfig(
            model=two_point, kind="diagnostics", replicas=100, env_replicates=10,
            t_grid=(1000, 100_000), n_grid=(100, 10_000), x_grid=(0.0, 1.0),
            master_seed=1,
        )
        rep = fluctuation_diagnostics(cfg)
        j = rep.x_grid.index(1.0)
        assert rep.explicit_window_sums[-1, j] < rep.explicit_window_sums[0, j]
        assert rep.max_abs_over_n[-1] < rep.max_abs_over_n[0]
        # the shifted-upper-limit variant stays within the same scale
        assert rep.explicit_window_sums_shifted[-1, j] == pytest.approx(
            rep.explicit_window_sums[-1, j], abs=0.2
        )

    def test_range_left_of_site_zero_raises(self, two_point):
        # at t = 10 the explicit upper end for x = -3 lies left of site 0; the
        # diagnostics must raise rather than wrap around the prefix array, and
        # name the grid entry that asks for it
        cfg = ExperimentConfig(
            model=two_point, kind="diagnostics",
            t_grid=(10, 1000), n_grid=(100,), x_grid=(-3.0, 0.0, 3.0),
        )
        with pytest.raises(ConfigError, match=r"experiment\.t_grid: at t = 10 .* x = -3\.0 "):
            fluctuation_diagnostics(cfg)

    def test_quasi_periodic_bound_by_ergodicity(self, golden_qp):
        s = summary(golden_qp)
        t = 10_000
        x = 1.0
        cfg = ExperimentConfig(
            model=golden_qp, kind="diagnostics", replicas=100,
            t_grid=(t,), n_grid=(100,), x_grid=(x,),
        )
        rep = fluctuation_diagnostics(cfg)
        length = math.sqrt(t) * s.sigma_star * x
        n_window = int(length) + 1
        erg = uniform_ergodicity_estimate(
            golden_qp, (n_window,), starts=int(t / s.mu) + 200
        )
        bound = (n_window + 1) * erg.epsilon[0] / math.sqrt(t)
        assert abs(rep.implicit_window_sums[0, 0]) <= bound + 1e-9


class TestUniformErgodicity:
    def test_constant_zero(self):
        rep = uniform_ergodicity_estimate(Constant(0.75), (100, 1000))
        assert rep.epsilon == (0.0, 0.0)

    def test_golden_ratio_decreases(self, golden_qp):
        rep = uniform_ergodicity_estimate(golden_qp, (100, 1000, 10_000))
        assert rep.decreasing
        assert rep.uniformly_ergodic
        assert rep.epsilon[2] < rep.epsilon[0]

    def test_rational_alpha_plateaus(self, rational_qp):
        rep = uniform_ergodicity_estimate(rational_qp, (100, 1000, 10_000))
        assert rep.epsilon[-1] > 1e-3  # stuck at the orbit-vs-circle gap
        assert not rep.uniformly_ergodic

    @pytest.mark.parametrize("n_grid,starts,field", [
        ((), 2000, "n_grid"), ((0, 100), 2000, "n_grid"), ((-5,), 2000, "n_grid"),
        ((100,), 0, "starts"), ((100,), -1, "starts"),
    ], ids=["empty", "zero-entry", "negative-entry", "zero-starts", "negative-starts"])
    def test_bad_arguments_are_model_errors(self, n_grid, starts, field):
        # no bare ValueError from an empty max, and no NaN epsilon from n = 0
        with pytest.raises(ModelError, match=field):
            uniform_ergodicity_estimate(Constant(0.75), n_grid, starts)


def nested_loop_coupling_check(config, *, t_points=25, y_per_t=4):
    """Reference: ``coupling_identity_check`` as it was with one scalar
    ``first_passage_index`` call per (trajectory, t) and a loop over y."""
    n_goal = config.n
    mu = analytics.reference_crossing_mean(config.model)
    budget = harness._budget(config, walk.default_max_steps(n_goal, mu))
    env_seed = config.resolved_env_seed()
    window = harness._experiment_window(config, n_goal + 1, env_seed, budget.left_guard)
    checks = 0
    event_bad = 0
    approx_bad = 0
    parity_bad = 0
    odd_bad = 0
    for r in range(config.replicas):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.resolved_walk_seed(), spawn_key=(7, r))
        )
        obs = walk.sample_position(window, 0, (), rng, budget, n_goal=n_goal, record_path=True)
        hit = obs.hit
        tau = obs.tau
        path = obs.path
        t_end = int(hit[-1]) - 1
        if np.any(tau % 2 != 1):
            odd_bad += 1
        if np.any((path + np.arange(len(path))) % 2 != 0):
            parity_bad += 1
        base = np.unique(np.linspace(0, t_end, t_points, dtype=np.int64))
        boundary = hit[hit <= t_end][:: max(1, len(hit) // 8)]
        t_values = np.unique(np.concatenate([base, boundary]))
        for t in t_values:
            t = int(t)
            n_t = walk.first_passage_index(obs, t)
            x_t = int(path[t])
            # approximation bound
            if not (abs(x_t - n_t) <= t - int(hit[n_t]) < int(tau[n_t])):
                approx_bad += 1
            ys = {n_t - 1, n_t, n_t + 1, n_t + y_per_t}
            for y in ys:
                if y < 0 or y + 1 >= len(hit):
                    continue
                checks += 1
                if (n_t <= y) != (int(hit[y + 1]) > t):
                    event_bad += 1
    return harness.CouplingReport(
        trajectories=config.replicas,
        checks=checks,
        event_identity_violations=event_bad,
        approximation_violations=approx_bad,
        parity_violations=parity_bad,
        odd_tau_violations=odd_bad,
    )


def corrupting_sampler(kind):
    """``walk.sample_position`` with each observation corrupted the same way
    on every run: a few ``path[t]`` (always ``path[0]``) moved by +-1 or +-2,
    or 1 or 2 added to ``hit[j:]``, which keeps the record strictly increasing,
    cut where it passes the path's end."""
    sample = walk.sample_position
    calls = itertools.count()

    def sampler(*args, **kwargs):
        obs = sample(*args, **kwargs)
        rng = np.random.default_rng(next(calls))
        hit, path = obs.hit.copy(), obs.path.copy()
        if kind == "path":
            at = np.append(rng.integers(0, len(path), 3), 0)
            path[at] += rng.choice([-2, -1, 1, 2], len(at))
        else:
            hit[rng.integers(1, len(hit)):] += rng.integers(1, 3)
            hit = hit[hit < len(path)]  # every t the check reads has a path entry
        return walk.WalkObservation(hit=hit, snapshots=obs.snapshots, path=path)

    return sampler


class TestCouplingIdentity:
    @pytest.mark.parametrize("kind", ["clean", "path", "hit"])
    def test_counts_match_nested_loop_reference(self, two_point, monkeypatch, kind):
        # n_t comes from the record it is checked against, so the event identity
        # holds on every strictly increasing record: a corruption shows in the
        # bound, the parity or the crossing times
        cfg = ExperimentConfig(model=two_point, replicas=100, n=30, master_seed=23)
        for y_per_t in (-1, 0, 1, 4):
            reports = []
            for check in (coupling_identity_check, nested_loop_coupling_check):
                if kind != "clean":
                    monkeypatch.setattr(walk, "sample_position", corrupting_sampler(kind))
                reports.append(check(cfg, y_per_t=y_per_t))
                monkeypatch.undo()
            rep, ref = reports
            assert rep == ref
            assert all(type(v) is int for v in vars(rep).values())
            assert rep.checks > 0
            assert rep.clean == (kind == "clean")
            if kind == "path":
                assert rep.approximation_violations > 0 and rep.parity_violations > 0
            if kind == "hit":
                assert rep.approximation_violations > 0 and rep.odd_tau_violations > 0

    def test_clean_constant(self):
        cfg = ExperimentConfig(model=Constant(0.75), replicas=150, n=100, master_seed=21)
        rep = coupling_identity_check(cfg)
        assert rep.clean
        assert rep.checks > 5000

    def test_clean_two_point(self, two_point):
        cfg = ExperimentConfig(model=two_point, replicas=120, n=100, master_seed=22)
        rep = coupling_identity_check(cfg)
        assert rep.clean

    def test_step_cap_from_config(self):
        # reaching n = 100 takes at least 100 steps
        for max_steps, error in ((0, ModelError), (99, StepBudgetExceededError)):
            cfg = ExperimentConfig(model=Constant(0.75), replicas=100, n=100, max_steps=max_steps)
            with pytest.raises(error):
                coupling_identity_check(cfg)
