"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (pytest shows it with -s or -rP);
a failed assertion is the FAIL line.  Runtime limits are asserted where the
criterion states one.  All runs use fixed seeds, so every number here is
reproducible.
"""

import json
import math
import time

import pytest

from rwre.analytics import site_variance, summary
from rwre.environment import Constant, IidDiscrete, QuasiPeriodic, odds_growth_rate, realize
from rwre.harness import (
    ExperimentConfig,
    clt_hitting,
    clt_position,
    coupling_identity_check,
    fluctuation_diagnostics,
    ks_distance,
    lln_check,
    uniform_ergodicity_estimate,
)
from rwre.oracle import expected_hitting_times, hitting_time_variances, mc_crossing_moments

TWO_POINT = IidDiscrete(atoms=((0.8, 0.5), (0.6, 0.5)))
ZERO_SPEED = IidDiscrete(atoms=((0.9, 0.5), (0.15, 0.5)))
GOLDEN = QuasiPeriodic(alpha=(math.sqrt(5.0) - 1.0) / 2.0, omega0=0.0, coeffs=(0.7, 0.1))


def _report(num, detail):
    print(f"ACCEPTANCE {num} PASS: {detail}")


def test_criterion_01_oracle_equivalence():
    """Site series vs finite-chain increments on random two-point windows."""
    t0 = time.perf_counter()
    a, n = -40, 160
    worst_mu = 0.0
    worst_sg = 0.0
    for seed in range(10):
        window = realize(TWO_POINT, a - 120, n + 5, seed=1000 + seed)
        e_inc = expected_hitting_times(window, a, n).increments()
        v_inc = hitting_time_variances(window, a, n).increments()
        for k in range(40, 150):
            site = site_variance(window, k)
            worst_mu = max(worst_mu, abs(site.mu - e_inc[k - a]))
            worst_sg = max(worst_sg, abs(site.sigma2 - v_inc[k - a]))
    elapsed = time.perf_counter() - t0
    assert worst_mu <= 1e-8, f"mean gap {worst_mu}"
    assert worst_sg <= 1e-7, f"variance gap {worst_sg}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s"
    _report(1, f"max mean gap {worst_mu:.2e}, max variance gap {worst_sg:.2e}, {elapsed:.2f}s")


def test_criterion_02_constant_closed_forms():
    """mu=2, sigma2=6, sigma*^2=0.75 at p=0.75: analytic and Monte Carlo."""
    t0 = time.perf_counter()
    s = summary(Constant(0.75))
    assert abs(s.mu - 2.0) <= 1e-10
    assert abs(s.sigma2 - 6.0) <= 1e-10
    assert abs(s.sigma_star**2 - 0.75) <= 1e-10
    window = realize(Constant(0.75), -150, 5, seed=0)
    mc = mc_crossing_moments(window, 0, 1_000_000, seed=2)
    assert abs(mc.mean - 2.0) <= 3.0 * mc.mean_se
    assert abs(mc.variance - 6.0) <= 3.0 * mc.variance_se
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(2, f"mu={s.mu!r}, sigma2={s.sigma2!r}, mc mean {mc.mean:.4f}+-{mc.mean_se:.4f}, "
               f"mc var {mc.variance:.3f}+-{mc.variance_se:.3f}, {elapsed:.1f}s")


def test_criterion_03_closed_form_audit(tmp_path):
    """oracle-check reports 5.0 vs 6.0 vs empirical 6.0 +- 0.1 and flags it."""
    from rwre.cli import main

    t0 = time.perf_counter()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"type": "constant", "p": 0.75},
        "experiment": {"replicas": 1_000_000},
        "seeds": {"master": 123},
    }))
    out = tmp_path / "run"
    assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 0
    table = json.loads((out / "report.json").read_text())["sigma2_table"]
    assert table["closed_form_printed"] == pytest.approx(5.0, abs=1e-9)
    assert table["closed_form_corrected"] == pytest.approx(6.0, abs=1e-9)
    assert table["ergodic_average"] == pytest.approx(6.0, abs=1e-9)
    assert abs(table["monte_carlo"] - 6.0) <= 0.1
    assert table["mismatch_flagged"] is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, f"printed {table['closed_form_printed']:.1f} vs corrected "
               f"{table['closed_form_corrected']:.1f} vs mc {table['monte_carlo']:.3f}"
               f"+-{table['monte_carlo_se']:.3f}, flagged, {elapsed:.1f}s")


def test_criterion_04_hitting_time_clt():
    """Hitting-time fluctuations are normal at the stated scales."""
    t0 = time.perf_counter()
    rep = clt_hitting(ExperimentConfig(
        model=Constant(0.75), n=2000, replicas=5000, ks_threshold=0.03, master_seed=0xC0FFEE,
    ))
    # the constant-law criterion pins the closed-form standardization
    z_closed = (rep.raw_samples - 2.0 * 2000) / math.sqrt(6.0 * 2000)
    ks_const = ks_distance(z_closed)
    elapsed_1 = time.perf_counter() - t0
    assert ks_const <= 0.03, f"constant KS {ks_const}"
    assert rep.verdict
    assert elapsed_1 < 120.0

    t1 = time.perf_counter()
    rep2 = clt_hitting(ExperimentConfig(
        model=TWO_POINT, n=5000, replicas=5000, ks_threshold=0.05, master_seed=0xC0FFEE,
    ))
    elapsed_2 = time.perf_counter() - t1
    assert rep2.ks_distance <= 0.05, f"two-point KS {rep2.ks_distance}"
    assert elapsed_2 < 120.0
    _report(4, f"constant KS {ks_const:.4f} (<=0.03) in {elapsed_1:.1f}s; "
               f"two-point KS {rep2.ks_distance:.4f} (<=0.05) in {elapsed_2:.1f}s")


def test_criterion_05_position_clt():
    """Position fluctuations are normal with both centerings."""
    t0 = time.perf_counter()
    ks = {}
    for centering in ("explicit", "implicit"):
        rep = clt_position(ExperimentConfig(
            model=Constant(0.75), t=4000, replicas=5000, centering=centering,
            ks_threshold=0.04, master_seed=0xC0FFEE,
        ))
        ks[centering] = rep.ks_distance
        assert rep.ks_distance <= 0.04, f"constant {centering} KS {rep.ks_distance}"
    rep_tp = clt_position(ExperimentConfig(
        model=TWO_POINT, t=10_000, replicas=5000, centering="explicit",
        ks_threshold=0.06, master_seed=0xC0FFEE,
    ))
    assert rep_tp.ks_distance <= 0.06, f"two-point KS {rep_tp.ks_distance}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(5, f"constant explicit {ks['explicit']:.4f} / implicit {ks['implicit']:.4f} "
               f"(<=0.04); two-point explicit {rep_tp.ks_distance:.4f} (<=0.06); {elapsed:.1f}s")


def test_criterion_06_uniformly_ergodic_clt():
    """Golden-ratio rotation: CLT with the implicit centering, shrinking
    worst-start averages."""
    rep = clt_position(ExperimentConfig(
        model=GOLDEN, t=10_000, replicas=5000, centering="implicit",
        ks_threshold=0.06, master_seed=0xC0FFEE,
    ))
    assert rep.ks_distance <= 0.06, f"KS {rep.ks_distance}"
    erg = uniform_ergodicity_estimate(GOLDEN, (100, 1000, 10_000))
    assert erg.decreasing, f"epsilon not decreasing: {erg.epsilon}"
    _report(6, f"KS {rep.ks_distance:.4f} (<=0.06); eps "
               + " > ".join(f"{e:.2e}" for e in erg.epsilon))


def test_criterion_07_law_of_large_numbers():
    """T(1e5)/1e5 and X(1e5)/1e5 within 2 percent; zero-speed ratio falls 2x."""
    for model, mu in ((Constant(0.75), 2.0), (TWO_POINT, 35.0 / 13.0)):
        rep = lln_check(ExperimentConfig(
            model=model, kind="lln", n=100_000, t=100_000, replicas=100,
            master_seed=0xC0FFEE,
        ))
        assert rep.verdict
        assert abs(rep.hitting_ratios[-1] - mu) <= 0.02 * mu
        assert abs(rep.position_ratios[-1] - 1.0 / mu) <= 0.02 / mu
    zs = lln_check(ExperimentConfig(
        model=ZERO_SPEED, kind="lln", n=200, t=100_000, replicas=100,
        left_guard=400, t_grid=(1000, 10_000, 100_000), master_seed=0xC0FFEE,
    ))
    ratio = zs.position_ratios[0] / zs.position_ratios[-1]
    assert ratio >= 2.0, f"zero-speed X/t fell only {ratio:.2f}x"
    _report(7, f"constant and two-point within 2%; zero-speed X/t fell {ratio:.1f}x "
               f"({zs.position_ratios[0]:.4f} -> {zs.position_ratios[-1]:.5f})")


def test_criterion_08_exact_identities():
    """Bracketing identity and position bound: zero violations at scale."""
    rep = coupling_identity_check(
        ExperimentConfig(model=Constant(0.75), replicas=1000, n=150, master_seed=0xC0FFEE),
        t_points=25, y_per_t=4,
    )
    assert rep.checks >= 100_000, f"only {rep.checks} checks"
    assert rep.event_identity_violations == 0
    assert rep.approximation_violations == 0
    assert rep.parity_violations == 0
    assert rep.odd_tau_violations == 0
    _report(8, f"{rep.checks} (trajectory, t, y) checks, 0 violations; parity and "
               "odd-crossing invariants clean on all samples")


def test_criterion_09_fluctuation_diagnostics():
    """Centered-sum medians shrink with scale on the two-point law."""
    cfg = ExperimentConfig(
        model=TWO_POINT, kind="diagnostics", replicas=100, env_replicates=20,
        t_grid=(1000, 10_000, 100_000), n_grid=(100, 1000, 10_000),
        x_grid=(0.0, 1.0), master_seed=1,
    )
    rep = fluctuation_diagnostics(cfg)
    j = rep.x_grid.index(1.0)
    col = rep.explicit_window_sums[:, j]
    assert col[0] > col[1] > col[2], f"medians not monotone: {col}"
    over_n = rep.max_abs_over_n
    assert over_n[0] > over_n[1] > over_n[2], f"max-sum/n not decreasing: {over_n}"
    over_sqrt = rep.max_abs_over_sqrt
    band = max(over_sqrt) / min(over_sqrt)
    assert band <= 10.0, f"max-sum/sqrt(n) band {band:.2f} exceeds 10"
    _report(9, "median |centered sum| at x=1: "
               + " > ".join(f"{v:.4f}" for v in col)
               + f"; band of max-sum/sqrt(n): {band:.2f} (<=10)")


def test_criterion_10_log_convexity():
    """Second differences of the log growth rate are non-negative."""
    models = {
        "constant 0.75": Constant(0.75),
        "constant 0.9": Constant(0.9),
        "two-point": TWO_POINT,
        "zero-speed": ZERO_SPEED,
        "golden quasi-periodic": GOLDEN,
    }
    worst = math.inf
    for name, model in models.items():
        kappas = [0.25 * i for i in range(9)]
        logs = [math.log(odds_growth_rate(model, k)) for k in kappas]
        second = [logs[i + 1] - 2 * logs[i] + logs[i - 1] for i in range(1, 8)]
        worst = min(worst, min(second))
        assert min(second) >= -1e-9, f"{name}: second difference {min(second)}"
    _report(10, f"all shipped models log-convex; smallest second difference {worst:.2e}")


def test_criterion_11_manifest_determinism(tmp_path):
    """Re-running the same manifest is byte-identical for 1, 4, 16 workers."""
    from rwre.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"type": "iid_discrete", "atoms": [[0.8, 0.5], [0.6, 0.5]]},
        "experiment": {"kind": "clt_hitting", "n": 500, "replicas": 2500},
        "seeds": {"master": 77},
    }))
    blobs = {}
    digests = {}
    for workers in (1, 4, 16):
        out = tmp_path / f"w{workers}"
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--workers", str(workers)])
        assert code == 0
        blobs[workers] = (out / "samples.csv").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        digests[workers] = manifest["outputs"]["samples.csv"]["sha256"]
    assert blobs[1] == blobs[4] == blobs[16]
    assert digests[1] == digests[4] == digests[16]
    _report(11, f"samples.csv identical under workers 1/4/16 (sha256 {digests[1][:12]}...)")
