import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from rwre import errors, harness
from rwre.cli import _write_csvs, main
from rwre.environment import IidDiscrete


def write_config(path, model, experiment=None, seeds=None):
    payload = {"model": model}
    if experiment is not None:
        payload["experiment"] = experiment
    if seeds is not None:
        payload["seeds"] = seeds
    path.write_text(json.dumps(payload))
    return str(path)


def reference_write_samples(path, raw, standardized):
    """Reference: ``samples.csv`` as the row-by-row writer wrote it, verbatim."""
    with open(path, "w", newline="\n") as fh:
        fh.write("replica,value,standardized\n")
        for i, (v, z) in enumerate(zip(raw.tolist(), standardized.tolist())):
            fh.write(f"{i},{v},{z!r}\n")


def reference_write_cdf(path, zs, phi):
    """Reference: ``cdf.csv`` as the row-by-row writer wrote it, verbatim."""
    m = len(zs)
    with open(path, "w", newline="\n") as fh:
        fh.write("x,ecdf,phi,diff\n")
        for i, (z, f) in enumerate(zip(zs.tolist(), phi.tolist()), start=1):
            ecdf = i / m
            fh.write(f"{z!r},{ecdf!r},{f!r},{ecdf - f!r}\n")


def assert_same_csvs(tmp_path, report):
    """``_write_csvs`` on a report's table and the reference writers on its
    sample standardized and sorted anew give byte-identical files; returns
    the reference ``cdf.csv`` text."""
    (tmp_path / "got").mkdir()
    (tmp_path / "ref").mkdir()
    z = (report.raw_samples - report.centering_value) / report.scale_value
    zs = np.sort(z)
    _write_csvs(tmp_path / "got", report)
    reference_write_samples(tmp_path / "ref" / "samples.csv", report.raw_samples, z)
    reference_write_cdf(tmp_path / "ref" / "cdf.csv", zs, harness.normal_cdf(zs))
    for name in ("samples.csv", "cdf.csv"):
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
    return (tmp_path / "ref" / "cdf.csv").read_text()


@pytest.fixture
def small_hitting_config(tmp_path):
    return write_config(
        tmp_path / "cfg.json",
        {"type": "constant", "p": 0.75},
        {"kind": "clt_hitting", "n": 300, "replicas": 400, "ks_threshold": 0.1},
        {"master": 7},
    )


class TestSimulate:
    def test_writes_all_artifacts(self, tmp_path, small_hitting_config):
        out = tmp_path / "run"
        assert main(["simulate", "--config", small_hitting_config, "--out", str(out)]) == 0
        for name in ("manifest.json", "report.json", "samples.csv", "cdf.csv"):
            assert (out / name).exists()
        lines = (out / "samples.csv").read_text().splitlines()
        assert lines[0] == "replica,value,standardized"
        assert len(lines) == 401
        cdf_lines = (out / "cdf.csv").read_text().splitlines()
        assert cdf_lines[0] == "x,ecdf,phi,diff"
        assert len(cdf_lines) == 401
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {
            "kind", "scale", "replicas", "centering", "ks_distance", "threshold",
            "verdict", "centering_value", "scale_value", "window_mu", "window_sigma2",
            "summary", "cdf_errors", "sample_stats", "ks_distribution", "seeds",
        }

    def test_manifest_digests_stable_across_reruns(self, tmp_path, small_hitting_config):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", small_hitting_config, "--out", str(out)]) == 0
            outs.append(out)
        m1 = json.loads((outs[0] / "manifest.json").read_text())
        m2 = json.loads((outs[1] / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]
        assert (outs[0] / "samples.csv").read_bytes() == (outs[1] / "samples.csv").read_bytes()
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()

    def test_worker_counts_do_not_change_samples(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"type": "iid_discrete", "atoms": [[0.8, 0.5], [0.6, 0.5]]},
            {"kind": "clt_hitting", "n": 200, "replicas": 2100},
            {"master": 99},
        )
        blobs = []
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}"
            assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", workers]) == 0
            blobs.append((out / "samples.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_worker_counts_do_not_change_position_run(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"type": "iid_discrete", "atoms": [[0.8, 0.5], [0.6, 0.5]]},
            {"kind": "clt_position", "t": 400, "replicas": 2100, "ks_threshold": 1.0},
            {"master": 99},
        )
        blobs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["clt-position", "--config", cfg, "--out", str(out), "--workers", workers]) == 0
            blobs.append([(out / name).read_bytes() for name in ("report.json", "samples.csv")])
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("kind, command", [
        ("clt_position", "clt-position"),
        ("clt_hitting", "clt-hitting"),
        ("lln", "clt-hitting"),  # any other kind runs the hitting experiment
    ])
    def test_runs_the_clt_item_its_kind_names(self, tmp_path, kind, command):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"type": "iid_discrete", "atoms": [[0.8, 0.5], [0.6, 0.5]]},
            {"kind": kind, "n": 200, "t": 400, "replicas": 300, "ks_threshold": 1.0},
            {"master": 3},
        )
        outs = {}
        for name in ("simulate", command):
            outs[name] = tmp_path / name
            assert main([name, "--config", cfg, "--out", str(outs[name])]) == 0
        simulated = json.loads((outs["simulate"] / "report.json").read_text())
        direct = json.loads((outs[command] / "report.json").read_text())
        assert simulated.pop("kind") == "simulate"
        assert direct.pop("kind") == command.replace("-", "_")
        assert simulated == direct
        for name in ("samples.csv", "cdf.csv"):
            assert (outs["simulate"] / name).read_bytes() == (outs[command] / name).read_bytes()


class TestErrors:
    def test_malformed_probability_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.json", {"type": "constant", "p": 1.2})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "model.p" in capsys.readouterr().err

    def test_unknown_experiment_field(self, tmp_path, capsys):
        for field in ("n_steps", "summary_budget", "workers", "tol"):
            cfg = write_config(
                tmp_path / "bad.json", {"type": "constant", "p": 0.75}, {field: 5}
            )
            assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command,experiment", [
        ("lln", {"kind": "lln", "n": 200, "t": 400}),
        ("diagnostics", {"kind": "diagnostics", "t_grid": [100, 1000], "n_grid": [10, 100]}),
        ("analyze", {}),
    ])
    def test_replicas_unread_is_not_range_checked(self, tmp_path, command, experiment):
        # none of these reads replicas, so a count below 100 is no error
        cfg = write_config(tmp_path / "c.json", {"type": "constant", "p": 0.75},
                           {**experiment, "replicas": 50})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_replicas_read_is_range_checked(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"type": "constant", "p": 0.75},
                           {"kind": "clt_hitting", "n": 200, "replicas": 50})
        assert main(["clt-hitting", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "experiment.replicas" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", [
        {"model": {"type": "iid_discrete"}},
        {"model": {"type": "quasi_periodic", "alpha": 0.6180339887498949, "omega0": 0.0}},
        {"model": {"type": "iid_parametric", "family": "beta", "p_lo": 0.55, "p_hi": 0.95,
                   "params": [2.0, 2.0]}},
        {"model": {"type": "iid_discrete", "atoms": [[0.6]]}},
        {"model": {"type": "iid_parametric", "family": "beta", "p_lo": 0.55, "p_hi": 0.95,
                   "params": {"a": "x", "b": 2.0}}},
        None,
        b'{"model": {"type": "constant", "p": 0.75}, "experiment": {"centering": "\xe9"}}',
    ], ids=["atoms-missing", "coeffs-missing", "params-list", "atom-short", "shape-str",
            "config-directory", "config-latin-1"])
    def test_malformed_input_is_a_config_error(self, tmp_path, capsys, content):
        # each exits 2 with one labelled line, not a traceback
        path = tmp_path / "cfg.json"
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(json.dumps(content))
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1, err

    def test_missing_config_file(self, tmp_path):
        assert main(["analyze", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_eligibility_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path / "rec.json", {"type": "constant", "p": 0.5},
            {"kind": "clt_hitting", "n": 200, "replicas": 200},
        )
        assert main(["clt-hitting", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_guard_breach_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path / "g.json", {"type": "constant", "p": 0.75},
            {"kind": "clt_hitting", "n": 300, "replicas": 200, "left_guard": 1},
        )
        assert main(["clt-hitting", "--config", cfg, "--out", str(tmp_path / "o")]) == 5

    @pytest.mark.parametrize("command,kind", [("lln", "lln"), ("clt-hitting", "clt_hitting")])
    def test_zero_step_cap_is_a_config_error(self, tmp_path, capsys, command, kind):
        # every driver reads max_steps the same way: 0 is a value, not "unset"
        cfg = write_config(
            tmp_path / "s.json", {"type": "constant", "p": 0.75},
            {"kind": kind, "n": 200, "t": 200, "replicas": 100, "max_steps": 0},
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "experiment.max_steps: must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["lln", "clt-hitting", "clt-position"])
    def test_zero_left_guard_is_a_config_error(self, tmp_path, capsys, command):
        cfg = write_config(
            tmp_path / "s.json", {"type": "constant", "p": 0.75},
            {"kind": command.replace("-", "_"), "n": 200, "t": 200, "replicas": 100, "left_guard": 0},
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "experiment.left_guard: must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command,experiment", [
        ("clt-position", {"kind": "clt_position", "t": -5}),
        ("clt-position", {"kind": "clt_position", "t": 0}),
        ("lln", {"kind": "lln", "n": -3}),
        ("lln", {"kind": "lln", "t_grid": 5}),
        ("lln", {"kind": "lln", "n": 1000, "t": 4000, "t_grid": [100.5, 4000]}),
        ("lln", {"kind": "lln", "n": 1000, "t": 4000, "n_grid": [10.5, 1000]}),
        ("clt-hitting", {"kind": "clt_hitting", "n": 300, "replicas": 200.0}),
        ("clt-hitting", {"kind": "clt_hitting", "n": 300.0, "replicas": 200}),
        ("clt-hitting", {"kind": "clt_hitting", "n": 300, "replicas": 200, "left_guard": 50.5}),
        ("clt-hitting", {"kind": "clt_hitting", "n": 300, "replicas": 200, "max_steps": 1e6}),
        ("diagnostics", {"kind": "diagnostics", "env_replicates": 1.5}),
    ], ids=["t-negative", "t-zero", "n-negative", "t_grid-scalar", "t_grid-float", "n_grid-float",
            "replicas-float", "n-float", "left_guard-float", "max_steps-float",
            "env_replicates-float"])
    def test_bad_counts_are_config_errors(self, tmp_path, capsys, command, experiment):
        # counts and grid entries must be integers, and n and t at least 1
        cfg = write_config(
            tmp_path / "c.json", {"type": "iid_discrete", "atoms": [[0.8, 0.5], [0.6, 0.5]]},
            experiment, {"master": 1},
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,experiment,seeds", [
        ("clt-hitting", {}, {"master": "abc"}),
        ("clt-hitting", {}, {"master": 1.5}),
        ("clt-hitting", {}, {"master": True}),
        ("clt-hitting", {}, {"walk": 2.5}),
        ("clt-hitting", {}, {"env": 2.5}),
        ("clt-hitting", {"ks_threshold": "x"}, {}),
        ("clt-hitting", {"ks_threshold": True}, {}),
        ("lln", {"kind": "lln", "lln_rel_tol": "x"}, {}),
        ("clt-hitting", {"x_grid": ["a", "b"]}, {}),
        ("clt-hitting", {}, 5),
        ("clt-hitting", {"ks_threshold": float("nan")}, {}),
        ("clt-hitting", {"ks_threshold": 0.0}, {}),
        ("clt-hitting", {"ks_threshold": 1.5}, {}),
        ("lln", {"kind": "lln", "lln_rel_tol": -1}, {}),
        ("lln", {"kind": "lln", "lln_rel_tol": 0.0}, {}),
        ("lln", {"kind": "lln", "lln_rel_tol": float("nan")}, {}),
        ("lln", {"kind": "lln", "lln_rel_tol": float("inf")}, {}),
        ("clt-hitting", {"x_grid": [0.0, float("nan")]}, {}),
        ("clt-hitting", {"x_grid": [0.0, float("inf")]}, {}),
        ("diagnostics", {"kind": "diagnostics", "diag_c": float("inf")}, {}),
    ], ids=["master-str", "master-float", "master-bool", "walk-float", "env-float",
            "ks_threshold-str", "ks_threshold-bool", "lln_rel_tol-str", "x_grid-str", "seeds-scalar",
            "ks_threshold-nan", "ks_threshold-zero", "ks_threshold-above-1", "lln_rel_tol-negative",
            "lln_rel_tol-zero", "lln_rel_tol-nan", "lln_rel_tol-inf", "x_grid-nan", "x_grid-inf",
            "diag_c-inf"])
    def test_bad_types_are_config_errors(self, tmp_path, capsys, command, experiment, seeds):
        # rejected while the config is read, before any experiment runs; so is
        # a threshold or grid point that makes the verdict or a cdf_errors row
        # independent of the samples
        base = {"kind": "clt_hitting", "n": 200, "t": 200, "replicas": 100}
        cfg = write_config(tmp_path / "c.json", {"type": "constant", "p": 0.75},
                           {**base, **experiment}, seeds)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment", [
        {"t_grid": [10, 100000]},  # the default x_grid, whose first entry is -3.0
        {"t_grid": [30, 100000]},
        {"t_grid": [10, 1000], "n_grid": [100], "x_grid": [-3.0, 0.0, 3.0]},
    ], ids=["t10-default-grids", "t30-default-grids", "t10-x3"])
    def test_diagnostics_window_left_of_site_zero(self, tmp_path, capsys, experiment):
        # at a small t the window sums for x = -3 start left of site 0, outside
        # the centered prefix sums: a configuration error, not a numerical one
        cfg = write_config(
            tmp_path / "t.json",
            {"type": "iid_discrete", "atoms": [[0.8, 0.5], [0.6, 0.5]]},
            experiment, {"master": 7},
        )
        assert main(["diagnostics", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        t = experiment["t_grid"][0]
        assert err.startswith(f"configuration error: experiment.t_grid: at t = {t} "
                              "the window sums for x = -3.0 start at site -")
        assert err.endswith(", left of site 0; use a larger t\n")
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("cls,code,label", [
        (errors.RwreError, 1, "error"),
        (errors.ModelError, 2, "configuration error"),
        (errors.ConfigError, 2, "configuration error"),
        (errors.NotCltEligibleError, 3, "eligibility error"),
        (errors.NonSummableError, 4, "numerical error"),
        (errors.WindowTooSmallError, 4, "numerical error"),
        (errors.QuadratureError, 4, "numerical error"),
        (errors.IndexRangeError, 4, "numerical error"),
        (errors.GuardBreachError, 5, "simulation guard error"),
        (errors.LeftGuardBreachError, 5, "simulation guard error"),
        (errors.RightGuardBreachError, 5, "simulation guard error"),
        (errors.StepBudgetExceededError, 5, "simulation guard error"),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_each_error_class_has_its_exit_code(self, tmp_path, capsys, monkeypatch,
                                                 cls, code, label):
        def fail(config):
            raise cls("boom")

        monkeypatch.setattr(harness, "clt_hitting", fail)
        cfg = write_config(tmp_path / "c.json", {"type": "constant", "p": 0.75},
                           {"kind": "clt_hitting", "n": 200, "replicas": 100})
        assert main(["clt-hitting", "--config", cfg, "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == f"{label}: boom\n"

    def test_analyze_reports_overflowing_moments(self, tmp_path):
        cfg = write_config(tmp_path / "tiny.json", {"type": "constant", "p": 1e-120})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["conditions"]["evidence"]["E_p_neg_gamma"] == "inf"
        assert not report["conditions"]["holds_c3"] and not report["eligible"]

    def test_reports_are_strict_json(self, tmp_path):
        # non-finite floats are written as the strings "inf", "-inf", "nan"
        def reject(token):
            raise ValueError(f"bare {token} in strict JSON")

        cfg = write_config(tmp_path / "tiny.json", {"type": "constant", "p": 1e-120})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        for name in ("report.json", "manifest.json"):
            json.loads((tmp_path / "o" / name).read_text(), parse_constant=reject)


class TestCsvWriter:
    """The one CSV writer against the row-by-row writers it replaced."""

    @staticmethod
    def check_clt_run(tmp_path, command, experiment):
        """The writer against the references on a run with ties, and the CLI's cdf.csv."""
        experiment = {**experiment, "replicas": 2000, "ks_threshold": 1.0}
        cfg = harness.ExperimentConfig(model=IidDiscrete(atoms=((0.8, 0.5), (0.6, 0.5))),
                                       master_seed=11, **experiment)
        rep = getattr(harness, experiment["kind"])(cfg)
        assert rep.values.size < rep.replicas / 4  # many replicas share a T(n) or X(t)
        text = assert_same_csvs(tmp_path, rep)
        out = tmp_path / "cli"
        cli_cfg = write_config(tmp_path / "c.json",
                               {"type": "iid_discrete", "atoms": [[0.8, 0.5], [0.6, 0.5]]},
                               experiment, {"master": 11})
        assert main([command, "--config", cli_cfg, "--out", str(out)]) == 0
        assert (out / "cdf.csv").read_text() == text

    def test_clt_run_with_ties(self, tmp_path):
        self.check_clt_run(tmp_path, "clt-hitting", {"kind": "clt_hitting", "n": 200})

    def test_clt_position_run_with_ties(self, tmp_path):
        self.check_clt_run(tmp_path, "clt-position",
                           {"kind": "clt_position", "t": 400, "env_replicates": 2})

    def test_special_values(self, tmp_path):
        # an integer sample standardized by a positive scale holds no -0.0 and
        # no NaN; it can hold values in exponent form, ties, and a Phi that is
        # subnormal or exactly 0.0 or 1.0
        raw = np.array([3, 4, 4, 2, -3_799_997, -4_099_997, 10**15, -10**15, 3, 5, 5, 5, 4])
        rows, values, counts, phi, _ = harness._cdf_table(raw, 3.0, 1e5)
        report = SimpleNamespace(raw_samples=raw, centering_value=3.0, scale_value=1e5,
                                 rows=rows, values=values, counts=counts, phi=phi)
        assert phi[0] == phi[1] == 0.0 and 0.0 < phi[2] < 2.2250738585072014e-308 and phi[-1] == 1.0
        text = assert_same_csvs(tmp_path, report)
        assert "\n-38.0,0.23076923076923078,2.88542835e-316," in text
        assert "\n1e-05,0.6923076923076923,0.500003989422804," in text
        assert "\n9999999999.99997,1.0,1.0,0.0\n" in text


class TestSeedPrecedence:
    def test_flag_beats_everything(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path / "c.json", {"type": "constant", "p": 0.75},
            {"kind": "clt_hitting", "n": 200, "replicas": 150}, {"master": 1},
        )
        monkeypatch.setenv("RWRE_SEED", "2")
        out = tmp_path / "r"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["master_seed"] == 3

    def test_env_beats_config(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path / "c.json", {"type": "constant", "p": 0.75},
            {"kind": "clt_hitting", "n": 200, "replicas": 150}, {"master": 1},
        )
        monkeypatch.setenv("RWRE_SEED", "2")
        out = tmp_path / "r"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["master_seed"] == 2

    def test_default_seed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RWRE_SEED", raising=False)
        cfg = write_config(
            tmp_path / "c.json", {"type": "constant", "p": 0.75},
            {"kind": "clt_hitting", "n": 200, "replicas": 150},
        )
        out = tmp_path / "r"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["master_seed"] == 0xC0FFEE


class TestSubcommands:
    def test_clt_position_with_centering_flag(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"type": "quasi_periodic", "alpha": 0.6180339887498949, "omega0": 0.0,
             "coeffs": [0.7, 0.1]},
            {"kind": "clt_position", "t": 400, "replicas": 300, "ks_threshold": 0.12},
        )
        out = tmp_path / "r"
        code = main(["clt-position", "--config", cfg, "--out", str(out),
                     "--centering", "implicit"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["centering"] == "implicit"
        assert 0.0 <= report["ks_distance"] <= 1.0
        assert report["verdict"] in ("pass", "fail")

    def test_clt_outputs_read_one_table(self, tmp_path):
        # cdf.csv, ks_distance, cdf_errors and ks_distribution all come from
        # the first replicate's sorted standardized sample and its Phi
        x_grid = [-1.5, -0.25, 0.0, 0.5, 2.0]
        cfg = write_config(
            tmp_path / "c.json", {"type": "iid_discrete", "atoms": [[0.8, 0.5], [0.6, 0.5]]},
            {"kind": "clt_position", "t": 400, "replicas": 300, "ks_threshold": 1.0,
             "env_replicates": 2, "x_grid": x_grid},
            {"master": 5},
        )
        out = tmp_path / "r"
        assert main(["clt-position", "--config", cfg, "--out", str(out)]) == 0
        samples = [line.split(",") for line in (out / "samples.csv").read_text().splitlines()[1:]]
        rows = [[float(v) for v in line.split(",")]
                for line in (out / "cdf.csv").read_text().splitlines()[1:]]
        report = json.loads((out / "report.json").read_text())
        m = len(rows)
        xs = [row[0] for row in rows]
        assert xs == sorted(float(s[2]) for s in samples)
        phi = harness.normal_cdf(np.array(xs))
        ks = 0.0
        for i, (x, ecdf, f, diff) in enumerate(rows, start=1):
            assert f == phi[i - 1]
            assert ecdf == i / m
            assert diff == ecdf - f
            ks = max(ks, abs(i / m - f), abs((i - 1) / m - f))
        assert report["ks_distance"] == ks
        assert [row["x"] for row in report["cdf_errors"]] == x_grid
        for row in report["cdf_errors"]:
            assert row["ecdf"] == sum(x <= row["x"] for x in xs) / m
        assert len(report["ks_distribution"]) == 2
        assert report["ks_distribution"][0] == report["ks_distance"]

    def test_analyze_report_schema(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"type": "constant", "p": 0.75})
        out = tmp_path / "r"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["classification"]["regime"] == "transient_right"
        assert report["growth_rates"]["log_convex"] is True
        assert report["eligible"] is True
        assert report["summary"]["mu"] == pytest.approx(2.0, abs=1e-9)

    def test_analyze_recurrent_still_works(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"type": "constant", "p": 0.5})
        out = tmp_path / "r"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["eligible"] is False
        assert (out / "manifest.json").exists()

    def test_lln_and_diagnostics(self, tmp_path):
        lln_cfg = write_config(
            tmp_path / "lln.json", {"type": "constant", "p": 0.75},
            {"kind": "lln", "n": 5000, "t": 5000, "replicas": 100, "lln_rel_tol": 0.08},
        )
        out1 = tmp_path / "lln"
        assert main(["lln", "--config", lln_cfg, "--out", str(out1)]) == 0
        rep = json.loads((out1 / "report.json").read_text())
        assert rep["verdict"] is True
        diag_cfg = write_config(
            tmp_path / "diag.json", {"type": "constant", "p": 0.75},
            {"kind": "diagnostics", "replicas": 100,
             "t_grid": [100, 1000], "n_grid": [10, 100], "x_grid": [0.0, 1.0]},
        )
        out2 = tmp_path / "diag"
        assert main(["diagnostics", "--config", diag_cfg, "--out", str(out2)]) == 0
        rep = json.loads((out2 / "report.json").read_text())
        assert rep["explicit_decreasing"] is True
        assert rep["ergodicity"]["epsilon"] == [0.0, 0.0]

    def test_oracle_check_constant(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", {"type": "constant", "p": 0.75},
            {"replicas": 200_000},
        )
        out = tmp_path / "r"
        assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["max_mu_gap"] <= 1e-8
        assert rep["max_sigma2_gap"] <= 1e-7
        table = rep["sigma2_table"]
        assert table["closed_form_printed"] == pytest.approx(5.0, rel=1e-9)
        assert table["closed_form_corrected"] == pytest.approx(6.0, rel=1e-9)
        assert table["mismatch_flagged"] is True
        assert rep["forcing_audit"]["swapped_form_inconsistent"] is True

    def test_oracle_check_recurrent_clean_report(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"type": "constant", "p": 0.5})
        out = tmp_path / "r"
        assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == 3
        rep = json.loads((out / "report.json").read_text())
        assert rep["eligible"] is False
        assert rep["regime"] == "recurrent"
        assert json.loads((out / "manifest.json").read_text())["command"] == "oracle-check"


class TestManifest:
    def test_contents(self, tmp_path, small_hitting_config):
        out = tmp_path / "r"
        assert main(["simulate", "--config", small_hitting_config, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"]["name"] == "rwre"
        assert manifest["config"]["model"] == {"type": "constant", "p": 0.75}
        assert "env_seed" in manifest["config"] and "walk_seed" in manifest["config"]
        assert set(manifest["outputs"]) == {"report.json", "samples.csv", "cdf.csv"}
        for digest in manifest["outputs"].values():
            assert len(digest["sha256"]) == 64

    def test_lists_only_this_runs_files(self, tmp_path, small_hitting_config):
        # an lln run into a CLT run's directory digests its own report, and
        # leaves the CLT run's CSVs where they were
        out = tmp_path / "r"
        assert main(["clt-hitting", "--config", small_hitting_config, "--out", str(out)]) == 0
        csvs = {name: (out / name).read_bytes() for name in ("samples.csv", "cdf.csv")}
        lln_cfg = write_config(
            tmp_path / "lln.json", {"type": "iid_discrete", "atoms": [[0.8, 0.5], [0.6, 0.5]]},
            {"kind": "lln", "n": 200, "t": 400},
        )
        assert main(["lln", "--config", lln_cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "lln"
        assert set(manifest["outputs"]) == {"report.json"}
        assert {name: (out / name).read_bytes() for name in csvs} == csvs


class TestFrozenImportHeap:
    """Each check runs in a fresh interpreter, whatever this session has imported."""

    @pytest.mark.parametrize("module,frozen", [("rwre", False), ("rwre.cli", True)])
    def test_only_the_cli_import_freezes(self, run_fresh, module, frozen):
        count = int(run_fresh(f"import gc, {module}\nprint(gc.get_freeze_count())"))
        assert (count > 0) == frozen

    def test_module_run_matches_in_process_run(self, tmp_path, run_fresh, small_hitting_config):
        outs = {name: tmp_path / name for name in ("module", "in_process")}
        subprocess.run([sys.executable, "-m", "rwre.cli", "clt-hitting", "--config",
                        small_hitting_config, "--out", str(outs["module"])],
                       env=run_fresh.env, capture_output=True, timeout=120, check=True)
        assert main(["clt-hitting", "--config", small_hitting_config,
                     "--out", str(outs["in_process"])]) == 0
        for name in ("report.json", "samples.csv", "cdf.csv"):
            assert (outs["module"] / name).read_bytes() == (outs["in_process"] / name).read_bytes()
