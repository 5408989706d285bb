"""Command-line experiment runner.

Subcommands: simulate, analyze, clt-hitting, clt-position, lln, diagnostics,
oracle-check.  A run consumes one JSON config file and writes a per-run
directory containing manifest.json (config snapshot, seeds, timestamps,
output digests), report.json (no timing, byte-stable across reruns), and for
sampling experiments samples.csv and cdf.csv.

Exit codes: 0 success, 2 configuration error, 3 eligibility error,
4 numerical non-convergence, 5 guard breach or step budget; each error class
in ``rwre.errors`` carries its code and the label printed to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analytics, harness, oracle
from .environment import (
    check_conditions,
    classify,
    model_from_dict,
    model_to_dict,
    odds_growth_rate,
    realize,
    suggested_burn_in,
)
from .errors import ConfigError, NotCltEligibleError, RwreError
from .harness import ExperimentConfig

# settable in config.experiment: every ExperimentConfig field but the model
# and the seeds, which have their own config sections
_EXPERIMENT_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)} - {
    "model", "master_seed", "env_seed", "walk_seed",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rwre", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _REPORTS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--workers", type=int, default=None,
                       help="accepted and ignored: every sampler runs in one process")
        p.add_argument(
            "--centering", choices=("explicit", "implicit"), default=None,
            help="position centering override",
        )
    return parser


def _load_config(path: str, args) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict) or "model" not in raw:
        raise ConfigError("config: top-level object with a 'model' field is required")
    unknown = set(raw) - {"model", "experiment", "seeds"}
    if unknown:
        raise ConfigError(f"config: unknown top-level fields {sorted(unknown)}")
    model = model_from_dict(raw["model"])
    experiment = raw.get("experiment", {})
    if not isinstance(experiment, dict):
        raise ConfigError("config.experiment: must be an object")
    unknown = set(experiment) - _EXPERIMENT_FIELDS
    if unknown:
        raise ConfigError(f"config.experiment: unknown fields {sorted(unknown)}")
    seeds = raw.get("seeds", {})
    if not isinstance(seeds, dict):
        raise ConfigError("config.seeds: must be an object")
    unknown = set(seeds) - {"master", "env", "walk"}
    if unknown:
        raise ConfigError(f"config.seeds: unknown fields {sorted(unknown)}")

    fields = dict(experiment)
    # the flag beats RWRE_SEED, which beats seeds.master; with none of them
    # set, ExperimentConfig's default master seed holds
    master = seeds.get("master")
    if os.environ.get("RWRE_SEED"):
        try:
            master = int(os.environ["RWRE_SEED"], 0)
        except ValueError:
            raise ConfigError("RWRE_SEED: must be an integer")
    if args.seed is not None:
        master = args.seed
    if master is not None:
        fields["master_seed"] = master
    if args.centering is not None:
        fields["centering"] = args.centering
    try:
        return ExperimentConfig(
            model=model,
            env_seed=seeds.get("env"),
            walk_seed=seeds.get("walk"),
            **fields,
        )
    except TypeError as exc:
        raise ConfigError(f"config.experiment: {exc}")


def _jsonify(value):
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):  # non-finite as in samples.csv: inf, -inf, nan
        return float(value) if math.isfinite(value) else repr(float(value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonify(dataclasses.asdict(value))
    return value


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonify(payload), sort_keys=True, indent=2, allow_nan=False) + "\n")


def _write_samples(path: Path, raw: np.ndarray, standardized: np.ndarray) -> None:
    """One row per replica; raw samples are integer arrays (T(n) or X(t))."""
    with open(path, "w", newline="\n") as fh:
        fh.write("replica,value,standardized\n")
        for i, (v, z) in enumerate(zip(raw.tolist(), standardized.tolist())):
            fh.write(f"{i},{v},{z!r}\n")


def _write_cdf(path: Path, zs: np.ndarray, phi: np.ndarray) -> None:
    """One row per order statistic: the sorted standardized sample and its Phi,
    both as the report carries them; ecdf is i/m."""
    m = len(zs)
    with open(path, "w", newline="\n") as fh:
        fh.write("x,ecdf,phi,diff\n")
        for i, (z, f) in enumerate(zip(zs.tolist(), phi.tolist()), start=1):
            ecdf = i / m
            fh.write(f"{z!r},{ecdf!r},{f!r},{ecdf - f!r}\n")


def _config_snapshot(config: ExperimentConfig) -> dict:
    snap = dataclasses.asdict(config)
    snap["model"] = model_to_dict(config.model)
    snap["env_seed"] = config.resolved_env_seed()
    snap["walk_seed"] = config.resolved_walk_seed()
    return snap


def _clt_report(report: harness.ExperimentReport, out: Path) -> dict:
    """report.json payload of one CLT item; writes its samples.csv and cdf.csv."""
    z = report.standardized
    _write_samples(out / "samples.csv", report.raw_samples, z)
    _write_cdf(out / "cdf.csv", report.sorted_standardized, report.sorted_phi)
    return {
        "kind": report.kind,
        "scale": report.scale,
        "replicas": report.replicas,
        "centering": report.centering,
        "ks_distance": report.ks_distance,
        "threshold": report.threshold,
        "verdict": "pass" if report.verdict else "fail",
        "centering_value": report.centering_value,
        "scale_value": report.scale_value,
        "window_mu": report.window_mu,
        "window_sigma2": report.window_sigma2,
        "summary": dataclasses.asdict(report.summary),
        "cdf_errors": [
            {"x": x, "ecdf": e, "phi": p, "diff": e - p} for x, e, p in report.cdf_errors
        ],
        "sample_stats": {
            "count": len(z),
            "mean": float(z.mean()),
            "variance": float(z.var(ddof=1)),
        },
        "ks_distribution": list(report.ks_distribution),
        "seeds": {"env": report.env_seed, "walk": report.walk_seed},
    }


def _simulate_report(config: ExperimentConfig, out: Path) -> dict:
    """The CLT item ``config.kind`` names; any other kind runs the hitting experiment."""
    command = "clt-position" if config.kind == "clt_position" else "clt-hitting"
    return {**_REPORTS[command](config, out), "kind": "simulate"}


def _analyze_report(config: ExperimentConfig, _out: Path) -> dict:
    model = config.model
    cls = classify(model)
    kappa_grid = [0.25 * i for i in range(9)]
    growth = [odds_growth_rate(model, k) for k in kappa_grid]
    log_growth = [float(np.log(g)) for g in growth]
    second_diff = [
        log_growth[i + 1] - 2 * log_growth[i] + log_growth[i - 1]
        for i in range(1, len(log_growth) - 1)
    ]
    payload = {
        "kind": "analyze",
        "model": model_to_dict(model),
        "classification": {
            "regime": cls.regime.value,
            "lambda": cls.log_odds_mean,
            "tolerance": cls.tolerance,
            "within_tolerance": cls.within_tolerance,
            "method": cls.method,
        },
        "growth_rates": {
            "kappa": kappa_grid,
            "value": growth,
            "log_second_differences": second_diff,
            "log_convex": bool(all(d >= -1e-9 for d in second_diff)),
        },
        "conditions": dataclasses.asdict(check_conditions(model)),
    }
    try:
        summ = analytics.summary(model)
        payload["summary"] = dataclasses.asdict(summ)
        payload["eligible"] = True
    except NotCltEligibleError as exc:
        payload["summary"] = None
        payload["eligible"] = False
        payload["eligibility_error"] = str(exc)
    return payload


def _oracle_check_report(config: ExperimentConfig, _out: Path) -> dict:
    """Cross-module equivalence audit on the configured model."""
    model = config.model
    conditions = check_conditions(model)
    payload: dict = {
        "kind": "oracle_check",
        "model": model_to_dict(model),
        "regime": conditions.regime,
        "eligible": conditions.clt_eligible,
    }
    if not conditions.clt_eligible:
        payload["eligibility_error"] = (
            f"model is not CLT-eligible: regime={conditions.regime}, r2={conditions.r2!r}"
        )
        return payload

    a, n = -40, 160
    margin = max(suggested_burn_in(model), -a + 8)
    env_seed = config.resolved_env_seed()
    window = realize(model, a - margin, n + 8, env_seed)
    e = oracle.expected_hitting_times(window, a, n)
    v = oracle.hitting_time_variances(window, a, n)
    mu_inc = e.increments()
    v_inc = v.increments()
    interior = range(40, n - 10)
    mu_gap = 0.0
    sg_gap = 0.0
    for k in interior:
        site = analytics.site_variance(window, k)
        mu_gap = max(mu_gap, abs(site.mu - mu_inc[k - a]))
        sg_gap = max(sg_gap, abs(site.sigma2 - v_inc[k - a]))
    forcing = oracle.forcing_terms(window, e)
    summ = analytics.summary(model)
    mc_n = max(200_000, config.replicas)
    mc = oracle.mc_crossing_moments(window, 0, mc_n, config.resolved_walk_seed())
    payload.update(
        {
            "max_mu_gap": mu_gap,
            "max_sigma2_gap": sg_gap,
            "solver_residuals": {"expectation": e.residual, "variance": v.residual},
            "sigma2_table": {
                "closed_form_printed": summ.sigma2_closed_form_printed,
                "closed_form_corrected": summ.sigma2_closed_form,
                # the key predates the exact sigma2 and is kept for readers of
                # the report (acceptance criterion 3 among them)
                "ergodic_average": summ.sigma2,
                "monte_carlo": mc.variance,
                "monte_carlo_se": mc.variance_se,
                "monte_carlo_samples": mc.n_samples,
                "mismatch_flagged": summ.closed_form_mismatch,
            },
            "mu_table": {
                "exact": summ.mu,
                "method": summ.method,
                "monte_carlo": mc.mean,
                "monte_carlo_se": mc.mean_se,
            },
            "forcing_audit": {
                "max_gap_mean_form": forcing["max_gap_mean_form"],
                "max_gap_swapped": forcing["max_gap_swapped"],
                "swapped_form_inconsistent": bool(
                    forcing["max_gap_swapped"] > 100 * max(forcing["max_gap_mean_form"], 1e-12)
                ),
            },
        }
    )
    return payload


def _diagnostics_report(config: ExperimentConfig, _out: Path) -> dict:
    diag = harness.fluctuation_diagnostics(config)
    erg = harness.uniform_ergodicity_estimate(
        config.model, diag.n_grid, seed=config.resolved_env_seed()
    )
    return {
        "kind": "diagnostics",
        "model": model_to_dict(config.model),
        **dataclasses.asdict(diag),
        "ergodicity": dataclasses.asdict(erg),
    }


def _lln_report(config: ExperimentConfig, _out: Path) -> dict:
    rep = harness.lln_check(config)
    return {"kind": "lln", "model": model_to_dict(config.model), **dataclasses.asdict(rep)}


# subcommand -> report(config, out), which returns its report.json payload, in help order;
# ``harness`` is read at call time, so a wrapped harness function is the one run
_REPORTS = {
    "simulate": _simulate_report,
    "analyze": _analyze_report,
    "clt-hitting": lambda config, out: _clt_report(harness.clt_hitting(config), out),
    "clt-position": lambda config, out: _clt_report(harness.clt_position(config), out),
    "lln": _lln_report,
    "diagnostics": _diagnostics_report,
    "oracle-check": _oracle_check_report,
}


def _digest(path: Path) -> dict:
    data = path.read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _run(args) -> int:
    config = _load_config(args.config, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    command = args.command
    payload = _REPORTS[command](config, out)
    _write_json(out / "report.json", payload)
    outputs = {}
    for name in ("report.json", "samples.csv", "cdf.csv"):
        path = out / name
        if path.exists():
            outputs[name] = _digest(path)
    manifest = {
        "tool": {"name": "rwre", "version": __version__},
        "command": command,
        "config": _config_snapshot(config),
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "runtime_seconds": time.perf_counter() - t0,
        "outputs": outputs,
    }
    _write_json(out / "manifest.json", manifest)
    # an ineligible law's audit is still written in full, then exits 3
    if command == "oracle-check" and not payload["eligible"]:
        return NotCltEligibleError.exit_code
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except RwreError as exc:  # each error class carries its label and exit code
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
