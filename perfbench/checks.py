"""Output checks for benchmark items.

Every check holds whichever sampler produced the output: parities and ranges
of T(n) and X(t), unbiasedness of the standardized samples against exact
centerings, exact law constants, solver residuals, total mass and manifest
digests.  A check that fails counts its experiment as failed.  CLT and LLN
verdicts and KS distances are outputs, not checks, so that verdict flips stay
visible without failing the run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import LAWS

# two-point law {(0.8, 1/2), (0.6, 1/2)}: r1 = E[(1-p)/p], r2 = E[((1-p)/p)^2]
TWO_POINT_R1 = float(Fraction(1, 2) * Fraction(1, 4) + Fraction(1, 2) * Fraction(2, 3))
TWO_POINT_R2 = float(Fraction(1, 2) * Fraction(1, 16) + Fraction(1, 2) * Fraction(4, 9))
TWO_POINT_MU = 35.0 / 13.0
Z_MEAN_LIMIT = 6.0      # |mean z| sqrt(R) and |mean X - exact| / SE
RESIDUAL_LIMIT = 1e-8   # oracle-check solver residuals and series/solver gaps
MASS_TOL = 1e-9


class ExactPositionMeans:
    """Exact quenched (E X(t), total mass), computed once per (law, env seed, t)."""

    def __init__(self):
        self._cache = {}

    def law(self, model: dict, env_seed: int, t: int) -> tuple[float, float]:
        key = (json.dumps(model, sort_keys=True), env_seed, t)
        if key not in self._cache:
            from rwre import exact_position_distribution, realize
            from rwre.environment import model_from_dict

            window = realize(model_from_dict(model), -t - 1, t + 1, env_seed)
            pmf = exact_position_distribution(window, 0, t)
            mass = float(pmf.probabilities.sum())
            self._cache[key] = (pmf.mean(), mass)
        return self._cache[key]


def _read_values(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([int(row["value"]) for row in rows], dtype=np.int64)


def _digests(out: Path, manifest: dict) -> list[str]:
    bad = []
    for name, digest in manifest["outputs"].items():
        data = (out / name).read_bytes()
        if hashlib.sha256(data).hexdigest() != digest["sha256"] or len(data) != digest["bytes"]:
            bad.append(f"manifest digest of {name} does not match the file")
    return bad


def _hitting(report, config, out, exact):
    n = config["experiment"]["n"]
    replicas = config["experiment"]["replicas"]
    values = _read_values(out / "samples.csv")
    bad = []
    if len(values) != replicas:
        bad.append(f"{len(values)} samples, expected {replicas}")
    if values.min() < n:
        bad.append(f"T(n) < n: min {values.min()}")
    if np.any((values - n) % 2):
        bad.append("T(n) and n differ in parity")
    z = (values - report["centering_value"]) / report["scale_value"]
    if abs(z.mean()) * math.sqrt(len(z)) > Z_MEAN_LIMIT:
        bad.append(f"|mean z| sqrt(R) = {abs(z.mean()) * math.sqrt(len(z)):.3f} > {Z_MEAN_LIMIT}")
    return bad


def _position(report, config, out, exact):
    t = config["experiment"]["t"]
    replicas = config["experiment"]["replicas"]
    values = _read_values(out / "samples.csv")
    bad = []
    if len(values) != replicas:
        bad.append(f"{len(values)} samples, expected {replicas}")
    if np.any((values - t) % 2):
        bad.append("X(t) and t differ in parity")
    if np.abs(values).max() > t:
        bad.append("|X(t)| > t")
    mean, mass = exact.law(config["model"], report["seeds"]["env"], t)
    if abs(mass - 1.0) > MASS_TOL:
        bad.append(f"exact pmf mass {mass!r} != 1")
    se = values.std(ddof=1) / math.sqrt(len(values))
    if abs(values.mean() - mean) > Z_MEAN_LIMIT * se:
        bad.append(f"mean X(t) {values.mean():.3f} is {abs(values.mean() - mean) / se:.2f} SE "
                   f"from the exact {mean:.3f}")
    return bad


def _lln(report, config, out, exact):
    bad = []
    for m, ratio in zip(report["n_grid"], report["hitting_ratios"]):
        hit = round(ratio * m)
        if hit < m or (hit - m) % 2:
            bad.append(f"T({m}) = {hit} violates T(n) >= n or parity")
    for t, ratio in zip(report["t_grid"], report["position_ratios"]):
        x = round(ratio * t)
        if abs(x) > t or (x - t) % 2:
            bad.append(f"X({t}) = {x} violates |X(t)| <= t or parity")
    return bad


def _analyze(report, config, out, exact):
    bad = []
    if not report["eligible"] or report["classification"]["regime"] != "transient_right":
        bad.append("law reported as not CLT-eligible or not transient right")
    if config["model"] == LAWS["two-point"]:
        summ = report["summary"]
        for name, got, want in (("mu", summ["mu"], TWO_POINT_MU), ("r1", summ["r1"], TWO_POINT_R1),
                                ("r2", summ["r2"], TWO_POINT_R2)):
            if abs(got - want) > 1e-12 * want:
                bad.append(f"two-point {name} = {got!r}, exact {want!r}")
    return bad


def _diagnostics(report, config, out, exact):
    bad = []
    if len(report["env_seeds"]) != config["experiment"]["env_replicates"]:
        bad.append("diagnostics did not cover every env replicate")
    values = np.array(report["explicit_window_sums"], dtype=float)
    if not np.all(np.isfinite(values)):
        bad.append("non-finite explicit window sums")
    return bad


def _oracle_check(report, config, out, exact):
    bad = []
    residuals = report["solver_residuals"]
    for name in ("expectation", "variance"):
        if not residuals[name] <= RESIDUAL_LIMIT:
            bad.append(f"{name} solver residual {residuals[name]!r}")
    if not report["max_mu_gap"] <= RESIDUAL_LIMIT:
        bad.append(f"max_mu_gap {report['max_mu_gap']!r}")
    return bad


def _library(result, config, out, exact):
    bad = []
    for law in result["position_laws"]:
        if abs(law["mass"] - 1.0) > MASS_TOL:
            bad.append(f"exact pmf at t={law['t']} has mass {law['mass']!r}")
        if not law["parity_ok"] or abs(law["mean"]) > law["t"]:
            bad.append(f"exact pmf at t={law['t']} is off the parity lattice or has |mean| > t")
    chain = result["chain"]
    if not chain["residual"] <= RESIDUAL_LIMIT * max(1.0, abs(chain["v0"])) or chain["min"] < 0:
        bad.append(f"variance solve residual {chain['residual']!r} or negative variance")
    return bad


_BY_COMMAND = {
    "clt-hitting": _hitting,
    "simulate": _hitting,
    "clt-position": _position,
    "lln": _lln,
    "analyze": _analyze,
    "diagnostics": _diagnostics,
    "oracle-check": _oracle_check,
}


def verdict(command: str, report: dict) -> dict:
    """The experiment's own verdict and KS, reported as outputs."""
    if command in ("clt-hitting", "simulate", "clt-position"):
        return {"verdict": report["verdict"], "ks": report["ks_distance"],
                "threshold": report["threshold"]}
    if command == "lln":
        return {"verdict": "pass" if report["verdict"] else "fail",
                "hitting_rel_error": report["hitting_rel_error"],
                "position_rel_error": report["position_rel_error"]}
    if command == "diagnostics":
        return {"explicit_decreasing": report["explicit_decreasing"],
                "uniformly_ergodic": report["ergodicity"]["uniformly_ergodic"]}
    if command == "oracle-check":
        return {"mismatch_flagged": report["sigma2_table"]["mismatch_flagged"]}
    return {}


def check(command: str, config: dict, out: Path, exact: ExactPositionMeans):
    """Return (failures, verdict) for one finished item's output directory."""
    try:
        if command == "library":
            result = json.loads((out / "library.json").read_text())
            return _library(result, config, out, exact), {}
        manifest = json.loads((out / "manifest.json").read_text())
        report = json.loads((out / "report.json").read_text())
        failures = _digests(out, manifest) + _BY_COMMAND[command](report, config, out, exact)
        return failures, verdict(command, report)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}
