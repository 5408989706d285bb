"""The library item of the ``analysis`` workload: exact oracles called directly.

On one two-point window it computes the exact position law X(t) at each
configured t and the exact hitting-time variances on the configured
interval, then writes the numbers the benchmark checks to ``library.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from rwre import exact_position_distribution, hitting_time_variances, realize
from rwre.environment import model_from_dict


def load(path: str) -> dict:
    """Parse the item's config: the model, the env seed and the oracle sizes."""
    raw = json.loads(Path(path).read_text())
    return {
        "model": model_from_dict(raw["model"]),
        "env_seed": int(raw["seeds"]["env"]),
        "times": [int(t) for t in raw["library"]["times"]],
        "chain": [int(x) for x in raw["library"]["chain"]],
    }


def run(config: dict, out: Path) -> int:
    times, (a, n) = config["times"], config["chain"]
    window = realize(config["model"], min(a, -max(times)), max(n, max(times)), config["env_seed"])
    laws = []
    for t in times:
        pmf = exact_position_distribution(window, 0, t)
        laws.append({
            "t": t,
            "mass": float(pmf.probabilities.sum()),
            "mean": pmf.mean(),
            "parity_ok": bool(np.all((pmf.support - t) % 2 == 0)),
        })
    v = hitting_time_variances(window, a, n)
    payload = {
        "position_laws": laws,
        "chain": {"a": a, "n": n, "residual": v.residual, "v0": v.value(0),
                  "min": float(v.h.min())},
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "library.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0
