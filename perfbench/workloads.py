"""The benchmark's workloads: fixed experiment lists on four environment laws.

Every item runs in its own fresh interpreter with ``--workers 1``, as a CLI
user runs it.  Config master seeds (and so the walkers' seeds) are derived
from the workload seed, so the same seed gives the same inputs.  Each law's
environment is pinned to one realization: on the slow law the lockstep
hitting cost of one environment differs from another's by about 25%, which
would drown any change in the run-to-run spread, while across walker seeds in
one environment it moves by about 3%.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

LAWS = {
    # mu = 35/13, sigma2 ~ 19
    "two-point": {"type": "iid_discrete", "atoms": [[0.8, 0.5], [0.6, 0.5]]},
    # quasi-periodic rotation, mu ~ 2.51
    "golden": {
        "type": "quasi_periodic",
        "alpha": (math.sqrt(5.0) - 1.0) / 2.0,
        "omega0": 0.0,
        "coeffs": [0.7, 0.1],
    },
    # mu = 8, sigma2 ~ 1.1e3: heavy crossing tails
    "slow": {"type": "iid_discrete", "atoms": [[0.75, 0.5], [0.45, 0.5]]},
    "beta": {
        "type": "iid_parametric",
        "family": "beta",
        "p_lo": 0.55,
        "p_hi": 0.95,
        "params": {"a": 2.0, "b": 2.0},
    },
}

# The library item of "analysis": exact oracles on one two-point window.
LIBRARY_TIMES = (4000, 16000)
LIBRARY_CHAIN = (-2000, 200_000)


@dataclass(frozen=True)
class Item:
    """One experiment: a CLI subcommand (or ``library``) on one config."""

    name: str
    command: str
    law: str
    experiment: dict = field(default_factory=dict)


def _hitting(command, law):
    return Item(f"{command}:{law}", command, law,
                {"kind": "clt_hitting", "n": 2000, "replicas": 5000})


def _position(law, centering):
    return Item(f"clt-position:{law}:{centering}", "clt-position", law,
                {"kind": "clt_position", "t": 8000, "replicas": 5000, "centering": centering})


def _lln(law, n):
    return Item(f"lln:{law}", "lln", law, {"kind": "lln", "n": n, "t": 1_000_000})


WORKLOADS = {
    "clt-fast": (
        _hitting("clt-hitting", "two-point"),
        _hitting("clt-hitting", "golden"),
        _position("two-point", "explicit"),
        _position("golden", "implicit"),
        _lln("two-point", 300_000),
        _lln("golden", 300_000),
    ),
    "clt-slow": (
        _hitting("simulate", "slow"),
        _position("slow", "explicit"),
        _lln("slow", 100_000),
    ),
    "analysis": (
        Item("analyze:beta", "analyze", "beta"),
        Item("analyze:golden", "analyze", "golden"),
        Item("analyze:two-point", "analyze", "two-point"),
        Item("diagnostics:two-point", "diagnostics", "two-point",
             {"kind": "diagnostics", "env_replicates": 4}),
        Item("diagnostics:golden", "diagnostics", "golden",
             {"kind": "diagnostics", "env_replicates": 4}),
        Item("oracle-check:two-point", "oracle-check", "two-point"),
        Item("oracle-check:golden", "oracle-check", "golden"),
        Item("library:two-point", "library", "two-point"),
    ),
}


def _seed(key: str) -> int:
    """A 63-bit seed, a pure function of the key."""
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "little") >> 1


def write_config(workload: str, seed: int, item: Item, path: Path) -> dict:
    """Write the item's config file and return it."""
    seeds = {"master": _seed(f"{workload}/{seed}/{item.name}"), "env": _seed(f"env/{item.law}")}
    config = {"model": LAWS[item.law], "seeds": seeds}
    if item.command == "library":
        config["library"] = {"times": list(LIBRARY_TIMES), "chain": list(LIBRARY_CHAIN)}
    elif item.experiment:
        config["experiment"] = dict(item.experiment)
    path.write_text(json.dumps(config, indent=2) + "\n")
    return config
