"""Run one benchmark item in this fresh interpreter and stamp its phases.

    python3 perfbench/launch.py STAMP TRACE COMMAND --config CFG --out DIR [...]

COMMAND is an ``rwre`` CLI subcommand, run through ``rwre.cli.main`` exactly
as the ``rwre`` entry point runs it, or ``library`` for the library item.
STAMP is a JSON file written when the item ends, holding monotonic clock
stamps (``imported``, ``ready`` once the config is parsed, ``main_end``),
the two reference times (``reference_s``), the peak RSS, and with TRACE=1
the layer spans.

The reference is fixed work of the same kind as rwre's hot loops (lockstep
numpy steps over 1024 walkers and a per-step Python loop), timed right after
the imports and right after the command returns.  No change to rwre touches
it, so it measures how fast the host runs this process at that moment.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def reference() -> float:
    """Run the reference work and return its duration in seconds."""
    import numpy as np

    start = time.monotonic()
    rng = np.random.default_rng(12345)
    p = 0.55 + 0.3 * rng.random(8192)
    x = np.full(1024, 4096, dtype=np.int64)
    for _ in range(4000):
        x = np.where(rng.random(1024) < p[x], x + 1, x - 1)
    y = 4096
    for _ in range(300):
        for u in rng.random(1000).tolist():
            y += 1 if u < p[y & 8191] else -1
    return time.monotonic() - start


def main() -> int:
    stamp_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import rwre.cli as cli

    stamps = {"imported": time.monotonic()}
    reference_s = [reference()]
    tracer = None
    if trace:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    root = None

    def ready(name: str) -> None:
        nonlocal root
        stamps["ready"] = time.monotonic()
        if tracer is not None:
            root = tracer.open(name, stamps["ready"])

    if argv[0] == "library":
        import library

        config = library.load(argv[argv.index("--config") + 1])
        ready("library")
        code = library.run(config, Path(argv[argv.index("--out") + 1]))
    else:
        load_config = cli._load_config

        def stamped_load_config(*args, **kwargs):
            config = load_config(*args, **kwargs)
            ready(f"cli.{argv[0]}")
            return config

        cli._load_config = stamped_load_config
        code = cli.main(argv)
    if root is not None:
        tracer.close(root)
    stamps["main_end"] = time.monotonic()
    reference_s.append(reference())
    record = {
        "stamps": stamps,
        "reference_s": reference_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(stamp_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
