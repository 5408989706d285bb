"""Print every benchmark metric with its unit and sample count.

    python3 perfbench/report.py [--seed N]

Run from the root of a checkout.  For each workload of ``BENCHMARK.json`` it
runs ``run.py`` for ``run_seconds``, once untraced and once traced, then
prints nproc, the Python, numpy and scipy versions, the git sha, each
experiment's verdict, the failure ratio, and a table of every end-to-end and
per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, list[dict]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"run.py failed on {workload}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("perfbench-info "))
    experiments = [json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("perfbench-experiment ")]
    return json.loads(lines[-1]), info, experiments


def _samples(name: str, info: dict) -> int:
    if name in ("setup_s", "peak_rss_mb", "setup.import_s"):
        return info["processes"]
    if name == "run_s":
        return info["passes"]
    return info["traced_passes"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    header_done = False
    for workload in (w["name"] for w in benchmark["workloads"]):
        print(f"\n== {workload}")
        for trace in (0, 1):
            result, info, experiments = run(workload, args.seed, seconds, trace)
            if not header_done:
                print("nproc={nproc} python={python} numpy={numpy} scipy={scipy} git_sha={git_sha}"
                      .format(**info))
                header_done = True
            if trace == 0:
                for exp in experiments:
                    print("  experiment " + json.dumps(exp))
            ratio = result["failed"] / result["attempted"]
            print(f"  trace={trace} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} failure_ratio={ratio:g} seed={args.seed}")
            for name, metric in result["metrics"].items():
                print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']:9s} "
                      f"n={_samples(name, info)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
