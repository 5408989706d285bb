"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q        (from the root of a checkout)

The count test runs one traced pass of every workload twice, so it takes
about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _span(group, start, end, parent, counts=None, error=None):
    return [group, start, end, parent, counts, error]


def test_self_times_subtract_direct_children():
    spans = [
        _span("cli.analyze", 0.0, 10.0, -1),
        _span("analytics.summary", 1.0, 6.0, 0),
        _span("environment.functionals", 2.0, 3.0, 1),
        _span("analytics.profile", 3.0, 5.0, 1, {"sites": 7}),
        _span("walk.hitting", 6.0, 9.0, 0, {"replicas": 2, "replica_steps": 30}, "LeftGuardBreachError"),
    ]
    assert layers.self_times(spans) == [2.0, 2.0, 1.0, 2.0, 3.0]
    out = layers.aggregate([{"spans": spans, "exit_s": 0.5, "output_bytes": 11}])
    assert out["cli.self_s"] == 2.0 and out["cli.analyze.s"] == 10.0
    assert out["analytics.summary.calls"] == 1 and out["analytics.profile.sites"] == 7
    assert out["analytics.profile.sites_per_s"] == 3.5
    assert out["walk.hitting.replica_steps_per_s"] == 10.0
    assert out["walk.errors"] == 1 and out["cli.output_bytes"] == 11
    assert layers.attributed_seconds(out) == 8.0
    # with the root's self time and the exit time, self times add up to the traced run time
    assert layers.attributed_seconds(out) + out["cli.self_s"] + out["process.exit_s"] == 10.5


def test_times_are_scaled_by_the_process_reference():
    item = workloads.WORKLOADS["clt-slow"][0]
    result = {"item": item, "code": 0, "t_spawn": 10.0, "t_reaped": 14.5, "maxrss_kb": 1024,
              "stamps": {"imported": 10.3, "ready": 10.6, "main_end": 14.0},
              "reference_s": [0.1, 0.3]}
    summary = run._summarize_pass([result], False)
    assert summary["run_s"] == pytest.approx(3.6) and summary["wall_setup"] == [pytest.approx(0.5)]
    scale = run.REFERENCE_NOMINAL_S / 0.2
    out = run._end_to_end([summary])
    assert out["run_s"] == pytest.approx(3.6 * scale) and out["setup_s"] == pytest.approx(0.5 * scale)
    assert out["peak_rss_mb"] == 1.0


_INSTALL_PROBE = """
import sys
import rwre.cli, rwre.harness, layers
from rwre.environment import IidDiscrete
originals = {id(getattr(sys.modules[m], a)) for m, owner, a, *_ in layers.SPEC if owner is None}
tracer = layers.Tracer()
layers.install(tracer)
left = [(m.__name__, n) for m in list(sys.modules.values())
        if getattr(m, "__name__", "").startswith("rwre")
        for n, v in vars(m).items() if id(v) in originals]
assert not left, left
window = rwre.harness.realize(IidDiscrete(atoms=((0.8, 0.5), (0.6, 0.5))), -300, 500, 3)
profile = rwre.harness.MomentProfile(window)
profile.explicit_center(400.0, 35 / 13)  # calls hitting_centering inside
assert tracer.spans[0][0] == "environment.realize" and tracer.spans[0][4] == {"sites": 801}
out = layers.aggregate([{"spans": tracer.spans, "exit_s": 0.0, "output_bytes": 0}])
assert out["analytics.profile.sites"] == profile.size > 0, out["analytics.profile.sites"]
"""


def test_install_wraps_every_binding_and_counts_nested_profile_calls_once():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(HERE), str(ROOT / "src")])}
    proc = subprocess.run([sys.executable, "-c", _INSTALL_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_for_the_same_seed(workload):
    work = ROOT / ".perfbench_work" / f"test-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        counts = []
        for rep in range(2):
            sub = work / f"rep{rep}"
            sub.mkdir()
            runner = run.Runner(ROOT, workload, 7, sub, deadline=float("inf"))
            summary = run._summarize_pass(runner.run_pass(True, 0), True)
            assert summary["run_s"] is not None, "an item failed"
            counts.append({k: v for k, v in summary["layers"].items() if layers.is_count(k)})
        assert counts[0] == counts[1]
        assert any(v > 0 for k, v in counts[0].items() if k.endswith((".sites", ".calls")))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_guard_breach_is_a_walk_error():
    work = ROOT / ".perfbench_work" / "test-guard"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = run.Runner(ROOT, "clt-fast", 7, work, deadline=float("inf"))
        item = workloads.Item("clt-hitting:two-point", "clt-hitting", "two-point",
                              {"kind": "clt_hitting", "n": 200, "replicas": 100, "left_guard": 1})
        path = work / "guard.json"
        runner.items = (item,)
        runner.configs = {item.name: (path, workloads.write_config("clt-fast", 7, item, path))}
        results = runner.run_pass(True, 0)
        assert results[0]["code"] == 5, results[0]["log"].read_text()
        summary = run._summarize_pass(results, True)
        assert summary["run_s"] is None
        metrics, _ = run._per_layer([summary])
        assert metrics["walk.errors"] >= 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "clt-fast", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0
        for line in proc.stdout.splitlines():
            with pytest.raises(ValueError):
                json.loads(line)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
