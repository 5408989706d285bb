"""Layer spans recorded from outside the program, and their aggregation.

A traced process calls ``install(Tracer())`` after importing ``rwre``.  Every
layer-boundary function listed in ``SPEC`` is replaced, in every ``rwre``
module that binds it, by a wrapper that records one span: group, start,
end, parent span and the counts taken from its arguments and result.  Spans
stay in memory and are written out once when the process ends.

``aggregate`` turns the spans of one pass into per-layer numbers.  Every
``<group>.s`` is self time: the span's duration minus the time covered by
its child spans, so the self times of a pass add up to its traced run time.
``analytics.summary.total_s`` is the one inclusive time, because ``summary``
spends most of its time in the environment and profile layers it calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Groups whose self time is reported under the group name plus ".s".
GROUPS = (
    "environment.realize",
    "environment.functionals",
    "analytics.summary",
    "analytics.reference_mean",
    "analytics.profile",
    "analytics.site_moments",
    "walk.hitting",
    "walk.position",
    "walk.trajectory",
    "oracle.finite_chain",
    "oracle.position_law",
    "oracle.mc_crossing",
    "harness.ks",
)
# Groups counted by their number of spans, as "<group>.calls".
CALL_GROUPS = (
    "environment.functionals",
    "analytics.summary",
    "analytics.site_moments",
)
CLI_COMMANDS = (
    "simulate", "analyze", "clt-hitting", "clt-position", "lln", "diagnostics", "oracle-check",
)
# Errors that mark a walk span as a guard breach or an exhausted step budget.
_WALK_ERROR_TYPES = (
    "GuardBreachError", "LeftGuardBreachError", "RightGuardBreachError",
    "StepBudgetExceededError",
)


def _hitting_counts(bound, result, nested):
    return {
        "replicas": int(bound["n_replicas"]),
        "replica_steps": int(result.sum()),
    }


def _position_counts(bound, result, nested):
    return {
        "replicas": int(bound["n_replicas"]),
        "replica_steps": int(bound["n_replicas"]) * int(bound["t_steps"]),
    }


def _trajectory_steps(bound, result, nested):
    """Steps one trajectory took: it stops at the first step where every goal is met."""
    if result.path is not None:
        return {"steps": len(result.path) - 1}
    t_list = list(bound.get("t_list", ()))
    t_stop = max(t_list) if t_list else 0
    n_goal = bound.get("n_goal", bound.get("n"))
    index = None if n_goal is None else int(n_goal) - int(bound.get("z0", 0))
    if index is None or index >= len(result.hit):
        return {"steps": t_stop}
    return {"steps": max(t_stop, int(result.hit[index]))}


def _realize_sites(bound, result, nested):
    return {"sites": int(bound["hi"]) - int(bound["lo"]) + 1}


def _chain_sites(bound, result, nested):
    return {"sites": int(bound["n"]) - int(bound["a"]) + 1}


def _position_law_cells(bound, result, nested):
    t = int(bound["t"])
    return {"cell_steps": t * (2 * t + 1)}


def _mc_steps(bound, result, nested):
    return {"steps": int(round(result.mean * result.n_samples))}


def _ks_samples(bound, result, nested):
    return {"samples": len(bound["samples"])}


def _profile_before(bound):
    try:
        return bound["self"].size
    except AttributeError:  # __init__ has not built the arrays yet
        return 0


def _profile_sites(bound, result, nested, before):
    # a profile method called by another profile method is already counted
    return {"sites": 0 if nested else bound["self"].size - before}


# (module, owner class or None, attribute, group, count function, pre hook)
SPEC = (
    ("rwre.environment", None, "realize", "environment.realize", _realize_sites, None),
    ("rwre.environment", None, "mean_log_odds", "environment.functionals", None, None),
    ("rwre.environment", None, "odds_growth_rate", "environment.functionals", None, None),
    ("rwre.environment", None, "classify", "environment.functionals", None, None),
    ("rwre.environment", None, "check_conditions", "environment.functionals", None, None),
    ("rwre.environment", None, "suggested_left_guard", "environment.functionals", None, None),
    ("rwre.environment", None, "suggested_burn_in", "environment.functionals", None, None),
    ("rwre.analytics", None, "summary", "analytics.summary", None, None),
    ("rwre.analytics", None, "reference_crossing_mean", "analytics.reference_mean", None, None),
    ("rwre.analytics", None, "site_mean", "analytics.site_moments", None, None),
    ("rwre.analytics", None, "site_variance", "analytics.site_moments", None, None),
    *(
        ("rwre.analytics", "MomentProfile", name, "analytics.profile", _profile_sites, _profile_before)
        for name in (
            "__init__", "mu_array", "sigma2_array", "hitting_centering",
            "implicit_center", "explicit_center",
        )
    ),
    ("rwre.walk", None, "batch_hitting_times", "walk.hitting", _hitting_counts, None),
    ("rwre.walk", None, "batch_positions", "walk.position", _position_counts, None),
    ("rwre.walk", None, "sample_position", "walk.trajectory", _trajectory_steps, None),
    ("rwre.walk", None, "sample_hitting_times", "walk.trajectory", _trajectory_steps, None),
    ("rwre.oracle", None, "solve_finite_chain", "oracle.finite_chain", _chain_sites, None),
    ("rwre.oracle", None, "expected_hitting_times", "oracle.finite_chain", None, None),
    ("rwre.oracle", None, "hitting_time_variances", "oracle.finite_chain", None, None),
    ("rwre.oracle", None, "forcing_terms", "oracle.finite_chain", None, None),
    ("rwre.oracle", None, "exact_position_distribution", "oracle.position_law",
     _position_law_cells, None),
    ("rwre.oracle", None, "mc_crossing_moments", "oracle.mc_crossing", _mc_steps, None),
    ("rwre.harness", None, "ks_distance", "harness.ks", _ks_samples, None),
    *(
        ("rwre.harness", None, name, "harness", None, None)
        for name in (
            "clt_hitting", "clt_position", "lln_check", "variance_ratio_check",
            "fluctuation_diagnostics", "uniform_ergodicity_estimate", "coupling_identity_check",
        )
    ),
)


class Tracer:
    """In-memory span recorder for one single-threaded process.

    A span is ``[group, start, end, parent, counts, error]`` with times from
    ``time.monotonic`` (the same clock in every process), ``parent`` the
    index of the enclosing span or -1, ``counts`` a dict or None, and
    ``error`` the exception class name when the call raised.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, group: str, start: float | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([group, time.monotonic() if start is None else start, 0.0, parent, None, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        self._stack.pop()

    def wrap(self, group: str, fn, count=None, pre=None):
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
            before = pre(bound) if pre is not None else None
            parent = self._stack[-1] if self._stack else -1
            nested = parent >= 0 and self.spans[parent][0] == group
            index = self.open(group)
            span = self.spans[index]
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                self.close(index)
            if count is not None:
                span[4] = count(bound, result, nested, before) if pre else count(bound, result, nested)
            return result

        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every SPEC function in every loaded rwre module that binds it."""
    modules = [m for name, m in sys.modules.items() if name == "rwre" or name.startswith("rwre.")]
    for module_name, owner, attr, group, count, pre in SPEC:
        module = sys.modules[module_name]
        if owner is not None:
            cls = getattr(module, owner)
            setattr(cls, attr, tracer.wrap(group, getattr(cls, attr), count, pre))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(group, original, count, pre)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def metric_names() -> list[str]:
    """Every per-layer metric ``aggregate`` reports, in report order."""
    names = []
    for group in GROUPS:
        names.append(f"{group}.s")
        if group in CALL_GROUPS:
            names.append(f"{group}.calls")
        names.extend(f"{group}.{c}" for c in _COUNTS.get(group, ()))
        names.extend(f"{group}.{r}" for r in _RATES.get(group, {}))
    names.insert(names.index("analytics.summary.calls") + 1, "analytics.summary.total_s")
    names += ["walk.errors", "harness.self_s"]
    names += [f"cli.{c}.s" for c in CLI_COMMANDS]
    names += ["cli.self_s", "cli.output_bytes", "library.self_s", "process.exit_s"]
    return names


_COUNTS = {
    "environment.realize": ("sites",),
    "analytics.profile": ("sites",),
    "walk.hitting": ("replicas", "replica_steps"),
    "walk.position": ("replicas", "replica_steps"),
    "walk.trajectory": ("steps",),
    "oracle.finite_chain": ("sites",),
    "oracle.position_law": ("cell_steps",),
    "oracle.mc_crossing": ("steps",),
    "harness.ks": ("samples",),
}
# rate name -> the count it divides by the group's self time
_RATES = {
    "analytics.profile": {"sites_per_s": "sites"},
    "walk.hitting": {"replica_steps_per_s": "replica_steps"},
    "walk.position": {"replica_steps_per_s": "replica_steps"},
    "walk.trajectory": {"steps_per_s": "steps"},
}


def aggregate(processes) -> dict:
    """Per-layer totals for one pass.

    ``processes`` holds, per item process, its spans, its exit time (main
    returned to process reaped) and its output bytes.  The root span of a
    CLI process is ``cli.<command>``; the root of a library process is
    ``library``.
    """
    out = {name: 0 if is_count(name) else 0.0 for name in metric_names()}
    for proc in processes:
        spans = proc["spans"]
        own = self_times(spans)
        for span, self_s in zip(spans, own):
            group, start, end, _, counts, error = span
            if group.startswith("cli."):
                out["cli.self_s"] += self_s
                out[f"{group}.s"] += end - start
            elif group == "library":
                out["library.self_s"] += self_s
            elif group == "harness":
                out["harness.self_s"] += self_s
            else:
                out[f"{group}.s"] += self_s
            if group in CALL_GROUPS:
                out[f"{group}.calls"] += 1
            if group == "analytics.summary" and (span[3] < 0 or spans[span[3]][0] != group):
                # summary's own work is small; most of its time is in the layers it calls
                out["analytics.summary.total_s"] += end - start
            for key, value in (counts or {}).items():
                out[f"{group}.{key}"] += value
            if group.startswith("walk.") and error in _WALK_ERROR_TYPES:
                out["walk.errors"] += 1
        out["process.exit_s"] += proc["exit_s"]
        out["cli.output_bytes"] += proc["output_bytes"]
    for group, rates in _RATES.items():
        for rate, count in rates.items():
            seconds = out[f"{group}.s"]
            out[f"{group}.{rate}"] = out[f"{group}.{count}"] / seconds if seconds > 0 else 0.0
    return out


def attributed_seconds(layer_metrics: dict) -> float:
    """Self time of one pass spent in a layer below the root span, coverage's numerator.

    The root span's self time (``cli.self_s``, ``library.self_s``) and
    ``process.exit_s`` are left out: with them the self times add up to the
    traced run time by construction.
    """
    return layer_metrics["harness.self_s"] + sum(layer_metrics[f"{g}.s"] for g in GROUPS)


def is_count(name: str) -> bool:
    """Count metrics must repeat exactly between runs with the same seed."""
    return name.rsplit(".", 1)[-1] in (
        "calls", "sites", "replicas", "replica_steps", "cell_steps", "steps", "samples",
        "errors", "output_bytes",
    )
