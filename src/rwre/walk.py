"""Quenched walk simulation.

Single-replica trajectories record first-passage times, snapshots and
(optionally) the full path, one uniform per step from blocks of 16384.  Only a
uniform between the least and greatest p the walker can reach needs its
position; numpy takes the rest, so a trajectory, its errors and the generator
state after it are bit for bit those of the step-by-step loop.
Batched engines run replicas in full-width chunks of 1024, chunk c on the
generator spawned with key (c,), so every replica's result is a pure function
of (master seed, replica index).  Hitting times T(n) use the Kesten-Kozlov-
Spitzer branching decomposition, O(n + backtrack depth) per replica whatever
the walk's speed; positions X(t) invert ``oracle.position_law``, once per window.

Guard breaches are hard errors, never silent reflections: reflecting at a
boundary would bias crossing times.  The hitting engine raises the guard
and step-budget errors on exactly the events a stepped walk would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import EnvironmentWindow
from .errors import (
    LeftGuardBreachError,
    ModelError,
    RightGuardBreachError,
    StepBudgetExceededError,
    WindowTooSmallError,
)
from .oracle import position_law

__all__ = [
    "SimulationBudget",
    "WalkObservation",
    "step",
    "sample_hitting_times",
    "sample_position",
    "first_passage_index",
    "batch_hitting_times",
    "batch_positions",
    "REPLICA_CHUNK",
]

REPLICA_CHUNK = 1024
_BUF = 1 << 14


@dataclass(frozen=True)
class SimulationBudget:
    """Safety limits for one simulation: guard position and step cap."""

    left_guard: int
    max_steps: int

    def __post_init__(self) -> None:
        if self.left_guard < 1:
            raise ModelError(f"budget.left_guard: must be >= 1, got {self.left_guard}")
        if self.max_steps < 1:
            raise ModelError(f"budget.max_steps: must be >= 1, got {self.max_steps}")


@dataclass(frozen=True)
class WalkObservation:
    """One replica's sampled crossing times, hitting times, and snapshots.

    ``tau[j]`` is the crossing time of edge start+j -> start+j+1 and
    ``hit[m] = sum_{j<m} tau[j]`` (so ``hit[0] = 0``).  Snapshots are
    (t, X(t)) pairs at the requested times; ``path[t]`` is the full position
    record when it was requested.
    """

    replica_seed: int
    start: int
    tau: np.ndarray
    hit: np.ndarray
    snapshots: tuple[tuple[int, int], ...] = ()
    path: np.ndarray | None = None


def step(window: EnvironmentWindow, x: int, rng: np.random.Generator) -> int:
    """One nearest-neighbour step from x: +1 with probability p_x, else -1.

    Consumes exactly one uniform draw.  x must be strictly inside the window.
    """
    if x <= window.lo:
        raise LeftGuardBreachError(f"position {x} at or beyond left window edge {window.lo}")
    if x >= window.hi:
        raise RightGuardBreachError(f"position {x} at or beyond right window edge {window.hi}")
    return x + 1 if rng.random() < window.p[x - window.lo] else x - 1


def _simulate(
    window: EnvironmentWindow,
    z0: int,
    rng: np.random.Generator,
    *,
    left_guard: int,
    max_steps: int,
    n_stop: int | None = None,
    snap_times=(),
    record_first_passage: bool = False,
    record_path: bool = False,
) -> WalkObservation:
    lo = window.lo
    hi = window.hi
    if z0 <= lo or z0 >= hi:
        raise WindowTooSmallError(f"start {z0} not strictly inside window [{lo}, {hi}]")
    if n_stop is not None and n_stop > hi:
        raise WindowTooSmallError(f"hitting goal {n_stop} beyond window end {hi}")
    if lo > -left_guard:
        raise WindowTooSmallError(f"window [{lo}, {hi}] must cover the left guard {-left_guard}")
    snap_times = sorted(int(t) for t in snap_times)
    t_need = max(snap_times, default=0)
    goal = z0 if n_stop is None else n_stop
    snaps = [(0, z0) for s in snap_times if s == 0]
    si = len(snaps)
    fp = [np.zeros(1, dtype=np.int64)]
    path = [np.array([z0], dtype=np.int64)]
    sites = memoryview(window.p)  # Python floats without a copy
    x = best = z0
    t = bi = 0
    buf = rng.random(_BUF)
    while not (t >= t_need and best >= goal):
        if t >= max_steps:
            raise StepBudgetExceededError(f"trajectory exceeded max_steps={max_steps}")
        if bi == _BUF:
            buf = rng.random(_BUF)
            bi = 0
        # the steps surely still needed, else a look-ahead of t + 256: short walks
        # pay for about the steps they take, long ones take whole blocks
        n = min(_BUF - bi, max_steps - t, max(t_need - t, goal - best, t + 256))
        u = buf[bi : bi + n]
        bi += n
        # u below the least p these steps can reach is a right step, u at or
        # above the greatest a left one; the rest are resolved in order, and the
        # walk has ended before any step that starts outside (lo, hi)
        near = window.p[max(x - n, lo) - lo : min(x + n, hi) - lo + 1]
        p_min, p_max = near.min(), near.max()
        dx = np.where(u < p_min, 1, -1)
        open_ = np.flatnonzero((u >= p_min) & (u < p_max))
        dx[open_] = 0
        moves = []
        shift = 0
        for i, v in zip((np.cumsum(dx)[open_] + (x - lo)).tolist(), u[open_].tolist()):
            i += shift
            if i <= 0 or i >= hi - lo:
                break
            moves.append(1 if v < sites[i] else -1)
            shift += moves[-1]
        dx[open_[: len(moves)]] = moves
        xs = x + np.cumsum(dx)
        record = np.maximum.accumulate(np.maximum(xs, best))
        done = record >= goal
        done[: max(t_need - t - 1, 0)] = False
        left = xs <= -left_guard
        ends = left | done | (xs >= hi)
        k = int(ends.argmax()) + 1 if ends.any() else n  # steps taken
        if record_first_passage:
            fp.append(t + 1 + np.flatnonzero(np.diff(record[:k], prepend=best)))
        if record_path:
            path.append(xs[:k])
        while si < len(snap_times) and snap_times[si] <= t + k:
            snaps.append((snap_times[si], int(xs[snap_times[si] - t - 1])))
            si += 1
        t += k
        if left[k - 1]:
            raise LeftGuardBreachError(
                f"walker reached left guard {-left_guard} at step {t}; enlarge the guard"
            )
        if ends[k - 1] and not done[k - 1]:
            raise RightGuardBreachError(f"walker reached right window edge {hi} at step {t}")
        x = int(xs[k - 1])
        best = int(record[k - 1])
    hit = np.concatenate(fp)
    return WalkObservation(
        replica_seed=-1,
        start=z0,
        tau=np.diff(hit),
        hit=hit,
        snapshots=tuple(snaps),
        path=np.concatenate(path) if record_path else None,
    )


def sample_hitting_times(
    window: EnvironmentWindow,
    n: int,
    rng: np.random.Generator,
    budget: SimulationBudget,
) -> WalkObservation:
    """Crossing times tau_0..tau_{n-1} and hitting times T(0)..T(n) from 0.

    Direct simulation of one trajectory; the per-edge crossing times are
    read off the first-passage record, so they carry the exact quenched law
    and are independent across edges given the environment.
    """
    if n < 1:
        raise ModelError(f"sample_hitting_times: n must be >= 1, got {n}")
    return _simulate(
        window,
        0,
        rng,
        left_guard=budget.left_guard,
        max_steps=budget.max_steps,
        n_stop=n,
        record_first_passage=True,
    )


def sample_position(
    window: EnvironmentWindow,
    z0: int,
    t_list,
    rng: np.random.Generator,
    budget: SimulationBudget,
    *,
    record_hitting: bool = False,
    n_goal: int | None = None,
    record_path: bool = False,
) -> WalkObservation:
    """Position snapshots X(t) at the requested times from one trajectory.

    ``record_hitting`` turns on the joint mode that also records the
    first-passage structure (used by the coupling identity checks).
    """
    t_list = sorted(int(t) for t in t_list)
    if t_list and t_list[0] < 0:
        raise ModelError("sample_position: snapshot times must be >= 0")
    return _simulate(
        window,
        z0,
        rng,
        left_guard=budget.left_guard,
        max_steps=budget.max_steps,
        snap_times=t_list,
        n_stop=n_goal,
        record_first_passage=record_hitting,
        record_path=record_path,
    )


def first_passage_index(observation: WalkObservation, t: float) -> int:
    """The unique n with T(n) <= t < T(n+1) for this trajectory."""
    hit = observation.hit
    if t < 0:
        raise ModelError(f"first_passage_index: t must be >= 0, got {t}")
    if t >= hit[-1]:
        raise WindowTooSmallError(
            f"hitting-time record ends at T({len(hit) - 1}) = {int(hit[-1])}; t={t} not bracketed"
        )
    return int(np.searchsorted(hit, t, side="right")) - 1


# ---------------------------------------------------------------------------
# chunked batch engines


def _replica_chunks(n_replicas: int) -> int:
    """Number of fixed-width chunks needed for n_replicas."""
    return (n_replicas + REPLICA_CHUNK - 1) // REPLICA_CHUNK


def _chunk_rng(master_seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(chunk_index,))
    )


def hitting_chunk(args) -> np.ndarray:
    """Hitting times T(n) for one full replica chunk, by branching decomposition.

    T(n) = n + 2 sum_{k<n} D_k, where D_k counts the left steps taken from
    site k and, given the environment, D_k ~ NegBin(D_{k+1} + 1{k>=0}, p_k)
    with D_n = 0 (Kesten, Kozlov and Spitzer 1975).  Sites are drawn from n-1
    leftwards until every replica's D has died out; the walker visits k < 0
    iff D_{k+1} > 0.  Full width always: callers slice off the unused tail.
    """
    window, n, master_seed, chunk_index, left_guard, max_steps = args
    rng = _chunk_rng(master_seed, chunk_index)
    lo = window.lo
    if n > window.hi or -left_guard < lo:
        raise WindowTooSmallError(
            f"window [{lo}, {window.hi}] must cover [-{left_guard}, {n}]"
        )
    inv_log_q = 1.0 / np.log1p(-window.p)
    limit = (max_steps - n) / 2.0  # more left steps: T(n) > max_steps
    left_steps = np.zeros(REPLICA_CHUNK)
    alive = slice(None)  # replicas whose walker visits site k: all while k >= 0
    trials = np.ones(REPLICA_CHUNK, dtype=np.int64)
    for k in range(n - 1, -left_guard - 1, -1):
        if k < 0:
            keep = trials > 0
            alive, trials = np.arange(REPLICA_CHUNK)[alive][keep], trials[keep]
            if not trials.size:
                break
            if k == -left_guard:
                raise LeftGuardBreachError(
                    f"a walker reached the left guard {-left_guard}; enlarge the guard"
                )
        # NegBin(trials, p_k) as sums of inverted geometrics, exact in law
        ends = np.cumsum(trials)
        g = np.log1p(-rng.random(int(ends[-1])))
        g *= inv_log_q[k - lo]
        np.floor(g, out=g)
        d = np.add.reduceat(g, ends - trials)
        left_steps[alive] += d  # checked per site, which also bounds the draws
        if left_steps.max() > limit:
            raise StepBudgetExceededError(f"hitting chunk exceeded max_steps={max_steps}")
        trials = d.astype(np.int64) + (k > 0)
    return n + 2 * left_steps.astype(np.int64)


def batch_hitting_times(
    window: EnvironmentWindow,
    n: int,
    master_seed: int,
    n_replicas: int,
    budget: SimulationBudget,
    *,
    workers: int = 1,
) -> np.ndarray:
    """T(n) for n_replicas independent replicas under one quenched window."""
    tasks = [
        (window, n, master_seed, c, budget.left_guard, budget.max_steps)
        for c in range(_replica_chunks(n_replicas))
    ]
    if workers <= 1 or len(tasks) <= 1:
        parts = [hitting_chunk(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            parts = list(pool.map(hitting_chunk, tasks))
    return np.concatenate(parts)[:n_replicas]


def batch_positions(
    window: EnvironmentWindow,
    t_steps: int,
    master_seed: int,
    n_replicas: int,
    left_guard: int,
    *,
    z0: int = 0,
) -> np.ndarray:
    """X(t) for n_replicas independent replicas under one quenched window.

    The law of X(t) absorbed at -left_guard is computed once, and each replica
    inverts its CDF (absorbed mass first) with its own uniform.  A uniform in
    the absorbed mass is a walker that reached the guard: any, in full-width
    chunks, raises.  X(t) always takes exactly t steps, so no step cap applies.
    """
    if left_guard < 1:
        raise ModelError(f"left_guard: must be >= 1, got {left_guard}")
    start, masses, absorbed, _ = position_law(window, z0, t_steps, left_guard)
    chunks = range(_replica_chunks(n_replicas))
    u = np.concatenate([_chunk_rng(master_seed, c).random(REPLICA_CHUNK) for c in chunks])
    if not masses.size or u.min() < absorbed:
        raise LeftGuardBreachError(f"a walker reached the left guard {-left_guard}; enlarge the guard")
    cells = np.searchsorted(absorbed + np.cumsum(masses), u[:n_replicas], side="right")
    return start + 2 * np.minimum(cells, masses.size - 1)


def default_max_steps(n_or_t: int, mu_hint: float) -> int:
    """Generous step cap: ten times the expected hitting scale plus slack."""
    return int(10_000 + 10.0 * mu_hint * max(n_or_t, 1))
