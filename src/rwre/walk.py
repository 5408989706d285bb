"""Quenched walk simulation.

Single-replica trajectories record their first-passage times and snapshots,
and optionally the full path, one uniform per step from blocks of 16384.  Only a
uniform between the least and greatest p the walker can reach needs its
position; numpy takes the rest, so a trajectory, its errors and the generator
state after it are bit for bit those of the step-by-step loop.  The moves of
the open uniforms are gathered as bytes, a block's steps and running record are
built in place, and the first-passage record, int32 below a step cap of 2**31,
is one array filled in place; crossing times are read off it.
Batched engines sample by inversion: the exact quenched law of T(n) or X(t)
comes once per window from the propagation kernel in ``oracle``, and each
replica inverts its CDF with one uniform (``oracle._invert_law``).  Replicas
draw in full-width chunks of 1024, chunk c on the generator spawned with key
(c,), so every replica's result is a pure function of (master seed, replica
index).  The CDF lists the law's cells first, then the guard and step-cap
masses, so the T(n) law is propagated only until its CDF passes the largest
uniform.

Guard breaches are hard errors, never silent reflections: reflecting at a
boundary would bias crossing times.  The batched engines raise the guard and
step-budget errors on events of the same law as a stepped walk's.
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
from .oracle import _invert_law, hitting_law, position_law

__all__ = [
    "SimulationBudget",
    "WalkObservation",
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
    """One replica's first-passage record and snapshots.

    ``hit[m]`` is the first time the walk from z0 reaches z0+m (so
    ``hit[0] = 0``), up to the furthest site it reached: int32 from
    ``sample_position`` when ``max_steps < 2**31``, else int64, as is ``tau``.
    Snapshots are (t, X(t)) pairs at the requested times; ``path[t]`` is the
    full position record (int64) when it was requested.
    """

    hit: np.ndarray
    snapshots: tuple[tuple[int, int], ...] = ()
    path: np.ndarray | None = None

    @property
    def tau(self) -> np.ndarray:
        """Crossing times: ``tau[j] = hit[j+1] - hit[j]`` for edge z0+j -> z0+j+1."""
        return np.diff(self.hit)


def sample_position(
    window: EnvironmentWindow,
    z0: int,
    t_list,
    rng: np.random.Generator,
    budget: SimulationBudget,
    *,
    n_goal: int | None = None,
    record_path: bool = False,
) -> WalkObservation:
    """Position snapshots X(t) at the requested times from one trajectory.

    The observation also carries the first-passage record ``hit`` (int32
    when ``max_steps < 2**31``, else int64) up to the furthest site reached.
    With ``n_goal`` the walk runs on until it first reaches ``n_goal``, so
    T(0)..T(n_goal) are all recorded: the joint mode of the LLN and coupling
    identity checks.  The walk stops at ``budget.max_steps`` steps and at the
    left guard ``-budget.left_guard``.
    """
    snap_times = sorted(int(t) for t in t_list)
    if snap_times and snap_times[0] < 0:
        raise ModelError("sample_position: snapshot times must be >= 0")
    lo = window.lo
    hi = window.hi
    span = hi - lo
    if z0 <= lo or z0 >= hi:
        raise WindowTooSmallError(f"start {z0} not strictly inside window [{lo}, {hi}]")
    if n_goal is not None and n_goal > hi:
        raise WindowTooSmallError(f"hitting goal {n_goal} beyond window end {hi}")
    left_guard, max_steps = budget.left_guard, budget.max_steps
    if lo > -left_guard:
        raise WindowTooSmallError(f"window [{lo}, {hi}] must cover the left guard {-left_guard}")
    t_need = max(snap_times, default=0)
    goal = z0 if n_goal is None else n_goal
    snaps = [(0, z0) for s in snap_times if s == 0]
    si = len(snaps)
    # a block stops where it reaches hi; every entry is a step count <= max_steps
    hit = np.empty(hi - z0 + 1, dtype=np.int32 if max_steps < 2**31 else np.int64)
    hit[0] = 0
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
        # above the greatest a left one; the rest are resolved in order
        near = window.p[max(x - n, lo) - lo : min(x + n, hi) - lo + 1]
        right = u < near.min()
        open_ = np.flatnonzero(right ^ (u < near.max()))
        dx = right.view(np.int8)
        dx *= 2
        dx -= 1
        dx[open_] = 0
        moves = bytearray()  # +1 or -1 as int8 bytes
        append = moves.append
        shift = 0
        for i, v in zip((np.cumsum(dx)[open_] + (x - lo)).tolist(), u[open_].tolist()):
            i += shift
            if not 0 < i < span:
                break  # the walk has ended before any step that starts outside (lo, hi)
            if v < sites[i]:
                append(1)
                shift += 1
            else:
                append(255)
                shift -= 1
        dx[open_[: len(moves)]] = np.frombuffer(moves, dtype=np.int8)
        xs = np.cumsum(dx)
        xs += x
        record = np.maximum.accumulate(xs)
        np.maximum(record, best, out=record)
        # steps taken: the whole block, unless its record reaches the goal or
        # it reaches the guard or the right edge; only then are masks built
        k, ends = n, None
        if record[-1] >= goal or xs.min() <= -left_guard or xs.max() >= hi:
            done = record >= goal
            done[: max(t_need - t - 1, 0)] = False
            left = xs <= -left_guard
            ends = left | done | (xs >= hi)
            if ends.any():
                k = int(ends.argmax()) + 1
        hit[best - z0 + 1 : record[k - 1] - z0 + 1] = (
            t + 1 + np.flatnonzero(np.diff(record[:k], prepend=best))
        )
        if record_path:
            path.append(xs[:k])
        while si < len(snap_times) and snap_times[si] <= t + k:
            snaps.append((snap_times[si], int(xs[snap_times[si] - t - 1])))
            si += 1
        t += k
        if ends is not None and ends[k - 1]:
            if left[k - 1]:
                raise LeftGuardBreachError(
                    f"walker reached left guard {-left_guard} at step {t}; enlarge the guard"
                )
            if not done[k - 1]:
                raise RightGuardBreachError(f"walker reached right window edge {hi} at step {t}")
        x = int(xs[k - 1])
        best = int(record[k - 1])
    return WalkObservation(
        hit=hit[: best - z0 + 1],  # a view: a copy would hold the record twice
        snapshots=tuple(snaps),
        path=np.concatenate(path) if record_path else None,
    )


def sample_hitting_times(
    window: EnvironmentWindow,
    n: int,
    rng: np.random.Generator,
    budget: SimulationBudget,
) -> WalkObservation:
    """T(0)..T(n) from 0: ``sample_position``'s joint mode with no snapshot
    times.  The crossing times read off the record carry the exact quenched
    law and are independent across edges given the environment."""
    if n < 1:
        raise ModelError(f"sample_hitting_times: n must be >= 1, got {n}")
    return sample_position(window, 0, (), rng, budget, n_goal=n)


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


def _uniforms(master_seed, n_replicas) -> np.ndarray:
    """The uniforms of every full-width chunk: chunk c draws REPLICA_CHUNK
    from the generator spawned with key (c,)."""
    if n_replicas < 1:
        raise ModelError(f"n_replicas: must be >= 1, got {n_replicas}")
    chunks = np.random.SeedSequence(master_seed).spawn(-(-n_replicas // REPLICA_CHUNK))
    return np.concatenate([np.random.default_rng(seq).random(REPLICA_CHUNK) for seq in chunks])


def batch_hitting_times(
    window: EnvironmentWindow,
    n: int,
    master_seed: int,
    n_replicas: int,
    budget: SimulationBudget,
) -> np.ndarray:
    """T(n) for n_replicas independent replicas under one quenched window.

    The law of T(n) from 0, absorbed at -left_guard and cut at max_steps, is
    computed once (``oracle.hitting_law``), and each replica inverts its CDF
    with its own uniform: T(n) is the step of its cell.  The uniforms are
    drawn first, and the law is propagated only until its CDF passes the
    largest of them.
    """
    u = _uniforms(master_seed, n_replicas)
    pmf, absorbed, alive, _ = hitting_law(window, n, budget.left_guard, budget.max_steps,
                                          target=float(u.max()))
    return _invert_law(pmf, absorbed, alive, u, n_replicas, budget.left_guard)


def batch_positions(
    window: EnvironmentWindow,
    t_steps: int,
    master_seed: int,
    n_replicas: int,
    left_guard: int,
) -> np.ndarray:
    """X(t) from 0 for n_replicas independent replicas under one quenched window.

    The law of X(t) absorbed at -left_guard is computed once
    (``oracle.position_law``), and each replica inverts its CDF with its own
    uniform.  X(t) always takes exactly t steps, so no step cap applies.
    """
    if left_guard < 1:
        raise ModelError(f"left_guard: must be >= 1, got {left_guard}")
    u = _uniforms(master_seed, n_replicas)
    start, masses, absorbed, _ = position_law(window, 0, t_steps, left_guard)
    return start + 2 * _invert_law(masses, absorbed, 0.0, u, n_replicas, left_guard)


def default_max_steps(n_or_t: int, mu_hint: float) -> int:
    """Generous step cap: ten times the expected hitting scale plus slack."""
    return int(10_000 + 10.0 * mu_hint * max(n_or_t, 1))
