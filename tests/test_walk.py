import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from rwre.environment import (
    Constant,
    EnvironmentWindow,
    IidDiscrete,
    IidParametric,
    QuasiPeriodic,
    realize,
    suggested_burn_in,
    suggested_left_guard,
)
from rwre.errors import (
    GuardBreachError,
    LeftGuardBreachError,
    ModelError,
    RightGuardBreachError,
    StepBudgetExceededError,
    WindowTooSmallError,
)
from rwre.oracle import hitting_law
from rwre.walk import (
    _BUF,
    REPLICA_CHUNK,
    SimulationBudget,
    WalkObservation,
    _uniforms,
    batch_hitting_times,
    batch_positions,
    first_passage_index,
    sample_hitting_times,
    sample_position,
)

BUDGET = SimulationBudget(left_guard=80, max_steps=5_000_000)


def stepped_simulate(window, z0, rng, *, left_guard, max_steps, n_stop=None, snap_times=(),
                     record_path=False):
    """Reference: the one-uniform-per-step loop that ``walk._simulate`` ran
    before the block engine, drawing the same 16384-uniform blocks; it stops
    at the last snapshot time, as ``sample_position`` asked it to."""
    t_stop = max(snap_times, default=0)
    p = window.p
    lo = window.lo
    hi = window.hi
    if z0 <= lo or z0 >= hi:
        raise WindowTooSmallError(f"start {z0} not strictly inside window [{lo}, {hi}]")
    if n_stop is not None and n_stop > hi:
        raise WindowTooSmallError(f"hitting goal {n_stop} beyond window end {hi}")
    snap_times = sorted(int(t) for t in snap_times)
    snaps = []
    si = 0
    while si < len(snap_times) and snap_times[si] == 0:
        snaps.append((0, z0))
        si += 1
    fp = [0]
    best = z0
    path = [z0] if record_path else None
    x = z0
    t = 0
    buf = rng.random(_BUF)
    bi = 0
    while True:
        if t >= t_stop and si >= len(snap_times) and (n_stop is None or best >= n_stop):
            break
        if t >= max_steps:
            raise StepBudgetExceededError(f"trajectory exceeded max_steps={max_steps}")
        if bi == _BUF:
            buf = rng.random(_BUF)
            bi = 0
        u = buf[bi]
        bi += 1
        x += 1 if u < p[x - lo] else -1
        t += 1
        if x > best:
            best = x
            fp.append(t)
        if record_path:
            path.append(x)
        while si < len(snap_times) and t == snap_times[si]:
            snaps.append((t, x))
            si += 1
        if x <= -left_guard:
            raise LeftGuardBreachError(
                f"walker reached left guard {-left_guard} at step {t}; enlarge the guard"
            )
        if x >= hi and not (
            t >= t_stop and si >= len(snap_times) and (n_stop is None or best >= n_stop)
        ):
            raise RightGuardBreachError(f"walker reached right window edge {hi} at step {t}")
    hit = np.array(fp, dtype=np.int64)
    return WalkObservation(
        hit=hit,
        snapshots=tuple(snaps),
        path=np.array(path, dtype=np.int64) if record_path else None,
    )


def kks_hitting_times(window, n, master_seed, n_replicas, budget):
    """Reference: the Kesten-Kozlov-Spitzer branching sampler that
    ``batch_hitting_times`` ran before it inverted the exact law of T(n).

    T(n) = n + 2 sum_{k<n} D_k, where D_k counts the left steps taken from
    site k and, given the environment, D_k ~ NegBin(D_{k+1} + 1{k>=0}, p_k)
    with D_n = 0.  Sites are drawn from n-1 leftwards, chunk by chunk of
    REPLICA_CHUNK replicas, until every replica's D has died out; the walker
    visits k < 0 iff D_{k+1} > 0."""
    lo = window.lo
    if n > window.hi or -budget.left_guard < lo:
        raise WindowTooSmallError(f"window [{lo}, {window.hi}] must cover [-{budget.left_guard}, {n}]")
    inv_log_q = 1.0 / np.log1p(-window.p)
    limit = (budget.max_steps - n) / 2.0  # more left steps: T(n) > max_steps
    parts = []
    for c in range(-(-n_replicas // REPLICA_CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(c,)))
        left_steps = np.zeros(REPLICA_CHUNK)
        alive = slice(None)  # replicas whose walker visits site k: all while k >= 0
        trials = np.ones(REPLICA_CHUNK, dtype=np.int64)
        for k in range(n - 1, -budget.left_guard - 1, -1):
            if k < 0:
                keep = trials > 0
                alive, trials = np.arange(REPLICA_CHUNK)[alive][keep], trials[keep]
                if not trials.size:
                    break
                if k == -budget.left_guard:
                    raise LeftGuardBreachError(f"a walker reached the left guard {-budget.left_guard}")
            # NegBin(trials, p_k) as sums of inverted geometrics, exact in law
            ends = np.cumsum(trials)
            g = np.floor(np.log1p(-rng.random(int(ends[-1]))) * inv_log_q[k - lo])
            d = np.add.reduceat(g, ends - trials)
            left_steps[alive] += d
            if left_steps.max() > limit:
                raise StepBudgetExceededError(f"hitting chunk exceeded max_steps={budget.max_steps}")
            trials = d.astype(np.int64) + (k > 0)
        parts.append(n + 2 * left_steps.astype(np.int64))
    return np.concatenate(parts)[:n_replicas]


@pytest.fixture
def window_75():
    return realize(Constant(0.75), -150, 2500, seed=1)


class TestSampleHittingTimes:
    def test_structure(self, window_75):
        rng = np.random.default_rng(5)
        obs = sample_hitting_times(window_75, 200, rng, BUDGET)
        assert len(obs.tau) == 200
        assert len(obs.hit) == 201
        assert obs.hit[0] == 0
        assert np.all(obs.tau % 2 == 1)
        assert np.all(obs.tau >= 1)
        assert np.all(np.diff(obs.hit) > 0)
        assert np.array_equal(np.cumsum(obs.tau), obs.hit[1:])

    def test_crossing_time_pmf(self, window_75):
        taus = []
        for r in range(30):
            rng = np.random.default_rng(1000 + r)
            taus.append(sample_hitting_times(window_75, 400, rng, BUDGET).tau)
        taus = np.concatenate(taus)  # 12000 quenched crossings, p constant
        assert np.mean(taus == 1) == pytest.approx(0.75, abs=0.015)
        # single path of length three: down, up, up
        assert np.mean(taus == 3) == pytest.approx(0.140625, abs=0.015)

    def test_hitting_mean(self, window_75):
        budget = SimulationBudget(left_guard=80, max_steps=100_000)
        t100 = batch_hitting_times(window_75, 100, 99, 2000, budget)
        tol = 3.0 * np.sqrt(6.0 / (100 * 2000))
        assert np.mean(t100 / 100.0) == pytest.approx(2.0, abs=3 * tol + 0.01)

    def test_budget_exhaustion(self, window_75):
        rng = np.random.default_rng(5)
        with pytest.raises(StepBudgetExceededError):
            sample_hitting_times(window_75, 2000, rng, SimulationBudget(left_guard=80, max_steps=50))

    def test_left_guard_breach(self):
        # transient-left walk reaches the guard before +40 almost surely
        w = realize(Constant(0.4), -400, 50, seed=2)
        rng = np.random.default_rng(11)
        with pytest.raises(LeftGuardBreachError):
            sample_hitting_times(w, 40, rng, SimulationBudget(left_guard=5, max_steps=1_000_000))


class TestSamplePosition:
    def test_snapshots_and_parity(self, window_75):
        rng = np.random.default_rng(3)
        t_list = [0, 1, 10, 101, 1000]
        obs = sample_position(window_75, 0, t_list, rng, BUDGET)
        assert [t for t, _ in obs.snapshots] == t_list
        for t, x in obs.snapshots:
            assert (x + t) % 2 == 0

    def test_x1_distribution(self, window_75):
        ups = 0
        n = 20_000
        for r in range(n):
            rng = np.random.default_rng(r)
            obs = sample_position(window_75, 0, [1], rng, BUDGET)
            ups += obs.snapshots[0][1] == 1
        assert ups / n == pytest.approx(0.75, abs=0.01)

    def test_speed(self, window_75):
        x = batch_positions(window_75, 2000, 7, 200, 80)
        assert np.mean(x / 2000.0) == pytest.approx(0.5, abs=0.01)

    def test_joint_mode_records_both(self, window_75):
        rng = np.random.default_rng(3)
        obs = sample_position(window_75, 0, [50, 500], rng, BUDGET, n_goal=100)
        assert len(obs.hit) >= 101
        assert len(obs.snapshots) == 2

    @given(
        p=st.floats(min_value=0.55, max_value=0.95),
        q=st.floats(min_value=0.5, max_value=0.95),
        two_point=st.booleans(),
        n=st.integers(min_value=1, max_value=300),
        t_grid=st.lists(st.integers(min_value=0, max_value=3000), min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_joint_mode_reach_is_at_most_max_n_t(self, p, q, two_point, n, t_grid, seed):
        # the walk stops once it has taken t_grid[-1] steps and reached n, so it
        # never passes max(n, t_grid[-1]): lln_check's full window, one site
        # further, is never breached, and one fallback to it is enough
        law = IidDiscrete(((p, 0.5), (q, 0.5))) if two_point else Constant(p)
        t_grid = sorted(t_grid)
        top = max(n, t_grid[-1])
        budget = SimulationBudget(left_guard=200, max_steps=5_000_000)
        window = realize(law, -202, top + 64, seed)
        rng = np.random.default_rng(seed)
        obs = sample_position(window, 0, t_grid, rng, budget, n_goal=n)
        assert len(obs.hit) - 1 <= top

    def test_peak_memory(self):
        # the first-passage record is held once: tracemalloc counts its whole
        # buffer, one int32 per site from 0 to hi, plus a block's scratch, at
        # most eight arrays of _BUF 8-byte items
        n = 100_000
        window = realize(IidDiscrete(((0.8, 0.5), (0.6, 0.5))), -100, n, seed=1)
        budget = SimulationBudget(left_guard=100, max_steps=10**7)
        sample_position(window, 0, (), np.random.default_rng(0), budget, n_goal=10)
        tracemalloc.start()
        try:
            obs = sample_position(window, 0, (), np.random.default_rng(1), budget, n_goal=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(obs.hit) == n + 1 and obs.hit.dtype == np.int32
        assert peak < 4 * (window.hi + 1) + 8 * 8 * _BUF


PARITY_LAWS = {
    "constant": Constant(0.75),  # p_min = p_max: no uniform needs the position
    "two-point": IidDiscrete(((0.8, 0.5), (0.6, 0.5))),
    "golden": QuasiPeriodic(alpha=(math.sqrt(5.0) - 1.0) / 2.0, omega0=0.0, coeffs=(0.7, 0.1)),
    "slow": IidDiscrete(((0.75, 0.5), (0.45, 0.5))),
    "beta": IidParametric(family="beta", p_lo=0.55, p_hi=0.95, params=(("a", 2.0), ("b", 2.0))),
    # p over most of (0, 1): almost every uniform needs the position
    "wide": IidParametric(family="uniform", p_lo=0.1, p_hi=0.99),
}
TWO_POINT_WINDOW = realize(PARITY_LAWS["two-point"], -300, 30_000, seed=4)


def block_simulate(window, z0, rng, *, left_guard, max_steps, n_stop=None, snap_times=(),
                   record_path=False):
    """``sample_position`` called with ``stepped_simulate``'s arguments."""
    return sample_position(window, z0, snap_times, rng, SimulationBudget(left_guard, max_steps),
                           n_goal=n_stop, record_path=record_path)


def run_both(window, z0, seed, **kw):
    """Run the block engine and the stepped loop from one seed; assert the same
    observation or error and the same next uniform; return the loop's outcome.
    The block engine's record (``hit`` and ``tau``) is int32 when ``max_steps``
    is below 2**31 and int64 otherwise; the loop's is always int64."""
    outcomes = []
    for simulate in (block_simulate, stepped_simulate):
        rng = np.random.default_rng(seed)
        try:
            result = simulate(window, z0, rng, **kw)
        except (GuardBreachError, StepBudgetExceededError) as exc:
            result = exc
        outcomes.append((result, rng.random()))
    (got, got_next), (ref, ref_next) = outcomes
    assert got_next == ref_next
    if isinstance(ref, Exception):
        assert (type(got), str(got)) == (type(ref), str(ref))  # messages carry the step
        return ref
    assert got.snapshots == ref.snapshots
    assert all(type(v) is int for snap in got.snapshots for v in snap)
    record = np.int32 if kw["max_steps"] < 2**31 else np.int64
    for name in ("hit", "tau", "path"):
        a, b = getattr(got, name), getattr(ref, name)
        assert (a is None) == (b is None)
        if b is not None:
            assert a.dtype == (b.dtype if name == "path" else record) and np.array_equal(a, b)
    return ref


def edge_free_block(window, path, t0, left_guard):
    """Whether the full block of steps t0+1 .. t0+_BUF is edge-free: from X(t0)
    none of its steps can reach the left guard or the right window end, so only
    the goal and the snapshot times can end it."""
    x0 = int(path[t0])
    return x0 - _BUF > -left_guard and x0 + _BUF < window.hi


def block_boundary_goal(window):
    """(seed, n) whose trajectory first reaches n at step exactly _BUF."""
    for seed in range(100):
        ref = stepped_simulate(window, 0, np.random.default_rng(seed), left_guard=100,
                               max_steps=_BUF, snap_times=[_BUF])
        hits = np.flatnonzero(ref.hit == _BUF)
        if hits.size:
            return seed, int(hits[0])
    raise AssertionError("no trajectory has a record at the block boundary")


class TestBlockEngine:
    @pytest.mark.parametrize("name", sorted(PARITY_LAWS))
    def test_matches_stepped_loop(self, name):
        window = realize(PARITY_LAWS[name], -400, 60_000, seed=5)
        snaps = [0, 0, 1, 7, _BUF, _BUF, _BUF + 1, 45_000]
        for seed in (1, 2):
            ref = run_both(window, 0, seed, left_guard=300, max_steps=200_000, snap_times=snaps,
                           n_stop=40, record_path=True)
            assert len(ref.path) == 45_001
            run_both(window, 3, seed, left_guard=300, max_steps=200_000, n_stop=2000)
        if name == "wide":
            return  # zero speed: no walk gets a block away from the guard in time
        # walks that cross from blocks that can reach an edge into edge-free ones
        far = realize(PARITY_LAWS[name], -400, 200_000, seed=6)
        kw = dict(left_guard=300, max_steps=10**7, record_path=True)
        # from within one block of the guard to a goal met in an edge-free block
        ref = run_both(far, -250, 6, n_stop=60_000, **kw)
        t_hit = int(ref.hit[-1])
        assert t_hit > 5 * _BUF and edge_free_block(far, ref.path, (t_hit - 1) // _BUF * _BUF, 300)
        # a goal met exactly at the end of an edge-free block
        m = next(m for m, t in enumerate(ref.hit.tolist())
                 if t and t % _BUF == 0 and edge_free_block(far, ref.path, t - _BUF, 300))
        ref = run_both(far, -250, 6, n_stop=-250 + m, **kw)
        assert int(ref.hit[-1]) % _BUF == 0
        # the last snapshot inside an edge-free block, long after the goal was met
        t_need = 10 * _BUF + 777
        ref = run_both(far, 0, 2, n_stop=100, snap_times=[t_need], **kw)
        assert ref.hit[100] < _BUF and ref.snapshots[-1][0] == t_need
        assert edge_free_block(far, ref.path, 10 * _BUF, 300)

    def test_left_guard_breach(self):
        # transient left: the walker reaches the guard before +40; in the second
        # window the sites left of the start have the smallest p of all
        w = realize(Constant(0.4), -400, 50, seed=2)
        steps = EnvironmentWindow.from_values([0.2] * 400 + [0.45] * 51, lo=-400)
        for window in (w, steps):
            for seed in range(5):
                ref = run_both(window, 0, seed, left_guard=5, max_steps=1_000_000, n_stop=40,
                               record_path=True)
                assert isinstance(ref, LeftGuardBreachError)
        # a start at the guard itself may step back inside
        run_both(w, -5, 0, left_guard=5, max_steps=100, snap_times=[50])

    def test_right_edge(self):
        w = realize(PARITY_LAWS["two-point"], -300, 200, seed=4)
        ref = run_both(w, 0, 1, left_guard=100, max_steps=10**6, snap_times=[5000])
        assert isinstance(ref, RightGuardBreachError)
        # reaching the edge exactly when the goal is met is no breach
        ref = run_both(w, 0, 1, left_guard=100, max_steps=10**6, n_stop=200)
        assert len(ref.hit) == 201

    def test_edge_reached_at_a_block_end(self):
        # with the last snapshot beyond it, the first block is steps 1.._BUF;
        # these walkers (found with the stepped loop) first reach the guard or
        # the right edge at its last step, or come within one site of it
        drift_left = realize(Constant(0.4), -4000, 50, seed=2)
        kw = dict(max_steps=10**6, snap_times=[_BUF + 5000])
        ref = run_both(drift_left, 0, 2, left_guard=3234, n_stop=40, **kw)
        assert isinstance(ref, LeftGuardBreachError) and f"at step {_BUF};" in str(ref)
        ref = run_both(drift_left, 0, 2, left_guard=3235, n_stop=40, **kw)
        assert isinstance(ref, LeftGuardBreachError) and f"at step {_BUF};" not in str(ref)
        # the record passes the goal at the edge before the last snapshot
        tp = PARITY_LAWS["two-point"]
        ref = run_both(realize(tp, -300, 5964, seed=4), 0, 0, left_guard=100, n_stop=5964, **kw)
        assert isinstance(ref, RightGuardBreachError) and str(ref).endswith(f"at step {_BUF}")
        ref = run_both(realize(tp, -300, 5965, seed=4), 0, 0, left_guard=100, n_stop=5965, **kw)
        assert isinstance(ref, RightGuardBreachError) and not str(ref).endswith(f"at step {_BUF}")

    def test_starts_next_to_the_window_ends(self):
        # from lo + 1 and hi - 1 a first block's near-site slice is clamped at
        # the window ends, and its walk can end on its first steps
        w = realize(PARITY_LAWS["two-point"], -100, 400, seed=4)
        outcomes = set()
        for seed in range(4):
            for z0, kw in ((-99, dict(n_stop=300)), (399, dict(n_stop=400)),
                           (399, dict(snap_times=[50]))):
                ref = run_both(w, z0, seed, left_guard=100, max_steps=10**6, record_path=True,
                               **kw)
                outcomes.add(type(ref))
        assert outcomes == {WalkObservation, LeftGuardBreachError, RightGuardBreachError}

    def test_breach_in_the_first_block(self):
        # three sites from the guard or the right edge, these walkers (found with
        # the stepped loop) breach at steps 3, 5, 7, ... of their first block
        drift_left = realize(Constant(0.4), -20, 50, seed=2)
        drift_right = realize(Constant(0.6), -100, 30, seed=2)
        guard_steps, edge_steps = set(), set()
        for seed in range(12):
            ref = run_both(drift_left, -17, seed, left_guard=20, max_steps=10**6, n_stop=40)
            assert isinstance(ref, LeftGuardBreachError)
            guard_steps.add(int(str(ref).split("at step ")[1].split(";")[0]))
            ref = run_both(drift_right, 27, seed, left_guard=100, max_steps=10**6,
                           snap_times=[1000])
            assert isinstance(ref, RightGuardBreachError)
            edge_steps.add(int(str(ref).split("at step ")[1]))
        assert {3, 5, 7} <= guard_steps and {3, 5, 7} <= edge_steps

    def test_record_dtype_follows_the_step_cap(self):
        ref = run_both(TWO_POINT_WINDOW, 0, 9, left_guard=100, max_steps=2**31 - 1, n_stop=8000)
        assert ref.hit.dtype == np.int64  # the loop's; run_both checked int32 for the engine
        obs = block_simulate(TWO_POINT_WINDOW, 0, np.random.default_rng(9), left_guard=100,
                             max_steps=2**31, n_stop=8000)
        assert obs.hit.dtype == obs.tau.dtype == np.int64
        assert np.array_equal(obs.hit, ref.hit)
        run_both(TWO_POINT_WINDOW, 0, 9, left_guard=100, max_steps=2**31, n_stop=8000)

    def test_step_cap_at_hitting_time(self):
        ref = run_both(TWO_POINT_WINDOW, 0, 9, left_guard=100, max_steps=10**6, n_stop=8000)
        t_hit = int(ref.hit[-1])
        assert t_hit > _BUF  # the cap falls in a later block
        run_both(TWO_POINT_WINDOW, 0, 9, left_guard=100, max_steps=t_hit, n_stop=8000)
        ref = run_both(TWO_POINT_WINDOW, 0, 9, left_guard=100, max_steps=t_hit - 1,
                       n_stop=8000)
        assert isinstance(ref, StepBudgetExceededError)
        for max_steps in (17, 50):
            ref = run_both(TWO_POINT_WINDOW, 0, 9, left_guard=100, max_steps=max_steps,
                           n_stop=8000)
            assert isinstance(ref, StepBudgetExceededError)

    def test_snapshots_at_zero_and_duplicated(self):
        ref = run_both(TWO_POINT_WINDOW, 0, 3, left_guard=100, max_steps=100,
                       snap_times=[0, 0], record_path=True)
        assert ref.snapshots == ((0, 0), (0, 0)) and len(ref.path) == 1
        ref = run_both(TWO_POINT_WINDOW, 0, 3, left_guard=100, max_steps=10**6,
                       snap_times=[0, 5, 5, _BUF, _BUF + 1, _BUF + 1], record_path=True)
        assert [t for t, _ in ref.snapshots] == [0, 5, 5, _BUF, _BUF + 1, _BUF + 1]
        assert len(ref.path) == _BUF + 2

    def test_uniform_equal_to_p_steps_left(self):
        u0 = np.random.default_rng(0).random()
        assert 0.1 < u0 < 0.9
        flat = EnvironmentWindow.from_values([u0] * 200, lo=-100)
        # the same site law with p_min = 0.1 and p_max = 0.9 inside the reach
        spread = EnvironmentWindow.from_values([u0] * 10 + [0.1] + [u0] * 178 + [0.9] + [u0] * 10,
                                               lo=-100)
        for window in (flat, spread):
            ref = run_both(window, 0, 0, left_guard=50, max_steps=100, snap_times=[1])
            assert ref.snapshots == ((1, -1),)

    def test_goal_met_at_block_boundary(self):
        seed, n = block_boundary_goal(TWO_POINT_WINDOW)
        ref = run_both(TWO_POINT_WINDOW, 0, seed, left_guard=100, max_steps=10**6, n_stop=n,
                       record_path=True)
        assert int(ref.hit[-1]) == _BUF and len(ref.path) == _BUF + 1
        # a cap at the boundary raises before the next block is drawn
        ref = run_both(TWO_POINT_WINDOW, 0, seed, left_guard=100, max_steps=_BUF, n_stop=n + 1)
        assert isinstance(ref, StepBudgetExceededError)

    def test_left_guard_must_lie_in_window(self):
        # a guard beyond the window's left end would read p through wrapped indices
        w = realize(PARITY_LAWS["two-point"], -3, 60, seed=1)
        budget = SimulationBudget(left_guard=10, max_steps=10**6)
        with pytest.raises(WindowTooSmallError):
            sample_position(w, 0, [100], np.random.default_rng(0), budget)
        with pytest.raises(WindowTooSmallError):
            sample_hitting_times(w, 50, np.random.default_rng(0), budget)
        obs = sample_hitting_times(w, 50, np.random.default_rng(0),
                                   SimulationBudget(left_guard=3, max_steps=10**6))
        assert len(obs.hit) == 51


class TestFirstPassageIndex:
    def test_from_definition(self):
        obs_tau = np.array([1, 3, 1])
        hit = np.concatenate([[0], np.cumsum(obs_tau)])  # (0, 1, 4, 5)
        from rwre.walk import WalkObservation

        obs = WalkObservation(hit=hit)
        assert first_passage_index(obs, 3) == 1
        assert first_passage_index(obs, 1) == 1  # t = T(1): left-closed bracket
        assert first_passage_index(obs, 4) == 2
        assert first_passage_index(obs, 0) == 0

    def test_too_short(self):
        from rwre.walk import WalkObservation

        obs = WalkObservation(hit=np.array([0, 1]))
        with pytest.raises(WindowTooSmallError):
            first_passage_index(obs, 1)

    def test_event_identity_and_bound(self, window_75):
        # {n_t <= y} iff {T(y+1) > t}, and |X(t) - n_t| <= t - T(n_t) < tau_{n_t}
        for r in range(25):
            rng = np.random.default_rng(50 + r)
            obs = sample_position(window_75, 0, [], rng, BUDGET,
                                  n_goal=80, record_path=True)
            t_end = int(obs.hit[-1]) - 1
            for t in range(0, t_end, 7):
                n_t = first_passage_index(obs, t)
                x_t = int(obs.path[t])
                assert abs(x_t - n_t) <= t - int(obs.hit[n_t]) < int(obs.tau[n_t])
                for y in (n_t - 1, n_t, n_t + 1):
                    if 0 <= y and y + 1 < len(obs.hit):
                        assert (n_t <= y) == (int(obs.hit[y + 1]) > t)


class TestBatchEngines:
    def test_deterministic_given_seed(self, window_75):
        budget = SimulationBudget(left_guard=80, max_steps=100_000)
        a = batch_hitting_times(window_75, 150, 42, 300, budget)
        b = batch_hitting_times(window_75, 150, 42, 300, budget)
        assert np.array_equal(a, b)

    def test_replica_result_independent_of_count(self, window_75):
        budget = SimulationBudget(left_guard=80, max_steps=100_000)
        small = batch_hitting_times(window_75, 150, 42, 200, budget)
        large = batch_hitting_times(window_75, 150, 42, 1500, budget)
        assert np.array_equal(small, large[:200])
        xs = batch_positions(window_75, 300, 42, 200, budget.left_guard)
        xl = batch_positions(window_75, 300, 42, 2 * REPLICA_CHUNK, budget.left_guard)
        assert np.array_equal(xs, xl[:200])

    def test_quenched_variance_matches_site_sums(self, two_point):
        from rwre.analytics import MomentProfile

        w = realize(two_point, -150, 600, seed=17)
        profile = MomentProfile(w)
        n = 500
        expected_var = float(profile.sigma2_array(n).sum())
        budget = SimulationBudget(left_guard=100, max_steps=200_000)
        t_n = batch_hitting_times(w, n, 4242, 4000, budget)
        sample_var = float(np.var(t_n, ddof=1))
        rel_se = np.sqrt(2.0 / 4000)  # near-normal sums
        assert abs(sample_var / expected_var - 1.0) <= 5.0 * rel_se

    def test_window_coverage_errors(self, window_75):
        budget = SimulationBudget(left_guard=80, max_steps=1000)
        with pytest.raises(WindowTooSmallError):
            batch_hitting_times(window_75, 5000, 1, 200, budget)
        with pytest.raises(WindowTooSmallError):
            batch_positions(window_75, 5000, 1, 200, budget.left_guard)

    def test_batch_crossing_time_pmf(self, window_75):
        # T(1): P(T=1) = p_0 and P(T=3) = (1-p_0) p_{-1} p_0
        mixed = EnvironmentWindow.from_values([0.9] * 99 + [0.5, 0.75] + [0.9] * 10, lo=-100)
        r = 20 * REPLICA_CHUNK
        for window, pmf in ((window_75, {1: 0.75, 3: 0.140625}), (mixed, {1: 0.75, 3: 0.09375})):
            t1 = batch_hitting_times(window, 1, 77, r, BUDGET)
            assert np.all(t1 % 2 == 1)
            for value, prob in pmf.items():
                se = np.sqrt(prob * (1.0 - prob) / r)
                assert abs(np.mean(t1 == value) - prob) <= 5.0 * se

    def test_batch_moments_match_profile_on_slow_law(self):
        from rwre.analytics import MomentProfile

        slow = IidDiscrete(atoms=((0.75, 0.5), (0.45, 0.5)))  # mu = 8
        guard = suggested_left_guard(slow)
        w = realize(slow, -max(guard + 2, suggested_burn_in(slow)), 401, seed=3)
        profile = MomentProfile(w)
        n, r = 400, 20 * REPLICA_CHUNK
        t_n = batch_hitting_times(w, n, 2718, r, SimulationBudget(left_guard=guard, max_steps=10**7))
        var = float(np.var(t_n, ddof=1))
        var_se = np.sqrt((np.mean((t_n - t_n.mean()) ** 4) - var ** 2) / r)
        assert abs(t_n.mean() - profile.hitting_centering(n)) <= 5.0 * np.sqrt(var / r)
        assert abs(var - float(profile.sigma2_array(n).sum())) <= 5.0 * var_se

    def test_batch_position_pmf_on_mixed_window(self):
        # p_{-1} = 0.5, p_0 = 0.75, p_1 = 0.9: every site enters X(1) or X(2)
        mixed = EnvironmentWindow.from_values([0.9] * 99 + [0.5, 0.75] + [0.9] * 10, lo=-100)
        r = 20 * REPLICA_CHUNK
        laws = {1: {1: 0.75, -1: 0.25}, 2: {2: 0.675, 0: 0.2, -2: 0.125}}
        for t, pmf in laws.items():
            x = batch_positions(mixed, t, 78, r, BUDGET.left_guard)
            assert set(np.unique(x)) <= set(pmf)
            for value, prob in pmf.items():
                se = np.sqrt(prob * (1.0 - prob) / r)
                assert abs(np.mean(x == value) - prob) <= 5.0 * se

    def test_batch_position_left_guard_breach(self, window_75):
        # each walker steps left of 0 at its first step with probability 1/4
        with pytest.raises(LeftGuardBreachError):
            batch_positions(window_75, 50, 1, 200, 1)
        x = batch_positions(window_75, 50, 1, 200, 60)
        assert np.all((x + 50) % 2 == 0) and x.min() > -50
        with pytest.raises(ModelError):
            batch_positions(window_75, 50, 1, 200, 0)
        # a walker that can only step left reaches the guard surely
        sink = EnvironmentWindow.from_values([1e-40] * 30, lo=-10)
        with pytest.raises(LeftGuardBreachError):
            batch_positions(sink, 12, 1, 200, 3)

    def test_replica_count_below_one(self, window_75):
        for n_replicas in (0, -1):
            with pytest.raises(ModelError):
                batch_hitting_times(window_75, 50, 1, n_replicas, BUDGET)
            with pytest.raises(ModelError):
                batch_positions(window_75, 50, 1, n_replicas, BUDGET.left_guard)

    def test_batch_left_guard_breach(self, window_75):
        # each replica's walker steps left of 0 with probability 1/4
        with pytest.raises(LeftGuardBreachError):
            batch_hitting_times(window_75, 50, 1, 200, SimulationBudget(left_guard=1, max_steps=10**6))

    def test_batch_step_budget(self, window_75):
        with pytest.raises(StepBudgetExceededError):
            batch_hitting_times(window_75, 50, 1, 200, SimulationBudget(left_guard=80, max_steps=49))
        # the chunk raises exactly when one of its T(n) exceeds max_steps
        t_max = int(batch_hitting_times(window_75, 50, 1, REPLICA_CHUNK, BUDGET).max())
        budget = SimulationBudget(left_guard=80, max_steps=t_max)
        assert batch_hitting_times(window_75, 50, 1, 200, budget).max() <= t_max
        with pytest.raises(StepBudgetExceededError):
            batch_hitting_times(window_75, 50, 1, 200, SimulationBudget(left_guard=80, max_steps=t_max - 1))


    def test_batch_guard_checked_before_step_cap(self, window_75):
        # with the guard at -1 and the cap at 80, the chunk's uniforms fall
        # in the law, in the guard mass and beyond it (alive at the cap)
        n, guard, cap = 50, 1, 80
        pmf, absorbed, alive, _ = hitting_law(window_75, n, guard, cap)
        end = np.cumsum(pmf)[-1]
        u = _uniforms(1, 200)
        assert alive > 0.0 and np.any(u < end)
        assert np.any((u >= end) & (u < end + absorbed)) and np.any(u >= end + absorbed)
        with pytest.raises(LeftGuardBreachError):
            batch_hitting_times(window_75, n, 1, 200, SimulationBudget(left_guard=guard, max_steps=cap))


def _law_window(name, n, seed):
    model = PARITY_LAWS[name]
    guard = suggested_left_guard(model)
    return realize(model, -max(guard + 2, suggested_burn_in(model)), n + 1, seed=seed), guard


class TestStoppedHittingLaw:
    """``batch_hitting_times`` propagates the law of T(n) only until its CDF
    passes the largest uniform; every sample stays the full law's."""

    @pytest.mark.parametrize("name, n", [("two-point", 500), ("slow", 400)])
    def test_equals_full_law_inversion(self, name, n):
        w, guard = _law_window(name, n, seed=11)
        budget = SimulationBudget(left_guard=guard, max_steps=10**7)
        pmf, absorbed, alive, _ = hitting_law(w, n, guard, budget.max_steps)
        cdf = np.cumsum(pmf)  # the law's cells come first in the inverted CDF
        r = 2 * REPLICA_CHUNK + 300
        for seed in (1, 2, 3, 4):
            u = np.concatenate([
                np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,))).random(REPLICA_CHUNK)
                for c in range(3)
            ])
            assert u.max() < cdf[-1]
            expected = np.searchsorted(cdf, u[:r], side="right")
            assert np.array_equal(batch_hitting_times(w, n, seed, r, budget), expected)

    def test_saves_most_steps_on_slow_law(self):
        # at n = 2000 and R = 5000 the uniforms are resolved long before
        # every cell of the slow law's T(n) falls below LAW_EPS
        n = 2000
        w, guard = _law_window("slow", n, seed=5)
        full, _, _, _ = hitting_law(w, n, guard, 10**7)
        stopped, _, _, _ = hitting_law(w, n, guard, 10**7, target=float(_uniforms(7, 5000).max()))
        assert stopped.size - 1 < (full.size - 1) / 2


class TestHittingSamplerEquivalence:
    """The inverted exact law of T(n) against the KKS reference sampler.

    Independent seeds, R = 20 * 1024 replicas each.  Each check has a stated
    false-alarm rate if the two laws agree: two-sample KS p-value >= 1e-3
    (alpha = 1e-3; conservative for lattice data), and |z| <= 4 for the
    difference of means and of variances (alpha = 6.3e-5 each, the variance
    SE from the fourth central moment).
    """

    @staticmethod
    def _z(a, b, stat):
        if stat == "mean":
            return (a.mean() - b.mean()) / math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        se2 = [(np.mean((x - x.mean()) ** 4) - x.var(ddof=1) ** 2) / x.size for x in (a, b)]
        return (a.var(ddof=1) - b.var(ddof=1)) / math.sqrt(sum(se2))

    @pytest.mark.parametrize("name, n", [("two-point", 500), ("slow", 400)])
    def test_matches_kks(self, name, n):
        model = PARITY_LAWS[name]
        guard = suggested_left_guard(model)
        w = realize(model, -max(guard + 2, suggested_burn_in(model)), n + 1, seed=11)
        budget = SimulationBudget(left_guard=guard, max_steps=10**7)
        r = 20 * REPLICA_CHUNK
        exact = batch_hitting_times(w, n, 101, r, budget)
        kks = kks_hitting_times(w, n, 202, r, budget)
        assert np.all((exact - n) % 2 == 0) and exact.min() >= n
        assert ks_2samp(exact, kks).pvalue >= 1e-3
        assert abs(self._z(exact, kks, "mean")) <= 4.0
        assert abs(self._z(exact, kks, "variance")) <= 4.0
