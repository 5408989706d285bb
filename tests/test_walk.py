import numpy as np
import pytest

from rwre.environment import (
    Constant,
    EnvironmentWindow,
    IidDiscrete,
    realize,
    suggested_burn_in,
    suggested_left_guard,
)
from rwre.errors import (
    LeftGuardBreachError,
    ModelError,
    RightGuardBreachError,
    StepBudgetExceededError,
    WindowTooSmallError,
)
from rwre.walk import (
    REPLICA_CHUNK,
    SimulationBudget,
    batch_hitting_times,
    batch_positions,
    first_passage_index,
    sample_hitting_times,
    sample_position,
    step,
)

BUDGET = SimulationBudget(left_guard=80, max_steps=5_000_000)


@pytest.fixture
def window_75():
    return realize(Constant(0.75), -150, 2500, seed=1)


class TestStep:
    def test_near_deterministic_up(self):
        p_top = np.nextafter(1.0, 0.0)
        w = EnvironmentWindow.from_values([p_top] * 5, lo=-2)
        rng = np.random.default_rng(0)
        x = 0
        for _ in range(10_000):
            assert step(w, 0, rng) == 1

    def test_empirical_up_fraction(self, window_75):
        rng = np.random.default_rng(123)
        ups = sum(step(window_75, 0, rng) == 1 for _ in range(100_000))
        assert ups / 100_000 == pytest.approx(0.75, abs=0.005)

    def test_replay_identical(self, window_75):
        seq1 = [step(window_75, 0, np.random.default_rng(7)) for _ in range(1)]
        path1 = []
        rng = np.random.default_rng(7)
        x = 0
        for _ in range(500):
            x = step(window_75, x, rng)
            path1.append(x)
        rng = np.random.default_rng(7)
        x = 0
        path2 = []
        for _ in range(500):
            x = step(window_75, x, rng)
            path2.append(x)
        assert path1 == path2

    def test_edge_raises(self):
        w = realize(Constant(0.75), -2, 2, seed=0)
        rng = np.random.default_rng(0)
        with pytest.raises(LeftGuardBreachError):
            step(w, -2, rng)
        with pytest.raises(RightGuardBreachError):
            step(w, 2, rng)


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
        obs = sample_position(window_75, 0, [50, 500], rng, BUDGET,
                              record_hitting=True, n_goal=100)
        assert len(obs.hit) >= 101
        assert len(obs.snapshots) == 2


class TestFirstPassageIndex:
    def test_from_definition(self):
        obs_tau = np.array([1, 3, 1])
        hit = np.concatenate([[0], np.cumsum(obs_tau)])  # (0, 1, 4, 5)
        from rwre.walk import WalkObservation

        obs = WalkObservation(replica_seed=0, start=0, tau=obs_tau, hit=hit)
        assert first_passage_index(obs, 3) == 1
        assert first_passage_index(obs, 1) == 1  # t = T(1): left-closed bracket
        assert first_passage_index(obs, 4) == 2
        assert first_passage_index(obs, 0) == 0

    def test_too_short(self):
        from rwre.walk import WalkObservation

        obs = WalkObservation(
            replica_seed=0, start=0, tau=np.array([1]), hit=np.array([0, 1])
        )
        with pytest.raises(WindowTooSmallError):
            first_passage_index(obs, 1)

    def test_event_identity_and_bound(self, window_75):
        # {n_t <= y} iff {T(y+1) > t}, and |X(t) - n_t| <= t - T(n_t) < tau_{n_t}
        for r in range(25):
            rng = np.random.default_rng(50 + r)
            obs = sample_position(window_75, 0, [], rng, BUDGET,
                                  record_hitting=True, n_goal=80, record_path=True)
            t_end = int(obs.hit[-1]) - 1
            for t in range(0, t_end, 7):
                n_t = first_passage_index(obs, t)
                x_t = int(obs.path[t])
                assert abs(x_t - n_t) <= t - int(obs.hit[n_t]) < int(obs.tau[n_t])
                for y in (n_t - 1, n_t, n_t + 1):
                    if 0 <= y and y + 1 < len(obs.hit):
                        assert (n_t <= y) == (int(obs.hit[y + 1]) > t)


class TestBatchEngines:
    def test_deterministic_across_worker_counts(self, window_75):
        budget = SimulationBudget(left_guard=80, max_steps=100_000)
        a = batch_hitting_times(window_75, 150, 42, 300, budget, workers=1)
        b = batch_hitting_times(window_75, 150, 42, 300, budget, workers=4)
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
