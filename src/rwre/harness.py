"""Statistical experiment harness.

Every experiment follows the quenched protocol: one environment window is
realized from the environment seed and frozen; all randomness after that is
the walkers'.  Seeds are split into (env_seed, walk_seed) children of the
master seed, replicas fan out in fixed-width chunks, and every report is a
pure function of its configuration.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from . import analytics, walk
from .analytics import MomentProfile, SummaryStatistics, signed_range_sum
from .environment import (
    EnvironmentModel,
    EnvironmentWindow,
    mean_log_odds,
    odds_growth_rate,
    realize,
    suggested_burn_in,
    suggested_left_guard,
)
from .errors import ConfigError, ModelError, NotCltEligibleError, RightGuardBreachError
from .walk import SimulationBudget

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "DiagnosticReport",
    "LlnReport",
    "VarianceRatioReport",
    "ErgodicityReport",
    "CouplingReport",
    "ks_distance",
    "normal_cdf",
    "default_ks_threshold",
    "clt_hitting",
    "clt_position",
    "lln_check",
    "variance_ratio_check",
    "fluctuation_diagnostics",
    "uniform_ergodicity_estimate",
    "coupling_identity_check",
]

_SQRT_HALF = math.sqrt(0.5)
_DIAG_N_GRID = (100, 1000, 10_000)  # the diagnostics' n grid when the config sets none
_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x):
    """Standard normal CDF, Phi(x) = erfc(-x / sqrt 2) / 2, through ``math.erfc``.

    A scalar gives a Python float and an array a float64 array of its shape,
    Phi taken elementwise (a CLT driver passes its sample's distinct values
    only); Phi(-inf) = 0 and Phi(inf) = 1.  On [-8, 8] it is within about
    80 ulp of the exact value and within 19 ulp of ``scipy.special.ndtr``,
    which is no closer to exact.
    """
    if np.ndim(x) == 0:
        return 0.5 * math.erfc(-float(x) * _SQRT_HALF)
    return 0.5 * _erfc(-np.asarray(x, dtype=np.float64) * _SQRT_HALF).astype(np.float64)


def default_ks_threshold(n_replicas: int) -> float:
    """max(0.03, three times the 95% Kolmogorov critical value)."""
    return max(0.03, 3.0 * 1.36 / math.sqrt(n_replicas))


def _ks_from_table(f: np.ndarray, counts: np.ndarray) -> float:
    """KS distance from a sample's table: ``f``, the reference CDF at each
    distinct value in ascending order, and the ``counts`` of each.  fl(f - x)
    is monotone in x, so a value's ECDF step has its largest gap at an end."""
    m = int(counts.sum())
    upper = np.cumsum(counts)
    lower = upper - counts
    return float(max(np.max(np.abs(f - upper / m)), np.max(np.abs(f - lower / m))))


def ks_distance(samples, reference_cdf=normal_cdf) -> float:
    """Sup distance between the sample ECDF and a continuous reference CDF."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    if len(xs) == 0:
        raise ModelError("ks_distance: empty sample set")
    f = np.asarray(reference_cdf(xs), dtype=np.float64)
    return _ks_from_table(f, np.ones(len(xs), dtype=np.int64))


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run.

    ``n``, ``t``, ``replicas``, ``env_replicates``, ``left_guard`` and
    ``max_steps`` (the last two when set) and the ``t_grid`` and ``n_grid``
    entries are integers, not bools; so are the seeds, which are also
    non-negative.  ``diag_c``, ``lln_rel_tol``, ``ks_threshold`` (when set)
    and the ``x_grid`` entries are real numbers, not bools.  Grids must be
    sorted; ``n``, ``t`` and the ``t_grid`` and ``n_grid`` entries are at
    least 1, the replica count is at least 100 unless ``check_replicas`` is
    false (a run that never reads it), the diagnostic exponent ``diag_c``
    is finite and positive with a finite diagnostics window (n ** ((1 + c) / 2)
    sites past the largest n), ``ks_threshold`` (when set) lies in (0, 1],
    ``lln_rel_tol`` is finite and positive and the ``x_grid`` entries are
    finite, so every verdict depends on the samples.  Seeds not given
    explicitly are derived as children of the master seed.
    ``lln`` takes its scales from the last ``n_grid`` and ``t_grid`` entries;
    ``n`` and ``t`` only build an empty grid, the geometric grid ending at them.
    ``max_steps`` caps hitting, LLN and trajectory runs only: X(t) always
    takes exactly t steps.  Every sampler runs in one process, so no field
    sets a worker count.  The law-level constants (``analytics.summary``)
    are exact and take no setting.
    """

    model: EnvironmentModel
    kind: str = "clt_hitting"
    n: int = 2000
    t: int = 4000
    replicas: int = 1000
    centering: str = "explicit"
    x_grid: tuple[float, ...] = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
    t_grid: tuple[int, ...] = ()
    n_grid: tuple[int, ...] = ()
    diag_c: float = 0.2
    ks_threshold: float | None = None
    lln_rel_tol: float = 0.02
    master_seed: int = 0xC0FFEE
    env_seed: int | None = None
    walk_seed: int | None = None
    env_replicates: int = 1
    left_guard: int | None = None
    max_steps: int | None = None
    check_replicas: InitVar[bool] = True

    def __post_init__(self, check_replicas: bool) -> None:
        for name in ("n", "t", "replicas", "env_replicates", "left_guard", "max_steps"):
            value = getattr(self, name)
            if not (_is_int(value) or value is None and name in ("left_guard", "max_steps")):
                raise ConfigError(f"experiment.{name}: must be an integer, got {value!r}")
        for name in ("master_seed", "env_seed", "walk_seed"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 0 or value is None and name != "master_seed"):
                raise ConfigError(f"seeds.{name[:-5]}: must be a non-negative integer, got {value!r}")
        for name in ("diag_c", "lln_rel_tol", "ks_threshold"):
            value = getattr(self, name)
            if not (_is_real(value) or value is None and name == "ks_threshold"):
                raise ConfigError(f"experiment.{name}: must be a real number, got {value!r}")
        for name in ("n", "t"):
            if getattr(self, name) < 1:
                raise ConfigError(f"experiment.{name}: must be >= 1, got {getattr(self, name)}")
        if check_replicas and self.replicas < 100:
            raise ConfigError(f"experiment.replicas: must be >= 100, got {self.replicas}")
        if self.centering not in ("explicit", "implicit"):
            raise ConfigError(
                f"experiment.centering: must be 'explicit' or 'implicit', got {self.centering!r}"
            )
        for name in ("x_grid", "t_grid", "n_grid"):
            grid = tuple(getattr(self, name))
            object.__setattr__(self, name, grid)
            if name != "x_grid" and not all(_is_int(v) for v in grid):
                raise ConfigError(f"experiment.{name}: entries must be integers, got {list(grid)}")
            if not all(_is_real(v) for v in grid):
                raise ConfigError(f"experiment.{name}: entries must be real numbers, got {list(grid)}")
            if list(grid) != sorted(grid):
                raise ConfigError(f"experiment.{name}: grid must be sorted")
            if name != "x_grid" and grid and grid[0] < 1:
                raise ConfigError(f"experiment.{name}: entries must be >= 1, got {grid[0]}")
        if not all(math.isfinite(x) for x in self.x_grid):
            raise ConfigError(f"experiment.x_grid: entries must be finite, got {list(self.x_grid)}")
        if not 0 < self.diag_c < math.inf:
            raise ConfigError(f"experiment.diag_c: must be finite and positive, got {self.diag_c}")
        try:  # the diagnostics window reaches n ** ((1 + c) / 2) sites past the largest n
            max(self.n_grid or _DIAG_N_GRID) ** ((1 + self.diag_c) / 2)
        except OverflowError:
            raise ConfigError(f"experiment.diag_c: the diagnostics window overflows a float at {self.diag_c}")
        if self.ks_threshold is not None and not 0 < self.ks_threshold <= 1:
            raise ConfigError(f"experiment.ks_threshold: must lie in (0, 1], got {self.ks_threshold}")
        if not 0 < self.lln_rel_tol < math.inf:
            raise ConfigError(f"experiment.lln_rel_tol: must be finite and positive, got {self.lln_rel_tol}")
        if self.kind not in (
            "clt_hitting",
            "clt_position",
            "lln",
            "diagnostics",
            "simulate",
        ):
            raise ConfigError(f"experiment.kind: unknown kind {self.kind!r}")
        if self.env_replicates < 1:
            raise ConfigError("experiment.env_replicates: must be >= 1")

    def resolved_env_seed(self, replicate: int = 0) -> int:
        base = self.env_seed if self.env_seed is not None else _child_seed(self.master_seed, 1)
        if replicate == 0:
            return base
        return _child_seed(base, 100 + replicate)

    def resolved_walk_seed(self) -> int:
        return self.walk_seed if self.walk_seed is not None else _child_seed(self.master_seed, 2)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _child_seed(seed: int, key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(key,)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one CLT experiment: standardized samples and the verdict.

    ``values``, ``counts`` and ``phi`` are the one CDF table of the item:
    the distinct standardized values in ascending order, the replicas at
    each and Phi at each.  ``rows`` gives each replica's row in it, so
    ``standardized`` is ``values[rows]``.
    """

    kind: str
    scale: int                       # n for hitting, t for position
    replicas: int
    centering: str | None
    ks_distance: float
    threshold: float
    verdict: bool
    raw_samples: np.ndarray
    rows: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    phi: np.ndarray
    centering_value: float
    scale_value: float               # sqrt(n) sigma or sqrt(t) sigma*
    summary: SummaryStatistics
    window_sigma2: float
    window_mu: float
    cdf_errors: tuple[tuple[float, float, float], ...]  # (x, ecdf, reference)
    env_seed: int
    walk_seed: int
    ks_distribution: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.ks_distance <= 1.0:
            raise ModelError("report: KS distance must lie in [0, 1]")
        if self.verdict != (self.ks_distance <= self.threshold):
            raise ModelError("report: verdict inconsistent with threshold")

    @property
    def standardized(self) -> np.ndarray:
        """Each replica's standardized sample, in replica order."""
        return self.values[self.rows]


def _left_guard(config: ExperimentConfig) -> int:
    if config.left_guard is None:
        return suggested_left_guard(config.model)
    if config.left_guard < 1:
        raise ConfigError(f"experiment.left_guard: must be >= 1, got {config.left_guard}")
    return config.left_guard


def _budget(config: ExperimentConfig, default_max_steps: int) -> SimulationBudget:
    """Step cap ``config.max_steps`` when set (0 is rejected), else the driver's default."""
    if config.max_steps is not None and config.max_steps < 1:
        raise ConfigError(f"experiment.max_steps: must be >= 1, got {config.max_steps}")
    max_steps = config.max_steps if config.max_steps is not None else default_max_steps
    return SimulationBudget(left_guard=_left_guard(config), max_steps=max_steps)


def _experiment_window(config: ExperimentConfig, right: int, env_seed: int,
                       guard: int) -> EnvironmentWindow:
    margin = max(guard + 2, suggested_burn_in(config.model))
    return realize(config.model, -margin, right, env_seed)


def _cdf_table(samples: np.ndarray, center: float, scale_value: float):
    """(rows, values, counts, phi, KS distance) of an integer sample, grouped
    once: ascending integers standardize to non-decreasing values, so
    ``np.repeat(values, counts)`` is the sorted standardized sample."""
    distinct, rows, counts = np.unique(samples, return_inverse=True, return_counts=True)
    values = (distinct - center) / scale_value
    phi = normal_cdf(values)
    return rows, values, counts, phi, _ks_from_table(phi, counts)


def _clt_experiment(config: ExperimentConfig, kind: str, scale: int, centering: str | None,
                summ: SummaryStatistics, replicate) -> ExperimentReport:
    """Run every environment replicate and report the first one.

    ``replicate(env_seed)`` realizes the window and returns (samples,
    centering value, scale value, window sigma2, window mu).  The first
    replicate's table (``_cdf_table``) gives the KS distance, the
    ``cdf_errors`` rows and, through the report, both CSVs; every later
    replicate's table only adds its KS distance to ``ks_distribution``.
    """
    env_seed = config.resolved_env_seed()
    samples, center, scale_value, window_sigma2, window_mu = replicate(env_seed)
    rows, values, counts, phi, ks = _cdf_table(samples, center, scale_value)
    ks_list = [ks]
    for rep in range(1, config.env_replicates):
        other, other_center, other_scale, _, _ = replicate(config.resolved_env_seed(rep))
        ks_list.append(_cdf_table(other, other_center, other_scale)[-1])
    threshold = config.ks_threshold if config.ks_threshold is not None else default_ks_threshold(config.replicas)
    return ExperimentReport(
        kind=kind,
        scale=scale,
        replicas=config.replicas,
        centering=centering,
        ks_distance=ks,
        threshold=threshold,
        verdict=ks <= threshold,
        raw_samples=samples,
        rows=rows,
        values=values,
        counts=counts,
        phi=phi,
        centering_value=center,
        scale_value=scale_value,
        summary=summ,
        window_sigma2=window_sigma2,
        window_mu=window_mu,
        cdf_errors=tuple(
            (float(x), float(counts[values <= x].sum()) / len(samples), float(normal_cdf(x)))
            for x in config.x_grid
        ),
        env_seed=env_seed,
        walk_seed=config.resolved_walk_seed(),
        ks_distribution=tuple(ks_list),
    )


def clt_hitting(config: ExperimentConfig) -> ExperimentReport:
    """Hitting-time fluctuation experiment under one quenched environment.

    Standardizes T(n) by the window's own expected hitting time and by the
    window-averaged crossing variance (the self-consistent quenched scale),
    then measures the KS distance to the standard normal CDF.
    """
    summ = analytics.summary(config.model)
    n = config.n
    budget = _budget(config, walk.default_max_steps(n, summ.mu))

    def replicate(env_seed):
        window = _experiment_window(config, n + 1, env_seed, budget.left_guard)
        profile = MomentProfile(window)
        centering = profile.hitting_centering(n)
        window_sigma2 = float(profile.sigma2_array(n).mean())
        samples = walk.batch_hitting_times(window, n, config.resolved_walk_seed(),
                                           config.replicas, budget)
        return samples, centering, math.sqrt(n * window_sigma2), window_sigma2, centering / n

    return _clt_experiment(config, "clt_hitting", n, None, summ, replicate)


def clt_position(config: ExperimentConfig) -> ExperimentReport:
    """Position fluctuation experiment with the configured centering.

    The centering is the explicit closed form or the implicit bracket from
    the same window the walkers run in; the scale is sqrt(t) times the
    window's self-consistent position scale.
    """
    summ = analytics.summary(config.model)
    t = config.t
    guard = _left_guard(config)
    # the scale averages the first t/mu sites, and at least 64 of them
    k_used = max(64, int(t / summ.mu))

    def replicate(env_seed):
        window = _experiment_window(config, max(t, k_used) + 1, env_seed, guard)
        profile = MomentProfile(window)
        if config.centering == "explicit":
            centering = profile.explicit_center(t, summ.mu)
        else:
            centering = float(profile.implicit_center(t))
        window_mu = profile.hitting_centering(k_used) / k_used
        window_sigma2 = float(profile.sigma2_array(k_used).mean())
        scale_value = math.sqrt(t) * math.sqrt(window_mu**-3 * window_sigma2)
        samples = walk.batch_positions(window, t, config.resolved_walk_seed(),
                                       config.replicas, guard)
        return samples, centering, scale_value, window_sigma2, window_mu

    return _clt_experiment(config, "clt_position", t, config.centering, summ, replicate)


@dataclass(frozen=True)
class LlnReport:
    """Long-trajectory averages T(n)/n and X(t)/t over geometric grids."""

    n_grid: tuple[int, ...]
    hitting_ratios: tuple[float, ...]
    t_grid: tuple[int, ...]
    position_ratios: tuple[float, ...]
    mu: float | None
    hitting_rel_error: float | None
    position_rel_error: float | None
    verdict: bool
    env_seed: int
    walk_seed: int


def lln_check(config: ExperimentConfig) -> LlnReport:
    """Law-of-large-numbers check on one long joint trajectory.

    The scales n and t are the last ``n_grid`` and ``t_grid`` entries; they
    set the window, the step budget, the hitting goal and the verdict, and
    ``config.n`` and ``config.t`` only build an empty grid, which ends at
    them.  The walker never passes max(n, t), one site inside the full window.
    A positive-speed walker first gets the sites to its LLN reach with a
    margin, max(n + 1, 1.1 t/mu + 1); past that, it is replayed step for step
    from the same seed on the full window.  For positive-speed laws the
    verdict compares T(n)/n and X(t)/t to the law-level mean crossing time
    (``analytics.reference_crossing_mean``, the circle average for
    quasi-periodic laws) within config.lln_rel_tol relative error.
    Zero-speed transient laws (order-1 growth rate >= 1) get trend reporting
    only: X(t)/t should fall.
    """
    if mean_log_odds(config.model) >= 0:
        raise NotCltEligibleError("LLN experiment requires a transient-right law")
    positive_speed = odds_growth_rate(config.model, 1.0) < 1.0
    mu = analytics.reference_crossing_mean(config.model) if positive_speed else None

    n_grid = config.n_grid or _geometric_grid(config.n)
    t_grid = config.t_grid or _geometric_grid(config.t)
    n_max, t_max = n_grid[-1], t_grid[-1]
    mu_hint = mu if mu is not None else 10.0
    budget = _budget(config, walk.default_max_steps(n_max, mu_hint) + 2 * t_max)
    env_seed = config.resolved_env_seed()
    full = max(n_max, t_max) + 1
    right = min(full, max(n_max + 1, int(1.1 * t_max / mu) + 1)) if positive_speed else full

    def walk_to(end):
        window = _experiment_window(config, end, env_seed, budget.left_guard)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.resolved_walk_seed()))
        # zero-speed walks may never reach a fixed site within any sane budget,
        # so the hitting goal is only imposed in the positive-speed regime
        n_goal = n_max if positive_speed else None
        return walk.sample_position(window, 0, t_grid, rng, budget, n_goal=n_goal)

    try:
        obs = walk_to(right)
    except RightGuardBreachError:
        obs = None
    if obs is None:  # outside the except block, so the first window is freed first
        obs = walk_to(full)
    hit = obs.hit
    hitting_ratios = tuple(
        float(hit[m]) / m if m < len(hit) else float("nan") for m in n_grid
    )
    pos = dict(obs.snapshots)
    position_ratios = tuple(pos[t] / t for t in t_grid)
    if positive_speed:
        h_err = abs(hitting_ratios[-1] - mu) / mu
        p_err = abs(position_ratios[-1] - 1.0 / mu) * mu
        verdict = h_err <= config.lln_rel_tol and p_err <= config.lln_rel_tol
    else:
        h_err = p_err = None
        verdict = position_ratios[-1] < position_ratios[0]
    return LlnReport(
        n_grid=tuple(n_grid),
        hitting_ratios=hitting_ratios,
        t_grid=tuple(t_grid),
        position_ratios=position_ratios,
        mu=mu,
        hitting_rel_error=h_err,
        position_rel_error=p_err,
        verdict=verdict,
        env_seed=env_seed,
        walk_seed=config.resolved_walk_seed(),
    )


def _geometric_grid(top: int) -> tuple[int, ...]:
    """Five points top^(i/4), i = 0..4, rounded; duplicates dropped."""
    return tuple(sorted({max(1, int(round(top ** (i / 4)))) for i in range(5)}))


@dataclass(frozen=True)
class VarianceRatioReport:
    """Quenched variance accumulation against the law-level scale."""

    n_grid: tuple[int, ...]
    ratio: tuple[float, ...]        # sum_k var_k / (n sigma2)
    max_share: tuple[float, ...]    # max_k var_k / sum_k var_k
    ratio_converges: bool
    share_vanishes: bool


def variance_ratio_check(config: ExperimentConfig) -> VarianceRatioReport:
    """Checks sum_{k<n} var_k ~ n sigma2 within 5% and that no single site dominates."""
    summ = analytics.summary(config.model)
    n_grid = config.n_grid or _geometric_grid(config.n)
    env_seed = config.resolved_env_seed()
    window = realize(config.model, -suggested_burn_in(config.model), max(n_grid) + 1, env_seed)
    profile = MomentProfile(window)
    sig = profile.sigma2_array(max(n_grid))
    csum = np.cumsum(sig)
    cmax = np.maximum.accumulate(sig)
    ratio = tuple(float(csum[n - 1] / (n * summ.sigma2)) for n in n_grid)
    share = tuple(float(cmax[n - 1] / csum[n - 1]) for n in n_grid)
    return VarianceRatioReport(
        n_grid=tuple(n_grid),
        ratio=ratio,
        max_share=share,
        ratio_converges=abs(ratio[-1] - 1.0) <= 0.05,
        share_vanishes=share[-1] <= max(10.0 / n_grid[-1], 0.05),
    )


@dataclass(frozen=True)
class DiagnosticReport:
    """Centered-sum diagnostics behind the position-centering conditions.

    ``explicit_window_sums[t][x]`` is the scaled centered sum between t/mu
    and the shifted explicit center (median over environment replicates);
    ``implicit_window_sums`` is the analogue anchored at the implicit
    center.  ``shifted`` variants move the upper limit down by one index
    (both conventions are reported).  ``scaled_range`` is the local maximal
    fluctuation statistic at the configured exponent.
    """

    t_grid: tuple[int, ...]
    x_grid: tuple[float, ...]
    explicit_window_sums: np.ndarray        # median over env replicates, shape (t, x)
    explicit_window_sums_shifted: np.ndarray
    implicit_window_sums: np.ndarray
    n_grid: tuple[int, ...]
    scaled_range: np.ndarray                # median over env replicates, per n
    max_abs_over_sqrt: np.ndarray           # H*(n)/sqrt(n), median
    max_abs_over_n: np.ndarray              # H*(n)/n, median
    centered_sum_scaled: np.ndarray         # n^{-(1+c)/2} H(n), median
    diag_c: float
    explicit_decreasing: bool
    env_seeds: tuple[int, ...]


def _median(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=0)`` bit for bit, without the ``numpy.ma`` import
    that its NaN check costs: the middle row of the sorted replicates, or the
    mean of the two middle rows; a column holding NaN gives NaN."""
    s = np.sort(a, axis=0)
    m = len(s) // 2
    mid = s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2
    return np.where(np.isnan(s[-1]), np.nan, mid)


def fluctuation_diagnostics(config: ExperimentConfig) -> DiagnosticReport:
    """Environment-side diagnostics over env_replicates quenched windows.

    Purely analytic in the environment: no walkers are run.  Verdicts are
    qualitative trends (medians decreasing with scale), as no convergence
    rate is available in general.  Each replicate's arrays die before the next is realized.
    """
    summ = analytics.summary(config.model)
    t_grid = config.t_grid or (1000, 10_000, 100_000)
    n_grid = config.n_grid or _DIAG_N_GRID
    x_grid = config.x_grid
    c = config.diag_c
    t_max = max(t_grid)
    n_max = max(n_grid)
    x_span = max(abs(x) for x in x_grid) if x_grid else 1.0

    k_needed = int(t_max / summ.mu + 8.0 * summ.sigma_star * math.sqrt(t_max) * (1 + x_span))
    k_needed = max(k_needed, n_max + int(n_max ** ((1 + c) / 2)) + 2, 256) + 64

    env_seeds = tuple(config.resolved_env_seed(rep) for rep in range(config.env_replicates))

    def replicate(env_seed):  # one row of the seven statistics
        window = realize(config.model, -suggested_burn_in(config.model), k_needed + 1, env_seed)
        profile = MomentProfile(window)
        centered = profile.mu_array(k_needed) - summ.mu
        prefix = np.concatenate([[0.0], np.cumsum(centered)])

        exp_sums = np.empty((len(t_grid), len(x_grid)))
        exp_sums_shift = np.empty_like(exp_sums)
        imp_sums = np.empty_like(exp_sums)
        for i, t in enumerate(t_grid):
            b_exp = profile.explicit_center(t, summ.mu)
            b_imp = profile.implicit_center(t)
            z, root_t = t / summ.mu, math.sqrt(t)
            for j, x in enumerate(x_grid):
                shift = root_t * summ.sigma_star * x
                first = min(b_exp + shift - 1.0, b_imp + shift)  # the sums' leftmost end
                if first < 0.0:
                    raise ConfigError(
                        f"experiment.t_grid: at t = {t} the window sums for x = {x} start at "
                        f"site {math.floor(first)}, left of site 0; use a larger t"
                    )
                exp_sums[i, j] = signed_range_sum(prefix, z, b_exp + shift) / root_t
                exp_sums_shift[i, j] = signed_range_sum(prefix, z, b_exp + shift - 1.0) / root_t
                imp_sums[i, j] = signed_range_sum(prefix, b_imp, b_imp + shift) / root_t

        rng_stat = []
        hs_sqrt = []
        hs_n = []
        h_scaled = []
        running = np.maximum.accumulate(np.abs(prefix[1:]))  # H*(n) = running[n - 1]
        for n in n_grid:
            s_max = int(n ** ((1 + c) / 2.0))
            right = np.abs(prefix[n + 1 : n + s_max + 2] - prefix[n])
            left = np.abs(prefix[n + 1] - prefix[max(0, n - s_max) : n + 1])
            rng_stat.append(max(right.max(), left.max()) / math.sqrt(n))
            hs_sqrt.append(running[n - 1] / math.sqrt(n))
            hs_n.append(running[n - 1] / n)
            h_scaled.append(abs(prefix[n]) / n ** ((1 + c) / 2.0))
        return (np.abs(exp_sums), np.abs(exp_sums_shift), np.abs(imp_sums),
                rng_stat, hs_sqrt, hs_n, h_scaled)

    rows = [replicate(env_seed) for env_seed in env_seeds]

    (exp_med, exp_shift_med, imp_med, range_med, hstar_sqrt_med, hstar_n_med,
     hscaled_med) = (_median(np.array(column)) for column in zip(*rows))

    decreasing = True
    for j, x in enumerate(x_grid):
        if x == 0:
            continue
        decreasing &= bool(np.all(np.diff(exp_med[:, j]) <= 1e-12))
    return DiagnosticReport(
        t_grid=tuple(t_grid),
        x_grid=tuple(x_grid),
        explicit_window_sums=exp_med,
        explicit_window_sums_shifted=exp_shift_med,
        implicit_window_sums=imp_med,
        n_grid=tuple(n_grid),
        scaled_range=range_med,
        max_abs_over_sqrt=hstar_sqrt_med,
        max_abs_over_n=hstar_n_med,
        centered_sum_scaled=hscaled_med,
        diag_c=c,
        explicit_decreasing=decreasing,
        env_seeds=env_seeds,
    )


@dataclass(frozen=True)
class ErgodicityReport:
    """Worst-start window averages of centered crossing means."""

    n_grid: tuple[int, ...]
    epsilon: tuple[float, ...]
    reference_mean: float
    decreasing: bool
    uniformly_ergodic: bool


def uniform_ergodicity_estimate(
    model: EnvironmentModel,
    n_grid,
    starts: int = 2000,
    *,
    seed: int = 0,
) -> ErgodicityReport:
    """eps_n = max over starts k of |(1/n) sum_{j=k+1..k+n} (mu_j - mu_ref)|.

    mu_ref is the law-level mean (circle average for quasi-periodic laws),
    so a rotation locked to a short rational orbit plateaus above zero and
    is flagged as not uniformly ergodic.  Uniform ergodicity is reported
    when eps decreases along the grid and ends below max(1e-3, eps_first / 4).
    An empty grid, a grid entry below 1 or fewer than one start raises ModelError.
    """
    n_grid = tuple(int(n) for n in n_grid)
    if not n_grid or min(n_grid) < 1:
        raise ModelError(f"uniform_ergodicity_estimate: n_grid needs entries >= 1, got {list(n_grid)}")
    if starts < 1:
        raise ModelError(f"uniform_ergodicity_estimate: starts must be >= 1, got {starts}")
    mu_ref = analytics.reference_crossing_mean(model)
    margin = suggested_burn_in(model)
    window = realize(model, -margin, starts + max(n_grid) + 2, seed)
    profile = MomentProfile(window)
    centered = profile.mu_array(starts + max(n_grid) + 1) - mu_ref
    prefix = np.concatenate([[0.0], np.cumsum(centered)])
    eps = []
    for n in n_grid:
        # window sums over j in [k+1, k+n] for k in [0, starts)
        sums = prefix[n + 1 : n + starts + 1] - prefix[1 : starts + 1]
        eps.append(float(np.max(np.abs(sums)) / n))
    decreasing = all(b < a for a, b in zip(eps, eps[1:]))
    return ErgodicityReport(
        n_grid=n_grid,
        epsilon=tuple(eps),
        reference_mean=mu_ref,
        decreasing=decreasing,
        uniformly_ergodic=decreasing and eps[-1] < max(1e-3, eps[0] / 4.0),
    )


@dataclass(frozen=True)
class CouplingReport:
    """Exhaustive per-trajectory identity checks.

    Counts violations of the event identity {n_t <= y} = {T(y+1) > t} and of
    the bound |X(t) - n_t| <= t - T(n_t) < tau_{n_t}, plus the parity and
    odd-crossing-time invariants, over trajectory x (t, y) grids.
    """

    trajectories: int
    checks: int
    event_identity_violations: int
    approximation_violations: int
    parity_violations: int
    odd_tau_violations: int

    @property
    def clean(self) -> bool:
        return (
            self.event_identity_violations == 0
            and self.approximation_violations == 0
            and self.parity_violations == 0
            and self.odd_tau_violations == 0
        )


def coupling_identity_check(
    config: ExperimentConfig,
    *,
    t_points: int = 25,
    y_per_t: int = 4,
) -> CouplingReport:
    """Joint-mode trajectories checked exhaustively on (t, y) grids.

    The t grid includes exact hitting times T(k) (the adversarial boundary
    case of the left-closed bracket); y runs over n_t plus each distinct offset
    in {-1, 0, 1, y_per_t} with T(y+1) recorded.  One ``first_passage_index``
    call per trajectory gives n_t on its whole t grid.  The law needs a
    positive speed: the default step cap comes from its law-level mean
    crossing time.
    """
    n_goal = config.n
    mu = analytics.reference_crossing_mean(config.model)
    budget = _budget(config, walk.default_max_steps(n_goal, mu))
    env_seed = config.resolved_env_seed()
    window = _experiment_window(config, n_goal + 1, env_seed, budget.left_guard)
    offsets = np.unique([-1, 0, 1, y_per_t])
    checks = event_bad = approx_bad = parity_bad = odd_bad = 0
    for r in range(config.replicas):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.resolved_walk_seed(), spawn_key=(7, r))
        )
        obs = walk.sample_position(window, 0, (), rng, budget, n_goal=n_goal, record_path=True)
        hit, tau, path = obs.hit, obs.tau, obs.path
        t_end = int(hit[-1]) - 1
        if np.any(tau % 2 != 1):
            odd_bad += 1
        if np.any((path + np.arange(len(path))) % 2 != 0):
            parity_bad += 1
        base = np.unique(np.linspace(0, t_end, t_points, dtype=np.int64))
        boundary = hit[hit <= t_end][:: max(1, len(hit) // 8)]
        t = np.unique(np.concatenate([base, boundary]))
        n_t = walk.first_passage_index(obs, t)
        since = t - hit[n_t]  # the bound |X(t) - n_t| <= t - T(n_t) < tau_{n_t}
        approx_bad += int(np.count_nonzero((np.abs(path[t] - n_t) > since) | (since >= tau[n_t])))
        y = n_t[:, None] + offsets  # the event identity {n_t <= y} = {T(y+1) > t}
        valid = (y >= 0) & (y + 1 < len(hit))
        checks += int(np.count_nonzero(valid))
        event = (n_t[:, None] <= y) != (hit.take(y + 1, mode="clip") > t[:, None])
        event_bad += int(np.count_nonzero(valid & event))
    return CouplingReport(
        trajectories=config.replicas,
        checks=checks,
        event_identity_violations=event_bad,
        approximation_violations=approx_bad,
        parity_violations=parity_bad,
        odd_tau_violations=odd_bad,
    )
