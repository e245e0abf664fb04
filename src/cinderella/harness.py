"""Experiment orchestration: configs, regret traces, sweeps and self-checks.

A run is fully described by a JSON config (unknown keys are a hard error).
Randomness is drawn from counter-style streams keyed by
``(seed, episode, step, purpose)`` so replanning never shifts environment
noise and identical (config, seed) pairs reproduce byte-identical CSV output
apart from the wallclock column.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import logging
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .envs import Z_DIM, EnvironmentModel, env_exact_linear, env_smooth_drift, env_uniform_shift
from .features import TaylorFeatureMap, enumerate_multi_indices, nu_star
from .geometry import auto_epsilon, build_partition
from .learner import BonusSchedule, CinderellaLearner
from .oracle import dp_solve, policy_eval_tables, policy_value, policy_values

log = logging.getLogger(__name__)

STREAM_INIT = 0
STREAM_ENV = 1

CSV_HEADER = "k,ret,vstar,vpi,regret,cum_regret,ms"

_ENVS = {
    "uniform_shift": env_uniform_shift,
    "smooth_drift": env_smooth_drift,
    "exact_linear": env_exact_linear,
}

# JSON path and kind of every RunConfig field but env_name/env_params; the
# defaults live in the dataclass only. An int or float field is type-checked
# in __post_init__; the kind also normalizes the value for the config hash.
_FIELDS = {
    "episodes": ("episodes", int),
    "horizon": ("horizon", int),
    "nu": ("nu", float),
    "epsilon": ("epsilon", lambda eps: eps if eps == "auto" else float(eps)),
    "lam_reg": ("lambda", float),
    "delta": ("delta", float),
    "bonus_scale": ("bonus_scale", float),
    "inherent_bound": ("inherent_bound", float),
    "action_grid": ("action_grid", int),
    "planner": ("planner", str),
    "seed": ("seed", int),
    "oracle_m_state": ("oracle.m_state", int),
    "oracle_m_action": ("oracle.m_action", int),
    "init_mode": ("init_state.mode", str),
    "init_value": ("init_state.value", float),
    "r_max": ("r_max", float),
    "reward_clip": ("reward_clip", lambda clip: [float(b) for b in clip]),
}
_TOP_KEYS = {"env"} | {path.split(".")[0] for path, _ in _FIELDS.values()}


def _is_finite_real(value) -> bool:
    """True for a finite int or float that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _env_param_ok(key: str, value) -> bool:
    """Type of one env param: ``reward`` a name, ``theta`` rows of reals, else a real."""
    if key == "reward":
        return isinstance(value, str)
    if key == "theta":
        return isinstance(value, list) and all(
            isinstance(row, list) and all(map(_is_finite_real, row)) for row in value
        )
    return _is_finite_real(value)


def _section(doc: dict, key: str) -> dict:
    """A nested config object, copied; anything but a JSON object is invalid."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"config invalid: {key} must be an object, got {value!r}")
    return dict(value)


def make_rng(seed: int, episode: int = 0, step: int = 0, purpose: int = 0):
    """Splittable deterministic stream keyed by (seed, episode, step, purpose)."""
    return np.random.default_rng(np.random.SeedSequence((seed, episode, step, purpose)))


@dataclass
class RunConfig:
    """One experiment: environment, learner constants, oracle resolution."""

    env_name: str
    env_params: dict = field(default_factory=dict)
    episodes: int = 256
    horizon: int = 2
    nu: float = 1.0
    epsilon: float | str = "auto"
    lam_reg: float = 1.0
    delta: float = 0.1
    bonus_scale: float = 0.1
    inherent_bound: float = 0.0
    action_grid: int = 21
    planner: str = "relaxation"
    seed: int = 0
    oracle_m_state: int = 129
    oracle_m_action: int = 65
    init_mode: str = "fixed"
    init_value: float = 0.0
    r_max: float = 1.0
    reward_clip: tuple[float, float] = (-1.0, 2.0)

    def __post_init__(self):
        if not isinstance(self.env_name, str) or self.env_name not in _ENVS:
            raise ValueError(f"config invalid: unknown env {self.env_name!r}")
        for name, (_, kind) in _FIELDS.items():
            value = getattr(self, name)
            if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
                raise ValueError(f"config invalid: {name} must be an integer, got {value!r}")
            if kind is float and not _is_finite_real(value):
                raise ValueError(f"config invalid: {name} must be finite and real, got {value!r}")
        eps = self.epsilon
        if eps != "auto" and not (_is_finite_real(eps) and 0.0 < eps <= 1.0):
            raise ValueError(f'config invalid: epsilon must be "auto" or in (0, 1], got {eps!r}')
        clip = self.reward_clip
        ok = isinstance(clip, (tuple, list)) and len(clip) == 2 and all(map(_is_finite_real, clip))
        if not (ok and clip[0] < clip[1]):
            raise ValueError(f"config invalid: reward clip {clip!r} is not two increasing numbers")
        self.reward_clip = tuple(clip)
        # The env params are the builder's keyword parameters; it holds their defaults.
        signature = inspect.signature(_ENVS[self.env_name]).parameters.values()
        params = {p.name: p.default for p in signature if p.name not in ("horizon", "fmap")}
        unknown = set(self.env_params) - set(params)
        if unknown:
            raise ValueError(f"config invalid: unknown env params {sorted(unknown)}")
        for key, value in self.env_params.items():
            if not _env_param_ok(key, value):
                raise ValueError(f"config invalid: env param {key} has wrong type: {value!r}")
        for key, default in params.items():
            if default is inspect.Parameter.empty and key not in self.env_params:
                raise ValueError(f"config invalid: {self.env_name} needs env param {key}")
        if self.nu <= 0:
            raise ValueError(f"config invalid: nu must be positive, got {self.nu}")
        if self.episodes < 1 or self.horizon < 1:
            raise ValueError("config invalid: episodes and horizon must be >= 1")
        if self.planner not in ("relaxation", "exact-grid"):
            raise ValueError(f"config invalid: unknown planner {self.planner!r}")
        if self.init_mode not in ("fixed", "uniform"):
            raise ValueError(f"config invalid: unknown init mode {self.init_mode!r}")
        if not -1.0 <= self.init_value <= 1.0:
            raise ValueError(f"config invalid: init_state value {self.init_value} outside [-1, 1]")
        if self.seed < 0:
            raise ValueError("config invalid: seed must be >= 0")
        if self.action_grid < 2 or self.oracle_m_state < 2 or self.oracle_m_action < 2:
            raise ValueError("config invalid: grids need at least 2 points")

    def resolved_epsilon(self) -> float:
        if self.epsilon == "auto":
            return auto_epsilon(self.episodes, Z_DIM, self.nu)
        return float(self.epsilon)

    def semantic_dict(self) -> dict:
        """The config as a JSON document; numbers are normalized, so 1 and 1.0 hash alike."""
        doc = {"env": {"name": self.env_name, **self.env_params}}
        for name, (path, kind) in _FIELDS.items():
            section, _, key = path.rpartition(".")
            target = doc.setdefault(section, {}) if section else doc
            target[key] = kind(getattr(self, name))
        return doc

    def config_hash(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            kind = type(doc).__name__
            raise ValueError(f"config invalid: a run config must be a JSON object, got {kind}")
        unknown = set(doc) - _TOP_KEYS
        if unknown:
            raise ValueError(f"config invalid: unknown keys {sorted(unknown)}")
        env = _section(doc, "env")
        name = env.pop("name", None)
        if name is None:
            raise ValueError("config invalid: env.name missing")
        sections = {"": dict(doc)}
        kwargs = {}
        for attr, (path, _) in _FIELDS.items():
            section, _, key = path.rpartition(".")
            if section not in sections:
                sections[section] = _section(doc, section)
            if key in sections[section]:
                kwargs[attr] = sections[section].pop(key)
        for section, rest in sections.items():
            if section and rest:
                raise ValueError(f"config invalid: unknown {section} keys {sorted(rest)}")
        return RunConfig(env_name=name, env_params=env, **kwargs)


def load_config(path: str | Path) -> RunConfig:
    """Read a run config from JSON; CINDERELLA_SEED overrides the seed."""
    doc = json.loads(Path(path).read_text())
    cfg = RunConfig.from_dict(doc)
    override = os.environ.get("CINDERELLA_SEED")
    if override is not None:
        try:
            seed = int(override)
        except ValueError:
            raise ValueError(
                f"config invalid: CINDERELLA_SEED must be an integer, got {override!r}"
            ) from None
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


@dataclass
class RegretTrace:
    """Per-episode regret accounting plus run metadata.

    ``rows`` is one float64 array, under a quarter of the memory of a list
    of per-episode tuples; ``to_csv`` prints ``k`` as an integer.
    """

    rows: np.ndarray  # (K, 7) in CSV_HEADER order: k, ret, vstar, vpi, regret, cum_regret, ms
    metadata: dict

    @property
    def cumulative_regret(self) -> float:
        return float(self.rows[-1, 5]) if len(self.rows) else 0.0

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, CSV_HEADER.split(",").index(name)].copy()

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for k, ret, vstar, vpi, regret, cum, ms in self.rows:
            lines.append(
                f"{int(k)},{ret:.9g},{vstar:.9g},{vpi:.9g},{regret:.9g},{cum:.9g},{ms:.9g}"
            )
        return "\n".join(lines) + "\n"

    def write(self, out_dir: str | Path, stem: str | None = None) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = stem or f"run_{self.metadata['config_hash']}"
        csv_path = out / f"{stem}.csv"
        csv_path.write_text(self.to_csv())
        (out / f"{stem}.json").write_text(json.dumps(self.metadata, indent=2, sort_keys=True))
        return csv_path


def _feature_map(config: RunConfig) -> TaylorFeatureMap:
    partition = build_partition(Z_DIM, config.resolved_epsilon())
    return TaylorFeatureMap(
        partition=partition,
        index_set=enumerate_multi_indices(Z_DIM, nu_star(config.nu)),
    )


def build_env(config: RunConfig) -> EnvironmentModel:
    """The config's environment; a builder that takes a feature map gets the run's."""
    builder = _ENVS[config.env_name]
    if "fmap" in inspect.signature(builder).parameters:
        return builder(horizon=config.horizon, fmap=_feature_map(config), **config.env_params)
    return builder(horizon=config.horizon, **config.env_params)


def build_learner(config: RunConfig) -> CinderellaLearner:
    """A fresh learner on the config's partition and feature map."""
    fmap = _feature_map(config)
    schedule = BonusSchedule(
        delta=config.delta,
        lam_reg=config.lam_reg,
        l_phi=fmap.norm_bound,
        r_max=config.r_max,
        n_regions=fmap.partition.n_regions,
        d_feat=fmap.dim_features,
        episodes=config.episodes,
        horizon=config.horizon,
        inherent_bound=config.inherent_bound,
        bonus_scale=config.bonus_scale,
    )
    return CinderellaLearner(
        fmap,
        schedule,
        action_points_per_axis=config.action_grid,
        planner=config.planner,
        clip_bounds=config.reward_clip,
    )


# Bound under these names because the benchmark traces them here as oracle.policy_eval.
_policy_eval_tables = policy_eval_tables
_played_policy_value = policy_values

# Played policies whose V^pi(s1) run_experiment keeps, oldest evicted first.
_POLICY_VALUES_KEPT = 32


def run_experiment(config: RunConfig) -> RegretTrace:
    """Execute one run: build everything from the config, measure regret.

    Per episode: plan and act, then value the policy the episode played with
    the grid oracle; the regret increment is V*(s1) - V^pi(s1). V^pi(s1) is
    the one-row backup at z1 = (s1, a1), the first state and action played,
    of V^pi_2 on the oracle grid, whose evaluation builds each kernel row on
    the first read. A policy is keyed by z1 and its greedy indices of steps
    2..H, and evaluated when it is not among the last ``_POLICY_VALUES_KEPT``
    evaluated; their values serve every episode that plays one again. V* is
    interpolated on the oracle grid. Deterministic given (config, seed).
    """
    # The rows outlive the run in its trace. Allocated after the oracle's
    # tables, they could land above them on the heap and keep their freed
    # pages from being reused by the next large allocation.
    rows = np.empty((config.episodes, 7))
    env = build_env(config)
    learner = build_learner(config)
    dp = dp_solve(env, config.oracle_m_state, config.oracle_m_action)
    learner.register_probe(dp.state_points)
    rewards_pi, kernel_pi = _policy_eval_tables(env, dp, learner.actions)

    cum = 0.0
    values = {}  # V^pi(s1) by the bytes of z1 and the steps-2..H table, oldest first
    for k in range(1, config.episodes + 1):
        t0 = time.perf_counter()
        if config.init_mode == "uniform":
            s1 = make_rng(config.seed, k, 0, STREAM_INIT).uniform(-1.0, 1.0, 1)
        else:
            s1 = np.full(1, float(config.init_value))
        env_rng = make_rng(config.seed, k, 0, STREAM_ENV)
        transitions, ret = learner.plan_and_act_episode(env, s1, env_rng)
        played = learner.last_policy_actions
        z1 = np.concatenate([s1, transitions[0].action])
        key = z1.tobytes() + played[2:].tobytes()
        vpi = values.get(key)
        if vpi is None:
            if len(values) == _POLICY_VALUES_KEPT:
                del values[next(iter(values))]
            v_2 = _played_policy_value(rewards_pi[1:], kernel_pi, played[1:])
            vpi = values[key] = policy_value(env, dp.state_points, z1, v_2)
        vstar = dp.value_at(s1)
        regret = vstar - vpi
        cum += regret
        # The row is written inside the episode's ms window, so per-episode
        # harness work is episode time, not set-up; only the ms entry is not.
        rows[k - 1, :6] = (k, ret, vstar, vpi, regret, cum)
        rows[k - 1, 6] = (time.perf_counter() - t0) * 1e3
    metadata = {
        "config": config.semantic_dict(),
        "config_hash": config.config_hash(),
        "planner": config.planner,
        "epsilon_resolved": learner.partition.epsilon,
        "n_regions": learner.N,
        "feature_dim": learner.d,
        "cumulative_regret": cum,
        "average_regret": cum / config.episodes,
    }
    log.info(
        "run %s finished: K=%d, cumulative regret %.4f",
        metadata["config_hash"],
        config.episodes,
        cum,
    )
    return RegretTrace(rows=rows, metadata=metadata)


def derive_seed(master_seed: int, run_index: int) -> int:
    """Independent 64-bit stream seed for (master seed, run index)."""
    state = np.random.SeedSequence((master_seed, run_index)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def run_sweep(configs, jobs: int = 1, master_seed: int | None = None):
    """Run several experiments; results keep the input order.

    ``jobs > 1`` runs them on up to that many spawned processes, each first
    importing cinderella (about 0.4 s of CPU); at jobs=2 on 2 cores, four
    0.25 s runs take 1.17 s against 1.06 s at jobs=1 (medians of 8).
    ``jobs`` must be an integer >= 1. With ``master_seed``
    (an integer >= 0) given, each run's seed is re-derived from (master_seed,
    run index). Errors are aggregated with their run indices.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"config invalid: jobs must be an integer >= 1, got {jobs!r}")
    configs = list(configs)
    if master_seed is not None:
        if isinstance(master_seed, bool) or not isinstance(master_seed, int) or master_seed < 0:
            raise ValueError(
                f"config invalid: master_seed must be an integer >= 0, got {master_seed!r}"
            )
        configs = [
            dataclasses.replace(cfg, seed=derive_seed(master_seed, i))
            for i, cfg in enumerate(configs)
        ]
    results: list = [None] * len(configs)
    errors: list = []
    if min(jobs, len(configs)) <= 1:
        for i, cfg in enumerate(configs):
            try:
                results[i] = run_experiment(cfg)
            except Exception as exc:  # aggregated below with run indices
                errors.append((i, exc))
    else:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=min(jobs, len(configs)), mp_context=spawn) as pool:
            futures = {pool.submit(run_experiment, cfg): i for i, cfg in enumerate(configs)}
            for fut, i in futures.items():
                try:
                    results[i] = fut.result()
                except Exception as exc:
                    errors.append((i, exc))
    if errors:
        msgs = "; ".join(f"run {i}: {exc}" for i, exc in sorted(errors))
        raise RuntimeError(f"sweep failed for {len(errors)} run(s): {msgs}")
    return results
