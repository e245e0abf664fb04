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
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .envs import EnvironmentModel, env_exact_linear, env_smooth_drift, env_uniform_shift
from .features import TaylorFeatureMap, enumerate_multi_indices, nu_star
from .geometry import auto_epsilon, build_partition
from .learner import BonusSchedule, CinderellaLearner
from .oracle import GridDP, _discretized_kernel, dp_solve, random_policy_value

log = logging.getLogger(__name__)

STREAM_INIT = 0
STREAM_ENV = 1

CSV_HEADER = "k,ret,vstar,vpi,regret,cum_regret,ms"

_ENV_DIMS = {"uniform_shift": (1, 1), "smooth_drift": (1, 1), "exact_linear": (1, 1)}

_ENV_PARAM_KEYS = {
    "uniform_shift": {"beta", "reward", "reward_noise_sigma", "horizon"},
    "smooth_drift": {"drift_gain", "noise_sigma", "reward", "reward_noise_sigma", "horizon"},
    "exact_linear": {"theta", "reward_noise_sigma"},
}

_TOP_KEYS = {
    "env",
    "episodes",
    "horizon",
    "nu",
    "epsilon",
    "lambda",
    "delta",
    "bonus_scale",
    "inherent_bound",
    "action_grid",
    "planner",
    "seed",
    "oracle",
    "init_state",
    "r_max",
    "reward_clip",
}


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
        if self.env_name not in _ENV_DIMS:
            raise ValueError(f"config invalid: unknown env {self.env_name!r}")
        unknown = set(self.env_params) - _ENV_PARAM_KEYS[self.env_name]
        if unknown:
            raise ValueError(f"config invalid: unknown env params {sorted(unknown)}")
        if self.episodes < 1 or self.horizon < 1:
            raise ValueError("config invalid: episodes and horizon must be >= 1")
        if self.epsilon != "auto":
            eps = float(self.epsilon)
            if not (0.0 < eps <= 1.0):
                raise ValueError(f"config invalid: epsilon {eps} outside (0, 1]")
        if self.planner not in ("relaxation", "exact-grid"):
            raise ValueError(f"config invalid: unknown planner {self.planner!r}")
        if self.init_mode not in ("fixed", "uniform"):
            raise ValueError(f"config invalid: unknown init mode {self.init_mode!r}")
        if self.seed < 0:
            raise ValueError("config invalid: seed must be >= 0")
        if self.action_grid < 2 or self.oracle_m_state < 2 or self.oracle_m_action < 2:
            raise ValueError("config invalid: grids need at least 2 points")
        lo, hi = self.reward_clip
        if not lo < hi:
            raise ValueError("config invalid: reward clip bounds must be increasing")

    @property
    def dim(self) -> int:
        d_s, d_a = _ENV_DIMS[self.env_name]
        return d_s + d_a

    def resolved_epsilon(self) -> float:
        if self.epsilon == "auto":
            return auto_epsilon(self.episodes, self.dim, self.nu)
        return float(self.epsilon)

    def semantic_dict(self) -> dict:
        return {
            "env": {"name": self.env_name, **self.env_params},
            "episodes": self.episodes,
            "horizon": self.horizon,
            "nu": self.nu,
            "epsilon": self.epsilon,
            "lambda": self.lam_reg,
            "delta": self.delta,
            "bonus_scale": self.bonus_scale,
            "inherent_bound": self.inherent_bound,
            "action_grid": self.action_grid,
            "planner": self.planner,
            "seed": self.seed,
            "oracle": {"m_state": self.oracle_m_state, "m_action": self.oracle_m_action},
            "init_state": {"mode": self.init_mode, "value": self.init_value},
            "r_max": self.r_max,
            "reward_clip": list(self.reward_clip),
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        unknown = set(doc) - _TOP_KEYS
        if unknown:
            raise ValueError(f"config invalid: unknown keys {sorted(unknown)}")
        env = dict(doc.get("env", {}))
        name = env.pop("name", None)
        if name is None:
            raise ValueError("config invalid: env.name missing")
        oracle = dict(doc.get("oracle", {}))
        if set(oracle) - {"m_state", "m_action"}:
            raise ValueError(f"config invalid: unknown oracle keys {sorted(oracle)}")
        init = dict(doc.get("init_state", {"mode": "fixed", "value": 0.0}))
        if set(init) - {"mode", "value"}:
            raise ValueError(f"config invalid: unknown init_state keys {sorted(init)}")
        kwargs = dict(
            env_name=name,
            env_params=env,
            oracle_m_state=oracle.get("m_state", 129),
            oracle_m_action=oracle.get("m_action", 65),
            init_mode=init.get("mode", "fixed"),
            init_value=init.get("value", 0.0),
        )
        for key, attr in [
            ("episodes", "episodes"),
            ("horizon", "horizon"),
            ("nu", "nu"),
            ("epsilon", "epsilon"),
            ("lambda", "lam_reg"),
            ("delta", "delta"),
            ("bonus_scale", "bonus_scale"),
            ("inherent_bound", "inherent_bound"),
            ("action_grid", "action_grid"),
            ("planner", "planner"),
            ("seed", "seed"),
            ("r_max", "r_max"),
        ]:
            if key in doc:
                kwargs[attr] = doc[key]
        if "reward_clip" in doc:
            kwargs["reward_clip"] = tuple(doc["reward_clip"])
        return RunConfig(**kwargs)


def load_config(path: str | Path) -> RunConfig:
    """Read a run config from JSON; CINDERELLA_SEED overrides the seed."""
    import os

    doc = json.loads(Path(path).read_text())
    cfg = RunConfig.from_dict(doc)
    override = os.environ.get("CINDERELLA_SEED")
    if override is not None:
        cfg = dataclasses.replace(cfg, seed=int(override))
    return cfg


@dataclass
class RegretTrace:
    """Per-episode regret accounting plus run metadata."""

    rows: list  # (k, ret, vstar, vpi, regret, cum_regret, ms)
    metadata: dict

    @property
    def cumulative_regret(self) -> float:
        return self.rows[-1][5] if self.rows else 0.0

    def column(self, name: str) -> np.ndarray:
        idx = CSV_HEADER.split(",").index(name)
        return np.array([row[idx] for row in self.rows])

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for k, ret, vstar, vpi, regret, cum, ms in self.rows:
            lines.append(
                f"{k},{ret:.9g},{vstar:.9g},{vpi:.9g},{regret:.9g},{cum:.9g},{ms:.9g}"
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


def build_env(config: RunConfig, fmap: TaylorFeatureMap) -> EnvironmentModel:
    params = dict(config.env_params)
    params.setdefault("horizon", config.horizon)
    if config.env_name == "uniform_shift":
        return env_uniform_shift(
            beta=params.get("beta", 0.5),
            reward_spec=params.get("reward", "default"),
            horizon=params["horizon"],
            reward_noise_sigma=params.get("reward_noise_sigma", 0.1),
        )
    if config.env_name == "smooth_drift":
        return env_smooth_drift(
            drift_gain=params.get("drift_gain", 0.5),
            noise_sigma=params.get("noise_sigma", 0.3),
            reward_spec=params.get("reward", "default"),
            horizon=params["horizon"],
            reward_noise_sigma=params.get("reward_noise_sigma", 0.1),
        )
    if config.env_name == "exact_linear":
        theta = np.asarray(config.env_params["theta"], dtype=float)
        return env_exact_linear(
            theta_true=theta,
            fmap=fmap,
            horizon=config.horizon,
            reward_noise_sigma=params.get("reward_noise_sigma", 0.05),
        )
    raise ValueError(f"unknown env {config.env_name!r}")


def _policy_eval_tables(env: EnvironmentModel, dp: GridDP, actions: np.ndarray):
    """Reward/kernel tables on (oracle states x learner actions)."""
    sp = dp.state_points
    n_s, M = sp.shape[0], actions.shape[0]
    Z = np.concatenate([np.repeat(sp, M, axis=0), np.tile(actions, (n_s, 1))], axis=1)
    H = env.horizon
    rewards = np.zeros((H + 1, n_s, M))
    kernels = [None] * (H + 1)
    for h in range(1, H + 1):
        rewards[h] = env.reward_mean(h, Z).reshape(n_s, M)
        if h < H:
            kernels[h] = _discretized_kernel(env, h, Z, sp, dp.m_state).reshape(n_s, M, n_s)
    return rewards, kernels


def _played_policy_value(rewards, kernels, action_idx, horizon, state_axis, s1):
    """V^pi_1(s1) for the grid policy given by per-state action indices."""
    n_s = rewards.shape[1]
    rows = np.arange(n_s)
    v_next = np.zeros(n_s)
    for h in range(horizon, 0, -1):
        a = action_idx[h]
        r = rewards[h, rows, a]
        if kernels[h] is not None:
            v_next = np.clip(r + np.einsum("ij,j->i", kernels[h][rows, a], v_next), 0.0, 1.0)
        else:
            v_next = np.clip(r, 0.0, 1.0)
    return float(np.interp(s1[0], state_axis, v_next))


def run_experiment(config: RunConfig) -> RegretTrace:
    """Execute one run: build everything from the config, measure regret.

    Per episode: plan and act, then evaluate the episode's greedy policy with
    the grid oracle; the regret increment is V*(s1) - V^pi(s1). Deterministic
    given (config, seed).
    """
    eps = config.resolved_epsilon()
    partition = build_partition(config.dim, eps)
    fmap = TaylorFeatureMap(
        partition=partition,
        index_set=enumerate_multi_indices(config.dim, nu_star(config.nu)),
    )
    env = build_env(config, fmap)
    schedule = BonusSchedule(
        delta=config.delta,
        lam_reg=config.lam_reg,
        l_phi=fmap.norm_bound,
        r_max=config.r_max,
        n_regions=partition.n_regions,
        d_feat=fmap.dim_features,
        episodes=config.episodes,
        horizon=config.horizon,
        inherent_bound=config.inherent_bound,
        bonus_scale=config.bonus_scale,
    )
    learner = CinderellaLearner(
        partition,
        fmap,
        schedule,
        state_dim=env.state_dim,
        action_points_per_axis=config.action_grid,
        planner=config.planner,
        clip_bounds=config.reward_clip,
    )
    dp = dp_solve(env, config.oracle_m_state, config.oracle_m_action)
    learner.register_probe(dp.state_points)
    rewards_pi, kernels_pi = _policy_eval_tables(env, dp, learner.actions)
    state_axis = dp.state_points[:, 0]

    rows = []
    cum = 0.0
    for k in range(1, config.episodes + 1):
        t0 = time.perf_counter()
        if config.init_mode == "uniform":
            s1 = make_rng(config.seed, k, 0, STREAM_INIT).uniform(-1.0, 1.0, env.state_dim)
        else:
            s1 = np.full(env.state_dim, float(config.init_value))
        env_rng = make_rng(config.seed, k, 0, STREAM_ENV)
        _, ret = learner.plan_and_act_episode(env, s1, env_rng)
        action_idx = learner.last_policy_actions
        vstar = dp.value_at(s1)
        vpi = _played_policy_value(
            rewards_pi, kernels_pi, action_idx, config.horizon, state_axis, s1
        )
        regret = vstar - vpi
        cum += regret
        ms = (time.perf_counter() - t0) * 1e3
        rows.append((k, float(ret), vstar, vpi, regret, cum, ms))
    metadata = {
        "config": config.semantic_dict(),
        "config_hash": config.config_hash(),
        "planner": config.planner,
        "epsilon_resolved": eps,
        "n_regions": partition.n_regions,
        "feature_dim": fmap.dim_features,
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
    """Run several experiments concurrently; results keep the input order.

    With ``master_seed`` given, each run's seed is re-derived from
    (master_seed, run index). Errors are aggregated with their run indices.
    """
    configs = list(configs)
    if master_seed is not None:
        configs = [
            dataclasses.replace(cfg, seed=derive_seed(master_seed, i))
            for i, cfg in enumerate(configs)
        ]
    results: list = [None] * len(configs)
    errors: list = []
    if jobs <= 1:
        for i, cfg in enumerate(configs):
            try:
                results[i] = run_experiment(cfg)
            except Exception as exc:  # aggregated below with run indices
                errors.append((i, exc))
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
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


def random_policy_gap(env: EnvironmentModel, dp: GridDP, s1) -> float:
    """V*(s1) minus the uniform-random policy's value, via the oracle."""
    s1 = np.atleast_1d(np.asarray(s1, dtype=float))
    return dp.value_at(s1) - random_policy_value(dp, s1, env.horizon)


def check_suite(level: str = "quick") -> dict:
    """Run the machine-readable invariant suite (see ``checks``)."""
    from .checks import run_check_suite

    return run_check_suite(level)
