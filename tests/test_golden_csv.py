"""Golden behaviour hashes: the regret CSV of fixed (config, seed) pairs.

Each hash is the sha256 of the CSV with the wallclock ``ms`` column removed,
as the benchmark computes it. A change that keeps the run's behaviour keeps
every hash; a change that moves any regret, value or return by one bit of a
printed digit fails here. The CSV prints 9 digits, so the full-precision
hashes pin the rows' float64 bits (and one oracle's value tables) as well: a
last-bit change to a value fails there. Update a hash only with a change that
is meant to alter behaviour, and say why.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

from cinderella.envs import env_smooth_drift
from cinderella.harness import RunConfig, run_experiment
from cinderella.oracle import dp_solve

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]
behaviour_sha256 = runpy.run_path(str(BENCH / "outcheck.py"))["behaviour_sha256"]

WORKLOAD_HASHES = {  # Workload.config(1, episodes=32)
    "uniform_shift_k1024": "e21100ee6c7d8d5a0bfb21fa6d12f1274e3105fa60462203317bcd187140581e",
    "smooth_drift_nu3": "81af21a9ea61fb4fbd4838134c57a9e523755e1b1af4b6847e0c6d26a512bf87",
    "fine_oracle_h3": "2f6d00b0390b1ccdbcb0e429d50f5c055e2cee56a1e6f146e09dc192db061e9a",
}


WORKLOAD_ROW_HASHES = {  # Workload.config(1, episodes=32), at full precision
    "uniform_shift_k1024": "da64256d2914e1401ba67f504c3cee9eec8927bf0960b58048fa94d7807c6ec0",
    "smooth_drift_nu3": "9c3655fc7558dc51332b85eb6738fda5124c1168c00243ad672db4e0473caeaa",
    "fine_oracle_h3": "5abbb49d64af9fbacd7d9c063c4be2e3d5d33ac6f91e14530698ac43c71f9a59",
}


def _hash(cfg: RunConfig) -> str:
    return behaviour_sha256([run_experiment(cfg).to_csv()])


def _rows_hash(cfg: RunConfig) -> str:
    """sha256 of the run's k, return, V*, V^pi, regret and cumulative regret as float64 bytes."""
    return hashlib.sha256(run_experiment(cfg).rows[:, :6].tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOAD_HASHES))
def test_workload_csv_hash(name):
    assert _hash(WORKLOADS[name].config(1, episodes=32)) == WORKLOAD_HASHES[name]


@pytest.mark.parametrize("name", sorted(WORKLOAD_ROW_HASHES))
def test_workload_rows_hash(name):
    assert _rows_hash(WORKLOADS[name].config(1, episodes=32)) == WORKLOAD_ROW_HASHES[name]


def test_dp_values_hash_smooth_drift_h3():
    """The optimal value tables of smooth_drift at H = 3 on a 257 x 129 grid, every bit: each
    kernel row's mass is an ndtr difference."""
    v = dp_solve(env_smooth_drift(horizon=3), 257, 129).v
    assert (
        hashlib.sha256(v.tobytes()).hexdigest()
        == "98a00b62d0afa6c97ded99b5c315246cbf688e7c7d182d0eee4c6d695cf338dc"
    )


def test_workload_csv_hash_uniform_shift_k1024_full_k():
    """The full K = 1024 unit (perfbench's --seed 1), the only golden run whose d = 1
    regressions reach REINVERT_EVERY visits: two (step, region) ones re-invert."""
    cfg = WORKLOADS["uniform_shift_k1024"].config(1)
    assert _hash(cfg) == "8630d322586e7eb74efa81c849c888fcb17747bbe8a36d1cb009eac3ce2286c4"


def test_exact_grid_csv_hash():
    cfg = RunConfig(
        env_name="exact_linear",
        env_params={"theta": [[0.4, 0.05, 0.2]], "reward_noise_sigma": 0.05},
        episodes=24,
        horizon=1,
        nu=2.0,
        epsilon=1.0,
        planner="exact-grid",
        bonus_scale=1.0,
        seed=3,
        oracle_m_state=65,
        oracle_m_action=33,
    )
    assert _hash(cfg) == "26b05918fb36d406e3577e0032641814e0aae4d1715819c8093a87023e7e8bfb"


def test_exact_grid_csv_hash_d3():
    """Exact grid with 3 features per region (6 uncertainty dims), where widths are cached."""
    cfg = RunConfig(
        env_name="uniform_shift",
        episodes=24,
        horizon=2,
        nu=2.0,
        epsilon=1.0,
        planner="exact-grid",
        bonus_scale=1.0,
        seed=5,
        oracle_m_state=65,
        oracle_m_action=33,
    )
    assert _hash(cfg) == "04a23be09291066d46d8c28c0baf49421824816c0a5203cd28e2241dd27352b5"


@pytest.mark.parametrize(
    "horizon, epsilon, expected",
    [
        (1, 0.5, "9153538aeceaef867809df220ee72376289c12902c0428e41624e493de3fa1db"),  # N=4
        (3, 1.0, "c9dcdd6ea1f8682fc21ade922a32438775a1458931391d7184d5f40bc19f03bb"),  # N=1
    ],
)
def test_exact_grid_csv_hash_d1(horizon, epsilon, expected):
    """Exact grid at degree 0 (nu = 1, one all-ones feature), where scores are gathered by region."""
    cfg = RunConfig(
        env_name="uniform_shift",
        episodes=24,
        horizon=horizon,
        nu=1.0,
        epsilon=epsilon,
        planner="exact-grid",
        bonus_scale=1.0,
        seed=5,
        oracle_m_state=65,
        oracle_m_action=33,
    )
    assert _hash(cfg) == expected


def _relaxation_h3_nu3() -> RunConfig:
    return RunConfig(
        env_name="smooth_drift",
        env_params={"drift_gain": 0.5, "noise_sigma": 0.3},
        episodes=32,
        horizon=3,
        nu=3.0,
        epsilon=0.5,
        seed=5,
        oracle_m_state=65,
        oracle_m_action=33,
        init_mode="uniform",
    )


def test_relaxation_csv_hash_h3_nu3():
    """H=3 at degree 2 (d_feat=6, N=4): cached means and widths at two next-state steps."""
    cfg = _relaxation_h3_nu3()
    assert _hash(cfg) == "86ab0484d493b4de0042fb784990f2ccecf1e154441d44da2eabdade82b4ad3b"


def test_relaxation_rows_hash_h3_nu3():
    cfg = _relaxation_h3_nu3()
    assert _rows_hash(cfg) == "4058f7f13ccacbea4c1d91b9e5fed9e56c30931dd3868983c48ba3185c7666d8"


def test_relaxation_csv_hash_degree_0_uniform_s1():
    """Criterion 12's config at K=32: the cell path at H=3, valued at each uniform s1."""
    cfg = RunConfig(
        env_name="uniform_shift",
        env_params={"beta": 0.5},
        episodes=32,
        horizon=3,
        nu=1.0,
        bonus_scale=0.1,
        seed=0,
        init_mode="uniform",
    )
    assert _hash(cfg) == "680d3d5bd4c2bb9c67f8fd0ec6cd34ee727ea869fb0ee133a3f7235344721020"
