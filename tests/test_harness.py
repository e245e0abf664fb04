import dataclasses
import json
import math

import numpy as np
import pytest

from cinderella.cli import main as cli_main
from cinderella.envs import env_uniform_shift
from cinderella.features import TaylorFeatureMap
from cinderella.harness import (
    CSV_HEADER,
    RunConfig,
    _policy_eval_tables,
    check_suite,
    derive_seed,
    load_config,
    make_rng,
    run_experiment,
    run_sweep,
)
from cinderella.oracle import dp_solve


def _small_config(**overrides):
    base = dict(
        env_name="uniform_shift",
        env_params={"beta": 0.5},
        episodes=48,
        horizon=2,
        nu=1.0,
        epsilon=0.5,
        bonus_scale=0.1,
        seed=11,
        oracle_m_state=65,
        oracle_m_action=33,
    )
    base.update(overrides)
    return RunConfig(**base)


def _strip_ms(csv_text):
    return ["," .join(line.split(",")[:-1]) for line in csv_text.splitlines()]


# -- config -------------------------------------------------------------------


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("horizon", [1, 2])
@pytest.mark.parametrize("field", ["lam_reg", "l_phi", "r_max", "inherent_bound", "bonus_scale"])
def test_non_finite_schedule_constant_fails_before_oracle(monkeypatch, field, horizon, value):
    def oracle_reached(*args, **kwargs):
        raise AssertionError("dp_solve reached with an invalid schedule")

    monkeypatch.setattr("cinderella.harness.dp_solve", oracle_reached)
    if field == "l_phi":  # derived from the feature map, not a config field
        monkeypatch.setattr(TaylorFeatureMap, "norm_bound", property(lambda self: value))
        cfg = _small_config(horizon=horizon)
    else:
        cfg = _small_config(horizon=horizon, **{field: value})
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        run_experiment(cfg)


def test_from_dict_unknown_top_key_rejected():
    with pytest.raises(ValueError, match="unknown keys"):
        RunConfig.from_dict({"env": {"name": "uniform_shift"}, "episoeds": 10})


def test_from_dict_unknown_env_param_rejected():
    with pytest.raises(ValueError, match="unknown env params"):
        RunConfig.from_dict({"env": {"name": "uniform_shift", "betta": 0.5}})


def test_from_dict_unknown_oracle_key_rejected():
    with pytest.raises(ValueError, match="oracle"):
        RunConfig.from_dict({"env": {"name": "uniform_shift"}, "oracle": {"m_states": 5}})


def test_config_validation():
    with pytest.raises(ValueError, match="epsilon"):
        _small_config(epsilon=1.5)
    with pytest.raises(ValueError, match="planner"):
        _small_config(planner="magic")
    with pytest.raises(ValueError, match="unknown env"):
        _small_config(env_name="lunar_lander")
    with pytest.raises(ValueError, match="episodes"):
        _small_config(episodes=0)


def test_config_hash_tracks_semantic_fields():
    a = _small_config()
    assert a.config_hash() == _small_config().config_hash()
    for change in (
        dict(seed=12),
        dict(episodes=49),
        dict(bonus_scale=0.2),
        dict(env_params={"beta": 0.6}),
        dict(planner="exact-grid"),
    ):
        assert _small_config(**change).config_hash() != a.config_hash()


def test_auto_epsilon_resolution():
    cfg = _small_config(epsilon="auto", episodes=4096, nu=1.0)
    assert cfg.resolved_epsilon() == pytest.approx(0.25)


def test_load_config_env_override(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"env": {"name": "uniform_shift", "beta": 0.5}, "seed": 3}))
    assert load_config(path).seed == 3
    monkeypatch.setenv("CINDERELLA_SEED", "99")
    assert load_config(path).seed == 99


# -- traces --------------------------------------------------------------------


def test_trace_zero_reward_env_zero_regret():
    cfg = _small_config(env_params={"beta": 0.5, "reward": "zero"}, episodes=16)
    trace = run_experiment(cfg)
    np.testing.assert_allclose(trace.column("regret"), 0.0, atol=1e-9)
    np.testing.assert_allclose(trace.column("cum_regret"), 0.0, atol=1e-9)


def test_trace_invariants():
    trace = run_experiment(_small_config())
    regret = trace.column("regret")
    cum = trace.column("cum_regret")
    np.testing.assert_allclose(np.cumsum(regret), cum, rtol=0, atol=1e-12)
    assert np.all(regret >= -0.02)
    avg = cum[-1] / len(regret)
    assert -0.02 <= avg <= 1.02


def test_trace_csv_schema(tmp_path):
    trace = run_experiment(_small_config(episodes=4))
    text = trace.to_csv()
    assert text.splitlines()[0] == CSV_HEADER
    path = trace.write(tmp_path)
    assert path.exists()
    sidecar = json.loads((tmp_path / f"{path.stem}.json").read_text())
    assert sidecar["config_hash"] == trace.metadata["config_hash"]
    assert sidecar["n_regions"] == 4  # eps 0.5 in d = 2 gives 2 cells per axis
    assert sidecar["feature_dim"] == 1


def test_reproducibility_excluding_wallclock():
    cfg = _small_config()
    t1, t2 = run_experiment(cfg), run_experiment(cfg)
    assert _strip_ms(t1.to_csv()) == _strip_ms(t2.to_csv())


def test_initial_state_modes_differ():
    fixed = run_experiment(_small_config(episodes=16))
    uniform = run_experiment(_small_config(episodes=16, init_mode="uniform"))
    assert not np.allclose(fixed.column("vstar"), uniform.column("vstar"))
    assert np.all(uniform.column("regret") >= -0.02)


def test_exact_grid_planner_through_harness():
    cfg = _small_config(
        env_name="exact_linear",
        env_params={"theta": [[0.4, 0.05, 0.2]], "reward_noise_sigma": 0.05},
        episodes=24,
        horizon=1,
        nu=2.0,
        epsilon=1.0,
        planner="exact-grid",
        bonus_scale=1.0,
    )
    t1, t2 = run_experiment(cfg), run_experiment(cfg)
    assert t1.metadata["planner"] == "exact-grid"
    assert _strip_ms(t1.to_csv()) == _strip_ms(t2.to_csv())
    regret = t1.column("regret")
    assert regret[-8:].mean() <= regret[:8].mean()  # still learns


def test_multidim_features_learn_on_smooth_drift():
    # degree-1 features (3 dims) across 4 regions with H=2 exercise every
    # vectorized planning path with non-scalar feature blocks
    cfg = _small_config(
        env_name="smooth_drift",
        env_params={"drift_gain": 0.5, "noise_sigma": 0.3},
        episodes=400,
        nu=2.0,
        seed=0,
    )
    regret = run_experiment(cfg).column("regret")
    assert regret[-50:].mean() < regret[:50].mean()


def test_three_step_horizon_learns():
    cfg = _small_config(episodes=300, horizon=3, seed=0)
    regret = run_experiment(cfg).column("regret")
    assert regret[-50:].mean() < regret[:50].mean()


def test_plan_metadata_emitted():
    from cinderella.features import TaylorFeatureMap, enumerate_multi_indices
    from cinderella.geometry import build_partition
    from cinderella.harness import build_env
    from cinderella.learner import BonusSchedule, CinderellaLearner

    cfg = _small_config(episodes=4)
    part = build_partition(2, 0.5)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 0))
    env = build_env(cfg, fmap)
    sch = BonusSchedule(
        delta=0.1, lam_reg=1.0, l_phi=fmap.norm_bound, r_max=1.0,
        n_regions=part.n_regions, d_feat=1, episodes=4, horizon=2,
    )
    learner = CinderellaLearner(part, fmap, sch, state_dim=1)
    learner.plan_and_act_episode(env, np.zeros(1), make_rng(0, 1, 0, 1))
    info = learner.last_plan_info
    assert info["planner"] == "relaxation" and info["episode"] == 1
    assert set(info) >= {"alpha_min", "alpha_max", "visits"}


# -- sweeps ---------------------------------------------------------------------


def test_sweep_single_config_matches_run():
    cfg = _small_config(episodes=12)
    (trace,) = run_sweep([cfg])
    assert _strip_ms(trace.to_csv()) == _strip_ms(run_experiment(cfg).to_csv())


def test_sweep_seed_contract():
    cfg = _small_config(episodes=12)
    t1, t2 = run_sweep([cfg, dataclasses.replace(cfg, seed=12)], jobs=2)
    assert _strip_ms(t1.to_csv()) != _strip_ms(t2.to_csv())
    t3, t4 = run_sweep([cfg, cfg], jobs=2)
    assert _strip_ms(t3.to_csv()) == _strip_ms(t4.to_csv())


def test_sweep_parallel_matches_sequential():
    cfgs = [dataclasses.replace(_small_config(episodes=24), seed=s) for s in range(3)]
    seq = run_sweep(cfgs, jobs=1)
    par = run_sweep(cfgs, jobs=3)
    for a, b in zip(seq, par):
        assert _strip_ms(a.to_csv()) == _strip_ms(b.to_csv())


def test_sweep_master_seed_derivation():
    cfg = _small_config(episodes=8)
    a = run_sweep([cfg, cfg], master_seed=5)
    b = run_sweep([cfg, cfg], master_seed=5)
    assert _strip_ms(a[0].to_csv()) == _strip_ms(b[0].to_csv())
    assert _strip_ms(a[0].to_csv()) != _strip_ms(a[1].to_csv())
    assert derive_seed(5, 0) != derive_seed(5, 1)
    assert derive_seed(5, 0) == derive_seed(5, 0)


def test_sweep_epsilon_bias_variance_shape():
    # Coarse cells underfit, fine cells cost exploration; the measured sweep
    # dips at the middle radius and must never peak there.
    base = _small_config(
        env_name="smooth_drift",
        env_params={"drift_gain": 0.5, "noise_sigma": 0.3},
        episodes=512,
        seed=0,
    )
    epsilons = (0.5, 0.25, 0.125)
    traces = run_sweep([dataclasses.replace(base, epsilon=e) for e in epsilons], jobs=3)
    avg = [t.metadata["average_regret"] for t in traces]
    assert not (avg[1] > avg[0] and avg[1] > avg[2])  # no interior maximum
    assert int(np.argmin(avg)) == 1


def test_sweep_aggregates_errors_with_indices():
    good = _small_config(episodes=4)
    bad = _small_config(episodes=4, oracle_m_state=5000, oracle_m_action=500)
    with pytest.raises(RuntimeError, match="run 1"):
        run_sweep([good, bad])


# -- rng streams -----------------------------------------------------------------


def test_make_rng_streams_are_keyed():
    a = make_rng(1, 2, 3, 0).uniform(size=4)
    b = make_rng(1, 2, 3, 0).uniform(size=4)
    c = make_rng(1, 2, 3, 1).uniform(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


# -- check suite and CLI ----------------------------------------------------------


def test_check_suite_quick_all_green(capsys):
    report = check_suite("quick")
    assert report["passed"]
    names = {c["check"] for c in report["checks"]}
    assert "optimism-negative-control" in names
    out = capsys.readouterr().out
    assert '"passed": true' in out


def test_cli_run_and_oracle(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "env": {"name": "uniform_shift", "beta": 0.5},
                "episodes": 8,
                "horizon": 2,
                "epsilon": 0.5,
                "seed": 2,
                "oracle": {"m_state": 65, "m_action": 33},
            }
        )
    )
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    csvs = list(out_dir.glob("*.csv"))
    assert len(csvs) == 1
    assert csvs[0].read_text().splitlines()[0] == CSV_HEADER
    assert cli_main(["oracle", "--config", str(cfg_path)]) == 0


def test_cli_sweep(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    run = {
        "env": {"name": "uniform_shift", "beta": 0.5},
        "episodes": 6,
        "horizon": 2,
        "epsilon": 0.5,
        "oracle": {"m_state": 65, "m_action": 33},
    }
    cfg_path.write_text(json.dumps({"master_seed": 7, "runs": [run, run]}))
    out_dir = tmp_path / "out"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_dir), "--jobs", "2"]) == 0
    assert len(list(out_dir.glob("*.csv"))) == 2


def test_policy_eval_tables_reject_vanishing_density():
    env = env_uniform_shift(beta=0.5, horizon=2)
    dp = dp_solve(env, 17, 9)
    dead = dataclasses.replace(
        env, transition_density=lambda h, Z, sp: np.zeros((Z.shape[0], sp.shape[0]))
    )
    with pytest.raises(ValueError, match="vanished"):
        _policy_eval_tables(dead, dp, np.linspace(-1.0, 1.0, 5)[:, None])
