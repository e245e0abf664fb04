import dataclasses
import json
import math
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cinderella
from cinderella import harness
from cinderella.cli import main as cli_main
from cinderella.envs import LearnerView, env_uniform_shift
from cinderella.harness import (
    _TOP_KEYS,
    CSV_HEADER,
    RunConfig,
    _played_policy_value,
    _policy_eval_tables,
    build_env,
    build_learner,
    derive_seed,
    load_config,
    make_rng,
    run_experiment,
    run_sweep,
)
from cinderella.learner import CinderellaLearner
from cinderella.oracle import dp_solve, policy_eval_tables, policy_value, policy_values
from conftest import record_played

ROOT = Path(__file__).resolve().parent.parent


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
@pytest.mark.parametrize("field", ["lam_reg", "r_max", "inherent_bound", "bonus_scale"])
def test_non_finite_schedule_constant_fails_before_oracle(monkeypatch, field, horizon, value):
    def oracle_reached(*args, **kwargs):
        raise AssertionError("dp_solve reached with an invalid schedule")

    monkeypatch.setattr("cinderella.harness.dp_solve", oracle_reached)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        run_experiment(_small_config(horizon=horizon, **{field: value}))


def test_oversized_exact_grid_fails_before_oracle(monkeypatch):
    def oracle_reached(*args, **kwargs):
        raise AssertionError("dp_solve reached with an oversized exact-grid instance")

    monkeypatch.setattr("cinderella.harness.dp_solve", oracle_reached)
    # epsilon "auto" at K=256 gives N=9 regions: 2 steps x 9 regions x 1 feature
    with pytest.raises(ValueError, match="dims=18"):
        RunConfig.from_dict({"env": {"name": "uniform_shift"}, "planner": "exact-grid"})


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


# Configs whose learner, partition, feature map or oracle grid is too large to build.
_OVERSIZED = [
    {"planner": "exact-grid"},  # N=9 regions at K=256: 18 uncertainty dims
    {"epsilon": 1e-9},
    {"episodes": 2**2000},
    {"oracle": {"m_state": 5000, "m_action": 500}},
    {"env": {"name": "smooth_drift"}, "epsilon": 0.001, "nu": 3},  # 1.7 GB of ridge matrices
    {"action_grid": 10**7},
    {"horizon": 2**64},
    {"nu": 2.0**53},  # a degree-2**53 index set
    # 4097 probe states x 2001 grid actions: 57M probe block entries and 8.2M policy-table rows
    {"env": {"name": "smooth_drift"}, "nu": 3, "epsilon": 0.5, "horizon": 3, "action_grid": 2001,
     "oracle": {"m_state": 4097}},
    # one plan's width gather: 70000 rows x 21 actions x 36 Lambda^-1 entries
    {"env": {"name": "smooth_drift"}, "nu": 3, "epsilon": 1.0, "episodes": 70000},
    # the kernel store at H = 3: up to 4097 x 21 rows of 4097
    {"env": {"name": "smooth_drift"}, "nu": 2, "epsilon": 0.5, "horizon": 3,
     "init_state": {"mode": "uniform"}, "oracle": {"m_state": 4097, "m_action": 2}},
    # the probe alone: 4097 states x 201 grid actions, whose policy tables fit
    {"env": {"name": "smooth_drift"}, "nu": 3, "epsilon": 0.5, "action_grid": 201,
     "oracle": {"m_state": 4097}},
]


@pytest.mark.parametrize(
    "override",
    [
        {"episodes": "10"},
        {"episodes": True},
        {"episodes": 10.0},
        {"seed": 2**70 + 0.5},
        {"action_grid": 2.5},
        {"oracle": {"m_state": "65"}},
        {"nu": "1"},
        {"delta": "0.1"},
        {"lambda": False},
        {"bonus_scale": math.nan},
        {"r_max": math.inf},
        {"inherent_bound": 10**400},
        {"epsilon": "0.5"},
        {"epsilon": None},
        {"init_state": {"mode": "fixed", "value": "0"}},
        {"init_state": {"mode": "fixed", "value": 2.0}},
        {"init_state": {"mode": "fixed", "value": -1.5}},
        {"reward_clip": [-1.0, "2"]},
        {"reward_clip": [-1.0, 0.0, 2.0]},
        {"reward_clip": 2.0},
        {"env": ["uniform_shift"]},
        {"env": {"name": ["uniform_shift"]}},
        {"oracle": 65},
        {"env": {"name": "uniform_shift", "horizon": 3}, "horizon": 2},
        {"env": {"name": "smooth_drift", "horizon": 2.0}},
        {"env": {"name": "uniform_shift", "beta": "x"}},
        {"env": {"name": "uniform_shift", "beta": True}},
        {"env": {"name": "uniform_shift", "beta": math.nan}},
        {"env": {"name": "smooth_drift", "noise_sigma": None}},
        {"env": {"name": "smooth_drift", "drift_gain": math.inf}},
        {"env": {"name": "uniform_shift", "reward_noise_sigma": "0.1"}},
        {"env": {"name": "uniform_shift", "reward": 3}},
        {"env": {"name": "exact_linear", "theta": [0.4, 0.05, 0.2]}},
        {"env": {"name": "exact_linear", "theta": [[0.4, "0.05", 0.2]]}},
        {"env": {"name": "exact_linear", "theta": [[0.4, math.nan, 0.2]]}},
        {"env": {"name": "exact_linear", "theta": "[[0.4]]"}},
        {"env": {"name": "exact_linear"}},
        {"nu": 0},
        {"nu": -1.0},
        {"delta": 2.0},
        {"lambda": 0},
        {"bonus_scale": -0.1},
        {"r_max": -1.0},
        {"inherent_bound": -0.5},
        # 2500^2 cells: building the env's feature map would pass MAX_HELD_ENTRIES
        {"env": {"name": "exact_linear", "theta": [[0.5]]}, "horizon": 1, "epsilon": 4e-4},
        *_OVERSIZED,
        {"action_grid": 1},
        {"action_grid": 0},
        {"reward_clip": [2.0, -1.0]},
        {"reward_clip": [1.0, 1.0]},
        {"horizon": 0},  # the env refuses it before its reward divides by H
        {"env": {"name": "smooth_drift"}, "horizon": 0},
    ],
)
def test_from_dict_rejects_mistyped_values(override):
    doc = {"env": {"name": "uniform_shift"}, **override}
    with pytest.raises(ValueError, match="^config invalid"):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize("override", _OVERSIZED)
def test_oversized_configs_are_refused_before_allocating(monkeypatch, override):
    """The learner's ridge matrices and the oracle's backup are never reached."""

    def allocated(*args, **kwargs):
        raise AssertionError("an oversized config reached an allocation")

    monkeypatch.setattr("cinderella.learner.np.tile", allocated)
    monkeypatch.setattr("cinderella.oracle._grid_backup", allocated)
    with pytest.raises(ValueError, match="^config invalid"):
        RunConfig.from_dict({"env": {"name": "uniform_shift"}, **override})


def test_accepted_configs_build_no_learner(monkeypatch):
    """``RunConfig`` counts its learner with ``check_learner`` and allocates none: the shipped
    configs, and the workload configs that perfbench derives with ``dataclasses.replace``,
    are accepted with the learner's constructor and its ridge tiles out of reach."""

    def built(*args, **kwargs):
        raise AssertionError("an accepted config built a learner")

    monkeypatch.setattr("cinderella.learner.np.tile", built)
    monkeypatch.setattr(CinderellaLearner, "__init__", built)
    RunConfig.from_dict(json.loads((ROOT / "configs/uniform_shift.json").read_text()))
    for run in json.loads((ROOT / "configs/sweep_epsilon.json").read_text())["runs"]:
        RunConfig.from_dict(run)
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
    assert len(workloads) == 3
    for workload in workloads.values():
        workload.config(1)


def test_config_hash_ignores_int_versus_float():
    doc = {"env": {"name": "uniform_shift"}, "nu": 1.0, "lambda": 2.0, "epsilon": 0.5}
    same = {**doc, "nu": 1, "lambda": 2, "epsilon": 0.5, "reward_clip": [-1, 2]}
    assert RunConfig.from_dict(same).config_hash() == RunConfig.from_dict(doc).config_hash()


def test_config_hashes_of_shipped_configs_unchanged():
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
    got = [RunConfig.from_dict(json.loads((ROOT / "configs/uniform_shift.json").read_text()))]
    sweep = json.loads((ROOT / "configs/sweep_epsilon.json").read_text())
    got += [RunConfig.from_dict(run) for run in sweep["runs"]]
    got += [w.config(1) for w in workloads.values()]
    assert [cfg.config_hash() for cfg in got] == [
        "9f3a585ff243",
        "93a490ccef82",
        "9359088b7f42",
        "5b8d4486106a",
        "54a1ba08d95c",  # uniform_shift_k1024, benchmark seed 1
        "bb7214770e13",  # smooth_drift_nu3
        "4a1bb90a4289",  # fine_oracle_h3
    ]


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_VALID = {
    "env": st.sampled_from(
        [
            {"name": "uniform_shift"},
            {"name": "smooth_drift"},
            {"name": "exact_linear", "theta": [[0.5]]},
        ]
    ).map(dict),
    "episodes": st.integers(1, 10**6),
    "horizon": st.integers(1, 5),
    "nu": st.floats(0.1, 5.0) | st.integers(1, 5),
    "epsilon": st.just("auto") | st.floats(0.01, 1.0),
    "lambda": st.floats(0.01, 10.0),
    "delta": st.floats(0.01, 0.99),
    "bonus_scale": st.floats(0.0, 2.0),
    "inherent_bound": st.floats(0.0, 1.0),
    "action_grid": st.integers(2, 41),
    "planner": st.sampled_from(["relaxation", "exact-grid"]),
    "seed": st.integers(0, 2**64),
    "oracle": st.fixed_dictionaries({"m_state": st.integers(2, 257)}),
    "init_state": st.fixed_dictionaries(
        {"mode": st.sampled_from(["fixed", "uniform"]), "value": st.floats(-1.0, 1.0)}
    ),
    "r_max": st.floats(0.0, 2.0),
    "reward_clip": st.tuples(st.floats(-2.0, 0.0), st.floats(0.5, 3.0)).map(list),
}


@st.composite
def _config_docs(draw):
    """A valid config document with up to two values replaced by arbitrary JSON."""
    optional = {key: strategy for key, strategy in _VALID.items() if key != "env"}
    doc = draw(st.fixed_dictionaries({"env": _VALID["env"]}, optional=optional))
    for key in draw(st.sets(st.sampled_from(sorted(_TOP_KEYS)), max_size=2)):
        doc[key] = draw(_ANY_JSON)
    return doc


@given(doc=_config_docs())
@settings(max_examples=300, deadline=None)
def test_from_dict_is_valid_or_config_invalid(doc):
    try:
        cfg = RunConfig.from_dict(doc)
    except ValueError as exc:
        assert str(exc).startswith("config invalid"), exc
        return
    # A valid config serializes to a document that loads back to the same hash.
    assert RunConfig.from_dict(cfg.semantic_dict()).config_hash() == cfg.config_hash()


def test_config_hash_tracks_semantic_fields():
    a = _small_config()
    assert a.config_hash() == _small_config().config_hash()
    for change in (
        dict(seed=12),
        dict(episodes=49),
        dict(bonus_scale=0.2),
        dict(env_params={"beta": 0.6}),
    ):
        assert _small_config(**change).config_hash() != a.config_hash()
    # Both at one region, so the exact-grid planner can run the pair.
    exact = _small_config(epsilon=1.0, planner="exact-grid")
    assert exact.config_hash() != _small_config(epsilon=1.0).config_hash()


def test_auto_epsilon_resolution():
    cfg = _small_config(epsilon="auto", episodes=4096, nu=1.0)
    assert cfg.resolved_epsilon() == pytest.approx(0.25)


def test_load_config_env_override(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"env": {"name": "uniform_shift", "beta": 0.5}, "seed": 3}))
    assert load_config(path).seed == 3
    monkeypatch.setenv("CINDERELLA_SEED", "99")
    assert load_config(path).seed == 99


_DEFAULT = {"env": {"name": "uniform_shift"}}
_RUN = {**_DEFAULT, "episodes": 4}
# Env params of the right type whose ranges only the env builders know.
_BAD_ENVS = [
    {"name": "uniform_shift", "beta": 5.0},
    {"name": "smooth_drift", "noise_sigma": -0.1},
    {"name": "exact_linear", "theta": [[0.5], [0.5, 0.1]]},  # ragged
]


@pytest.mark.parametrize(
    "command, doc, seed_env",
    [
        ("from_dict", [], None),
        ("from_dict", 5, None),
        ("run", [], None),
        ("run", _RUN, "abc"),
        ("run", _RUN, "1.5"),
        ("sweep", {"runs": 5}, None),
        ("sweep", {"runs": [5]}, None),
        ("sweep", {"master_seed": "x", "runs": [_RUN]}, None),
        ("sweep", {"master_seed": 1.5, "runs": [_RUN]}, None),
        ("sweep", {"master_seed": -1, "runs": [_RUN]}, None),
        ("sweep", {"master_seed": True, "runs": [_RUN]}, None),
        ("sweep", {"runs": [_RUN, _RUN, {**_RUN, "delta": 2.0}]}, None),
        *[("sweep", {"runs": [_RUN, {**_RUN, "env": env}]}, None) for env in _BAD_ENVS],
        ("sweep", {"runs": [_RUN, {**_DEFAULT, "planner": "exact-grid"}]}, None),
    ],
)
def test_malformed_documents_are_config_invalid(tmp_path, monkeypatch, command, doc, seed_env):
    """Non-object documents, bad sweep runs or master seeds and a bad seed override fail fast.

    A sweep whose last run has an out-of-range learner constant or env param, or an
    exact-grid instance too large to search, starts no run.
    """

    def reached(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("cinderella.harness.run_experiment", reached)
    monkeypatch.setattr("cinderella.cli.run_experiment", reached)
    if seed_env is not None:
        monkeypatch.setenv("CINDERELLA_SEED", seed_env)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="config invalid"):
        if command == "from_dict":
            RunConfig.from_dict(doc)
        else:
            cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")])


# -- traces --------------------------------------------------------------------


def test_trace_zero_reward_env_zero_regret():
    cfg = _small_config(env_params={"beta": 0.5, "reward": "zero"}, episodes=16)
    trace = run_experiment(cfg)
    np.testing.assert_allclose(trace.column("regret"), 0.0, atol=1e-9)
    np.testing.assert_allclose(trace.column("cum_regret"), 0.0, atol=1e-9)


def test_closed_loop_runs_through_the_traced_learner_methods(monkeypatch):
    """Every step of a run goes through ``act`` and ``observe_transition``.

    The benchmark's tracer wraps these methods, and ``plan`` and
    ``greedy_action_indices``, by name on the class, so a rename or a bypass
    would break its traced runs or read their spans as 0.
    """
    names = ("act", "observe_transition", "plan", "greedy_action_indices")
    assert all(name in CinderellaLearner.__dict__ for name in names)
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        orig = CinderellaLearner.__dict__[name]
        monkeypatch.setattr(CinderellaLearner, name, counting(name, orig))
    cfg = _small_config(episodes=4, horizon=2)
    run_experiment(cfg)
    assert calls["act"] == calls["observe_transition"] == cfg.horizon * cfg.episodes
    assert calls["plan"] == calls["greedy_action_indices"] == cfg.episodes


def test_the_learner_gets_only_the_sampling_view(monkeypatch):
    """Every episode hands the learner a ``LearnerView``, never the env with its densities
    and mean rewards."""
    envs = []
    episode = CinderellaLearner.__dict__["plan_and_act_episode"]

    def recording(self, env, s1, rng):
        envs.append(env)
        return episode(self, env, s1, rng)

    monkeypatch.setattr(CinderellaLearner, "plan_and_act_episode", recording)
    run_experiment(_small_config(episodes=3))
    assert len(envs) == 3 and all(type(env) is LearnerView for env in envs)


def test_the_learner_probes_the_oracle_grid(monkeypatch):
    """``run_experiment`` builds its learner on the oracle's own state points, one array."""
    solved, probes = [], []

    def solve(*args):
        solved.append(dp_solve(*args))
        return solved[-1]

    def build(cfg, probe_states):
        probes.append(probe_states)
        return build_learner(cfg, probe_states)

    monkeypatch.setattr(harness, "dp_solve", solve)
    monkeypatch.setattr(harness, "build_learner", build)
    run_experiment(_small_config(episodes=2))
    assert len(probes) == len(solved) == 1 and probes[0] is solved[0].state_points


def _recorded_run(monkeypatch, kept):
    """One run keeping ``kept`` policies' values: the key of each episode's played policy,
    z1 = (s1, a1) and the plan's greedy table, and the run's evaluation count.

    Every vpi is checked against the played policy's direct value.
    """
    played, evaluations = record_played(monkeypatch), []

    def recording(*args):
        evaluations.append(args)
        return policy_value(*args)

    monkeypatch.setattr(harness, "_played_policy_value", recording)
    monkeypatch.setattr(harness, "_POLICY_VALUES_KEPT", kept)
    cfg = _small_config(episodes=40)
    trace = run_experiment(cfg)

    assert len(played) == cfg.episodes
    env = build_env(cfg)
    dp = dp_solve(env, cfg.oracle_m_state, cfg.oracle_m_action)
    learner = build_learner(cfg, dp.state_points)
    rewards, kernel = policy_eval_tables(env, dp, learner.actions)
    want = [policy_value(env, rewards, kernel, z1, table) for z1, table in played]
    np.testing.assert_array_equal(trace.column("vpi"), want)
    return [z1.tobytes() + table.tobytes() for z1, table in played], len(evaluations)


def test_each_played_policy_is_evaluated_once(monkeypatch):
    """Each distinct played policy is evaluated once, and every vpi is its direct value."""
    keys, evaluations = _recorded_run(monkeypatch, harness._POLICY_VALUES_KEPT)
    changes = 1 + sum(a != b for a, b in zip(keys, keys[1:]))
    assert evaluations == len(set(keys)) < changes  # policies recur, and not only back to back


@pytest.mark.parametrize("kept", [1, 2, 3])
def test_kept_policy_values_are_evicted_oldest_first(monkeypatch, kept):
    """A policy is evaluated again once ``kept`` newer ones have been evaluated since."""
    keys, evaluations = _recorded_run(monkeypatch, kept)
    queue, want = [], 0
    for key in keys:
        if key not in queue:
            want += 1
            queue = [*queue, key][-kept:]
    assert evaluations == want


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


@pytest.mark.parametrize("jobs", [0, -2, True, 2.5, "2", None])
def test_sweep_rejects_bad_jobs_before_any_run(monkeypatch, jobs):
    def no_run(config):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run_experiment", no_run)
    with pytest.raises(ValueError, match="config invalid: jobs must be an integer >= 1"):
        run_sweep([_small_config(episodes=4)], jobs=jobs)


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_sweep_rejects_bad_jobs_before_any_run(monkeypatch, tmp_path, jobs):
    def no_run(config):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run_experiment", no_run)
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"runs": [{"env": {"name": "uniform_shift"}}]}))
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match="config invalid: jobs"):
        cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_dir), "--jobs", jobs])
    assert not out_dir.exists()


def test_sweep_aggregates_errors_with_indices(monkeypatch):
    good = _small_config(episodes=4)
    bad = _small_config(episodes=4, oracle_m_state=17)

    def failing_on_bad_grid(env, m_state, m_action):
        if m_state == bad.oracle_m_state:
            raise ValueError("oracle failed")
        return dp_solve(env, m_state, m_action)

    monkeypatch.setattr("cinderella.harness.dp_solve", failing_on_bad_grid)
    with pytest.raises(RuntimeError, match="sweep failed for 1 run.*run 1: oracle failed"):
        run_sweep([good, bad])


# -- rng streams -----------------------------------------------------------------


def test_make_rng_streams_are_keyed():
    a = make_rng(1, 2, 3, 0).uniform(size=4)
    b = make_rng(1, 2, 3, 0).uniform(size=4)
    c = make_rng(1, 2, 3, 1).uniform(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


# -- public names and CLI --------------------------------------------------------


def test_public_names_resolve_sorted_and_unique():
    names = cinderella.__all__
    assert [n for n in names if not hasattr(cinderella, n)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


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
    """The first evaluation that reads a dead kernel row raises; the tables build none.

    At H = 2 the played policy's steps 2..H read no row, and its step-1 value at
    (s1, a1) reads one; the whole table's values read the store's rows.
    """
    env = env_uniform_shift(beta=0.5, horizon=2)
    dp = dp_solve(env, 17, 9)
    dead = dataclasses.replace(
        env, transition_density=lambda keys, sp: np.zeros((keys.shape[0], sp.shape[0]))
    )
    rewards, kernel = _policy_eval_tables(dead, dp, np.linspace(-1.0, 1.0, 5)[:, None])
    played = np.full((3, 17), 2)
    with pytest.raises(ValueError, match="vanished"):
        _played_policy_value(dead, rewards, kernel, [0.3, 0.0], played)
    with pytest.raises(ValueError, match="vanished"):
        policy_values(rewards, kernel, played)
    assert kernel.built == 0
