"""Command line front end: run, sweep and oracle subcommands."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .harness import RunConfig, build_env, load_config, run_experiment, run_sweep
from .oracle import dp_solve, random_policy_gap


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    trace = run_experiment(cfg)
    path = trace.write(args.out)
    print(
        json.dumps(
            {
                "csv": str(path),
                "config_hash": trace.metadata["config_hash"],
                "cumulative_regret": trace.metadata["cumulative_regret"],
            }
        )
    )
    return 0


def _load_sweep_configs(path: str):
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
        raise ValueError("config invalid: a sweep config must be an object with a 'runs' list")
    unknown = set(doc) - {"runs", "master_seed"}
    if unknown:
        raise ValueError(f"config invalid: unknown sweep keys {sorted(unknown)}")
    configs = [RunConfig.from_dict(run) for run in doc["runs"]]
    return configs, doc.get("master_seed")


def _cmd_sweep(args) -> int:
    configs, master_seed = _load_sweep_configs(args.config)
    traces = run_sweep(configs, jobs=args.jobs, master_seed=master_seed)
    out = []
    for i, trace in enumerate(traces):
        path = trace.write(args.out, stem=f"run_{i:03d}_{trace.metadata['config_hash']}")
        out.append(
            {
                "index": i,
                "csv": str(path),
                "cumulative_regret": trace.metadata["cumulative_regret"],
            }
        )
    print(json.dumps(out))
    return 0


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    env = build_env(cfg)
    dp = dp_solve(env, cfg.oracle_m_state, cfg.oracle_m_action)
    s1 = np.full(1, float(cfg.init_value))
    print(json.dumps({
        "v_star_at_s1": dp.value_at(s1),
        "s1": s1.tolist(),
        "m_state": len(dp.state_points),
        "m_action": len(dp.action_points),
        "random_policy_gap": random_policy_gap(env, dp, s1),
        "env": cfg.env_name,
        "horizon": cfg.horizon,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cinderella",
        description="Optimistic region-wise value iteration on continuous MDP benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="execute a list of experiments")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="print the oracle value report for a config")
    p_oracle.add_argument("--config", required=True)
    p_oracle.set_defaults(fn=_cmd_oracle)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
