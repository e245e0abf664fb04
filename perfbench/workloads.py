"""The benchmark's workloads: run configs built from a workload seed.

Every workload is a closed loop: the harness starts each episode when the
previous one has finished. A *unit* is one ``run_experiment`` call; a
benchmark run repeats the same unit until its time is up.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from cinderella.harness import RunConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base: RunConfig

    def config(self, seed: int, episodes: int | None = None) -> RunConfig:
        """Config of one unit. The same seed gives the same config.

        ``episodes`` shrinks K for smoke tests; epsilon stays resolved at the
        full K so the partition and feature shapes do not change.
        """
        run_seed = int(np.random.SeedSequence((seed, 0)).generate_state(1)[0])
        cfg = dataclasses.replace(self.base, seed=run_seed)
        if episodes is not None:
            cfg = dataclasses.replace(cfg, episodes=episodes, epsilon=cfg.resolved_epsilon())
        return cfg


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="uniform_shift_k1024",
            why="criterion-08 config at K=1024, epsilon fixed at its K=4096 value (N=16, d=1): "
            "many small calls, flat per-episode cost; write-heavy use of the learner",
            base=RunConfig(
                env_name="uniform_shift",
                env_params={"beta": 0.5},
                episodes=1024,
                horizon=2,
                nu=1.0,
                epsilon=0.25,  # what "auto" resolves to at K=4096
                action_grid=21,
                oracle_m_state=129,
                oracle_m_action=65,
                init_mode="fixed",
                init_value=0.0,
            ),
        ),
        Workload(
            name="smooth_drift_nu3",
            why="N=64, d=6, K=512: the history re-fit grows with k and plan dominates wall; "
            "read-heavy use of the learner",
            base=RunConfig(
                env_name="smooth_drift",
                env_params={"drift_gain": 0.5, "noise_sigma": 0.3},
                episodes=512,
                horizon=2,
                nu=3.0,
                epsilon=0.125,
            ),
        ),
        # Stands in for a run_sweep(jobs=2) workload: on a shared 2-vCPU host the
        # two GIL-bound threads amplified host stalls, and its spread exceeded
        # any usable bound. It keeps the sweep's H=3, uniform s1 and fine oracle.
        Workload(
            name="fine_oracle_h3",
            why="H=3 run with uniform s1 and a 257x129 oracle: dp_solve large enough for "
            "setup_s to matter, and the played-policy evaluation interpolates",
            base=RunConfig(
                env_name="smooth_drift",
                env_params={"drift_gain": 0.5, "noise_sigma": 0.3},
                episodes=256,
                horizon=3,
                nu=2.0,
                epsilon=0.5,
                oracle_m_state=257,
                oracle_m_action=129,
                init_mode="uniform",
            ),
        ),
    ]
}
