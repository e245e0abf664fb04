#!/usr/bin/env python3
"""Regret-run benchmark for cinderella.

Runs one workload through the public API (``RunConfig`` -> ``run_experiment``)
from the program source in ``src/`` of the checkout it sits in, checks every
run's output, and prints one metric per line followed by a JSON result line::

    python3 perfbench/run.py --workload uniform_shift_k1024 --seed 1 --seconds 40 --trace 0

``--trace 0`` repeats one unit (one ``run_experiment`` call) until the time is
used and prints the end-to-end metrics, measured untraced, in reference
seconds (see ``hostspeed.py``). ``--trace 1``
runs one unit untraced and the same unit again with tracing wrappers
installed, and prints the per-layer metrics; both runs must produce the same
behaviour hash. ``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from outcheck import behaviour_sha256, check_csv
from hostspeed import CALIB_REF_S, HostSpeed
from spans import Tracer

# numpy and cinderella are imported only after _import_program has capped the
# BLAS thread count, which must happen before numpy loads.
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
BLAS_THREADS = "1"  # one run is one thread; BLAS threads would only add contention
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 9  # set-up samples per run, topped up with probes when few units fit


def _import_program():
    """Import cinderella from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "cinderella" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import cinderella

    if Path(cinderella.__file__).resolve().parent != SRC / "cinderella":
        sys.exit(f"perfbench: cinderella imported from {cinderella.__file__}, not {SRC}")


def _machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode; the name is informative only
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


class _SetupDone(Exception):
    pass


def _setup_probe(config) -> float:
    """Set-up time of ``run_experiment(config)``, stopped at its first episode."""
    from cinderella import harness
    from cinderella.learner import CinderellaLearner

    orig = CinderellaLearner.__dict__["plan_and_act_episode"]

    def stop(self, *args, **kwargs):
        raise _SetupDone

    CinderellaLearner.plan_and_act_episode = stop
    t0 = time.perf_counter()
    try:
        harness.run_experiment(config)
    except _SetupDone:
        return time.perf_counter() - t0
    finally:
        CinderellaLearner.plan_and_act_episode = orig
    raise RuntimeError("set-up probe: the run finished without starting an episode")


class Unit:
    """One ``run_experiment`` call and its checked result."""

    def __init__(self, config):
        self.config = config
        self.trace = None
        self.ms = None  # the CSV's per-episode ms column
        self.wall = self.cpu = 0.0
        self.errors: list = []
        self.sha = None
        self.scale = 1.0  # reference seconds per second, from HostSpeed

    def run(self) -> "Unit":
        from cinderella import harness

        c0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            self.trace = harness.run_experiment(self.config)
        except Exception:  # a failed run is reported, not fatal
            self.errors.append(traceback.format_exc())
        self.wall = time.perf_counter() - t0
        self.cpu = _cpu_seconds() - c0
        if self.trace is not None:
            self.ms = self.trace.column("ms")
            csv = self.trace.to_csv()
            self.errors += check_csv(csv, self.config.episodes)
            self.sha = behaviour_sha256([csv])
        return self

    @property
    def ok(self) -> bool:
        return not self.errors

    def describe(self) -> str:
        head = f"seed {self.config.seed}: wall {self.wall:.3f} s"
        if self.trace is None:
            return head + ", FAILED"
        return (
            f"{head}, R_K {self.trace.cumulative_regret:.6f}, csv_sha256 {self.sha}"
            + ("" if self.ok else ", OUTPUT CHECK FAILED")
        )


def _report(metrics: dict, units: dict, correct: bool, attempted: int, failed: int) -> dict:
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _end_to_end(wl, args) -> tuple[dict, int, int]:
    import numpy as np

    config = wl.config(args.seed, args.episodes)
    speed = HostSpeed()
    units = []
    t0 = time.perf_counter()
    while True:
        unit = Unit(config).run()
        unit.scale = speed.scale()
        if units and units[0].sha is not None and unit.sha not in (None, units[0].sha):
            unit.errors.append("repeat of the same config changed behaviour: csv_sha256 differs")
        print(f"unit {len(units)}: {unit.describe()}, host scale {unit.scale:.4f}")
        for err in unit.errors:
            print(err, file=sys.stderr)
        units.append(unit)
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(units) > args.seconds:
            break
    failed = sum(not u.ok for u in units)
    good = [u for u in units if u.ok]
    if not good:
        return {}, len(units), failed
    setups = [(u.wall - u.ms.sum() / 1e3) * u.scale for u in good]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_probe(config) * speed.scale())
    # Statistics per unit in reference seconds, then the median over units: a
    # stall that hits one unit moves its numbers but not the reported value.
    # Percentiles of the episode times pooled over units spread three times
    # more between runs, as the scale cannot follow a stall inside a unit.
    metrics = {
        "wall_s": statistics.median(u.wall * u.scale for u in good),
        "setup_s": statistics.median(setups),
        "episodes_per_s": statistics.median(
            len(u.ms) / (u.ms.sum() / 1e3 * u.scale) for u in good
        ),
        "episode_ms.p50": statistics.median(float(np.percentile(u.ms, 50)) * u.scale for u in good),
        "episode_ms.p99": statistics.median(float(np.percentile(u.ms, 99)) * u.scale for u in good),
        "peak_rss_mb": _peak_rss_mb(),
        "regret_avg": good[0].trace.cumulative_regret / len(good[0].ms),
    }
    print(
        f"samples: {len(good)} repeats of {len(good[0].ms)} episodes, {len(setups)} set-ups; "
        f"runs_failed {failed}/{len(units)} runs"
    )
    print(
        f"host speed: calibration kernel median {statistics.median(speed.kernel_times) * 1e3:.3f} ms "
        f"against {CALIB_REF_S * 1e3:.3f} ms reference; unscaled wall median "
        f"{statistics.median(u.wall for u in good):.4f} s"
    )
    return metrics, len(units), failed


def _per_layer(wl, args) -> tuple[dict, int, int, bool]:
    config = wl.config(args.seed, args.episodes)
    plain = Unit(config).run()
    print(f"untraced: {plain.describe()}")
    tracer = Tracer()
    tracer.install()
    try:
        traced = Unit(config).run()
    finally:
        tracer.uninstall()
    print(f"traced:   {traced.describe()}")
    for err in plain.errors + traced.errors:
        print(err, file=sys.stderr)
    failed = (not plain.ok) + (not traced.ok)
    if plain.trace is None or traced.trace is None:
        return {}, 2, failed, False
    same = plain.sha == traced.sha
    if not same:
        print("traced run changed behaviour: csv_sha256 differs", file=sys.stderr)

    spans_path = SPANS_DIR / f"{wl.name}-seed{args.seed}.spans.csv.gz"
    tracer.write(spans_path)
    print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")

    layers, counts = tracer.layers(), tracer.counts

    def layer(name, key):
        return layers.get(name, {}).get(key, 0)

    derived = {
        "learner.optimism_rate": counts["optimism.hits"] / max(counts["optimism.episodes"], 1),
        "harness.core_utilization": plain.cpu / plain.wall,
        "trace.overhead": traced.wall / plain.wall - 1.0,
    }
    metrics = {}
    for name in PER_LAYER:
        prefix, _, key = name.rpartition(".")
        if name in derived:
            metrics[name] = derived[name]
        elif key in ("calls", "self_s", "total_s"):
            metrics[name] = layer(prefix, key)
        else:
            metrics[name] = counts[name]

    small = sum(
        rec["self_s"]
        for name, rec in layers.items()
        if name.split(".")[0] in ("geometry", "features", "regression", "envs")
    )
    print(
        f"shares of traced wall {traced.wall:.3f} s: learner.plan.total_s "
        f"{layer('learner.plan', 'total_s') / traced.wall:.3f}, "
        f"geometry+features+regression+envs self {small / traced.wall:.3f}"
    )
    return metrics, 2, failed, same


def _run_all(args) -> int:
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        if args.episodes is not None:
            cmd += ["--episodes", str(args.episodes)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--episodes", type=int, help="override K (smoke tests only)")
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    wl = WORKLOADS[args.workload]
    print("machine " + json.dumps(_machine()))
    if args.trace:
        metrics, attempted, failed, same = _per_layer(wl, args)
        units = PER_LAYER
    else:
        metrics, attempted, failed = _end_to_end(wl, args)
        same, units = True, END_TO_END
    correct = bool(metrics) and failed == 0 and same
    print(json.dumps(_report(metrics, units, correct, attempted, failed)), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
