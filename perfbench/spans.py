"""Tracing from outside the program: wrappers around each module's public calls.

``Tracer.install`` replaces a function in every ``cinderella`` module that
holds it (``learner`` imports ``assign_regions`` by name, ``harness`` imports
``dp_solve``, ...) and wraps learner methods on the class. Each wrapped call
records one span ``(id, parent id, layer, start, end)`` in memory; the traced
runs are single-threaded, so one stack of open span ids gives every span its
parent. Counts are read from outside (argument shapes, ``learner.history``,
``learner.counts``, the captured ``GridDP``); nothing is counted inside
``src/``. Wrappers return exactly what the wrapped call returns.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

OBSERVE = "perfbench.observe"  # time spent computing counts; subtracted, not reported
OPTIMISM_SLACK = 0.02  # oracle grid bias bound, as in outcheck.GRID_BIAS


class Tracer:
    """Spans and counts of one single-threaded traced run."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._stack: list = []  # ids of the open spans, innermost last
        self._suspended = False
        self._run: dict = {}  # objects of the run in progress: its GridDP and learner
        self._patches: list = []

    @contextmanager
    def _observing(self, parent: int):
        """Run count-taking code untraced; its time is charged to no layer."""
        self._suspended = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._suspended = False
            self.spans.append((next(self._ids), parent, OBSERVE, t0, t1))

    def wrap(self, layer: str, fn, before=None, after=None):
        """``fn`` recorded as ``layer``; ``before``/``after`` take counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            sid = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else 0
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, layer, t0, t1))
            if after is not None:
                with tracer._observing(parent):
                    after(args, kwargs, out)
            return out

        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch_function(self, module: str, attr: str, layer: str, before=None, after=None):
        orig = getattr(importlib.import_module(module), attr)
        wrapper = self.wrap(layer, orig, before, after)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "cinderella" and getattr(mod, attr, None) is orig:
                self._patches.append((mod, attr, orig))
                setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr: str, layer: str, before=None, after=None):
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, self.wrap(layer, orig, before, after))

    def install(self) -> None:
        from cinderella.learner import CinderellaLearner
        from cinderella.regression import REINVERT_EVERY

        counts, run = self.counts, self._run

        def count_points(counter):
            def before(args, kwargs):
                counts[counter] += len(args[1])

            return before

        def start_run(args, kwargs):
            run.clear()

        def end_run(args, kwargs, out):
            learner = run.get("learner")
            if learner is not None:
                counts["regression.reinversions"] += int((learner.counts // REINVERT_EVERY).sum())

        def capture_dp(args, kwargs, dp):
            run["dp"] = dp

        def plan_rows(args, kwargs):
            learner = run["learner"] = args[0]
            M = learner.actions.shape[0]
            counts["learner.plan.rows_scored"] += M * sum(
                learner.history[h].size for h in range(1, learner.H)
            )

        def probe_rows(args, kwargs):
            learner = args[0]
            counts["learner.plan.rows_scored"] += (
                learner.H * run["dp"].state_points.shape[0] * learner.actions.shape[0]
            )

        def optimism(args, kwargs, out):
            learner, dp = args[0], run["dp"]
            s1 = args[1] if len(args) > 1 else kwargs["s1"]
            gap = learner.value_estimate(s1) - dp.value_at(s1)
            counts["optimism.episodes"] += 1
            counts["optimism.hits"] += int(gap >= -OPTIMISM_SLACK)

        self._patch_function(
            "cinderella.geometry", "assign_regions", "geometry.assign_regions",
            before=count_points("geometry.assign_regions.points"),
        )
        self._patch_function(
            "cinderella.features", "features_at_centers", "features.features_at_centers",
            before=count_points("features.features_at_centers.rows"),
        )
        self._patch_function("cinderella.regression", "ridge_update", "regression.ridge_update")
        self._patch_function("cinderella.envs", "run_episode", "envs.run_episode")
        self._patch_function("cinderella.oracle", "dp_solve", "oracle.dp_solve", after=capture_dp)
        self._patch_function("cinderella.harness", "_policy_eval_tables", "oracle.policy_eval")
        self._patch_function("cinderella.harness", "_played_policy_value", "oracle.policy_eval")
        self._patch_function(
            "cinderella.harness", "run_experiment", "harness.run_experiment",
            before=start_run, after=end_run,
        )
        self._patch_method(CinderellaLearner, "act", "learner.act")
        self._patch_method(CinderellaLearner, "observe_transition", "learner.observe_transition")
        self._patch_method(
            CinderellaLearner, "plan", "learner.plan", before=plan_rows, after=optimism
        )
        self._patch_method(
            CinderellaLearner, "greedy_action_indices", "learner.greedy_action_indices",
            before=probe_rows,
        )

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def layers(self) -> dict:
        """Per layer: calls, total seconds, and self seconds (minus wrapped children)."""
        child = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        out: dict = {}
        for sid, _, layer, t0, t1 in self.spans:
            if layer == OBSERVE:
                continue
            rec = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += t1 - t0 - child[sid]
        return out

    def write(self, path) -> None:
        """All spans as gzip CSV, times in seconds from the earliest start."""
        origin = min((span[3] for span in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            f.write("id,parent,layer,start_s,end_s\n")
            for sid, parent, layer, t0, t1 in self.spans:
                f.write(f"{sid},{parent},{layer},{t0 - origin:.7f},{t1 - origin:.7f}\n")
