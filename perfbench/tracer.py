"""In-memory tracer for the benchmark's traced run.

The tracer wraps the public entry points of each oppaccess layer under the
name its caller resolves at call time (a module attribute, a class method,
or an entry of the CLI's property table), so the library itself is not
edited.  Every wrapped call updates an aggregate record per name: calls,
summed duration, and summed self time, where self time is the call's
duration minus the time covered by wrapped calls made inside it.

Calls made millions of times (``tau``, ``greedy_action``, solver
construction) are "leaves": they add to their aggregate and to the enclosing
call's child time, but open no frame.  Calls at most ``SPAN_DEPTH`` deep
(the benchmark item itself, and the layer call the item makes) are also kept
as span records -- name, start, end, parent, item -- and written out at the
end of the run.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

from workloads import VERIFY_FUNCTIONS

_now = time.perf_counter

#: Frames at most this deep are kept as span records (the item root is depth 1).
SPAN_DEPTH = 2

_POLICY_CLASSES = (
    "Policy",
    "GreedyPolicy",
    "OptimalPolicy",
    "OrderedListPolicy",
    "RoundRobinPolicy",
    "FixedSetPolicy",
    "UniformRandomPolicy",
)


class Tracer:
    """Span and counter recorder; ``install`` wraps the library, ``uninstall`` restores it."""

    def __init__(self) -> None:
        self.stats: dict = {}  # name -> [calls, total_s, self_s]
        self.counters: defaultdict = defaultdict(float)
        self.spans: list = []  # [name, start, end, parent_index, item]
        # Each frame is [child_time_s, span_index]; the bottom frame is a sentinel.
        self._stack: list = [[0.0, -1]]
        self._layer_depth: defaultdict = defaultdict(int)
        self._patches: list = []
        self._solvers: list = []
        self._item = None

    # -- wrappers ------------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _leaf(self, name, fn, on_exit=None):
        stat, stack = self._stat(name), self._stack

        def leaf(*args, **kwargs):
            t0 = _now()
            result = fn(*args, **kwargs)
            dt = _now() - t0
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt
            stack[-1][0] += dt
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return leaf

    def _span(self, name, fn, on_exit=None, layer=None):
        stat, stack, spans = self._stat(name), self._stack, self.spans
        depths = self._layer_depth

        def span(*args, **kwargs):
            frame = [0.0, -1]
            if len(stack) <= SPAN_DEPTH:
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][1], self._item])
            stack.append(frame)
            if layer is not None:
                depths[layer] += 1
            result = None
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _now()
                dt = t1 - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                stack[-1][0] += dt
                if frame[1] >= 0:
                    spans[frame[1]][1:3] = [t0, t1]
                if layer is not None:
                    depths[layer] -= 1
                    if depths[layer] == 0:
                        self.counters[f"{layer}.outer_s"] += dt
                if on_exit is not None:
                    on_exit(args, kwargs, result)

        return span

    # -- item boundaries -----------------------------------------------------

    def begin_item(self, key: str) -> None:
        self._item = key
        self.spans.append(["bench.item", _now(), 0.0, -1, key])
        self._stack.append([0.0, len(self.spans) - 1])

    def end_item(self) -> None:
        frame = self._stack.pop()
        self.spans[frame[1]][2] = _now()
        for solver in self._solvers:
            stats = solver.cache_stats()
            self.counters["dp.v_states"] += stats["v_states"]
            self.counters["dp.w_states"] += stats["w_states"]
        self._solvers.clear()
        self._item = None

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def install(self) -> None:
        from oppaccess import cli, dp, policies, sim, verify

        counters = self.counters
        self._patch(dp, "tau", self._leaf("model.tau", dp.tau))

        solver_cls = dp.FiniteHorizonSolver
        self._patch(
            solver_cls,
            "__init__",
            self._leaf(
                "dp.solver_init",
                solver_cls.__dict__["__init__"],
                on_exit=lambda a, k, r: self._solvers.append(a[0]),
            ),
        )
        for meth in ("optimal_value", "action_values", "w_value", "greedy_value"):
            fn = solver_cls.__dict__[meth]
            self._patch(solver_cls, meth, self._span(f"dp.{meth}", fn, layer="dp"))

        for cls_name in _POLICY_CLASSES:
            cls = getattr(policies, cls_name)
            for attr in ("batch_actions", "action", "observe"):
                if attr in cls.__dict__:
                    wrapped = self._span(f"policies.{attr}", cls.__dict__[attr])
                    self._patch(cls, attr, wrapped)
        for module in (policies, verify):
            self._patch(
                module,
                "greedy_action",
                self._leaf("policies.greedy_action", module.greedy_action),
            )

        def count_steps(args, kwargs, result):
            config = args[0] if args else kwargs["config"]
            counters["sim.steps"] += config.replications * config.horizon.T

        def count_trace_bytes(args, kwargs, result):
            path = args[0] if args else kwargs["path"]
            if os.path.exists(path):
                counters["sim.trace_bytes"] += os.path.getsize(path)

        self._patch(sim, "simulate", self._span("sim.simulate", sim.simulate, count_steps))
        self._patch(
            sim,
            "common_random_numbers_compare",
            self._span("sim.compare", sim.common_random_numbers_compare),
        )
        self._patch(
            sim, "write_traces", self._span("sim.write_traces", sim.write_traces, count_trace_bytes)
        )

        for prop, fn_name in VERIFY_FUNCTIONS.items():
            wrapped = self._span(
                f"verify.{prop}", getattr(verify, fn_name), self._verify_counter(prop)
            )
            self._patch(verify, fn_name, wrapped)
            if prop == "negative-scan":
                self._patch(cli, fn_name, wrapped)
            else:
                self._patch(cli._CHECKS, prop, wrapped)

        def count_artifacts(args, kwargs, result):
            out_dir = kwargs.get("out_dir")
            if out_dir and os.path.isdir(out_dir):
                for entry in os.scandir(out_dir):
                    if entry.is_file():
                        counters["cli.artifact_bytes"] += entry.stat().st_size

        self._patch(cli, "load_config", self._span("cli.load_config", cli.load_config))
        self._patch(cli.run, "callback", self._span("cli.run", cli.run.callback, count_artifacts))

    def _verify_counter(self, prop: str):
        counters = self.counters

        def count(args, kwargs, result):
            count_arg = args[1] if len(args) > 1 else kwargs.get("count", 0)
            counters[f"verify.{prop}.instances"] += count_arg
            if result is None:
                return
            if prop == "negative-scan":
                counters["verify.errors"] += len(result.errors)
            else:
                errors = sum(1 for v in result if v.error is not None)
                counters["verify.errors"] += errors
                counters["verify.violations"] += len(result) - errors

        return count

    # -- results -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, item in self.spans:
                record = {"name": name, "start": start, "end": end,
                          "parent": parent, "item": item}
                f.write(json.dumps(record, separators=(",", ":")) + "\n")

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per traced pass, as {name: (value, unit)}."""

        def calls(name):
            return self.stats.get(name, [0, 0.0, 0.0])[0] / passes

        def total(name):
            return self.stats.get(name, [0, 0.0, 0.0])[1] / passes

        def self_s(name):
            return self.stats.get(name, [0, 0.0, 0.0])[2] / passes

        def counter(name):
            return self.counters.get(name, 0.0) / passes

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        v_states, w_states = counter("dp.v_states"), counter("dp.w_states")
        steps = counter("sim.steps")
        m = {
            "model.tau.calls": (calls("model.tau"), "count"),
            "model.tau.s": (total("model.tau"), "s"),
            "dp.solver.count": (calls("dp.solver_init"), "count"),
            "dp.solver_init.s": (total("dp.solver_init"), "s"),
            "dp.optimal_value.calls": (calls("dp.optimal_value"), "count"),
            "dp.optimal_value.self_s": (self_s("dp.optimal_value"), "s"),
            "dp.action_values.self_s": (self_s("dp.action_values"), "s"),
            "dp.w_value.calls": (calls("dp.w_value") + calls("dp.greedy_value"), "count"),
            "dp.w_value.self_s": (self_s("dp.w_value") + self_s("dp.greedy_value"), "s"),
            "dp.v_states": (v_states, "count"),
            "dp.w_states": (w_states, "count"),
            "dp.states_per_s": (rate(v_states + w_states, counter("dp.outer_s")), "1/s"),
            "policies.batch_actions.calls": (calls("policies.batch_actions"), "count"),
            "policies.batch_actions.s": (total("policies.batch_actions"), "s"),
            "policies.action.calls": (calls("policies.action"), "count"),
            "policies.action.self_s": (self_s("policies.action"), "s"),
            "policies.observe.s": (total("policies.observe"), "s"),
            "policies.greedy_action.calls": (calls("policies.greedy_action"), "count"),
            "policies.greedy_action.s": (total("policies.greedy_action"), "s"),
            "sim.simulate.s": (total("sim.simulate"), "s"),
            "sim.simulate.self_s": (self_s("sim.simulate"), "s"),
            "sim.steps": (steps, "count"),
            "sim.steps_per_s": (rate(steps, total("sim.simulate")), "1/s"),
            "sim.compare.s": (total("sim.compare"), "s"),
            "sim.write_traces.s": (total("sim.write_traces"), "s"),
            "sim.trace_bytes": (counter("sim.trace_bytes"), "bytes"),
        }
        for prop in VERIFY_FUNCTIONS:
            m[f"verify.{prop}.instances"] = (counter(f"verify.{prop}.instances"), "count")
            m[f"verify.{prop}.self_s"] = (self_s(f"verify.{prop}"), "s")
        m["verify.violations"] = (counter("verify.violations"), "count")
        m["verify.errors"] = (counter("verify.errors"), "count")
        m["cli.load_config.s"] = (total("cli.load_config"), "s")
        m["cli.run.self_s"] = (self_s("cli.run"), "s")
        m["cli.artifact_bytes"] = (counter("cli.artifact_bytes"), "bytes")
        return m
