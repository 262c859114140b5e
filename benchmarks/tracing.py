"""Per-layer spans, recorded from outside the program.

`Tracer.installed()` rebinds every layer function below, in each loaded
fireflynet module that holds it, to a wrapper that records a span and
calls through.  Callers look these names up in their own module's
namespace at call time: `trainer` imports `swarm_step`,
`truncated_resolvent`, `evolve_weights` and the rest into its own, and
`swarm_step` finds `enforce_min_distance` in `firefly`'s.  So each copy
of the name is rebound, and the originals come back on exit.

A span is (layer, start, end, parent span, op); spans stay in memory and
are written out once the run ends.  A span's self time is its duration
minus the durations of its child spans, which run inside it one after
another on the one thread.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path


def _settle_info(pop) -> tuple[int, int]:
    return 0, int(pop.settle_converged)


def _evolve_info(result) -> tuple[int, int]:
    report = result[1]
    return report.steps, int(report.converged)


# layer -> (module that defines it, function name, what to read off its result)
LAYERS = {
    "firefly.swarm_step": ("fireflynet.firefly", "swarm_step", None),
    "firefly.settle": ("fireflynet.firefly", "enforce_min_distance", _settle_info),
    "firefly.synthesize": ("fireflynet.firefly", "synthesize_weights", None),
    "dynamics.resolvent": ("fireflynet.dynamics", "truncated_resolvent", None),
    "dynamics.tensor": ("fireflynet.dynamics", "correlation_tensor", None),
    "plasticity.evolve": ("fireflynet.plasticity", "evolve_weights", _evolve_info),
    "trainer.init_model": ("fireflynet.trainer", "init_model", None),
    "trainer.present": ("fireflynet.trainer", "present_pattern", None),
    "trainer.recall": ("fireflynet.trainer", "recall", None),
    "trainer.complete": ("fireflynet.trainer", "complete", None),
    "trainer.save_model": ("fireflynet.trainer", "save_model", None),
    "trainer.load_model": ("fireflynet.trainer", "load_model", None),
}
NAMES = list(LAYERS)


class Tracer:
    """Span store for one run.  Set `op` to the index of the timed op in
    progress, or -1 outside timed ops (set-up)."""

    def __init__(self) -> None:
        self.op = -1
        self.layer = array("i")
        self.parent = array("l")
        self.op_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.count = array("l")  # evolve: Euler steps
        self.flag = array("b")  # settle, evolve: converged (1/0); -1 otherwise
        self._stack: list[int] = []

    @property
    def spans(self) -> int:
        return len(self.start)

    def _wrap(self, code: int, fn, info):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.layer.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.count.append(0)
            self.flag.append(-1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if info is not None:
                self.count[idx], self.flag[idx] = info(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind the layer functions for the duration of the block."""
        wrappers = {}
        for code, (module, name, info) in enumerate(LAYERS.values()):
            original = getattr(sys.modules[module], name)
            wrappers[id(original)] = (original, self._wrap(code, original, info))
        undo = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fireflynet" and not mod_name.startswith("fireflynet."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    undo.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in undo:
                setattr(module, attr, value)

    def write_csv(self, path: Path) -> None:
        """One line per span; times in seconds from the first span's start."""
        t0 = self.start[0] if self.spans else 0.0
        lines = ["span,layer,op,parent,start_s,end_s,count,flag"]
        for i in range(self.spans):
            lines.append(
                f"{i},{NAMES[self.layer[i]]},{self.op_of[i]},{self.parent[i]},"
                f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{self.count[i]},{self.flag[i]}"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, dict[str, float | str]]:
        """Per-layer figures.  Spans inside timed ops are summed and divided
        by the op count; save_model and load_model run in set-up only, so
        theirs are seconds per call over the whole run."""
        n = self.spans
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls = [0] * len(NAMES)
        busy = [0.0] * len(NAMES)
        own = [0.0] * len(NAMES)
        steps = [0] * len(NAMES)
        converged = [0] * len(NAMES)
        all_calls = [0] * len(NAMES)
        all_busy = [0.0] * len(NAMES)
        for i in range(n):
            code = self.layer[i]
            all_calls[code] += 1
            all_busy[code] += dur[i]
            if self.op_of[i] < 0:
                continue
            calls[code] += 1
            busy[code] += dur[i]
            own[code] += dur[i] - child[i]
            steps[code] += self.count[i]
            converged[code] += self.flag[i] == 1

        def at(name: str) -> int:
            return NAMES.index(name)

        def per_op(values, name: str) -> float:
            return values[at(name)] / ops

        def share(name: str) -> float:
            c = calls[at(name)]
            return converged[at(name)] / c if c else 0.0

        def per_call(name: str) -> float:
            c = all_calls[at(name)]
            return all_busy[at(name)] / c if c else 0.0

        evolve = at("plasticity.evolve")
        figures = {
            "firefly.swarm_step.calls": (per_op(calls, "firefly.swarm_step"), "calls/op"),
            "firefly.swarm_step.self_s": (per_op(own, "firefly.swarm_step"), "s/op"),
            "firefly.settle.calls": (per_op(calls, "firefly.settle"), "calls/op"),
            "firefly.settle.s": (per_op(busy, "firefly.settle"), "s/op"),
            "firefly.settle.converged_frac": (share("firefly.settle"), "ratio"),
            "firefly.synthesize.s": (per_op(busy, "firefly.synthesize"), "s/op"),
            "dynamics.resolvent.calls": (per_op(calls, "dynamics.resolvent"), "calls/op"),
            "dynamics.resolvent.s": (per_op(busy, "dynamics.resolvent"), "s/op"),
            "dynamics.tensor.s": (per_op(busy, "dynamics.tensor"), "s/op"),
            "plasticity.evolve.calls": (per_op(calls, "plasticity.evolve"), "calls/op"),
            "plasticity.evolve.s": (per_op(busy, "plasticity.evolve"), "s/op"),
            "plasticity.evolve.steps": (per_op(steps, "plasticity.evolve"), "steps/op"),
            "plasticity.evolve.us_per_step": (
                1e6 * busy[evolve] / steps[evolve] if steps[evolve] else 0.0,
                "us/step",
            ),
            "plasticity.evolve.converged_frac": (share("plasticity.evolve"), "ratio"),
            "trainer.init_model.s": (per_op(busy, "trainer.init_model"), "s/op"),
            "trainer.present.self_s": (per_op(own, "trainer.present"), "s/op"),
            "trainer.recall.self_s": (
                (own[at("trainer.recall")] + own[at("trainer.complete")]) / ops,
                "s/op",
            ),
            "trainer.save_model.s": (per_call("trainer.save_model"), "s/call"),
            "trainer.load_model.s": (per_call("trainer.load_model"), "s/call"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}
