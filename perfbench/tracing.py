"""In-memory spans around reflexgrid's public layer functions.

A span wraps a function by swapping the attribute its caller looks up (a
module global, or a property on a class).  ``Tracer.patched()`` installs
every wrapper and restores the originals on exit, so untraced passes run
the unmodified program.  Spans are appended to a flat integer array while
the pass runs and turned into per-layer totals afterwards.  A layer's self
time is its duration minus the durations of its direct children; calls on
one thread nest strictly, so that is the uncovered part of its interval.
"""

from __future__ import annotations

import importlib
import itertools
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from reflexgrid.agents import Action
from reflexgrid.circuit import CircuitConfig

# (span name, owner, attribute).  The owner is the module whose global the
# caller resolves at call time, so imported names are patched where they
# are used, not where they are defined.
TARGETS = (
    ("scenariofile.parse_scenario_text", "reflexgrid.scenariofile", "parse_scenario_text"),
    ("awareness.validate_awareness", "reflexgrid.awareness", "validate_awareness"),
    ("awareness.derive_structure", "reflexgrid.awareness", "derive_structure"),
    ("awareness.rule_requirements", "reflexgrid.awareness", "rule_requirements"),
    ("algebra.contains_word", "reflexgrid.awareness", "contains_word"),
    ("engine.run", "reflexgrid.engine", "run"),
    ("engine.uniform_draws", "reflexgrid.engine", "uniform_draws"),
    ("agents.controller_plan", "reflexgrid.engine", "controller_plan"),
    ("circuit.v_load_for_count", "reflexgrid.agents", "v_load_for_count"),
    ("circuit.v_load_for_count", "reflexgrid.engine", "v_load_for_count"),
    ("circuit.is_homogeneous", CircuitConfig, "is_homogeneous"),
    ("engine.compute_metrics", "reflexgrid.engine", "compute_metrics"),
    ("output.trace_to_csv", "reflexgrid.output", "trace_to_csv"),
    ("output.trace_to_svg", "reflexgrid.output", "trace_to_svg"),
)
NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
_FIELDS = 5  # name id, span id, parent span id (-1 for none), start ns, end ns


class Tracer:
    def __init__(self):
        self.spans = array("q")
        self.plans = 0  # controller_plan calls
        self.active_plans = 0  # ... that returned any non-HOLD instruction
        self.drawn_steps: list[int] = []  # step index of each uniform_draws call
        self._stack: list[int] = []
        self._ids = itertools.count()

    def _wrap(self, name: str, fn, after=None):
        name_id = NAMES.index(name)
        record, stack, ids = self.spans.extend, self._stack, self._ids

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                record((name_id, span_id, parent, start, end))
            if after is not None:
                after(args, kwargs, result)  # outside the span
            return result

        return traced

    def _after_plan(self, args, kwargs, plan):
        self.plans += 1
        self.active_plans += any(ins.action is not Action.HOLD for ins in plan)

    def _after_draw(self, args, kwargs, result):
        self.drawn_steps.append(kwargs["t"] if "t" in kwargs else args[1])

    @contextmanager
    def patched(self):
        hooks = {"agents.controller_plan": self._after_plan, "engine.uniform_draws": self._after_draw}
        saved = []
        try:
            for name, owner, attr in TARGETS:
                if isinstance(owner, str):
                    owner = importlib.import_module(owner)
                original = vars(owner).get(attr)
                if isinstance(original, property):
                    wrapped = property(self._wrap(name, original.fget))
                elif callable(original):
                    wrapped = self._wrap(name, original, hooks.get(name))
                else:
                    # a renamed or inlined layer must be re-targeted here, not
                    # silently reported as zero calls
                    where = getattr(owner, "__name__", owner)
                    raise LookupError(f"cannot trace {name}: {where}.{attr} is not a function")
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and call count."""
        spans = self.spans
        total = defaultdict(int)
        calls = defaultdict(int)
        name_of: dict[int, int] = {}
        duration: dict[int, int] = {}
        children = defaultdict(int)
        for i in range(0, len(spans), _FIELDS):
            name_id, span_id, parent, start, end = spans[i : i + _FIELDS]
            dur = end - start
            total[name_id] += dur
            calls[name_id] += 1
            name_of[span_id] = name_id
            duration[span_id] = dur
            if parent >= 0:
                children[parent] += dur
        self_ns = defaultdict(int)
        for span_id, dur in duration.items():
            self_ns[name_of[span_id]] += dur - children[span_id]
        return {
            name: {"s": total[i] / 1e9, "self_s": self_ns[i] / 1e9, "calls": calls[i]}
            for i, name in enumerate(NAMES)
        }

    def write(self, path: Path) -> None:
        """One span per line: name, span id, parent id, start ns, end ns."""
        spans = self.spans
        lines = [
            "\t".join([NAMES[spans[i]], *map(str, spans[i + 1 : i + _FIELDS])])
            for i in range(0, len(spans), _FIELDS)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("name\tspan\tparent\tstart_ns\tend_ns\n" + "\n".join(lines) + "\n")
