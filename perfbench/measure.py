"""Timed passes over a workload, and the metrics made from them.

A pass runs every scenario of a workload once through the pipeline.  Passes
run in a closed loop on one thread: each starts when the previous one has
finished.  End-to-end metrics come from untraced passes only; per-layer
metrics come from traced passes run alternately with them, and the
difference in their wall times is the tracing overhead.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from pipeline import Workload, digest, make_workload, outside_band, run_scenario
from reflexgrid import engine
from tracing import Tracer

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "agent_steps_per_s": "agent-steps/s",
    "peak_mem_mb": "MiB",
}
PER_LAYER = {
    "engine.run.s": "s",
    "engine.run.self_s": "s",
    "engine.run.self_ns_per_agent_step": "ns/agent-step",
    "engine.uniform_draws.s": "s",
    "engine.uniform_draws.calls": "count",
    "engine.uniform_draws.useful_ratio": "ratio",
    "agents.controller_plan.s": "s",
    "agents.controller_plan.calls": "count",
    "agents.controller_plan.active_ratio": "ratio",
    "circuit.is_homogeneous.calls": "count",
    "circuit.v_load_for_count.calls": "count",
    "awareness.validate_awareness.s": "s",
    "awareness.derive_structure.s": "s",
    "awareness.rule_requirements.s": "s",
    "algebra.contains_word.s": "s",
    "algebra.contains_word.calls": "count",
    "scenariofile.parse_scenario_text.s": "s",
    "engine.compute_metrics.s": "s",
    "output.trace_to_csv.s": "s",
    "output.csv_bytes": "bytes",
    "output.trace_to_svg.s": "s",
    "trace.overhead_s": "s",
}
_TIMED_LAYERS = (
    "awareness.validate_awareness",
    "awareness.derive_structure",
    "awareness.rule_requirements",
    "algebra.contains_word",
    "scenariofile.parse_scenario_text",
    "engine.compute_metrics",
    "output.trace_to_csv",
    "output.trace_to_svg",
)
_COUNTED_LAYERS = ("circuit.is_homogeneous", "circuit.v_load_for_count", "algebra.contains_word")


@dataclass
class PassResult:
    wall_s: float
    setup_samples: list[float]  # one pass's set-up time, measured 1 + repeats times
    run_s: float
    agent_steps: int
    csv_bytes: int
    attempted: int
    failed: int
    digest: str
    layers: dict[str, float] | None = None  # per-layer metrics of a traced pass


def _useful_draws(result, steps: list[int]) -> int:
    """Drawing steps whose sensed (delayed) voltage was outside the band."""
    if not steps:
        return 0
    s = result.scenario
    t = np.asarray(steps)
    delayed = result.trace.v_load[np.maximum(t - s.sensing_delay, 0)]
    sensed = np.where(t >= s.sensing_delay, delayed, engine.initial_sensed_voltage(s))
    return int(outside_band(sensed, s.band).sum())


def run_pass(workload: Workload, seed: int, tracer: Tracer | None = None) -> PassResult:
    gc.collect()  # every pass starts from the same heap
    results, raised, useful = [], 0, 0
    texts = workload.texts(seed)
    repeats = 0 if tracer is not None else workload.setup_repeats
    with tracer.patched() if tracer is not None else nullcontext():
        for text in texts:
            try:
                result = run_scenario(text, workload.shifts, workload.outputs, repeats)
            except Exception:  # a failing scenario is counted, the pass goes on
                traceback.print_exc()
                raised += 1
                continue
            results.append(result)
            if tracer is not None:
                useful += _useful_draws(result, tracer.drawn_steps)
                tracer.drawn_steps.clear()
    verdicts = workload.check(results) if results else []
    p = PassResult(
        wall_s=sum(r.wall_s for r in results),
        setup_samples=[sum(s) for s in zip(*(r.setup_samples for r in results))],
        run_s=sum(r.run_s for r in results),
        agent_steps=sum(r.agent_steps for r in results),
        csv_bytes=sum(len(r.csv.encode("utf-8")) for r in results if r.csv is not None),
        attempted=len(texts),
        failed=raised + verdicts.count(False),
        digest=digest(results),
    )
    if tracer is not None:
        p.layers = _layer_metrics(tracer, p, useful)
    return p


def _layer_metrics(tracer: Tracer, p: PassResult, useful_draws: int) -> dict[str, float]:
    layers = tracer.layers()
    run = layers["engine.run"]
    draws = layers["engine.uniform_draws"]["calls"]
    m = {
        "engine.run.s": run["s"],
        "engine.run.self_s": run["self_s"],
        "engine.run.self_ns_per_agent_step": run["self_s"] * 1e9 / p.agent_steps if p.agent_steps else 0.0,
        "engine.uniform_draws.s": layers["engine.uniform_draws"]["s"],
        "engine.uniform_draws.calls": draws,
        "engine.uniform_draws.useful_ratio": useful_draws / draws if draws else 0.0,
        "agents.controller_plan.s": layers["agents.controller_plan"]["s"],
        "agents.controller_plan.calls": layers["agents.controller_plan"]["calls"],
        "agents.controller_plan.active_ratio": tracer.active_plans / tracer.plans if tracer.plans else 0.0,
        "output.csv_bytes": p.csv_bytes,
    }
    m.update({f"{name}.calls": layers[name]["calls"] for name in _COUNTED_LAYERS})
    m.update({f"{name}.s": layers[name]["s"] for name in _TIMED_LAYERS})
    return m


def measure(name: str, seed: int, seconds: float, trace: bool, spans_dir: Path) -> dict:
    """Whole passes in a closed loop within ``seconds``; prints a table, returns the result."""
    workload = make_workload(name)
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    tracer = None
    start = perf_counter()
    cycles: list[float] = []
    # stop before a cycle that would end past the deadline; at least one runs
    while not cycles or perf_counter() - start + statistics.median(cycles) <= seconds:
        cycle_start = perf_counter()
        untraced.append(run_pass(workload, seed))
        if trace:
            tracer = Tracer()
            traced.append(run_pass(workload, seed, tracer))
        cycles.append(perf_counter() - cycle_start)
    elapsed = perf_counter() - start

    passes = untraced + traced
    correct = True
    # every pass repeats the same deterministic work, traced or not
    for p in passes[1:]:
        if p.digest != passes[0].digest:
            print(f"error: outputs differ between passes of {name}", file=sys.stderr)
            p.failed = p.attempted
    counts = [{k: v for k, v in p.layers.items() if k.endswith(".calls")} for p in traced]
    if any(c != counts[0] for c in counts[1:]):
        print(f"error: call counts differ between traced passes of {name}", file=sys.stderr)
        correct = False
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    if trace:
        units = PER_LAYER
        metrics = {k: statistics.median(p.layers[k] for p in traced) for k in PER_LAYER if k in traced[0].layers}
        # each traced pass against the untraced pass of its own cycle, so the
        # host's drift over the run cancels as far as it can
        metrics["trace.overhead_s"] = statistics.median(t.wall_s - u.wall_s for t, u in zip(traced, untraced))
        tracer.write(spans_dir / f"{name}.spans.tsv")
    else:
        units = END_TO_END
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in untraced),
            # a set-up takes milliseconds, and a shared host runs such a burst
            # at a speed that changes every few seconds; the median follows
            # whichever speed lasted longest in the run, the fastest sample
            # does not
            "setup_s": min(t for p in untraced for t in p.setup_samples),
            "agent_steps_per_s": statistics.median(
                p.agent_steps / p.run_s if p.run_s else 0.0 for p in untraced
            ),
            # every pass does the same work, so the process peak is one pass's peak
            "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    print(
        f"{name} seed {seed}: {len(untraced)} untraced + {len(traced)} traced passes "
        f"in {elapsed:.1f} s, {attempted} scenarios, {failed} failed"
    )
    print("  pass wall_s: " + " ".join(f"{p.wall_s:.4g}" for p in passes))
    for k, unit in units.items():
        print(f"  {k:<40} {metrics[k]:>16.6g} {unit}")
    print(f"  {'error_rate':<40} {failed / attempted:>16.6g} ratio ({failed} of {attempted})")
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
