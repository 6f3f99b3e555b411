"""The benchmark's workloads and the reflexgrid pipeline they drive.

One scenario goes through the same steps as ``reflexgrid run``: parse the
scenario text (which calibrates the band), validate the structure of
awareness, simulate, compute the post-disturbance metrics and, when the
workload writes outputs, render the CSV and SVG.  Every step is a call to
a layer's public function through its module attribute, so a tracer that
swaps those attributes sees every call.

Every workload's scenario texts are generated here from the workload seed;
nothing is read from the repository's ``scenarios/`` directory, so editing
a shipped scenario does not silently change the benchmark.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable

import numpy as np

from reflexgrid import awareness, engine, output, scenariofile

# sha256 of the CSV each deterministic workload writes, recorded at the
# commit that introduced the benchmark.  Reactive and commanded fleets make
# no random draws, so the digest does not depend on the workload seed.
HERD_CSV_SHA256 = "ebeb507c8c3545fc57aa9ca2344f492f5c7a688609a03cfa15b98851e5b797fa"
CONTROLLER_CSV_SHA256 = "3a0b23a9938c8eea952fb8279d4e005b2493f454f89caa4cbbf72f79d1a51f48"
# outside-band fraction of the deterministic 100-appliance scenario A, as
# pinned by tests/test_acceptance.py; the sweep's threshold is half of it
SCENARIO_A_FRACTION = 0.9439705882352941

SWEEP_SEEDS = 20
# parse + validate of one 1000-agent scenario takes milliseconds, so each
# pass repeats it this many extra times to give the set-up estimate more samples
SHORT_SETUP_REPEATS = 20


def scenario_text(
    rule: str,
    n: int,
    horizon: int,
    seed: int,
    *,
    p: float | None = None,
    peer_awareness: bool = False,
    controller: bool = False,
    record_shifts: bool | None = None,
) -> str:
    """A shipped reference scenario (A, B or C), scaled to ``n`` appliances.

    Branch resistances scale with ``n`` so the fleet presents the same total
    load as the 100-appliance reference.  With ``n=100, horizon=8000`` the
    text parses to exactly the scenario of the matching shipped file.
    """
    scale = n / 100
    lines = [
        "[circuit]",
        "r_source = 0.08",
        f"r_base = {100.0 * scale!r}",
        f"r_flex = {50.0 * scale!r}",
        "[source]",
        "v_base = 10.0",
        "[disturbance]",
        "t_start = 1000",
        "t_end = 1200",
        "delta_v = 0.3",
        "[agents]",
        f"count = {n}",
        "period = 100",
        "on_steps = 50",
        "phase_spread = uniform",
        f"rule = {rule}",
    ]
    if p is not None:
        lines.append(f"p = {p!r}")
    lines += ["max_shift = 1000", f"peer_awareness = {'full' if peer_awareness else 'none'}"]
    if controller:
        lines += ["[controller]", "enabled = true", "control_interval = 1"]
    lines += [
        "[band]",
        "ratio = 0.002",
        "[run]",
        f"horizon = {horizon}",
        f"seed = {seed}",
        "sensing_delay = 3",
    ]
    if record_shifts is not None:
        lines.append(f"record_shifts = {'true' if record_shifts else 'false'}")
    return "\n".join(lines) + "\n"


@dataclass
class ScenarioResult:
    scenario: engine.Scenario
    violations: list
    trace: engine.Trace
    metrics: engine.Metrics
    csv: str | None
    svg: str | None
    setup_samples: list[float]  # parse + calibrate + validate, once per set-up made
    run_s: float  # inside engine.run
    wall_s: float  # scenario text to outputs, one set-up included

    @property
    def agent_steps(self) -> int:
        return self.scenario.n_agents * self.scenario.horizon


def metrics_window(scenario: engine.Scenario) -> tuple[int, int]:
    """The post-disturbance window ``reflexgrid run`` reports on."""
    t_end = scenario.disturbance.t_end
    return (t_end, scenario.horizon) if t_end < scenario.horizon else (0, scenario.horizon)


def _setup(text: str):
    bundle = scenariofile.parse_scenario_text(text)
    return bundle, awareness.validate_awareness(bundle.awareness, bundle.rules)


def run_scenario(text: str, shifts: bool, outputs: bool, setup_repeats: int = 0) -> ScenarioResult:
    """One scenario through the pipeline, as ``reflexgrid run [--record-shifts]``.

    ``setup_repeats`` extra set-ups run, half before and half after the timed
    pipeline, so that their samples are spread over the pass; they are not
    part of ``wall_s``.
    """
    setup_times: list[float] = []

    def repeat_setup(times: int) -> None:
        for _ in range(times):
            start = perf_counter()
            _setup(text)
            setup_times.append(perf_counter() - start)

    repeat_setup(setup_repeats // 2)
    start = perf_counter()
    bundle, violations = _setup(text)
    setup_end = perf_counter()
    scenario = bundle.scenario
    if shifts:
        scenario = replace(scenario, record_shifts=True)
    trace = engine.run(scenario)
    run_end = perf_counter()
    metrics = engine.compute_metrics(trace, scenario.band, metrics_window(scenario))
    csv = svg = None
    if outputs:
        csv = output.trace_to_csv(trace, include_shifts=shifts)
        d = scenario.disturbance
        shade = (d.t_start, d.t_end) if d.t_end > d.t_start else None
        svg = output.trace_to_svg(trace, scenario.band, shade)
    end = perf_counter()
    setup_times.append(setup_end - start)
    repeat_setup(setup_repeats - setup_repeats // 2)

    return ScenarioResult(
        scenario=scenario,
        violations=violations,
        trace=trace,
        metrics=metrics,
        csv=csv,
        svg=svg,
        setup_samples=setup_times,
        run_s=run_end - setup_end,
        wall_s=end - start,
    )


def outside_band(v: np.ndarray, band) -> np.ndarray:
    return (v < band.v_low) | (v > band.v_high)


def _sha256(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(results: list[ScenarioResult]) -> str:
    """One hash over every output of a pass: CSV/SVG bytes and the metrics."""
    h = hashlib.sha256()
    for r in results:
        h.update(repr((r.metrics, _sha256(r.csv), _sha256(r.svg))).encode("utf-8"))
    return h.hexdigest()


# --- output checks: one verdict per scenario --------------------------------


def _check_herd(results: list[ScenarioResult]) -> list[bool]:
    verdicts = []
    for r in results:
        m = r.metrics
        verdicts.append(
            not r.violations
            and m.outside_band_fraction >= 0.3
            and m.band_crossings >= 10
            and not m.settled
            and _sha256(r.csv) == HERD_CSV_SHA256
            and bool(r.svg)
        )
    return verdicts


def _check_controller(results: list[ScenarioResult]) -> list[bool]:
    verdicts = []
    for r in results:
        s = r.scenario
        t_end = s.disturbance.t_end
        outside = outside_band(r.trace.v_load, s.band)
        reentered = not outside[t_end : t_end + 51].all()
        verdicts.append(
            not r.violations
            and reentered
            and r.metrics.settled
            and _sha256(r.csv) == CONTROLLER_CSV_SHA256
            and bool(r.svg)
        )
    return verdicts


def _check_sweep(results: list[ScenarioResult]) -> list[bool]:
    # B's draws may legitimately be re-recorded, so no digest or exact mean
    # is pinned: only the paper's claim, mitigation to at most half of A
    mean_b = float(np.mean([r.metrics.outside_band_fraction for r in results]))
    ok = len(results) == SWEEP_SEEDS and mean_b <= 0.5 * SCENARIO_A_FRACTION
    return [ok and not r.violations for r in results]


# --- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    texts: Callable[[int], list[str]]  # workload seed -> scenario texts of one pass
    shifts: bool  # --record-shifts: record shifts and write shift columns
    outputs: bool  # render the CSV and SVG
    setup_repeats: int
    check: Callable[[list[ScenarioResult]], list[bool]]


WORKLOAD_NAMES = ("herd-n1000", "controller-n1000", "sweep-b-n100")


def make_workload(name: str) -> Workload:
    if name == "herd-n1000":
        return Workload(
            name,
            lambda seed: [scenario_text("reactive", 1000, 100_000, seed, record_shifts=False)],
            shifts=False,
            outputs=True,
            setup_repeats=SHORT_SETUP_REPEATS,
            check=_check_herd,
        )
    if name == "controller-n1000":
        return Workload(
            name,
            lambda seed: [scenario_text("commanded", 1000, 4000, seed, controller=True)],
            shifts=True,
            outputs=True,
            setup_repeats=SHORT_SETUP_REPEATS,
            check=_check_controller,
        )
    if name == "sweep-b-n100":
        return Workload(
            name,
            lambda seed: [
                scenario_text("probabilistic", 100, 8000, k, p=1 / 100, peer_awareness=True)
                for k in range(seed, seed + SWEEP_SEEDS)
            ],
            shifts=False,
            outputs=False,
            setup_repeats=0,
            check=_check_sweep,
        )
    raise ValueError(f"unknown workload {name!r}")
