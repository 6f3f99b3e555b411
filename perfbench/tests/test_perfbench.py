"""Self-test of the benchmark: it measures what the CLI does, tracing changes
no output, and the per-layer counts repeat and match their closed forms.

    python3 -m pytest perfbench/tests -q

The traced-pass test runs every workload three times at full size and
takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from measure import END_TO_END, PER_LAYER, run_pass  # noqa: E402
from pipeline import WORKLOAD_NAMES, make_workload, run_scenario, scenario_text  # noqa: E402
from reflexgrid.scenariofile import load_scenario, parse_scenario_text  # noqa: E402
from tracing import Tracer  # noqa: E402

SHIPPED = {
    "scenario_a.cfg": scenario_text("reactive", 100, 8000, 1),
    "scenario_b.cfg": scenario_text("probabilistic", 100, 8000, 1, p=0.01, peer_awareness=True),
    "scenario_c.cfg": scenario_text("commanded", 100, 8000, 1, controller=True),
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_generated_text_is_the_shipped_scenario(name):
    shipped = load_scenario(ROOT / "scenarios" / name)
    assert parse_scenario_text(SHIPPED[name]) == shipped


@pytest.mark.parametrize(
    "name, shifts", [("scenario_a.cfg", False), ("scenario_c.cfg", True)]
)
def test_pipeline_writes_what_the_cli_writes(tmp_path, name, shifts):
    path = ROOT / "scenarios" / name
    cmd = [sys.executable, "-m", "reflexgrid.cli", "run", str(path)]
    cmd += ["--csv", str(tmp_path / "t.csv"), "--svg", str(tmp_path / "t.svg")]
    if shifts:
        cmd.append("--record-shifts")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)

    result = run_scenario(path.read_text(encoding="utf-8"), shifts, outputs=True)
    assert result.csv.encode("utf-8") == (tmp_path / "t.csv").read_bytes()
    assert result.svg.encode("utf-8") == (tmp_path / "t.svg").read_bytes()


CLOSED_FORMS = {
    "herd-n1000": {"engine.uniform_draws.calls": 0, "agents.controller_plan.calls": 0},
    "controller-n1000": {"engine.uniform_draws.calls": 0, "agents.controller_plan.calls": 4000},
    "sweep-b-n100": {
        "engine.uniform_draws.calls": 20 * 8000,
        "algebra.contains_word.calls": 20 * 10_100,  # N(N+1) words per seed
        "agents.controller_plan.calls": 0,
    },
}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_passes_match_untraced_and_repeat_counts(name):
    workload = make_workload(name)
    untraced = run_pass(workload, seed=3)
    first, second = (run_pass(workload, seed=3, tracer=Tracer()) for _ in range(2))

    assert untraced.failed == first.failed == second.failed == 0
    assert untraced.digest == first.digest == second.digest
    counts = [{k: v for k, v in p.layers.items() if k.endswith((".calls", "_bytes"))} for p in (first, second)]
    assert counts[0] == counts[1]
    for metric, expected in CLOSED_FORMS[name].items():
        assert first.layers[metric] == expected, metric


def test_tracing_an_absent_layer_fails(monkeypatch):
    from reflexgrid import engine, scenariofile

    parse = scenariofile.parse_scenario_text
    monkeypatch.delattr(engine, "uniform_draws")
    with pytest.raises(LookupError, match="engine.uniform_draws"):
        with Tracer().patched():
            pass
    assert scenariofile.parse_scenario_text is parse  # patched before the failure, restored


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "herd-n1000", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
