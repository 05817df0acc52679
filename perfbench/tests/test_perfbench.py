"""Smoke, determinism and contract tests for the benchmark.

Every workload runs at its tiny size here; the reference checks are the
same ones a full-size run applies.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import harness
from perfbench.counters import EXACT_UNITS, PER_LAYER
from perfbench.run import END_TO_END_UNITS

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
WORKLOADS = harness.WORKLOADS
SMOKE_UNITS = {"city-parking": 150, "fleet-sharded": 12, "home-events": 500}


def _untraced(name, seed):
    return harness.run_untraced(
        name,
        seed,
        None,
        size="tiny",
        units=SMOKE_UNITS[name],
        setups=1,
        setup_budget_s=0.0,
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_passes_reference_checks(name):
    result = _untraced(name, 1)
    assert result["failures"] == []
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    assert all(value > 0 for value in result["metrics"].values())


def test_city_smoke_covers_a_daily_report():
    result = _untraced("city-parking", 1)
    panels, reports = result["outputs"]
    assert len(reports) == 1
    assert any("FULL" in history for history in panels.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_second_seed_passes_reference_checks(name):
    result = _untraced(name, 2)
    assert result["failures"] == []
    assert result["failed"] == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_repeats_outputs_and_exact_counters(name):
    first = harness.run_traced(name, 7, size="tiny")
    second = harness.run_traced(name, 7, size="tiny")
    assert first["failures"] == second["failures"] == []
    assert first["outputs"] == second["outputs"]
    exact = [n for n, (unit, __) in PER_LAYER.items() if unit in EXACT_UNITS]
    assert {n: first["metrics"][n] for n in exact} == {
        n: second["metrics"][n] for n in exact
    }


def test_other_seed_gives_other_outputs():
    assert (
        _untraced("home-events", 1)["outputs"]
        != _untraced("home-events", 2)["outputs"]
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_reference_check_catches_a_wrong_output(name):
    workload = harness.workload_class(name)(3, "tiny")
    try:
        for __ in range(SMOKE_UNITS[name] // 2):
            workload.step()
        assert workload.check()[1] == 0
        if name == "city-parking":
            history = workload.panels[workload.model.lots[0]].history
            history[-1] = history[-1] + "!"
        elif name == "fleet-sharded":
            counts = list(workload.context.counts[-1])
            counts[0] += 1
            workload.context.counts[-1] = tuple(counts)
        else:
            workload.lamps[0].power = not workload.lamps[0].power
        attempted, failed, failures = workload.check()
    finally:
        workload.close()
    assert failed >= 1
    assert failures and failures[0].startswith(name)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_layer_and_accounts_for_its_time(
    name, tmp_path
):
    path = tmp_path / "trace.json"
    result = harness.run_traced(name, 1, size="tiny", trace_path=str(path))
    assert set(result["metrics"]) == set(PER_LAYER)
    assert 0.8 < result["metrics"]["trace.coverage"] <= 1.0
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert any(e["name"] == "bench.unit" for e in spans)
    assert all(e["args"]["unit"] < harness.TRACED_UNITS["tiny"][name]
               for e in spans)


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        END_TO_END_UNITS
    )
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == PER_LAYER


def test_cli_prints_one_json_result_line():
    out = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "home-events",
            "--seed", "1", "--seconds", "0.5", "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(END_TO_END_UNITS)


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    out = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "city-parking",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
