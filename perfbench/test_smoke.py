"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run  # first: it puts the program's src/ on sys.path
import bench
from repro.core.node import BaselineNode
from workloads import WORKLOADS

ROOT = os.path.dirname(run.HERE)

#: Each workload at a size that runs in seconds.
TINY = {
    "l1_replay": {"traffic_seconds": 20.0},
    "sync_replay": {"traffic_seconds": 60.0},
    "fleet_rpc": {"traffic_seconds": 20.0, "load": 1.0},
}


@pytest.fixture(scope="module")
def declared():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def test_declared_workloads_match_the_code(declared):
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()}
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, declared):
    workload = WORKLOADS[name]
    result, _ = bench.measure(workload, seed=1, seconds=0, params=TINY[name])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {key: value["unit"] for key, value in result["metrics"].items()}
    assert emitted == _units(declared["end_to_end"])
    assert all(value["value"] > 0 for value in result["metrics"].values())

    result, _ = bench.trace(workload, seed=1, seconds=0, params=TINY[name])
    assert result["correct"]
    emitted = {key: value["unit"] for key, value in result["metrics"].items()}
    assert emitted == _units(declared["per_layer"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_fails_when_roots_disagree(name, monkeypatch):
    original = BaselineNode.process_block

    def wrong_root(self, block):
        report = original(self, block)
        report.state_root ^= 1
        return report

    monkeypatch.setattr(BaselineNode, "process_block", wrong_root)
    result, lines = bench.measure(WORKLOADS[name], seed=1, seconds=0,
                                params=TINY[name])
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("ERROR" in line or "CHECK FAILED" in line for line in lines)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "l1_replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"})
    assert done.returncode != 0
    assert "correct" not in done.stdout
