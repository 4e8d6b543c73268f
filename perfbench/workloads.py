"""The benchmark's workloads: inputs from a seed, one measured call into
the program's public entry point, and the check of its outputs.

The program receives only the generated :class:`Dataset` (and, for the
fleet, the request schedule); the seed never reaches it any other way.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

from repro.core import stats
from repro.core.node import BaselineNode
from repro.edge.clients import ScenarioConfig, build_scenario
from repro.fleet.serve import net_profile_config, run_fleet_serving
from repro.obs.export import canonical_json
from repro.obs.registry import MetricsRegistry
from repro.p2p.latency import LatencyModel
from repro.sim.emulator import replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig

clock = time.perf_counter

#: The ``live`` observer of ``benchmarks/conftest.py`` (L1's connection).
LIVE_OBSERVER = LatencyModel(median=1.3, sigma=0.5)
#: Traffic and recording seed of the paper's L1 period in
#: ``benchmarks/conftest.py``.
L1_CHAIN_SEED = 101
#: Observer name of the sync replay: it heard no pending transaction.
SYNC_OBSERVER = "sync"
#: Replicas of the fleet workload, all simulated in this process.
FLEET_SHARDS = 4


@dataclass
class Inputs:
    dataset: object
    observer: str
    scenario: Optional[list] = None


@dataclass
class Outcome:
    """What one measured call produced, after its outputs were checked."""

    wall_s: float
    #: Committed transactions (per replica count, not per copy).
    txs: int = 0
    blocks: int = 0
    blocks_failed: int = 0
    requests: int = 0
    requests_failed: int = 0
    #: Joined per-tx rows with ``heard``/``outcome``/``baseline_cost``/
    #: ``forerunner_cost`` (what :mod:`repro.core.stats` reads).
    records: list = field(default_factory=list)
    #: Baseline block wall times measured by the check (fleet only; the
    #: replays time their baseline node inside the measured call).
    check_baseline_block_s: List[float] = field(default_factory=list)
    #: Every metrics registry the call created.
    registries: list = field(default_factory=list)
    #: Deterministic outputs that must repeat exactly for one seed.
    digest: str = ""
    goodput: float = 1.0
    error: str = ""

    @property
    def failed(self) -> int:
        return self.blocks_failed + self.requests_failed

    @property
    def attempted(self) -> int:
        return self.blocks + self.requests


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Generator parameters; tests pass smaller ones.
    params: Dict[str, float]
    setup: Callable[[int, Dict[str, float]], Inputs]
    #: The measured call into the program; returns its raw result.
    call: Callable[[Inputs], object]
    #: Checks the raw result (outside the measured call).
    check: Callable[[Inputs, object, float], Outcome]


def _digest(*parts) -> str:
    return hashlib.sha256(canonical_json(list(parts)).encode()).hexdigest()


def speedup_summary(records) -> dict:
    summary = stats.summarize(records)
    return {"cost_speedup": summary.end_to_end_speedup,
            "effective_speedup": summary.effective_speedup,
            "satisfied_pct": 100.0 * summary.satisfied_fraction}


def _record(traffic_seconds: float, traffic_seed: int, observer: str):
    """A recorded period on the L1 block cadence: the recording seed
    (miners, block schedule, gossip) is L1's; ``traffic_seed`` picks the
    transactions."""
    return record_dataset(DatasetConfig(
        name=f"bench-{traffic_seed}",
        traffic=TrafficConfig(duration=traffic_seconds, seed=traffic_seed),
        observers={observer: LIVE_OBSERVER}, seed=L1_CHAIN_SEED))


def _l1_connection(seed: int) -> str:
    """The L1 chain heard through connection ``seed``: gossip draws are
    per (tx, participant), so the observer's name picks its arrival
    times without moving any block."""
    return f"live-{seed}"


# -- replays ---------------------------------------------------------------


def setup_l1(seed: int, params: Dict[str, float]) -> Inputs:
    observer = _l1_connection(seed)
    dataset = _record(params["traffic_seconds"], L1_CHAIN_SEED, observer)
    return Inputs(dataset, observer)


def setup_sync(seed: int, params: Dict[str, float]) -> Inputs:
    dataset = _record(params["traffic_seconds"], seed, SYNC_OBSERVER)
    dataset = dataclasses.replace(dataset,
                                  tx_arrivals={SYNC_OBSERVER: []})
    return Inputs(dataset, SYNC_OBSERVER)


def call_replay(inputs: Inputs):
    return replay(inputs.dataset, inputs.observer)


def check_replay(inputs: Inputs, run, wall: float) -> Outcome:
    """Every Forerunner root must equal the baseline node's (the
    emulator raises otherwise) and the recorded chain's."""
    blocks = [block for _, block in inputs.dataset.blocks]
    roots = [(report.block_number, report.state_root)
             for report in run.forerunner_node.reports]
    truth = [(block.number, block.state_root) for block in blocks]
    failed = sum(1 for got, want in zip(roots, truth) if got != want)
    failed += abs(len(truth) - len(roots))
    failed = max(failed, run.blocks_executed - run.roots_matched)
    summary = speedup_summary(run.records)
    return Outcome(
        wall_s=wall, txs=sum(len(block.transactions) for block in blocks),
        blocks=len(blocks), blocks_failed=failed, records=run.records,
        registries=[run.registry],
        digest=_digest(roots, summary["cost_speedup"],
                       summary["satisfied_pct"], run.speculation_jobs,
                       len(run.records), run.metrics()))


# -- fleet serving -----------------------------------------------------------


def setup_fleet(seed: int, params: Dict[str, float]) -> Inputs:
    observer = _l1_connection(seed)
    dataset = _record(params["traffic_seconds"], L1_CHAIN_SEED, observer)
    scenario = build_scenario(
        dataset, ScenarioConfig(seed=seed, load=params["load"]),
        observer=observer)
    return Inputs(dataset, observer, scenario)


def call_fleet(inputs: Inputs):
    return run_fleet_serving(
        inputs.dataset, inputs.scenario,
        fleet_config=net_profile_config("clean", FLEET_SHARDS),
        observer=inputs.observer)


def check_fleet(inputs: Inputs, result, wall: float) -> Outcome:
    """The fleet's merged roots must equal a :class:`BaselineNode`
    re-execution of the same blocks."""
    dataset = inputs.dataset
    supervisor = result.supervisor
    reports = supervisor.reports
    baseline = BaselineNode(dataset.genesis_world.copy(),
                            registry=MetricsRegistry())
    baseline_s: List[float] = []
    records = []
    failed = abs(len(reports) - len(dataset.blocks))
    for (_, block), report in zip(dataset.blocks, reports):
        began = clock()
        expected = baseline.process_block(block)
        baseline_s.append(clock() - began)
        if (report.block_number, report.state_root) != \
                (block.number, expected.state_root):
            failed += 1
        base_cost = {record.tx_hash: record.cost
                     for record in expected.records}
        records.extend(
            SimpleNamespace(heard=record.heard, outcome=record.outcome,
                            forerunner_cost=record.cost,
                            baseline_cost=base_cost[record.tx_hash])
            for record in report.records if record.tx_hash in base_cost)
    summary = speedup_summary(records)
    return Outcome(
        wall_s=wall, txs=sum(len(report.records) for report in reports),
        blocks=len(dataset.blocks), blocks_failed=failed,
        requests=result.offered, requests_failed=result.offered - result.good,
        records=records, check_baseline_block_s=baseline_s,
        registries=[supervisor.registry] + [
            replica.registry for replica in supervisor.replicas.values()],
        goodput=result.goodput,
        digest=_digest(result.commitments(), summary["cost_speedup"],
                       summary["satisfied_pct"], result.goodput,
                       result.trace_lines))


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            name="l1_replay",
            why=("L1 traffic heard by a live connection (95-99% of txs): "
                 "speculation takes almost all wall time and the critical "
                 "path runs APs."),
            params={"traffic_seconds": 60.0},
            setup=setup_l1, call=call_replay, check=check_replay),
        Workload(
            name="sync_replay",
            why=("A node that heard no pending tx, as in a catch-up sync: "
                 "speculation is bypassed and wall time is the block path "
                 "of both nodes."),
            params={"traffic_seconds": 600.0},
            setup=setup_sync, call=call_replay, check=check_replay),
        Workload(
            name="fleet_rpc",
            why=("4 in-process replicas on a clean wire plane serving the "
                 "default RPC mix at load 1.5: the only workload through "
                 "edge, router, wire and supervisor."),
            params={"traffic_seconds": 60.0, "load": 1.5},
            setup=setup_fleet, call=call_fleet, check=check_fleet),
    )
}
