"""Retirement of executed speculation state.

Golden equivalence: a small L1-shaped replay and a 4-shard clean-wire
fleet run must reproduce, byte for byte, the digest the eager
(retire-inside-the-block) implementation produced.  The digest covers
state roots, every joined record with the Table 2/3 rows built from
them, the §5.5 synthesis report and the archive entries behind it, the
ordered ``memo_sink`` event log, the deterministic registry snapshots
and the span traces.

Bound: the retirement queue never holds more than one block's APs plus
one prefix-cache generation.  Every block starts with an empty queue —
a speculation cycle drained it, including on a replay that speculates
nothing and on fleet replicas that received no job — and ends with at
most the APs it dropped plus the generation it invalidated.  Blocks run
back to back (a reorg's branch replay) retire the previous block's
state on entry instead.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core import stats as S
from repro.core.chainsync import ChainManager
from repro.core.node import ForerunnerNode
from repro.core.speculator import Speculator
from repro.fleet import fleet_replay, net_profile_config
from repro.obs.export import canonical_json, trace_lines
from repro.p2p.latency import LatencyModel
from repro.sim.emulator import replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig

from tests.conftest import ALICE, BOB
from tests.test_storage_chainsync import (
    fresh_world,
    genesis_block,
    make_block,
    submit_tx,
)

#: Digests of the eager implementation, computed before retirement was
#: deferred; any drift in what the node commits, reports, archives,
#: journals or traces changes them.
GOLDEN_REPLAY = (
    "5c88a8a54cf9502913bf10f9134c78557b4046fd249123aae128e4b59bc514c0")
GOLDEN_FLEET = (
    "7b653e0aaccb88a4fbf87b5b758a0edde3974c6f2213ec0f57fc2bdfcf1bf94d")


def _dataset(duration: float, seed: int, observer: str):
    return record_dataset(DatasetConfig(
        name=f"retire-{seed}",
        traffic=TrafficConfig(duration=duration, seed=seed),
        observers={observer: LatencyModel(median=1.3, sigma=0.5)},
        seed=seed))


class Watch:
    """Observations of one run, taken without changing its behaviour.

    ``memo`` is every speculator's ``memo_sink`` stream as one ordered
    log of ``(speculator ordinal, event, tx)``.  ``blocks`` has one row
    per :meth:`ForerunnerNode.process_block` call: ``(speculator
    ordinal, block number, queue length on entry, APs the block will
    drop, queue length on exit, jobs the speculator ran since its
    previous block)``.
    """

    def __init__(self) -> None:
        self.memo: list = []
        self.blocks: list = []
        self._ordinals: dict = {}
        self._jobs: dict = {}

    def _ordinal(self, speculator) -> int:
        return self._ordinals.setdefault(id(speculator),
                                         len(self._ordinals))

    def run(self, run_fn):
        init = Speculator.__init__
        speculate = Speculator.speculate
        process_block = ForerunnerNode.process_block
        watch = self

        def watched_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            owner = watch._ordinal(self)
            self.memo_sink = lambda event, tx: watch.memo.append(
                (owner, event, f"{tx:#x}"))

        def watched_speculate(self, *args, **kwargs):
            watch._jobs[id(self)] = watch._jobs.get(id(self), 0) + 1
            return speculate(self, *args, **kwargs)

        def watched_block(self, block, now=0.0):
            speculator = self.speculator
            entry = len(speculator._retiring)
            dropping = sum(1 for tx in block.transactions
                           if tx.hash in speculator.aps)
            report = process_block(self, block, now)
            watch.blocks.append((
                watch._ordinal(speculator), block.number, entry,
                dropping, len(speculator._retiring),
                watch._jobs.pop(id(speculator), 0)))
            return report

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Speculator, "__init__", watched_init)
            patch.setattr(Speculator, "speculate", watched_speculate)
            patch.setattr(ForerunnerNode, "process_block", watched_block)
            return run_fn()


def _archive_rows(archive) -> list:
    return [(entry.path_count(), len(entry.context_ids),
             entry.shortcut_count, len(entry.paths))
            for entry in archive]


def _digest(roots, records, archive, memo_log, registries,
            tracers) -> str:
    payload = {
        "roots": [f"{root:#x}" for root in roots],
        "records": [canonical_json(dataclasses.asdict(record))
                    for record in records],
        "table2": [dataclasses.asdict(row) for row in S.table2(records)],
        "table3": [dataclasses.asdict(row) for row in S.table3(records)],
        "summary": dataclasses.asdict(S.summarize(records)),
        "synthesis": dataclasses.asdict(
            S.synthesis_report(archive, records)),
        "archive": _archive_rows(archive),
        "memo": memo_log,
        "registries": [registry.snapshot() for registry in registries],
        "traces": [trace_lines(tracer) for tracer in tracers],
    }
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def replayed():
    dataset = _dataset(45.0, 21, "live")
    watch = Watch()
    run = watch.run(lambda: replay(dataset, "live"))
    node = run.forerunner_node
    digest = _digest([report.state_root for report in node.reports],
                     run.records, node.speculator.archive, watch.memo,
                     [run.registry], [run.tracer])
    return digest, watch


@pytest.fixture(scope="module")
def fleet_run():
    dataset = _dataset(40.0, 13, "live")
    watch = Watch()
    run = watch.run(lambda: fleet_replay(
        dataset, config=net_profile_config("clean", 4)))
    supervisor = run.supervisor
    nodes = [supervisor.replicas[rid].node
             for rid in sorted(supervisor.replicas)]
    archive = [entry for node in nodes
               for entry in node.speculator.archive]
    digest = _digest(run.state_roots(), run.records, archive, watch.memo,
                     [run.registry] + [node.registry for node in nodes],
                     [node.tracer for node in nodes])
    return digest, watch


def test_replay_matches_eager_golden(replayed):
    assert replayed[0] == GOLDEN_REPLAY


def test_fleet_matches_eager_golden(fleet_run):
    assert fleet_run[0] == GOLDEN_FLEET


def _assert_bounded(watch: Watch) -> None:
    assert watch.blocks
    for owner, number, entry, dropping, exit_, _ in watch.blocks:
        assert entry == 0, (owner, number)
        assert exit_ <= dropping + 1, (owner, number)


def test_queue_bounded_on_replay(replayed):
    watch = replayed[1]
    _assert_bounded(watch)
    assert any(dropping for _, _, _, dropping, _, _ in watch.blocks)


def test_queue_bounded_without_speculation():
    dataset = _dataset(30.0, 21, "sync")
    dataset = dataclasses.replace(dataset, tx_arrivals={"sync": []})
    watch = Watch()
    run = watch.run(lambda: replay(dataset, "sync"))
    assert run.speculation_jobs == 0
    _assert_bounded(watch)


def test_queue_bounded_on_replica_without_jobs(fleet_run):
    watch = fleet_run[1]
    _assert_bounded(watch)
    # Covered: a replica left a block with a non-empty queue and got no
    # job before its next block, which still started empty.
    last_exit: dict = {}
    idle_after_retiring = 0
    for owner, _, _, _, exit_, jobs in watch.blocks:
        if last_exit.get(owner) and not jobs:
            idle_after_retiring += 1
        last_exit[owner] = exit_
    assert idle_after_retiring


def test_queue_bounded_across_back_to_back_blocks():
    """A reorg replays the winning branch block after block with no
    speculation cycle between them; each block still retires what the
    previous one left before adding its own."""
    node = ForerunnerNode(fresh_world())
    manager = ChainManager(node, genesis_block())
    genesis = manager.chain.genesis
    bob, alice = submit_tx(BOB, 0, 1500), submit_tx(ALICE, 0, 1700)
    node.on_transaction(bob, now=0.0)
    node.on_transaction(alice, now=0.0)
    node.run_speculation(0.5)
    assert bob.hash in node.speculator.aps
    assert alice.hash in node.speculator.aps
    manager.receive_block(
        make_block(genesis, [submit_tx(ALICE, 0, 2000)]), now=1.0)
    b1 = make_block(genesis, [bob], ts_offset=14)
    b2 = make_block(b1, [alice])
    assert manager.receive_block(b1, now=2.0) is None
    watch = Watch()
    watch.run(lambda: manager.receive_block(b2, now=2.5))
    assert manager.reorgs == 1
    assert [(number, dropping) for _, number, _, dropping, _, _
            in watch.blocks] == [(1, 1), (2, 1)]
    for _, _, _, dropping, exit_, _ in watch.blocks:
        assert exit_ <= dropping + 1
