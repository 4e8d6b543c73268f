"""Wall-clock probes around the program's layer entry points.

Nothing in the program is edited.  A probe replaces one class attribute
or one module-level name for the duration of a measured call and puts
the original back afterwards (:class:`Patches`).

Two probe sets exist:

* :class:`BoundaryTimes` — the untraced run.  Timers sit only at block,
  transaction and request boundaries, which is where the end-to-end
  metrics are defined, plus a clock reading at each speculation cycle.
* :class:`SpanRecorder` — the traced run.  One span per call into each
  layer (name, start, end, parent), kept in memory and written out at
  the end; per-layer self time is a span's duration minus its children.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

from repro.core import speculator as speculator_module
from repro.core.accelerator import TransactionAccelerator
from repro.core.node import BaselineNode, ForerunnerNode
from repro.core.predictor import MultiFuturePredictor
from repro.core.prefetcher import Prefetcher
from repro.core.speculator import Speculator
from repro.edge.server import EdgeServer
from repro.evm.jit.tier import JitTier
from repro.fleet.router import FleetRouter
from repro.fleet.supervisor import FleetSupervisor
from repro.fleet.wire import WirePlane
from repro.sched.admission import AdmissionController
from repro.sched.executor import ParallelBlockExecutor
from repro.state.statedb import StateDB
from repro.state.world import WorldState

clock = time.perf_counter

#: RPC methods that get their own ``edge.server.handle_raw.<method>``
#: layer; anything else is counted under ``.other``.
RPC_METHODS = ("eth_getTransactionReceipt", "eth_call",
               "debug_traceTransaction", "eth_sendRawTransaction")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list = []

    def wrap(self, owner, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# -- untraced run -----------------------------------------------------------


class BoundaryTimes:
    """Block, transaction and request wall times (seconds)."""

    def __init__(self) -> None:
        #: ``ForerunnerNode.process_block`` (every replica, on the fleet).
        self.block_s: List[float] = []
        #: ``BaselineNode.process_block``.
        self.baseline_block_s: List[float] = []
        #: ``TransactionAccelerator.execute`` while a Forerunner block
        #: is being processed: the per-transaction critical path.
        self.tx_s: List[float] = []
        #: ``FleetRouter.dispatch``.
        self.rpc_s: List[float] = []
        #: Clock readings at the call's start and end, at each
        #: speculation cycle's start and at each Forerunner block's end.
        #: Consecutive marks bound segments of identical work in every
        #: repeat of a call.
        self.marks: List[float] = []
        self._in_block = 0

    def segments(self) -> List[float]:
        return [end - start for start, end in zip(self.marks, self.marks[1:])]

    def install(self, patches: Patches) -> None:
        def forerunner_block(original):
            def wrapper(*args, **kwargs):
                self._in_block += 1
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = clock()
                    self.block_s.append(end - start)
                    self.marks.append(end)
                    self._in_block -= 1
            return wrapper

        def speculation_cycle(original):
            def wrapper(*args, **kwargs):
                self.marks.append(clock())
                return original(*args, **kwargs)
            return wrapper

        def critical_tx(original):
            def wrapper(*args, **kwargs):
                if not self._in_block:
                    return original(*args, **kwargs)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.tx_s.append(clock() - start)
            return wrapper

        def timed(sink):
            def make(original):
                def wrapper(*args, **kwargs):
                    start = clock()
                    try:
                        return original(*args, **kwargs)
                    finally:
                        sink.append(clock() - start)
                return wrapper
            return make

        patches.wrap(ForerunnerNode, "process_block", forerunner_block)
        patches.wrap(ForerunnerNode, "run_speculation", speculation_cycle)
        patches.wrap(BaselineNode, "process_block",
                     timed(self.baseline_block_s))
        patches.wrap(TransactionAccelerator, "execute", critical_tx)
        patches.wrap(FleetRouter, "dispatch", timed(self.rpc_s))


# -- traced run -------------------------------------------------------------


class SpanRecorder:
    """In-memory span tree over the probed layers.

    A span is ``[layer, name, start, end, parent]``; ``name`` reuses the
    program's own span name where the layer has one (``speculate``,
    ``pre_execute``, ``merge``, ``block``, ``execute``), so the same
    spans can later move inside the program unchanged.
    """

    def __init__(self, workload: str, run: str) -> None:
        self.workload = workload
        self.run = run
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._in_block = 0
        #: Counts taken at the probed boundaries (ratios' numerators).
        self.counts: Counter = Counter()
        #: (AP, speculation cycle) pairs seen by ``build_shortcuts``.
        self.shortcut_pairs: set = set()
        self._cycle = 0

    # -- span bookkeeping --------------------------------------------------

    def _open(self, layer: str, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, clock(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = clock()
        self._stack.pop()

    def _probe(self, layer: str, name: str, critical: bool = False,
               block: bool = False,
               before: Optional[Callable] = None,
               after: Optional[Callable] = None) -> Callable:
        """Wrapper factory: one span per call.  ``critical`` layers are
        recorded only while a Forerunner block is being processed
        (``block`` marks that call); elsewhere their time stays with
        the caller."""
        def make(original):
            def wrapper(*args, **kwargs):
                if critical and not self._in_block:
                    return original(*args, **kwargs)
                if before is not None:
                    before(args)
                index = self._open(layer, name)
                self._in_block += block
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._in_block -= block
                    self._close(index)
                if after is not None:
                    after(index, args, result)
                return result
            return wrapper
        return make

    def install(self, patches: Patches) -> None:
        probe = self._probe
        spec = speculator_module

        def next_cycle(args):
            self._cycle += 1

        def shortcut_pair(args):
            self.shortcut_pairs.add((id(args[0]), self._cycle))

        def fallback(index, args, receipt):
            if not receipt.used_ap:
                self.counts["accelerator.fallbacks"] += 1

        def route(index, args, result):
            self.counts["fleet.router.hops"] += result[2].hops

        def rpc_method(index, args, result):
            method = result[1].method
            suffix = method if method in RPC_METHODS else "other"
            self.spans[index][0] = f"edge.server.handle_raw.{suffix}"

        def wire_bytes(index, args, envelope):
            self.counts["fleet.wire.bytes"] += len(envelope.frame)

        # Speculation layers (off the critical path).
        patches.wrap(ForerunnerNode, "run_speculation",
                     probe("node.run_speculation", "run_speculation",
                           before=next_cycle))
        patches.wrap(MultiFuturePredictor, "predict",
                     probe("predictor.predict", "predict"))
        patches.wrap(AdmissionController, "admit",
                     probe("sched.admission.admit", "admit"))
        patches.wrap(Speculator, "speculate",
                     probe("speculator.speculate", "speculate"))
        patches.wrap(spec, "trace_transaction",
                     probe("trace.trace_transaction", "pre_execute"))
        patches.wrap(spec, "trace_fingerprint",
                     probe("trace.trace_fingerprint", "fingerprint"))
        patches.wrap(spec, "translate_trace",
                     probe("translate.translate_trace", "translate"))
        patches.wrap(spec, "optimize_path",
                     probe("optimize.optimize_path", "optimize"))
        patches.wrap(spec, "merge_path", probe("merge.merge_path", "merge"))
        patches.wrap(spec, "prune_tree",
                     probe("merge.prune_tree", "prune_tree"))
        patches.wrap(spec, "build_shortcuts",
                     probe("memoize.build_shortcuts", "build_shortcuts",
                           before=shortcut_pair))
        patches.wrap(JitTier, "compile", probe("jit.compile", "jit_compile"))
        patches.wrap(Prefetcher, "prefetch",
                     probe("prefetcher.prefetch", "prefetch"))
        # Critical-path layers.
        patches.wrap(ForerunnerNode, "process_block",
                     probe("node.process_block", "block", block=True))
        patches.wrap(ParallelBlockExecutor, "execute_block",
                     probe("sched.executor.execute_block", "execute_block"))
        patches.wrap(TransactionAccelerator, "execute",
                     probe("accelerator.execute", "execute", critical=True,
                           after=fallback))
        patches.wrap(JitTier, "execute",
                     probe("jit.execute", "jit_execute", critical=True))
        patches.wrap(TransactionAccelerator, "execute_plain",
                     probe("accelerator.execute_plain", "execute_plain",
                           critical=True))
        patches.wrap(StateDB, "commit",
                     probe("state.statedb.commit", "commit"))
        patches.wrap(WorldState, "root", probe("state.world.root", "root"))
        patches.wrap(BaselineNode, "process_block",
                     probe("baseline.process_block", "baseline_block"))
        # Fleet layers.
        patches.wrap(FleetRouter, "dispatch",
                     probe("fleet.router.dispatch", "dispatch", after=route))
        patches.wrap(EdgeServer, "handle_raw",
                     probe("edge.server.handle_raw", "handle_raw",
                           after=rpc_method))
        patches.wrap(WirePlane, "send",
                     probe("fleet.wire.send", "wire_send", after=wire_bytes))
        patches.wrap(WirePlane, "flush",
                     probe("fleet.wire.flush", "wire_flush"))
        patches.wrap(FleetSupervisor, "run_speculation",
                     probe("fleet.supervisor.run_speculation",
                           "fleet_run_speculation"))
        patches.wrap(FleetSupervisor, "process_block",
                     probe("fleet.supervisor.process_block",
                           "fleet_process_block"))

    # -- results -----------------------------------------------------------

    def self_times(self) -> Dict[str, List[float]]:
        """``layer -> [calls, self seconds]``; self = duration minus the
        durations of direct child spans."""
        child_time = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: Dict[str, List[float]] = {}
        for index, (layer, name, start, end, parent) in \
                enumerate(self.spans):
            row = table.setdefault(layer, [0, 0.0])
            row[0] += 1
            row[1] += (end - start) - child_time[index]
        return table

    def top_level_seconds(self) -> float:
        return sum(end - start for _, _, start, end, parent in self.spans
                   if parent < 0)

    def write(self, path: str) -> None:
        """One JSON line per span, tagged with the workload and run."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (layer, name, start, end, parent) in \
                    enumerate(self.spans):
                handle.write(json.dumps({
                    "workload": self.workload, "run": self.run,
                    "span": index, "parent": parent, "layer": layer,
                    "name": name, "start": start, "end": end}))
                handle.write("\n")
