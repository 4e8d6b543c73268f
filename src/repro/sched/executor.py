"""Optimistic-concurrency block executor (deterministic parallelism).

Runs a block's transactions in parallel *virtual* lanes against forked
StateDBs, detects read/write-set conflicts at commit, and re-executes
losers serially — the Saraph–Herlihy scheme — while keeping committed
roots, receipts and the Table 2/3 cost columns **byte-identical to
serial execution at every lane count**.  Parallelism surfaces only in
the scheduler's own metrics (critical-path cost units, lane
utilization, abort rates).

How byte-identity is achieved
-----------------------------

*Values.*  A transaction commits from its fork only when none of its
accessed keys intersect the *actual* write set of any earlier
transaction (clean forks contribute their optimistic writes; serially
re-executed ones contribute the write keys harvested from the master
journal).  By induction its fork observed exactly the values serial
execution would have.  Commutative coinbase fee credits are excluded
from conflict sets and applied as deltas in block order; a transaction
touching the coinbase balance explicitly is "entangled" and always
re-executes serially.

*Costs.*  A fork's I/O classification is warped (it sees the block's
pre-state as cold where serial execution would have been warmed by
earlier transactions), so each fork records its ordered probe log and
the committer *replays* it against the master state's warmth and the
real node cache — performing exactly the node-cache lookups and
insertions serial execution would have performed, in the same order.
The replayed I/O total replaces the fork's, making the committed tally
(and all downstream Table 2/3 numbers) serial-equivalent.

*Faults.*  Three ``sched.*`` sites cover the new machinery: a
``sched.fork`` fault aborts that transaction to the serial path, a
``sched.conflict_scan`` fault aborts the whole block to serial, and a
``sched.commit`` fault reverts the partial apply and re-executes the
transaction serially.  All three therefore degrade to the serial
anchor — commitments and costs stay canonical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.injector import NULL_INJECTOR
from repro.obs.registry import MetricsRegistry, get_registry
from repro.sched.conflicts import (
    AccessSet,
    ConflictGraph,
    build_conflict_graph,
    greedy_schedule,
)
from repro.sched.lanes import LaneSet
from repro.state.diskio import DiskModel, NODE_COST, WARM_COST
from repro.state.statedb import StateDB
from repro.state.trie import trie_depth


class SharedCacheView:
    """Non-mutating view of a :class:`NodeCache` shared by all forks
    of one block.

    Optimistic forks classify warmth against the block-start cache
    without disturbing its LRU recency or hit/miss counters — those
    mutations happen once, at commit time, in serial order.  A fork's
    cold loads land in a block-local overlay instead, modelling the
    shared database/page cache under real concurrent execution: the
    first fork to walk a trie path pays the cold cost, sibling forks
    in the same block then classify that key warm.  The overlay is
    lane-count invariant because the optimistic phase visits
    transactions in block order regardless of lane assignment.
    """

    __slots__ = ("_entries", "_shared")

    def __init__(self, cache) -> None:
        self._entries = cache._entries if cache is not None else {}
        self._shared: set = set()

    def contains(self, key) -> bool:
        return key in self._entries or key in self._shared

    def add(self, key) -> None:
        self._shared.add(key)


class TrackingState(StateDB):
    """A fork of the committed world that records everything the
    committer needs: fine-grained read/write keys (conflicts), the
    ordered cost-probe log (serial-equivalent I/O replay), created
    accounts, and commutative coinbase credits."""

    def __init__(self, world, node_cache_view, coinbase: int) -> None:
        super().__init__(world, node_cache=node_cache_view)
        self.coinbase = coinbase
        #: Ordered cost probes: ("acct", addr) / ("slot", (addr, slot))
        #: — one per disk charge a serial execution would make — plus
        #: chargeless ("mark", addr) entries for created accounts.
        self.probes: List[tuple] = []
        self.read_keys: Dict[tuple, None] = {}
        self.write_keys: Dict[tuple, None] = {}
        self.created_accounts: List[int] = []
        self.coinbase_delta = 0
        self._suppress = False

    # -- recording helpers ----------------------------------------------

    def _note_read(self, key: tuple) -> None:
        if not self._suppress:
            self.read_keys.setdefault(key, None)

    def _note_write(self, key: tuple) -> None:
        if not self._suppress:
            self.write_keys.setdefault(key, None)

    @property
    def entangled(self) -> bool:
        key = ("bal", self.coinbase)
        return (key in self.read_keys or key in self.write_keys
                or self.coinbase in self.created_accounts)

    def access_set(self) -> AccessSet:
        return AccessSet(
            reads=frozenset(self.read_keys),
            writes=frozenset(self.write_keys),
            created=tuple(self.created_accounts),
            coinbase_delta=self.coinbase_delta,
            entangled=self.entangled)

    # -- probe recording (cost accounting) -------------------------------

    def _load_account(self, address: int):
        self.probes.append(("acct", address))
        return super()._load_account(address)

    def get_storage(self, address: int, slot: int) -> int:
        value = super().get_storage(address, slot)
        self.probes.append(("slot", (address, slot)))
        self._note_read(("slot", address, slot))
        return value

    # -- semantic read/write recording -----------------------------------

    def get_balance(self, address: int) -> int:
        self._note_read(("bal", address))
        return super().get_balance(address)

    def set_balance(self, address: int, value: int) -> None:
        self._note_write(("bal", address))
        super().set_balance(address, value)

    def add_balance(self, address: int, amount: int) -> None:
        if address == self.coinbase and not self._suppress:
            # Commutative miner-fee credit: pay the same cost probes a
            # serial execution would (get + set), but keep the keys out
            # of the conflict sets — increments commute.
            self._suppress = True
            try:
                super().add_balance(address, amount)
            finally:
                self._suppress = False
            self.coinbase_delta += amount
            return
        super().add_balance(address, amount)

    def get_nonce(self, address: int) -> int:
        self._note_read(("nonce", address))
        return super().get_nonce(address)

    def increment_nonce(self, address: int) -> None:
        # Read-modify-write: the new nonce depends on the old one.
        self._note_read(("nonce", address))
        self._note_write(("nonce", address))
        super().increment_nonce(address)

    def get_code(self, address: int) -> bytes:
        self._note_read(("code", address))
        return super().get_code(address)

    def set_code(self, address: int, code: bytes) -> None:
        self._note_write(("code", address))
        super().set_code(address, code)

    def set_storage(self, address: int, slot: int, value: int) -> None:
        self._note_write(("slot", address, slot))
        super().set_storage(address, slot, value)
        # SSTORE never charges slot I/O but does mark the slot loaded;
        # record a chargeless mark so a later SLOAD of the same slot
        # replays warm, exactly as serial execution would classify it.
        self.probes.append(("slotmark", (address, slot)))

    def account_exists(self, address: int) -> bool:
        self._note_read(("exist", address))
        return super().account_exists(address)

    def create_account(self, address: int, balance: int = 0,
                       code: bytes = b"") -> None:
        for kind in ("exist", "bal", "nonce", "code"):
            self._note_write((kind, address))
        self.created_accounts.append(address)
        self.probes.append(("mark", address))
        super().create_account(address, balance=balance, code=code)


@dataclass
class TxOutcome:
    """One transaction's committed result plus scheduling telemetry."""

    tx: object
    receipt: object
    index: int
    lane_id: int = 0
    start: int = 0
    finish: int = 0
    aborted: bool = False
    abort_reason: str = ""
    optimistic_cost: int = 0
    canonical_cost: int = 0
    #: Master-journal positions (start, end) spanning this tx's commit
    #: — valid at every lane count, since clean forks also apply
    #: through the master journal in block order.  Consumed by
    #: :meth:`StateDB.witness_deltas` before the block commits.
    journal_span: Tuple[int, int] = (0, 0)
    #: Master log-list span (start, end) for this transaction.
    logs_span: Tuple[int, int] = (0, 0)


@dataclass
class BlockSchedule:
    """Per-block scheduling outcome (deterministic, report-ready)."""

    block_number: int
    lanes: int
    txs: int
    clean: int = 0
    aborted_conflict: int = 0
    aborted_entangled: int = 0
    aborted_fault: int = 0
    conflict_pairs: int = 0
    possible_pairs: int = 0
    greedy_depth: int = 0
    serial_cost: int = 0
    optimistic_makespan: int = 0
    commit_cost: int = 0
    reexec_cost: int = 0
    lane_utilization_permille: List[int] = field(default_factory=list)

    @property
    def aborted(self) -> int:
        return (self.aborted_conflict + self.aborted_entangled
                + self.aborted_fault)

    @property
    def critical_path(self) -> int:
        return self.optimistic_makespan + self.commit_cost \
            + self.reexec_cost

    @property
    def speedup(self) -> float:
        if self.critical_path <= 0:
            return 1.0
        return self.serial_cost / self.critical_path

    @property
    def conflict_rate(self) -> float:
        if not self.possible_pairs:
            return 0.0
        return self.conflict_pairs / self.possible_pairs

    def as_dict(self) -> Dict[str, object]:
        return {
            "block": self.block_number,
            "lanes": self.lanes,
            "txs": self.txs,
            "clean": self.clean,
            "aborted": {
                "conflict": self.aborted_conflict,
                "entangled": self.aborted_entangled,
                "faulted": self.aborted_fault,
            },
            "conflict_pairs": self.conflict_pairs,
            "conflict_rate": round(self.conflict_rate, 6),
            "greedy_depth": self.greedy_depth,
            "serial_cost": self.serial_cost,
            "optimistic_makespan": self.optimistic_makespan,
            "commit_cost": self.commit_cost,
            "reexec_cost": self.reexec_cost,
            "critical_path": self.critical_path,
            "speedup": round(self.speedup, 4),
            "lane_utilization_permille": list(
                self.lane_utilization_permille),
        }


#: ``execute_fn(tx, state) -> AcceleratedReceipt`` — the node's
#: execution strategy (AP fast path with containment, or plain EVM).
ExecuteFn = Callable[[object, StateDB], object]


class ParallelBlockExecutor:
    """Executes one block across N deterministic lanes.

    ``lanes == 1`` short-circuits to the legacy serial loop (same call
    sequence, same draws, same costs); ``lanes >= 2`` runs the
    optimistic/conflict/commit pipeline documented in the module
    docstring.  Either way the committed master state, receipts and
    tallies are byte-identical.
    """

    def __init__(self, lanes: int = 1,
                 registry: Optional[MetricsRegistry] = None,
                 injector=None, guard=None) -> None:
        self.lanes = max(1, lanes)
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.guard = guard
        obs = (registry or get_registry()).scope("sched")
        self.c_blocks = obs.counter("blocks")
        self.c_blocks_parallel = obs.counter("blocks_parallel")
        self.c_txs = obs.counter("transactions")
        self.c_clean = obs.counter("clean_commits")
        self.c_abort_conflict = obs.counter("aborted.conflict")
        self.c_abort_entangled = obs.counter("aborted.entangled")
        self.c_abort_fault = obs.counter("aborted.faulted")
        self.c_conflict_pairs = obs.counter("conflict_pairs")
        self.c_possible_pairs = obs.counter("possible_pairs")
        self.c_serial_cost = obs.counter("serial_cost_units")
        self.c_critical_path = obs.counter("critical_path_units")
        self.c_reexec_cost = obs.counter("reexec_cost_units")
        self.c_commit_cost = obs.counter("commit_cost_units")
        self.g_utilization = obs.gauge("lane_utilization_permille")
        self.schedules: List[BlockSchedule] = []

    # -- entry point -----------------------------------------------------

    def execute_block(self, block, master: StateDB, plans,
                      execute_fn: ExecuteFn) -> List[TxOutcome]:
        """Execute ``block`` onto ``master`` (uncommitted).

        ``plans`` is the ordered list of transactions (whatever objects
        ``execute_fn`` accepts alongside a StateDB).  Returns per-tx
        outcomes in block order; the caller commits ``master``.
        """
        self.execute_fn = execute_fn
        if self.lanes <= 1 or len(plans) < 2:
            return self._execute_serial(block, master, plans)
        return self._execute_parallel(block, master, plans)

    # -- serial anchor ---------------------------------------------------

    def _execute_serial(self, block, master: StateDB, plans
                        ) -> List[TxOutcome]:
        outcomes: List[TxOutcome] = []
        serial_cost = 0
        for index, tx in enumerate(plans):
            span_start = master.snapshot()
            logs_start = len(master.logs)
            receipt = self._serial_execute(tx, master)
            cost = receipt.tally.total
            serial_cost += cost
            outcomes.append(TxOutcome(
                tx=tx, receipt=receipt, index=index,
                lane_id=0, start=serial_cost - cost, finish=serial_cost,
                optimistic_cost=cost, canonical_cost=cost,
                journal_span=(span_start, master.snapshot()),
                logs_span=(logs_start, len(master.logs))))
        schedule = BlockSchedule(
            block_number=block.number, lanes=1, txs=len(plans),
            clean=len(plans), serial_cost=serial_cost,
            optimistic_makespan=serial_cost,
            lane_utilization_permille=[1000] if plans else [0])
        self._finish_block(schedule, parallel=False)
        return outcomes

    # -- optimistic / conflict / commit pipeline -------------------------

    def _execute_parallel(self, block, master: StateDB, plans
                          ) -> List[TxOutcome]:
        coinbase = block.header.coinbase
        node_cache = master.node_cache
        cache_view = SharedCacheView(node_cache)
        lane_set = LaneSet(self.lanes)

        # Phase 1 — optimistic: every tx runs on its own fork of the
        # block's pre-state (block order; lane assignment is metrics
        # only, so any lane count sees identical forks).
        forks: List[Optional[TrackingState]] = []
        fork_receipts: List[object] = []
        forced: List[str] = []
        for tx in plans:
            fork = TrackingState(master.world, cache_view, coinbase)

            def attempt(tx=tx, fork=fork):
                self.injector.maybe_raise("sched.fork", tx=tx.hash)
                return self._optimistic_execute(tx, fork)

            if self.guard is not None:
                receipt, faulted = self.guard.run(
                    "sched.fork", attempt, count_fallback=False)
            else:
                try:
                    receipt, faulted = attempt(), False
                except Exception:  # noqa: BLE001 - fork containment
                    receipt, faulted = None, True
            forks.append(fork)
            fork_receipts.append(receipt)
            forced.append("faulted" if faulted or receipt is None else "")
            cost = receipt.tally.total if receipt is not None else 0
            lane_set.dispatch(cost, payload=tx.hash)

        # Conflict graph over the optimistic access sets (metrics +
        # the greedy what-if schedule; the authoritative abort decision
        # interleaves with commit below, where actual writes live).
        accesses = [fork.access_set() for fork in forks]

        def scan():
            self.injector.maybe_raise("sched.conflict_scan",
                                      block=block.number)
            return build_conflict_graph(accesses)

        if self.guard is not None:
            graph, scan_faulted = self.guard.run(
                "sched.conflict_scan", scan, count_fallback=False)
        else:
            graph, scan_faulted = scan(), False
        if scan_faulted or graph is None:
            # Contained: without a trustworthy scan every tx yields to
            # the serial anchor.
            graph = ConflictGraph(size=len(plans), edges=())
            forced = ["faulted"] * len(plans)

        # Phase 2 — commit in block order against the master state.
        outcomes: List[TxOutcome] = []
        committed_writes: set = set()
        schedule = BlockSchedule(
            block_number=block.number, lanes=self.lanes, txs=len(plans),
            conflict_pairs=len(graph.edges),
            possible_pairs=graph.possible_pairs,
            greedy_depth=greedy_schedule(graph).depth)
        for index, tx in enumerate(plans):
            fork = forks[index]
            receipt = fork_receipts[index]
            access = accesses[index]
            completion = lane_set.completions[index]
            reason = forced[index]
            if not reason and access.entangled:
                reason = "entangled"
            if not reason and not access.keys.isdisjoint(committed_writes):
                reason = "conflict"
            span_start = master.snapshot()
            logs_start = len(master.logs)
            if not reason:
                reason = self._commit_clean(tx, master, fork, receipt,
                                            schedule)
            if reason:
                journal_mark = master.snapshot()
                receipt = self._serial_execute(tx, master)
                committed_writes |= _journal_write_keys(
                    master, journal_mark)
                schedule.reexec_cost += receipt.tally.total
                self._count_abort(schedule, reason)
            else:
                committed_writes |= set(access.writes)
                for addr in access.created:
                    committed_writes.add(("exist", addr))
                schedule.clean += 1
            cost = receipt.tally.total
            schedule.serial_cost += cost
            outcomes.append(TxOutcome(
                tx=tx, receipt=receipt, index=index,
                lane_id=completion.lane_id,
                start=int(completion.start), finish=int(completion.finish),
                aborted=bool(reason), abort_reason=reason,
                optimistic_cost=int(completion.cost),
                canonical_cost=cost,
                journal_span=(span_start, master.snapshot()),
                logs_span=(logs_start, len(master.logs))))

        schedule.optimistic_makespan = int(lane_set.makespan())
        schedule.lane_utilization_permille = \
            lane_set.lane_utilization_permille()
        self._finish_block(schedule, parallel=True)
        return outcomes

    # -- execution strategies -------------------------------------------

    #: Installed by the node: runs one tx on a state (AP or plain).
    execute_fn: Optional[ExecuteFn] = None

    def _optimistic_execute(self, tx, fork: TrackingState):
        return self.execute_fn(tx, fork)

    def _serial_execute(self, tx, master: StateDB):
        return self.execute_fn(tx, master)

    # -- clean commit ----------------------------------------------------

    def _commit_clean(self, tx, master: StateDB, fork: TrackingState,
                      receipt, schedule: BlockSchedule) -> str:
        """Fold a conflict-free fork into the master state.

        Returns "" on success or an abort reason; on a contained
        ``sched.commit`` fault the partial apply is reverted and the
        caller re-executes serially.
        """
        journal_mark = master.snapshot()
        logs_mark = len(master.logs)

        def apply():
            self.injector.maybe_raise("sched.commit", tx=tx.hash)
            io_units, commit_ops = self._apply_fork(master, fork)
            return io_units, commit_ops

        if self.guard is not None:
            result, faulted = self.guard.run(
                "sched.commit", apply, count_fallback=False)
        else:
            try:
                result, faulted = apply(), False
            except Exception:  # noqa: BLE001 - commit containment
                result, faulted = None, True
        if faulted or result is None:
            master.revert_to(journal_mark)
            del master.logs[logs_mark:]
            return "faulted"
        io_units, commit_ops = result
        # Serial-equivalent tally: the fork's CPU/fixed components are
        # schedule-invariant; its I/O is replaced by the replayed
        # (serially-warmed) total.
        receipt.tally.io_units = io_units
        schedule.commit_cost += commit_ops
        return ""

    def _apply_fork(self, master: StateDB, fork: TrackingState
                    ) -> Tuple[int, int]:
        """Apply a clean fork's effects through the master's journal.

        Returns ``(serial_equivalent_io_units, commit_cost_units)``.
        The replay performs exactly the node-cache lookups/updates a
        serial execution of this tx would have performed, in probe
        order; master warming and value application charge a scratch
        disk so nothing leaks into the critical-path accounting.
        """
        node_cache = master.node_cache
        io_units = self._replay_probes(master, fork, node_cache)

        scratch = DiskModel()
        real_disk, master.disk = master.disk, scratch
        master.node_cache = None
        try:
            for addr in fork.created_accounts:
                account = fork._cache.get(addr)
                if account is None:
                    continue  # creation was reverted inside the fork
                master.create_account(addr, balance=account.balance,
                                      code=account.code)
            # Warm the master exactly as serial execution would have:
            # every probed key enters the master's caches.
            seen: set = set()
            for kind, key in fork.probes:
                if (kind, key) in seen or kind in ("mark", "slotmark"):
                    continue
                seen.add((kind, key))
                if kind == "acct":
                    master._load_account(key)
                else:
                    master.get_storage(key[0], key[1])
            write_ops = 0
            for key in fork.write_keys:
                kind = key[0]
                addr = key[1]
                account = fork._cache.get(addr)
                if account is None:  # pragma: no cover - defensive
                    continue
                write_ops += 1
                if kind == "bal":
                    master.set_balance(addr, account.balance)
                elif kind == "nonce":
                    while master.get_nonce(addr) < account.nonce:
                        master.increment_nonce(addr)
                elif kind == "code":
                    master.set_code(addr, account.code)
                elif kind == "slot":
                    slot = key[2]
                    master.set_storage(addr, slot,
                                       account.storage.get(slot, 0))
                # "exist" is covered by create_account above.
            if fork.coinbase_delta:
                master.add_balance(fork.coinbase, fork.coinbase_delta)
            for entry in fork.logs:
                master.add_log(entry.address, entry.topics, entry.data)
        finally:
            master.disk = real_disk
            master.node_cache = node_cache
        # Critical-path cost of folding the fork in: merging the
        # fork's buffered values into the master's in-memory caches —
        # a warm touch per written key.  The full write charge was
        # already paid during the optimistic phase (it is part of the
        # makespan); replay/warming is *accounting* that feeds the
        # canonical tally, not the scheduler's critical path.
        commit_ops = write_ops * WARM_COST
        return io_units, commit_ops

    def _replay_probes(self, master: StateDB, fork: TrackingState,
                       node_cache) -> int:
        """Serial-equivalent I/O of the fork's ordered probe log.

        Mirrors StateDB's charge classification: tx-local cache hit →
        warm; master (earlier txs this block) warmth → warm, no cache
        interaction; node-cache hit → warm (counts + recency updated on
        the *real* cache); otherwise a cold trie walk plus a node-cache
        insertion — exactly serial execution's sequence.
        """
        io_units = 0
        local: set = set()
        world = master.world
        account_depth = master.disk.account_depth
        for kind, key in fork.probes:
            if kind == "mark":
                local.add(("acct", key))
                continue
            if kind == "slotmark":
                local.add(("slot", key[0], key[1]))
                continue
            if kind == "acct":
                cache_key = ("acct", key)
                if cache_key in local or key in master._cache:
                    io_units += WARM_COST
                elif node_cache is not None \
                        and node_cache.contains(cache_key):
                    io_units += WARM_COST
                else:
                    io_units += NODE_COST * account_depth
                    if node_cache is not None:
                        node_cache.add(cache_key)
                local.add(cache_key)
            else:
                addr, slot = key
                cache_key = ("slot", addr, slot)
                if cache_key in local or (addr, slot) in \
                        master._loaded_slots:
                    io_units += WARM_COST
                elif node_cache is not None \
                        and node_cache.contains(cache_key):
                    io_units += WARM_COST
                else:
                    committed = world.get_account(addr)
                    depth = trie_depth(
                        len(committed.storage) if committed is not None
                        else 0)
                    io_units += NODE_COST * depth
                    if node_cache is not None:
                        node_cache.add(cache_key)
                local.add(cache_key)
        return io_units

    # -- bookkeeping -----------------------------------------------------

    def _count_abort(self, schedule: BlockSchedule, reason: str) -> None:
        if reason == "conflict":
            schedule.aborted_conflict += 1
            self.c_abort_conflict.inc()
        elif reason == "entangled":
            schedule.aborted_entangled += 1
            self.c_abort_entangled.inc()
        else:
            schedule.aborted_fault += 1
            self.c_abort_fault.inc()

    def _finish_block(self, schedule: BlockSchedule,
                      parallel: bool) -> None:
        self.schedules.append(schedule)
        self.c_blocks.inc()
        if parallel:
            self.c_blocks_parallel.inc()
        self.c_txs.inc(schedule.txs)
        self.c_clean.inc(schedule.clean if parallel else 0)
        self.c_conflict_pairs.inc(schedule.conflict_pairs)
        self.c_possible_pairs.inc(schedule.possible_pairs)
        self.c_serial_cost.inc(schedule.serial_cost)
        self.c_critical_path.inc(schedule.critical_path)
        self.c_reexec_cost.inc(schedule.reexec_cost)
        self.c_commit_cost.inc(schedule.commit_cost)
        self.g_utilization.set(
            sum(schedule.lane_utilization_permille)
            // max(len(schedule.lane_utilization_permille), 1))

    def report(self) -> Dict[str, object]:
        """Aggregate, canonical scheduler report across all blocks."""
        serial = self.c_serial_cost.value
        critical = self.c_critical_path.value
        possible = self.c_possible_pairs.value
        return {
            "lanes": self.lanes,
            "blocks": self.c_blocks.value,
            "blocks_parallel": self.c_blocks_parallel.value,
            "transactions": self.c_txs.value,
            "clean_commits": self.c_clean.value,
            "aborted": {
                "conflict": self.c_abort_conflict.value,
                "entangled": self.c_abort_entangled.value,
                "faulted": self.c_abort_fault.value,
            },
            "conflict_pairs": self.c_conflict_pairs.value,
            "possible_pairs": possible,
            "conflict_rate": round(
                self.c_conflict_pairs.value / possible, 6)
            if possible else 0.0,
            "serial_cost_units": serial,
            "critical_path_units": critical,
            "commit_cost_units": self.c_commit_cost.value,
            "reexec_cost_units": self.c_reexec_cost.value,
            "speedup": round(serial / critical, 4) if critical else 1.0,
        }


def _journal_write_keys(master: StateDB, mark: int) -> set:
    """Write keys of everything journaled on ``master`` since ``mark``
    (the *actual* writes of a serially re-executed transaction)."""
    keys: set = set()
    for entry in master._journal[mark:]:
        kind = entry[0]
        if kind == "balance":
            keys.add(("bal", entry[1]))
        elif kind == "nonce":
            keys.add(("nonce", entry[1]))
        elif kind == "code":
            keys.add(("code", entry[1]))
        elif kind == "storage":
            keys.add(("slot", entry[1], entry[2]))
        elif kind == "create":
            addr = entry[1]
            keys.update((("exist", addr), ("bal", addr),
                         ("nonce", addr), ("code", addr)))
    return keys
