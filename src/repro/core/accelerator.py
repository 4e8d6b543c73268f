"""Transaction execution accelerator: the on-critical-path component.

Runs each transaction through its accelerated program when one exists;
falls back to full EVM execution on constraint violation or when no AP
is available.  The transaction *envelope* (nonce check, gas purchase,
value transfer, refund, coinbase fee) is executed natively, mirroring
:meth:`repro.evm.interpreter.EVM.execute_transaction` step for step, so
the resulting state transition is bit-identical to a plain execution —
which the Merkle-root checks in the test suite and benches verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.core import costmodel
from repro.core.ap import AcceleratedProgram
from repro.core.ap_exec import APExecStats, execute_ap
from repro.core.costmodel import CostTally
from repro.errors import ConstraintViolation, InsufficientBalance
from repro.evm.interpreter import EVM, ExecutionResult
from repro.state.statedb import StateDB
from repro.witness.recorder import ReadSetRecorder

#: Outcome labels (Table 3's prediction-outcome breakdown).
OUTCOME_NO_AP = "no_ap"          # heard/unheard but nothing speculated
OUTCOME_VIOLATED = "violated"    # AP existed, no constraint set matched
OUTCOME_SATISFIED = "satisfied"  # fast path executed
#: The accelerated attempt died to a contained fault (chaos layer or a
#: real bug); the node reverted and re-ran the plain path.  Counted in
#: Table 3's unsatisfied bucket like any other non-satisfied outcome.
OUTCOME_FAULTED = "faulted"


@dataclass
class AcceleratedReceipt:
    """Execution result plus acceleration telemetry for one transaction."""

    result: ExecutionResult
    outcome: str
    tally: CostTally
    ap_stats: Optional[APExecStats] = None
    used_ap: bool = False
    #: Which execution tier produced the result: "plain" (full EVM),
    #: "walk" (interpreted AP), or "jit" (specialized closure).
    tier: str = "plain"
    #: Context values the execution observed, in read-set convention
    #: ((kind, key) -> value).  The AP tiers collect these anyway; the
    #: plain path fills them only when witness recording is on.
    observed_reads: Optional[Dict[tuple, int]] = None
    #: ``(ap, header)`` a satisfied AP execution is classified against
    #: on the first read of :attr:`perfect_context_ids`; only committed
    #: receipts are ever read, so discarded forks never pay for it.
    classify_against: Optional[tuple] = field(default=None, repr=False)
    _perfect: Tuple[int, ...] = field(default=(), init=False, repr=False)

    @property
    def perfect_context_ids(self) -> Tuple[int, ...]:
        """Ids of speculated contexts whose full read set matched
        reality (non-empty => the traditional "perfect prediction"
        would have hit)."""
        if self.classify_against is not None:
            ap, header = self.classify_against
            self.classify_against = None
            self._perfect = perfect_contexts(ap, self.observed_reads, header)
        return self._perfect


def context_matches(read_set: Dict[tuple, int], state: StateDB,
                    header: BlockHeader,
                    blockhash_fn: Callable[[int], int]) -> bool:
    """Is the actual context identical to a speculated one (on its
    read set)?  This is the traditional speculative-execution test."""
    for (kind, key), expected in read_set.items():
        if kind == "storage":
            actual = state.get_storage(key[0], key[1])
        elif kind == "balance":
            actual = state.get_balance(key[0])
        elif kind == "header":
            actual = getattr(header, key[0])
        elif kind == "blockhash":
            actual = blockhash_fn(key[0])
        elif kind == "extcodesize":
            actual = len(state.get_code(key[0]))
        else:
            return False
        if actual != expected:
            return False
    return True


class TransactionAccelerator:
    """Executes transactions, preferring accelerated programs."""

    def __init__(self, blockhash_fn: Optional[Callable[[int], int]] = None,
                 jit=None, record_witnesses: bool = False) -> None:
        self.blockhash_fn = blockhash_fn or (lambda n: 0)
        #: Optional :class:`repro.evm.jit.tier.JitTier`: AP execution
        #: routes through the tier (specialized closure when a valid
        #: artifact exists, the interpreted walker otherwise).
        self.jit = jit
        #: When on, plain executions trace their context read set (via
        #: :class:`repro.witness.recorder.ReadSetRecorder`) so every
        #: receipt carries witness constraints.  Off by default: the
        #: AP tiers observe their reads for free, but the plain path
        #: pays one dict probe per context read.
        self.record_witnesses = record_witnesses

    # -- plain path ---------------------------------------------------------

    def execute_plain(self, tx: Transaction, header: BlockHeader,
                      state: StateDB,
                      fixed_cost: int = costmodel.TX_FIXED
                      ) -> AcceleratedReceipt:
        """Full EVM execution with cost accounting."""
        io_before = state.disk.stats.cost_units
        recorder = ReadSetRecorder() if self.record_witnesses else None
        evm = EVM(state, header, tx, tracer=recorder,
                  blockhash_fn=self.blockhash_fn)
        result = evm.execute_transaction()
        tally = costmodel.evm_execution_cost(
            evm.instruction_count,
            state.disk.stats.cost_units - io_before,
            fixed=fixed_cost,
            write_ops=evm.write_op_count)
        return AcceleratedReceipt(
            result=result, outcome=OUTCOME_NO_AP, tally=tally,
            observed_reads=recorder.reads if recorder else None)

    # -- accelerated path ------------------------------------------------------

    # pylint: disable=too-many-locals
    def execute(self, tx: Transaction, header: BlockHeader, state: StateDB,
                ap: Optional[AcceleratedProgram]) -> AcceleratedReceipt:
        """Execute ``tx``: AP fast path if possible, else fallback."""
        if ap is None or ap.root is None:
            return self.execute_plain(tx, header, state)

        tally = CostTally(fixed_units=costmodel.AP_FIXED)
        io_before = state.disk.stats.cost_units
        base_snap = state.snapshot()
        logs_mark = len(state.logs)
        try:
            receipt = self._run_envelope_and_ap(
                tx, header, state, ap, tally, logs_mark)
        except ConstraintViolation:
            state.revert_to(base_snap)
            del state.logs[logs_mark:]
            receipt = self.execute_plain(
                tx, header, state, fixed_cost=costmodel.FALLBACK_FIXED)
            receipt.outcome = OUTCOME_VIOLATED
            # The aborted constraint check's work counts too.
            receipt.tally.cpu_units += tally.cpu_units
            receipt.tally.fixed_units += tally.fixed_units
            # The plain receipt carries no perfect contexts: a perfectly
            # matching context would have satisfied its own guards, so
            # a violation is never a perfect prediction.
            return receipt
        tally.io_units += state.disk.stats.cost_units - io_before
        receipt.tally = tally
        return receipt

    def _run_envelope_and_ap(self, tx: Transaction, header: BlockHeader,
                             state: StateDB, ap: AcceleratedProgram,
                             tally: CostTally,
                             logs_mark: int) -> AcceleratedReceipt:
        """Mirror of EVM.execute_transaction with the call replaced by
        AP execution.  Raises ConstraintViolation to trigger fallback."""
        intrinsic = tx.intrinsic_gas()
        if tx.gas_limit < intrinsic:
            return AcceleratedReceipt(
                result=ExecutionResult(False, 0, error="intrinsic gas too low"),
                outcome=OUTCOME_SATISFIED, tally=tally, used_ap=True,
                tier="walk", observed_reads={})
        if state.get_nonce(tx.sender) != tx.nonce:
            return AcceleratedReceipt(
                result=ExecutionResult(False, 0, error="bad nonce"),
                outcome=OUTCOME_SATISFIED, tally=tally, used_ap=True,
                tier="walk", observed_reads={})
        try:
            state.sub_balance(tx.sender, tx.gas_limit * tx.gas_price)
        except InsufficientBalance:
            return AcceleratedReceipt(
                result=ExecutionResult(False, 0, error="cannot afford gas"),
                outcome=OUTCOME_SATISFIED, tally=tally, used_ap=True,
                tier="walk", observed_reads={})
        state.increment_nonce(tx.sender)

        call_snap = state.snapshot()
        if tx.value:
            try:
                state.sub_balance(tx.sender, tx.value)
                state.add_balance(tx.to, tx.value)
            except InsufficientBalance:
                # Mirror EVM._call: the top-level call fails but the
                # intrinsic gas stays consumed.
                state.revert_to(call_snap)
                gas_used = intrinsic
                state.add_balance(
                    tx.sender, (tx.gas_limit - gas_used) * tx.gas_price)
                state.add_balance(header.coinbase, gas_used * tx.gas_price)
                return AcceleratedReceipt(
                    result=ExecutionResult(False, gas_used, b""),
                    outcome=OUTCOME_SATISFIED, tally=tally, used_ap=True,
                    tier="walk", observed_reads={})

        if self.jit is not None:
            outcome = self.jit.execute(ap, state, header, tx, tally=tally,
                                       blockhash_fn=self.blockhash_fn)
            tier = self.jit.last_used
        else:
            outcome = execute_ap(ap, state, header, tx, tally=tally,
                                 blockhash_fn=self.blockhash_fn)
            tier = "walk"
        if not outcome.success:
            state.revert_to(call_snap)
        gas_used = outcome.gas_used
        gas_left = tx.gas_limit - gas_used
        state.add_balance(tx.sender, gas_left * tx.gas_price)
        state.add_balance(header.coinbase, gas_used * tx.gas_price)
        logs = [(e.address, e.topics, e.data)
                for e in state.logs[logs_mark:]]
        result = ExecutionResult(outcome.success, gas_used,
                                 outcome.return_data, logs)
        return AcceleratedReceipt(
            result=result, outcome=OUTCOME_SATISFIED, tally=tally,
            ap_stats=outcome.stats, used_ap=True, tier=tier,
            observed_reads=outcome.observed_reads,
            classify_against=(ap, header))


def perfect_contexts(ap: AcceleratedProgram,
                     observed_reads: Dict[tuple, int],
                     header: BlockHeader) -> Tuple[int, ...]:
    """Which speculated contexts matched reality perfectly.

    Uses the values the AP execution itself observed — no extra state
    reads, no cache-warming side effects.  A path is a perfect
    prediction when every entry of its speculated read set equals the
    observed value (header fields are checked against the actual header
    even if the AP never read them via a node, since promotion may have
    folded duplicate reads).
    """
    perfect = []
    for path in ap.paths:
        matched = True
        for (kind, key), expected in path.read_set.items():
            if kind == "header":
                actual = getattr(header, key[0])
            else:
                actual = observed_reads.get((kind, key))
            if actual != expected:
                matched = False
                break
        if matched:
            perfect.append(path.context_id)
    return tuple(dict.fromkeys(perfect))
