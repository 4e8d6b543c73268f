"""Measurement: the untraced run's end-to-end metrics and the traced
run's per-layer table, with the checks that decide ``correct``."""

from __future__ import annotations

import gc
import os
import re
import resource
import statistics
import time
import traceback
from typing import Dict, List, Optional, Tuple

from probes import BoundaryTimes, Patches, SpanRecorder
from workloads import Outcome, speedup_summary

clock = time.perf_counter

#: An untraced run sets up at least this many times, and for at least
#: ``SETUP_SECONDS``; ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

#: End-to-end metrics of the untraced run's JSON: name -> unit.  Each
#: is a ratio measured inside one call, a deterministic figure, memory,
#: or set-up time, so the machine's speed swings do not move it.
END_TO_END = {
    "block_speedup": "x",
    "cost_speedup": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Wall-clock end-to-end figures: name -> unit.  The untraced run prints
#: them; the traced run reports them, from its untraced calls, as
#: ``wall.<name>``.  They are not in the untraced JSON because the
#: machine's speed swings move them by more than any allowed bound.
WALL = {
    "tx_per_s": "1/s",
    "block_ms.p50": "ms",
    "tx_us.p50": "us",
    "tx_us.p95": "us",
    "rpc_us.p50": "us",
    "rpc_us.p99": "us",
}

#: Layers of the traced run, each reported as ``.calls`` and ``.s``
#: (self wall seconds).
LAYERS = (
    "node.run_speculation",
    "predictor.predict",
    "sched.admission.admit",
    "speculator.speculate",
    "trace.trace_transaction",
    "trace.trace_fingerprint",
    "translate.translate_trace",
    "optimize.optimize_path",
    "merge.merge_path",
    "merge.prune_tree",
    "memoize.build_shortcuts",
    "jit.compile",
    "prefetcher.prefetch",
    "node.process_block",
    "sched.executor.execute_block",
    "accelerator.execute",
    "jit.execute",
    "accelerator.execute_plain",
    "state.statedb.commit",
    "state.world.root",
    "baseline.process_block",
    "fleet.router.dispatch",
    "edge.server.handle_raw.eth_getTransactionReceipt",
    "edge.server.handle_raw.eth_call",
    "edge.server.handle_raw.debug_traceTransaction",
    "edge.server.handle_raw.eth_sendRawTransaction",
    "edge.server.handle_raw.other",
    "fleet.wire.send",
    "fleet.wire.flush",
    "fleet.supervisor.run_speculation",
    "fleet.supervisor.process_block",
)

#: Per-layer metrics other than ``<layer>.calls`` / ``<layer>.s``.
LAYER_EXTRAS = {
    "speculator.merged_ratio": "ratio",
    "speculator.merged_ratio.base": "count",
    "speculator.dedup_hit_ratio": "ratio",
    "speculator.dedup_hit_ratio.base": "count",
    "prefix_cache.hit_ratio": "ratio",
    "prefix_cache.hit_ratio.base": "count",
    "memoize.build_shortcuts.useful_ratio": "ratio",
    "memoize.build_shortcuts.useful_ratio.base": "count",
    "jit.compile_per_exec": "ratio",
    "jit.compile_per_exec.base": "count",
    "accelerator.fallback_ratio": "ratio",
    "accelerator.fallback_ratio.base": "count",
    "sched.executor.aborts": "count",
    "fleet.router.hops_per_request": "ratio",
    "fleet.router.hops_per_request.base": "count",
    "fleet.wire.bytes": "bytes",
    "fleet.goodput": "ratio",
    "stats.satisfied_pct": "%",
    "stats.effective_speedup": "x",
    "trace.untraced_tx_per_s": "1/s",
    "trace.traced_tx_per_s": "1/s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.other_s": "s",
}


def per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.s"] = "s"
    units.update(LAYER_EXTRAS)
    units.update({f"wall.{name}": unit for name, unit in WALL.items()})
    return units


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def counter_sum(registries, scope: str, name: str) -> int:
    """Sum of ``scope[#n].name`` counters over every registry."""
    pattern = re.compile(rf"^{re.escape(scope)}(#\d+)?\.{re.escape(name)}$")
    return sum(registry.value(key) for registry in registries
               for key in registry.names() if pattern.match(key))


def _call(workload, inputs, probe):
    """One main call with ``probe`` installed, then its check.  Garbage
    from earlier work is collected first so it is not charged to this
    call.  An exception from the program fails every block of the
    call."""
    marks = probe.marks if isinstance(probe, BoundaryTimes) else []
    gc.collect()
    with Patches() as patches:
        probe.install(patches)
        began = clock()
        marks.append(began)
        try:
            raw = workload.call(inputs)
        except Exception:  # the program failed: report, don't crash
            blocks = len(inputs.dataset.blocks)
            requests = len(inputs.scenario or ())
            return Outcome(wall_s=clock() - began, blocks=blocks,
                           blocks_failed=blocks, requests=requests,
                           requests_failed=requests,
                           error=traceback.format_exc())
        wall = clock() - began
        marks.append(began + wall)
    outcome = workload.check(inputs, raw, wall)
    if isinstance(probe, BoundaryTimes):
        probe.baseline_block_s += outcome.check_baseline_block_s
    return outcome


# -- untraced run -------------------------------------------------------------


def fastest(series: List[List[float]]) -> List[float]:
    """Position-wise minimum over calls.  Every call does identical
    work (the program is deterministic and the digest check proves it),
    so sample ``i`` of each call times the same block, transaction or
    request; its minimum removes the machine's slow spells."""
    return [min(values) for values in zip(*series)]


def wall_figures(calls: List[BoundaryTimes], txs: int
                 ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Wall-clock figures of repeated identical calls, with the sample
    counts behind them.  Each block, tx and request time is the fastest
    of its repeats; the call's wall time is the sum of its segments'
    (between speculation cycles and blocks) fastest repeats."""
    block_s = fastest([times.block_s for times in calls])
    tx_s = fastest([times.tx_s for times in calls])
    rpc_s = fastest([times.rpc_s for times in calls])
    segments = fastest([times.segments() for times in calls])
    # A call's baseline and Forerunner blocks ran moments apart, so
    # their ratio is taken within each call, never across calls; the
    # median over calls drops calls whose two sides met different spells.
    speedups = [ratio(statistics.fmean(times.baseline_block_s),
                      statistics.fmean(times.block_s))
                for times in calls if times.baseline_block_s and times.block_s]
    figures = {
        "tx_per_s": ratio(txs, sum(segments)),
        "block_ms.p50": 1e3 * percentile(block_s, 50),
        "tx_us.p50": 1e6 * percentile(tx_s, 50),
        "tx_us.p95": 1e6 * percentile(tx_s, 95),
        "rpc_us.p50": 1e6 * percentile(rpc_s, 50),
        "rpc_us.p99": 1e6 * percentile(rpc_s, 99),
        "block_speedup": statistics.median(speedups) if speedups else 0.0,
    }
    samples = {
        "tx_per_s": (f"{txs} txs in {sum(segments):.3f} s, the sum of "
                     f"{len(segments)} fastest segments"),
        "block_ms.p50": f"n={len(block_s)}",
        "tx_us.p50": f"n={len(tx_s)}",
        "tx_us.p95": f"n={len(tx_s)}",
        "rpc_us.p50": f"n={len(rpc_s)}",
        "rpc_us.p99": f"n={len(rpc_s)}",
        "block_speedup": (f"median of {len(speedups)} calls, each "
                          f"{len(calls[0].baseline_block_s)} baseline / "
                          f"{len(calls[0].block_s)} Forerunner blocks"),
    }
    return figures, samples


def measure(workload, seed: int, seconds: float,
            params: Optional[dict] = None
            ) -> Tuple[dict, List[str]]:
    """The untraced run: end-to-end metrics with their sample counts.
    The main call repeats on the same inputs until ``seconds`` have
    passed."""
    params = params or workload.params
    setup_times = []
    began = clock()
    while (len(setup_times) < SETUP_REPEATS
           or clock() - began < SETUP_SECONDS):
        start = clock()
        inputs = workload.setup(seed, params)
        setup_times.append(clock() - start)

    outcomes, calls = [], []
    began = clock()
    while not outcomes or clock() - began < seconds:
        times = BoundaryTimes()
        outcomes.append(_call(workload, inputs, times))
        calls.append(times)
    first = outcomes[0]
    metrics, samples = wall_figures(calls, first.txs)
    metrics.update({
        "cost_speedup": speedup_summary(first.records)["cost_speedup"]
        if first.records else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    })
    samples.update({
        "cost_speedup": f"n={len(first.records)} txs",
        "setup_s": f"n={len(setup_times)}",
        "peak_rss_mb": "",
    })
    walls = ", ".join(f"{outcome.wall_s:.3f}" for outcome in outcomes)
    lines = [f"{workload.name} seed={seed} untraced: {len(outcomes)} "
             f"calls (walls {walls} s), fastest of each sample"]
    for name, unit in {**WALL, **END_TO_END}.items():
        if name.startswith("rpc_") and not first.requests:
            continue
        lines.append(f"  {name:<16} {metrics[name]:>14.4f} {unit:<4} "
                     f"({samples[name]})")
    if first.requests:
        lines.append(f"  {'goodput':<16} {first.goodput:>14.4f}      "
                     f"(n={first.requests})")
    result = _result(outcomes, metrics, lines,
                     {outcome.digest for outcome in outcomes})
    return result, lines


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(outcomes, metrics: dict, lines: List[str], digests: set,
            units: Optional[Dict[str, str]] = None) -> dict:
    """The JSON result; ``correct`` needs every block verified and the
    deterministic outputs identical across the calls of this seed."""
    units = units or END_TO_END
    errors = [outcome.error for outcome in outcomes if outcome.error]
    failed_blocks = sum(outcome.blocks_failed for outcome in outcomes)
    correct = not errors and failed_blocks == 0 and len(digests) == 1
    for error in errors:
        lines.append(f"  ERROR: {error}")
    if failed_blocks:
        lines.append(f"  CHECK FAILED: {failed_blocks} blocks with a "
                     f"wrong state root")
    if len(digests) != 1:
        lines.append("  CHECK FAILED: deterministic outputs differ "
                     "between calls of the same seed")
    return {
        "correct": correct,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }


# -- traced run --------------------------------------------------------------


def trace(workload, seed: int, seconds: float,
          params: Optional[dict] = None,
          spans_dir: Optional[str] = None) -> Tuple[dict, List[str]]:
    """Untraced and traced calls of the same inputs, alternating until
    ``seconds`` have passed: per-layer self time and ratios from the
    fastest traced call, and the tracing overhead as fastest traced vs.
    fastest untraced call."""
    params = params or workload.params
    inputs = workload.setup(seed, params)
    plains, traces = [], []
    began = clock()
    while not traces or clock() - began < seconds:
        times = BoundaryTimes()
        plains.append((_call(workload, inputs, times), times))
        recorder = SpanRecorder(workload.name, f"seed{seed}")
        traces.append((_call(workload, inputs, recorder), recorder))
    plain = min((outcome for outcome, _ in plains), key=lambda o: o.wall_s)
    traced, recorder = min(traces, key=lambda pair: pair[0].wall_s)
    figures, _ = wall_figures([times for _, times in plains], plain.txs)
    if spans_dir:
        os.makedirs(spans_dir, exist_ok=True)
        recorder.write(os.path.join(
            spans_dir, f"spans-{workload.name}-seed{seed}.jsonl"))

    table = recorder.self_times()
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        calls, self_s = table.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.s"] = self_s
    registries = traced.registries
    counts = recorder.counts

    def put(name: str, numerator: float, base: float) -> None:
        metrics[name] = ratio(numerator, base)
        metrics[f"{name}.base"] = base

    speculations = counter_sum(registries, "speculator", "speculations")
    put("speculator.merged_ratio",
        counter_sum(registries, "speculator", "merged"), speculations)
    dedup_hits = counter_sum(registries, "speculator", "dedup_hits")
    put("speculator.dedup_hit_ratio", dedup_hits,
        dedup_hits + counter_sum(registries, "speculator", "dedup_misses"))
    prefix_hits = counter_sum(registries, "prefix_cache", "hits")
    put("prefix_cache.hit_ratio", prefix_hits,
        prefix_hits + counter_sum(registries, "prefix_cache", "misses"))
    put("memoize.build_shortcuts.useful_ratio",
        len(recorder.shortcut_pairs),
        metrics["memoize.build_shortcuts.calls"])
    put("jit.compile_per_exec", metrics["jit.compile.calls"],
        metrics["jit.execute.calls"])
    put("accelerator.fallback_ratio", counts["accelerator.fallbacks"],
        metrics["accelerator.execute.calls"])
    metrics["sched.executor.aborts"] = sum(
        counter_sum(registries, "sched", f"aborted.{kind}")
        for kind in ("conflict", "entangled", "faulted"))
    put("fleet.router.hops_per_request", counts["fleet.router.hops"],
        metrics["fleet.router.dispatch.calls"])
    metrics["fleet.wire.bytes"] = counts["fleet.wire.bytes"]
    metrics["fleet.goodput"] = plain.goodput if plain.requests else 0.0
    for name in WALL:
        metrics[f"wall.{name}"] = figures[name]
    summary = speedup_summary(plain.records) if plain.records else {}
    metrics["stats.satisfied_pct"] = summary.get("satisfied_pct", 0.0)
    metrics["stats.effective_speedup"] = summary.get("effective_speedup",
                                                     0.0)
    metrics["trace.untraced_tx_per_s"] = ratio(plain.txs, plain.wall_s)
    metrics["trace.traced_tx_per_s"] = ratio(traced.txs, traced.wall_s)
    metrics["trace.overhead_pct"] = 100.0 * (
        ratio(traced.wall_s, plain.wall_s) - 1.0)
    metrics["trace.spans"] = len(recorder.spans)
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.other_s"] = traced.wall_s - recorder.top_level_seconds()

    lines = [f"{workload.name} seed={seed} traced: fastest of "
             f"{len(traces)} traced calls, {len(recorder.spans)} spans, "
             f"wall {traced.wall_s:.3f} s (fastest untraced "
             f"{plain.wall_s:.3f} s, overhead "
             f"{metrics['trace.overhead_pct']:.1f}%)",
             f"  {'layer':<50} {'calls':>8} {'self s':>10} {'share':>7}"]
    for layer in LAYERS:
        calls, self_s = metrics[f"{layer}.calls"], metrics[f"{layer}.s"]
        if calls:
            lines.append(f"  {layer:<50} {calls:>8} {self_s:>10.4f} "
                         f"{100 * ratio(self_s, traced.wall_s):>6.1f}%")
    other_s = metrics["trace.other_s"]
    lines.append(f"  {'(outside every probed layer)':<50} {'':>8} "
                 f"{other_s:>10.4f} "
                 f"{100 * ratio(other_s, traced.wall_s):>6.1f}%")
    for name in [*LAYER_EXTRAS, *(f"wall.{name}" for name in WALL)]:
        if not name.endswith(".base") and not name.startswith("trace."):
            base = metrics.get(f"{name}.base")
            suffix = f" (base {base})" if base is not None else ""
            lines.append(f"  {name:<50} {metrics[name]:.6g}{suffix}")
    outcomes = [outcome for outcome, _ in plains + traces]
    result = _result(outcomes, metrics, lines,
                     {outcome.digest for outcome in outcomes},
                     per_layer_units())
    return result, lines
