"""Per-layer metrics of the traced run.

Every name here is a ``per_layer`` entry of ``BENCHMARK.json``. A layer
a workload bypasses reports 0 (see ``perfbench/README.md`` for which
workload loads which layer).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from harness import percentile
from spans import SpanRecorder

UNITS = {
    "runtime.enqueue_us_p50": "us",
    "runtime.us_per_action": "us",
    "runtime.sync_wake_us_p50": "us",
    "scheduler.enqueue_self_us_p50": "us",
    "scheduler.on_complete_self_us_p50": "us",
    "scheduler.admit_instance_us_per_op": "us",
    "scheduler.dep_stall_us_p50": "us",
    "dependences.scan_comparisons_per_op": "count",
    "dependences.deps_for_us_per_op": "us",
    "memory.on_enqueue_us_per_op": "us",
    "memory.on_complete_us_per_op": "us",
    "memory.elided_xfers_per_op": "count",
    "replay.replay_call_us_p50": "us",
    "thread_backend.execute_us_p50": "us",
    "thread_backend.dispatch_stall_us_p50": "us",
    "thread_backend.dispatch_stall_us_p99": "us",
    "thread_backend.signal_us_p50": "us",
    "process_backend.ipc_round_trip_us": "us",
    "process_backend.worker_exec_ms_per_op": "ms",
    "process_backend.remote_share": "ratio",
    "process_backend.bytes_copied_per_op": "B",
    "process_backend.worker_start_ms": "ms",
    "process_backend.worker_deaths": "count",
    "kernel.exec_us_p50": "us",
    "kernel.busy_share": "ratio",
    "service.transport_in_us_p50": "us",
    "service.submit_us_p50": "us",
    "service.admit_wait_us_p50": "us",
    "service.bridge_us_p50": "us",
    "service.session_rpc_ms_p50": "ms",
    "service.rejected_share": "ratio",
    "gc.pause_ms_per_op": "ms",
    "gc.gen2_per_kop": "count",
    "host.ctrl_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_share": "ratio",
}

ENQUEUE_SPANS = (
    "runtime.enqueue_compute",
    "runtime.enqueue_xfer",
    "runtime.event_stream_wait",
)


def durations_us(spans) -> List[float]:
    return [(s[3] - s[2]) * 1e6 for s in spans]


def self_us(spans) -> List[float]:
    return [s[4] * 1e6 for s in spans]


def per_op_us(spans, ops: int) -> float:
    return sum(s[3] - s[2] for s in spans) * 1e6 / max(1, ops)


def span_metrics(rec: SpanRecorder, ops: int) -> Dict[str, float]:
    """The metrics read straight off the runtime-layer spans."""
    by = rec.by_name()
    enq = [s for name in ENQUEUE_SPANS for s in by.get(name, ())]
    return {
        "runtime.enqueue_us_p50": percentile(durations_us(enq), 0.5),
        "scheduler.enqueue_self_us_p50": percentile(self_us(by.get("scheduler.enqueue", ())), 0.5),
        "scheduler.on_complete_self_us_p50": percentile(
            self_us(by.get("scheduler.on_complete", ())), 0.5
        ),
        "scheduler.admit_instance_us_per_op": per_op_us(by.get("scheduler.admit_instance", ()), ops),
        "dependences.deps_for_us_per_op": per_op_us(by.get("dependences.deps_for", ()), ops),
        "memory.on_enqueue_us_per_op": per_op_us(by.get("memory.on_enqueue", ()), ops),
        "memory.on_complete_us_per_op": per_op_us(by.get("memory.on_action_complete", ()), ops),
        "replay.replay_call_us_p50": percentile(durations_us(by.get("replay.replay", ())), 0.5),
        "thread_backend.execute_us_p50": percentile(
            durations_us(by.get("thread_backend.execute", ())), 0.5
        ),
        "thread_backend.signal_us_p50": percentile(
            durations_us(by.get("thread_backend.signal_completion", ())), 0.5
        ),
    }


def record_metrics(records, op_wall_s: float, nstreams: int) -> Dict[str, float]:
    """Lifecycle metrics from the ``ActionRecord`` every event carries."""
    computes = [r for r in records if r.kind == "compute"]
    exec_s = [r.t_end - r.t_start for r in computes]
    return {
        "scheduler.dep_stall_us_p50": percentile([r.dep_stall * 1e6 for r in records], 0.5),
        "thread_backend.dispatch_stall_us_p50": percentile(
            [r.dispatch_stall * 1e6 for r in records], 0.5
        ),
        "thread_backend.dispatch_stall_us_p99": percentile(
            [r.dispatch_stall * 1e6 for r in records], 0.99
        ),
        "kernel.exec_us_p50": percentile([x * 1e6 for x in exec_s], 0.5),
        "kernel.busy_share": sum(exec_s) / max(1e-12, op_wall_s * nstreams),
    }


def unattributed_share(rec: SpanRecorder, tid: int, op_wall_s: float) -> float:
    """Share of the source thread's op wall time outside its top-level spans."""
    covered = sum(s[3] - s[2] for s in rec.spans if s[7] == tid and s[5] == 0)
    return max(0.0, 1.0 - covered / max(1e-12, op_wall_s))


def assemble(
    values: Dict[str, float],
    base_p50_s: float,
    traced_p50_s: float,
    ctrl_ms: float,
    gc_pause_s: float,
    gc_gen2: int,
    ops: int,
    actions_per_op: Optional[float],
) -> Dict[str, dict]:
    """Fill the shared metrics, default bypassed layers to 0, attach units."""
    out = dict(values)
    out["host.ctrl_ms"] = ctrl_ms
    out["gc.pause_ms_per_op"] = gc_pause_s * 1e3 / max(1, ops)
    out["gc.gen2_per_kop"] = gc_gen2 * 1e3 / max(1, ops)
    out["trace.overhead_pct"] = (traced_p50_s / base_p50_s - 1.0) * 100.0 if base_p50_s else 0.0
    if actions_per_op:
        out.setdefault("runtime.us_per_action", base_p50_s * 1e6 / actions_per_op)
    unknown = set(out) - set(UNITS)
    if unknown:
        raise KeyError(f"metrics without a declared unit: {sorted(unknown)}")
    return {name: {"value": float(out.get(name, 0.0)), "unit": unit} for name, unit in UNITS.items()}


def print_self_times(rec: SpanRecorder, ops: int) -> None:
    """Each layer function's self time per op, in microseconds."""
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for s in rec.spans:
        totals[s[1]] = totals.get(s[1], 0.0) + s[4]
        counts[s[1]] = counts.get(s[1], 0) + 1
    print(f"== self time per op ({ops} traced ops)")
    for name in sorted(totals, key=totals.get, reverse=True):
        print(
            f"  {name:<40} {totals[name] * 1e6 / max(1, ops):>12.2f} us/op"
            f"  ({counts[name] / max(1, ops):.1f} calls/op)"
        )

