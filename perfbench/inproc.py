"""Driver for the workloads whose runtime lives in the benchmark process.

A workload supplies set-up, teardown, one op and its checks; this module
runs the set-up cycles, the timed phase and, with ``--trace 1``, an
untraced half followed by a traced half with spans on.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

import harness
import layers
from spans import SpanRecorder, runtime_targets, write_chrome_trace


class InProcWorkload:
    """Interface of an in-process workload (see ``wl_dispatch``/``wl_rtm``)."""

    name = ""
    #: Percentile reported as ``op_tail_ms``: the highest with at least
    #: ten samples beyond it at this workload's rate over one run.
    tail_q = 0.99
    setup_cycles = 7
    #: ``peak_rss_mb`` is read once the timed phase has done this many ops
    #: (a fixed amount of work), or at its end when None.
    rss_ops: Optional[int] = None

    def __init__(self, seed: int):
        self.seed = seed
        #: Set during the traced half: ops then keep records and counters.
        self.collect = False
        self.records: list = []
        self.counters: dict = {}
        self.errors: list = []

    def setup(self):
        raise NotImplementedError

    def teardown(self, state) -> None:
        raise NotImplementedError

    def op(self, state) -> bool:
        raise NotImplementedError

    def cpu_s(self) -> float:
        """Cumulative CPU seconds of the system under test."""
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return harness.self_rss_mb()

    def final_checks(self, state) -> bool:
        return True

    def layer_values(self, rec: SpanRecorder, ops: int) -> dict:
        """Workload-specific per-layer values (counters, backend block)."""
        return {}


def run(wl: InProcWorkload, seconds: float, trace: bool, trace_path: str):
    with harness.Control() as ctrl:
        return _run(wl, seconds, trace, trace_path, ctrl)


def _run(wl: InProcWorkload, seconds: float, trace: bool, trace_path: str, ctrl):
    setup_s, cycle_times, state = harness.setup_cycles(wl.setup_cycles, wl.setup, wl.teardown)
    op = lambda: wl.op(state)  # noqa: E731
    if not trace:
        ph = harness.run_sync_phase(
            seconds, op, wl.cpu_s, ctrl, rss_reader=wl.peak_rss_mb, rss_ops=wl.rss_ops
        )
        correct = wl.final_checks(state) and not wl.errors
        wl.teardown(state)
        metrics, raw = harness.end_to_end(setup_s, ph, wl.tail_q)
        harness.print_end_to_end(wl.name, metrics, raw, ph, len(cycle_times), wl.tail_q)
        return correct and ph.failed == 0, ph.ops, ph.failed, metrics, wl.errors

    base = harness.run_sync_phase(seconds / 2, op, wl.cpu_s, ctrl)
    rec = SpanRecorder()
    rec.install(runtime_targets())
    wl.collect = True
    main_tid = threading.get_ident()

    def on_op(i: int) -> None:
        rec.op = i

    try:
        with harness.GcMeter() as gcm:
            ph = harness.run_sync_phase(seconds / 2, op, wl.cpu_s, ctrl, on_op=on_op)
    finally:
        wl.collect = False
        rec.uninstall()
    correct = wl.final_checks(state) and not wl.errors
    wl.teardown(state)
    ops = ph.ops
    wall = sum(ph.latencies)
    values = layers.span_metrics(rec, ops)
    values.update(layers.record_metrics(wl.records, wall, wl.counters.get("streams", 1)))
    values["trace.unattributed_share"] = layers.unattributed_share(rec, main_tid, wall)
    values.update(wl.layer_values(rec, ops))
    metrics = layers.assemble(
        values,
        base_p50_s=harness.percentile(base.latencies, 0.5),
        traced_p50_s=harness.percentile(ph.latencies, 0.5),
        ctrl_ms=harness.median(ctrl.samples) * 1e3,
        gc_pause_s=gcm.pause_s,
        gc_gen2=gcm.collections[2],
        ops=ops,
        actions_per_op=len(wl.records) / max(1, ops),
    )
    layers.print_self_times(rec, ops)
    harness.print_metrics(f"{wl.name} (traced half, {ops} ops)", metrics, {})
    write_chrome_trace(trace_path, [(os.getpid(), wl.name, rec.spans, rec.thread_names)])
    print(f"trace written: {trace_path} ({len(rec.spans)} spans)")
    failed = base.failed + ph.failed
    return correct and failed == 0, base.ops + ops, failed, metrics, wl.errors
