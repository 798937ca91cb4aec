"""``noop_dispatch``: windows of 64 no-op actions on the thread backend.

The kernel is empty and the 64 operands are disjoint, so an op's time is
API calls, graph insert, executor handoff, completion and waiter
wake-up: the per-action overhead the paper puts at 20-30 us (§III).
"""

from __future__ import annotations

import time

from harness import percentile
from inproc import InProcWorkload

WINDOW = 64
WARMUP_WINDOWS = 8


def noop(*_args) -> None:
    """The module-level no-op kernel."""


class NoopDispatch(InProcWorkload):
    name = "noop_dispatch"
    # About 95 windows/s: 2,400 per 25-s run leave twelve beyond p99.5.
    tail_q = 0.995
    setup_cycles = 11
    # The runtime keeps per-action trace events for its whole life, so
    # RSS grows with ops done: read it after a fixed number of windows
    # (about 10 s of the 25-s phase) so runs of different speed compare.
    rss_ops = 1000

    def setup(self):
        from repro import HStreams, make_platform

        hs = HStreams(platform=make_platform("HSW", 1), backend="thread")
        hs.register_kernel("noop", fn=noop)
        streams = [hs.stream_create(domain=0, ncores=1, name=f"s{i}") for i in range(2)]
        operands = [
            hs.buffer_create(nbytes=64, name=f"b{i}").all_inout() for i in range(WINDOW)
        ]
        state = {"hs": hs, "streams": streams, "operands": operands, "windows": 0}
        for _ in range(WARMUP_WINDOWS):
            self.op(state)  # a failed check is recorded in self.errors
        self.counters["streams"] = len(streams)
        return state

    def teardown(self, state) -> None:
        state["hs"].fini()

    def op(self, state) -> bool:
        hs = state["hs"]
        s0, s1 = state["streams"]
        enqueue = hs.enqueue_compute
        events = [
            enqueue(s1 if i & 1 else s0, "noop", args=(operand,))
            for i, operand in enumerate(state["operands"])
        ]
        hs.thread_synchronize()
        returned = time.perf_counter()
        state["windows"] += 1
        ok = True
        for ev in events:
            rec = ev.record
            if rec is None or rec.state != "complete":
                ok = False
                self.errors.append(f"window {state['windows']}: event {ev!r} not complete")
                break
        if self.collect:
            recs = [ev.record for ev in events]
            self.records.extend(recs)
            # Record stamps are on the backend clock (perf_counter minus
            # its start), so rebase the newest completion first.
            offset = time.perf_counter() - hs.backend.now()
            newest = max(r.t_end for r in recs) + offset
            self.counters.setdefault("wake_us", []).append((returned - newest) * 1e6)
        return ok

    def final_checks(self, state) -> bool:
        acts = state["hs"].metrics()["actions"]
        expected = state["windows"] * WINDOW
        ok = (
            acts["enqueued"] == acts["completed"] == expected
            and acts["failed"] == acts["cancelled"] == acts["retried"] == 0
        )
        if not ok:
            self.errors.append(f"action counters disagree: {acts} (expected {expected})")
        print(f"check: {acts['completed']} actions complete, 0 failed/cancelled/retried: {ok}")
        return ok

    def layer_values(self, rec, ops: int) -> dict:
        return {"runtime.sync_wake_us_p50": percentile(self.counters.get("wake_us", []), 0.5)}
