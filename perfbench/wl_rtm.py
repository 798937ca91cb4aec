"""``rtm_enqueue`` and ``rtm_replay``: the paper's RTM case study, one shot per op.

A shot is a fresh two-card runtime, a 16-step two-rank propagation of a
seeded (64, 32, 32) wavefield, and ``fini()``. ``rtm_enqueue`` re-enqueues
every step on the thread backend, so the dependence scan, coherence and
transfer layers work on each step; ``rtm_replay`` captures one step pair
and replays the rest on the process backend, so batched admission,
worker IPC and shared-memory segments do the work instead.

Every shot's final field must be bit-identical to a reference shot (thread
backend, re-enqueue) computed in each set-up cycle.
"""

from __future__ import annotations

import time

import numpy as np

import harness
from inproc import InProcWorkload

GRID = (64, 32, 32)
STEPS = 16
NRANKS = 2
WARMUP_SHOTS = 1


def make_field(seed: int, half: int):
    """Seeded padded (cur0, prev0): random interior, zero Dirichlet faces."""
    nz, ny, nx = GRID
    rng = np.random.default_rng(seed)
    cur0 = np.zeros((nz + 2 * half, ny + 2 * half, nx + 2 * half))
    cur0[half:-half, half:-half, half:-half] = rng.random((nz, ny, nx))
    return cur0, np.zeros_like(cur0)


class _RtmShot(InProcWorkload):
    backend = "thread"
    replay = False
    # About 5.5 shots/s: 137 per 25-s run leave thirteen beyond p90.
    tail_q = 0.9
    setup_cycles = 7

    def _shot(self, field, backend: str, replay: bool, collect: bool = False):
        """One op: construct, propagate, tear down. Returns (field, backend block)."""
        from repro import HStreams, make_platform
        from repro.apps.rtm import run_rtm

        hs = HStreams(platform=make_platform("HSW", NRANKS), backend=backend)
        try:
            res = run_rtm(
                hs,
                grid=GRID,
                nranks=NRANKS,
                steps=STEPS,
                scheme="async",
                periodic=False,
                field=(field[0].copy(), field[1].copy()),
                replay=replay,
            )
            if collect:
                self._collect(hs)
        finally:
            hs.fini()
        block = hs.backend.backend_metrics() if backend == "process" else None
        return res.field, block

    def _collect(self, hs) -> None:
        m = hs.metrics()
        self.records.extend(m["records"])
        c = self.counters
        c["streams"] = len(m["streams"])
        c["shots"] = c.get("shots", 0) + 1
        c["scans"] = c.get("scans", 0) + sum(
            s["dep_scan_comparisons"] for s in m["streams"].values()
        )
        c["elided"] = c.get("elided", 0) + m["memory"]["elided_transfers"]
        if len(m["records"]) >= hs.config.metrics_history:
            self.errors.append("record history overflowed; per-layer records incomplete")
        b = m.get("backend")
        if b is not None:
            for key in ("remote_actions", "fallback_actions", "bytes_copied", "worker_deaths"):
                c[key] = c.get(key, 0) + b[key]
            c["worker_exec_s"] = c.get("worker_exec_s", 0.0) + b["worker_exec_s"]
            c.setdefault("ipc_round_trip_s", []).append(b["ipc_round_trip_s"])

    def setup(self):
        from repro.apps.rtm import HALF_ORDER

        field = make_field(self.seed, HALF_ORDER)
        reference, _ = self._shot(field, "thread", False)
        state = {"field": field, "reference": reference, "shots": 0}
        for _ in range(WARMUP_SHOTS):
            self.op(state)  # a failed check is recorded in self.errors
        prev = getattr(self, "_first_reference", None)
        if prev is None:
            self._first_reference = reference
        elif not np.array_equal(prev, reference):
            raise RuntimeError("reference shots of two set-up cycles differ")
        return state

    def teardown(self, state) -> None:
        pass

    def op(self, state) -> bool:
        field, block = self._shot(state["field"], self.backend, self.replay, self.collect)
        state["shots"] += 1
        ok = field is not None and np.array_equal(field, state["reference"])
        if not ok:
            self.errors.append(f"shot {state['shots']}: final field differs from the reference")
        if block is not None and (block["worker_deaths"] or block["segments"]["live"]):
            ok = False
            self.errors.append(
                f"shot {state['shots']}: worker_deaths={block['worker_deaths']} "
                f"segments.live={block['segments']['live']} after fini()"
            )
        return ok

    def layer_values(self, rec, ops: int) -> dict:
        c = self.counters
        shots = max(1, c.get("shots", 0))
        return {
            "dependences.scan_comparisons_per_op": c.get("scans", 0) / shots,
            "memory.elided_xfers_per_op": c.get("elided", 0) / shots,
        }


class RtmEnqueue(_RtmShot):
    name = "rtm_enqueue"


class RtmReplay(_RtmShot):
    name = "rtm_replay"
    # About 3.6 shots/s: 90 per 25-s run leave eleven beyond p88.
    tail_q = 0.88
    backend = "process"
    replay = True

    def cpu_s(self) -> float:
        # Worker processes are reaped by each shot's fini(), so their
        # CPU time is in the children's rusage by the time it is read.
        return time.process_time() + harness.children_cpu_s()

    def peak_rss_mb(self) -> float:
        return max(harness.self_rss_mb(), harness.children_rss_mb())

    def layer_values(self, rec, ops: int) -> dict:
        out = super().layer_values(rec, ops)
        c = self.counters
        shots = max(1, c.get("shots", 0))
        remote = c.get("remote_actions", 0)
        fallback = c.get("fallback_actions", 0)
        starts = [s[3] - s[2] for s in rec.by_name().get("process_backend.ensure_worker", ())]
        out.update(
            {
                "process_backend.ipc_round_trip_us": harness.median(
                    c.get("ipc_round_trip_s", [])
                )
                * 1e6,
                "process_backend.worker_exec_ms_per_op": c.get("worker_exec_s", 0.0) * 1e3 / shots,
                "process_backend.remote_share": remote / max(1, remote + fallback),
                "process_backend.bytes_copied_per_op": c.get("bytes_copied", 0) / shots,
                "process_backend.worker_start_ms": sum(starts) * 1e3 / shots,
                "process_backend.worker_deaths": c.get("worker_deaths", 0),
            }
        )
        return out
