"""Shared measurement pieces: percentiles, the machine-speed control,
GC accounting, CPU and RSS readings, set-up cycles and the result line.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import resource
import socket
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

perf_counter = time.perf_counter

#: How often the control loop runs inside a timed phase, and how much
#: work one sample does (about 2 ms on a 2-vCPU x86 box: a 1 % duty cycle).
CTRL_PERIOD_S = 0.2
CTRL_ITERS = 5_000
CTRL_PINGS = 40
#: The control's median time on the reference box (2-vCPU x86 VM,
#: CPython 3.11); the adjusted metrics are expressed at this speed.
CTRL_REF_MS = 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ctrl_body(sock: socket.socket) -> int:
    """A fixed stdlib workload: no ``repro`` code, no allocation growth.

    Pure-Python arithmetic and dict stores, then :data:`CTRL_PINGS`
    one-byte round trips to an echo thread: the wake-ups, context
    switches and lock hand-offs that the workloads' own ops are made of.
    """
    table: Dict[int, int] = {}
    acc = 0
    for i in range(CTRL_ITERS):
        table[i & 1023] = i
        acc += (i * i) % 7
    for _ in range(CTRL_PINGS):
        sock.sendall(b"x")
        sock.recv(1)
    return acc + len(table)


def _echo(sock: socket.socket) -> None:
    while True:
        byte = sock.recv(1)
        if not byte:
            return
        sock.sendall(byte)


def _ctrl_server(conn) -> None:
    """Control process: time one :func:`_ctrl_body` per request."""
    mine, theirs = socket.socketpair()
    echo = threading.Thread(target=_echo, args=(theirs,), daemon=True)
    echo.start()
    while conn.recv():
        t0 = perf_counter()
        _ctrl_body(mine)
        conn.send(perf_counter() - t0)
    mine.close()
    echo.join()
    theirs.close()


class Control:
    """Machine-speed control, interleaved with the timed phases of a run.

    Every :data:`CTRL_PERIOD_S`, while the system under test is idle
    between ops, the load generator has a separate control process time
    one run of the fixed loop (see :meth:`Phase.pause`). Running it in
    its own process keeps the program's threads, locks and collector out
    of the reading, so only the speed of the box moves it. The per-run
    median is ``host.ctrl_ms``; the wall-clock end-to-end metrics are
    reported adjusted by it (:func:`end_to_end`).
    """

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_ctrl_server, args=(child,), daemon=True)
        self._proc.start()
        child.close()
        self.samples: List[float] = []
        self._next = perf_counter() + CTRL_PERIOD_S

    def due(self) -> bool:
        return perf_counter() >= self._next

    def run(self) -> None:
        self._conn.send(True)
        self.samples.append(self._conn.recv())
        self._next = perf_counter() + CTRL_PERIOD_S

    def close(self) -> None:
        if self._proc.is_alive():
            self._conn.send(False)
        self._proc.join(10.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()

    def __enter__(self) -> "Control":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class GcMeter:
    """Collector pauses and generation-2 collections via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = [0, 0, 0]
        self._t0 = 0.0

    def _cb(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = perf_counter()
        else:
            self.pause_s += perf_counter() - self._t0
            self.collections[info["generation"]] += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._cb)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._cb)


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def setup_cycles(
    cycles: int, setup: Callable[[], object], teardown: Callable[[object], None]
):
    """Run ``cycles`` complete set-up/teardown cycles; keep the last state.

    Returns ``(median seconds, per-cycle seconds, kept state)``. Only the
    set-up itself is timed; the kept state feeds the timed phase.
    """
    times: List[float] = []
    state = None
    for i in range(cycles):
        t0 = perf_counter()
        state = setup()
        times.append(perf_counter() - t0)
        if i + 1 < cycles:
            teardown(state)
    print(f"setup cycles (s): {' '.join(f'{t:.4f}' for t in times)}; median {median(times):.4f}")
    return median(times), times, state


#: A timed phase is cut into blocks of at least this long; each closes
#: at the first control pause after it.
BLOCK_S = 1.0


class Block:
    """Ops ``[first, end)`` of a phase, with their wall, CPU and control."""

    __slots__ = ("first", "end", "wall_s", "cpu_s", "ctrl", "full")

    def __init__(self, first: int) -> None:
        self.first = first
        self.end = first
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.ctrl: List[float] = []
        self.full = False

    @property
    def ops(self) -> int:
        return self.end - self.first

    @property
    def slow(self) -> float:
        """How much slower than the reference the box ran in this block."""
        return median(self.ctrl) * 1e3 / CTRL_REF_MS


class Phase:
    """One timed phase: per-op latencies, cut into blocks.

    The load generator calls :meth:`pause` whenever the system under test
    is idle between ops. When the control is due it runs there, and its
    sample belongs to the current block; the block closes after the
    sample once it has run :data:`BLOCK_S` (the pause itself is in no
    block). Every op is adjusted by the control samples of its own
    block, so drift of the box within a run is followed block by block.
    """

    def __init__(
        self,
        cpu_reader: Callable[[], float],
        ctrl: Control,
        rss_reader: Optional[Callable[[], float]] = None,
        rss_ops: Optional[int] = None,
    ) -> None:
        self.latencies: List[float] = []
        self.failed = 0
        self.blocks: List[Block] = []
        self.ctrl = ctrl
        self._ctrl_first = len(ctrl.samples)
        self._cpu = cpu_reader
        self._rss = rss_reader
        self._rss_ops = rss_ops
        #: Peak RSS (MB) once the phase has done ``rss_ops`` ops (or at
        #: its end, if it never does).
        self.peak_rss_mb: Optional[float] = None
        self.rss_at_ops = 0
        self._open_block()

    def _open_block(self) -> None:
        self._block = Block(len(self.latencies))
        self._block_cpu = self._cpu()
        self._block_t = perf_counter()
        self._block_paused = 0.0

    def _close_block(self, full: bool) -> None:
        b = self._block
        b.end = len(self.latencies)
        b.wall_s = perf_counter() - self._block_t - self._block_paused
        b.cpu_s = self._cpu() - self._block_cpu
        b.full = full
        self.blocks.append(b)

    def _sample(self) -> float:
        t0 = perf_counter()
        self.ctrl.run()
        paused = perf_counter() - t0
        self._block_paused += paused
        self._block.ctrl.append(self.ctrl.samples[-1])
        return paused

    def _read_rss(self) -> None:
        if self._rss is not None and self.peak_rss_mb is None:
            self.peak_rss_mb = self._rss()
            self.rss_at_ops = len(self.latencies)

    def pause(self) -> None:
        if self._rss_ops is not None and len(self.latencies) >= self._rss_ops:
            self._read_rss()
        if not self.ctrl.due():
            return
        self._sample()
        if perf_counter() - self._block_t - self._block_paused >= BLOCK_S:
            self._close_block(full=True)
            self._open_block()

    def finish(self) -> None:
        """Close the last, partial block (sampling the control if needed)."""
        if len(self.latencies) > self._block.first or not self.blocks:
            if not self._block.ctrl:
                self._sample()
            self._close_block(full=False)
        self._read_rss()

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def ctrl_samples(self) -> List[float]:
        return self.ctrl.samples[self._ctrl_first :]

    @property
    def ctrl_ms(self) -> float:
        return median(self.ctrl_samples) * 1e3

    def full_blocks(self) -> List[Block]:
        return [b for b in self.blocks if b.full and b.ops] or [b for b in self.blocks if b.ops]

    def ops_per_s(self, adjusted: bool) -> float:
        return median([b.ops / b.wall_s * (b.slow if adjusted else 1.0) for b in self.full_blocks()])

    def cpu_ms_per_op(self, adjusted: bool) -> float:
        return median(
            [b.cpu_s * 1e3 / b.ops / (b.slow if adjusted else 1.0) for b in self.full_blocks()]
        )

    def latencies_ms(self, adjusted: bool) -> List[float]:
        if not adjusted:
            return [x * 1e3 for x in self.latencies]
        out: List[float] = []
        for b in self.blocks:
            k = 1e3 / b.slow
            out.extend(x * k for x in self.latencies[b.first : b.end])
        return out


def run_sync_phase(
    seconds: float,
    op: Callable[[], bool],
    cpu_reader: Callable[[], float],
    ctrl: Control,
    on_op: Optional[Callable[[int], None]] = None,
    rss_reader: Optional[Callable[[], float]] = None,
    rss_ops: Optional[int] = None,
) -> Phase:
    """Run the synchronous ``op`` back to back for ``seconds``.

    ``op`` returns whether its output checks passed. ``cpu_reader``
    reads the system under test's cumulative CPU seconds.
    """
    ph = Phase(cpu_reader, ctrl, rss_reader, rss_ops)
    lat = ph.latencies
    end = perf_counter() + seconds
    i = 0
    while True:
        if on_op is not None:
            on_op(i)
        t0 = perf_counter()
        if t0 >= end:
            break
        ok = op()
        lat.append(perf_counter() - t0)
        if not ok:
            ph.failed += 1
        i += 1
        ph.pause()
    ph.finish()
    return ph


def end_to_end(setup_s: float, ph: Phase, tail_q: float):
    """The end-to-end metric block every workload reports, plus the raw
    (unadjusted) values for the human-readable table.

    The ``_adj`` values are expressed at the reference control time
    :data:`CTRL_REF_MS`. An op in a block whose control ran 10 % slow has
    its time divided by 1.1, and the block's rate and CPU per op are
    scaled the same way. The tail is a handful of ops from a few blocks,
    and scaling them by those blocks' few samples would add the control's
    own noise, so the tail is scaled by the run's median control instead.
    """
    lat_raw = ph.latencies_ms(adjusted=False)
    raw = {
        "ops_per_s": ph.ops_per_s(adjusted=False),
        "op_p50_ms": percentile(lat_raw, 0.5),
        "op_tail_ms": percentile(lat_raw, tail_q),
        "cpu_ms_per_op": ph.cpu_ms_per_op(adjusted=False),
    }
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s_adj": {"value": ph.ops_per_s(adjusted=True), "unit": "1/s"},
        "op_p50_ms_adj": {
            "value": percentile(ph.latencies_ms(adjusted=True), 0.5),
            "unit": "ms",
        },
        "op_tail_ms_adj": {
            "value": raw["op_tail_ms"] * CTRL_REF_MS / ph.ctrl_ms,
            "unit": "ms",
        },
        "cpu_ms_per_op_adj": {"value": ph.cpu_ms_per_op(adjusted=True), "unit": "ms"},
        "peak_rss_mb": {"value": ph.peak_rss_mb, "unit": "MB"},
    }
    return metrics, raw


def print_metrics(title: str, metrics: Dict[str, dict], samples: Dict[str, str]) -> None:
    """Human-readable table: every metric by name, unit and sample count."""
    print(f"== {title}")
    for name, m in metrics.items():
        note = samples.get(name, "")
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} {note}")


def print_end_to_end(title, metrics, raw, ph: Phase, cycles: int, tail_q: float, notes=None) -> None:
    """The end-to-end table: adjusted values, sample counts, raw values."""
    n, blocks = ph.ops, len(ph.full_blocks())
    samples = {
        "setup_s": f"(median of {cycles} set-up cycles)",
        "ops_per_s_adj": f"(median of {blocks} blocks, n={n}; raw {raw['ops_per_s']:.6g})",
        "op_p50_ms_adj": f"(n={n}; raw {raw['op_p50_ms']:.6g})",
        "op_tail_ms_adj": f"(p{tail_q * 100:g}, n={n}, {n - int(tail_q * n)} beyond; "
        f"raw {raw['op_tail_ms']:.6g})",
        "cpu_ms_per_op_adj": f"(median of {blocks} blocks; raw {raw['cpu_ms_per_op']:.6g})",
        "peak_rss_mb": f"(after {ph.rss_at_ops} ops)",
    }
    samples.update(notes or {})
    print_metrics(title, metrics, samples)
    print(
        f"host.ctrl_ms {ph.ctrl_ms:.4f} (n={len(ph.ctrl_samples)}); "
        f"_adj metrics are scaled to a {CTRL_REF_MS} ms control"
    )


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, dict]) -> None:
    """The result line: last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
