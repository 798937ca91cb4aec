"""Span recording for the traced run, installed from outside the program.

Nothing under ``src/`` knows about these spans: :class:`SpanRecorder`
replaces a class attribute (a layer's public method) with a wrapper that
stamps ``perf_counter`` on entry and exit and restores the original on
:meth:`SpanRecorder.uninstall`. ``perf_counter`` is CLOCK_MONOTONIC on
Linux, so spans recorded in the service's server process line up with
the load generator's own stamps.

Each span keeps its name (``layer.function``), start, end, parent span,
op id and thread. Spans of one thread nest through a thread-local stack;
a span's *self* time is its duration minus the time its child spans
cover (children on one thread never overlap, so that is their sum).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

perf_counter = time.perf_counter

# (span id, name, start, end, self seconds, parent id, op id, thread id)
Span = Tuple[int, str, float, float, float, int, int, int]


class SpanRecorder:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Op id stamped on every span; the load generator advances it.
        self.op = 0
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patched: List[Tuple[type, str, object]] = []
        #: Thread id -> thread name, filled on each thread's first span.
        self.thread_names: Dict[int, str] = {}

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
            self.thread_names[threading.get_ident()] = threading.current_thread().name
        return stack

    def _wrap(self, fn, name: str, op_of=None):
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        tid_of = threading.get_ident

        def enter(args):
            if op_of is not None:
                self.op = op_of(args)
            stack = stack_of()
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            return stack, frame, parent

        def leave(stack, frame, parent, t0):
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            spans.append(
                (frame[0], name, t0, t1, dur - frame[1], parent, self.op, tid_of())
            )

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                stack, frame, parent = enter(args)
                t0 = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    leave(stack, frame, parent, t0)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, frame, parent = enter(args)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(stack, frame, parent, t0)

        return wrapper

    def install(self, targets) -> None:
        """Wrap every ``(class, attribute, span name[, op_of])`` in ``targets``.

        ``op_of(args)``, when given, sets the op id from the call's
        arguments on entry (the service's server has no op counter).
        """
        for cls, attr, name, *op_of in targets:
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(orig, name, *op_of))
            self._patched.append((cls, attr, orig))

    def uninstall(self) -> None:
        for cls, attr, orig in reversed(self._patched):
            setattr(cls, attr, orig)
        self._patched.clear()

    # -- analysis -------------------------------------------------------------

    def by_name(self) -> Dict[str, List[Span]]:
        out: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            out[span[1]].append(span)
        return out


def runtime_targets():
    """The public layer functions wrapped in the in-process workloads."""
    from repro.core.dependences import StreamWindow
    from repro.core.memory import MemoryManager
    from repro.core.process_backend import ProcessBackend
    from repro.core.runtime import HStreams
    from repro.core.scheduler import Scheduler
    from repro.core.thread_backend import ThreadBackend

    return [
        (HStreams, "__init__", "runtime.init"),
        (HStreams, "fini", "runtime.fini"),
        (HStreams, "stream_create", "runtime.stream_create"),
        (HStreams, "buffer_create", "runtime.buffer_create"),
        (HStreams, "enqueue_compute", "runtime.enqueue_compute"),
        (HStreams, "enqueue_xfer", "runtime.enqueue_xfer"),
        (HStreams, "event_stream_wait", "runtime.event_stream_wait"),
        (HStreams, "thread_synchronize", "runtime.thread_synchronize"),
        (HStreams, "replay", "replay.replay"),
        (Scheduler, "enqueue", "scheduler.enqueue"),
        (Scheduler, "admit_instance", "scheduler.admit_instance"),
        (Scheduler, "on_complete", "scheduler.on_complete"),
        (StreamWindow, "deps_for", "dependences.deps_for"),
        (MemoryManager, "on_enqueue", "memory.on_enqueue"),
        (MemoryManager, "on_action_complete", "memory.on_action_complete"),
        (ThreadBackend, "execute", "thread_backend.execute"),
        (ThreadBackend, "signal_completion", "thread_backend.signal_completion"),
        # Workers start lazily on the first remote compute, so worker
        # start-up is timed here rather than at HStreams construction.
        (ProcessBackend, "_ensure_worker", "process_backend.ensure_worker"),
    ]


def write_chrome_trace(path: str, tracks: list) -> None:
    """Write spans as Chrome/Perfetto ``traceEvents``.

    ``tracks`` holds ``(pid, process name, spans, thread names)`` per
    process; every thread becomes its own track, and each span carries
    its op id, span id, parent id and self time in ``args``.
    """
    starts = [s[2] for _, _, spans, _ in tracks for s in spans]
    base = min(starts) if starts else 0.0
    events = []
    for pid, pname, spans, names in tracks:
        events.append({"name": "process_name", "ph": "M", "pid": pid, "args": {"name": pname}})
        tids: Dict[int, int] = {}
        for sid, name, t0, t1, self_s, parent, op, tid in spans:
            track = tids.setdefault(tid, len(tids) + 1)
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (t0 - base) * 1e6,
                    "dur": (t1 - t0) * 1e6,
                    "pid": pid,
                    "tid": track,
                    "args": {"op": op, "span": sid, "parent": parent, "self_us": self_s * 1e6},
                }
            )
        for tid, track in tids.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": track,
                    "args": {"name": names.get(tid, f"thread {tid}")},
                }
            )
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
