"""``service_rpc``: closed-loop RPCs against ``StreamService`` over a Unix socket.

The server is a child process forked after imports: a thread-backend
runtime behind ``StreamService`` + ``serve_unix`` with two tenants of
weight 1 and 2. The load generator is this process, one thread driving
two JSON-lines connections; each waits for its reply before sending the
next request (the protocol is in-order request/response). Each
connection runs sessions whose lengths come from the seed (geometric,
mean 4 submits), so about a third of the RPCs are ``open`` or ``close``.
Every ``submit`` runs one fixed pure-Python kernel. One op is one RPC.

The server is controlled over a pipe (CPU and RSS readings, tracing on
and off, stop); that channel is the benchmark's own and is never used
while RPCs are in flight.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import random
import resource
import selectors
import socket
import threading
import time

import harness
import layers
from spans import SpanRecorder, runtime_targets, write_chrome_trace

perf_counter = time.perf_counter

TENANTS = (("t1", 1.0), ("t2", 2.0))
CONNECTIONS = 2
MEAN_SESSION_SUBMITS = 4
#: Iterations of the submit kernel: about 0.1 ms of pure Python.
SPIN_ITERS = 1200
WARMUP_RPCS = 60
SETUP_CYCLES = 11
TAIL_Q = 0.99
#: The server's runtime keeps per-action trace events for its whole
#: life, so its RSS grows with RPCs done: read it after a fixed number
#: (about 8 s of the 25-s phase) so runs of different speed compare.
RSS_RPCS = 25_000


def spin(n: int) -> None:
    """The fixed pure-Python submit kernel."""
    acc = 0
    for i in range(n):
        acc += i * i
    if acc < 0:  # never true; keeps the loop's result live
        raise AssertionError(acc)


# -- server process --------------------------------------------------------------


def _server_targets():
    from repro.service import Session, StreamService

    def session_id(args):
        return args[0].id

    return runtime_targets() + [
        (Session, "submit", "service.submit", session_id),
        (Session, "close", "service.close", session_id),
        (StreamService, "session", "service.open"),
    ]


def _server_main(sock_path: str, ctrl) -> None:
    from repro import HStreams, make_platform
    from repro.core.scheduler import SchedulerObserver
    from repro.service import StreamService, serve_unix

    class CompletionStamps(SchedulerObserver):
        """Stamps each scheduler completion, for the bridge latency."""

        wants_deps = False

        def __init__(self) -> None:
            self.stamps = []

        def on_action_complete(self, action, record) -> None:
            self.stamps.append((perf_counter(), record))

    hs = HStreams(platform=make_platform("HSW", 1), backend="thread")
    hs.register_kernel("spin", fn=spin)
    service = StreamService(hs)
    for name, weight in TENANTS:
        service.register_tenant(name, weight=weight)

    async def main() -> None:
        loop = asyncio.get_running_loop()
        server = await serve_unix(service, sock_path)
        stopped = loop.create_future()
        tracing = {}

        def on_ctrl() -> None:
            cmd = ctrl.recv()
            if cmd == "usage":
                ctrl.send((time.process_time(), harness.self_rss_mb()))
            elif cmd == "trace_on":
                rec = SpanRecorder()
                obs = CompletionStamps()
                with hs.scheduler._lock:
                    hs.scheduler.observers.append(obs)
                gcm = harness.GcMeter().__enter__()
                rec.install(_server_targets())
                tracing.update(rec=rec, obs=obs, gcm=gcm)
                ctrl.send("ok")
            elif cmd == "trace_off":
                rec, obs, gcm = tracing["rec"], tracing["obs"], tracing["gcm"]
                rec.uninstall()
                gcm.__exit__(None, None, None)
                with hs.scheduler._lock:
                    hs.scheduler.observers.remove(obs)
                ctrl.send(
                    {
                        "spans": rec.spans,
                        "threads": rec.thread_names,
                        "stamps": [(t, r) for t, r in obs.stamps],
                        "gc_pause_s": gcm.pause_s,
                        "gc_gen2": gcm.collections[2],
                        "loop_tid": threading.get_ident(),
                        "pid": os.getpid(),
                    }
                )
            elif cmd == "stop" and not stopped.done():
                stopped.set_result(None)

        loop.add_reader(ctrl.fileno(), on_ctrl)
        ctrl.send("ready")
        await stopped
        loop.remove_reader(ctrl.fileno())
        snap = service.metrics()
        acts = hs.metrics()["actions"]
        await service.close()
        server.close()
        await server.wait_closed()
        hs.fini()
        ctrl.send(
            {
                "inflight": snap["inflight"],
                "sessions": snap["sessions"],
                "actions": acts,
                "cpu_s": time.process_time(),
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        )

    asyncio.run(main())


# -- load generator ----------------------------------------------------------------


class Conn:
    """One closed-loop JSON-lines connection with its seeded session plan."""

    def __init__(self, index: int, seed: int, path: str):
        self.index = index
        self.tenant = TENANTS[index % len(TENANTS)][0]
        self.rng = random.Random(f"{seed}:{index}")
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""
        self.sid = None
        self.left = 0
        self.closing = False
        #: (kind, t_send, session id, per-session submit index) in flight.
        self.pending = None
        self.submits = {}

    def session_length(self) -> int:
        n = 1
        while self.rng.random() >= 1.0 / MEAN_SESSION_SUBMITS:
            n += 1
        return n

    def send_next(self) -> None:
        if self.sid is None:
            req = {"op": "open", "tenant": self.tenant}
            kind, k = "open", -1
        elif self.left > 0 and not self.closing:
            req = {"op": "submit", "session": self.sid, "kernel": "spin", "args": [SPIN_ITERS]}
            kind = "submit"
            k = self.submits.get(self.sid, 0)
            self.submits[self.sid] = k + 1
            self.left -= 1
        else:
            req = {"op": "close", "session": self.sid}
            kind, k = "close", -1
        line = json.dumps(req).encode() + b"\n"
        self.pending = (kind, perf_counter(), self.sid, k)
        self.sock.sendall(line)

    def read_reply(self):
        """Return the parsed reply once a whole line arrived, else None."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk
        if b"\n" not in self.buf:
            return None
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)


class Client:
    """Drives the connections from one thread; records every RPC."""

    def __init__(self, seed: int, path: str):
        self.conns = [Conn(i, seed, path) for i in range(CONNECTIONS)]
        self.sel = selectors.DefaultSelector()
        for c in self.conns:
            self.sel.register(c.sock, selectors.EVENT_READ, c)
        self.errors = []
        #: Set when a connection dropped or stalled: the run is failed,
        #: and no further request is sent.
        self.broken = False
        self.reset()

    def reset(self, phase: harness.Phase = None) -> None:
        #: (kind, t_send, t_recv, session id, submit index, admit_latency)
        self.rpcs = []
        self.failed = 0
        self.rejected = 0
        self.phase = phase

    def _complete(self, c: Conn, reply: dict, t_recv: float) -> None:
        kind, t_send, sid, k = c.pending
        c.pending = None
        ok = bool(reply.get("ok"))
        admit = None
        if kind == "open":
            if ok:
                c.sid = int(reply["session"])
                c.left = c.session_length()
        elif kind == "close":
            c.sid = None
            c.closing = False
        else:
            admit = reply.get("admit_latency")
            if reply.get("code") == 429:
                self.rejected += 1
            ok = ok and reply.get("state") == "complete"
        if not ok:
            self.failed += 1
            self.errors.append(f"{kind} on session {sid}: {reply}")
        self.rpcs.append((kind, t_send, t_recv, sid, k, admit))
        if self.phase is not None:
            self.phase.latencies.append(t_recv - t_send)

    def run(self, seconds: float = None, rpcs: int = None) -> None:
        """Closed loop until ``seconds`` pass or ``rpcs`` complete.

        When the phase's control is due, no new request is sent; once
        both connections are idle the phase pauses (block boundary and
        control loop) and the loop resumes. A dropped or stalled
        connection fails the requests in flight and ends the run.
        """
        if not self.broken:
            try:
                self._loop(seconds, rpcs)
            except (ConnectionError, TimeoutError) as exc:
                lost = self.inflight()
                self.failed += lost
                self.errors.append(f"{lost} RPC(s) lost: {exc!r}")
                self.broken = True
        if self.phase is not None:
            self.phase.finish()

    def _loop(self, seconds, rpcs) -> None:
        end = perf_counter() + seconds if seconds is not None else None
        target = len(self.rpcs) + rpcs if rpcs is not None else None
        phase = self.phase

        def hold() -> bool:
            if end is not None and perf_counter() >= end:
                return True
            if target is not None and len(self.rpcs) + self.inflight() >= target:
                return True
            return phase is not None and phase.ctrl.due()

        for c in self.conns:
            c.send_next()
        accepting = True
        while True:
            if self.inflight() == 0:
                if end is not None and perf_counter() >= end:
                    break
                if target is not None and len(self.rpcs) >= target:
                    break
                if phase is not None:
                    phase.pause()
                for c in self.conns:
                    c.send_next()
                accepting = True
            for key, _ in self.sel.select(timeout=30.0) or [(None, None)]:
                if key is None:
                    raise TimeoutError("no reply from the server within 30 s")
                c = key.data
                reply = c.read_reply()
                if reply is None:
                    continue
                self._complete(c, reply, perf_counter())
                if accepting and hold():
                    accepting = False
                if accepting:
                    c.send_next()

    def inflight(self) -> int:
        return sum(1 for c in self.conns if c.pending is not None)

    def close_sessions(self) -> None:
        """Close every open session through the protocol, then disconnect."""
        for c in self.conns:
            if c.sid is not None and not self.broken:
                c.closing = True
                c.send_next()
                while c.pending is not None:
                    reply = c.read_reply()
                    if reply is not None:
                        self._complete(c, reply, perf_counter())
        for c in self.conns:
            self.sel.unregister(c.sock)
            c.sock.close()


class ServerHandle:
    """The forked server process plus its control pipe."""

    def __init__(self, path: str):
        ctx = multiprocessing.get_context("fork")
        self.ctrl, child = ctx.Pipe()
        self.proc = ctx.Process(target=_server_main, args=(path, child), daemon=True)
        self.proc.start()
        child.close()
        if not self.ctrl.poll(60.0) or self.ctrl.recv() != "ready":
            raise RuntimeError("service server did not start")

    def call(self, cmd: str):
        self.ctrl.send(cmd)
        if not self.ctrl.poll(60.0):
            raise TimeoutError(f"server did not answer {cmd!r}")
        return self.ctrl.recv()

    def stop(self) -> dict:
        try:
            return self.call("stop")
        finally:
            self.proc.join(timeout=30.0)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join()
            self.ctrl.close()


def run(seed: int, seconds: float, trace: bool, trace_path: str, out_dir: str):
    # Import the program before forking, so that the server's start-up
    # (part of set-up) does not pay for imports.
    import repro  # noqa: F401
    import repro.service  # noqa: F401

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.relpath(os.path.join(out_dir, f"svc{os.getpid()}.sock"))

    with harness.Control() as ctrl:
        return _run(seed, seconds, trace, trace_path, path, ctrl)


def _run(seed, seconds, trace, trace_path, path, ctrl):
    def setup():
        if os.path.exists(path):
            os.unlink(path)
        server = ServerHandle(path)
        client = Client(seed, path)
        client.run(rpcs=WARMUP_RPCS)
        if client.failed:
            raise RuntimeError(f"service warm-up failed: {client.errors[:3]}")
        return server, client

    def teardown(state) -> dict:
        server, client = state
        client.close_sessions()
        final = server.stop()
        if os.path.exists(path):
            os.unlink(path)
        return final

    setup_s, cycle_times, (server, client) = harness.setup_cycles(SETUP_CYCLES, setup, teardown)

    def server_cpu() -> float:
        return server.call("usage")[0]

    def server_rss() -> float:
        return server.call("usage")[1]

    try:
        if trace:
            base = harness.Phase(server_cpu, ctrl)
            client.reset(base)
            client.run(seconds=seconds / 2)
            base_rpcs = client.rpcs
            server.call("trace_on")
            ph = harness.Phase(server_cpu, ctrl)
            client.reset(ph)
            client.run(seconds=seconds / 2)
            traced = server.call("trace_off")
        else:
            ph = harness.Phase(server_cpu, ctrl, server_rss, RSS_RPCS)
            client.reset(ph)
            client.run(seconds=seconds)
        rpcs = client.rpcs
        failed = client.failed
    finally:
        final = teardown((server, client))
    errors = list(client.errors)
    ok = final["inflight"] == 0 and final["sessions"] == 0
    acts = final["actions"]
    if not ok:
        errors.append(f"after the run: inflight={final['inflight']} sessions={final['sessions']}")
    if acts["failed"] or acts["cancelled"] or acts["enqueued"] != acts["completed"]:
        ok = False
        errors.append(f"server action counters: {acts}")
    print(
        f"check: inflight={final['inflight']} live sessions={final['sessions']} "
        f"server actions={acts['completed']}/{acts['enqueued']} complete: {ok}"
    )
    ph.failed = failed
    if not trace:
        n = ph.ops
        submits = sum(1 for r in rpcs if r[0] == "submit")
        metrics, raw = harness.end_to_end(setup_s, ph, TAIL_Q)
        harness.print_end_to_end(
            "service_rpc",
            metrics,
            raw,
            ph,
            len(cycle_times),
            TAIL_Q,
            {"peak_rss_mb": f"(server process, after {ph.rss_at_ops} of {n} RPCs; "
             f"{submits} submits)"},
        )
        return ok and failed == 0, n, failed, metrics, errors

    metrics = _layer_metrics(base_rpcs, rpcs, traced, ctrl.samples, client.rejected, trace_path)
    return ok and failed == 0, len(base_rpcs) + len(rpcs), failed, metrics, errors


def _layer_metrics(base, rpcs, traced, ctrl_samples, rejected, trace_path):
    rec = SpanRecorder()
    rec.spans = traced["spans"]
    ops = len(rpcs)
    by = rec.by_name()
    values = layers.span_metrics(rec, ops)

    # Match server-side submit spans and completion stamps to the client's
    # submits by (session id, index within the session): each connection
    # has one request in flight, so both sides see a session's submits in
    # the same order.
    submit_spans = {}
    for s in sorted(by.get("service.submit", ()), key=lambda s: s[2]):
        submit_spans.setdefault(s[6], []).append(s)
    stamps = {}
    for t, r in traced["stamps"]:
        sid = int(r.label.split("/s", 1)[1].split(":", 1)[0])
        stamps.setdefault(sid, []).append(t)
    transport_in, bridge, admit, exec_seg = [], [], [], []
    for kind, t_send, t_recv, sid, k, admit_latency in rpcs:
        if kind != "submit":
            continue
        if admit_latency is not None:
            admit.append(admit_latency * 1e6)
        spans = submit_spans.get(sid, [])
        done = stamps.get(sid, [])
        if k < len(spans):
            transport_in.append((spans[k][2] - t_send) * 1e6)
        if k < len(done):
            bridge.append((t_recv - done[k]) * 1e6)
            if k < len(spans):
                exec_seg.append(done[k] - spans[k][3])
    records = [r for _, r in traced["stamps"]]
    wall = sum(r[2] - r[1] for r in rpcs)
    values.update(layers.record_metrics(records, wall, CONNECTIONS))
    submits = sum(1 for r in rpcs if r[0] == "submit")
    session_rpcs = [(r[2] - r[1]) * 1e3 for r in rpcs if r[0] in ("open", "close")]
    loop_tid = traced["loop_tid"]
    covered = sum(
        s[3] - s[2] for s in rec.spans if s[7] == loop_tid and s[5] == 0
    ) + sum(exec_seg)
    values.update(
        {
            "service.transport_in_us_p50": harness.percentile(transport_in, 0.5),
            "service.submit_us_p50": harness.percentile(
                layers.durations_us(by.get("service.submit", ())), 0.5
            ),
            "service.admit_wait_us_p50": harness.percentile(admit, 0.5),
            "service.bridge_us_p50": harness.percentile(bridge, 0.5),
            "service.session_rpc_ms_p50": harness.percentile(session_rpcs, 0.5),
            "service.rejected_share": rejected / max(1, submits),
            # What no server span or action lifecycle covers: the
            # transport, the asyncio loop and the completion bridge.
            "trace.unattributed_share": max(0.0, 1.0 - covered / max(1e-12, wall)),
        }
    )
    metrics = layers.assemble(
        values,
        base_p50_s=harness.percentile([r[2] - r[1] for r in base], 0.5),
        traced_p50_s=harness.percentile([r[2] - r[1] for r in rpcs], 0.5),
        ctrl_ms=harness.median(ctrl_samples) * 1e3,
        gc_pause_s=traced["gc_pause_s"],
        gc_gen2=traced["gc_gen2"],
        ops=ops,
        actions_per_op=submits / max(1, ops),
    )
    layers.print_self_times(rec, ops)
    harness.print_metrics(f"service_rpc (traced half, {ops} RPCs)", metrics, {})
    client_spans = [
        (i + 1, f"client.{kind}", t_send, t_recv, t_recv - t_send, 0, i, 0)
        for i, (kind, t_send, t_recv, _sid, _k, _a) in enumerate(rpcs)
    ]
    write_chrome_trace(
        trace_path,
        [
            (os.getpid(), "load generator", client_spans, {0: "source"}),
            (traced["pid"], "service server", rec.spans, traced["threads"]),
        ],
    )
    print(f"trace written: {trace_path} ({len(rec.spans) + len(client_spans)} spans)")
    return metrics
