"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload noop_dispatch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is imported from ``src/``
of that checkout; the benchmark changes nothing under it. With
``--trace 0`` the last line of standard output is the result object with
every end-to-end metric; with ``--trace 1`` the run is split into an
untraced and a traced half, the per-layer metrics come from the traced
half, and the spans are written as Chrome/Perfetto JSON under
``.perfbench_out/``. Workloads, metrics and what set-up covers are
described in ``perfbench/README.md``.

Exit status: 0 when every output check passed, 1 when one failed (the
result line is still printed, with ``"correct": false``), 2 on a usage
error or when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("noop_dispatch", "rtm_enqueue", "rtm_replay", "service_rpc")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # Pin the configuration: these switches would change which backend
    # or lock implementation runs under the same workload name.
    for var in ("REPRO_BACKEND", "REPRO_SANITIZE"):
        os.environ.pop(var, None)

    trace_path = os.path.join(OUT_DIR, f"trace_{args.workload}_seed{args.seed}.json")
    try:
        outcome = _run(args, trace_path)
    finally:
        _stop_resource_tracker()
    correct, attempted, failed, metrics, errors = outcome
    for err in errors[:10]:
        print(f"check failed: {err}")
    import harness

    harness.emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def _run(args, trace_path):
    if args.workload == "service_rpc":
        import wl_service

        return wl_service.run(args.seed, args.seconds, bool(args.trace), trace_path, OUT_DIR)
    import inproc

    if args.workload == "noop_dispatch":
        from wl_dispatch import NoopDispatch as cls
    elif args.workload == "rtm_enqueue":
        from wl_rtm import RtmEnqueue as cls
    else:
        from wl_rtm import RtmReplay as cls
    return inproc.run(cls(args.seed), args.seconds, bool(args.trace), trace_path)


def _stop_resource_tracker() -> None:
    """End the stdlib's resource-tracker process and wait for it.

    Shared-memory segments (process backend) start it on first use; it
    would otherwise outlive the run by however long it takes to notice
    this process exiting.
    """
    tracker_mod = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_mod, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
