"""Benchmark of the Jansen–Zhang scheduling pipeline, end to end and by
layer.

Run from the repository root:

    python3 perfbench/run.py --workload lp_heavy --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
traced variant and prints every per-layer metric.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every op's
output passed its correctness check.

The measured process is a child of this one.  For ``setup_s`` the set-up
(interpreter start, imports, input generation, warm-up solve, daemon
boot and pool warm-up) runs three times in fresh processes, and the
median of the three spawn-to-ready times is reported.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "
#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
SETUP_TRIALS = 3
#: Wall budget of one invocation; the contract allows 180 s.
BUDGET_S = 170.0
#: The solver is single-threaded; idle BLAS/OpenMP worker threads on a
#: small shared machine only add scheduling noise to the timings.  The
#: children (and the ``service`` daemon they start) inherit this.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"),
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# child: set up, measure, check
# ---------------------------------------------------------------------------
def child(args) -> int:
    sys.path.insert(0, SRC)
    from metrics import end_to_end_names, per_layer_names, unit_of
    from stats import OK, failed_frac
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, root=ROOT)
    try:
        wl.setup()
        print(READY, flush=True)
        if args.role == "setup":
            return 0
        wl.run(args.seconds, bool(args.trace))
        wl.check()
    finally:
        wl.close()

    outcomes = [o.outcome for o in wl.ops]
    if args.trace:
        values = wl.per_layer()
        names = per_layer_names()
    else:
        values = wl.end_to_end()
        names = [n for n in end_to_end_names() if n != "setup_s"]
    values["failed_frac"] = failed_frac(outcomes)
    extras = {} if args.trace else wl.latency_metrics()
    extras["failed_frac"] = values["failed_frac"]
    result = {
        "correct": not wl.failures and all(o == OK for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o != OK),
        "metrics": {
            n: {"value": float(values.get(n, 0.0)), "unit": unit_of(n)}
            for n in names
        },
        "extras": extras,
        "failures": wl.failures[:20],
    }
    print(RESULT + json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# parent: spawn children, time set-up, print the result
# ---------------------------------------------------------------------------
def spawn(args, role, deadline):
    """Run one child; returns (spawn-to-ready seconds, result or None)."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role]
    t0 = time.perf_counter()
    # A session of its own, so that a child stopped by the watchdog takes
    # the daemon and pool worker it started down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True,
                            env={**os.environ, **ONE_THREAD},
                            start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               kill_group)
    watchdog.start()
    ready_s, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith(READY) and ready_s is None:
                ready_s = time.perf_counter() - t0
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
    if proc.returncode != 0 or ready_s is None:
        raise RuntimeError(
            f"{role} child exited with {proc.returncode}"
            + ("" if ready_s is not None else " before set-up finished")
        )
    return ready_s, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role is not None:
        return child(args)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    from metrics import DROPPED, WORKLOAD_NAMES, end_to_end_names

    known = WORKLOAD_NAMES + tuple(DROPPED)
    if args.workload not in known:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(known)})", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_TRIALS - 1):
                setups.append(spawn(args, "setup", deadline)[0])
        ready_s, result = spawn(args, "measure", deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if result is None:
        print("perfbench: the measuring child printed no result",
              file=sys.stderr)
        return 1
    setups.append(ready_s)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups),
                              "unit": "s"}
        metrics = {n: metrics[n] for n in end_to_end_names()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    extras = result["extras"]
    if extras.get("latency_samples"):
        p90 = extras["latency_p90_s"]
        n = int(extras["latency_samples"])
        print(f"{args.workload} (extra) latency_p90_s = "
              + (f"{p90:.6g} s over {n} ops" if p90 else
                 f"not reported: {n} ops, 10 must lie beyond it"))
    for name in ("hit_latency_p50_s", "hit_latency_p90_s",
                 "miss_latency_p50_s", "miss_latency_p90_s",
                 "replan_latency_p50_s"):
        if extras.get(name):
            print(f"{args.workload} (extra) {name} = {extras[name]:.6g} s")
    print(f"{args.workload} (extra) failed_frac = "
          f"{extras['failed_frac']:.6g} of {result['attempted']} ops")
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    line = {k: result[k] for k in ("correct", "attempted", "failed")}
    line["metrics"] = metrics
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
