"""Benchmark of the FLIPS reproduction: four FL workloads, end to end
and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_table --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

``--trace 0`` runs untraced passes and reports the end-to-end metrics
named in ``BENCHMARK.json``; ``--trace 1`` runs each pass seed once
untraced and once traced, and reports the per-layer metrics plus the
tracing overhead.  ``--workload all`` runs every workload in its own
child process, one after another, so that one workload's peak memory
cannot carry into another's.

Human-readable lines come first.  The line before last is a ``record``
with the environment (git sha, cores, BLAS threads, versions, time).
The last line is one JSON object: ``correct``, ``attempted`` and
``failed`` (jobs) and ``metrics``.  See README.md for the workloads and
the layer-to-metric table.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: ``--workload all`` kills a workload's child process after this long.
CHILD_TIMEOUT_S = 180.0
_PR_SET_PDEATHSIG = 1


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")
    return args


def _die_with(parent: int) -> None:
    """In a fresh child: ask the kernel to SIGKILL this process when its
    parent exits (Linux ``PR_SET_PDEATHSIG``)."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0 or \
            os.getppid() != parent:
        os._exit(1)


def _run_all(args, spec) -> int:
    attempted = failed = 0
    correct = True
    metrics = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        # Its own process group, so a timeout kills whatever the child
        # started too; and it dies with this process if this one is
        # killed, so no workload outlives the command.
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, process_group=0,
            preexec_fn=functools.partial(_die_with, os.getpid()))
        try:
            out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            out, _ = child.communicate()
        sys.stdout.write(out)
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            print(f"FAILED workload {name}: exit {child.returncode}, "
                  "no result")
            attempted, failed, correct = attempted + 1, failed + 1, False
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"perfbench: no program to measure under {ROOT} "
              "(needs src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return _run_all(args, spec)
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {names} or 'all'", file=sys.stderr)
        return 2
    # BLAS threads change timings, so pin them unless the caller chose,
    # and record the value.  One thread: on a shared host, threads on
    # cores that slow down independently wait for the slowest, and the
    # reference kernel (refclock.py) calibrates the one core in use.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    return measure.run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
