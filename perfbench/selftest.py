"""Self-test of the benchmark command: results well formed, and nothing
left behind whether a run passes, is killed, or has no program to run.

Usage, from the repository root (about a minute)::

    python3 perfbench/selftest.py

Each check starts ``run.py`` in its own session and afterwards asserts
that no process of that session is still alive and that no new
shared-memory segment appeared under ``/dev/shm``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _session_members(sid: int) -> "list[int]":
    """Live processes whose session id is ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry))
    return members


def _segments() -> "set[str]":
    return set(os.listdir("/dev/shm"))


def _run(args, cwd=ROOT, kill_after=None, timeout=600):
    """Run ``run.py`` with ``args``; returns (exit code, stdout)."""
    before = _segments()
    child = subprocess.Popen(
        [sys.executable, str(Path(cwd, "perfbench", "run.py")), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True)
    try:
        if kill_after is not None:
            time.sleep(kill_after)
            os.killpg(child.pid, signal.SIGKILL)
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        out, _ = child.communicate()
        raise AssertionError(f"{args} did not exit within {timeout} s")
    deadline = time.monotonic() + 5.0
    while _session_members(child.pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    left = _session_members(child.pid)
    assert not left, f"{args} left processes running: {left}"
    new = _segments() - before
    assert not new, f"{args} left shared-memory segments: {sorted(new)}"
    return child.returncode, out


def _result(out: str, names: "list[str]") -> dict:
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == names, list(result["metrics"])
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float), metric
    return result


def check_untraced_run() -> None:
    code, out = _run(["--workload", "batched_eval", "--seed", "0",
                      "--seconds", "1", "--trace", "0"])
    assert code == 0
    _result(out, [m["name"] for m in SPEC["end_to_end"]])


def check_traced_run() -> None:
    code, out = _run(["--workload", "batched_mlp", "--seed", "0",
                      "--seconds", "1", "--trace", "1"])
    assert code == 0
    _result(out, [m["name"] for m in SPEC["per_layer"]])


def check_every_workload() -> None:
    code, out = _run(["--workload", "all", "--seed", "0",
                      "--seconds", "1", "--trace", "0"])
    assert code == 0
    names = [f"{w['name']}.{m['name']}" for w in SPEC["workloads"]
             for m in SPEC["end_to_end"]]
    _result(out, names)


def check_killed_run() -> None:
    _run(["--workload", "all", "--seed", "0", "--seconds", "20",
          "--trace", "1"], kill_after=3.0)


def check_without_program() -> None:
    """Only BENCHMARK.json and the benchmark's own files: the command
    must fail without printing a result."""
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        code, out = _run(["--workload", "paper_table", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], cwd=bare,
                         timeout=180)
        assert code != 0
        assert "metrics" not in out
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures = 0
    for check in (check_without_program, check_untraced_run,
                  check_traced_run, check_killed_run,
                  check_every_workload):
        try:
            check()
        except AssertionError as error:
            failures += 1
            print(f"FAIL {check.__name__}: {error}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
