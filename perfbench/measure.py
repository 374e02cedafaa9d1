"""In-process measurement of one workload: passes, probes, checks,
metrics and the result line.  ``run.py`` imports this module after it
has pinned the BLAS threads and put ``src/`` on the path.
"""

from __future__ import annotations

import contextlib
import datetime
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.experiments import clear_cache, run_experiment, smoke_config
from refclock import reference_kernel
from tracing import Probe, Tracer
from workloads import WORKLOADS, check_job, check_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run starts no new pass after this many seconds, so it always exits
#: well inside the 180 s a run may take; skipped jobs count as failed.
HARD_LIMIT_S = 120.0
#: A job slower than this multiple of its workload's nominal pass time
#: overran its budget and counts as failed.
OVERRUN_FACTOR = 5.0

#: Outcome metrics of the FLIPS jobs, averaged over the pass seeds.
MEANS = ("peak_bal_acc", "uplink_mb")
#: Printed, not bounded: across seeds they move by more than the 25 %
#: a bound may allow (README.md, "End-to-end metrics").
UNBOUNDED = ("rounds_to_target", "sim_time_to_target_s")

_clock = time.perf_counter


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _stats(values) -> dict:
    """Median, quartiles and sample count of a list of numbers."""
    values = [float(v) for v in values]
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


@dataclass
class _Job:
    """What one finished (or failed) job leaves behind: numbers only, so
    no trainer or federation outlives its job.  Times are scaled to the
    reference machine speed (``refclock.py``) except ``raw_wall``."""

    config: object
    problems: list
    wall: float = 0.0
    raw_wall: float = 0.0
    setup: float = 0.0
    gaps: list = field(default_factory=list)
    updates: int = 0
    quality: "dict | None" = None
    uplink_reduction: float = 0.0
    mean_staleness: float = 0.0
    kernels: list = field(default_factory=list)


def _run_job(config, probe, tracer, budget_s, calibrate) -> _Job:
    probe.begin_job(calibrate)
    root = None if tracer is None else tracer.open("job")
    try:
        history = run_experiment(config)
        probe.end_job()
        if tracer is not None:
            tracer.close(root)
        return _finished(config, history, probe, budget_s)
    except Exception:  # the run goes on; the job counts as failed
        traceback.print_exc(file=sys.stderr)
        if tracer is not None:
            tracer.close_all()
        return _Job(config, ["raised (traceback on stderr)"])
    finally:
        probe.trainer = None


def _finished(config, history, probe, budget_s) -> _Job:
    clock, started = probe.clock, probe.started
    raw_wall = clock.raw_seconds(started, probe.ended)
    problems = check_job(config, history, probe.trainer)
    if raw_wall > budget_s:
        problems.append(f"took {raw_wall:.2f} s, budget {budget_s:.2f} s")
    rounds = config.rounds
    hit = history.rounds_to_target(config.target_accuracy)
    reached = history.time_to_target(config.target_accuracy)
    staleness = history.mean_staleness()
    marks = [probe.run_entered] + probe.appended
    return _Job(
        config, problems,
        wall=clock.seconds(started, probe.ended), raw_wall=raw_wall,
        setup=clock.seconds(started, probe.run_entered),
        gaps=[clock.seconds(a, b) for a, b in zip(marks, marks[1:])],
        updates=sum(len(r.received) + r.updates_quarantined
                    for r in history.records),
        quality={
            "peak_bal_acc": history.peak_accuracy(),
            "rounds_to_target": rounds + 1 if hit is None else hit,
            "sim_time_to_target_s": (
                history.wall_clock() * (rounds + 1) / rounds
                if reached is None else reached),
            "uplink_mb": history.total_uplink_bytes() / 1e6,
        },
        uplink_reduction=probe.trainer.comm.uplink_reduction,
        mean_staleness=0.0 if np.isnan(staleness) else staleness,
        kernels=clock.kernels())


def _run_pass(workload, seed, probe, traced, calibrate) -> dict:
    """One pass: every job of the workload on ``seed``, caches cold."""
    configs = workload.jobs(seed)
    clear_cache()
    gc.collect()
    budget = OVERRUN_FACTOR * workload.pass_s
    tracer = Tracer() if traced else None
    with tracer if tracer is not None else contextlib.nullcontext():
        jobs = [_run_job(c, probe, tracer, budget, calibrate)
                for c in configs]
    clear_cache()
    peaks = [j.quality["peak_bal_acc"] if j.quality else None
             for j in jobs]
    for index, problem in check_pass(configs, peaks).items():
        jobs[index].problems.append(problem)
    return {"seed": seed, "traced": traced, "jobs": jobs,
            "wall": sum(j.wall for j in jobs),
            "raw_wall": sum(j.raw_wall for j in jobs), "tracer": tracer}


def _layer_metrics(tracer, jobs) -> dict:
    """Per-layer metrics of one traced pass (names as in README.md)."""
    calls, total, own = tracer.totals()
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    folds = sum(len(j.gaps) for j in jobs)   # one per round record
    dispatches = calls["execution.execute"]
    done = [j for j in jobs if j.quality is not None]
    return {
        "data.build_s": total["data.build"],
        "data.rows": counts["data.rows"],
        "clustering.fit_s": total["clustering.fit"],
        "clustering.kmeans_fits": calls["clustering.kmeans"],
        "clustering.k": ratio(counts["clustering.k"],
                              calls["clustering.fit"]),
        "selection.select_s": total["selection.select"],
        "selection.selects": calls["selection.select"],
        "selection.report_s": total["selection.report"],
        "availability.mask_s": total["availability.mask"],
        "availability.deadline_s": total["availability.deadline"],
        "availability.online_frac": ratio(counts["availability.online"],
                                          counts["availability.masks"]),
        "planning.plan_s": own["planning.plan"],
        "planning.plans": calls["planning.plan"],
        "planning.empty_plans": counts["planning.empty_plans"],
        "planning.straggler_frac": ratio(counts["planning.stragglers"],
                                         counts["planning.cohort"]),
        "execution.execute_s": own["execution.execute"],
        "execution.dispatches": dispatches,
        "execution.arrival_frac": ratio(counts["execution.arrivals"],
                                        counts["execution.participants"]),
        "execution.retries": counts["execution.retries"],
        "ml.local_train_s": total["ml.local_train"],
        "ml.local_trains": calls["ml.local_train"],
        "ml.cohort_train_s": total["ml.cohort_train"],
        "ml.cohort_trains": calls["ml.cohort_train"],
        "ml.cohort_parties_per_call": ratio(counts["ml.cohort_parties"],
                                            calls["ml.cohort_train"]),
        "updates.compress_s": total["updates.compress"],
        "updates.validate_s": total["updates.validate"],
        "updates.quarantined": counts["updates.quarantined"],
        "updates.uplink_reduction": _mean(
            [j.uplink_reduction for j in done]),
        "algorithms.step_s": total["algorithms.step"],
        "algorithms.steps": calls["algorithms.step"],
        "aggregation.folds": folds,
        "aggregation.fold_s": own["aggregation.fold"],
        "aggregation.dispatches_per_fold": ratio(dispatches, folds),
        "aggregation.mean_staleness": _mean(
            [j.mean_staleness for j in done]),
        "evaluation.eval_s": total["evaluation.evaluate"],
        "evaluation.evals": calls["evaluation.evaluate"],
        "evaluation.fresh_frac": ratio(counts["evaluation.fresh"],
                                       calls["evaluation.evaluate"]),
        "engine.self_s": own["engine.run"],
        "trace.spans": len(tracer.spans),
    }


def _write_spans(path: Path, passes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for index, result in enumerate(passes):
            for span_id, (name, start, end, parent) in enumerate(
                    result["tracer"].spans):
                out.write(json.dumps({
                    "pass": index, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end}) + "\n")


def _children() -> "list[int]":
    """Live child processes of this process, from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def _reap(probe) -> "list[str]":
    """Kill and wait for every child process still running and remove
    every shared-memory segment the program created and left behind;
    returns what had to be cleaned up (empty when nothing leaked)."""
    leaks = []
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        leaks.append(f"child process {pid}")
    for name in probe.created_segments:
        path = Path("/dev/shm", name.lstrip("/"))
        if path.exists():
            path.unlink()
            leaks.append(f"shared-memory segment {name}")
    return leaks


def _environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def _end_to_end_samples(results) -> dict:
    """Per-pass samples of the untraced passes, plus the pooled round
    times (``round_ms``) and the FLIPS jobs' outcome metrics."""
    untraced = [r for r in results if not r["traced"]]
    flips = [j.quality for r in untraced for j in r["jobs"]
             if j.config.selector == "flips" and j.quality]
    samples = {
        "wall_s": [r["wall"] for r in untraced],
        "raw_wall_s": [r["raw_wall"] for r in untraced],
        "reference_kernel_ms": [1000.0 * k for r in untraced
                                for j in r["jobs"] for k in j.kernels],
        "setup_s": [sum(j.setup for j in r["jobs"]) for r in untraced],
        "round_ms": [1000.0 * g for r in untraced for j in r["jobs"]
                     for g in j.gaps],
        "updates_per_s": [
            sum(j.updates for j in r["jobs"])
            / sum(j.wall - j.setup for j in r["jobs"])
            for r in untraced if all(j.quality for j in r["jobs"])],
    }
    for name in UNBOUNDED + MEANS:
        samples[name] = [q[name] for q in flips]
    return samples


def _per_layer_samples(results) -> dict:
    """Per-layer metrics of each traced pass, and the tracing overhead:
    traced minus untraced wall time of the same pass seed."""
    samples: "dict[str, list]" = {}
    walls: "dict[int, dict]" = {}
    for r in results:
        walls.setdefault(r["seed"], {})[r["traced"]] = r["wall"]
        if r["traced"]:
            for name, value in _layer_metrics(r["tracer"],
                                              r["jobs"]).items():
                samples.setdefault(name, []).append(value)
    samples["trace.overhead_s"] = [
        w[True] - w[False] for w in walls.values() if len(w) == 2]
    return samples


def _value(name: str, samples: dict, peak_rss_mb: float) -> "tuple":
    """The reported value of a metric and the note printed beside it."""
    if name == "peak_rss_mb":
        return peak_rss_mb, "one per process"
    if name.startswith("round_ms_p"):
        rounds = samples["round_ms"]
        value = statistics.quantiles(rounds, n=100)[int(name[10:]) - 1] \
            if len(rounds) > 1 else 0.0
        return value, f"n={len(rounds)} rounds"
    s = _stats(samples.get(name, []))
    spread = f"[q1 {s['q1']:.4f}, q3 {s['q3']:.4f}] n={s['n']}"
    if name in MEANS:
        return _mean(samples[name]), f"mean of {s['n']} FLIPS jobs {spread}"
    return s["median"], spread


def run(args, spec) -> int:
    """Measure one workload in this process and print its results."""
    workload = WORKLOADS[args.workload]
    passes = max(1, round(args.seconds / workload.pass_s))
    if args.trace:
        plan = [(i, traced) for i in range(max(1, passes // 2))
                for traced in ((False, True) if i % 2 == 0
                               else (True, False))]
    else:
        plan = [(i, False) for i in range(passes)]
    n_jobs = len(workload.jobs(0))
    # End-to-end times are scaled by the reference kernel; the traced
    # run compares plain wall times, so it runs no kernel.
    calibrate = not args.trace
    start = _clock()
    results, skipped, warm_failed = [], 0, 0
    with Probe() as probe:
        # Imports, first-call allocations and BLAS start-up are paid
        # once per process; keep them out of the first timed pass.
        try:
            run_experiment(smoke_config(
                backend=workload.jobs(0)[0].backend))
            reference_kernel()
        except Exception:  # counted below; the timed passes still run
            traceback.print_exc(file=sys.stderr)
            warm_failed = 1
        for index, traced in plan:
            if _clock() - start > HARD_LIMIT_S:
                skipped += n_jobs
                continue
            results.append(_run_pass(workload, args.seed * 1000 + index,
                                     probe, traced, calibrate))
    leaks = _reap(probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    jobs = [j for r in results for j in r["jobs"]]
    attempted = len(jobs) + skipped + 1   # + the warm-up job
    failed = sum(1 for j in jobs if j.problems) + skipped + warm_failed
    for j in jobs:
        for problem in j.problems:
            print(f"FAILED {j.config.selector} seed {j.config.seed}: "
                  f"{problem}")
    for leak in leaks:
        print(f"LEAKED {leak} (killed/removed)")
    if skipped:
        print(f"FAILED {skipped} jobs not started: run passed "
              f"{HARD_LIMIT_S:.0f} s")

    if args.trace:
        samples = _per_layer_samples(results)
        _write_spans(HERE / "out" /
                     f"{args.workload}-seed{args.seed}.spans.jsonl",
                     [r for r in results if r["traced"]])
        wanted = spec["per_layer"]
    else:
        samples = _end_to_end_samples(results)
        wanted = spec["end_to_end"]
    print(f"workload {args.workload}: {len(results)} passes, "
          f"{len(jobs)} jobs, seed {args.seed}, trace {args.trace}")
    values = {}
    for metric in wanted:
        name = metric["name"]
        values[name], note = _value(name, samples, peak_rss_mb)
        print(f"  {name:32s} {values[name]:14.4f} {metric['unit']}  {note}")
    info = {"failed_frac": failed / attempted}
    if not args.trace:
        for name, unit in zip(UNBOUNDED, ("rounds", "s")):
            info[name] = _mean(samples[name])
            print(f"  {name:32s} {info[name]:14.4f} {unit}  mean of "
                  f"{len(samples[name])} FLIPS jobs, not bounded")
    print(f"  {'failed_frac':32s} {info['failed_frac']:14.4f} ratio  "
          f"{failed} of {attempted} jobs")

    record = dict(_environment(), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  passes=len(results), info=info,
                  pass_walls=[r["wall"] for r in results],
                  raw_pass_walls=[r["raw_wall"] for r in results],
                  samples={k: _stats(v) for k, v in samples.items()})
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not leaks,
        "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted}}))
    return 0
