"""The benchmark's workloads: which FL jobs one pass runs, and the
checks every finished job must pass.

A pass is a list of :class:`~repro.experiments.ExperimentConfig` jobs
run back to back through :func:`repro.experiments.run_experiment` with
the runner caches cleared first, so every pass pays its own data
synthesis and clustering.  Why each workload exists is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.experiments import ExperimentConfig, bench_config

#: The selectors of the paper's Tables 1/2, in column order.
PAPER_SELECTORS = ("random", "flips", "oort", "grad_cls", "tifl")

#: paper_table: FLIPS's peak may trail random's by at most this much,
#: the same tolerance the table benchmarks allow.
PEAK_TOLERANCE = 0.05


@dataclass(frozen=True)
class Workload:
    """One workload: ``jobs(seed)`` gives a pass's configs.

    ``pass_s`` is the nominal wall time of one pass on the reference
    machine (2 cores).  The pass count of a run is
    ``round(seconds / pass_s)``: a fixed budget decided before anything
    is timed, never by how the samples look.
    """

    name: str
    pass_s: float
    jobs: Callable[[int], "list[ExperimentConfig]"]


def _paper_table(seed: int) -> "list[ExperimentConfig]":
    base = bench_config("ecg", algorithm="fedyogi", alpha=0.3,
                        participation=0.15, seed=seed)
    return [base.with_overrides(selector=s) for s in PAPER_SELECTORS]


def _batched_eval(seed: int) -> "list[ExperimentConfig]":
    return [ExperimentConfig(
        dataset="ecg", selector="flips", algorithm="fedavg",
        n_parties=64, participation=0.25, rounds=100,
        n_train=3200, n_test=8000, model="softmax",
        local_epochs=2, batch_size=16, backend="batched", seed=seed)]


def _batched_mlp(seed: int) -> "list[ExperimentConfig]":
    return [ExperimentConfig(
        dataset="ecg", selector="flips", algorithm="fedprox",
        n_parties=64, participation=0.25, rounds=40,
        n_train=12800, n_test=4000, model="mlp",
        local_epochs=3, batch_size=32, backend="batched",
        eval_every=5, eval_subsample=512, seed=seed)]


def _dynamic_async(seed: int) -> "list[ExperimentConfig]":
    return [bench_config(
        "ecg", selector="flips", algorithm="fedavg",
        population_scale=125, participation=0.005,
        availability="diurnal", availability_rate=0.6, churn=0.05,
        deadline_factor=1.25, device_tiers=True,
        aggregation_mode="buffered",
        compression="importance", quantize_bits=8, pruning_fraction=0.25,
        quarantine=True, fault_drop=0.05, fault_corrupt=0.05,
        seed=seed)]


WORKLOADS = {w.name: w for w in (
    Workload("paper_table", 3.2, _paper_table),
    Workload("batched_eval", 0.4, _batched_eval),
    Workload("batched_mlp", 0.55, _batched_mlp),
    Workload("dynamic_async", 5.0, _dynamic_async),
)}


def check_job(config: ExperimentConfig, history,
              trainer) -> "list[str]":
    """Problems with one finished job; empty when its outputs hold.

    A cohort that names a party twice is not checked here: the program
    refuses it (``SelectionStrategy.validated_select`` raises), so such
    a job raises and counts as failed."""
    problems = []
    if len(history) != config.rounds:
        problems.append(
            f"history has {len(history)} rounds, budget is {config.rounds}")
    accuracy = history.accuracy_series()
    if not (np.isfinite(accuracy).all() and (accuracy >= 0).all()
            and (accuracy <= 1).all()):
        problems.append("a balanced accuracy is not finite or not in [0, 1]")
    downloads = np.cumsum([len(r.cohort) for r in history.records])
    uploads = np.cumsum([len(r.received) + r.updates_quarantined
                         for r in history.records])
    if (uploads > downloads).any():
        problems.append("cumulative uploads exceed downloads")
    if not np.isfinite(trainer.global_parameters).all():
        problems.append("the global model is not finite")
    if config.fault_corrupt > 0 and config.quarantine and \
            history.total_quarantined() == 0:
        problems.append("corrupt faults were injected but none quarantined")
    return problems


def check_pass(configs: "list[ExperimentConfig]",
               peak_accuracies: "list[float | None]") -> "dict[int, str]":
    """Cross-job problems of one pass, keyed by the failing job's index.

    ``peak_accuracies`` holds each job's peak balanced accuracy (None
    for a job that raised).  When the pass ran the paper's selectors
    side by side, FLIPS's peak must be at least random's minus
    :data:`PEAK_TOLERANCE`.
    """
    peaks = {c.selector: p for c, p in zip(configs, peak_accuracies)
             if p is not None}
    if {"flips", "random"} <= peaks.keys() and \
            peaks["flips"] < peaks["random"] - PEAK_TOLERANCE:
        flips = next(i for i, c in enumerate(configs)
                     if c.selector == "flips")
        return {flips: (f"FLIPS peak {peaks['flips']:.4f} is below random "
                        f"peak {peaks['random']:.4f} - {PEAK_TOLERANCE}")}
    return {}
