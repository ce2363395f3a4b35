"""fig3: the paper's Figure-3 protocol, run serially.

``run_contamination_experiment`` with the four default methods, the
paper's five contamination levels, ``--seconds / 2.5`` repetitions
(rounded, at least one), train fraction 0.7, on the ECG-200-sized
substitute (133 normal / 67 abnormal) drawn from ``--seed``.  The work
per run is fixed by the arguments, so two commits run identical cells.
After the timed phase every AUC must be finite, every method must beat
chance over the table, and the AUC table must keep the Figure-3 shape
(OCSVM degrading with contamination, Dir.out flat); the table's digest
is recorded.

Why this workload: it is the paper's experiment, and it *writes* to the
detector layer (iForest tree building, OCSVM ν tuning and SMO fitting)
where serve only reads from it; forest-wide scoring barely moves it.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from common import HostSpeed, MachineProbe, Outcome, latency_summary, peak_rss_mb
from tracing import LayerTracer

from repro.core import methods as methods_module
from repro.core import pipeline as pipeline_module
from repro.core.methods import default_methods
from repro.data import make_ecg_dataset, square_augment
from repro.detectors.iforest import IsolationForest
from repro.detectors.ocsvm import OneClassSVM
from repro.engine import ExecutionContext
from repro.evaluation.experiment import (
    PAPER_CONTAMINATION_LEVELS,
    run_contamination_experiment,
)
from repro.evaluation.splits import contaminated_split
from repro.utils.random import check_random_state, spawn_random_states

#: Set-up samples taken before the timed phase, and again after it.
SETUP_SAMPLES = 4
TAIL_PERCENTILE = 90.0
#: Table checks recorded in the diagnostics but not gated.
RECORDED_ONLY = ("geometric_leads", "auc_in_band")
SECONDS_PER_REPETITION = 2.5

CELL_LAYERS = (
    "detectors.iforest.fit_ms",
    "detectors.iforest.score_ms",
    "detectors.ocsvm.fit_ms",
    "detectors.ocsvm.score_ms",
    "depth.dirout.score_ms",
    "depth.funta.score_ms",
)


class _CellTimingContext(ExecutionContext):
    """Serial context that times each (level, repetition) cell.

    ``run_contamination_experiment`` prepares every method and then
    hands the cells to ``context.imap``; the first ``imap`` call
    therefore marks the end of the experiment's set-up.  In a traced
    run, cells alternate between traced and untraced so the tracing
    overhead comes from the same process.  A host-speed reading is
    taken before every cell; the caller takes one after the last.
    """

    def __init__(self, tracer: LayerTracer | None, speed: HostSpeed):
        super().__init__(n_jobs=1)
        self.tracer = tracer
        self.speed = speed
        self.cells_started = None
        self.cell_s: list[float] = []
        self.cell_mid: list[float] = []
        self.traced: list[bool] = []

    def imap(self, fn, items, n_jobs=None, initializer=None, initargs=()):
        self.cells_started = time.perf_counter()

        def timed_cell(item):
            traced = self.tracer is not None and len(self.cell_s) % 2 == 0
            if self.tracer is not None:
                self.tracer.enabled = traced
            self.speed.read()
            start = time.perf_counter()
            records = fn(item)
            end = time.perf_counter()
            self.cell_s.append(end - start)
            self.cell_mid.append((start + end) / 2)
            self.traced.append(traced)
            return records

        return super().imap(
            timed_cell, items, n_jobs=1, initializer=initializer, initargs=initargs
        )


def _install(tracer: LayerTracer) -> None:
    tracer.patch(IsolationForest, "fit", "detectors.iforest.fit_ms")
    tracer.patch(IsolationForest, "score_samples", "detectors.iforest.score_ms")
    tracer.patch(OneClassSVM, "fit", "detectors.ocsvm.fit_ms")
    tracer.patch(OneClassSVM, "score_samples", "detectors.ocsvm.score_ms")
    # ν tuning is part of fitting the OCSVM head: opaque, so its inner
    # fits and decision calls stay in the fit layer.
    tracer.patch(methods_module, "tune_nu", "detectors.ocsvm.fit_ms", opaque=True)
    tracer.patch(methods_module, "dirout_scores", "depth.dirout.score_ms")
    tracer.patch(methods_module, "funta_outlyingness", "depth.funta.score_ms")
    tracer.patch(pipeline_module, "select_n_basis", "fda.selection.prepare_s")


def _prepare_all(mfd, seed: int, speed: HostSpeed) -> float:
    """One set-up: ``Method.prepare`` for the four methods, cold cache,
    scaled by host-speed readings taken just before and just after."""
    context = ExecutionContext(n_jobs=1)
    methods = default_methods()
    states = spawn_random_states(check_random_state(seed), len(methods))
    speed.read()
    start = time.perf_counter()
    for method, state in zip(methods, states):
        method.prepare(mfd, random_state=state, context=context)
    end = time.perf_counter()
    speed.read()
    return float(speed.scale([end - start], [(start + end) / 2])[0])


def _table_checks(table) -> dict[str, tuple[bool, tuple[float, ...]]]:
    """Checks on the AUC table: each maps to whether it held and the
    contamination levels it reads.

    ``beats_chance_<method>``: the method's AUC over all cells is above
    0.5 by three standard errors, so broken or inverted scores fail it.
    The rest are the Figure-3 shape assertions of
    ``bench_fig3_auc_vs_contamination``.
    """
    levels = tuple(table.contamination_levels)
    records = table.to_records()
    checks = {}
    for m in table.methods:
        aucs = np.array([r["auc"] for r in records if r["method"] == m], dtype=float)
        se = aucs.std(ddof=1) / np.sqrt(len(aucs))
        checks[f"beats_chance_{m}"] = (bool(aucs.mean() - 3.0 * se > 0.5), levels)
    for c in levels:
        best_baseline = max(table.mean("Dir.out", c), table.mean("FUNTA", c))
        best_geometric = max(
            table.mean("iFor(Curvmap)", c), table.mean("OCSVM(Curvmap)", c)
        )
        checks[f"geometric_leads_c{c:.2f}"] = (best_geometric > best_baseline - 0.02, (c,))
        checks[f"auc_in_band_c{c:.2f}"] = (
            all(0.55 < table.mean(m, c) <= 1.0 for m in table.methods), (c,)
        )
    checks["ocsvm_degrades"] = (
        table.mean("OCSVM(Curvmap)", 0.05) > table.mean("OCSVM(Curvmap)", 0.25),
        (0.05, 0.25),
    )
    dirout = [table.mean("Dir.out", c) for c in levels]
    checks["dirout_flat"] = (max(dirout) - min(dirout) < 0.08, levels)
    return checks


def table_digest(table) -> str:
    rows = sorted(
        (r["method"], r["contamination"], r["repetition"], float(r["auc"]).hex())
        for r in table.to_records()
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    tracer = LayerTracer() if trace else None
    if tracer is not None:
        _install(tracer)

    start = time.perf_counter()
    data, labels, _ = make_ecg_dataset(n_normal=133, n_abnormal=67, random_state=seed)
    mfd, labels = square_augment(data), np.asarray(labels)
    inputs_s = time.perf_counter() - start

    # Warm-up op, discarded: one prepare round and one cell.
    run_contamination_experiment(
        mfd, labels, default_methods(), contamination_levels=(0.15,),
        n_repetitions=1, train_fraction=0.7, random_state=seed + 1,
    )

    if tracer is not None:
        tracer.enabled = True
    speed = HostSpeed()
    setups = [_prepare_all(mfd, seed, speed) for _ in range(SETUP_SAMPLES)]
    selection_s = tracer.snapshot()["self_s"].get("fda.selection.prepare_s", 0.0) if tracer else 0.0

    repetitions = max(1, round(seconds / SECONDS_PER_REPETITION))
    context = _CellTimingContext(tracer, speed)
    with MachineProbe() as probe:
        speed.read()
        call_start = time.perf_counter()
        table = run_contamination_experiment(
            mfd, labels, default_methods(),
            contamination_levels=PAPER_CONTAMINATION_LEVELS,
            n_repetitions=repetitions, train_fraction=0.7,
            random_state=seed, context=context,
        )
        speed.read()
    # The experiment's own set-up ends where its first cell's reading starts.
    setups.append(float(speed.scale([context.cells_started - call_start], [call_start])[0]))
    if tracer is not None:
        tracer.enabled = False
        tracer.restore()
    setups += [_prepare_all(mfd, seed, speed) for _ in range(SETUP_SAMPLES)]
    cell_s = speed.scale(context.cell_s, context.cell_mid)

    n_cells = len(context.cell_s)
    out.attempted = n_cells
    expected = repetitions * len(PAPER_CONTAMINATION_LEVELS)
    records = table.to_records()
    out.check("all_cells_scored", n_cells == expected and len(records) == 4 * expected,
              ops=max(expected - n_cells, 1))
    aucs = np.array([r["auc"] for r in records], dtype=float)
    out.check("auc_finite_in_unit_interval",
              bool(np.all(np.isfinite(aucs)) and np.all((aucs >= 0) & (aucs <= 1))))
    # A cell fails when a gated check that reads its contamination level
    # fails.  The per-level assertions are recorded only: at this
    # repetition count they fail on some seeds with correct code (the
    # geometric methods' lead is within split noise, and FUNTA's mean AUC
    # at one level can fall just under 0.55).
    checks = _table_checks(table)
    failed_levels = set()
    for name, (held, read) in checks.items():
        if name.startswith(RECORDED_ONLY):
            continue
        if not out.check(name, held, ops=0):  # cells are counted below
            failed_levels.update(read)
    out.failed = min(out.failed + repetitions * len(failed_levels), n_cells)

    lat = latency_summary(cell_s, TAIL_PERCENTILE)
    cell_time = float(cell_s.sum())
    out.metric("setup_s", float(np.median(setups)), "s")
    # Curves scored: each cell scores its test set once per method.
    test_sizes = {
        c: len(contaminated_split(labels, c, train_fraction=0.7, random_state=0).test)
        for c in PAPER_CONTAMINATION_LEVELS
    }
    curves = repetitions * sum(4 * n for n in test_sizes.values())
    out.metric("curves_per_s", curves / cell_time, "curves/s")
    out.metric("ops_per_s", n_cells / cell_time, "ops/s")
    out.metric("latency_p50_ms", lat["latency_p50_ms"], "ms")
    out.metric("latency_tail_ms", lat["latency_tail_ms"], "ms")
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    out.diagnostics.update(
        machine=probe.result,
        latency_tail={k: lat[k] for k in ("tail_percentile", "n", "beyond_tail")},
        repetitions=repetitions,
        setup_samples_s=setups,
        setup_inputs_s=inputs_s,
        host_speed=speed.summary(),
        unscaled={
            "curves_per_s": curves / sum(context.cell_s),
            "latency_p50_ms": 1e3 * float(np.median(context.cell_s)),
        },
        auc_table_digest=table_digest(table),
        fig3_table_checks={name: held for name, (held, _) in checks.items()},
    )

    if tracer is not None:
        traced = [s for s, t in zip(cell_s, context.traced) if t]
        untraced = [s for s, t in zip(cell_s, context.traced) if not t]
        self_s = tracer.snapshot()["self_s"]
        per_cell = {name: 1e3 * self_s.get(name, 0.0) / len(traced) for name in CELL_LAYERS}
        # Layer self times are unscaled: compare them with unscaled cells.
        raw = [s for s, t in zip(context.cell_s, context.traced) if t]
        mean_cell_ms = 1e3 * sum(raw) / len(raw)
        other_ms = mean_cell_ms - sum(per_cell.values())
        for name, value in per_cell.items():
            out.metric(name, value, "ms")
        out.metric("evaluation.experiment.other_ms", other_ms, "ms")
        out.metric("fda.selection.prepare_s", selection_s / SETUP_SAMPLES, "s")
        out.metric("setup.inputs_s", inputs_s, "s")
        out.metric("setup.fit_s", float(np.median(setups)), "s")
        # Untraced cell time over traced cell time (both scaled) = traced
        # throughput over untraced throughput.
        out.metric("trace.overhead",
                   (sum(untraced) / len(untraced)) / (sum(traced) / len(traced))
                   if untraced else 1.0, "ratio")
        out.metric("trace.uncovered_share", max(other_ms, 0.0) / mean_cell_ms, "fraction")
    return out
