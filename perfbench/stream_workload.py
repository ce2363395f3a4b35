"""stream: closed-loop online Dir.out detection in one process.

A ``dirout`` :class:`~repro.streaming.StreamingDetector` on the
univariate stream (first parameter of ``make_drifting_stream``, 100
points) with a 256-curve sliding window, 16-curve chunks, a quantile
sketch threshold and ``DepthRankDrift``.  The chunk pool is generated
before timing and replayed in order for ``--seconds`` seconds: the
generator costs about as much per chunk as the detector does, and each
replay boundary is a regime jump the drift monitor sees.

Why this workload: ingest into the incremental ``SortedLanes`` path
dominates it and scoring comes second, and neither serve nor fig3
touches that path.  Univariate Dir.out keeps the detector on its
incremental path (``effective_incremental``); with two parameters it
would silently refit per chunk and bypass the streaming layer.
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    HostSpeed,
    MachineProbe,
    Outcome,
    latency_summary,
    peak_rss_mb,
    window_rate,
)
from tracing import LayerTracer

from repro.data import make_drifting_stream
from repro.fda.fdata import MFDataGrid
from repro.streaming import DepthRankDrift, SlidingWindow, StreamingDetector
from repro.streaming.calibrate import SketchQuantileThreshold

WINDOW = 256
CHUNK = 16
N_POINTS = 100
POOL_CHUNKS = 240
#: Set-up samples taken before the timed phase, and again after it.
SETUP_SAMPLES = 15
#: p90, not p98: a chunk takes ~10 ms, about as long as one slice of
#: CPU the host takes away, so at 2-4% host steal p98 measured the
#: host (11 to 19 ms across seeds) rather than the detector.
TAIL_PERCENTILE = 90.0
ORACLE_CHUNKS = 12
#: Chunks per traced/untraced block in a traced run.
TRACE_BLOCK = 25
#: A host-speed reading (~5 ms) is taken every this many chunks (~0.1 s).
READ_EVERY = 10

CHUNK_LAYERS = (
    "streaming.window.ingest_ms",
    "streaming.online.score_ms",
    "streaming.calibrate.update_ms",
    "streaming.drift.update_ms",
)


def make_inputs(seed: int):
    """Prime sample and chunk pool, univariate, from ``--seed``."""
    stream = make_drifting_stream(
        n_chunks=POOL_CHUNKS + WINDOW // CHUNK,
        chunk_size=CHUNK,
        n_points=N_POINTS,
        drift_at=(POOL_CHUNKS + WINDOW // CHUNK) // 2,
        burst_at=tuple(range(WINDOW // CHUNK + 7, POOL_CHUNKS, 37)),
        random_state=seed,
    )
    chunks = [MFDataGrid(mfd.values[:, :, :1], mfd.grid) for mfd, _ in stream]
    prime_chunks = WINDOW // CHUNK
    prime = MFDataGrid(
        np.concatenate([c.values for c in chunks[:prime_chunks]]), chunks[0].grid
    )
    return prime, chunks[prime_chunks:]


def build(prime, incremental: bool = True) -> StreamingDetector:
    """One set-up: detector build plus window prime."""
    detector = StreamingDetector(
        "dirout",
        SlidingWindow(WINDOW),
        threshold=SketchQuantileThreshold(0.05),
        drift=DepthRankDrift(baseline_size=256, recent_size=128),
        min_reference=WINDOW // 2,
        incremental=incremental,
    )
    return detector.prime(prime)


def _timed_build(prime, speed: HostSpeed) -> tuple[StreamingDetector, float]:
    """One set-up sample, scaled by a host-speed reading taken just before."""
    speed.read()
    start = time.perf_counter()
    detector = build(prime)
    return detector, float(speed.scale([time.perf_counter() - start], [start])[0])


def _install(tracer: LayerTracer, detector: StreamingDetector) -> None:
    # Per-object patches: only the timed detector is traced.
    tracer.patch(detector, "_ingest", "streaming.window.ingest_ms")
    tracer.patch(detector._scorer, "score", "streaming.online.score_ms")
    tracer.patch(detector.threshold, "update", "streaming.calibrate.update_ms")
    tracer.patch(detector.drift, "update", "streaming.drift.update_ms")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    prime, pool = make_inputs(seed)
    inputs_s = time.perf_counter() - start

    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_SAMPLES):
        detector, seconds_taken = _timed_build(prime, speed)
        setups.append(seconds_taken)

    tracer = LayerTracer() if trace else None
    if tracer is not None:
        _install(tracer, detector)

    detector.process(pool[0])  # warm-up op, discarded
    # The prefix the oracle replays starts right after the warm-up.
    oracle_prefix: list[np.ndarray] = []
    latencies: list[float] = []
    done_at: list[float] = []
    traced: list[bool] = []
    flagged_before = detector.n_flagged
    scored_before = detector.n_scored
    events_before = len(detector.drift_events)
    i = 1
    with MachineProbe() as probe:
        begin = time.perf_counter()
        deadline = begin + seconds
        while time.perf_counter() < deadline:
            if len(latencies) % READ_EVERY == 0:
                speed.read()
            chunk = pool[i % len(pool)]
            on = tracer is not None and (len(latencies) // TRACE_BLOCK) % 2 == 0
            if tracer is not None:
                tracer.enabled = on
            t0 = time.perf_counter()
            result = detector.process(chunk)
            done_at.append(time.perf_counter())
            latencies.append(done_at[-1] - t0)
            traced.append(on)
            if len(oracle_prefix) < ORACLE_CHUNKS:
                oracle_prefix.append(result.scores)
            i += 1
        speed.read()
    if tracer is not None:
        tracer.enabled = False
        tracer.restore()
    setups += [_timed_build(prime, speed)[1] for _ in range(SETUP_SAMPLES)]

    out.attempted = len(latencies)
    out.check("effective_incremental", detector.effective_incremental)
    # Oracle: the refit path over the same primed state and chunks
    # must give the same scores bit for bit.
    oracle = build(prime, incremental=False)
    oracle.process(pool[0])
    matches = 0
    for k, scores in enumerate(oracle_prefix):
        expected = oracle.process(pool[(k + 1) % len(pool)]).scores
        matches += bool(scores is not None and np.array_equal(scores, expected))
    out.check("oracle_prefix_bit_identical", matches == len(oracle_prefix),
              ops=len(oracle_prefix) - matches)

    scaled = speed.scale(latencies, done_at)
    lat = latency_summary(scaled, TAIL_PERCENTILE)
    out.metric("setup_s", float(np.median(setups)), "s")
    rate = window_rate(done_at, scaled, begin, seconds)
    out.metric("curves_per_s", CHUNK * rate, "curves/s")
    out.metric("ops_per_s", rate, "ops/s")
    out.metric("latency_p50_ms", lat["latency_p50_ms"], "ms")
    out.metric("latency_tail_ms", lat["latency_tail_ms"], "ms")
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    out.diagnostics.update(
        machine=probe.result,
        latency_tail={k: lat[k] for k in ("tail_percentile", "n", "beyond_tail")},
        setup_samples_s=setups,
        setup_inputs_s=inputs_s,
        host_speed=speed.summary(),
        unscaled={
            "curves_per_s": CHUNK * window_rate(done_at, latencies, begin, seconds),
            "latency_p50_ms": 1e3 * float(np.median(latencies)),
        },
        drift_events=len(detector.drift_events) - events_before,
    )

    scored = detector.n_scored - scored_before
    out.metric("streaming.drift.events", len(detector.drift_events) - events_before, "count")
    out.metric("streaming.online.flag_share",
               (detector.n_flagged - flagged_before) / max(scored, 1), "fraction")
    if tracer is not None:
        on = [s for s, t in zip(scaled, traced) if t]
        off = [s for s, t in zip(scaled, traced) if not t]
        self_s = tracer.snapshot()["self_s"]
        per_chunk = {name: 1e3 * self_s.get(name, 0.0) / len(on) for name in CHUNK_LAYERS}
        for name, value in per_chunk.items():
            out.metric(name, value, "ms")
        # Layer self times are unscaled: compare them with unscaled chunks.
        raw = [s for s, t in zip(latencies, traced) if t]
        mean_ms = 1e3 * sum(raw) / len(raw)
        out.metric("setup.inputs_s", inputs_s, "s")
        out.metric("setup.fit_s", float(np.median(setups)), "s")
        out.metric("trace.overhead",
                   (sum(off) / len(off)) / (sum(on) / len(on)) if off else 1.0, "ratio")
        out.metric("trace.uncovered_share",
                   max(mean_ms - sum(per_chunk.values()), 0.0) / mean_ms, "fraction")
    return out
