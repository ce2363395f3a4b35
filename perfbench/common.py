"""Shared plumbing for the benchmark workloads: statistics, machine
diagnostics and the result record.

Nothing here imports ``repro``; the workload modules do, after
``run.py`` has pinned the BLAS/OpenMP pools and put the checkout's
``src`` first on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import os
import resource
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch space for manifests and other run files; inside the checkout
#: and listed in the root ``.gitignore``.
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

#: One thread per BLAS/OpenMP pool in every process the benchmark
#: starts: the default pools oversubscribe a small box once the load
#: generator runs beside the program, and CPU time then stops tracking
#: wall time.  Set when this module is imported, before numpy is, and
#: inherited by every child process.
PINNED_THREADS = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(PINNED_THREADS)

import numpy as np  # noqa: E402


def split_cpus() -> tuple[int | None, int | None]:
    """A CPU for the load generator and another for the program.

    ``(None, None)`` when this process may run on fewer than two CPUs;
    the caller then pins nothing.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[-1]


def tail_percentile(n: int, preferred: float) -> float:
    """The percentile reported as the latency tail for ``n`` samples.

    ``preferred`` is the workload's fixed tail percentile, so runs of two
    commits compare the same statistic even when their sample counts
    differ.  It is lowered to the highest whole percentile that leaves
    at least ten samples beyond it when ``n`` is too small, and to the
    median when not even that exists.
    """
    return max(50.0, min(preferred, math.floor(100.0 * (1.0 - 10.0 / n))))


def latency_summary(latencies_s, preferred_tail: float) -> dict:
    """p50 and tail latency (ms) with the percentile and sample count."""
    latencies = np.asarray(latencies_s, dtype=float)
    pct = tail_percentile(len(latencies), preferred_tail)
    p50, tail = np.percentile(latencies, [50.0, pct])
    return {
        "latency_p50_ms": 1e3 * float(p50),
        "latency_tail_ms": 1e3 * float(tail),
        "tail_percentile": pct,
        "n": len(latencies),
        "beyond_tail": int(np.count_nonzero(latencies > tail)),
    }


def window_rate(done_at, busy_s, begin: float, seconds: float, window: float = 2.0) -> float:
    """Ops per second of busy time: the median over the windows of the phase.

    ``busy_s`` is each op's (host-scaled) duration and ``done_at`` its
    completion time; an op belongs to the window it completes in.  Busy
    time leaves out the host-speed readings taken between ops, and a
    median over windows keeps one slow stretch from moving the run's
    throughput as a mean over the whole phase would.
    """
    done = np.asarray(done_at, dtype=float)
    busy = np.asarray(busy_s, dtype=float)
    width = min(window, seconds)
    slot = np.floor((done - begin) / width).astype(int)
    rates = [
        np.count_nonzero(slot == k) / busy[slot == k].sum()
        for k in np.unique(slot)
        if busy[slot == k].sum() > 0
    ]
    return float(np.median(rates))


# ---------------------------------------------------------------------- host speed
#: What one reference reading takes on the nominal host, in ms.  Every
#: timing the benchmark gates is scaled to this host speed.
REF_NOMINAL_MS = 1.0
REF_LOOP = 10_000
REF_SAMPLES = 5
#: Readings within this many seconds of an op scale it.
REF_SPAN_S = 0.5


_SMALL = np.random.default_rng(0).standard_normal(64)
_SMALL_IDX = np.arange(64)


def _interpreter() -> None:
    total = 0
    for i in range(REF_LOOP):
        total += i * i


def _small_numpy() -> None:
    for _ in range(300):
        mask = _SMALL[_SMALL_IDX] < 0.1
        _SMALL[_SMALL_IDX[mask]]


def reference_reading() -> float:
    """ms of a fixed mix of work: the sum over its parts of the median
    of a few samples each.

    The parts are the two kinds of work the program does most:
    interpreter loops and many numpy calls on small arrays.  (No part
    touches large arrays, which would add to the peak RSS reported for
    the program.)  The shared host this runs on changes speed by
    20-40% within seconds, on every CPU at once, and the program slows
    with the reading: over 2 s windows in which a stream chunk took
    7.3 to 10.7 ms, chunk time over an interpreter loop's time moved
    by under 4%.
    """
    total = 0.0
    for part in (_interpreter, _small_numpy):
        times = []
        for _ in range(REF_SAMPLES):
            start = time.perf_counter()
            part()
            times.append(time.perf_counter() - start)
        total += float(np.median(times))
    return 1e3 * total


class HostSpeed:
    """Reference readings taken through a run, to scale its timings.

    A raw time ``t`` taken when the reference reads ``r`` ms is reported
    as ``t * REF_NOMINAL_MS / r``: the time the op would take on the
    nominal host.  A faster or slower program moves the scaled time; a
    faster or slower host moves the reading as well, and cancels.
    """

    def __init__(self):
        self.at: list[float] = []
        self.ms: list[float] = []

    def read(self, ms: float | None = None, at: float | None = None) -> float:
        """Take a reading here, or book one (``ms``) taken elsewhere."""
        if ms is None:
            ms = reference_reading()
        self.at.append(time.perf_counter() if at is None else at)
        self.ms.append(ms)
        return ms

    def factor(self, t: float) -> float:
        """Nominal over measured speed around time ``t``: the readings
        within ``REF_SPAN_S`` of it, and always the nearest on each side."""
        at = np.asarray(self.at)
        order = np.argsort(at)
        at, ms = at[order], np.asarray(self.ms)[order]
        lo = min(np.searchsorted(at, t - REF_SPAN_S), max(np.searchsorted(at, t) - 1, 0))
        hi = max(np.searchsorted(at, t + REF_SPAN_S, side="right"),
                 min(np.searchsorted(at, t) + 1, len(at)))
        return REF_NOMINAL_MS / float(np.median(ms[lo:hi]))

    def scale(self, seconds, at) -> np.ndarray:
        """Each duration scaled by the factor at its time."""
        return np.asarray(seconds, dtype=float) * np.array([self.factor(t) for t in at])

    def summary(self) -> dict:
        ms = np.asarray(self.ms)
        return {
            "readings": len(ms),
            "reference_ms": [float(np.min(ms)), float(np.median(ms)), float(np.max(ms))]
            if len(ms) else [],
        }


# ---------------------------------------------------------------------- machine
def _read_cpu_jiffies() -> list[int]:
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith("cpu "):
                return [int(x) for x in line.split()[1:]]
    return []


def _procs_running() -> int:
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith("procs_running"):
                return int(line.split()[1])
    return 0


def process_cpu_s(pid: int | None = None) -> float:
    """User + system CPU seconds of ``pid`` (this process when None)."""
    if pid is None:
        t = os.times()
        return t.user + t.system
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size in MB (``VmHWM``) of ``pid`` or this process."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class MachineProbe:
    """Host steal share, load and CPU use over one timed phase.

    Not gated: these let a reader tell a drifting machine (steal,
    other load) from a slower program.
    """

    def __init__(self, program_pid: int | None = None):
        self.program_pid = program_pid

    def __enter__(self) -> "MachineProbe":
        self._jiffies = _read_cpu_jiffies()
        self._wall = time.perf_counter()
        self._gen_cpu = process_cpu_s()
        self._prog_cpu = process_cpu_s(self.program_pid) if self.program_pid else None
        self._running = _procs_running()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._wall
        gen_cpu = process_cpu_s() - self._gen_cpu
        after = _read_cpu_jiffies()
        delta = [b - a for a, b in zip(self._jiffies, after)]
        total = sum(delta) or 1
        # /proc/stat columns: user nice system idle iowait irq softirq steal ...
        steal = delta[7] if len(delta) > 7 else 0
        idle = delta[3] + (delta[4] if len(delta) > 4 else 0)
        self.result = {
            "wall_s": wall,
            "host_steal_share": steal / total,
            "host_busy_share": 1.0 - idle / total,
            "loadavg_1m": os.getloadavg()[0],
            "procs_running": [self._running, _procs_running()],
            "cpu_count": os.cpu_count(),
            "generator_cpu_s": gen_cpu,
        }
        if self.program_pid:
            self.result["program_cpu_s"] = process_cpu_s(self.program_pid) - self._prog_cpu
        else:
            # In-process workloads: the program and the workload loop share the
            # process, so the CPU time above is the program's.
            self.result["program_cpu_s"] = gen_cpu


# ---------------------------------------------------------------------- records
@dataclass
class Outcome:
    """What one workload run measured, before it becomes the JSON record."""

    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)  # name -> bool
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    diagnostics: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, ops: int = 1) -> bool:
        """Record a correctness check; a failed one counts ``ops`` as failed."""
        self.checks[name] = bool(ok) and self.checks.get(name, True)
        if not ok:
            self.failed += ops
        return bool(ok)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def result_line(outcome: Outcome, names_units: list[tuple[str, str]]) -> str:
    """The final stdout line: exactly the metrics named in BENCHMARK.json."""
    metrics = {}
    for name, unit in names_units:
        value, got_unit = outcome.metrics[name]
        if got_unit != unit:
            raise RuntimeError(f"metric {name} measured in {got_unit}, declared {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": all(outcome.checks.values()) and outcome.failed == 0,
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": metrics,
        }
    )

