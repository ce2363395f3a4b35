"""serve: closed-loop ``POST /submit`` traffic against ``repro serve``.

One generator process drives 2 keep-alive connections, each posting
pre-encoded 32-curve batches (square-augmented ECG, 85 points x 2
parameters) and sending the next only after the previous response.
The server is ``serve()`` with one worker in its own process, fronting
the Fig-3 iForest pipeline (200 trees, ``n_basis=20``) loaded from a
persisted manifest.  ``max_pending`` equals the two in-flight batches,
so every flush is triggered by size, not by the 50 ms deadline.  The
two connections send in rounds: both wait at a barrier, then each
posts one batch, which the server answers with one flush.  Between
rounds, about every half second, the server takes a host-speed reading
on its own CPU while no request is in flight.  On a box with two or
more CPUs the generator and the server are pinned to different CPUs,
so neither is scheduled onto the other's.

Why this workload: it is the paper's best method as served, and each
request runs through parse, queue, smoothing, mapping and iForest
*scoring*; forest-wide scoring should move it the most.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from common import (
    ROOT,
    SCRATCH,
    REF_NOMINAL_MS,
    HostSpeed,
    MachineProbe,
    Outcome,
    latency_summary,
    peak_rss_mb,
    split_cpus,
    window_rate,
)

from repro.core.pipeline import GeometricOutlierPipeline
from repro.data import make_ecg_dataset, square_augment
from repro.detectors import IsolationForest
from repro.serving.persist import save_pipeline

PIPELINE = "fig3_iforest"
BATCH = 32
CONNECTIONS = 2
MAX_PENDING = CONNECTIONS * BATCH
#: Fit + persist samples taken before the timed phase, and again after it.
FIT_SAMPLES = 6
START_SAMPLES = 5
TAIL_PERCENTILE = 98.0
#: Seconds per traced / untraced block in a traced run.
TRACE_BLOCK_S = 1.0
#: Seconds between host-speed readings in the timed phase.
READ_EVERY_S = 0.5
TERM_WAIT_S = 2.0
START_TIMEOUT_S = 60.0

REQUEST_LAYERS = (
    "serving.app.parse_ms",
    "serving.service.queue_wait_ms",
    "serving.app.respond_ms",
)
FLUSH_LAYERS = (
    "serving.service.flush_ms",
    "fda.smoothing.fit_grid_ms",
    "geometry.mappings.transform_ms",
    "detectors.iforest.score_ms",
)


# ---------------------------------------------------------------------- client
class Connection:
    """A keep-alive HTTP/1.1 connection that sends pre-encoded requests."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def request(self, payload: bytes) -> tuple[int, bytes]:
        self.sock.sendall(payload)
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(self.buffer) < length:
            self._fill()
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, body

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def close(self) -> None:
        self.sock.close()


def encode(method: str, path: str, doc: dict | None = None) -> bytes:
    body = b"" if doc is None else json.dumps(doc).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


# ---------------------------------------------------------------------- server
class Server:
    """One server process: start, control channel, bounded teardown."""

    def __init__(self, manifest: str, trace: bool, log_path: str, cpu: int | None):
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "server_process.py"),
             manifest, str(MAX_PENDING), "1" if trace else "0",
             "-" if cpu is None else str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
            cwd=ROOT, env=os.environ.copy(),
        )
        self.killed = False
        self._out = b""
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> None:
        fields = self._line("imported").split()
        self.import_s = float(fields[1])
        imported_at = float(fields[2])
        listening = self._line("repro serve: listening on")
        self.port = int(listening.split("http://127.0.0.1:", 1)[1].split()[0])
        # Ready once /healthz answers: serve() loads the manifest after
        # it prints the port.
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                conn = Connection(self.port)
                status, _ = conn.request(encode("GET", "/healthz"))
                conn.close()
                if status == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server did not become ready")
            time.sleep(0.005)
        self.start_s = time.monotonic() - imported_at

    def _line(self, prefix: str) -> str:
        """The next stdout line starting with ``prefix``, within the start timeout."""
        deadline = time.monotonic() + START_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" not in self._out:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([fd], [], [], left)[0]:
                    raise RuntimeError(f"server printed no {prefix!r} line in time")
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(f"server exited before printing {prefix!r}")
                self._out += chunk
            line, self._out = self._out.split(b"\n", 1)
            if line.startswith(prefix.encode()):
                return line.decode().strip()

    def command(self, text: str) -> None:
        self.proc.stdin.write(text.encode() + b"\n")
        self.proc.stdin.flush()

    def dump(self) -> dict:
        self.command("dump")
        return json.loads(self._line("dump ")[len("dump "):])

    def reference(self) -> float:
        """A host-speed reading (ms) taken by the server on its own CPU."""
        self.command("ref")
        return float(self._line("ref ").split()[1])

    def stop(self) -> None:
        """SIGTERM, a bounded wait, then SIGKILL (counted in ``killed``)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=TERM_WAIT_S)
            except subprocess.TimeoutExpired:
                self.killed = True
                self.proc.kill()
                self.proc.wait(timeout=TERM_WAIT_S)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self.log.close()


# ---------------------------------------------------------------------- workload
def make_inputs(seed: int):
    data, _, _ = make_ecg_dataset(random_state=seed)
    train = square_augment(data)
    probe, _, _ = make_ecg_dataset(random_state=seed + 1)
    traffic = square_augment(probe)
    batches = [traffic[i : i + BATCH] for i in range(0, traffic.n_samples - BATCH + 1, BATCH)]
    bodies = [
        encode("POST", "/submit", {
            "pipeline": PIPELINE,
            "values": batch.values.tolist(),
            "grid": batch.grid.tolist(),
        })
        for batch in batches
    ]
    return train, batches, bodies


def fit(train) -> GeometricOutlierPipeline:
    pipeline = GeometricOutlierPipeline(
        IsolationForest(n_estimators=200, random_state=0), n_basis=20
    )
    return pipeline.fit(train)


def _fit_persist(train, manifest: str, parts: dict, speed: HostSpeed) -> GeometricOutlierPipeline:
    """One fit + persist sample, scaled by host-speed readings taken
    just before and just after, booked in ``parts``."""
    speed.read()
    t0 = time.perf_counter()
    pipeline = fit(train)
    t1 = time.perf_counter()
    save_pipeline(pipeline, manifest, compressed=False)
    t2 = time.perf_counter()
    speed.read()
    fit_s, persist_s = speed.scale([t1 - t0, t2 - t1], [(t0 + t1) / 2, (t1 + t2) / 2])
    parts["fit_s"].append(float(fit_s))
    parts["persist_s"].append(float(persist_s))
    return pipeline


class Rounds:
    """The closed loop's round keeper: the action of the clients' barrier.

    It runs once per round, while both connections are idle: it books
    the round that just ended, ends the timed phase, switches tracing
    between blocks in a traced run, and takes the host-speed readings.
    """

    def __init__(self, server: Server, speed: HostSpeed, seconds: float, trace: bool):
        self.server = server
        self.speed = speed
        self.seconds = seconds
        self.trace = trace
        self.traced = trace  # whether the requests of this round are traced
        self.stop = False
        self.error: BaseException | None = None
        self.begin = None
        self.released = None
        self.next_read = 0.0
        self.rounds: list[tuple[float, float]] = []  # (end, duration)

    def __call__(self) -> None:
        try:
            self._round()
        except BaseException as exc:  # breaks the barrier; run() re-raises it
            self.error = exc
            raise

    def _round(self) -> None:
        now = time.perf_counter()
        if self.begin is None:  # both warm-up requests are answered
            self.begin = now
            if self.trace:
                self.server.command("on")
        else:
            self.rounds.append((now, now - self.released))
        elapsed = now - self.begin
        if elapsed >= self.seconds:
            self.stop = True
            if self.trace:
                self.server.command("off")
            self.speed.read(self.server.reference(), now)
            return
        if self.trace:
            on = int(elapsed / TRACE_BLOCK_S) % 2 == 0
            if on != self.traced:
                self.traced = on
                self.server.command("on" if on else "off")
        if elapsed >= self.next_read:
            self.speed.read(self.server.reference(), now)
            self.next_read = elapsed + READ_EVERY_S
        self.released = time.perf_counter()


def _drive(conn: Connection, bodies, barrier: threading.Barrier, rounds: Rounds,
           records) -> None:
    """Closed loop on one connection, one request a round, after one warm-up."""
    conn.request(bodies[0])
    k = 0
    while True:
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            return
        if rounds.stop:
            return
        j = k % len(bodies)
        traced = rounds.traced
        t0 = time.perf_counter()
        try:
            status, body = conn.request(bodies[j])
        except OSError:  # counted as a failed request; the loop ends
            status, body = 0, b""
            barrier.abort()
        done = time.perf_counter()
        records.append((done, done - t0, j, status, body, traced))
        k += 1


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="serve-", dir=SCRATCH)
    servers: list[Server] = []
    try:
        return _run(out, seed, seconds, trace, workdir, servers)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:  # another run's files are still there
            pass


def _run(out, seed, seconds, trace, workdir, servers) -> Outcome:
    generator_cpu, server_cpu = split_cpus()
    if generator_cpu is not None:
        # Before the client threads start: they inherit the mask.
        os.sched_setaffinity(0, {generator_cpu})
    start = time.perf_counter()
    train, batches, bodies = make_inputs(seed)
    inputs_s = time.perf_counter() - start

    # Set-up = fit + persist + server start + one warm request.  Fitting
    # is cheap to repeat and starting a server is not (each start is a
    # fresh interpreter), so each part is sampled on its own and
    # setup_s is the sum of the part medians.  Fits are sampled before
    # and after the timed phase, so their median spans the whole run.
    parts = {k: [] for k in ("fit_s", "persist_s", "start_s", "warm_s", "import_s")}
    speed = HostSpeed()
    for k in range(FIT_SAMPLES):
        manifest = os.path.join(workdir, f"manifest-before-{k}")
        pipeline = _fit_persist(train, manifest, parts, speed)
    warm_body = encode("POST", "/score", {
        "pipeline": PIPELINE,
        "values": batches[0].values.tolist(),
        "grid": batches[0].grid.tolist(),
    })
    killed = 0
    for k in range(START_SAMPLES):
        if servers:
            servers[-1].stop()
            killed += servers[-1].killed
        server = Server(manifest, trace, os.path.join(workdir, f"server-{k}.log"), server_cpu)
        servers.append(server)
        conn = Connection(server.port)
        t0 = time.perf_counter()
        status, _ = conn.request(warm_body)
        warm_s = time.perf_counter() - t0
        conn.close()
        out.check("warm_request_ok", status == 200)
        # Start and warm-up ran on the server's CPU: its reading scales them.
        factor = REF_NOMINAL_MS / speed.read(server.reference())
        parts["warm_s"].append(warm_s * factor)
        parts["start_s"].append(server.start_s * factor)
        parts["import_s"].append(server.import_s * factor)
    setup_s = sum(
        float(np.median(parts[k])) for k in ("fit_s", "persist_s", "start_s", "warm_s")
    )
    server = servers[-1]

    conns = [Connection(server.port) for _ in range(CONNECTIONS)]
    rounds = Rounds(server, speed, seconds, trace)
    barrier = threading.Barrier(CONNECTIONS, action=rounds, timeout=60)
    records: list[list] = [[] for _ in conns]
    with MachineProbe(program_pid=server.proc.pid) as probe:
        threads = [
            threading.Thread(target=_drive, args=(c, bodies, barrier, rounds, r))
            for c, r in zip(conns, records)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 60)
    for c in conns:
        c.close()
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a client connection did not finish")
    if rounds.error is not None:
        raise RuntimeError("the round keeper failed") from rounds.error
    rss = peak_rss_mb(server.proc.pid)

    stats_conn = Connection(server.port)
    status, body = stats_conn.request(encode("GET", "/stats"))
    stats_conn.close()
    cache = json.loads(body)["cache"] if status == 200 else {}
    hits = sum(v for k, v in cache.items() if k.endswith("_hits"))
    builds = sum(v for k, v in cache.items() if not k.endswith("_hits"))
    layers = server.dump() if trace else None
    server.stop()
    killed += server.killed
    for k in range(FIT_SAMPLES):
        _fit_persist(train, os.path.join(workdir, f"manifest-after-{k}"), parts, speed)

    # Correctness, after the timed phase: every response is a 200 and
    # carries exactly the scores the fitted pipeline gives in-process.
    expected = [pipeline.score_samples(batch) for batch in batches]
    flat = [rec for recs in records for rec in recs]
    out.attempted = len(flat)
    bad = 0
    for _, _, j, status, body, _ in flat:
        if status != 200:
            bad += 1
            continue
        scores = np.asarray(json.loads(body)["scores"], dtype=float)
        bad += not np.array_equal(scores, expected[j])
    out.check("responses_200_and_scores_equal_in_process", bad == 0, ops=bad)

    done_at = [rec[0] for rec in flat]
    latencies = speed.scale([rec[1] for rec in flat], done_at)
    round_end = [end for end, _ in rounds.rounds]
    round_s = speed.scale([duration for _, duration in rounds.rounds], round_end)
    # A round is one request on each connection.
    rate = CONNECTIONS * window_rate(round_end, round_s, rounds.begin, seconds)
    lat = latency_summary(latencies, TAIL_PERCENTILE)
    out.metric("setup_s", setup_s, "s")
    out.metric("curves_per_s", BATCH * rate, "curves/s")
    out.metric("ops_per_s", rate, "ops/s")
    out.metric("latency_p50_ms", lat["latency_p50_ms"], "ms")
    out.metric("latency_tail_ms", lat["latency_tail_ms"], "ms")
    out.metric("peak_rss_mb", rss, "MB")
    out.diagnostics.update(
        machine=probe.result,
        latency_tail={k: lat[k] for k in ("tail_percentile", "n", "beyond_tail")},
        setup_parts_s=parts,
        setup_inputs_s=inputs_s,
        host_speed=speed.summary(),
        unscaled={
            "curves_per_s": BATCH * CONNECTIONS * window_rate(
                round_end, [d for _, d in rounds.rounds], rounds.begin, seconds),
            "latency_p50_ms": 1e3 * float(np.median([rec[1] for rec in flat])),
        },
        teardown_killed=killed,
        cache=cache,
        cpus={"generator": generator_cpu, "server": server_cpu},
    )
    out.metric("serve.teardown_killed", killed, "count")
    out.metric("engine.cache.hit_share", hits / max(hits + builds, 1), "fraction")

    if layers is not None:
        self_s, calls = layers["self_s"], layers["calls"]
        requests = max(calls.get("serving.app.parse_ms", 0), 1)
        flushes = max(calls.get("serving.service.flush_ms", 0), 1)
        per = {name: 1e3 * self_s.get(name, 0.0) / requests for name in REQUEST_LAYERS}
        per.update({name: 1e3 * self_s.get(name, 0.0) / flushes for name in FLUSH_LAYERS})
        traced_lat = [s for s, rec in zip(latencies, flat) if rec[5]]
        untraced_lat = [s for s, rec in zip(latencies, flat) if not rec[5]]
        # Layer self times are unscaled: compare them with unscaled latency.
        raw = [rec[1] for rec in flat if rec[5]]
        mean_ms = 1e3 * sum(raw) / len(raw)
        other_ms = mean_ms - sum(per.values())
        for name, value in per.items():
            out.metric(name, value, "ms")
        out.metric("serving.service.curves_per_flush",
                   self_s.get("serving.service.curves_per_flush", 0.0) / flushes, "count")
        out.metric("serving.server.other_ms", other_ms, "ms")
        for name in ("fit_s", "persist_s", "start_s", "warm_s"):
            out.metric(f"setup.{name}", float(np.median(parts[name])), "s")
        out.metric("setup.inputs_s", inputs_s, "s")
        out.metric("setup.import_s", float(np.median(parts["import_s"])), "s")
        # Closed loop: throughput is inverse to mean latency, so traced
        # throughput over untraced is untraced latency over traced.
        out.metric("trace.overhead",
                   (sum(untraced_lat) / len(untraced_lat)) / (sum(traced_lat) / len(traced_lat))
                   if untraced_lat else 1.0, "ratio")
        out.metric("trace.uncovered_share", max(other_ms, 0.0) / mean_ms, "fraction")
    return out
