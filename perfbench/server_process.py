"""The serve workload's server: ``repro.serving.server.serve`` in its own process.

Usage: ``python3 perfbench/server_process.py MANIFEST_DIR MAX_PENDING TRACE CPU``

Prints ``imported <seconds> <monotonic>`` once the program's modules are
imported (the parent measures server start from there), then runs
``serve()`` with one worker on a free port.  ``serve()`` prints the
port it listens on.  Unless ``CPU`` is ``-``, the process (and every
thread it starts) runs on that CPU only.

Commands are read from stdin.  ``ref`` prints ``ref <ms>``, a
host-speed reading taken on this process's CPU (the benchmark sends it
while no request is in flight).  With ``TRACE`` = 1 the serving layers
are wrapped with timing spans before ``serve()`` starts: ``on`` /
``off`` switch tracing, ``dump`` prints the accumulated layer times as
one JSON line.  The process exits when stdin closes, so a
server never outlives a benchmark process that was killed.
"""

from __future__ import annotations

import time

_T0 = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import repro.serving.server as server_module  # noqa: E402
from repro.detectors.iforest import IsolationForest  # noqa: E402
from repro.fda.smoothing import BasisSmoother  # noqa: E402
from repro.geometry.mappings import CurvatureMapping  # noqa: E402
from repro.serving.app import ServingApp  # noqa: E402
from repro.serving.service import ScoringService  # noqa: E402

from common import reference_reading  # noqa: E402
from tracing import LayerTracer  # noqa: E402

PIPELINE = "fig3_iforest"


class _QueueWaits:
    """Submit → flush-start wait of every traced request.

    ``submit`` records when each ticket entered the queue; a flush
    books the wait of every ticket it resolved.  A ticket that arrived
    after the flush started but before it swapped the queue out counts
    a zero wait.
    """

    def __init__(self, tracer: LayerTracer):
        self.tracer = tracer
        self.lock = threading.Lock()
        self.pending: dict[int, tuple[object, float]] = {}

    def install(self) -> None:
        submit = ScoringService.submit
        flush = self.tracer.span("serving.service.flush_ms", ScoringService.flush)
        waits = self

        def traced_submit(service, name, data, auto_flush=True):
            ticket = submit(service, name, data, auto_flush=auto_flush)
            if waits.tracer.enabled:
                with waits.lock:
                    waits.pending[id(ticket)] = (ticket, time.perf_counter())
            return ticket

        def traced_flush(service):
            started = time.perf_counter()
            resolved = flush(service)
            with waits.lock:
                done = [k for k, (ticket, _) in waits.pending.items() if ticket.done]
                booked = [waits.pending.pop(k) for k in done]
            if booked and waits.tracer.enabled:
                waits.tracer.add(
                    "serving.service.queue_wait_ms",
                    sum(max(started - t, 0.0) for _, t in booked),
                    calls=len(booked),
                )
                waits.tracer.add(
                    "serving.service.curves_per_flush",
                    sum(ticket.n_samples for ticket, _ in booked),
                    calls=0,
                )
            return resolved

        ScoringService.submit = traced_submit
        ScoringService.flush = traced_flush


def _install(tracer: LayerTracer) -> None:
    tracer.patch(ServingApp, "try_submit", "serving.app.parse_ms")
    tracer.patch(BasisSmoother, "fit_grid", "fda.smoothing.fit_grid_ms")
    tracer.patch(CurvatureMapping, "transform", "geometry.mappings.transform_ms")
    tracer.patch(IsolationForest, "score_samples", "detectors.iforest.score_ms")
    tracer.patch(ServingApp, "ticket_response", "serving.app.respond_ms")
    tracer.patch(server_module, "_encode_response", "serving.app.respond_ms")
    _QueueWaits(tracer).install()


def _control(tracer: LayerTracer | None) -> None:
    for line in sys.stdin:
        command = line.strip()
        if command == "ref":
            print(f"ref {reference_reading():.6f}", flush=True)
        elif tracer is None:
            continue
        elif command == "on":
            tracer.enabled = True
        elif command == "off":
            tracer.enabled = False
        elif command == "dump":
            print("dump " + json.dumps(tracer.snapshot()), flush=True)
    # The benchmark closes stdin only after the server has stopped, or by
    # ending without stopping it.
    os._exit(1)


def main(argv: list[str]) -> None:
    manifest, max_pending, trace, cpu = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    if cpu != "-":
        # Before any thread starts, so the worker and control threads inherit it.
        os.sched_setaffinity(0, {int(cpu)})
    tracer = LayerTracer() if trace else None
    if tracer is not None:
        _install(tracer)
    threading.Thread(target=_control, args=(tracer,), daemon=True).start()
    now = time.monotonic()
    print(f"imported {now - _T0:.6f} {now:.6f}", flush=True)
    server_module.serve(
        {PIPELINE: manifest}, host="127.0.0.1", port=0, workers=1,
        max_pending=max_pending,
    )


if __name__ == "__main__":
    main(sys.argv[1:])
