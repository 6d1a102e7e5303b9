"""How fast the host runs Python and loopback round trips, sampled throughout a run.

On a shared 2-vCPU cloud host (Xeon, 2.1 GHz) the speed of one vCPU
swings by up to 2x on a scale of seconds to minutes as the neighbours'
load changes, and the same work's wall time swings with it.  A run
therefore samples a fixed piece of benchmark-owned Python work (the
probe, ~1 ms) every 50 ms from a background thread while a record op or
a set-up runs, and every 20 ms between requests while the serve stage
runs; each timing is scaled by ``REFERENCE_PROBE_S`` over the median
probe time around it.  A timing so scaled reads as the wall time on a
machine that runs the probe in ``REFERENCE_PROBE_S``; the probe never
changes with the program, so a faster program still reads faster.

A cheap serve request is mostly a loopback round trip, and the kernel
work in it does not slow down with the host the way Python does: on that
host, over 40 five-second windows, the window medians of a cheap
``lineage`` read spread 0.12 unscaled and 0.12 scaled by the Python
probe, but 0.05 scaled by a loopback round trip of the same shape.  So
the serve stage also samples the wire probe -- the median of three round
trips to a benchmark-owned echo server, each a new connection with one
JSON line each way, as ``StoreClient`` talks to ``StoreServer`` -- and
scales a request as one wire round trip plus compute (see
:meth:`SpeedMonitor.request_s`).  For a 24 ms ``append_epoch``, which is
mostly Python, the same windows spread 0.21 unscaled, 0.18 scaled by the
Python probe and 0.18 so split.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import socket
import socketserver
import statistics
import threading
import time
from typing import Iterator, List, Tuple

#: Probe time of the reference machine (a 2.1 GHz Xeon vCPU with quiet neighbours).
REFERENCE_PROBE_S = 0.00125

#: Wire probe time (one round trip) on that machine when the probe takes ``REFERENCE_PROBE_S``.
REFERENCE_WIRE_S = 0.00038

#: Seconds between probes while a record op or a set-up runs.
INTERVAL_S = 0.05

#: Seconds between probes in the serve loop: a serve slice lasts only
#: ~0.2 s, and probes there run between requests, outside their timings.
SERVE_INTERVAL_S = 0.02

#: Probes this far either side of a timing count towards its scale.
WINDOW_S = 0.25

#: Round trips per wire probe sample; the sample is their median.
WIRE_TRIPS = 3

_WIRE_LINE = json.dumps({"op": "lineage", "pages": [1], "run": 1}).encode("utf-8") + b"\n"


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _probe() -> None:
    table = {}
    pairs = set()
    for index in range(1500):
        item = _Item(index % 97, index & 63)
        table[item.key] = table.get(item.key, 0) + item.value
        pairs.add((item.key, item.value))


class _Echo(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        for line in self.rfile:
            self.wfile.write(json.dumps(json.loads(line)).encode("utf-8") + b"\n")
            self.wfile.flush()


class _EchoServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def _median_window(samples: List[Tuple[float, float]], start: float, end: float) -> float:
    """Median probe time of ``samples`` within :data:`WINDOW_S` of ``[start, end]``."""
    lo = bisect.bisect_left(samples, start - WINDOW_S, key=lambda sample: sample[0])
    hi = bisect.bisect_right(samples, end + WINDOW_S, key=lambda sample: sample[0])
    window = samples[lo:hi]
    if not window:
        nearest = min(lo, len(samples) - 1)
        window = samples[nearest : nearest + 1]
    return statistics.median(seconds for _, seconds in window)


class SpeedMonitor:
    """Probe samples of one run: ``(start, seconds)``, in start order.

    ``samples`` holds the Python probe, ``wire_samples`` the wire probe.
    The echo server behind the wire probe runs from construction to
    :meth:`close`.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self.wire_samples: List[Tuple[float, float]] = []
        self._last = 0.0
        self._echo = _EchoServer(("127.0.0.1", 0), _Echo)
        self._echo_thread = threading.Thread(target=self._echo.serve_forever, name="wire-echo", daemon=True)
        self._echo_thread.start()

    def close(self) -> None:
        self._echo.shutdown()
        self._echo.server_close()
        self._echo_thread.join()

    def sample(self) -> None:
        start = time.perf_counter()
        _probe()
        self.samples.append((start, time.perf_counter() - start))
        self._last = start

    def _round_trip(self) -> float:
        start = time.perf_counter()
        with socket.create_connection(self._echo.server_address) as conn:
            conn.sendall(_WIRE_LINE)
            with conn.makefile("rb") as reader:
                reader.readline()
        return time.perf_counter() - start

    def maybe_sample(self) -> None:
        """Probe Python and the wire if the last probe is older than :data:`SERVE_INTERVAL_S`."""
        if time.perf_counter() - self._last >= SERVE_INTERVAL_S:
            self.sample()
            start = time.perf_counter()
            self.wire_samples.append((start, statistics.median(self._round_trip() for _ in range(WIRE_TRIPS))))

    @contextlib.contextmanager
    def background(self) -> Iterator[None]:
        """Probe Python every :data:`INTERVAL_S` from a thread while the block runs."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(INTERVAL_S):
                self.sample()

        thread = threading.Thread(target=loop, name="speed-probe", daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def compute_s(self, start: float, end: float) -> float:
        """Seconds of pure compute ``[start, end]``, scaled by the Python probe around it.

        The median, because a probe that the OS preempts for one of the
        program's own threads (they share the one CPU) measures the
        scheduler, not the machine.
        """
        return (end - start) * REFERENCE_PROBE_S / _median_window(self.samples, start, end)

    def request_s(self, start: float, end: float) -> float:
        """Seconds of serve request ``[start, end]``, as one wire round trip plus compute.

        With ``W`` the wire probe around it, the first ``W`` seconds scale
        to ``REFERENCE_WIRE_S`` and the rest by the Python probe; a request
        shorter than ``W`` scales by the wire probe alone.  Either way the
        scaled time grows with the measured one.
        """
        seconds = end - start
        wire = _median_window(self.wire_samples, start, end)
        if seconds <= wire:
            return seconds * REFERENCE_WIRE_S / wire
        return REFERENCE_WIRE_S + (seconds - wire) * REFERENCE_PROBE_S / _median_window(self.samples, start, end)
