"""Network fault injection for the store's wire-protocol tests.

:class:`ChaosProxy` is a TCP proxy that misbehaves on purpose: it sits in
front of a real :class:`repro.store.server.StoreServer` (or nothing at
all) and scripts the failure modes a client must survive --

``pass``
    Forward faithfully (the control case; also what a connection beyond
    the ``fault_budget`` gets).
``drop``
    Accept the connection and close it immediately without reading --
    the "listener up, service dead" shape (what the old ad-hoc
    ``flaky_listener`` in ``test_store_server.py`` simulated).
``reset``
    Accept, then close with ``SO_LINGER(1, 0)`` so the peer sees a hard
    TCP RST instead of an orderly FIN.
``delay``
    Hold the connection for ``delay`` seconds before forwarding.
``half_close``
    Forward the request, then deliver only the first
    ``half_close_bytes`` bytes of the response and close the connection
    cleanly -- a torn reply with no terminating newline, the
    mid-response failure that distinguishes "request may have been
    applied" from "request never arrived".

``fault_budget=N`` makes only the first N connections misbehave and every
later one pass through -- the recovery script ("down, down, then back")
that backoff-retry tests want.  Counters (``connections``, ``faulted``)
record what actually happened so tests can assert the fault really fired.

The disk-fault helpers (:func:`flip_bytes`, :func:`truncate_file`,
:func:`delete_file`) are the storage-side counterpart: surgical damage to
store files for the integrity tests (bit rot, torn writes, lost files).
"""

from __future__ import annotations

import contextlib
import os
import socket
import struct
import threading
from typing import Optional, Tuple

#: Modes ChaosProxy knows how to misbehave in.
MODES = ("pass", "drop", "reset", "delay", "half_close")


# ---------------------------------------------------------------------- #
# Disk faults (storage-side chaos for the integrity tests)
# ---------------------------------------------------------------------- #


def flip_bytes(path: str, offset: int, count: int = 1) -> bytes:
    """Bit-rot ``count`` bytes of ``path`` at ``offset`` (XOR 0xFF) in place.

    A negative ``offset`` counts from the end of the file, like a slice
    index.  Returns the original bytes so a test can undo the damage.
    Raises if the range falls outside the file -- silent no-op damage
    would make a "corruption detected" assertion vacuous.
    """
    size = os.path.getsize(path)
    start = offset if offset >= 0 else size + offset
    if start < 0 or start + count > size:
        raise ValueError(
            f"flip_bytes range [{start}, {start + count}) outside {path!r} "
            f"({size} bytes)"
        )
    with open(path, "r+b") as handle:
        handle.seek(start)
        original = handle.read(count)
        handle.seek(start)
        handle.write(bytes(b ^ 0xFF for b in original))
    return original


def truncate_file(path: str, keep_bytes: Optional[int] = None, drop_bytes: int = 1) -> int:
    """Tear the tail off ``path``: keep ``keep_bytes``, or drop ``drop_bytes``.

    The torn-write shape (a crash mid-append).  Returns the new size.
    """
    size = os.path.getsize(path)
    keep = keep_bytes if keep_bytes is not None else size - drop_bytes
    if keep < 0 or keep > size:
        raise ValueError(f"cannot keep {keep} of {size} bytes of {path!r}")
    os.truncate(path, keep)
    return keep


def delete_file(path: str) -> None:
    """Lose ``path`` entirely (the disk ate it).  Missing files raise."""
    os.unlink(path)


class ChaosProxy:
    """A scriptable TCP proxy injecting transport faults (see module doc).

    Args:
        target: ``(host, port)`` to forward to; optional for the modes
            that never forward (``drop``, ``reset``).
        mode: One of :data:`MODES`; mutable at any time.
        fault_budget: Misbehave for only the first N connections, then
            pass through.  ``None`` faults every connection.
        delay: Seconds ``delay`` mode holds a connection.
        half_close_bytes: Response bytes ``half_close`` lets through.
    """

    def __init__(
        self,
        target: Optional[Tuple[str, int]] = None,
        mode: str = "pass",
        fault_budget: Optional[int] = None,
        delay: float = 0.2,
        half_close_bytes: int = 10,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown chaos mode {mode!r} (known: {', '.join(MODES)})")
        self.target = target
        self.mode = mode
        self.fault_budget = fault_budget
        self.delay = delay
        self.half_close_bytes = half_close_bytes
        self.connections = 0
        self.faulted = 0
        self._lock = threading.Lock()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self._closed = False
        self._close_event = threading.Event()
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        return self._listener.getsockname()[:2]

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(target=self._handle, args=(conn,), daemon=True).start()

    def _decide(self) -> str:
        """Pick this connection's mode and bump the counters."""
        with self._lock:
            index = self.connections
            self.connections += 1
            budget = self.fault_budget
            mode = self.mode
            if mode != "pass" and (budget is None or index < budget):
                self.faulted += 1
                return mode
            return "pass"

    def _handle(self, conn: socket.socket) -> None:
        mode = self._decide()
        try:
            if mode == "drop":
                conn.close()
                return
            if mode == "reset":
                # SO_LINGER with zero timeout turns close() into a RST.
                conn.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                conn.close()
                return
            if mode == "delay":
                # Deadline wait, not a fixed sleep: closing the proxy
                # releases held connections immediately instead of
                # leaving a teardown stuck behind the full delay.
                self._close_event.wait(self.delay)
            if self.target is None:
                # Nothing to forward to: behave like a dead service.
                conn.close()
                return
            limit = self.half_close_bytes if mode == "half_close" else None
            self._forward(conn, limit)
        except OSError:
            pass  # a torn connection is this proxy's job, not an error
        finally:
            with contextlib.suppress(OSError):
                conn.close()

    def _forward(self, conn: socket.socket, response_limit: Optional[int]) -> None:
        """Pump bytes both ways; optionally cut the response short."""
        upstream = socket.create_connection(self.target, timeout=30)

        def pump_request() -> None:
            with contextlib.suppress(OSError):
                while True:
                    chunk = conn.recv(65536)
                    if not chunk:
                        upstream.shutdown(socket.SHUT_WR)
                        return
                    upstream.sendall(chunk)

        requester = threading.Thread(target=pump_request, daemon=True)
        requester.start()
        sent = 0
        try:
            while True:
                chunk = upstream.recv(65536)
                if not chunk:
                    with contextlib.suppress(OSError):
                        conn.shutdown(socket.SHUT_WR)
                    break
                if response_limit is not None:
                    chunk = chunk[: max(response_limit - sent, 0)]
                    if chunk:
                        conn.sendall(chunk)
                        sent += len(chunk)
                    if sent >= response_limit:
                        # Mid-response cut: the client got a prefix and
                        # will never see the rest.  Shutting both
                        # directions down ends the client's connection at
                        # once and wakes the request pump blocked in recv.
                        with contextlib.suppress(OSError):
                            conn.shutdown(socket.SHUT_RDWR)
                        break
                else:
                    conn.sendall(chunk)
        finally:
            with contextlib.suppress(OSError):
                upstream.close()
        requester.join(timeout=5)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._close_event.set()
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does, so the accept loop exits at once.
            with contextlib.suppress(OSError):
                self._listener.shutdown(socket.SHUT_RDWR)
            self._listener.close()
            self._thread.join(timeout=5)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
