"""Byte-level page diffing (the "twin and diff" mechanism of TreadMarks).

At a synchronization point every simulated process compares each dirty
private page against the *twin* -- the pristine copy of the page taken when
the process first wrote it -- and produces a compact list of deltas.  The
deltas are then applied atomically to the shared page, which implements the
shared-memory commit with a last-writer-wins policy for overlapping writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class Delta:
    """A single modified byte range within one page.

    Attributes:
        offset: Byte offset of the run within the page.
        data: The new bytes for that run.
    """

    offset: int
    data: bytes

    @property
    def length(self) -> int:
        """Number of bytes covered by this delta."""
        return len(self.data)


@dataclass(frozen=True)
class PageDiff:
    """The set of deltas produced for one dirty page.

    Attributes:
        page: Page id the diff applies to.
        deltas: Modified byte runs, in ascending offset order.
    """

    page: int
    deltas: Sequence[Delta]

    @property
    def modified_bytes(self) -> int:
        """Total number of modified bytes in this diff."""
        return sum(delta.length for delta in self.deltas)

    def is_empty(self) -> bool:
        """Return ``True`` if the page turned out not to differ from its twin."""
        return not self.deltas


#: ``bytes.translate`` table mapping every nonzero byte to 1 (zero stays 0).
_NONZERO_TO_ONE = bytes([0]) + bytes([1]) * 255


def diff_page(page: int, twin: bytes, current: bytes) -> PageDiff:
    """Compute the byte-level diff between ``twin`` and ``current``.

    The comparison runs at C speed without a per-byte Python loop: the two
    pages are XORed as big integers, every nonzero byte of the XOR is mapped
    to ``1``, and each maximal run of changed bytes is then found with two
    ``bytes.find`` calls (its first ``1`` and the ``0`` that ends it).

    Args:
        page: Page id (recorded in the returned diff).
        twin: The pristine copy taken when the page was first written.
        current: The process-private copy at commit time.

    Returns:
        A :class:`PageDiff` containing maximal runs of modified bytes.

    Raises:
        ValueError: If the two buffers have different lengths.
    """
    size = len(twin)
    if size != len(current):
        raise ValueError(
            f"twin and current page must be the same size ({size} != {len(current)})"
        )
    deltas: List[Delta] = []
    if twin == current:
        return PageDiff(page=page, deltas=deltas)
    changed = (
        (int.from_bytes(twin, "big") ^ int.from_bytes(current, "big"))
        .to_bytes(size, "big")
        .translate(_NONZERO_TO_ONE)
    )
    start = changed.find(1)
    while start >= 0:
        end = changed.find(0, start)
        if end < 0:
            end = size
        deltas.append(Delta(start, bytes(current[start:end])))
        start = changed.find(1, end)
    return PageDiff(page=page, deltas=deltas)


def apply_diff(target: bytearray, diff: PageDiff) -> int:
    """Apply ``diff`` to ``target`` in place (last writer wins).

    Args:
        target: The shared page to patch.
        diff: Deltas produced by :func:`diff_page`.

    Returns:
        The number of bytes written.

    Raises:
        ValueError: If a delta falls outside the target page.
    """
    written = 0
    for delta in diff.deltas:
        end = delta.offset + delta.length
        if end > len(target):
            raise ValueError(
                f"delta [{delta.offset}, {end}) exceeds page size {len(target)}"
            )
        target[delta.offset : end] = delta.data
        written += delta.length
    return written


def merge_diffs(diffs: Sequence[PageDiff]) -> int:
    """Return the total number of modified bytes across ``diffs``.

    Used by the statistics layer to account commit traffic.
    """
    return sum(diff.modified_bytes for diff in diffs)
