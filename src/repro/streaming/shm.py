"""Shared-memory ring buffers for cross-process streaming.

The sharded engine moves its only cross-shard traffic — struct-encoded
telemetry frames, CO-DATA summaries, and pickled vehicle-transfer
bundles — through :class:`ShmRing`: a single-producer single-consumer
framed ring over :mod:`multiprocessing.shared_memory`.  Payloads stay
bytes end to end (the fixed-layout serdes of :mod:`repro.core.wire`
produce them, ``np.frombuffer`` decodes them on the far side), so
nothing is pickled through a ``multiprocessing.Queue`` on the hot path.

Synchronization is external by design: the engine's barrier handshake
(a pipe round-trip per 50 ms window) orders every write before the
matching read, so the ring needs no locks or atomics — the head/tail
cursors are plain ``np.uint64`` views into the segment header.
"""

from __future__ import annotations

import struct
from multiprocessing import shared_memory
from typing import List, Optional, Tuple

import numpy as np

#: Ring header: write cursor (head) and read cursor (tail), both
#: monotonic byte counters (never wrapped; positions are ``% capacity``).
_HEADER_BYTES = 16

#: Per-frame header: payload length (u32) + frame kind (u8).
_FRAME_HEADER = struct.Struct("<IB")


class RingFull(RuntimeError):
    """A push would overwrite unread frames (size the ring up, or drain
    more often)."""


class ShmRing:
    """SPSC framed byte ring in a shared-memory segment.

    Parameters
    ----------
    capacity:
        Usable data bytes (the segment is ``capacity + 16`` header
        bytes).  A frame costs ``5 + len(payload)`` bytes.
    name:
        Attach to an existing segment by name; ``None`` creates a new
        one.
    """

    def __init__(self, capacity: int, name: Optional[str] = None) -> None:
        if capacity < _FRAME_HEADER.size + 1:
            raise ValueError(f"capacity too small: {capacity}")
        self.capacity = int(capacity)
        self._owner = name is None
        if self._owner:
            self._shm = shared_memory.SharedMemory(
                create=True, size=_HEADER_BYTES + self.capacity
            )
            self._cursors = np.frombuffer(
                self._shm.buf, dtype=np.uint64, count=2
            )
            self._cursors[:] = 0
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            self._cursors = np.frombuffer(
                self._shm.buf, dtype=np.uint64, count=2
            )

    # -- pickling (spawn start-method): reattach by name ---------------
    def __getstate__(self) -> Tuple[int, str]:
        return (self.capacity, self._shm.name)

    def __setstate__(self, state: Tuple[int, str]) -> None:
        capacity, name = state
        self.__init__(capacity, name=name)

    @property
    def name(self) -> str:
        """Segment name, for attaching from another process."""
        return self._shm.name

    # ------------------------------------------------------------------
    @property
    def _head(self) -> int:
        return int(self._cursors[0])

    @property
    def _tail(self) -> int:
        return int(self._cursors[1])

    def __len__(self) -> int:
        """Unread bytes (including frame headers)."""
        return self._head - self._tail

    @property
    def free(self) -> int:
        return self.capacity - len(self)

    # ------------------------------------------------------------------
    def _write_at(self, cursor: int, data) -> None:
        position = cursor % self.capacity
        length = len(data)
        first = min(length, self.capacity - position)
        offset = _HEADER_BYTES + position
        if first == length:
            # Non-wrapping fast path: one buffer-to-buffer copy, no
            # intermediate ``data[:first]`` slice object.
            self._shm.buf[offset : offset + length] = data
            return
        view = memoryview(data)
        self._shm.buf[offset : offset + first] = view[:first]
        rest = length - first
        self._shm.buf[_HEADER_BYTES : _HEADER_BYTES + rest] = view[first:]

    def view_at(self, cursor: int, length: int) -> memoryview:
        """A readable view of ``length`` bytes at absolute ``cursor``.

        On the non-wrapping fast path this is a zero-copy ``memoryview``
        straight into the shared segment — ``np.frombuffer`` decodes
        block payloads off it without an intermediate ``bytes`` copy.
        A range that wraps the physical end is reassembled into a fresh
        contiguous buffer (one copy, unavoidable for a contiguous view).

        Views into the segment are *borrowed*: they alias ring storage
        that the producer may overwrite once the read cursor has moved
        past it, and live views block :meth:`close`.  Decode or copy
        promptly; call ``release()`` (or drop the reference) before the
        next overwriting push.
        """
        position = cursor % self.capacity
        first = min(length, self.capacity - position)
        offset = _HEADER_BYTES + position
        if first == length:
            return self._shm.buf[offset : offset + length]
        joined = bytearray(length)
        joined[:first] = self._shm.buf[offset : offset + first]
        joined[first:] = self._shm.buf[
            _HEADER_BYTES : _HEADER_BYTES + length - first
        ]
        return memoryview(joined)

    def push(self, kind: int, payload: bytes) -> None:
        """Append one frame; raises :class:`RingFull` if it won't fit."""
        frame_size = _FRAME_HEADER.size + len(payload)
        if frame_size > self.free:
            raise RingFull(
                f"frame of {frame_size} bytes exceeds free space "
                f"{self.free}/{self.capacity}"
            )
        head = self._head
        self._write_at(head, _FRAME_HEADER.pack(len(payload), kind))
        self._write_at(head + _FRAME_HEADER.size, payload)
        self._cursors[0] = np.uint64(head + frame_size)

    def pop(self) -> Optional[Tuple[int, bytes]]:
        """Remove and return the oldest ``(kind, payload)`` frame, or
        ``None`` if the ring is empty."""
        frame = self.pop_view()
        if frame is None:
            return None
        kind, view = frame
        payload = bytes(view)
        view.release()
        return kind, payload

    def pop_view(self) -> Optional[Tuple[int, memoryview]]:
        """Remove the oldest frame, returning ``(kind, view)`` zero-copy.

        The view is borrowed ring storage (see :meth:`view_at`): it is
        guaranteed intact only until the producer pushes again, because
        popping frees the bytes for reuse.  The sharded engine's barrier
        handshake makes this safe — a worker drains and decodes its
        inbox strictly between the engine's pushes — but any caller that
        retains a frame across a push must copy it first.
        """
        tail = self._tail
        if self._head == tail:
            return None
        header = self.view_at(tail, _FRAME_HEADER.size)
        length, kind = _FRAME_HEADER.unpack(header)
        header.release()
        view = self.view_at(tail + _FRAME_HEADER.size, length)
        self._cursors[1] = np.uint64(tail + _FRAME_HEADER.size + length)
        return kind, view

    def drain(self) -> List[Tuple[int, bytes]]:
        """Pop every pending frame, oldest first."""
        frames = []
        while True:
            frame = self.pop()
            if frame is None:
                return frames
            frames.append(frame)

    def drain_views(self) -> List[Tuple[int, memoryview]]:
        """Pop every pending frame as borrowed views, oldest first.

        Bulk-frame variant of :meth:`pop_view`; the same lifetime rules
        apply to every returned view.
        """
        frames = []
        while True:
            frame = self.pop_view()
            if frame is None:
                return frames
            frames.append(frame)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this process's mapping (cursors become unusable)."""
        # Drop the numpy views first: SharedMemory.close() refuses to
        # unmap while exported buffers are alive.
        self._cursors = None
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner side, after all parties closed)."""
        self._shm.unlink()

    def __repr__(self) -> str:
        return (
            f"ShmRing(name={self._shm.name!r}, capacity={self.capacity}, "
            f"pending={len(self)})"
        )
