"""Shared-memory slot rings: the parent↔worker payload path of v2.

Before this module, every frame crossed the process boundary twice as a
pickled queue message (parent→worker request, worker→parent logits).
:class:`RingPair` replaces that with one ``multiprocessing.shared_memory``
segment per worker holding two single-producer / single-consumer slot
rings — requests parent→worker, results worker→parent — so payload bytes
are written once into a slot and read once out of it, never serialized.

Each slot carries a seqlock-style ready flag: the producer fills the
slot body first and publishes ``seq = 2·index + 1`` *last*; the consumer
verifies that exact value before trusting the body and stamps
``2·index + 2`` when done (``index`` is the monotonic entry number, so a
stale or torn slot can never masquerade as ready).  Head and tail are
single-writer 8-byte counters in the segment header, read and written
through a ``"Q"``-cast ``memoryview``: each access is one aligned 8-byte
copy.  ``struct.pack_into`` would not do: it zeroes its target before
writing, so a reader racing it sees a counter of 0 (a phantom entry
that fails the seq check below).

The rings carry no wakeups of their own.  Each worker generation also
gets two one-byte *doorbell* pipes (``multiprocessing.Pipe(duplex=False)``),
one per direction, rung with :func:`ring_doorbell` and taken with
:func:`take_doorbell`.  The worker blocks on its request doorbell and
its control queue at once; the parent's event loop watches the response
doorbell with ``loop.add_reader``.  No pickling, feeder thread or relay
thread sits between a published frame and the thread that drains it.
Doorbells are coalesced through a kick flag in the segment header: the
producer publishes, then writes a doorbell byte only if it transitions
the flag 0→1; the consumer takes the pending bytes, then clears the flag
*before* draining.  A burst of N frames therefore costs one doorbell
byte, not N — and the publish-then-check / clear-then-drain order makes
a lost wakeup impossible.

Payloads larger than a slot fall back to the queues; an oversized
request still occupies a ring slot (flagged ``external``) so
per-session FIFO order is preserved across both paths.

Lifecycle: the parent creates and later unlinks the segment; workers
attach by name and leave their attachment registered with Python's
``resource_tracker``.  Spawn children share the parent's tracker, whose
cache is a set, so the attachment collapses into the parent's
registration and the parent's one ``unlink`` balances both (see
:meth:`RingPair.attach`).  A worker orphaned by a SIGKILLed parent
unlinks the segment itself before it exits.
"""

from __future__ import annotations

import os
import struct
from typing import Any

from repro.errors import ReproError

__all__ = ["RingPair", "Ring", "RingError", "ring_doorbell", "take_doorbell"]

_U64 = struct.Struct("<Q")
#: seq, ticket, seq_no, emit_seq, op, flags, ndim, pad, nbytes, dims[4], slen
_META = struct.Struct("<QQQQBBBxI4IH")
_HEADER_BYTES = 64  # req tail/head, res tail/head, two kick flags, pad
_SLOT_META = 320  # _META (62B) rounded up + 256B session area
_SESSION_AREA = _SLOT_META - 64
_FLAG_EXTERNAL = 1  # payload travels on the queue, not in the slot

# Ring ops (worker-internal codes; the wire never sees these).
OP_OPEN = 1
OP_PUSH = 2
OP_PUSH_MANY = 3
OP_RESET = 4
OP_CLOSE = 5
OP_EVICT = 6
OP_GENERATE = 7  # payload: JSON op parameters, shape ()
OP_SCORE = 8  # payload: (K,) little-endian int64 token ids


class RingError(ReproError):
    """A shared-memory ring slot failed its consistency check."""


def ring_doorbell(fd: int) -> None:
    """Write one wake-up byte to a non-blocking doorbell pipe.

    ``EAGAIN`` (a full pipe) means wake-ups are already pending, and
    ``EPIPE`` means the reading side is gone (its process died or was
    replaced, which supervision handles) — neither is an error here.
    """
    try:
        os.write(fd, b"\x01")
    except (BlockingIOError, BrokenPipeError):
        pass


def take_doorbell(fd: int) -> bool:
    """Swallow every pending wake-up byte of a non-blocking doorbell.

    Returns False at EOF — every writer has closed, so the caller must
    stop watching the fd instead of spinning on its readiness.
    """
    try:
        return os.read(fd, 4096) != b""
    except BlockingIOError:
        return True  # readiness raced a previous take: nothing pending


class _Entry:
    """One consumed ring entry.  ``payload`` views the slot: copy it out
    before calling :meth:`Ring.advance`."""

    __slots__ = ("op", "ticket", "seq_no", "emit_seq", "shape", "external",
                 "session", "payload")

    def __init__(self, op: int, ticket: int, seq_no: int, emit_seq: int,
                 shape: tuple[int, ...], external: bool,
                 session: str, payload: memoryview):
        self.op = op
        self.ticket = ticket
        self.seq_no = seq_no
        self.emit_seq = emit_seq
        self.shape = shape
        self.external = external
        self.session = session
        self.payload = payload


class Ring:
    """One SPSC slot ring inside a shared segment (one side of a pair)."""

    def __init__(self, buf: memoryview, *, slots_offset: int,
                 counters_offset: int, nslots: int, payload_capacity: int):
        self._buf = buf
        # [0] tail (producer-owned), [1] head (consumer-owned).
        self._counters = buf[counters_offset:counters_offset + 16].cast("Q")
        self._slots_off = slots_offset
        self.nslots = nslots
        self.payload_capacity = payload_capacity
        self._stride = _SLOT_META + payload_capacity

    # -- counters ------------------------------------------------------
    def _store(self, offset: int, value: int) -> None:
        """A slot's seq word: never read while it is being written."""
        _U64.pack_into(self._buf, offset, value)

    def free_slots(self) -> int:
        """Producer view: slots available right now (may only grow)."""
        counters = self._counters
        return self.nslots - (counters[0] - counters[1])

    # -- producer ------------------------------------------------------
    def try_push(
        self,
        op: int,
        ticket: int,
        shape: tuple[int, ...] | list[int],
        payload: bytes | memoryview | None,
        *,
        session: bytes = b"",
        seq_no: int = 0,
        emit_seq: int = 0,
        external: bool = False,
    ) -> bool:
        """Publish one entry; False when the ring is full.

        ``payload=None`` (or ``external=True``) publishes a payload-less
        entry whose bytes travel on the queue instead — the entry still
        holds the FIFO position.
        """
        counters = self._counters
        tail = counters[0]
        if tail - counters[1] >= self.nslots:
            return False
        nbytes = 0 if external or payload is None else len(payload)
        if nbytes > self.payload_capacity:
            raise RingError(
                f"payload of {nbytes} bytes exceeds the {self.payload_capacity}"
                "-byte slot; route it through the external path"
            )
        if len(session) > _SESSION_AREA:
            raise RingError(f"session id exceeds {_SESSION_AREA} slot bytes")
        dims = list(shape) + [0] * (4 - len(shape))
        slot = self._slots_off + (tail % self.nslots) * self._stride
        flags = _FLAG_EXTERNAL if external else 0
        # Body first, seq last: the consumer trusts nothing until the
        # seq word carries this exact entry's ready value.
        _META.pack_into(
            self._buf, slot,
            0, ticket, seq_no, emit_seq, op, flags, len(shape), nbytes,
            *dims, len(session),
        )
        if session:
            self._buf[slot + 64:slot + 64 + len(session)] = session
        if nbytes:
            self._buf[slot + _SLOT_META:slot + _SLOT_META + nbytes] = payload
        self._store(slot, 2 * tail + 1)  # publish
        counters[0] = tail + 1
        return True

    # -- consumer ------------------------------------------------------
    def peek(self) -> _Entry | None:
        """Next entry, or None when the ring is empty (no side effects)."""
        counters = self._counters
        head = counters[1]
        if counters[0] == head:
            return None
        slot = self._slots_off + (head % self.nslots) * self._stride
        (seq, ticket, seq_no, emit_seq, op, flags, ndim, nbytes,
         d0, d1, d2, d3, slen) = _META.unpack_from(self._buf, slot)
        if seq != 2 * head + 1:
            raise RingError(
                f"ring slot {head % self.nslots} seq {seq} != expected "
                f"{2 * head + 1}: torn write or corrupted segment"
            )
        shape = tuple((d0, d1, d2, d3)[:ndim])
        session = bytes(self._buf[slot + 64:slot + 64 + slen]).decode("utf-8")
        payload = self._buf[slot + _SLOT_META:slot + _SLOT_META + nbytes]
        return _Entry(op, ticket, seq_no, emit_seq, shape,
                      bool(flags & _FLAG_EXTERNAL), session, payload)

    def advance(self) -> None:
        """Retire the entry last returned by :meth:`peek` (frees its slot)."""
        head = self._counters[1]
        slot = self._slots_off + (head % self.nslots) * self._stride
        self._store(slot, 2 * head + 2)  # consumed marker (debuggability)
        self._counters[1] = head + 1

    def corrupt_last_published(self, seq: int = 0xDEADBEEF) -> None:
        """FAULT INJECTION ONLY: scribble the seq word of the most
        recently published entry, so the consumer's seqlock check trips.

        This is how :mod:`repro.runtime.net.faults` simulates a torn
        write / corrupted segment — the supervisor must detect it via
        :class:`RingError` and replace the worker.  Never call this on a
        healthy ring.
        """
        tail = self._counters[0]
        if tail == 0:
            return  # nothing ever published
        slot = self._slots_off + ((tail - 1) % self.nslots) * self._stride
        self._store(slot, seq)

    def release(self) -> None:
        """Release this ring's view of the segment (terminal).

        The segment's mmap cannot unmap while any exported view is
        alive; dropping the ring-held view here is what lets
        :meth:`RingPair.close` actually close instead of leaking the
        mapping to a noisy ``__del__``.  Entry payload slices are
        independent exports — consumers copy them out (``bytes(...)``)
        before retiring the slot, so none outlive their iteration.
        """
        try:
            self._counters.release()
            self._buf.release()
        except (BufferError, ValueError):
            pass  # sliced views still pending; GC will finish the job


class RingPair:
    """Both rings of one worker, plus the kick flags, in one shm segment.

    The parent :meth:`create`\\ s (and ultimately unlinks) the segment;
    the worker :meth:`attach`\\ es by name.  ``requests`` is produced by
    the parent and consumed by the worker; ``responses`` the reverse.
    """

    def __init__(self, shm: Any, nslots: int, payload_capacity: int,
                 *, owner: bool):
        self._shm = shm
        self._owner = owner
        self.nslots = nslots
        self.payload_capacity = payload_capacity
        buf = shm.buf
        stride = _SLOT_META + payload_capacity
        ring_bytes = nslots * stride
        self.requests = Ring(
            buf, slots_offset=_HEADER_BYTES, counters_offset=0,
            nslots=nslots, payload_capacity=payload_capacity,
        )
        self.responses = Ring(
            buf, slots_offset=_HEADER_BYTES + ring_bytes, counters_offset=16,
            nslots=nslots, payload_capacity=payload_capacity,
        )
        self._req_kick_off = 32
        self._res_kick_off = 33

    # ------------------------------------------------------------------
    @staticmethod
    def segment_bytes(nslots: int, payload_capacity: int) -> int:
        return _HEADER_BYTES + 2 * nslots * (_SLOT_META + payload_capacity)

    @classmethod
    def create(cls, nslots: int, payload_capacity: int) -> "RingPair":
        from multiprocessing import shared_memory

        if nslots < 2:
            raise RingError(f"a ring needs at least 2 slots, got {nslots}")
        shm = shared_memory.SharedMemory(
            create=True, size=cls.segment_bytes(nslots, payload_capacity)
        )
        shm.buf[:_HEADER_BYTES] = bytes(_HEADER_BYTES)
        return cls(shm, nslots, payload_capacity, owner=True)

    @classmethod
    def attach(cls, name: str, nslots: int, payload_capacity: int) -> "RingPair":
        from multiprocessing import shared_memory

        # CPython's resource tracker registers *attachments* too, but
        # spawn children share the parent's tracker process and its
        # cache is a set: the duplicate registration collapses, and the
        # parent's single unlink() balances it.  Unregistering here
        # would instead make that unlink unbalanced (a KeyError
        # traceback in the tracker at exit).
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, nslots, payload_capacity, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    # -- kick flags (doorbell coalescing) ------------------------------
    def ring_kick(self, *, responses: bool) -> bool:
        """Producer side: arm the kick flag; True when the caller must
        actually ring the doorbell (the flag was clear)."""
        off = self._res_kick_off if responses else self._req_kick_off
        if self._shm.buf[off]:
            return False
        self._shm.buf[off] = 1
        return True

    def clear_kick(self, *, responses: bool) -> None:
        """Consumer side: disarm *before* draining, so a producer racing
        with the drain re-arms and sends a fresh doorbell."""
        off = self._res_kick_off if responses else self._req_kick_off
        self._shm.buf[off] = 0

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.requests.release()
        self.responses.release()
        try:
            self._shm.close()
        except Exception:  # repro: ignore[REP005] buffer may already be released during interpreter teardown
            pass

    def unlink(self) -> None:
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except Exception:  # repro: ignore[REP005] second unlink / vanished segment: the goal state (gone) already holds
            pass
