"""Unit tests for the shared-memory slot rings under the v2 transport.

Most of this exercises :mod:`repro.runtime.net.ring` in one process
(the SPSC protocol does not care which thread plays producer): slot
publish/consume ordering, wraparound, capacity, the external-payload
flag, seqlock corruption detection, doorbell-kick coalescing, and the
create/attach segment lifecycle.  One test races a producer process
against the consumer, as a worker and its parent do.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.runtime.net.ring import (
    OP_PUSH,
    OP_PUSH_MANY,
    Ring,
    RingError,
    RingPair,
)


@pytest.fixture
def pair():
    rings = RingPair.create(4, 1024)
    yield rings
    rings.close()
    rings.unlink()


def _drain_one(ring: Ring):
    entry = ring.peek()
    assert entry is not None
    # Copy the payload out before advance() frees the slot, and drop the
    # memoryview: a live view would block the segment's close().
    copied = bytes(entry.payload)
    entry.payload = None
    ring.advance()
    return entry, copied


class TestRing:
    def test_roundtrip_preserves_everything(self, pair):
        payload = np.arange(16, dtype="<f8").tobytes()
        assert pair.requests.try_push(
            OP_PUSH, 42, (2, 8), payload, session=b"stream-7", seq_no=3,
            emit_seq=9,
        )
        entry, copied = _drain_one(pair.requests)
        assert entry.op == OP_PUSH
        assert entry.ticket == 42
        assert entry.seq_no == 3
        assert entry.emit_seq == 9
        assert entry.shape == (2, 8)
        assert entry.session == "stream-7"
        assert not entry.external
        assert copied == payload

    def test_fifo_across_wraparound(self, pair):
        """Push/pop far past nslots: order and contents never slip."""
        for index in range(23):
            assert pair.requests.try_push(
                OP_PUSH, index, (1,), bytes([index % 251]) * 8
            )
            entry, copied = _drain_one(pair.requests)
            assert entry.ticket == index
            assert copied == bytes([index % 251]) * 8

    def test_full_ring_refuses_then_recovers(self, pair):
        for index in range(4):
            assert pair.requests.try_push(OP_PUSH, index, (1,), b"x" * 8)
        assert pair.requests.free_slots() == 0
        assert not pair.requests.try_push(OP_PUSH, 99, (1,), b"x" * 8)
        entry, _ = _drain_one(pair.requests)
        assert entry.ticket == 0
        assert pair.requests.free_slots() == 1
        assert pair.requests.try_push(OP_PUSH, 99, (1,), b"x" * 8)

    def test_external_entry_carries_no_payload(self, pair):
        assert pair.requests.try_push(
            OP_PUSH_MANY, 7, (512, 64), None, session=b"big", external=True
        )
        entry, copied = _drain_one(pair.requests)
        assert entry.external
        assert entry.shape == (512, 64)
        assert copied == b""

    def test_oversized_payload_raises(self, pair):
        with pytest.raises(RingError, match="external path"):
            pair.requests.try_push(OP_PUSH, 1, (200,), b"x" * 1600)

    def test_oversized_session_raises(self, pair):
        with pytest.raises(RingError, match="session id"):
            pair.requests.try_push(
                OP_PUSH, 1, (1,), b"x" * 8, session=b"s" * 300
            )

    def test_corrupted_seq_is_detected(self, pair):
        """A torn or stale slot must never masquerade as a ready entry."""
        assert pair.requests.try_push(OP_PUSH, 5, (1,), b"x" * 8)
        # Scribble over the slot's seq word (offset of slot 0's meta).
        pair._shm.buf[64:72] = (999).to_bytes(8, "little")
        with pytest.raises(RingError, match="torn write or corrupted"):
            pair.requests.peek()

    def test_requests_and_responses_are_independent(self, pair):
        assert pair.requests.try_push(OP_PUSH, 1, (1,), b"a" * 8)
        assert pair.responses.try_push(OP_PUSH, 2, (1,), b"b" * 8)
        req, req_payload = _drain_one(pair.requests)
        res, res_payload = _drain_one(pair.responses)
        assert (req.ticket, req_payload) == (1, b"a" * 8)
        assert (res.ticket, res_payload) == (2, b"b" * 8)


def _produce(name: str, nslots: int, count: int) -> None:
    """Publish ``count`` entries as fast as the consumer frees slots."""
    rings = RingPair.attach(name, nslots, 1024)
    sent = 0
    while sent < count:
        if rings.requests.try_push(OP_PUSH, sent, (1,), bytes(8)):
            sent += 1
    rings.close()


def test_producer_process_and_consumer_agree():
    """A producer process publishes while this one drains: every peek
    finds a published entry or none, and every entry arrives once, in
    order.  The counters cross the process boundary as whole 8-byte
    words; a store that zeroed its word first (``struct.pack_into``
    does) let a racing consumer read a tail of 0 and peek an
    unpublished slot, a phantom that fails the seq check."""
    count = 50_000
    rings = RingPair.create(1024, 1024)
    producer = multiprocessing.get_context("spawn").Process(
        target=_produce, args=(rings.name, 1024, count)
    )
    producer.start()
    deadline = time.monotonic() + 60
    try:
        for index in range(count):
            entry = rings.requests.peek()  # a phantom raises RingError
            while entry is None:
                assert time.monotonic() < deadline, "producer stalled"
                entry = rings.requests.peek()
            assert entry.ticket == index
            entry.payload = None  # a live view would block close()
            rings.requests.advance()
    except BaseException:
        producer.kill()  # it may be blocked on a full ring
        raise
    finally:
        producer.join(timeout=30)
        rings.close()
        rings.unlink()
    assert producer.exitcode == 0


class TestKickFlags:
    def test_kick_coalesces_until_cleared(self, pair):
        assert pair.ring_kick(responses=False)  # first arm: send doorbell
        assert not pair.ring_kick(responses=False)  # already armed
        assert not pair.ring_kick(responses=False)
        pair.clear_kick(responses=False)
        assert pair.ring_kick(responses=False)  # re-armed after drain

    def test_request_and_response_kicks_are_independent(self, pair):
        assert pair.ring_kick(responses=False)
        assert pair.ring_kick(responses=True)
        pair.clear_kick(responses=True)
        assert not pair.ring_kick(responses=False)
        assert pair.ring_kick(responses=True)


class TestSegmentLifecycle:
    def test_attach_sees_the_creators_entries(self):
        creator = RingPair.create(8, 2048)
        try:
            payload = b"z" * 64
            assert creator.requests.try_push(
                OP_PUSH, 11, (8,), payload, session=b"attached"
            )
            attached = RingPair.attach(creator.name, 8, 2048)
            try:
                entry = attached.requests.peek()
                assert entry is not None
                assert entry.ticket == 11
                assert entry.session == "attached"
                assert bytes(entry.payload) == payload
                entry.payload = None  # release the view before close()
                attached.requests.advance()
                # The head advance is visible back on the creator side.
                assert creator.requests.free_slots() == 8
            finally:
                attached.close()
        finally:
            creator.close()
            creator.unlink()

    def test_minimum_slots_enforced(self):
        with pytest.raises(RingError, match="at least 2 slots"):
            RingPair.create(1, 1024)

    def test_unlink_is_owner_only_and_idempotent(self):
        creator = RingPair.create(2, 1024)
        attached = RingPair.attach(creator.name, 2, 1024)
        attached.unlink()  # non-owner: must be a no-op
        probe = RingPair.attach(creator.name, 2, 1024)  # still linked
        probe.close()
        attached.close()
        creator.close()
        creator.unlink()
        creator.unlink()  # second unlink swallowed
