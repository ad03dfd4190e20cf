"""The round core both serving hosts run: one row per busy session per round.

A host — the in-process :class:`~repro.runtime.Server` or a
:mod:`repro.runtime.net` worker — submits each session op here.  A round
takes the next row of every busy session, oldest first, up to
``max_batch`` rows; the host runs them in **one** ``step_rows`` call and
gives back the logits and states, or the error, which fails every op in
the round and nothing else.  A session with rows left rejoins the back
of the line, so it contributes one row per round and runs its ops one at
a time in submission order.  By row isolation a coalesced row computes
exactly the bytes a lone one would, however the rounds grouped them.

The core is sans-IO: it never calls the executor, takes no lock and
starts no thread.  What a finished op means — a wire reply, a woken
caller — is the host's ``done`` callback; ops that step no rows (the
worker's open/reset/close/evict) reach its ``control`` callback in turn.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = ["Lane", "Op", "Rounds", "ServerStats"]


@dataclass(frozen=True)
class ServerStats:
    """A snapshot of one server's scheduling counters."""

    frames: int
    batches: int
    sessions_opened: int
    sessions_active: int
    max_coalesced: int
    max_batch: int

    @property
    def mean_coalesced(self) -> float:
        """Average rows per backend call — the micro-batching win."""
        return self.frames / self.batches if self.batches else 0.0

    def describe(self) -> str:
        return (
            f"server: {self.frames} frames in {self.batches} batches "
            f"(mean {self.mean_coalesced:.2f}, max {self.max_coalesced} of "
            f"{self.max_batch} rows), {self.sessions_active}/"
            f"{self.sessions_opened} sessions active"
        )

    def to_dict(self) -> dict:
        """JSON-ready snapshot (the net layer's ``stats`` reply format)."""
        return {
            "frames": self.frames,
            "batches": self.batches,
            "sessions_opened": self.sessions_opened,
            "sessions_active": self.sessions_active,
            "max_coalesced": self.max_coalesced,
            "max_batch": self.max_batch,
            "mean_coalesced": self.mean_coalesced,
        }


class Op:
    """One submitted session op: rows to step, a row driver, or neither.

    ``rows`` is a ``(K, D)`` array whose logits collect in ``collected``.
    A workload op (``generate``/``score``) carries the *row driver* every
    in-process surface runs instead, which is why the bytes cannot
    differ.  An op with neither is a host control op.
    """

    __slots__ = ("kind", "ticket", "rows", "driver", "cursor", "collected",
                 "error", "done")

    def __init__(self, kind: Any = None, ticket: int = 0,
                 rows: np.ndarray | None = None, driver: Any = None):
        self.kind = kind
        self.ticket = ticket
        self.rows = rows
        self.driver = driver
        self.cursor = 0
        self.collected: list[np.ndarray] = []
        self.error: BaseException | None = None
        self.done = False

    def next_row(self) -> np.ndarray:
        # A driver's next row comes from its state machine (for generate
        # it one-hots the token just sampled from the previous row's
        # logits); plain pushes index their materialized rows.
        if self.driver is not None:
            return self.driver.next_row()
        return self.rows[self.cursor]

    def feed(self, logits: np.ndarray) -> bool:
        """Take the logits of the row just stepped; True while rows remain."""
        if self.driver is not None:
            self.driver.feed(logits)
            return not self.driver.done
        self.collected.append(logits)
        self.cursor += 1
        return self.cursor < len(self.rows)


class Lane:
    """One session's recurrent state and strictly ordered op queue."""

    __slots__ = ("state", "frames", "ops", "current")

    def __init__(self, state: Any):
        self.state = state
        self.frames = 0  # rows stepped since open or the last reset
        self.ops: deque[Op] = deque()
        self.current: Op | None = None  # the op whose rows are stepping

    @property
    def busy(self) -> bool:
        return self.current is not None


class Rounds:
    """The busy lanes, and the rounds that step their rows.

    ``done(lane, op)`` is called once per finished op, in completion
    order, with ``op.error`` set if it failed; ``control(lane, op)`` for
    each control op as the lane reaches it.  Not thread-safe: a host
    with several threads calls every method under one lock.
    """

    def __init__(self, max_batch: int, *,
                 done: Callable[[Lane, Op], None],
                 control: Callable[[Lane, Op], None] | None = None):
        self.max_batch = max_batch
        self._done = done
        self._control = control
        self._ready: deque[Lane] = deque()  # in the order rows step
        self._round: list[Lane] = []  # taken, not yet given back
        self.frames = self.batches = self.max_coalesced = 0

    @property
    def busy(self) -> bool:
        """True while some lane has a row to step."""
        return bool(self._ready)

    def stats(self, *, sessions_opened: int,
              sessions_active: int) -> ServerStats:
        return ServerStats(
            frames=self.frames,
            batches=self.batches,
            sessions_opened=sessions_opened,
            sessions_active=sessions_active,
            max_coalesced=self.max_coalesced,
            max_batch=self.max_batch,
        )

    def submit(self, lane: Lane, op: Op) -> None:
        """Queue ``op`` behind the lane's earlier ops."""
        lane.ops.append(op)
        self.pump(lane)

    def pump(self, lane: Lane) -> None:
        """Run the lane's queued control ops up to its next row op."""
        while not lane.busy and lane.ops:
            op = lane.ops.popleft()
            if op.rows is not None or op.driver is not None:
                lane.current = op
                self._ready.append(lane)
            else:
                self._control(lane, op)

    def take(self) -> tuple[np.ndarray, list[Any]]:
        """The next row and state of up to ``max_batch`` busy lanes,
        oldest first: one round for the host to step."""
        count = min(self.max_batch, len(self._ready))
        self._round = [self._ready.popleft() for _ in range(count)]
        rows = np.stack([lane.current.next_row() for lane in self._round])
        self.frames += count
        self.batches += 1
        self.max_coalesced = max(self.max_coalesced, count)
        return rows, [lane.state for lane in self._round]

    def give(self, logits: np.ndarray, states: list[Any]) -> None:
        """Feed the stepped round back: advance each op, finish the done."""
        lanes, self._round = self._round, []
        for index, lane in enumerate(lanes):
            op = lane.current
            lane.state = states[index]
            lane.frames += 1
            try:
                more = op.feed(logits[index])
            except Exception as error:  # noqa: BLE001 — the op's own failure
                # A driver refusing its logits (e.g. NaN logits refusing to
                # sample) fails its op alone; the lane's state HAS advanced
                # by the rows already fed.
                op.error, more = error, False
            if more:
                self._ready.append(lane)
            else:
                self._finish(lane, op)

    def fail(self, error: BaseException) -> None:
        """The round's ``step_rows`` raised: fail its ops, touch no state."""
        lanes, self._round = self._round, []
        for lane in lanes:
            lane.current.error = error
            self._finish(lane, lane.current)

    def abandon(self, error: BaseException) -> None:
        """Fail every op not yet finished (a host that cannot step on)."""
        lanes, self._round = [*self._round, *self._ready], []
        self._ready.clear()
        for lane in lanes:
            ops = [lane.current, *lane.ops]
            lane.current = None
            lane.ops.clear()
            for op in ops:
                op.error = error
                op.done = True
                self._done(lane, op)

    def _finish(self, lane: Lane, op: Op) -> None:
        lane.current = None
        op.done = True
        self._done(lane, op)
        self.pump(lane)
