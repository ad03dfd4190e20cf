"""The wire protocol of :mod:`repro.runtime.net`: NDJSON v1 + binary v2.

Protocol v1 is one JSON object per newline-delimited request line, one
reply line per request.  Protocol v2 keeps that JSON control plane —
``open``, ``close``, ``reset``, ``stats``, ``busy`` and every error
frame stay NDJSON — and moves only the hot payload path (``push``,
``push_many`` and their results) onto length-prefixed binary frames of
raw little-endian float64 bytes, negotiated per connection inside the
``open`` handshake.  A v1 client never sees a single v2 byte.  The full
specification lives in ``docs/runtime.md`` (section "Serving over the
network"); this module is the shared framing layer used by the
server, the workers, the client and the gateway, so the sides can never
drift.  The numpy array codec is :mod:`repro.runtime.net.arrays`, which
keeps numpy off the gateway's import path.

Array transport (v1 / control plane)
------------------------------------

Logits must arrive **byte-identical** to a standalone
:class:`repro.runtime.Session`, so the canonical JSON array encoding is
raw little-endian float64 bytes, base64-wrapped::

    {"dtype": "<f8", "shape": [39], "b64": "..."}

For hand-written clients a plain JSON list of numbers is also accepted on
input (Python's JSON round-trips every float64 exactly, so this loses
nothing); replies always use the base64 form.

Binary frames (v2 data plane)
-----------------------------

A v2 frame starts with ``0xA6`` — an invalid UTF-8 lead byte, so the
first byte of any request or reply unambiguously selects the framing —
followed by a fixed 24-byte prefix, a shape header, and the payload::

    magic     u8   0xA6
    version   u8   2
    op        u8   1=push 2=result 3=push_many 4=result_many
    dtype     u8   1 = little-endian float64
    rid       u64  request id (echoed in the result)
    seq       u64  results: session frame counter after the op; else 0
    slen      u16  session-id byte length (requests; 0 in results)
    ndim      u8   number of dims (1..4)
    reserved  u8   0
    dims      u32 × ndim
    nbytes    u32  payload byte length (must equal 8 · ∏dims)
    session   utf-8, slen bytes
    payload   nbytes raw little-endian float64

Everything is little-endian.  The frame is self-delimiting, so a
semantically invalid header (wrong version, unknown op/dtype, shape and
``nbytes`` disagreeing) costs one structured JSON ``error`` reply and
the connection stays usable; only a header whose *lengths* cannot be
trusted (``ndim``/``slen``/``nbytes`` over the hard caps) forces a
disconnect, since resynchronisation is impossible.
"""

from __future__ import annotations

# bit-exact: this module is on the fixed/float byte-identity surface
# (docs/analysis.md, REP003) — dtypes stay explicit, reductions ordered.

import json
import struct
from typing import Any, NamedTuple

from repro.errors import ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_PROTOCOL",
    "OPS",
    "CLUSTER_OPS",
    "SESSION_OPS",
    "NetError",
    "BusyError",
    "RetryableError",
    "ConnectionLostError",
    "UnknownSessionError",
    "FramingError",
    "BinaryHeader",
    "dump_line",
    "parse_line",
    "error_reply",
    "build_binary_frame",
    "parse_binary_prefix",
    "parse_binary_shape",
    "check_binary_header",
]

#: The baseline protocol every client speaks; sent in every ``hello``.
PROTOCOL_VERSION = 1

#: Highest protocol this codebase can negotiate (``hello.max_protocol``).
MAX_PROTOCOL = 2

#: Every op a request may carry (v2 adds ``push_many``; the LM workload
#: adds ``generate`` and ``score``).  repro-lint's REP006 checker keeps
#: this tuple and the client-facing spec in lockstep.
OPS = ("ping", "stats", "health", "sessions", "open", "push", "push_many", "generate", "score", "reset", "close", "evict")  # documented-in: docs/runtime.md

#: The gateway's admin plane (:mod:`repro.runtime.cluster`).  A single
#: NetServer rejects these as unknown ops — they only mean something to
#: the process that owns the ring.
CLUSTER_OPS = ("cluster_health", "cluster_drain", "cluster_undrain", "cluster_add")  # documented-in: docs/runtime.md

#: The ops that carry a session name and route to a worker by its hash.
#: ``generate``/``score`` ride the same routing: an op is an op to every
#: transport layer, whatever workload serves it.
SESSION_OPS = frozenset({"open", "push", "push_many", "generate", "score",
                         "reset", "close", "evict"})

#: Hard cap on one request line — a malformed or hostile client must not
#: balloon the server's memory.  Generous: a base64 float64 frame of
#: 10_000 features is ~110 KB.
MAX_LINE_BYTES = 1 << 20

#: Hard cap on one binary payload (16 MiB ≈ a 500-frame push_many of
#: 4096 features); beyond it the header cannot be trusted at all.
MAX_FRAME_BYTES = 1 << 24

#: Most frames one ``push_many`` may carry — admission control charges a
#: batch one slot, so an unbounded batch could monopolize a worker.
MAX_PUSH_MANY_FRAMES = 4096

# --- binary (v2) framing constants -----------------------------------
BIN_MAGIC = 0xA6  # invalid UTF-8 lead byte: can never start a JSON line
BIN_VERSION = 2
BIN_PUSH = 1
BIN_RESULT = 2
BIN_PUSH_MANY = 3
BIN_RESULT_MANY = 4
BIN_SCORE = 5  # (K,) int64 token ids -> per-token log-probs
BIN_SCORE_RESULT = 6  # (K-1,) float64 log-probs for tokens[1:]
BIN_DTYPE_F8 = 1  # little-endian float64, the payload dtype of scoring
BIN_DTYPE_I8 = 2  # little-endian int64 token ids (BIN_SCORE requests)
#: magic, version, op, dtype, rid, seq, session_len, ndim, reserved.
BIN_PREFIX = struct.Struct("<BBBBQQHBB")
#: Framing-level caps: headers beyond these cannot be skipped safely.
MAX_BIN_NDIM = 4
MAX_BIN_SESSION = 1024

#: Binary request op code -> the wire op it carries.
BIN_REQUEST_NAMES = {BIN_PUSH: "push", BIN_PUSH_MANY: "push_many",
                     BIN_SCORE: "score"}
_REQUEST_OPS = tuple(BIN_REQUEST_NAMES)
_RESULT_OPS = (BIN_RESULT, BIN_RESULT_MANY, BIN_SCORE_RESULT)


class NetError(ReproError):
    """A network-serving request failed (protocol, transport, or remote)."""


class BusyError(NetError):
    """The server refused a request with a ``busy`` frame (backpressure).

    The refused frame was **not** applied to the session: resend it before
    pushing anything newer, or the stream's state diverges.  ``limit`` is
    the server's advertised per-connection in-flight cap when known.
    """

    def __init__(self, message: str, limit: int | None = None):
        super().__init__(message)
        self.limit = limit


class RetryableError(NetError):
    """The request failed, but a retry (or session reattach) may succeed.

    Raised for error frames carrying ``"retryable": true`` — the
    supervised server's way of saying "a worker died or is restarting;
    the frame was NOT applied and the session's worker-side state is
    gone".  :class:`~repro.runtime.net.client.NetSession` recovers from
    these transparently when ``reattach`` is enabled (reopen by id,
    replay acked frames, resend the failed one).
    """


class ConnectionLostError(RetryableError):
    """The TCP connection itself failed (send/recv error, EOF, timeout).

    Retryable by definition against a supervised server: reconnect and
    reattach.  Whether the in-flight frame was applied is unknown, which
    is why recovery always reconciles via the ``seq`` reported by
    ``open`` before resending anything.
    """


class FramingError(NetError):
    """A binary header whose *lengths* break the hard caps.

    The frame cannot be skipped, so the stream position is lost: the
    reader answers once (``rid`` is the header's request id) and hangs
    up.  Every other header defect is recoverable — see
    :func:`check_binary_header`.
    """

    def __init__(self, message: str, rid: int):
        super().__init__(message)
        self.rid = rid


class UnknownSessionError(NetError):
    """The worker does not know this session id (never opened, evicted,
    or its worker was restarted).  A bare resend cannot succeed — the
    session must be re-opened (and its frames replayed) first, which is
    exactly what client-side reattach does."""


def dump_line(message: dict) -> bytes:
    """Serialize one protocol message to its wire line (with newline)."""
    return (
        json.dumps(message, separators=(",", ":"), allow_nan=False) + "\n"
    ).encode("utf-8")


def parse_line(line: bytes) -> dict:
    """Parse one wire line into a message dict."""
    if len(line) > MAX_LINE_BYTES:
        raise NetError(f"request line exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line)
    except (ValueError, UnicodeDecodeError) as error:
        raise NetError(f"request is not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise NetError(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    return message


def build_binary_frame(
    op: int,
    rid: int,
    shape: tuple[int, ...] | list[int],
    payload: bytes | memoryview,
    *,
    session: bytes = b"",
    seq: int = 0,
    dtype_code: int = BIN_DTYPE_F8,
) -> bytes:
    """Pack one v2 binary frame (request or result) into wire bytes."""
    ndim = len(shape)
    if not 1 <= ndim <= MAX_BIN_NDIM:
        raise NetError(f"binary frame supports 1..{MAX_BIN_NDIM} dims, got {ndim}")
    if len(session) > MAX_BIN_SESSION:
        raise NetError(f"session id exceeds {MAX_BIN_SESSION} bytes on the wire")
    if len(payload) > MAX_FRAME_BYTES:
        raise NetError(f"binary payload exceeds {MAX_FRAME_BYTES} bytes")
    prefix = BIN_PREFIX.pack(
        BIN_MAGIC, BIN_VERSION, op, dtype_code,
        rid, seq, len(session), ndim, 0,
    )
    header = struct.pack(f"<{ndim}II", *shape, len(payload))
    return b"".join((prefix, header, session, payload))


class BinaryHeader(NamedTuple):
    """A v2 frame's fixed prefix (``BIN_PREFIX``'s fields, in order),
    its lengths within the hard caps."""

    magic: int
    version: int
    opcode: int
    dtype_code: int
    rid: int
    seq: int
    slen: int
    ndim: int
    reserved: int

    @property
    def shape_size(self) -> int:
        """Bytes of the shape header that follows: dims plus ``nbytes``."""
        return 4 * self.ndim + 4


def parse_binary_prefix(prefix: bytes) -> BinaryHeader:
    """Unpack the ``BIN_PREFIX.size``-byte prefix of a binary frame.

    The one framing-level parse every reader shares (server, gateway,
    client); raises :class:`FramingError` when ``ndim`` or the session
    length is over its cap.
    """
    header = BinaryHeader._make(BIN_PREFIX.unpack(prefix))
    if header.ndim > MAX_BIN_NDIM or header.slen > MAX_BIN_SESSION:
        raise FramingError(
            f"binary header lengths out of range (ndim {header.ndim}, "
            f"session {header.slen} bytes); the frame cannot be skipped — "
            "closing", header.rid,
        )
    return header


def parse_binary_shape(header: BinaryHeader,
                       data: bytes) -> tuple[tuple[int, ...], int]:
    """``(dims, nbytes)`` from the ``header.shape_size`` bytes after the
    prefix; raises :class:`FramingError` past ``MAX_FRAME_BYTES``.  The
    frame's remaining length is then ``header.slen + nbytes``."""
    *dims, nbytes = struct.unpack(f"<{header.ndim}II", data)
    if nbytes > MAX_FRAME_BYTES:
        raise FramingError(
            f"binary payload of {nbytes} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap; closing", header.rid,
        )
    return tuple(dims), nbytes


def check_binary_header(
    version: int,
    op: int,
    dtype_code: int,
    dims: tuple[int, ...],
    nbytes: int,
    *,
    expect_request: bool,
) -> None:
    """Semantic validation of a fully read v2 frame header.

    Everything checked here is *recoverable*: the frame was already
    consumed in full (it is self-delimiting), so the caller answers with
    a structured error and keeps the connection.
    """
    if version != BIN_VERSION:
        raise NetError(
            f"unsupported binary protocol version {version}; this build "
            f"speaks v{BIN_VERSION}"
        )
    allowed = _REQUEST_OPS if expect_request else _RESULT_OPS
    if op not in allowed:
        raise NetError(
            f"unexpected binary op code {op}; expected one of "
            f"{sorted(allowed)}"
        )
    # Token arrays (BIN_SCORE requests) travel as int64; every other
    # payload is float64.  Both are 8 bytes per element, so the
    # shape-vs-nbytes arithmetic below is dtype-independent.
    wanted = BIN_DTYPE_I8 if op == BIN_SCORE else BIN_DTYPE_F8
    if dtype_code != wanted:
        raise NetError(
            f"unsupported binary dtype code {dtype_code} for op {op}; "
            f"expected {wanted} (token ids are little-endian int64, "
            "everything else little-endian float64)"
        )
    count = 1
    for dim in dims:
        count *= int(dim)
    if nbytes != 8 * count:
        raise NetError(
            f"binary payload carries {nbytes} bytes for shape "
            f"{list(dims)} (expected {8 * count})"
        )


def error_reply(request_id: Any, error: BaseException | str,
                *, retryable: bool = False) -> dict:
    """The standard error frame for a failed request.

    ``retryable=True`` marks a *transient* failure (worker died or is
    restarting): the frame was not applied, the client may retry or
    reattach.  Non-retryable errors are semantic — retrying the same
    request can only fail the same way.
    """
    if isinstance(error, BaseException):
        kind, text = type(error).__name__, str(error)
    else:
        kind, text = "NetError", str(error)
    reply = {
        "id": request_id,
        "ok": False,
        "type": "error",
        "kind": kind,
        "error": text,
    }
    if retryable:
        reply["retryable"] = True
    return reply
