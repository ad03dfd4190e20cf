"""``repro.runtime.net`` — serving over the wire, sharded across cores.

The network front-end over the PR-4 runtime stack: a stdlib-asyncio,
newline-delimited-JSON TCP server (:class:`NetServer`) whose parent
process owns only the protocol, with all model math in ``--workers N``
worker processes — each loads the compiled ``.npz`` artifact and steps
its sessions' rows in the round core the in-process
:class:`repro.runtime.Server` runs too.  Named streaming
sessions route to a worker by stable hash of the session id, so carried
recurrent state stays worker-local across pushes, connections and
reconnects.  A matching blocking stdlib client (:class:`Client` /
:class:`NetSession`) completes the loop.

Since PR 7 the hot payload path can negotiate **protocol v2** per
connection: ``push``/``push_many`` payloads travel as length-prefixed
binary frames instead of base64 JSON.  Parent↔worker payloads of every
connection ride per-worker shared-memory slot rings; control traffic —
and every v1 client — stays NDJSON, byte-for-byte unchanged.

The invariant carries through from the in-process layers: logits served
over the wire are **byte-identical** to a standalone
:class:`repro.runtime.Session` on the same stream, for both backends —
enforced by ``tests/runtime/test_netserver.py``, the ``netserver`` bench
suite, and ``repro serve --port ... --selftest``.

PR 8 makes the server self-healing: the parent supervises its workers
(process sentinels + heartbeats), fails a dead worker's in-flight
requests with structured **retryable** error frames, and respawns the
worker from the artifact under a restart budget; sessions gain an
idle TTL, a per-worker cap with LRU shedding, and ``sessions`` /
``evict`` / ``health`` admin ops.  :class:`NetSession` auto-reattaches
through worker deaths and dropped connections by replaying its journal
— byte-identical output, or exactly one structured retryable error.
Deterministic fault injection lives in :mod:`repro.runtime.net.faults`.

See ``docs/runtime.md`` ("Serving over the network" and "Failure model
& supervision") for the wire protocol specification and operational
notes.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(
    __name__,
    {
        "arrays": ["decode_array", "encode_array"],
        "client": ["Client", "NetSession"],
        "faults": ["FaultInjector", "FaultSpec", "parse_fault"],
        "protocol": [
            "MAX_PROTOCOL", "PROTOCOL_VERSION", "BusyError",
            "ConnectionLostError", "NetError", "RetryableError",
            "UnknownSessionError",
        ],
        "server": ["NetServer", "route_session"],
    },
)

__all__ = [
    "NetServer",
    "Client",
    "NetSession",
    "NetError",
    "BusyError",
    "RetryableError",
    "ConnectionLostError",
    "UnknownSessionError",
    "FaultSpec",
    "FaultInjector",
    "parse_fault",
    "PROTOCOL_VERSION",
    "MAX_PROTOCOL",
    "route_session",
    "encode_array",
    "decode_array",
]
