"""The array codec of the :mod:`repro.runtime.net` wire protocol.

Every numpy call of the protocol lives here, apart from the framing in
:mod:`repro.runtime.net.protocol`, so a process that only moves frames
(the cluster :class:`~repro.runtime.cluster.Gateway`) never imports
numpy.  The client, the NetServer parent and the workers use it.

Arrays travel as raw little-endian float64 bytes, base64-wrapped in
JSON (``{"dtype": "<f8", "shape": [39], "b64": "..."}``), or as a plain
JSON list on input; token ids as int64.  ``docs/runtime.md`` ("Serving
over the network") has the full specification.
"""

from __future__ import annotations

# bit-exact: this module is on the fixed/float byte-identity surface
# (docs/analysis.md, REP003) — dtypes stay explicit, reductions ordered.

import base64
from typing import Any

import numpy as np

from repro.runtime.net.protocol import NetError

__all__ = [
    "encode_array",
    "decode_array",
    "frame_payload_bytes",
    "token_payload_bytes",
]


def encode_array(values: np.ndarray) -> dict:
    """Encode an array as the exact base64 form."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    return {
        "dtype": "<f8",
        "shape": list(values.shape),
        "b64": base64.b64encode(
            values.astype("<f8", copy=False).tobytes()
        ).decode("ascii"),
    }


def decode_array(payload: Any) -> np.ndarray:
    """Decode either array form (base64 dict or JSON list) to float64."""
    if isinstance(payload, dict):
        try:
            if payload["dtype"] != "<f8":
                raise NetError(
                    f"unsupported wire dtype {payload['dtype']!r}; "
                    "arrays travel as little-endian float64"
                )
            raw = base64.b64decode(payload["b64"], validate=True)
            # asarray, not astype: on little-endian machines "<f8" IS
            # float64, so this is a zero-copy view of the decoded bytes.
            values = np.asarray(
                np.frombuffer(raw, dtype="<f8"), dtype=np.float64
            )
            return values.reshape([int(n) for n in payload["shape"]])
        except NetError:
            raise
        except (KeyError, ValueError, TypeError) as error:
            raise NetError(f"malformed array payload: {error}") from None
    if isinstance(payload, list):
        try:
            return np.asarray(payload, dtype=np.float64)
        except (ValueError, TypeError) as error:
            raise NetError(f"malformed array list: {error}") from None
    raise NetError(
        f"array payload must be a base64 dict or a list, got "
        f"{type(payload).__name__}"
    )


def frame_payload_bytes(payload: Any) -> tuple[bytes, list[int]]:
    """Raw little-endian float64 bytes + shape from a frame payload.

    The server hot path: for the canonical base64 ``<f8`` form the
    decoded bytes pass straight through to the worker with no numpy
    round trip (just a length-vs-shape check); the JSON-list form pays
    one conversion.
    """
    if isinstance(payload, dict):
        if payload.get("dtype") != "<f8":
            raise NetError(
                f"unsupported wire dtype {payload.get('dtype')!r}; "
                "arrays travel as little-endian float64"
            )
        try:
            raw = base64.b64decode(payload["b64"], validate=True)
            shape = [int(n) for n in payload["shape"]]
        except (KeyError, ValueError, TypeError) as error:
            raise NetError(f"malformed array payload: {error}") from None
        count = 1
        for dim in shape:
            if dim < 0:  # a [-2,-4] shape would pass a product check
                raise NetError(f"negative dimension in shape {shape}")
            count *= dim
        if len(raw) != 8 * count:
            raise NetError(
                f"frame payload carries {len(raw)} bytes for shape {shape}"
            )
        return raw, shape
    values = decode_array(payload)
    return values.astype("<f8", copy=False).tobytes(), list(values.shape)


def token_payload_bytes(payload: Any) -> tuple[bytes, list[int]]:
    """Raw little-endian int64 bytes + shape from a token-id payload.

    The ``score`` op's JSON form: a plain list of integer token ids (or
    the base64 dict with dtype ``"<i8"``).  Floats are rejected rather
    than truncated — a fractional token id is a caller bug, and int64
    keeps the 8-bytes-per-element arithmetic of the float64 frames.
    """
    if isinstance(payload, dict):
        if payload.get("dtype") != "<i8":
            raise NetError(
                f"unsupported token dtype {payload.get('dtype')!r}; "
                "token ids travel as little-endian int64"
            )
        try:
            raw = base64.b64decode(payload["b64"], validate=True)
            shape = [int(n) for n in payload["shape"]]
        except (KeyError, ValueError, TypeError) as error:
            raise NetError(f"malformed token payload: {error}") from None
        count = 1
        for dim in shape:
            if dim < 0:
                raise NetError(f"negative dimension in shape {shape}")
            count *= dim
        if len(raw) != 8 * count:
            raise NetError(
                f"token payload carries {len(raw)} bytes for shape {shape}"
            )
        return raw, shape
    if isinstance(payload, list):
        values = np.asarray(payload)  # repro: ignore[REP003] dtype probe, pinned below
        if values.dtype == object or not (
            values.size == 0 or np.issubdtype(values.dtype, np.integer)
        ):
            raise NetError(
                "token ids must be integers (floats are rejected, not "
                "truncated)"
            )
        values = np.ascontiguousarray(values, dtype=np.int64)
        return values.astype("<i8", copy=False).tobytes(), list(values.shape)
    raise NetError(
        f"token payload must be a base64 dict or a list, got "
        f"{type(payload).__name__}"
    )
