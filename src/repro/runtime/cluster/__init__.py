"""Cluster serving tier: consistent-hash gateway over NetServer fleets.

The layer above :mod:`repro.runtime.net` — one gateway endpoint fronting
N backend servers, with ring placement, health-probe failover and
rolling drain.  See ``docs/runtime.md`` ("Cluster tier") for the
semantics and the drain runbook.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(
    __name__,
    {
        "fleet": ["BackendFleet"],
        "gateway": ["Gateway", "backend_key"],
        "hashring": ["DEFAULT_VNODES", "HashRing"],
    },
)

__all__ = [
    "BackendFleet",
    "DEFAULT_VNODES",
    "Gateway",
    "HashRing",
    "backend_key",
]
