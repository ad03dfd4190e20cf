"""Built-in project checkers; importing this package registers them all.

One module per rule family, each self-registering into
:data:`repro.analysis.core.CHECKER_REGISTRY` via ``@register_checker`` —
the catalog with bad/good examples lives in ``docs/analysis.md``.
"""

from __future__ import annotations

from repro.analysis.checkers import (  # noqa: F401 — imported for registration
    asynchrony,
    bitexact,
    docdrift,
    exceptions,
    locks,
)

__all__ = [
    "asynchrony",
    "bitexact",
    "docdrift",
    "exceptions",
    "locks",
]
