"""End-to-end HLS framework driver (Fig. 13).

``build_hls(spec, accel)`` runs the paper's full flow —
template generator → graph generator → operation scheduler → code generator
— and returns an :class:`HLSResult` bundling the operation graph, the
schedule, the generated C source, and the performance/resource summary that
the paper's "Perf. & Resource Models" box feeds back into design selection.

The schedule's cycle count is the same quantity the analytic CU model of
:mod:`repro.hw.cu` computes; the two are cross-validated in
``tests/hls/test_framework.py`` (they must agree within a small tolerance,
since the scheduler prices the same work on the same engines).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.config import AccelSpec, RNNSpec
from repro.hls.codegen import generate_code
from repro.hls.graph import build_operation_graph
from repro.hls.scheduler import Schedule, schedule_graph
from repro.hw.accelerator import AcceleratorDesign, build_design
from repro.hw.cu import GRU_TDM_SPEEDUP

__all__ = ["HLSResult", "build_hls"]


@dataclass(frozen=True)
class HLSResult:
    """Everything the HLS flow produces for one design point."""

    spec: RNNSpec
    accel: AccelSpec
    graph: nx.DiGraph
    schedule: Schedule
    code: str
    design: AcceleratorDesign

    @property
    def frame_cycles(self) -> float:
        return self.schedule.frame_cycles

    @property
    def latency_us(self) -> float:
        return self.frame_cycles * self.accel.clock_period_ns / 1000.0

    def summary(self) -> dict[str, float]:
        return {
            "num_ops": float(self.graph.number_of_nodes()),
            "num_stages": float(self.schedule.num_stages),
            "frame_cycles": self.frame_cycles,
            "latency_us": self.latency_us,
            "num_pes": float(self.design.num_pes),
            "code_lines": float(self.code.count("\n") + 1),
        }


def build_hls(
    spec: RNNSpec,
    accel: AccelSpec,
    pe_efficiency: float = 1.0,
    design: AcceleratorDesign | None = None,
) -> HLSResult:
    """Run the full Fig. 13 flow for one design point.

    :class:`repro.api.engine.Engine` memoizes this call keyed on the frozen
    ``(spec, accel)`` pair, so repeated codegen over a sweep builds once.
    ``design`` lets a caller that already sized the accelerator (the engine's
    design cache) skip re-running the Phase-II model.
    """
    graph = build_operation_graph(spec)
    if design is None:
        design = build_design(spec, accel, pe_efficiency=pe_efficiency)
    if spec.cell_type == "gru":
        efficiency = pe_efficiency * GRU_TDM_SPEEDUP
        overhead_count = 2
    else:
        efficiency = pe_efficiency
        overhead_count = None
    schedule = schedule_graph(
        graph,
        accel,
        design.pes_per_cu,
        pe_efficiency=efficiency,
        stage_overhead_count=overhead_count,
    )
    code = generate_code(spec, accel, graph, schedule)
    return HLSResult(
        spec=spec,
        accel=accel,
        graph=graph,
        schedule=schedule,
        code=code,
        design=design,
    )
