"""HLS framework simulation: templates → graph → schedule → code (Fig. 13)."""

from repro.hls.codegen import generate_code
from repro.hls.framework import HLSResult, build_hls
from repro.hls.graph import build_operation_graph, matvec_nodes, validate_graph
from repro.hls.scheduler import Schedule, ScheduledOp, schedule_graph
from repro.hls.templates import TEMPLATES, OpTemplate, get_template, matvec_work, pointwise_work

__all__ = [
    "generate_code",
    "HLSResult",
    "build_hls",
    "build_operation_graph",
    "matvec_nodes",
    "validate_graph",
    "Schedule",
    "ScheduledOp",
    "schedule_graph",
    "TEMPLATES",
    "OpTemplate",
    "get_template",
    "matvec_work",
    "pointwise_work",
]
