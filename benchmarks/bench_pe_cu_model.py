"""PE/CU cycle model (Figs. 10-12): stage breakdown at paper dimensions."""

import pytest

from benchmarks.conftest import emit
from repro.config import AccelSpec
from repro.experiments.table3 import gru_workload, lstm_workload
from repro.hw.accelerator import build_design
from repro.hw.cu import ComputeUnitModel


def stage_breakdown():
    rows = []
    for name, spec in (("LSTM", lstm_workload(8)), ("GRU", gru_workload(8))):
        accel = AccelSpec("XCKU060")
        design = build_design(spec, accel)
        cu = ComputeUnitModel(spec, accel, design.pes_per_cu)
        timing = cu.timing()
        rows.append((name, design, timing))
    return rows


@pytest.mark.benchmark(group="pe-cu")
def test_pe_cu_cycle_breakdown(benchmark):
    rows = benchmark(stage_breakdown)

    lines = ["CU cycle breakdown (KU060, block 8, per frame):"]
    for name, design, timing in rows:
        lines.append(
            f"  {name}: {design.pes_per_cu} PEs/CU | matvec "
            f"{timing.matvec_cycles:7.0f} | fft {timing.fft_cycles:5.0f} | "
            f"pointwise {timing.pointwise_cycles:4.0f} | overhead "
            f"{timing.overhead_cycles:3.0f} | total {timing.frame_cycles:7.0f} "
            f"cycles = {design.latency_us:5.1f} us"
        )
    emit("pe_cu_model", "\n".join(lines))

    for _, _, timing in rows:
        # The paper's premise: matrix-vector work dominates ("128x as that of
        # point-wise multiplication").
        assert timing.matvec_cycles > 10 * timing.pointwise_cycles
