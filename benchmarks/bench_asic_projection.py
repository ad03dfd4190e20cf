"""ASIC projection bench (the paper's "also applicable to ASICs" claim).

Projects the four E-RNN Table III configurations onto a generic 28 nm
standard-cell process and reports area / frequency / efficiency next to the
FPGA numbers.
"""

import pytest

from benchmarks.conftest import emit
from repro.config import AccelSpec
from repro.experiments.table3 import gru_workload, lstm_workload
from repro.hw.accelerator import build_design
from repro.hw.asic import project_to_asic


def project_all():
    rows = []
    for name, spec in (
        ("LSTM FFT8", lstm_workload(8)),
        ("LSTM FFT16", lstm_workload(16)),
        ("GRU FFT8", gru_workload(8)),
        ("GRU FFT16", gru_workload(16)),
    ):
        design = build_design(spec, AccelSpec("XCKU060"))
        rows.append((name, design, project_to_asic(design)))
    return rows


@pytest.mark.benchmark(group="asic")
def test_asic_projection(benchmark):
    rows = benchmark(project_all)

    lines = [
        "ASIC projection (generic 28 nm) of the E-RNN designs:",
        f"{'config':>12} | {'FPGA us':>8} | {'ASIC us':>8} | {'mm^2':>6} | "
        f"{'ASIC FPS':>10} | {'FPS/W':>8}",
    ]
    for name, design, asic in rows:
        lines.append(
            f"{name:>12} | {design.latency_us:8.1f} | {asic.latency_us:8.2f} | "
            f"{asic.area_mm2:6.1f} | {asic.fps:10,.0f} | "
            f"{asic.energy_efficiency:8,.0f}"
        )
    emit("asic_projection", "\n".join(lines))

    for _, design, asic in rows:
        assert asic.latency_us < design.latency_us
        assert asic.energy_efficiency > design.energy_efficiency
