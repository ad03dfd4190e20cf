"""HLS framework (Fig. 13): spec -> graph -> schedule -> code, end to end."""

import pytest

from benchmarks.conftest import emit
from repro.config import AccelSpec
from repro.experiments.table3 import gru_workload, lstm_workload
from repro.hls.framework import build_hls
from repro.hw.cu import ComputeUnitModel


def run_flows():
    results = {}
    for name, spec in (("LSTM", lstm_workload(8)), ("GRU", gru_workload(8))):
        results[name] = build_hls(spec, AccelSpec("XCKU060"))
    return results


@pytest.mark.benchmark(group="hls")
def test_hls_flow(benchmark):
    results = benchmark(run_flows)

    lines = ["HLS framework (Fig. 13) results:"]
    for name, result in results.items():
        summary = result.summary()
        lines.append(
            f"  {name}: {summary['num_ops']:.0f} ops, "
            f"{summary['num_stages']:.0f} CGPipe stages, "
            f"{summary['frame_cycles']:.0f} cycles "
            f"({summary['latency_us']:.1f} us), "
            f"{summary['code_lines']:.0f} lines of HLS C"
        )
    emit("hls_framework", "\n".join(lines))

    for name, result in results.items():
        assert result.code.count("{") == result.code.count("}")
        assert "#pragma HLS" in result.code
        analytic = ComputeUnitModel(
            result.spec, result.accel, result.design.pes_per_cu
        ).frame_cycles()
        assert result.frame_cycles == pytest.approx(analytic, rel=0.15), name
