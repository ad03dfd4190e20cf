"""HLS framework end to end + cross-validation against the analytic CU model."""

import pytest

from repro.config import AccelSpec, RNNSpec
from repro.hls.framework import build_hls
from repro.hw.cu import GRU_TDM_SPEEDUP, ComputeUnitModel


def lstm_spec():
    return RNNSpec(
        "lstm", 153, (1024,), 39, block_sizes=(8,),
        peephole=True, projection_size=512,
    )


def gru_spec():
    return RNNSpec("gru", 153, (1024,), 39, block_sizes=(8,))


class TestBuild:
    def test_result_bundle_complete(self):
        result = build_hls(lstm_spec(), AccelSpec("XCKU060"))
        assert result.graph.number_of_nodes() > 10
        assert result.schedule.frame_cycles > 0
        assert len(result.code) > 1000
        assert result.design.num_pes > 0
        summary = result.summary()
        assert summary["latency_us"] == pytest.approx(result.latency_us)

    def test_scheduler_agrees_with_analytic_cu_lstm(self):
        """Fig. 13's perf model and the Sec. VII CU algebra price the same
        work — they must agree within 10%."""
        result = build_hls(lstm_spec(), AccelSpec("XCKU060"))
        analytic = ComputeUnitModel(
            lstm_spec(), AccelSpec("XCKU060"), result.design.pes_per_cu
        )
        ratio = result.frame_cycles / analytic.frame_cycles()
        assert 0.9 <= ratio <= 1.1

    def test_scheduler_agrees_with_analytic_cu_gru(self):
        result = build_hls(gru_spec(), AccelSpec("XCKU060"))
        analytic = ComputeUnitModel(
            gru_spec(), AccelSpec("XCKU060"), result.design.pes_per_cu
        )
        ratio = result.frame_cycles / analytic.frame_cycles()
        assert 0.85 <= ratio <= 1.15

    def test_gru_uses_tdm_efficiency(self):
        lstm = build_hls(lstm_spec(), AccelSpec("XCKU060"))
        gru = build_hls(gru_spec(), AccelSpec("XCKU060"))
        # Same PE budget; GRU has ~11% more block ops yet finishes sooner.
        assert gru.frame_cycles < lstm.frame_cycles
        assert GRU_TDM_SPEEDUP > 1.0

    def test_fft16_build_faster(self):
        fft8 = build_hls(lstm_spec(), AccelSpec("XCKU060"))
        spec16 = lstm_spec().with_block_sizes((16,))
        fft16 = build_hls(spec16, AccelSpec("XCKU060"))
        assert fft16.latency_us < fft8.latency_us
