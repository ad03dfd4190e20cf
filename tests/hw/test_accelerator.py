"""Whole-accelerator model: the Table III shape assertions."""

import pytest

from repro.config import AccelSpec, RNNSpec
from repro.errors import FitError
from repro.hw.accelerator import (
    CLSTM_PE_EFFICIENCY,
    DEFAULT_NUM_CUS,
    build_design,
    pe_capacity,
)


def lstm_spec(block=8):
    return RNNSpec(
        "lstm", 153, (1024,), 39, block_sizes=(block,),
        peephole=True, projection_size=512,
    )


def gru_spec(block=8):
    return RNNSpec("gru", 153, (1024,), 39, block_sizes=(block,))


def build(spec, platform="XCKU060", bits=12, pe_efficiency=1.0, cus=None):
    accel = AccelSpec(platform, weight_bits=bits, input_bits=bits,
                      num_compute_units=cus)
    return build_design(spec, accel, pe_efficiency=pe_efficiency)


class TestAllocation:
    @pytest.mark.parametrize("entry", [build_design, pe_capacity],
                             ids=["build_design", "pe_capacity"])
    def test_rejects_dense_spec(self, entry):
        dense = RNNSpec("lstm", 153, (1024,), 39, peephole=True,
                        projection_size=512)
        with pytest.raises(FitError, match="block-circulant"):
            entry(dense, AccelSpec("XCKU060"))

    @pytest.mark.parametrize("entry", [build_design, pe_capacity],
                             ids=["build_design", "pe_capacity"])
    def test_rejects_more_cus_than_pes(self, entry):
        accel = AccelSpec("XCKU060", num_compute_units=100_000)
        with pytest.raises(FitError, match="one PE per CU"):
            entry(gru_spec(), accel)

    @pytest.mark.parametrize("bits", [12, 16])
    @pytest.mark.parametrize("platform", ["XCKU060", "ADM-PCIE-7V3"])
    @pytest.mark.parametrize("spec", [lstm_spec(), gru_spec()],
                             ids=["lstm", "gru"])
    def test_design_rounds_the_capacity_bound(self, spec, platform, bits):
        """``build_design`` and ``pe_capacity`` share one PE bound; the
        design only rounds it down so every CU gets the same PE count."""
        accel = AccelSpec(platform, weight_bits=bits, input_bits=bits)
        capacity = pe_capacity(spec, accel)
        design = build_design(spec, accel)
        assert design.num_pes == (capacity // design.num_cus) * design.num_cus
        assert design.num_pes <= capacity < design.num_pes + design.num_cus

    def test_three_cus_by_default(self):
        design = build(lstm_spec())
        assert design.num_cus == DEFAULT_NUM_CUS
        assert design.num_pes == design.pes_per_cu * design.num_cus

    def test_cu_override(self):
        design = build(lstm_spec(), cus=2)
        assert design.num_cus == 2

    def test_design_fits_platform(self):
        for platform in ("XCKU060", "ADM-PCIE-7V3"):
            design = build(lstm_spec(), platform)
            assert all(v <= 1.0 for v in design.utilization.values())

    def test_dsp_heavily_utilized(self):
        """The paper's designs are DSP-bound (Table III: 79-96%)."""
        design = build(lstm_spec(), "XCKU060")
        assert design.utilization["dsp"] > 0.75


class TestTableIIIShape:
    def test_latency_in_paper_ballpark_ku060(self):
        """KU060 FFT8: paper 13.7 us; the model must land within 25%."""
        design = build(lstm_spec(8), "XCKU060")
        assert design.latency_us == pytest.approx(13.7, rel=0.25)

    def test_fft16_roughly_halves_latency(self):
        fft8 = build(lstm_spec(8))
        fft16 = build(lstm_spec(16))
        ratio = fft8.latency_us / fft16.latency_us
        assert 1.5 <= ratio <= 2.3  # paper: 13.7/7.4 = 1.85

    def test_gru_faster_than_lstm(self):
        """Paper Sec. VIII-B3: GRU ≈ 1.2x LSTM at the same block size."""
        lstm = build(lstm_spec(8))
        gru = build(gru_spec(8))
        assert gru.latency_us < lstm.latency_us

    def test_clstm_slower_than_ernn(self):
        """Paper: E-RNN ≈ 1.3x C-LSTM performance at block 8 on the 7V3."""
        ernn = build(lstm_spec(8), "ADM-PCIE-7V3", bits=12)
        clstm = build(
            lstm_spec(8), "ADM-PCIE-7V3", bits=16,
            pe_efficiency=CLSTM_PE_EFFICIENCY,
        )
        ratio = clstm.latency_us / ernn.latency_us
        assert 1.1 <= ratio <= 1.8

    def test_concurrency_is_num_cus(self):
        """Table III: FPS x latency ≈ 3 for every configuration."""
        design = build(lstm_spec(8))
        concurrency = design.fps * design.latency_us * 1e-6
        assert concurrency == pytest.approx(design.num_cus, rel=1e-9)

    def test_more_cus_trade_latency_for_throughput(self):
        three = build(lstm_spec(8), cus=3)
        six = build(lstm_spec(8), cus=6)
        assert six.fps < three.fps * 2  # fewer PEs per CU
        assert six.latency_us > three.latency_us

    def test_energy_efficiency_beats_ese_by_over_20x(self):
        from repro.baselines.ese import ESEAcceleratorModel

        ese = ESEAcceleratorModel(lstm_spec(1).with_block_sizes(())).build()
        ernn = build(lstm_spec(8), "ADM-PCIE-7V3")
        ratio = ernn.energy_efficiency / ese.energy_efficiency
        assert ratio > 20.0  # paper: 23.4x

    def test_7v3_and_ku060_comparable(self):
        """The paper's two platforms land within ~35% of each other."""
        ku = build(lstm_spec(8), "XCKU060")
        v7 = build(lstm_spec(8), "ADM-PCIE-7V3")
        assert 0.5 < ku.latency_us / v7.latency_us < 2.0
