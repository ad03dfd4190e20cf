"""Platform specs (Table IV) and the power model."""

import pytest

from repro.errors import ConfigError
from repro.hw.platform import (
    ADM_PCIE_7V3,
    PLATFORMS,
    XCKU060,
    ResourceVector,
    get_platform,
)
from repro.hw.power import OFFCHIP_SUBSYSTEM_WATTS, energy_efficiency, power_watts


class TestTableIV:
    """Resource totals must match the published Table IV exactly."""

    def test_7v3_row(self):
        assert (ADM_PCIE_7V3.dsp, ADM_PCIE_7V3.bram_blocks) == (3600, 1470)
        assert (ADM_PCIE_7V3.lut, ADM_PCIE_7V3.ff) == (859_200, 429_600)
        assert ADM_PCIE_7V3.process_nm == 28

    def test_ku060_row(self):
        assert (XCKU060.dsp, XCKU060.bram_blocks) == (2760, 1080)
        assert (XCKU060.lut, XCKU060.ff) == (331_680, 663_360)
        assert XCKU060.process_nm == 20

    def test_bram_capacity_in_paper_range(self):
        """Sec. VI-B: 'the FPGAs we test on ... have 4-8MB BRAM'."""
        for platform in PLATFORMS.values():
            assert 4e6 <= platform.bram_bytes <= 8e6


class TestLookup:
    def test_aliases(self):
        assert get_platform("ku060") is XCKU060
        assert get_platform("7v3") is ADM_PCIE_7V3
        assert get_platform("XCKU060") is XCKU060

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            get_platform("virtex-9000")


class TestResourceVector:
    def test_add_and_scale(self):
        a = ResourceVector(dsp=1, bram_blocks=2, lut=3, ff=4)
        b = (a + a).scale(0.5)
        assert (b.dsp, b.bram_blocks, b.lut, b.ff) == (1, 2, 3, 4)

    def test_utilization_and_fits(self):
        used = ResourceVector(dsp=2760, bram_blocks=0, lut=0, ff=0)
        assert XCKU060.utilization(used)["dsp"] == pytest.approx(1.0)
        assert XCKU060.fits(used)
        assert not XCKU060.fits(ResourceVector(dsp=2761))


class TestPower:
    def test_static_floor(self):
        assert power_watts(XCKU060, ResourceVector()) == pytest.approx(
            XCKU060.static_watts
        )

    def test_monotone_in_usage(self):
        low = power_watts(XCKU060, ResourceVector(dsp=100))
        high = power_watts(XCKU060, ResourceVector(dsp=1000))
        assert high > low

    def test_offchip_adder(self):
        base = power_watts(XCKU060, ResourceVector())
        with_ddr = power_watts(XCKU060, ResourceVector(), offchip=True)
        assert with_ddr - base == pytest.approx(OFFCHIP_SUBSYSTEM_WATTS)

    def test_energy_efficiency(self):
        assert energy_efficiency(1000.0, 10.0) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            energy_efficiency(1.0, 0.0)

    def test_paper_7v3_operating_range(self):
        """E-RNN designs measured 22-29 W on the 7V3 (Table III)."""
        from repro.config import AccelSpec, RNNSpec
        from repro.hw.accelerator import build_design

        spec = RNNSpec(
            "lstm", 153, (1024,), 39, block_sizes=(8,),
            peephole=True, projection_size=512,
        )
        design = build_design(spec, AccelSpec("ADM-PCIE-7V3"))
        assert 20.0 <= design.power_watts <= 30.0
