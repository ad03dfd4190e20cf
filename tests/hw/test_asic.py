"""ASIC projection model (the paper's stated framework extension)."""

import pytest

from repro.config import AccelSpec, RNNSpec
from repro.errors import ConfigError
from repro.hw.accelerator import build_design
from repro.hw.asic import TSMC28_LIKE, ASICProcess, project_to_asic


@pytest.fixture(scope="module")
def fpga_design():
    spec = RNNSpec(
        "lstm", 153, (1024,), 39, block_sizes=(8,),
        peephole=True, projection_size=512,
    )
    return build_design(spec, AccelSpec("XCKU060"))


class TestProjection:
    def test_asic_is_faster(self, fpga_design):
        asic = project_to_asic(fpga_design)
        assert asic.latency_us < fpga_design.latency_us
        assert asic.fps > fpga_design.fps

    def test_cycle_count_preserved(self, fpga_design):
        """Same microarchitecture: the speedup is pure clock."""
        asic = project_to_asic(fpga_design)
        ratio = fpga_design.latency_us / asic.latency_us
        assert ratio == pytest.approx(TSMC28_LIKE.frequency_factor)

    def test_more_efficient_than_fpga(self, fpga_design):
        asic = project_to_asic(fpga_design)
        assert asic.energy_efficiency > fpga_design.energy_efficiency

    def test_area_plausible(self, fpga_design):
        """An RNN accelerator at 28 nm should be a few to tens of mm^2."""
        asic = project_to_asic(fpga_design)
        assert 1.0 < asic.area_mm2 < 100.0

    def test_describe(self, fpga_design):
        text = project_to_asic(fpga_design).describe()
        assert "mm^2" in text and "FPS" in text

    def test_process_validation(self):
        with pytest.raises(ConfigError):
            ASICProcess("bad", 28, 1e-3, 1e-2, 1e-3, 8.0, 0.0, 0.3)

    def test_custom_process_scales(self, fpga_design):
        slow = ASICProcess("half-speed", 28, 9e-4, 1.2e-2, 6e-4, 8.0, 2.0, 0.28)
        asic_fast = project_to_asic(fpga_design)
        asic_slow = project_to_asic(fpga_design, slow)
        assert asic_slow.fps < asic_fast.fps
