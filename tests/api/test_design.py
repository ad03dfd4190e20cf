"""The fluent Design facade: golden equivalence with the canonical build
functions, immutability, report verbs, and warning-free verbs."""

import math
import warnings

import pytest

from repro.api import Design, Engine
from repro.config import AccelSpec, RNNSpec
from repro.errors import ConfigError, RegistryError

#: Table I/II-style design points used for golden-equivalence checks:
#: the paper's headline LSTM (FFT8, peephole + projection) on both boards,
#: a GRU point, and a mixed io-block fine-tuning point.
GOLDEN_POINTS = [
    pytest.param(
        Design.lstm(1024).blocks(8).peephole().project(512).on("XCKU060"),
        id="lstm-fft8-ku060",
    ),
    pytest.param(
        Design.lstm(1024).blocks(16).peephole().project(512).on("ADM-PCIE-7V3"),
        id="lstm-fft16-7v3",
    ),
    pytest.param(Design.gru(1024).blocks(16).on("XCKU060"), id="gru-fft16"),
    pytest.param(
        Design.lstm(1024).blocks(8).io_block(16).peephole().project(512)
        .on("XCKU060"),
        id="lstm-fft8-ioblock16",
    ),
]


class TestFluentConstruction:
    def test_chain_compiles_to_frozen_specs(self):
        design = (
            Design.lstm(1024).blocks(8).peephole().project(512)
            .on("XCKU060").bits(12)
        )
        spec, accel = design.specs()
        assert spec == RNNSpec(
            "lstm", 153, (1024,), 39,
            block_sizes=(8,), peephole=True, projection_size=512,
        )
        assert accel == AccelSpec("XCKU060", weight_bits=12, input_bits=12)

    def test_verbs_return_new_instances(self):
        base = Design.lstm(1024)
        blocked = base.blocks(8)
        assert base.block_sizes == ()
        assert blocked.block_sizes == (8,)
        assert base is not blocked

    def test_blocks_broadcasts_uniform_value(self):
        design = Design.lstm(1024, 1024).blocks(8)
        assert design.block_sizes == (8, 8)
        per_layer = design.blocks(8, 16)
        assert per_layer.block_sizes == (8, 16)

    def test_dense_strips_compression(self):
        design = Design.lstm(1024).blocks(8).io_block(16).dense()
        assert design.block_sizes == () and design.io_block_size is None

    def test_bits_defaults_input_width_to_weight_width(self):
        design = Design.lstm(1024).bits(10)
        assert design.weight_bits == 10 and design.input_bits == 10
        split = design.bits(12, 8)
        assert split.weight_bits == 12 and split.input_bits == 8

    def test_unknown_cell_fails_fast(self):
        with pytest.raises(RegistryError):
            Design.cell("mamba", 1024)

    def test_invalid_spec_surfaces_config_error_at_compile(self):
        with pytest.raises(ConfigError):
            Design.gru(1024).peephole().rnn_spec()

    def test_from_specs_round_trips(self):
        spec = RNNSpec(
            "lstm", 153, (1024,), 39,
            block_sizes=(8,), peephole=True, projection_size=512,
        )
        accel = AccelSpec("XCKU060", weight_bits=10, input_bits=8)
        design = Design.from_specs(spec, accel)
        assert design.specs() == (spec, accel)


class TestGoldenEquivalence:
    """Design verbs must reproduce the canonical build functions byte for
    byte."""

    @pytest.mark.parametrize("design", GOLDEN_POINTS)
    def test_price_matches_accelerator_model(self, design):
        from repro.hw.accelerator import build_design

        spec, accel = design.specs()
        direct = build_design(spec, accel)
        priced = design.using(Engine()).price()
        assert priced == direct  # frozen dataclasses: full field equality

    @pytest.mark.parametrize("design", GOLDEN_POINTS)
    def test_codegen_byte_matches_hls_framework(self, design):
        from repro.hls.framework import build_hls

        spec, accel = design.specs()
        direct = build_hls(spec, accel)
        result = design.using(Engine()).codegen()
        assert result.code == direct.code
        assert result.summary() == direct.summary()

    def test_codegen_writes_file(self, tmp_path):
        out = tmp_path / "cu.c"
        result = Design.gru(1024).blocks(16).using(Engine()).codegen(out)
        assert out.read_text() == result.code

    def test_fit_check_matches_bram_model(self):
        from repro.hw.bram import fits_bram
        from repro.hw.platform import get_platform

        design = Design.lstm(1024, 1024).blocks(8).peephole().project(512)
        report = design.fit_check()
        assert report.fits == fits_bram(
            design.rnn_spec(), get_platform("XCKU060"), 12
        )
        assert "FITS" in report.describe()

    def test_bounds_match_paper_range(self):
        report = (
            Design.lstm(1024, 1024).peephole().project(512).bounds()
        )
        assert report.lower == 8
        assert report.upper == 64
        assert report.feasible
        assert report.num_trials == int(math.log2(64) - math.log2(8)) + 1
        assert report.block_sizes == (64, 32, 16, 8)

    def test_infeasible_bounds_reported(self):
        report = Design.lstm(4096, 4096, 4096, 4096).on("7v3").bounds()
        assert not report.feasible
        assert report.num_trials == 0
        assert report.block_sizes == ()
        assert "INFEASIBLE" in report.describe()

    def test_optimize_matches_two_phase_flow(self):
        from repro.core.ernn import run_two_phase_flow

        def oracle(spec: RNNSpec) -> float:
            per = 20.0
            for block in spec.effective_block_sizes:
                if block > 1:
                    per += 0.05 * math.log2(block)
            if spec.cell_type == "gru":
                per += 1.0
            if spec.io_block_size is not None:
                per += 0.5
            return per

        result = (
            Design.lstm(1024, 1024).peephole().project(512).on("XCKU060")
            .optimize(oracle, baseline_per=20.0)
        )
        direct = run_two_phase_flow(
            RNNSpec("lstm", 153, (1024, 1024), 39,
                    peephole=True, projection_size=512),
            oracle,
            baseline_per=20.0,
        )
        assert result.phase1.final_spec == direct.phase1.final_spec
        assert result.phase2.accel == direct.phase2.accel
        assert result.describe() == direct.describe()


class TestFacadeWarnings:
    def test_facade_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            design = (
                Design.lstm(1024).blocks(8).peephole().project(512)
                .using(Engine())
            )
            design.fit_check()
            design.bounds()
            design.price()
            design.codegen()

    def test_design_price_warns_nothing(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Design.lstm(64).blocks(8).io(12, 8).on("XCKU060").price()
        assert not caught
