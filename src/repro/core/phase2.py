"""Phase II: hardware-oriented optimization given the RNN model (Sec. VII).

Given the Phase-I spec, Phase II determines the implementation: number of
PEs (the ``min(DSP/ΔDSP, LUT/ΔLUT)`` allocation inside
:func:`repro.hw.accelerator.build_design`), the fixed-point bit width
(smallest width whose PER cost stays inside the quantization budget —
Sec. VII-D's conclusion is 12 bits), and the piecewise-linear activation
table size (smallest power-of-two segment count meeting a worst-case error
bound).  The result is an :class:`ImplementationReport` — one Table III
column.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.config import AccelSpec, RNNSpec
from repro.core.compression import compression_ratio, layer_matrix_params
from repro.errors import ConfigError
from repro.hw.accelerator import AcceleratorDesign, build_design
from repro.hw.activation import pwl_sigmoid, pwl_tanh
from repro.hw.report import ImplementationReport

__all__ = ["PhaseIIConfig", "PhaseIIResult", "PhaseIIOptimizer", "select_pwl_segments"]

QuantEval = Callable[[int], float]


@dataclass(frozen=True)
class PhaseIIConfig:
    """Hardware search parameters."""

    platform: str = "XCKU060"
    candidate_bits: tuple[int, ...] = (16, 14, 12, 10, 8)
    quantization_budget: float = 0.1  # extra PER allowed (Sec. VII-D: <0.1%)
    pwl_error_budget: float = 1e-3
    num_compute_units: int | None = None
    pe_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if not self.candidate_bits:
            raise ConfigError("need at least one candidate bit width")
        if self.quantization_budget < 0:
            raise ConfigError("quantization_budget must be non-negative")


@dataclass(frozen=True)
class PhaseIIResult:
    """Selected implementation and its report."""

    accel: AccelSpec
    design: AcceleratorDesign
    report: ImplementationReport
    pwl_segments: int
    quantization_curve: dict[int, float] | None

    def describe(self) -> str:
        d = self.design
        return (
            f"Phase II: {d.spec.describe()} on {d.platform.name}\n"
            f"  {d.num_pes} PEs in {d.num_cus} CUs, "
            f"{self.accel.weight_bits}-bit fixed point, "
            f"{self.pwl_segments}-segment PWL activations\n"
            f"  latency {d.latency_us:.1f} us, {d.fps:,.0f} FPS, "
            f"{d.power_watts:.1f} W, {d.energy_efficiency:,.0f} FPS/W"
        )


def select_pwl_segments(
    error_budget: float,
    candidates: tuple[int, ...] = (4, 8, 16, 32, 64, 128),
) -> int:
    """Smallest table meeting the worst-case error bound for σ *and* tanh."""
    sigmoid_ref = lambda x: 1.0 / (1.0 + np.exp(-x))  # noqa: E731
    for segments in sorted(candidates):
        sig_err = pwl_sigmoid(segments).max_error(sigmoid_ref)
        tanh_err = pwl_tanh(segments).max_error(np.tanh)
        if max(sig_err, tanh_err) <= error_budget:
            return segments
    return max(candidates)


class PhaseIIOptimizer:
    """Sizes the hardware for a Phase-I spec."""

    def __init__(
        self,
        spec: RNNSpec,
        config: PhaseIIConfig | None = None,
        quant_eval: QuantEval | None = None,
        float_per: float | None = None,
    ):
        if not spec.is_block_circulant:
            raise ConfigError("Phase II consumes the circulant spec from Phase I")
        if quant_eval is not None and float_per is None:
            raise ConfigError("float_per is required when quant_eval is given")
        self.spec = spec
        self.config = config if config is not None else PhaseIIConfig()
        self.quant_eval = quant_eval
        self.float_per = float_per

    # ------------------------------------------------------------------
    def select_bits(self) -> tuple[int, dict[int, float] | None]:
        """Smallest candidate bit width within the quantization budget.

        Without a quantization evaluator, returns the paper's validated
        default of 12 bits ("12-bit weight quantization is in general a safe
        design").
        """
        if self.quant_eval is None:
            default = 12 if 12 in self.config.candidate_bits else max(
                self.config.candidate_bits
            )
            return default, None
        curve: dict[int, float] = {}
        feasible: list[int] = []
        assert self.float_per is not None
        for bits in sorted(self.config.candidate_bits, reverse=True):
            per = self.quant_eval(bits)
            curve[bits] = per
            if per - self.float_per <= self.config.quantization_budget:
                feasible.append(bits)
        if not feasible:
            raise ConfigError(
                "no candidate bit width meets the quantization budget "
                f"{self.config.quantization_budget}%: {curve}"
            )
        return min(feasible), curve

    # ------------------------------------------------------------------
    def run(self) -> PhaseIIResult:
        bits, curve = self.select_bits()
        segments = select_pwl_segments(self.config.pwl_error_budget)
        accel = AccelSpec(
            platform=self.config.platform,
            weight_bits=bits,
            input_bits=bits,
            pwl_segments=segments,
            num_compute_units=self.config.num_compute_units,
        )
        design = build_design(
            self.spec, accel, pe_efficiency=self.config.pe_efficiency
        )
        report = ImplementationReport(
            label=f"E-RNN FFT{max(self.spec.effective_block_sizes)}",
            cell=self.spec.describe(),
            platform=self.config.platform,
            quant_bits=bits,
            params_top_layer_m=layer_matrix_params(self.spec) / 1e6,
            compression_ratio=compression_ratio(self.spec),
            utilization=design.utilization,
            latency_us=design.latency_us,
            fps=design.fps,
            power_watts=design.power_watts,
        )
        return PhaseIIResult(
            accel=accel,
            design=design,
            report=report,
            pwl_segments=segments,
            quantization_curve=curve,
        )
