"""The E-RNN framework: Phase I + Phase II end to end.

:func:`run_two_phase_flow` is the programmatic equivalent of the paper's
overall flow: start from a dense LSTM baseline and an accuracy budget,
derive the compressed model (Phase I), then size its FPGA implementation
(Phase II).  The fluent facade exposes it as
``repro.api.Design(...).optimize(trainer, ...)``:

>>> result = run_two_phase_flow(baseline_spec, trainer, baseline_per=20.01)
>>> result.phase1.final_spec          # the chosen RNN model
>>> result.phase2.design.latency_us   # its hardware implementation
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import RNNSpec
from repro.core.phase1 import PhaseIConfig, PhaseIOptimizer, PhaseIResult, Trainer
from repro.core.phase2 import PhaseIIConfig, PhaseIIOptimizer, PhaseIIResult, QuantEval

__all__ = ["ERNNResult", "run_two_phase_flow"]


@dataclass(frozen=True)
class ERNNResult:
    """Combined outcome of both phases."""

    phase1: PhaseIResult
    phase2: PhaseIIResult

    def describe(self) -> str:
        return "\n".join([self.phase1.describe(), self.phase2.describe()])


def run_two_phase_flow(
    baseline_spec: RNNSpec,
    trainer: Trainer,
    baseline_per: float | None = None,
    phase1_config: PhaseIConfig | None = None,
    phase2_config: PhaseIIConfig | None = None,
    quant_eval_factory=None,
) -> ERNNResult:
    """End-to-end design optimization under an accuracy requirement.

    ``quant_eval_factory(spec) -> (quant_eval, float_per)`` optionally
    provides the Phase-II bit-width search with a measured quantized PER;
    without it Phase II uses the paper's validated 12-bit default.
    """
    phase1_config = phase1_config if phase1_config is not None else PhaseIConfig()
    phase1 = PhaseIOptimizer(baseline_spec, trainer, phase1_config).run(
        baseline_per=baseline_per
    )

    if phase2_config is None:
        phase2_config = PhaseIIConfig(platform=phase1_config.platform)

    quant_eval: QuantEval | None = None
    float_per: float | None = None
    if quant_eval_factory is not None:
        quant_eval, float_per = quant_eval_factory(phase1.final_spec)

    phase2 = PhaseIIOptimizer(
        phase1.final_spec,
        phase2_config,
        quant_eval=quant_eval,
        float_per=float_per,
    ).run()
    return ERNNResult(phase1=phase1, phase2=phase2)
