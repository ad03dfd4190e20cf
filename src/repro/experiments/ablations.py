"""Ablations for the paper's design choices.

* :func:`admm_vs_direct` — the paper's central training claim (Sec. VIII-B2):
  ADMM from a pretrained model degrades accuracy less than training the
  circulant parametrization from scratch (E-RNN 0.14% vs C-LSTM 0.32% at
  block 8).
* :func:`decoupling_ablation` — the Sec. V computation-reduction techniques
  (FFT-IFFT decoupling, real-FFT symmetry, trivial twiddles), switched off
  one at a time.
* :func:`quantization_ablation` — the Sec. VII-D bit-width sweep on a
  trained model (12 bits should cost < ~0.1% at paper scale; small scale
  shows the same knee), scored by :func:`quantization_sweep` on the served
  fixed-point backend.
* :func:`phase1_trial_count` — Phase I's headline: ~5 training trials
  instead of a full grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asr.pipeline import PreparedDataset
from repro.config import RNNSpec
from repro.core.cost_model import layer_multiplications
from repro.core.phase1 import PhaseIConfig, PhaseIOptimizer, PhaseIResult
from repro.experiments.common import ExperimentHarness
from repro.nn.rnn import StackedRNNClassifier
from repro.runtime import compile as compile_model, evaluate_per

__all__ = [
    "AdmmAblation",
    "admm_vs_direct",
    "decoupling_ablation",
    "quantization_sweep",
    "quantization_ablation",
    "phase1_trial_count",
]


@dataclass(frozen=True)
class AdmmAblation:
    """ADMM-vs-direct degradations at one block size."""

    block_size: int
    baseline_per: float
    admm_per: float
    direct_per: float

    @property
    def admm_degradation(self) -> float:
        return self.admm_per - self.baseline_per

    @property
    def direct_degradation(self) -> float:
        return self.direct_per - self.baseline_per

    def describe(self) -> str:
        return (
            f"block {self.block_size}: baseline {self.baseline_per:.2f}%, "
            f"E-RNN (ADMM) {self.admm_per:.2f}% ({self.admm_degradation:+.2f}), "
            f"C-LSTM (direct) {self.direct_per:.2f}% "
            f"({self.direct_degradation:+.2f})  "
            f"[paper at block 8: +0.14 vs +0.32]"
        )


def admm_vs_direct(
    harness: ExperimentHarness,
    layer_sizes: tuple[int, ...] = (48,),
    block_size: int = 8,
) -> AdmmAblation:
    dense_spec = harness.make_spec("lstm", layer_sizes)
    circ_spec = dense_spec.with_block_sizes(
        tuple(block_size for _ in layer_sizes)
    )
    return AdmmAblation(
        block_size=block_size,
        baseline_per=harness.measure_per(dense_spec),
        admm_per=harness.measure_per(circ_spec, flavor="ernn"),
        direct_per=harness.measure_per(circ_spec, flavor="direct"),
    )


def decoupling_ablation(
    layer_size: int = 1024, block_size: int = 8
) -> dict[str, float]:
    """Real-multiplication counts with each Sec. V technique toggled off."""
    full = layer_multiplications(layer_size, layer_size, block_size).total
    variants = {
        "all techniques": full,
        "no FFT-IFFT decoupling": layer_multiplications(
            layer_size, layer_size, block_size, decoupling=False
        ).total,
        "no real-FFT symmetry": layer_multiplications(
            layer_size, layer_size, block_size, real_symmetry=False
        ).total,
        "no trivial-twiddle savings": layer_multiplications(
            layer_size, layer_size, block_size, twiddle_savings=False
        ).total,
        "dense (block 1)": float(layer_size * layer_size),
    }
    return variants


def quantization_sweep(
    model: StackedRNNClassifier,
    dataset: PreparedDataset,
    bits_list: tuple[int, ...] = (16, 14, 12, 10, 8, 6),
    pwl_segments: int = 16,
) -> dict[int, float]:
    """PER of the served fixed-point backend at each bit width.

    Each entry scores ``compile(model, "fixed", weight_bits=bits,
    pwl_segments=pwl_segments)`` — the CU emulation that serving runs:
    weights, inputs and spectra quantized at ``bits``, σ/tanh evaluated as
    ``pwl_segments``-segment PWL tables.  Utterances are scored one at a
    time (``batch_size=1``): a width-B batch would fit each frame's formats
    across B utterances, math that serving's row-isolated ``step_rows``
    never runs.  A dense model raises :class:`~repro.errors.ConfigError`
    from ``compile``.
    """
    return {
        bits: evaluate_per(
            compile_model(
                model,
                "fixed",
                weight_bits=bits,
                pwl_segments=pwl_segments,
                cache=False,
            ),
            dataset,
            batch_size=1,
        )
        for bits in bits_list
    }


def quantization_ablation(
    harness: ExperimentHarness,
    layer_sizes: tuple[int, ...] = (48,),
    block_size: int = 4,
    bits_list: tuple[int, ...] = (16, 12, 10, 8, 6),
) -> dict[int, float]:
    """PER vs bit width on the harness's compressed model."""
    _, test = harness.datasets()
    dense_spec = harness.make_spec("lstm", layer_sizes)
    circ_spec = dense_spec.with_block_sizes(tuple(block_size for _ in layer_sizes))
    # Reuse the harness flow to obtain a trained structured model.
    harness.measure_per(circ_spec)  # warms the dense cache
    from repro.core.flow import ernn_compress

    dense_model: StackedRNNClassifier = harness.dense_model(dense_spec)
    train, _ = harness.datasets()
    result = ernn_compress(dense_model, circ_spec, train)
    return quantization_sweep(result.model, test, bits_list)


def phase1_trial_count(
    harness: ExperimentHarness,
    baseline_spec: RNNSpec | None = None,
    accuracy_budget: float = 5.0,
) -> PhaseIResult:
    """Run Phase I against the harness trainer and report the trial log.

    The scaled corpus has coarser PER granularity than TIMIT, so the budget
    is proportionally wider; the claim under test is the *trial count*
    (≈ 5) and the bounded search, not the absolute budget.
    """
    if baseline_spec is None:
        baseline_spec = harness.make_spec("lstm", (32, 32))
    config = PhaseIConfig(
        accuracy_budget=accuracy_budget,
        platform="XCKU060",
        max_block=16,
    )
    optimizer = PhaseIOptimizer(baseline_spec, harness.trainer(), config)
    return optimizer.run()
