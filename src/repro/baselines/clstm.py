"""C-LSTM baseline (Wang et al. [24]): direct circulant training + hardware.

C-LSTM pioneered block-circulant LSTMs on FPGAs, but with two gaps the
E-RNN paper closes:

* **Training** — C-LSTM trains the circulant parametrization *directly* by
  gradient descent (and its FFT-domain training is "not compatible with
  recent progress in stochastic gradient descent (e.g., ADAM)", Sec. I).
  Starting structured loses the pretrained dense solution, which is why its
  PER degradation is higher than ADMM's at the same block size (0.32% vs
  0.14% at block 8).  :func:`build_clstm_model` builds the structured model
  that :func:`repro.asr.pipeline.train_model` then trains from scratch, with
  plain momentum SGD for fidelity to the baseline.
* **Hardware** — same block-circulant datapath but 16-bit quantization and
  no PE-level optimization; modeled by
  :func:`repro.hw.accelerator.build_design` with
  ``CLSTM_PE_EFFICIENCY`` and ``weight_bits=16``.
"""

from __future__ import annotations

import numpy as np

from repro.config import AccelSpec, RNNSpec
from repro.errors import ConfigError
from repro.hw.accelerator import CLSTM_PE_EFFICIENCY, AcceleratorDesign, build_design
from repro.nn.rnn import StackedRNNClassifier

__all__ = [
    "build_clstm_model",
    "clstm_accelerator",
    "CLSTM_WEIGHT_BITS",
]

#: C-LSTM's published quantization (Table III row "Quantization").
CLSTM_WEIGHT_BITS = 16


def build_clstm_model(
    spec: RNNSpec, rng: np.random.Generator | None = None
) -> StackedRNNClassifier:
    """Structured model trained from scratch — the C-LSTM training style."""
    if not spec.is_block_circulant:
        raise ConfigError("C-LSTM requires a block-circulant spec")
    return StackedRNNClassifier(spec, structured=True, rng=rng)


def clstm_accelerator(
    spec: RNNSpec, platform: str = "ADM-PCIE-7V3"
) -> AcceleratorDesign:
    """C-LSTM's hardware implementation of a circulant spec."""
    accel = AccelSpec(platform, weight_bits=CLSTM_WEIGHT_BITS,
                      input_bits=CLSTM_WEIGHT_BITS)
    return build_design(spec, accel, pe_efficiency=CLSTM_PE_EFFICIENCY)
