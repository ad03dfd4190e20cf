"""Quantization sweep (Sec. VII-D): PER vs fixed-point bit width.

Paper: "The accuracy degradation from input/weight quantization is very
small (i.e., <0.1%) ... 12-bit weight quantization is in general a safe
design."  At reproduction scale the knee is the same: high widths are free,
very low widths collapse.  Every point is the PER of the served fixed-point
backend (quantized weights, inputs and spectra; 16-segment PWL σ/tanh).
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments.ablations import quantization_ablation


@pytest.mark.benchmark(group="quantization")
def test_quantization_sweep(benchmark, harness):
    sweep = benchmark.pedantic(
        quantization_ablation,
        args=(harness,),
        kwargs={"bits_list": (16, 12, 10, 8, 6)},
        rounds=1,
        iterations=1,
    )
    lines = ["Quantization sweep (weights+inputs quantized, PWL activations):"]
    lines += [f"  {bits:>2d} bits -> PER {per:6.2f}%" for bits, per in sweep.items()]
    lines.append("paper: 12-bit costs <0.1% PER at TIMIT scale")
    emit("quantization_sweep", "\n".join(lines))

    # 12-bit within noise of 16-bit; 6-bit materially worse than 16-bit.
    assert abs(sweep[12] - sweep[16]) <= 5.0
    assert sweep[6] >= sweep[16] - 1.0
