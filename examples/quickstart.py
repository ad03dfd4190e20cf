"""Quickstart: compress an LSTM with ADMM and size its FPGA implementation.

The five-minute tour of the library:

1. generate a synthetic TIMIT-like corpus and extract features;
2. train a dense LSTM acoustic model;
3. compress it to block-circulant form with ADMM (the E-RNN flow);
4. compile it to the 12-bit fixed-point backend (PWL activations) and
   score its PER;
5. size the FPGA accelerator and print the implementation report;
6. stream frames of the compiled model through a session.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import runtime
from repro.asr import (
    CorpusConfig,
    FeatureConfig,
    FeatureExtractor,
    PhoneSet,
    SyntheticTIMIT,
    TrainConfig,
    prepare_dataset,
    train_model,
)
from repro.api import Design
from repro.config import RNNSpec
from repro.nn import StackedRNNClassifier
from repro.runtime import evaluate_per


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Data: a small synthetic corpus (16 phones, 8 kHz, 10 speakers).
    # ------------------------------------------------------------------
    phones = PhoneSet.folded().subset(16)
    corpus = SyntheticTIMIT(
        CorpusConfig(
            phone_set=phones,
            num_speakers=8,
            utterances_per_speaker=8,
            test_speakers=2,
            sample_rate=8000,
            noise_level=0.25,
            seed=1,
        )
    )
    extractor = FeatureExtractor(
        FeatureConfig(sample_rate=8000, num_filters=13)
    )
    extractor.fit_normalizer(corpus.train)
    train = prepare_dataset(corpus.train, extractor, phones)
    test = prepare_dataset(corpus.test, extractor, phones)
    print(f"corpus: {corpus}, feature dim {train.feature_dim}")

    # ------------------------------------------------------------------
    # 2. Dense baseline.
    # ------------------------------------------------------------------
    spec = RNNSpec("lstm", train.feature_dim, (48,), len(phones))
    model = StackedRNNClassifier(spec, rng=np.random.default_rng(0))
    train_model(
        model, train,
        TrainConfig(epochs=20, learning_rate=5e-3, lr_decay=0.96, seed=7),
    )
    dense_per = evaluate_per(model, test)
    print(f"dense LSTM-48 PER: {dense_per:.2f}%")

    # ------------------------------------------------------------------
    # 3. ADMM compression to block-circulant (block size 4 -> 4x fewer
    #    weights, Fig. 6 flow: ADMM -> projection -> structured retrain).
    # ------------------------------------------------------------------
    design = (
        Design.lstm(*spec.layer_sizes)
        .io(train.feature_dim, len(phones))
        .blocks(4)
        .on("XCKU060")
        .bits(12)
    )
    result = design.compress(model, train)
    compressed_per = evaluate_per(result.model, test)
    print(
        f"E-RNN block-4 PER: {compressed_per:.2f}% "
        f"(degradation {compressed_per - dense_per:+.2f}; "
        f"final ADMM residual {result.final_residual:.3f})"
    )
    print(
        f"parameters: {model.num_parameters():,} dense -> "
        f"{result.model.num_parameters():,} compressed"
    )

    # ------------------------------------------------------------------
    # 4. Hardware-faithful inference: compile to the fixed-point CU
    #    backend (12-bit weights/inputs, 16-segment PWL σ/tanh) and score
    #    the math the FPGA computes.
    # ------------------------------------------------------------------
    compiled = runtime.compile(
        result.model, backend="fixed", weight_bits=12, pwl_segments=16,
        phone_set=phones,
    )
    quantized_per = evaluate_per(compiled, test)
    print(
        f"12-bit fixed-point + PWL activations PER: {quantized_per:.2f}% "
        f"(quantization cost {quantized_per - compressed_per:+.2f})"
    )

    # ------------------------------------------------------------------
    # 5. FPGA implementation (at paper scale the same call prices the
    #    Table III designs; here it prices the toy model).
    # ------------------------------------------------------------------
    priced = design.price()
    print(
        f"KU060 implementation: {priced.num_pes} PEs in {priced.num_cus} CUs, "
        f"{priced.latency_us:.2f} us/frame, {priced.fps:,.0f} FPS, "
        f"{priced.power_watts:.1f} W "
        f"({priced.energy_efficiency:,.0f} FPS/W)"
    )

    # ------------------------------------------------------------------
    # 6. Deployment: stream an utterance through the same compiled model
    #    frame by frame (byte-identical to the batched run).
    # ------------------------------------------------------------------
    utterance = test.features[0][:, None, :]  # (T, 1, D)
    session = compiled.session()
    streamed = np.stack([session.push(frame) for frame in utterance])
    assert np.array_equal(streamed, compiled.run(utterance))
    hypothesis = compiled.decoder().decode_utterance(streamed[:, 0])
    print(
        f"streamed {session.frames_pushed} frames through the CU emulator; "
        f"decoded: {' '.join(hypothesis) or '(silence)'}"
    )


if __name__ == "__main__":
    main()
