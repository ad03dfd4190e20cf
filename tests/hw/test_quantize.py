"""Sec. VII-D sweep: scored on the served fixed-point backend, PWL included."""

import numpy as np
import pytest

from repro.config import RNNSpec
from repro.errors import ConfigError
from repro.experiments.ablations import quantization_sweep
from repro.hw.emulator import SpectralWeights
from repro.hw.fixed_point import FixedPointFormat
from repro.nn.rnn import StackedRNNClassifier
from repro.runtime import compile, evaluate_per


def served(model, bits, segments):
    return compile(
        model, "fixed", weight_bits=bits, pwl_segments=segments, cache=False
    )


class TestQuantizationSweep:
    @pytest.mark.parametrize("segments", [4, 64])
    def test_sweep_is_the_served_fixed_backend(
        self, structured_model, micro_datasets, segments
    ):
        _, test = micro_datasets
        sweep = quantization_sweep(
            structured_model, test, (16, 12), pwl_segments=segments
        )
        assert list(sweep) == [16, 12]
        for bits, per in sweep.items():
            assert per == evaluate_per(
                served(structured_model, bits, segments), test, batch_size=1
            )

    def test_pwl_segments_reach_the_logits(
        self, structured_model, micro_datasets
    ):
        """An accuracy path that drops PWL makes the segment count invisible."""
        _, test = micro_datasets
        x = test.features[0][:, None, :]
        coarse = served(structured_model, 16, 4).run(x)
        fine = served(structured_model, 16, 64).run(x)
        assert not np.array_equal(coarse, fine)

    def test_dense_model_rejected(self, trained_dense, micro_datasets):
        """The hardware is block-circulant: no silent fall back to float."""
        _, test = micro_datasets
        with pytest.raises(ConfigError):
            quantization_sweep(trained_dense, test, (12,))

    def test_degradation_knee(self, structured_model, micro_datasets):
        """Sec. VII-D: high bit widths cost ~nothing; very low widths blow up."""
        _, test = micro_datasets
        float_per = evaluate_per(structured_model, test)
        sweep = quantization_sweep(structured_model, test, (16, 12, 4))
        # The micro test set quantizes PER in ~6% steps (one token); allow
        # one-token noise around the float PER at high bit widths.
        one_token = 7.0
        assert abs(sweep[16] - float_per) <= 4 * one_token
        assert abs(sweep[12] - float_per) <= 4 * one_token
        assert sweep[4] >= sweep[16] - one_token  # 4-bit is never really better


def circulant_layers(model):
    for cell in model.cells:
        for attr, layer, _role in cell.weight_layer_roles():
            yield attr, layer


class TestStoredSpectra:
    """The BRAM image the fixed backend computes with: quantized FFT(w_ij)."""

    @pytest.mark.parametrize("bits", [16, 12, 8, 6])
    def test_spectra_on_grid(self, structured_model, bits):
        for attr, layer in circulant_layers(structured_model):
            stored = SpectralWeights.from_layer(layer, bits).spectra
            parts = np.concatenate([stored.real.ravel(), stored.imag.ravel()])
            fmt = FixedPointFormat.fit(parts, bits)
            assert np.array_equal(fmt.quantize(parts), parts), attr
            codes = parts * fmt.scale
            assert np.all(np.abs(codes) <= 2 ** (bits - 1)), attr

    @pytest.mark.parametrize("bits", [16, 12, 8, 6])
    def test_error_bounded(self, structured_model, bits):
        for attr, layer in circulant_layers(structured_model):
            exact = np.fft.rfft(layer.weight_vectors.data, axis=-1)
            parts = np.concatenate([exact.real.ravel(), exact.imag.ravel()])
            half_step = 0.5 * FixedPointFormat.fit(parts, bits).resolution
            stored = SpectralWeights.from_layer(layer, bits).spectra
            assert np.max(np.abs(stored.real - exact.real)) <= half_step, attr
            assert np.max(np.abs(stored.imag - exact.imag)) <= half_step, attr


class TestInputQuantization:
    """The fixed backend quantizes every input frame at ``bits`` itself."""

    @pytest.mark.parametrize("bits", [16, 12, 8])
    def test_frames_already_on_their_grid_change_nothing(
        self, structured_model, micro_datasets, bits
    ):
        _, test = micro_datasets
        frames = test.features[0]
        on_grid = np.stack(
            [FixedPointFormat.fit(f, bits).quantize(f) for f in frames]
        )
        assert not np.array_equal(on_grid, frames)
        compiled = served(structured_model, bits, 16)
        assert np.array_equal(
            compiled.run(on_grid[:, None, :]), compiled.run(frames[:, None, :])
        )


class TestSweepOptions:
    def test_weight_bits_reach_the_logits(
        self, structured_model, micro_datasets
    ):
        _, test = micro_datasets
        x = test.features[0][:, None, :]
        wide = served(structured_model, 16, 16).run(x)
        narrow = served(structured_model, 6, 16).run(x)
        assert not np.array_equal(wide, narrow)

    def test_sweep_leaves_model_untouched(
        self, structured_model, micro_datasets
    ):
        _, test = micro_datasets
        before = structured_model.state_dict()
        first = quantization_sweep(structured_model, test, (6,))
        after = structured_model.state_dict()
        assert set(before) == set(after)
        for name in before:
            assert np.array_equal(before[name], after[name]), name
        assert quantization_sweep(structured_model, test, (6,)) == first

    @pytest.mark.parametrize("bits", [12, 6])
    def test_cached_compile_equals_uncached(
        self, structured_model, micro_datasets, bits
    ):
        """The sweep bypasses the engine cache; that must not change bytes."""
        _, test = micro_datasets
        x = test.features[1][:, None, :]
        cached = compile(
            structured_model, "fixed", weight_bits=bits, pwl_segments=16
        )
        assert np.array_equal(
            cached.run(x), served(structured_model, bits, 16).run(x)
        )

    @pytest.mark.parametrize("cell_type", ["lstm", "gru"])
    def test_untrained_structured_model(self, micro_datasets, cell_type):
        """Both cell types, random circulant init, scored as served."""
        train, _ = micro_datasets
        spec = RNNSpec(
            cell_type, train.feature_dim, (16,), len(train.phone_set),
            block_sizes=(4,),
        )
        model = StackedRNNClassifier(
            spec, structured=True, rng=np.random.default_rng(0)
        )
        sweep = quantization_sweep(model, train, (12,), pwl_segments=8)
        assert 0.0 <= sweep[12] <= 200.0
        assert sweep[12] == evaluate_per(
            served(model, 12, 8), train, batch_size=1
        )
