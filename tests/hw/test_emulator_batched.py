"""Bit-exactness of the batched emulator against the per-frame oracle.

The batched (layer-major, input products hoisted one chunk of frames at a
time) and per-frame (frame-major, one matvec per matrix) execution
strategies must produce *byte-identical* logits — quantization tolerance
is not tolerated here, because the batched path claims to be the same
computation, not a close one.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RNNSpec
from repro.errors import ConfigError
from repro.hw.emulator import CHUNK_ROWS, CUEmulator, SpectralWeights
from repro.nn.circulant_layer import CirculantLinear
from repro.nn.rnn import StackedRNNClassifier


def _emulator(spec: RNNSpec, bits: int = 12) -> CUEmulator:
    model = StackedRNNClassifier(spec, structured=True,
                                 rng=np.random.default_rng(0))
    return CUEmulator(model, weight_bits=bits)


SPECS = {
    "lstm": RNNSpec("lstm", 20, (64,), 10, block_sizes=(8,)),
    "lstm-stack": RNNSpec("lstm", 20, (64, 32), 10, block_sizes=(8, 8)),
    "lstm-peep-proj": RNNSpec(
        "lstm", 20, (64,), 10, block_sizes=(8,),
        peephole=True, projection_size=32,
    ),
    "gru": RNNSpec("gru", 20, (64,), 10, block_sizes=(8,)),
    "gru-stack": RNNSpec("gru", 20, (64, 32), 10, block_sizes=(8, 4)),
}


class TestBatchedEqualsPerFrame:
    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("batch", [1, 8])
    def test_byte_identical_logits(self, name, batch):
        emulator = _emulator(SPECS[name])
        x = np.random.default_rng(9).standard_normal((25, batch, 20))
        batched = emulator.forward(x)
        reference = emulator.forward_reference(x)
        assert batched.shape == reference.shape
        assert batched.dtype == reference.dtype
        assert np.array_equal(batched, reference)

    @pytest.mark.parametrize("bits", [6, 12, 16])
    def test_byte_identical_across_bit_widths(self, bits):
        emulator = _emulator(SPECS["lstm-peep-proj"], bits=bits)
        x = np.random.default_rng(3).standard_normal((12, 4, 20))
        assert np.array_equal(
            emulator.forward(x), emulator.forward_reference(x)
        )

    def test_single_frame(self):
        emulator = _emulator(SPECS["gru"])
        x = np.random.default_rng(1).standard_normal((1, 3, 20))
        assert np.array_equal(
            emulator.forward(x), emulator.forward_reference(x)
        )

    def test_shape_validation_matches(self):
        emulator = _emulator(SPECS["lstm"])
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            emulator.forward(np.zeros((4, 20)))
        with pytest.raises(ConfigError):
            emulator.forward_reference(np.zeros((4, 20)))


def _assert_same_bytes(emulator: CUEmulator, x: np.ndarray) -> None:
    batched = emulator.forward(x)
    reference = emulator.forward_reference(x)
    assert np.array_equal(batched, reference)
    assert batched.tobytes() == reference.tobytes()


CHUNK_SPECS = ["lstm-peep-proj", "lstm-stack", "gru-stack"]


def _chunk_cases():
    """``(T, B)`` around the chunk boundaries at each batch width."""
    cases = []
    for batch in (1, 3, 8):
        k = max(1, CHUNK_ROWS // batch)
        for frames in sorted({1, k - 1, k, k + 1, 2 * k + 3} - {0}):
            cases.append((frames, batch))
    # More rows than a chunk holds: one frame per chunk.
    cases += [(1, CHUNK_ROWS + 1), (4, CHUNK_ROWS + 1)]
    return cases


class TestChunkBoundaries:
    """``forward`` hoists input products one chunk of frames at a time."""

    @pytest.mark.parametrize("name", CHUNK_SPECS)
    @pytest.mark.parametrize("frames,batch", _chunk_cases())
    def test_byte_identical_at_chunk_edges(self, name, frames, batch):
        emulator = _emulator(SPECS[name])
        x = np.random.default_rng(frames * 1000 + batch).standard_normal(
            (frames, batch, 20)
        )
        _assert_same_bytes(emulator, x)

    @settings(max_examples=15, deadline=None)
    @given(
        name=st.sampled_from(CHUNK_SPECS),
        frames=st.integers(1, 2 * CHUNK_ROWS + 5),
        batch=st.integers(1, CHUNK_ROWS + 2),
        seed=st.integers(0, 2**31),
    )
    def test_byte_identical_drawn_shape(self, name, frames, batch, seed):
        emulator = _emulator(SPECS[name])
        x = np.random.default_rng(seed).standard_normal((frames, batch, 20))
        _assert_same_bytes(emulator, x)

    def test_peak_memory_below_one_gate_buffer(self):
        """The ``(T, B, 4H)`` input-product buffer is never materialised."""
        spec = RNNSpec("lstm", 40, (256,), 39, block_sizes=(8,))
        emulator = _emulator(spec)
        frames, batch = 512, 8
        x = np.random.default_rng(2).standard_normal((frames, batch, 40))
        gate_buffer = frames * batch * 4 * 256 * 8  # float64 bytes
        emulator.forward(x[:2])  # warm lazily built operands
        tracemalloc.start()
        try:
            emulator.forward(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < gate_buffer, (peak, gate_buffer)


class TestSpectralWeightsVariants:
    """matvec_step and matvec_frames against the oracle matvec."""

    @pytest.mark.parametrize(
        "in_features,out_features,block,bits,frames,batch",
        [
            (153, 128, 8, 12, 7, 8),  # padded input width
            (16, 16, 4, 12, 7, 1),    # B=1 (the GEMM's degenerate shape)
            (32, 64, 8, 6, 7, 3),     # coarse quantization
            (24, 24, 8, 16, 7, 8),    # wide words
            (40, 64, 8, 12, 5, 1),    # (G, B) = (5, 1), as step_rows feeds it
        ],
    )
    def test_all_variants_byte_identical(
        self, rng, in_features, out_features, block, bits, frames, batch
    ):
        layer = CirculantLinear(
            in_features, out_features, block_size=block, bias=False, rng=rng
        )
        weights = SpectralWeights.from_layer(layer, bits)
        x = rng.standard_normal((frames, batch, in_features)) * 3
        per_frame = np.stack(
            [weights.matvec(x[t], bits) for t in range(frames)]
        )
        stepped = np.stack(
            [weights.matvec_step(x[t], bits) for t in range(frames)]
        )
        hoisted = weights.matvec_frames(x, bits)
        assert np.array_equal(per_frame, stepped)
        assert np.array_equal(per_frame, hoisted)

    def test_rejects_data_wider_than_weights(self, rng):
        layer = CirculantLinear(8, 8, block_size=4, bias=False, rng=rng)
        weights = SpectralWeights.from_layer(layer, 12)
        with pytest.raises(ConfigError):
            weights.matvec_step(np.ones((1, 8)), 13)

    def test_matvec_frames_rejects_2d(self, rng):
        layer = CirculantLinear(8, 8, block_size=4, bias=False, rng=rng)
        weights = SpectralWeights.from_layer(layer, 12)
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            weights.matvec_frames(np.zeros((3, 8)), 12)

    def test_width_check_consistent(self, rng):
        layer = CirculantLinear(8, 8, block_size=4, bias=False, rng=rng)
        weights = SpectralWeights.from_layer(layer, 12)
        from repro.errors import ConfigError

        for call in (
            lambda: weights.matvec(np.zeros((1, 7)), 12),
            lambda: weights.matvec_step(np.zeros((1, 7)), 12),
            lambda: weights.matvec_frames(np.zeros((2, 1, 7)), 12),
        ):
            with pytest.raises(ConfigError):
                call()


def _max_exact_bits(q: int) -> int:
    """The widest word at which a MAC over ``q`` blocks is still exact."""
    return (53 - (q - 1).bit_length()) // 2


@st.composite
def _mac_cases(draw):
    q = draw(st.integers(1, 40))
    edge = _max_exact_bits(q)
    bits = draw(st.one_of(st.just(edge), st.integers(2, edge)))
    block = draw(st.sampled_from([2, 4, 8]))
    in_features = q * block - draw(st.integers(0, block - 1))
    groups = draw(st.integers(0, 4))
    batch = draw(st.integers(0, 3))
    kinds = draw(st.lists(
        st.sampled_from(["normal", "zero", "constant"]),
        min_size=groups, max_size=groups,
    ))
    exponents = draw(st.lists(
        st.integers(-150, 3), min_size=groups, max_size=groups
    ))
    return q, bits, block, in_features, groups, batch, kinds, exponents, draw(
        st.integers(0, 2**31)
    )


class TestExactMac:
    """The spectral MAC is exact below the bound, so GEMM shape is free."""

    @settings(max_examples=60, deadline=None)
    @given(case=_mac_cases())
    def test_groups_equal_each_group_alone_equal_matvec(self, case):
        q, bits, block, in_features, groups, batch, kinds, exponents, seed = (
            case
        )
        rng = np.random.default_rng(seed)
        layer = CirculantLinear(
            in_features, 3 * block - 1, block_size=block, bias=False, rng=rng
        )
        weights = SpectralWeights.from_layer(layer, bits)
        assert weights.spectra.shape[1] == q
        x = rng.standard_normal((groups, batch, in_features))
        for g, (kind, exponent) in enumerate(zip(kinds, exponents)):
            if kind == "zero":
                x[g] = 0.0
            elif kind == "constant":
                x[g] = -(10.0**exponent)
            else:
                x[g] *= 10.0**exponent
        grouped = weights._matvec_groups(x, bits)
        assert grouped.shape == (groups, batch, 3 * block - 1)
        for g in range(groups):
            alone = weights._matvec_groups(x[g : g + 1], bits)[0]
            assert np.array_equal(grouped[g], alone)
            if batch:  # the oracle cannot reshape an empty batch
                assert np.array_equal(alone, weights.matvec(x[g], bits))

    @settings(max_examples=30, deadline=None)
    @given(q=st.integers(1, 64), block=st.sampled_from([2, 4]))
    def test_one_bit_past_the_bound_raises(self, q, block):
        layer = CirculantLinear(q * block, block, block_size=block,
                                bias=False, rng=np.random.default_rng(q))
        SpectralWeights.from_layer(layer, _max_exact_bits(q))
        with pytest.raises(ConfigError, match="exactly"):
            SpectralWeights.from_layer(layer, _max_exact_bits(q) + 1)


class TestSeedBaselineAgreement:
    """The frozen benchmark baselines still compute today's numbers."""

    def test_seed_emulator_matches_current(self):
        from repro.bench.baselines import seed_emulator_forward

        emulator = _emulator(SPECS["lstm-peep-proj"])
        x = np.random.default_rng(4).standard_normal((10, 4, 20))
        assert np.array_equal(
            seed_emulator_forward(emulator, x), emulator.forward(x)
        )

    def test_seed_emulator_matches_current_gru(self):
        from repro.bench.baselines import seed_emulator_forward

        emulator = _emulator(SPECS["gru-stack"])
        x = np.random.default_rng(5).standard_normal((10, 2, 20))
        assert np.array_equal(
            seed_emulator_forward(emulator, x), emulator.forward(x)
        )

    def test_seed_matvec_matches_current(self, rng):
        from repro.bench.baselines import seed_matvec

        layer = CirculantLinear(32, 64, block_size=8, bias=False, rng=rng)
        weights = SpectralWeights.from_layer(layer, 12)
        x = rng.standard_normal((5, 32))
        assert np.array_equal(
            seed_matvec(weights, x, 12), weights.matvec(x, 12)
        )
