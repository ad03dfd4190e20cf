"""Functional CU emulator: inference exactly as the accelerator computes it.

The training stack computes float math; the FPGA computes something else —
pre-transformed weight spectra in BRAM, fixed-point element-wise products,
accumulation in the frequency domain, one IFFT per output block (FFT-IFFT
decoupling), PWL activations.  This module executes *that* computation:

* weights are stored as quantized half-spectra (``rfft`` of the defining
  vectors), the BRAM layout of Sec. V-A1;
* each frame performs: quantize inputs → FFT per input block → spectral
  MAC over the block grid → IFFT per output block → point-wise stage with
  PWL σ/tanh;
* every intermediate value is projected onto a fixed-point grid.

The emulator's outputs match the float model within quantization tolerance
(``tests/hw/test_emulator.py``), which is the end-to-end evidence that the
hardware would compute the same PER the accuracy experiments measured.

Two execution strategies share one numerical definition:

* :meth:`CUEmulator.forward` (default) is **batched**: per layer, the
  input-to-hidden spectral products are hoisted out of the recurrence (the
  cuDNN restructuring), one chunk of about :data:`CHUNK_ROWS` rows (frames
  × batch) at a time: each chunk's products come from one pass of the
  grouped kernel :meth:`SpectralWeights._matvec_groups`, and the chunk's
  recurrent steps consume them while they are still in cache.  The whole
  ``(T, B, 4H)`` gate buffer never exists, as on the CU, whose working
  set is one frame's.
* :meth:`CUEmulator.forward_reference` is the **per-frame oracle**: the
  straightforward frame-major loop calling :meth:`SpectralWeights.matvec`
  once per matrix per frame.

Both paths produce *byte-identical* logits (test-enforced).  That works
because every data-dependent fixed-point format is fit over the same values
in both paths (per frame), and because the spectral MAC — the one operation
whose floating-point rounding could depend on operand shape — is exact:
both operands sit on power-of-two grids of at most ``bits`` bits, so every
product and partial sum is an integer multiple of one unit, well inside
float64's 53-bit mantissa (:func:`_check_exact_mac`).  One GEMM per bin
over a whole batch of frames or rows therefore returns the same bytes as
the oracle's per-frame GEMM, whatever BLAS does with the shape.
"""

from __future__ import annotations

# bit-exact: this module is on the fixed/float byte-identity surface
# (docs/analysis.md, REP003) — dtypes stay explicit, reductions ordered.

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.config import RNNSpec
from repro.errors import ConfigError
from repro.hw.activation import PiecewiseLinearActivation, pwl_sigmoid, pwl_tanh
from repro.hw.fixed_point import (
    FixedPointFormat,
    quantize_groups,
)
from repro.nn.circulant_layer import CirculantLinear
from repro.nn.rnn import StackedRNNClassifier

__all__ = ["SpectralWeights", "CUEmulator", "CHUNK_ROWS"]


#: Rows (frames × batch) of input-to-hidden products that
#: :meth:`CUEmulator.forward` hoists into one grouped pass before it runs
#: their recurrent steps; a chunk is ``max(1, CHUNK_ROWS // B)`` frames.
#: Measured at the paper's Table I scale (LSTM-1024, block 8, peephole,
#: projection 512, T=300, B=8; 2-vCPU Xeon with 2 MiB L2 per core, one
#: BLAS thread), CPU ms per frame, median of 7 batches in one process:
#:
#: ====== ===== ===== ===== ===== ===== ===== ===== ======================
#: rows   8     16    32    64    128   256   512   2400 (whole sequence)
#: ms     0.311 0.321 0.308 0.286 0.324 0.321 0.340 0.412
#: ====== ===== ===== ===== ===== ===== ===== ===== ======================
#:
#: against 0.343 for the one-pass hoist over all frames this replaced
#: (batch-to-batch spread about ±0.03 ms).  From 8 to 256 rows the cost is
#: flat; 64 sits in the middle.  A 64-row chunk's gate products are 2 MB
#: at 4H = 4096, about one L2, where the whole sequence's were 79 MB.
CHUNK_ROWS = 64


def _chunk_frames(batch: int) -> int:
    """Frames per hoisted chunk at batch width ``batch``."""
    return max(1, CHUNK_ROWS // max(batch, 1))


#: float64 represents every integer of magnitude up to 2**53 exactly.
_EXACT_INT_BITS = 53


def _check_exact_mac(bits: int, q: int) -> None:
    """Raise unless the spectral MAC over ``q`` input blocks is exact.

    Both MAC operands sit on power-of-two grids: a value is ``k * 2**-f``
    with one ``f`` per operand (one format per weight matrix, one per group
    for the input spectrum) and an integer code ``|k| <= 2**(bits-1)``.
    Every product, and every partial sum of a bin's ``q`` complex products,
    is therefore an integer multiple of the one unit ``2**-(f_w + f_x)``.
    The real or imaginary part of one product (``ac - bd``, ``ad + bc``)
    has a code of at most ``2**(2*bits - 1)``, any partial sum of a bin at
    most ``q * 2**(2*bits - 1)``.  While that stays within ``2**53`` no
    step rounds, so the result is the same whatever the GEMM's shape,
    blocking, summation order or FMA use: ``2*bits - 1 + ceil(log2 q) <=
    53``.  The check keeps one more bit of margin, for a complex product
    formed the 3M way, whose ``(a+b)(c+d)`` term has a code of up to
    ``2**(2*bits)``: it requires ``2*bits + ceil(log2 q) <= 53``, e.g.
    ``q <= 2**21`` at 16 bits and ``q <= 32`` at 24 bits.  (The unit must
    also not fall below float64's smallest subnormal, ``2**-1074``: with
    weight spectra of order one, only input spectra below about 1e-300 get
    there.)
    """
    needed = 2 * bits + (q - 1).bit_length()
    if needed > _EXACT_INT_BITS:
        raise ConfigError(
            f"{bits}-bit spectral MAC over {q} input blocks needs {needed} "
            f"integer bits; float64 holds {_EXACT_INT_BITS} exactly"
        )


@dataclass(frozen=True)
class SpectralWeights:
    """One matrix's BRAM image: quantized ``FFT(w_ij)`` half-spectra."""

    spectra: np.ndarray  # (p, q, Lb//2 + 1) complex
    block_size: int
    out_features: int
    in_features: int
    bits: int  # word width of the stored spectra

    def __post_init__(self) -> None:
        _check_exact_mac(self.bits, self.spectra.shape[1])

    @classmethod
    def from_layer(
        cls, layer: CirculantLinear, bits: int
    ) -> "SpectralWeights":
        """Transform and quantize a trained circulant layer's vectors."""
        spectra = np.fft.rfft(layer.weight_vectors.data, axis=-1)
        parts = np.concatenate([spectra.real.ravel(), spectra.imag.ravel()])
        fmt = FixedPointFormat.fit(parts, bits)
        quantized = fmt.quantize(spectra.real) + 1j * fmt.quantize(spectra.imag)
        return cls(
            spectra=quantized,
            block_size=layer.block_size,
            out_features=layer.out_features,
            in_features=layer.in_features,
            bits=bits,
        )

    @property
    def bram_bits(self) -> float:
        """Stored bits at 12-bit words (two words per complex bin)."""
        return 2 * self.spectra.size * 12

    @cached_property
    def _mac_operand(self) -> np.ndarray:
        """The spectra laid out for the GEMM MAC: ``(bins, q, p)`` contiguous."""
        return np.ascontiguousarray(self.spectra.transpose(2, 1, 0))

    @property
    def padded_in(self) -> int:
        return self.spectra.shape[1] * self.block_size

    def _spectral_mac(self, x_spec: np.ndarray) -> np.ndarray:
        """Frequency-domain multiply-accumulate over the block grid.

        ``x_spec`` is a ``(rows, q, bins)`` spectrum; returns
        ``(rows, p, bins)``.  This is the decoupled-IFFT accumulation of
        Sec. V-A1 expressed as ``bins`` stacked GEMMs.  The MAC is exact
        (:func:`_check_exact_mac`), so how many rows share one GEMM cannot
        change its bytes.
        """
        return np.matmul(
            x_spec.transpose(2, 0, 1), self._mac_operand
        ).transpose(1, 2, 0)

    def _check_width(self, x: np.ndarray) -> None:
        if x.shape[-1] != self.in_features:
            raise ConfigError(
                f"expected input width {self.in_features}, got {x.shape}"
            )

    def matvec(self, x: np.ndarray, bits: int) -> np.ndarray:
        """The PE pipeline: FFT → spectral MAC → IFFT, all quantized.

        This is the reference-oracle path: one frame, formats fit through
        the scalar :class:`FixedPointFormat` API.
        """
        block = self.block_size
        padded_in = self.padded_in
        self._check_width(x)
        batch_shape = x.shape[:-1]
        x = x.reshape(-1, x.shape[-1])
        if padded_in != x.shape[-1]:
            x = np.pad(x, ((0, 0), (0, padded_in - x.shape[-1])))
        x_fmt = FixedPointFormat.fit(
            x if x.size else np.ones(1, dtype=np.float64), bits
        )
        x_blocks = x_fmt.quantize(x).reshape(x.shape[0], -1, block)

        x_spec = np.fft.rfft(x_blocks, axis=-1)
        spec_parts = np.concatenate([x_spec.real.ravel(), x_spec.imag.ravel()])
        spec_fmt = FixedPointFormat.fit(
            spec_parts if spec_parts.size else np.ones(1, dtype=np.float64), bits
        )
        x_spec = spec_fmt.quantize(x_spec.real) + 1j * spec_fmt.quantize(
            x_spec.imag
        )

        # Spectral multiply-accumulate over the block grid (decoupled IFFT:
        # accumulation happens in the frequency domain, Sec. V-A1).
        acc = self._spectral_mac(x_spec)
        y = np.fft.irfft(acc, n=block, axis=-1)
        y = y.reshape(x.shape[0], -1)[:, : self.out_features]
        y_fmt = FixedPointFormat.fit(
            y if y.size else np.ones(1, dtype=np.float64), bits
        )
        return y_fmt.quantize(y).reshape(batch_shape + (self.out_features,))

    def _matvec_groups(self, x: np.ndarray, bits: int) -> np.ndarray:
        """The PE pipeline over ``G`` groups of ``B`` rows at once.

        ``x`` is ``(G, B, in)``; group ``g`` of the result is byte-identical
        to ``matvec(x[g], bits)``.  The three data-dependent formats (input,
        input spectrum, output) are fit per group from min/max statistics;
        each FFT/IFFT transforms its own vector; and the spectral MAC runs
        as one GEMM per bin over all ``G * B`` rows, which is exact
        (:func:`_check_exact_mac`) and so cannot differ from the oracle's
        per-call GEMM.
        """
        self._check_width(x)
        if bits > self.bits:
            raise ConfigError(
                f"{bits}-bit data exceeds the {self.bits}-bit weights the "
                "MAC's exactness bound was checked for"
            )
        groups, batch = x.shape[0], x.shape[1]
        p, q = self.spectra.shape[:2]
        block = self.block_size
        if x.size == 0:
            return np.zeros((groups, batch, self.out_features), dtype=np.float64)
        padded = np.zeros((groups, batch, q * block), dtype=np.float64)
        padded[..., : self.in_features] = x
        quantize_groups(padded, bits)
        x_spec = np.fft.rfft(
            padded.reshape(groups * batch, q, block), axis=-1
        )
        quantize_groups(x_spec.view(np.float64).reshape(groups, -1), bits)
        acc = np.matmul(
            np.ascontiguousarray(x_spec.transpose(2, 0, 1)), self._mac_operand
        )
        y = np.fft.irfft(acc.transpose(1, 2, 0), n=block, axis=-1)
        y = y.reshape(groups, batch, p * block)
        if p * block != self.out_features:
            y = np.ascontiguousarray(y[..., : self.out_features])
        return quantize_groups(y, bits)

    def matvec_step(self, x: np.ndarray, bits: int) -> np.ndarray:
        """One recurrent step over ``(..., in)`` rows, one format set for
        all of them: byte-identical to :meth:`matvec`, on the lean kernel."""
        x = np.asarray(x, dtype=np.float64)
        out = self._matvec_groups(x.reshape(1, -1, x.shape[-1]), bits)
        return out.reshape(x.shape[:-1] + (self.out_features,))

    def matvec_frames(self, x: np.ndarray, bits: int) -> np.ndarray:
        """Hoisted product for a ``(T, B, in)`` run of frames at once.

        Byte-identical to calling :meth:`matvec` frame by frame: each frame
        is one group of the kernel, so its formats are fit over that frame
        alone.
        """
        if x.ndim != 3:
            raise ConfigError(f"expected (T, B, in) input, got {x.shape}")
        return self._matvec_groups(np.asarray(x, dtype=np.float64), bits)


class CUEmulator:
    """Executes a structured LSTM/GRU stack the way the CU does.

    Built from a *trained structured model*; single-layer and multi-layer
    stacks are supported.  Limitations match the hardware: the model must be
    block-circulant (dense layers have no BRAM spectra to load).
    """

    def __init__(
        self,
        model: StackedRNNClassifier,
        weight_bits: int = 12,
        pwl_segments: int = 16,
    ):
        if not model.structured:
            raise ConfigError("the emulator needs a structured (circulant) model")
        self.spec: RNNSpec = model.spec
        self.bits = weight_bits
        self.sigmoid: PiecewiseLinearActivation = pwl_sigmoid(pwl_segments)
        self.tanh: PiecewiseLinearActivation = pwl_tanh(pwl_segments)

        self._layers: list[dict] = []
        for cell in model.cells:
            entry: dict = {"cell_type": self.spec.cell_type}
            for attr, layer, _role in cell.weight_layer_roles():
                if not isinstance(layer, CirculantLinear):
                    raise ConfigError(
                        f"{attr} is dense; the CU stores circulant spectra only"
                    )
                entry[attr] = SpectralWeights.from_layer(layer, weight_bits)
            if self.spec.cell_type == "lstm":
                entry["bias"] = cell.bias.data.copy()
                entry["hidden"] = cell.hidden_size
                entry["output"] = cell.output_size
                if self.spec.peephole:
                    entry["peep"] = (
                        cell.peep_ic.weight.data.copy(),
                        cell.peep_fc.weight.data.copy(),
                        cell.peep_oc.weight.data.copy(),
                    )
            else:
                entry["bias_zr"] = cell.bias_zr.data.copy()
                entry["bias_c"] = cell.bias_c.data.copy()
                entry["hidden"] = cell.hidden_size
            self._layers.append(entry)
        self._classifier_w = model.classifier.weight.data.copy()
        self._classifier_b = model.classifier.bias.data.copy()

    # ------------------------------------------------------------------
    # Point-wise stages, shared verbatim by both execution strategies.
    # ------------------------------------------------------------------
    def _lstm_pointwise(self, entry: dict, wx, y_prev, c_prev, mv):
        """Gate math for one frame given the input-side product ``wx``.

        ``mv(weights, x)`` performs the recurrent-side products: the oracle
        passes :meth:`SpectralWeights.matvec`, the batched path the
        byte-identical lean :meth:`SpectralWeights.matvec_step`.
        """
        hidden = entry["hidden"]
        gates = wx + mv(entry["w_r"], y_prev) + entry["bias"]
        z_g = gates[..., 2 * hidden : 3 * hidden]
        if "peep" in entry:
            w_ic, w_fc, w_oc = entry["peep"]
            gates[..., :hidden] += w_ic * c_prev
            gates[..., hidden : 2 * hidden] += w_fc * c_prev
            sig = self.sigmoid(gates[..., : 2 * hidden])
        else:
            # i, f and o in one call; the g slice's sigmoid goes unused.
            sig = self.sigmoid(gates)
        gate_i = sig[..., :hidden]
        gate_f = sig[..., hidden : 2 * hidden]
        candidate = self.tanh(z_g)
        cell = gate_f * c_prev + candidate * gate_i
        if "peep" in entry:
            gate_o = self.sigmoid(gates[..., 3 * hidden :] + w_oc * cell)
        else:
            gate_o = sig[..., 3 * hidden :]
        m = gate_o * self.tanh(cell)
        if "w_ym" in entry:
            y = mv(entry["w_ym"], m)
        else:
            y = m
        return y, y, cell

    def _gru_pointwise(self, entry: dict, w_zr, w_cx, c_prev, mv):
        """Gate math for one frame given both input-side products."""
        hidden = entry["hidden"]
        gates = w_zr + mv(entry["w_zr_c"], c_prev) + entry["bias_zr"]
        zr = self.sigmoid(gates)
        z, r = zr[..., :hidden], zr[..., hidden:]
        candidate = self.tanh(
            w_cx + mv(entry["w_cc"], r * c_prev) + entry["bias_c"]
        )
        cell = (1.0 - z) * c_prev + z * candidate
        return cell, cell

    def _mv_reference(self, weights: SpectralWeights, x: np.ndarray):
        return weights.matvec(x, self.bits)

    def _mv_step(self, weights: SpectralWeights, x: np.ndarray):
        return weights.matvec_step(x, self.bits)

    # ------------------------------------------------------------------
    # Per-frame oracle.
    # ------------------------------------------------------------------
    def _lstm_frame(self, entry: dict, x, y_prev, c_prev):
        wx = entry["w_x"].matvec(x, self.bits)
        return self._lstm_pointwise(entry, wx, y_prev, c_prev, self._mv_reference)

    def _gru_frame(self, entry: dict, x, c_prev):
        w_zr = entry["w_zr_x"].matvec(x, self.bits)
        w_cx = entry["w_cx"].matvec(x, self.bits)
        return self._gru_pointwise(entry, w_zr, w_cx, c_prev, self._mv_reference)

    def forward_reference(self, inputs: np.ndarray) -> np.ndarray:
        """Frame-major per-frame emulation — the reference oracle.

        Every matrix product goes through :meth:`SpectralWeights.matvec`
        once per frame.  Kept as the simple, obviously-hardware-shaped
        implementation the batched path is verified against byte-for-byte.
        """
        inputs = self._check_inputs(inputs)
        frames, batch, _ = inputs.shape
        states = self._initial_states(batch)
        logits = np.empty(
            (frames, batch, self._classifier_w.shape[0]), dtype=np.float64
        )
        for t in range(frames):
            value = inputs[t]
            for index, entry in enumerate(self._layers):
                if entry["cell_type"] == "lstm":
                    y_prev, c_prev = states[index]
                    value, y_new, c_new = self._lstm_frame(
                        entry, value, y_prev, c_prev
                    )
                    states[index] = (y_new, c_new)
                else:
                    value, states[index] = self._gru_frame(
                        entry, value, states[index]
                    )
            logits[t] = value @ self._classifier_w.T + self._classifier_b
        return logits

    # ------------------------------------------------------------------
    # Batched (layer-major) path.
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """(T, B, D) features → (T, B, C) logits, hardware-faithfully.

        Layer-major: each layer walks the sequence in chunks of
        ``max(1, CHUNK_ROWS // B)`` frames; a chunk's input-to-hidden
        spectral products are computed in one hoisted
        :meth:`SpectralWeights.matvec_frames` pass, then that chunk's
        recurrent steps consume them.  Every format is still fit per frame,
        so the chunking cannot change a byte: the result is byte-identical
        to :meth:`forward_reference` (test-enforced).
        """
        inputs = self._check_inputs(inputs)
        frames, batch, _ = inputs.shape
        value_seq = inputs
        for entry in self._layers:
            if entry["cell_type"] == "lstm":
                value_seq = self._run_lstm_layer(entry, value_seq)
            else:
                value_seq = self._run_gru_layer(entry, value_seq)
        logits = np.empty(
            (frames, batch, self._classifier_w.shape[0]), dtype=np.float64
        )
        for t in range(frames):
            logits[t] = value_seq[t] @ self._classifier_w.T + self._classifier_b
        return logits

    def _run_lstm_layer(self, entry: dict, value_seq: np.ndarray) -> np.ndarray:
        frames, batch = value_seq.shape[0], value_seq.shape[1]
        step = _chunk_frames(batch)
        y_prev = np.zeros((batch, entry["output"]), dtype=np.float64)
        c_prev = np.zeros((batch, entry["hidden"]), dtype=np.float64)
        out = np.empty((frames, batch, entry["output"]), dtype=np.float64)
        for start in range(0, frames, step):
            wx_chunk = entry["w_x"].matvec_frames(
                value_seq[start : start + step], self.bits
            )
            for t, wx in enumerate(wx_chunk, start):
                value, y_prev, c_prev = self._lstm_pointwise(
                    entry, wx, y_prev, c_prev, self._mv_step
                )
                out[t] = value
        return out

    def _run_gru_layer(self, entry: dict, value_seq: np.ndarray) -> np.ndarray:
        frames, batch = value_seq.shape[0], value_seq.shape[1]
        step = _chunk_frames(batch)
        c_prev = np.zeros((batch, entry["hidden"]), dtype=np.float64)
        out = np.empty((frames, batch, entry["hidden"]), dtype=np.float64)
        for start in range(0, frames, step):
            chunk = value_seq[start : start + step]
            w_zr_chunk = entry["w_zr_x"].matvec_frames(chunk, self.bits)
            w_cx_chunk = entry["w_cx"].matvec_frames(chunk, self.bits)
            for t, (w_zr, w_cx) in enumerate(
                zip(w_zr_chunk, w_cx_chunk), start
            ):
                value, c_prev = self._gru_pointwise(
                    entry, w_zr, w_cx, c_prev, self._mv_step
                )
                out[t] = value
        return out

    # ------------------------------------------------------------------
    # Streaming / serving surface (consumed by repro.runtime).
    # ------------------------------------------------------------------
    def initial_states(self, batch: int) -> list:
        """Fresh zero hidden/cell state for a ``batch``-wide stream.

        The returned structure is what :meth:`step` and :meth:`step_rows`
        thread through the recurrence; treat it as opaque.
        """
        return self._initial_states(batch)

    def step(self, frame: np.ndarray, states: list) -> tuple[np.ndarray, list]:
        """One recurrent step: ``(B, D)`` frame + states → logits, new states.

        Byte-identical to the corresponding frame of :meth:`forward` /
        :meth:`forward_reference`: every product goes through the lean
        :meth:`SpectralWeights.matvec_step` (byte-identical to the oracle
        ``matvec``), the point-wise stages are shared verbatim, and the
        classifier GEMM — float weights, so *not* exact — runs at the same
        per-frame shape.
        """
        frame = np.asarray(frame, dtype=np.float64)
        if frame.ndim != 2:
            raise ConfigError(f"expected a (B, D) frame, got {frame.shape}")
        new_states = list(states)
        value = frame
        for index, entry in enumerate(self._layers):
            if entry["cell_type"] == "lstm":
                y_prev, c_prev = new_states[index]
                wx = entry["w_x"].matvec_step(value, self.bits)
                value, y_new, c_new = self._lstm_pointwise(
                    entry, wx, y_prev, c_prev, self._mv_step
                )
                new_states[index] = (y_new, c_new)
            else:
                w_zr = entry["w_zr_x"].matvec_step(value, self.bits)
                w_cx = entry["w_cx"].matvec_step(value, self.bits)
                value, new_states[index] = self._gru_pointwise(
                    entry, w_zr, w_cx, new_states[index], self._mv_step
                )
        logits = value @ self._classifier_w.T + self._classifier_b
        return logits, new_states

    def _mv_rows(self, weights: SpectralWeights, rows: np.ndarray) -> np.ndarray:
        """Row-*isolated* spectral products: row ``r`` ≡ a batch-1 matvec.

        Feeding ``(R, D)`` rows to :meth:`SpectralWeights.matvec_frames` as
        ``R`` groups of batch 1 fits every data-dependent format over one
        row only, as a standalone batch-1 :meth:`step` does.  The spectral
        MAC then runs as one GEMM over all ``R`` rows; it is exact, so
        sharing the GEMM cannot change a row's bytes.
        """
        return weights.matvec_frames(rows[:, None, :], self.bits)[:, 0]

    def step_rows(
        self, frames: np.ndarray, row_states: list
    ) -> tuple[np.ndarray, list]:
        """Micro-batched step over ``R`` *independent* batch-1 streams.

        ``frames`` is ``(R, D)``, ``row_states[r]`` a state produced by
        ``initial_states(1)`` (or a previous step) for stream ``r``.  Row
        ``r`` of the result is byte-identical to
        ``step(frames[r:r+1], row_states[r])`` — the row-isolation contract
        that lets :class:`repro.runtime.Server` coalesce concurrent session
        pushes without perturbing any stream's bits.  Everything but the
        classifier vectorizes across rows: FFTs, quantization and the
        point-wise stages are element- or row-independent, and the spectral
        MAC is exact.  The classifier's float GEMM is not, so it runs per
        row.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or len(frames) != len(row_states):
            raise ConfigError(
                f"expected ({len(row_states)}, D) rows, got {frames.shape}"
            )
        if len(frames) == 0:
            raise ConfigError("step_rows needs at least one row")
        rows = len(frames)
        new_row_states: list[list] = [list(states) for states in row_states]
        value = frames
        for index, entry in enumerate(self._layers):
            if entry["cell_type"] == "lstm":
                y_prev = np.concatenate(
                    [states[index][0] for states in row_states]
                )
                c_prev = np.concatenate(
                    [states[index][1] for states in row_states]
                )
                wx = self._mv_rows(entry["w_x"], value)
                value, y_new, c_new = self._lstm_pointwise(
                    entry, wx, y_prev, c_prev, self._mv_rows
                )
                for r in range(rows):
                    new_row_states[r][index] = (
                        y_new[r : r + 1].copy(),
                        c_new[r : r + 1].copy(),
                    )
            else:
                c_prev = np.concatenate(
                    [states[index] for states in row_states]
                )
                w_zr = self._mv_rows(entry["w_zr_x"], value)
                w_cx = self._mv_rows(entry["w_cx"], value)
                value, c_new = self._gru_pointwise(
                    entry, w_zr, w_cx, c_prev, self._mv_rows
                )
                for r in range(rows):
                    new_row_states[r][index] = c_new[r : r + 1].copy()
        # Classifier per row: its float GEMM is inexact, so each row issues
        # the (1, H) @ (H, C) shape a standalone batch-1 step does.
        logits = np.concatenate(
            [value[r : r + 1] @ self._classifier_w.T for r in range(rows)]
        )
        logits = logits + self._classifier_b
        return logits, new_row_states

    # ------------------------------------------------------------------
    def _check_inputs(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3:
            raise ConfigError(f"expected (T, B, D), got {inputs.shape}")
        return inputs

    def _initial_states(self, batch: int) -> list:
        states: list = []
        for entry in self._layers:
            if entry["cell_type"] == "lstm":
                states.append(
                    (
                        np.zeros((batch, entry["output"]), dtype=np.float64),
                        np.zeros((batch, entry["hidden"]), dtype=np.float64),
                    )
                )
            else:
                states.append(np.zeros((batch, entry["hidden"]), dtype=np.float64))
        return states

    def bram_weight_bits(self) -> float:
        """Total spectral-weight storage (cross-check for repro.hw.bram)."""
        # Scalar resource accounting, not datapath math: exact integer-valued
        # bit counts, so the reduction order cannot perturb any bits.
        return sum(  # repro: ignore[REP003] exact integer bit-count bookkeeping, not datapath arithmetic
            entry[key].bram_bits
            for entry in self._layers
            for key in entry
            if isinstance(entry[key], SpectralWeights)
        )
