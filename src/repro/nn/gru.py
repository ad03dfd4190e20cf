"""GRU cell following the paper's Eqn. (2).

The paper's GRU variant gates the *cell state* directly (it "merges the cell
state and hidden state"): update gate ``z``, reset gate ``r``, reset state
``c̃``, and ``c_t = (1 − z_t) ⊙ c_{t-1} + z_t ⊙ c̃_t``.  Three matrix groups
exist after the paper's fusion: ``W(rz)(xc)``, ``W_c̃x`` and ``W_c̃c`` — kept
here as four physical matrices so input and recurrent halves can carry
different block sizes (same design as :class:`repro.nn.lstm.LSTMCell`).
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn.init import zeros
from repro.nn.lstm import make_weight_layer
from repro.nn.module import Module, Parameter

__all__ = ["GRUCell"]


class GRUCell(Module):
    """One GRU step: ``(x_t, c_{t-1}) -> (c_t, c_t)`` (state is the output)."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        block_size: int = 1,
        input_block_size: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.output_size = hidden_size
        self.block_size = block_size
        self.input_block_size = (
            input_block_size if input_block_size is not None else block_size
        )

        # W(rz)x / W(rz)c — the fused reset+update gates of Eqns. (2a)-(2b).
        self.w_zr_x = make_weight_layer(
            input_size, 2 * hidden_size, self.input_block_size, rng
        )
        self.w_zr_c = make_weight_layer(hidden_size, 2 * hidden_size, block_size, rng)
        self.bias_zr = Parameter(zeros((2 * hidden_size,)))

        # W_c̃x / W_c̃c — the reset-state path of Eqn. (2c).
        self.w_cx = make_weight_layer(
            input_size, hidden_size, self.input_block_size, rng
        )
        self.w_cc = make_weight_layer(hidden_size, hidden_size, block_size, rng)
        self.bias_c = Parameter(zeros((hidden_size,)))

    # ------------------------------------------------------------------
    def initial_state(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.hidden_size)))

    def forward(self, x: Tensor, state: Tensor) -> tuple[Tensor, Tensor]:
        c_prev = state
        hidden = self.hidden_size

        gates = self.w_zr_x(x) + self.w_zr_c(c_prev) + self.bias_zr
        update_gate = gates[..., 0:hidden].sigmoid()  # z_t
        reset_gate = gates[..., hidden : 2 * hidden].sigmoid()  # r_t

        reset_state = (
            self.w_cx(x) + self.w_cc(reset_gate * c_prev) + self.bias_c
        ).tanh()  # c̃_t
        cell = (1.0 - update_gate) * c_prev + update_gate * reset_state
        return cell, cell

    # ------------------------------------------------------------------
    def weight_layer_roles(self) -> list[tuple[str, Module, str]]:
        """Large matrices and Phase-I roles (see LSTMCell.weight_layer_roles)."""
        return [
            ("w_zr_x", self.w_zr_x, "input"),
            ("w_zr_c", self.w_zr_c, "recurrent"),
            ("w_cx", self.w_cx, "input"),
            ("w_cc", self.w_cc, "recurrent"),
        ]

    def __repr__(self) -> str:
        return (
            f"GRUCell(in={self.input_size}, hidden={self.hidden_size}, "
            f"block={self.block_size})"
        )
