"""LSTM cell and layer following the paper's Eqn. (1) (Sak et al. LSTMP).

Supports the three architecture options explored in Table I:

* **peephole** connections — the diagonal matrices ``Wic, Wfc, Woc`` of
  Eqns. (1a), (1b), (1e), implemented as point-wise multiplications.
* **projection** — the ``y_t = W_ym m_t`` output projection of Eqn. (1g)
  (the "projection (512)" column of Table I).
* **block-circulant weights** — each large matrix can independently be dense
  (``block_size=1``) or block-circulant; the non-recurrent input matrices may
  use a different (coarser) block size, which is the Phase-I fine-tuning knob.

The cell keeps the paper's fused-matrix view ``W(ifco)(xr) [x; y]`` as two
physical matrices ``W_x`` (input half) and ``W_r`` (recurrent half): the fused
form is a hardware scheduling detail, and splitting lets the two halves carry
different block sizes.

Note on Eqn. (1c): the paper prints ``g_t = σ(...)`` but defines ``h`` = tanh
as the cell activation and cites [22], whose cell-input activation is tanh.
``candidate_activation`` defaults to tanh; pass ``"sigmoid"`` for the literal
reading.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.nn.autograd import Tensor
from repro.nn.circulant_layer import CirculantLinear
from repro.nn.init import zeros
from repro.nn.linear import DiagonalLinear, Linear
from repro.nn.module import Module, Parameter

__all__ = ["LSTMCell", "make_weight_layer"]


def make_weight_layer(
    in_features: int,
    out_features: int,
    block_size: int,
    rng: np.random.Generator,
) -> Module:
    """Dense :class:`Linear` for block size 1, else :class:`CirculantLinear`.

    Biases live on the cell, not on the weight layers, matching the paper's
    separation of weight matrices (BRAM 2/3/5) from bias vectors (BRAM 4).
    """
    if block_size <= 1:
        return Linear(in_features, out_features, bias=False, rng=rng)
    return CirculantLinear(
        in_features, out_features, block_size, bias=False, rng=rng
    )


class LSTMCell(Module):
    """One LSTM step: ``(x_t, (y_{t-1}, c_{t-1})) -> (y_t, c_t)``."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        peephole: bool = False,
        projection_size: int | None = None,
        block_size: int = 1,
        input_block_size: int | None = None,
        candidate_activation: str = "tanh",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if candidate_activation not in ("tanh", "sigmoid"):
            raise ConfigError(
                f"unknown candidate activation {candidate_activation!r}"
            )
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.projection_size = projection_size
        self.peephole = peephole
        self.block_size = block_size
        self.input_block_size = (
            input_block_size if input_block_size is not None else block_size
        )
        self.candidate_activation = candidate_activation

        output_size = projection_size if projection_size is not None else hidden_size
        self.output_size = output_size

        # W(ifco)x — non-recurrent, may use the coarser io block size.
        self.w_x = make_weight_layer(
            input_size, 4 * hidden_size, self.input_block_size, rng
        )
        # W(ifco)r — recurrent, uses the layer block size.
        self.w_r = make_weight_layer(output_size, 4 * hidden_size, block_size, rng)
        self.bias = Parameter(zeros((4 * hidden_size,)))

        if peephole:
            self.peep_ic = DiagonalLinear(hidden_size, rng=rng)
            self.peep_fc = DiagonalLinear(hidden_size, rng=rng)
            self.peep_oc = DiagonalLinear(hidden_size, rng=rng)

        if projection_size is not None:
            # W_ym — non-recurrent output matrix (Eqn. 1g).
            self.w_ym = make_weight_layer(
                hidden_size, projection_size, self.input_block_size, rng
            )

    # ------------------------------------------------------------------
    def initial_state(self, batch_size: int) -> tuple[Tensor, Tensor]:
        """Zero ``(y, c)`` state (paper: "c_t and m_t are initialized to zero")."""
        return (
            Tensor(np.zeros((batch_size, self.output_size))),
            Tensor(np.zeros((batch_size, self.hidden_size))),
        )

    def forward(
        self, x: Tensor, state: tuple[Tensor, Tensor]
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        y_prev, c_prev = state
        hidden = self.hidden_size

        gates = self.w_x(x) + self.w_r(y_prev) + self.bias
        z_i = gates[..., 0 * hidden : 1 * hidden]
        z_f = gates[..., 1 * hidden : 2 * hidden]
        z_g = gates[..., 2 * hidden : 3 * hidden]
        z_o = gates[..., 3 * hidden : 4 * hidden]

        if self.peephole:
            z_i = z_i + self.peep_ic(c_prev)
            z_f = z_f + self.peep_fc(c_prev)

        input_gate = z_i.sigmoid()
        forget_gate = z_f.sigmoid()
        if self.candidate_activation == "tanh":
            candidate = z_g.tanh()
        else:
            candidate = z_g.sigmoid()

        cell = forget_gate * c_prev + candidate * input_gate

        if self.peephole:
            z_o = z_o + self.peep_oc(cell)
        output_gate = z_o.sigmoid()

        cell_output = output_gate * cell.tanh()  # m_t = o_t ⊙ h(c_t)
        if self.projection_size is not None:
            output = self.w_ym(cell_output)  # y_t = W_ym m_t
        else:
            output = cell_output
        return output, (output, cell)

    # ------------------------------------------------------------------
    def weight_layer_roles(self) -> list[tuple[str, Module, str]]:
        """The cell's large matrices and their Phase-I roles.

        Returns ``(attribute_name, layer, role)`` with role ``"input"`` for
        non-recurrent matrices (eligible for the coarser io block size),
        ``"recurrent"`` otherwise.  Peepholes and biases are vectors and are
        never compressed (paper Sec. III-A).
        """
        layers = [("w_x", self.w_x, "input"), ("w_r", self.w_r, "recurrent")]
        if self.projection_size is not None:
            layers.append(("w_ym", self.w_ym, "output"))
        return layers

    def __repr__(self) -> str:
        return (
            f"LSTMCell(in={self.input_size}, hidden={self.hidden_size}, "
            f"peephole={self.peephole}, projection={self.projection_size}, "
            f"block={self.block_size})"
        )
