"""ESE baseline: pruned sparse LSTM + its accelerator model (Han et al. [23]).

Two halves:

* **Model side** — :func:`train_ese_model` reproduces the prune-and-retrain
  recipe on our training substrate: train dense, then step the sparsity up
  while retraining, keeping pruned weights at zero.  ESE's published
  operating point is ~9× parameter reduction at ~0.3% PER degradation.
* **Hardware side** — :class:`ESEAcceleratorModel` prices the sparse design.
  ESE's published KU060 numbers (57 µs, 17,544 FPS, 41 W, Table III col. 1)
  are reproduced by a channel model with the three structural weaknesses the
  paper attributes to it: (i) index+value storage halves the effective
  compression to ~4.5:1; (ii) the irregular structure limits parallelism to
  one MAC per channel per cycle (index decode serializes each gather);
  (iii) activations live in off-chip look-up tables, costing DDR power.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import RNNSpec
from repro.core.compression import matrix_inventory
from repro.errors import ConfigError
from repro.hw.platform import FPGAPlatform, ResourceVector, get_platform
from repro.hw.power import energy_efficiency, power_watts

__all__ = ["ESEConfig", "ESEAcceleratorModel", "ESEDesign", "ese_prune_schedule"]


@dataclass(frozen=True)
class ESEConfig:
    """ESE design parameters (defaults = the published KU060 configuration)."""

    prune_ratio: float = 9.0
    channels: int = 32
    weight_bits: int = 12
    index_bits: int = 12
    clock_mhz: float = 200.0
    load_balance: float = 1.0
    frame_overhead_cycles: float = 150.0

    def __post_init__(self) -> None:
        if self.prune_ratio <= 1.0:
            raise ConfigError("prune_ratio must exceed 1")
        if self.channels < 1:
            raise ConfigError("channels must be positive")
        if not 0 < self.load_balance <= 1.0:
            raise ConfigError("load_balance must be in (0, 1]")

    @property
    def sparsity(self) -> float:
        return 1.0 - 1.0 / self.prune_ratio


def ese_prune_schedule(
    target_sparsity: float, stages: int = 3
) -> tuple[float, ...]:
    """Gradual sparsity ramp (Han et al. retrain-between-stages recipe)."""
    if not 0 < target_sparsity < 1:
        raise ConfigError(f"target sparsity out of range: {target_sparsity}")
    if stages < 1:
        raise ConfigError("need at least one stage")
    # Geometric approach to the target keeps each retrain step recoverable.
    return tuple(
        1.0 - (1.0 - target_sparsity) ** ((i + 1) / stages) for i in range(stages)
    )


#: ESE's published KU060 utilization (Table III column 1).  ESE is an
#: external artifact; its resource profile is taken from its publication
#: rather than re-derived.
ESE_PUBLISHED_UTILIZATION = {"dsp": 0.545, "bram": 0.877, "lut": 0.886, "ff": 0.683}


@dataclass(frozen=True)
class ESEDesign:
    """Sized ESE accelerator with its performance and power figures."""

    spec: RNNSpec
    config: ESEConfig
    platform: FPGAPlatform
    nnz_macs: float
    frame_cycles: float
    resources_used: ResourceVector

    @property
    def latency_us(self) -> float:
        return self.frame_cycles / self.config.clock_mhz

    @property
    def fps(self) -> float:
        """ESE runs one sequence at a time (FPS × latency ≈ 1 in Table III)."""
        return 1e6 / self.latency_us

    @property
    def utilization(self) -> dict[str, float]:
        return self.platform.utilization(self.resources_used)

    @property
    def power_watts(self) -> float:
        return power_watts(self.platform, self.resources_used, offchip=True)

    @property
    def energy_efficiency(self) -> float:
        return energy_efficiency(self.fps, self.power_watts)


class ESEAcceleratorModel:
    """Latency/power model of ESE for an arbitrary (dense) RNN spec."""

    def __init__(self, spec: RNNSpec, config: ESEConfig | None = None,
                 platform: str = "XCKU060"):
        if spec.is_block_circulant:
            raise ConfigError("ESE consumes a dense spec (it prunes, not blocks)")
        self.spec = spec
        self.config = config if config is not None else ESEConfig()
        self.platform = get_platform(platform)

    # ------------------------------------------------------------------
    def nnz_macs(self) -> float:
        """Surviving multiply-accumulates per frame after pruning."""
        dense = sum(s.dense_params for s in matrix_inventory(self.spec))
        return dense / self.config.prune_ratio

    def frame_cycles(self) -> float:
        """One MAC per channel per cycle: index decode serializes the gather.

        The irregular structure is the bottleneck the paper exploits: E-RNN's
        regular blocks feed hundreds of multiplier lanes, ESE's CSR walk
        feeds ``channels`` of them, load-imbalance further discounted.
        """
        cfg = self.config
        effective = cfg.channels * cfg.load_balance
        return self.nnz_macs() / effective + cfg.frame_overhead_cycles

    def _resources_used(self) -> ResourceVector:
        return ResourceVector(
            dsp=ESE_PUBLISHED_UTILIZATION["dsp"] * self.platform.dsp,
            bram_blocks=ESE_PUBLISHED_UTILIZATION["bram"] * self.platform.bram_blocks,
            lut=ESE_PUBLISHED_UTILIZATION["lut"] * self.platform.lut,
            ff=ESE_PUBLISHED_UTILIZATION["ff"] * self.platform.ff,
        )

    def build(self) -> ESEDesign:
        return ESEDesign(
            spec=self.spec,
            config=self.config,
            platform=self.platform,
            nnz_macs=self.nnz_macs(),
            frame_cycles=self.frame_cycles(),
            resources_used=self._resources_used(),
        )
