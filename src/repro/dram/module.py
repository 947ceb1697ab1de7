"""A DRAM module: chips operating in lock-step.

All chips of a rank receive the same command stream; data is striped
across them (each x8 chip contributes 8 of the 64 data lines).  The
simulator mirrors this: a :class:`Module` fans every command out to all
of its chips and splits/concatenates row data across per-chip column
segments.  Success-rate statistics are naturally per-cell and therefore
per-chip; :meth:`Module.chip_slice` maps a chip index to its columns in
the module-level row.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AddressError, ConfigurationError
from ..rng import SeedTree
from .chip import Chip
from .config import ChipConfig, ModuleSpec

__all__ = ["Module"]


class Module:
    """A set of lock-step chips behind one command/address bus."""

    def __init__(
        self,
        config: ChipConfig,
        chip_count: int = 8,
        seed_tree: Optional[SeedTree] = None,
        name: str = "module",
        decoder_model: str = "calibrated",
        scramble_rows: bool = True,
        calibration=None,
    ):
        if chip_count <= 0:
            raise ConfigurationError(f"chip_count must be positive, got {chip_count}")
        if seed_tree is None:
            seed_tree = SeedTree(0)
        self.name = name
        self.config = config
        from .decoder import make_decoder

        self.decoder = make_decoder(config, seed_tree.child("decoder"), decoder_model)
        self.chips: List[Chip] = [
            Chip(
                config,
                seed_tree.child(f"chip-{i}"),
                scramble_rows=scramble_rows,
                decoder=self.decoder,
                calibration=calibration,
            )
            for i in range(chip_count)
        ]

    @classmethod
    def from_spec(
        cls,
        spec: ModuleSpec,
        module_index: int = 0,
        seed_tree: Optional[SeedTree] = None,
        chip_count: Optional[int] = None,
        **kwargs,
    ) -> "Module":
        """Instantiate one physical module of a Table-1 spec.

        ``chip_count`` may be reduced below the spec's real chip count to
        keep fleet-scale sweeps fast; the default uses the spec value.
        """
        if seed_tree is None:
            seed_tree = SeedTree(0)
        count = spec.chips_per_module if chip_count is None else chip_count
        return cls(
            spec.chip,
            chip_count=count,
            seed_tree=seed_tree.child(spec.name, f"module-{module_index}"),
            name=f"{spec.name}#{module_index}",
            **kwargs,
        )

    # ------------------------------------------------------------------

    @property
    def chip_count(self) -> int:
        return len(self.chips)

    @property
    def columns_per_chip(self) -> int:
        return self.config.geometry.columns

    @property
    def row_bits(self) -> int:
        """Width of a module-level row segment in bits."""
        return self.columns_per_chip * self.chip_count

    def chip_slice(self, chip_index: int) -> slice:
        """Columns of the module-level row owned by chip ``chip_index``."""
        if not 0 <= chip_index < self.chip_count:
            raise AddressError(f"chip {chip_index} out of range")
        width = self.columns_per_chip
        return slice(chip_index * width, (chip_index + 1) * width)

    @property
    def temperature_c(self) -> float:
        return self.chips[0].temperature_c

    @temperature_c.setter
    def temperature_c(self, value: float) -> None:
        for chip in self.chips:
            chip.temperature_c = value

    # -- lock-step command fan-out --------------------------------------

    def activate(self, bank: int, row: int, time_ns: float) -> None:
        for chip in self.chips:
            chip.bank(bank).activate(row, time_ns)

    def precharge(self, bank: int, time_ns: float) -> None:
        for chip in self.chips:
            chip.bank(bank).precharge(time_ns)

    def settle(self, bank: int, time_ns: float) -> None:
        for chip in self.chips:
            chip.bank(bank).settle(time_ns)

    def refresh(self, bank: int, time_ns: float) -> None:
        for chip in self.chips:
            chip.bank(bank).refresh(time_ns)

    def elapse(self, bank: int, milliseconds: float) -> None:
        for chip in self.chips:
            chip.bank(bank).elapse(milliseconds)

    def write(self, bank: int, row: int, bits: np.ndarray, time_ns: float) -> None:
        bits = self._check_bits(bits)
        for i, chip in enumerate(self.chips):
            chip.bank(bank).write(row, bits[self.chip_slice(i)], time_ns)

    def read(self, bank: int, row: int, time_ns: float) -> np.ndarray:
        parts = [chip.bank(bank).read(row, time_ns) for chip in self.chips]
        return np.concatenate(parts)

    # -- host-side backdoors (striped like the data bus) -----------------

    def store_bits(self, bank: int, row: int, bits: np.ndarray) -> None:
        bits = self._check_bits(bits)
        for i, chip in enumerate(self.chips):
            chip.bank(bank).store_bits(row, bits[self.chip_slice(i)])

    def store_voltages(self, bank: int, row: int, volts: np.ndarray) -> None:
        volts = np.asarray(volts, dtype=np.float64)
        if volts.shape != (self.row_bits,):
            raise ValueError(f"expected {self.row_bits} voltages, got {volts.shape}")
        for i, chip in enumerate(self.chips):
            chip.bank(bank).store_voltages(row, volts[self.chip_slice(i)])

    def load_bits(self, bank: int, row: int) -> np.ndarray:
        parts = [chip.bank(bank).load_bits(row) for chip in self.chips]
        return np.concatenate(parts)

    def apply_hammer(self, bank: int, row: int, activations: int) -> None:
        for chip in self.chips:
            chip.bank(bank).apply_hammer(row, activations)

    def release_state(self) -> None:
        """Free every chip's bank state (fleet memory management)."""
        for chip in self.chips:
            chip.release_banks()

    # -- trial-noise substreams (lock-step across chips) -----------------

    def reserve_trial_block(
        self, bank: int, n_trials: int
    ) -> "Tuple[int, List[List[np.random.Generator]]]":
        """Reserve ``n_trials`` trial substreams on every chip's bank.

        Returns ``(first_index, per_chip_generators)`` where the second
        element holds one generator list per chip.
        """
        reservations = [
            chip.bank(bank).reserve_trial_block(n_trials) for chip in self.chips
        ]
        starts = {start for start, _ in reservations}
        if len(starts) != 1:
            raise ConfigurationError(
                f"chips of bank {bank} disagree on the trial counter: {starts}"
            )
        return starts.pop(), [gens for _, gens in reservations]

    def _check_bits(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits)
        if bits.shape != (self.row_bits,):
            raise ValueError(
                f"expected a module-level row of {self.row_bits} bits, got "
                f"shape {bits.shape}"
            )
        return bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Module({self.name!r}, {self.chip_count}x "
            f"{self.config.die_label}, {self.config.speed_rate_mts}MT/s)"
        )
