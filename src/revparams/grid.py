"""Discretization of (T60, DRR) space into classifier target cells.

The one grid covers 0.1-0.9 s in 100 ms steps and -6..15 dB in 1 dB steps
(8 x 21 cells). The class vocabulary is the sorted set of occupied
cells, which maps one-to-one onto classifier output neurons. Estimates are
reported as cell centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Snap tolerance for bin assignment, in units of one step: IEEE rounding
# would otherwise misbin exact decimal edge values (e.g. t60 = 0.3).
_EDGE_EPS = 1e-9


@dataclass(frozen=True, init=False)
class ClassGrid:
    """The fixed (T60, DRR) grid: ``ClassGrid()`` takes no arguments."""

    t60_min: float = 0.1
    t60_max: float = 0.9
    t60_step: float = 0.1
    drr_min: float = -6.0
    drr_max: float = 15.0
    drr_step: float = 1.0

    @property
    def n_t60_bins(self) -> int:
        return round((self.t60_max - self.t60_min) / self.t60_step)

    @property
    def n_drr_bins(self) -> int:
        return round((self.drr_max - self.drr_min) / self.drr_step)

    @property
    def n_cells(self) -> int:
        return self.n_t60_bins * self.n_drr_bins


def _bin_index(value: float, low: float, step: float, n_bins: int) -> int:
    raw = math.floor((value - low) / step + _EDGE_EPS)
    return min(max(raw, 0), n_bins - 1)


def cell_of(grid: ClassGrid, t60: float, drr: float) -> tuple:
    """Map a (T60, DRR) pair to its grid cell (t60_bin, drr_bin).

    Bins are half-open [low, high) with the top edge closed; out-of-range
    values clamp to the nearest edge bin.
    """
    if not (math.isfinite(t60) and math.isfinite(drr)):
        raise ValueError(f"non-finite parameters: t60={t60}, drr={drr}")
    if t60 <= 0:
        raise ValueError(f"t60 must be positive, got {t60}")
    return (
        _bin_index(t60, grid.t60_min, grid.t60_step, grid.n_t60_bins),
        _bin_index(drr, grid.drr_min, grid.drr_step, grid.n_drr_bins),
    )


def center_of(grid: ClassGrid, cell: tuple) -> tuple:
    """Representative (T60, DRR) value of a cell: its center point."""
    t60_bin, drr_bin = cell
    if not (0 <= t60_bin < grid.n_t60_bins and 0 <= drr_bin < grid.n_drr_bins):
        raise ValueError(f"cell {cell} outside {grid.n_t60_bins} x {grid.n_drr_bins} grid")
    return (
        grid.t60_min + (t60_bin + 0.5) * grid.t60_step,
        grid.drr_min + (drr_bin + 0.5) * grid.drr_step,
    )


@dataclass(frozen=True)
class ClassVocabulary:
    """The ordered set of occupied cells; index = classifier output neuron."""

    cells: tuple

    def __post_init__(self):
        if len(set(self.cells)) != len(self.cells):
            raise ValueError("duplicate cells in vocabulary")
        if list(self.cells) != sorted(self.cells):
            raise ValueError("vocabulary cells must be sorted")

    def __len__(self) -> int:
        return len(self.cells)

    def class_id_of(self, cell: tuple) -> int:
        """Output neuron of ``cell``; ValueError for a cell not in the vocabulary."""
        return self.cells.index(cell)


def build_vocabulary(grid: ClassGrid, pairs) -> ClassVocabulary:
    """Vocabulary of all cells occupied by the given (t60, drr) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("cannot build a vocabulary from no (t60, drr) pairs")
    cells = sorted({cell_of(grid, t60, drr) for t60, drr in pairs})
    return ClassVocabulary(tuple(cells))
