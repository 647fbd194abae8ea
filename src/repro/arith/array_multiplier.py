"""Gate-level array multiplier with pluggable adder cells.

The paper builds the Ax-FPM mantissa multiplier as an *array multiplier*
(Figure 1): partial products ``pp[i][j] = a_j & b_i`` are generated with AND
gates and accumulated row by row through full-adder cells.  Replacing the exact
full adders with approximate ones (AMA5 for Ax-FPM) injects data-dependent
noise into the product.

The simulator here mirrors that structure cell by cell so that the exact same
hardware error model is applied, but every cell evaluation is vectorised over a
numpy batch of operand pairs, which keeps whole-network emulation tractable.

Structure
---------
For ``n``-bit unsigned operands the accumulator starts as partial-product row 0.
Each subsequent row ``i`` (``1 <= i < n``) is added to the accumulator through a
ripple row of ``n`` adder cells covering output weights ``i .. i+n-1``; the
row's final carry lands on weight ``i+n``.  With exact cells this computes the
exact product for any cell-port wiring; with approximate cells the result -- and
in particular the *sign and magnitude of the error* -- depends on which operand
of each cell is wired to the ``A`` and ``B`` ports.  The default wiring
(``port_a="partial_product"``) is the one that reproduces the error behaviour
reported in the paper (Figure 3): the approximate product exceeds the exact
product in magnitude for the overwhelming majority of operand pairs, and the
error grows with the operand magnitude.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Union

import numpy as np

from repro.arith.adders import ADDER_CELLS, AdderCell


def _resolve_cell(cell: Union[str, AdderCell]) -> AdderCell:
    """An adder cell given by instance or by ``"adder-cell"`` registry name."""
    return ADDER_CELLS.create(cell) if isinstance(cell, str) else cell


class CellPolicy(ABC):
    """Chooses which adder cell sits at each position of the array."""

    @abstractmethod
    def cell_at(self, row: int, col: int, n_bits: int) -> AdderCell:
        """Return the adder cell used for row ``row`` (1-based from the second
        partial-product row) and column ``col`` (bit position within the row)."""

    def describe(self) -> str:
        """Human readable description used in hardware reports."""
        return type(self).__name__


class UniformCellPolicy(CellPolicy):
    """Every cell of the array uses the same adder."""

    def __init__(self, cell: Union[str, AdderCell]):
        self.cell = _resolve_cell(cell)

    def cell_at(self, row: int, col: int, n_bits: int) -> AdderCell:
        return self.cell

    def describe(self) -> str:
        return f"uniform({self.cell.name})"


class HeterogeneousCellPolicy(CellPolicy):
    """Approximate cells below a significance threshold, exact cells above.

    This models HEAP-style heterogeneous designs where only the
    low-significance part of the array is approximated, keeping the error
    magnitude small (Table 8 / Figure 15 of the paper).

    Parameters
    ----------
    approx_cell:
        Cell used when the output weight of the position (``row + col``) is
        strictly below ``exact_above_weight``.
    exact_above_weight:
        Output weight from which exact cells are used.  Expressed as a
        fraction of ``2 * n_bits`` when ``relative=True``.
    """

    def __init__(
        self,
        approx_cell: Union[str, AdderCell] = "ama1",
        exact_cell: Union[str, AdderCell] = "exact",
        exact_above_weight: float = 0.5,
        relative: bool = True,
    ):
        self.approx_cell = _resolve_cell(approx_cell)
        self.exact_cell = _resolve_cell(exact_cell)
        self.exact_above_weight = exact_above_weight
        self.relative = relative

    def _threshold(self, n_bits: int) -> float:
        if self.relative:
            return self.exact_above_weight * (2 * n_bits)
        return self.exact_above_weight

    def cell_at(self, row: int, col: int, n_bits: int) -> AdderCell:
        weight = row + col
        if weight < self._threshold(n_bits):
            return self.approx_cell
        return self.exact_cell

    def describe(self) -> str:
        return (
            f"heterogeneous(approx={self.approx_cell.name}, exact={self.exact_cell.name}, "
            f"threshold={self.exact_above_weight}{'*2n' if self.relative else ''})"
        )


class ArrayMultiplier:
    """Unsigned ``n_bits x n_bits`` array multiplier simulated at the cell level.

    Parameters
    ----------
    n_bits:
        Width of both operands.
    cells:
        Either a single adder cell (or its name), applied uniformly, or a
        :class:`CellPolicy`.
    port_a:
        Wiring of cell inputs.  Each cell receives the running accumulator bit,
        the freshly generated partial-product bit, and the ripple carry.  With
        ``"partial_product"`` the partial-product bit drives the cell's ``A``
        port and the accumulator bit drives ``B``; with ``"accumulator"`` the
        roles are swapped.  The carry always drives ``Cin``.  Exact cells are
        insensitive to the wiring; approximate cells are not.
    """

    def __init__(
        self,
        n_bits: int,
        cells: Union[str, AdderCell, CellPolicy] = "exact",
        port_a: str = "partial_product",
    ):
        if n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        if port_a not in ("partial_product", "accumulator"):
            raise ValueError("port_a must be 'partial_product' or 'accumulator'")
        self.n_bits = n_bits
        if isinstance(cells, CellPolicy):
            self.policy: CellPolicy = cells
        else:
            self.policy = UniformCellPolicy(cells)
        self.port_a = port_a

    # ------------------------------------------------------------------ API
    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Multiply unsigned integer arrays ``a`` and ``b`` (values < 2**n_bits).

        Returns the (possibly approximate) products as ``uint64``.
        """
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        a, b = np.broadcast_arrays(a, b)
        shape = a.shape
        a = a.ravel()
        b = b.ravel()
        limit = np.uint64(1) << np.uint64(self.n_bits)
        if a.size and (a.max(initial=np.uint64(0)) >= limit or b.max(initial=np.uint64(0)) >= limit):
            raise ValueError(f"operands must be < 2**{self.n_bits}")

        n = self.n_bits
        out_bits = 2 * n + 1
        # accumulator bit-plane: accum[:, w] is the bit of weight w
        accum = np.zeros((a.size, out_bits), dtype=np.uint8)

        a_bits = self._bits_of(a, n)  # (batch, n)
        b_bits = self._bits_of(b, n)

        # row 0: the first partial product is simply placed in the accumulator.
        accum[:, :n] = a_bits * b_bits[:, 0:1]

        for row in range(1, n):
            pp_row = a_bits * b_bits[:, row : row + 1]  # (batch, n)
            carry = np.zeros(a.size, dtype=np.uint8)
            for col in range(n):
                weight = row + col
                acc_bit = accum[:, weight]
                pp_bit = pp_row[:, col]
                cell = self.policy.cell_at(row, col, n)
                if self.port_a == "partial_product":
                    s, carry = cell.compute(pp_bit, acc_bit, carry)
                else:
                    s, carry = cell.compute(acc_bit, pp_bit, carry)
                accum[:, weight] = s
            accum[:, row + n] |= carry

        weights = (np.uint64(1) << np.arange(out_bits, dtype=np.uint64))[np.newaxis, :]
        product = (accum.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)
        return product.reshape(shape)

    def lut_dtype(self) -> np.dtype:
        """Smallest unsigned dtype that can hold any product of this array.

        Products carry at most ``2 * n_bits + 1`` bits (the paper's array
        leaves one extra carry weight), so the exhaustive LUT never needs the
        ``uint64`` the cell-level simulator computes in: ``uint16`` suffices
        up to 7-bit operands and ``uint32`` covers everything a LUT is built
        for (``n_bits <= 12``), halving (or quartering) both the table's
        resident size and the gather bandwidth of LUT-accelerated emulation.
        """
        if 2 * self.n_bits + 1 <= 16:
            return np.dtype(np.uint16)
        if 2 * self.n_bits + 1 <= 32:
            return np.dtype(np.uint32)
        return np.dtype(np.uint64)

    def build_lut(self) -> np.ndarray:
        """Exhaustively tabulate the multiplier as a ``(2**n, 2**n)`` table.

        The table is indexed as ``lut[a, b]`` and is what
        :class:`repro.arith.fpm.AxFPM` uses to accelerate whole-network
        emulation.  Only practical for small widths (``n_bits <= 12``).
        Stored in the smallest sufficient unsigned dtype (:meth:`lut_dtype`).
        """
        if self.n_bits > 12:
            raise ValueError(
                "refusing to build a LUT for n_bits > 12; use direct simulation instead"
            )
        size = 1 << self.n_bits
        aa, bb = np.meshgrid(
            np.arange(size, dtype=np.uint64), np.arange(size, dtype=np.uint64), indexing="ij"
        )
        products = self.multiply(aa.ravel(), bb.ravel()).reshape(size, size)
        return products.astype(self.lut_dtype(), copy=False)

    # ------------------------------------------------------------ internals
    @staticmethod
    def _bits_of(values: np.ndarray, n_bits: int) -> np.ndarray:
        shifts = np.arange(n_bits, dtype=np.uint64)[np.newaxis, :]
        return ((values[:, np.newaxis] >> shifts) & np.uint64(1)).astype(np.uint8)

    # ------------------------------------------------------------ reporting
    def cell_census(self) -> dict:
        """Count how many cells of each type the array instantiates."""
        census: dict = {}
        for row in range(1, self.n_bits):
            for col in range(self.n_bits):
                cell = self.policy.cell_at(row, col, self.n_bits)
                census[cell.name] = census.get(cell.name, 0) + 1
        return census

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ArrayMultiplier(n_bits={self.n_bits}, cells={self.policy.describe()}, "
            f"port_a={self.port_a!r})"
        )
