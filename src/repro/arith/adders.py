"""Full-adder cell library.

The Ax-FPM of the paper replaces the mantissa multiplier of a floating point
multiplier with an array multiplier whose full adders are *approximate mirror
adders* (Gupta et al., "Low-Power Digital Signal Processing Using Approximate
Adders", TCAD 2013).  The paper uses the most aggressive variant, AMA5, whose
entire logic collapses to two buffers::

    Sum  = B
    Cout = A

Every cell in this module operates element-wise on numpy integer arrays whose
values are 0 or 1, so that a whole batch of multiplications can be simulated
through the gate-level structure at once.

The exact truth table of a full adder, for reference::

    A B Cin | Sum Cout
    0 0  0  |  0   0
    0 0  1  |  1   0
    0 1  0  |  1   0
    0 1  1  |  0   1
    1 0  0  |  1   0
    1 0  1  |  0   1
    1 1  0  |  0   1
    1 1  1  |  1   1
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Tuple

import numpy as np

from repro.registry import registry

Bits = np.ndarray

#: unified registry of full-adder cells (namespace ``"adder-cell"``).  Cells
#: are stateless, so each entry's factory returns a shared singleton instance.
ADDER_CELLS = registry("adder-cell")


class AdderCell(ABC):
    """A single-bit adder cell evaluated element-wise over numpy bit arrays."""

    #: short identifier used in registries and reports
    name: str = "adder"

    #: number of transistors in a CMOS (mirror-adder style) implementation,
    #: used by the hardware cost model (:mod:`repro.hw.energy_model`).
    transistor_count: int = 24

    #: relative switching delay of the Sum path, normalised to the exact cell.
    relative_delay: float = 1.0

    @abstractmethod
    def compute(self, a: Bits, b: Bits, cin: Bits) -> Tuple[Bits, Bits]:
        """Return ``(sum, cout)`` for the given input bits."""

    def truth_table(self) -> List[Tuple[int, int, int, int, int]]:
        """Enumerate the cell's behaviour as ``(a, b, cin, sum, cout)`` rows."""
        rows = []
        for a in (0, 1):
            for b in (0, 1):
                for cin in (0, 1):
                    s, c = self.compute(np.array([a]), np.array([b]), np.array([cin]))
                    rows.append((a, b, cin, int(s[0]), int(c[0])))
        return rows

    def error_count(self) -> Tuple[int, int]:
        """Number of erroneous (sum, cout) entries out of the 8 input combos."""
        exact = ExactFullAdder()
        sum_errors = 0
        cout_errors = 0
        for a, b, cin, s, c in self.truth_table():
            es, ec = exact.compute(np.array([a]), np.array([b]), np.array([cin]))
            sum_errors += int(s != int(es[0]))
            cout_errors += int(c != int(ec[0]))
        return sum_errors, cout_errors

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"


class ExactFullAdder(AdderCell):
    """The exact mirror adder: ``Sum = A ^ B ^ Cin``, ``Cout = majority``."""

    name = "exact"
    transistor_count = 24
    relative_delay = 1.0

    def compute(self, a: Bits, b: Bits, cin: Bits) -> Tuple[Bits, Bits]:
        s = a ^ b ^ cin
        cout = (a & b) | (cin & (a ^ b))
        return s, cout


class AMA1(AdderCell):
    """Approximate mirror adder 1: exact carry, ``Sum = ~Cout``.

    The sum output is wrong for the two input combinations ``000`` and ``111``.
    """

    name = "ama1"
    transistor_count = 20
    relative_delay = 0.85

    def compute(self, a: Bits, b: Bits, cin: Bits) -> Tuple[Bits, Bits]:
        cout = (a & b) | (cin & (a ^ b))
        s = 1 - cout
        return s, cout


class AMA2(AdderCell):
    """Approximate mirror adder 2: exact carry, ``Sum = A``.

    The sum output is wrong for four of the eight input combinations.
    """

    name = "ama2"
    transistor_count = 14
    relative_delay = 0.7

    def compute(self, a: Bits, b: Bits, cin: Bits) -> Tuple[Bits, Bits]:
        cout = (a & b) | (cin & (a ^ b))
        s = a.copy()
        return s, cout


class AMA3(AdderCell):
    """Approximate mirror adder 3: ``Cout = (A & B) | (A & Cin)``, ``Sum = ~Cout``.

    Both outputs carry errors; cheaper than AMA1/AMA2.
    """

    name = "ama3"
    transistor_count = 11
    relative_delay = 0.6

    def compute(self, a: Bits, b: Bits, cin: Bits) -> Tuple[Bits, Bits]:
        cout = (a & b) | (a & cin)
        s = 1 - cout
        return s, cout


class AMA4(AdderCell):
    """Approximate mirror adder 4: ``Cout = A``, ``Sum = A ^ B ^ Cin`` kept exact."""

    name = "ama4"
    transistor_count = 15
    relative_delay = 0.75

    def compute(self, a: Bits, b: Bits, cin: Bits) -> Tuple[Bits, Bits]:
        cout = a.copy()
        s = a ^ b ^ cin
        return s, cout


class AMA5(AdderCell):
    """Approximate mirror adder 5 -- the cell used by the paper's Ax-FPM.

    The whole adder degenerates to two buffers::

        Sum  = B
        Cout = A

    The carry input is ignored entirely, which makes the injected error
    strongly data dependent: it appears only for specific combinations of the
    operand bits and is therefore hard to model or predict, which is exactly
    the property Defensive Approximation exploits.
    """

    name = "ama5"
    transistor_count = 5
    relative_delay = 0.25

    def compute(self, a: Bits, b: Bits, cin: Bits) -> Tuple[Bits, Bits]:
        return b.copy(), a.copy()


for _cell in (ExactFullAdder(), AMA1(), AMA2(), AMA3(), AMA4(), AMA5()):
    ADDER_CELLS.register(
        _cell.name,
        (lambda cell: lambda: cell)(_cell),
        metadata={
            "transistor_count": _cell.transistor_count,
            "relative_delay": _cell.relative_delay,
        },
    )
del _cell


def list_cells() -> List[str]:
    """Names of all registered adder cells."""
    return sorted(ADDER_CELLS.names())
