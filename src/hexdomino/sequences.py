"""Integer sequence kernels: Tetranacci, combinatorial Fibonacci, powers of two.

All values are exact Python ints (arbitrary precision).  The Tetranacci
sequence T counts tilings of the n-cell hexagonal double-strip; the
combinatorial Fibonacci sequence f counts square/domino tilings of an n-cell
single strip under the convention f_0 = f_1 = 1.

The memo tables are append-only: a slot, once written, never changes.  A memo
never grows past physical memory: T_0..T_i hold at least 0.059 i^2 bytes (T_i
has 0.947 i bits) and f_0..f_i 0.043 i^2, so a larger index raises MemoryError
up front.  The enumeration cap is read here too, so closed `verify` loads no
enumerator.
"""
from __future__ import annotations

import os

# The enumerator's CLASS_PRESETS names, in sorted order; `closed_count` takes
# one, and the CLI offers them as --classes without importing the enumerator.
PRESET_NAMES = ("all", "no-horizontal", "no-squares", "squares-right")
DEFAULT_MAX_CELLS = 24
MAX_CELLS_ENV = "HEXDOMINO_MAX_N"
_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")  # bytes

_T: list[int] = [0, 1, 1, 2, 4]  # _T[i + 1] == T_i, starting at T_{-1} = 0
_F: list[int] = [1, 1]           # _F[i] == f_i


class CapExceeded(ValueError):
    """Raised when an enumeration request exceeds the configured cell cap."""


def max_cells() -> int:
    """Enumeration cap in cells; override with the HEXDOMINO_MAX_N variable."""
    raw = os.environ.get(MAX_CELLS_ENV)
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        cap = int(raw)
        if cap >= 0:
            return cap
    except ValueError:
        pass
    raise ValueError(f"{MAX_CELLS_ENV} must be a non-negative integer, got {raw!r}")


def _grow_tetranacci(i: int) -> None:
    """Reject an index below T_{-1} or past memory; otherwise extend the memo through T_i."""
    if i < -1:
        raise ValueError(f"tetranacci index must be >= -1, got {i}")
    if 59 * i * i > 1000 * _MEMORY:
        raise MemoryError(f"T_0..T_{i} need more than the {_MEMORY} bytes of memory")
    while i + 1 >= len(_T):
        _T.append(_T[-1] + _T[-2] + _T[-3] + _T[-4])


def _grow_fibonacci(i: int) -> None:
    """Reject an index below f_0 or past memory; otherwise extend the memo through f_i."""
    if i < 0:
        raise ValueError(f"fibonacci_comb index must be >= 0, got {i}")
    if 43 * i * i > 1000 * _MEMORY:
        raise MemoryError(f"f_0..f_{i} need more than the {_MEMORY} bytes of memory")
    while i >= len(_F):
        _F.append(_F[-1] + _F[-2])


def tetranacci(i: int) -> int:
    """T_i for i >= -1: T_{-1}=0, T_0=T_1=1, T_2=2, T_3=4, then the 4-term sum."""
    if not -1 <= i < len(_T) - 1:  # a memo hit costs no second call
        _grow_tetranacci(i)
    return _T[i + 1]


def fibonacci_comb(i: int) -> int:
    """f_i for i >= 0 under the tiling convention f_0 = f_1 = 1."""
    if not 0 <= i < len(_F):
        _grow_fibonacci(i)
    return _F[i]


def pow2(i: int) -> int:
    """2**i for i >= 0."""
    if i < 0:
        raise ValueError(f"pow2 index must be >= 0, got {i}")
    return 1 << i


def closed_count(preset: str, length: int) -> int:
    """Closed-form number of tilings of the length-cell strip in a class preset.

    Presets are the enumerator's CLASS_PRESETS names:

    * all: T(length);
    * no-horizontal: f(length), the stretch onto a single strip (lemma 2);
    * no-squares: f(length / 2) for even lengths (lemma 3), 0 for odd ones;
    * squares-right: 2^(length // 2) (lemma 1); an odd strip forces a square
      on its last cell.
    """
    if length < 0:
        raise ValueError(f"strip length must be >= 0, got {length}")
    if preset == "all":
        return tetranacci(length)
    if preset == "no-horizontal":
        return fibonacci_comb(length)
    if preset == "no-squares":
        return fibonacci_comb(length // 2) if length % 2 == 0 else 0
    if preset == "squares-right":
        return pow2(length // 2)
    raise ValueError(
        f"unknown class preset {preset!r}, expected one of {', '.join(PRESET_NAMES)}"
    )
