"""Exact enumeration and identity verification for hexagonal double-strip tilings.

A strip of n hexagonal cells (odd indices on the lower row, even on the
upper) is tiled by squares and three kinds of dominoes.  The package counts
these tilings (Tetranacci numbers), enumerates and renders them, carries
executable bijections onto single-strip square/domino tilings (Fibonacci
numbers), and verifies a registry of closed-form identities both
symbolically and against oracles derived from tile geometry.

Importing the package loads none of its modules.  Each public name is
imported from its defining module on first access (PEP 562 module
`__getattr__`), so a process loads only the layers it uses: `hexdomino count`
runs on `sequences` alone.  `from hexdomino import X`, `import *` and
`hexdomino.X` behave as if every module had been imported up front.
"""
from importlib import import_module

# Public name -> the module that defines it, in `__all__` order.
_ORIGIN = {
    "ABSENT": "identities",
    "ALL_CLASSES": "tiles",
    "BOTH_HORIZONTALS": "windows",
    "BREAKABLE": "windows",
    "CLASS_PRESETS": "enumerator",
    "CORRECTED_VARIANT": "identities",
    "CapExceeded": "sequences",
    "CrossingDescriptor": "windows",
    "DOMINO_CLASSES": "tiles",
    "HIGH_HORIZONTAL": "windows",
    "HORIZONTAL": "tiles",
    "IdentityDescriptor": "identities",
    "IdentityRecord": "identities",
    "INCLINED_CROSS": "windows",
    "LEFT_INCLINED": "tiles",
    "LOW_HORIZONTAL": "windows",
    "PAPER_STATED": "identities",
    "ParseError": "strip_model",
    "RIGHT_INCLINED": "tiles",
    "SQUARE": "tiles",
    "SingleStripTiling": "correspondences",
    "SingleTile": "correspondences",
    "Thm2Report": "correspondences",
    "Tile": "tiles",
    "Tiling": "tiles",
    "UnbreakableError": "strip_model",
    "cells_of": "tiles",
    "classify_diagonal": "windows",
    "closed_count": "sequences",
    "count_by_enumeration": "enumerator",
    "enumerate_single_strip": "correspondences",
    "enumerate_tilings": "enumerator",
    "evaluate": "identities",
    "fibonacci_comb": "sequences",
    "first_tile_of_class": "strip_model",
    "get_identity": "identities",
    "histogram_by_descriptor": "windows",
    "is_breakable": "strip_model",
    "lemma2_from_single": "correspondences",
    "lemma2_to_single": "correspondences",
    "lemma3_from_single": "correspondences",
    "lemma3_to_single": "correspondences",
    "list_identities": "identities",
    "max_cells": "sequences",
    "parse_tokens": "strip_model",
    "partition_by_first": "enumerator",
    "pow2": "sequences",
    "render_ascii": "strip_model",
    "split_at": "strip_model",
    "tetranacci": "sequences",
    "thm2_map": "correspondences",
    "thm2_verify": "correspondences",
    "thm3_expected_histogram": "identities",
    "tile_at": "tiles",
    "to_tokens": "strip_model",
    "validate": "strip_model",
    "verify_range": "identities",
}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
