"""Transpilation: basis-gate lowering, SWAP routing, transpiled depth."""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .coupling import (
    CouplingMap,
    all_to_all_map,
    heavy_hex_like_map,
    line_map,
    named_map,
    ring_map,
)
from .decompose import BASIS_1Q, BASIS_2Q, decompose, decompose_all
from .route import RoutedCircuit, route, transpiled_depth, transpiled_depths, uses_only_map_edges

_KAK = ("canonical_matrix", "kak_decompose")  # from `kak`, imported on first read (PEP 562)
# every public name bound above, the submodules aside, and `_KAK`
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_KAK)


def __getattr__(name: str):
    if name not in _KAK:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(".kak", __name__), name)
