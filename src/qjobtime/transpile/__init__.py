"""Transpilation: basis-gate lowering, SWAP routing, transpiled depth."""

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
from .kak import canonical_matrix, kak_decompose
from .route import RoutedCircuit, route, transpiled_depth, transpiled_depths, uses_only_map_edges

# every public name bound above, the submodules aside
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
