"""Greedy shortest-path SWAP routing onto a coupling map.

No lookahead: whenever a two-qubit gate straddles non-adjacent physical
qubits, the endpoint with the lower physical index walks one step along a BFS
shortest path (ties broken by ascending neighbor index; the map precomputes
each path's first hop) until the pair is adjacent. Inserted swaps are emitted
as CX triples so routed circuits stay inside the two-qubit basis. Deterministic by construction.
"""

from dataclasses import dataclass
from typing import Iterable

from ..circuit import Circuit, Gate
from ..errors import CouplingError
from .coupling import CouplingMap
from .decompose import SharedGates, decompose, decompose_all, swap_as_cx


@dataclass(frozen=True)
class RoutedCircuit:
    """Routing result: the physical-width circuit, where each logical qubit
    ended up (final_layout[logical] = physical), and how many swaps it cost."""

    circuit: Circuit
    final_layout: tuple[int, ...]
    swap_count: int


def route(c: Circuit, cmap: CouplingMap) -> RoutedCircuit:
    """Map a circuit onto `cmap` starting from the identity layout."""
    if c.width > cmap.num_qubits:
        raise CouplingError(
            f"circuit width {c.width} exceeds coupling map size {cmap.num_qubits}"
        )
    l2p = list(range(c.width))  # logical -> physical
    p2l: list[int | None] = list(range(c.width)) + [None] * (cmap.num_qubits - c.width)
    out: list[Gate] = []
    swaps = 0
    # Every gate emitted is one of c's checked gates moved to other physical
    # qubits, or a swap CX, so it is built with `Gate._trusted`. A moved gate
    # with parameters or a payload (RZ, SU4) is built anew; a parameter-free
    # one (SX, X, CX) is the one shared gate of its kind on those qubits.
    shared = SharedGates()

    def do_swap(pa: int, pb: int) -> None:
        out.extend(swap_as_cx(shared, pa, pb))
        la, lb = p2l[pa], p2l[pb]
        p2l[pa], p2l[pb] = lb, la
        if la is not None:
            l2p[la] = pb
        if lb is not None:
            l2p[lb] = pa

    # the map's distance and first-hop tables, read directly per gate
    dist, hop = cmap._dist, cmap._hop
    trusted, append = Gate._trusted, out.append
    for g in c.gates:
        qubits = g.qubits
        if len(qubits) == 1:
            physical = (l2p[qubits[0]],)
        else:
            la, lb = qubits
            pa, pb = l2p[la], l2p[lb]
            while dist[pa][pb] > 1:
                mover, target = (pa, pb) if pa < pb else (pb, pa)
                do_swap(mover, hop[mover][target])
                swaps += 1
                pa, pb = l2p[la], l2p[lb]
            physical = (pa, pb)
        if physical != qubits:  # a gate that stays on its qubits is reused as is
            if g.params or g.matrix is not None:
                g = trusted(g.kind, physical, g.params, g.matrix)
            else:
                g = shared[g.kind, physical]
        append(g)

    return RoutedCircuit(
        Circuit._trusted(cmap.num_qubits, tuple(out), c.base_layers), tuple(l2p), swaps
    )


def uses_only_map_edges(c: Circuit, cmap: CouplingMap) -> bool:
    """True when every 2-qubit gate acts on a coupling-map edge."""
    return all(
        cmap.has_edge(*g.qubits) for g in c.gates if len(g.qubits) == 2
    )


def transpiled_depth(c: Circuit, cmap: CouplingMap) -> int:
    """Depth after lowering to basis gates and routing onto the map."""
    return route(decompose(c), cmap).circuit.depth()


def transpiled_depths(circuits: Iterable[Circuit], cmap: CouplingMap) -> list[int]:
    """`transpiled_depth` of each circuit, with the SU4 payloads of all of
    them factored together by `decompose_all`."""
    return [route(d, cmap).circuit.depth() for d in decompose_all(circuits)]
