"""Greedy shortest-path SWAP routing onto a coupling map.

No lookahead: whenever a two-qubit gate straddles non-adjacent physical
qubits, the endpoint with the lower physical index walks one step along a BFS
shortest path (ties broken by ascending neighbor index; the map precomputes
each path's first hop) until the pair is adjacent. Inserted swaps are emitted
as CX triples so routed circuits stay inside the two-qubit basis. Deterministic by construction.
"""

from dataclasses import dataclass

from ..circuit import Circuit, Gate, GateKind
from ..errors import CouplingError
from .coupling import CouplingMap
from .decompose import decompose


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
    # qubits, or a swap CX, so it is built with `Gate._trusted`. Gates are
    # immutable, so each swap pair's CX triple is built once and shared.
    swap_cx: dict[tuple[int, int], tuple[Gate, Gate, Gate]] = {}

    def do_swap(pa: int, pb: int) -> None:
        triple = swap_cx.get((pa, pb))
        if triple is None:
            ab = Gate._trusted(GateKind.CX, (pa, pb))
            triple = swap_cx[pa, pb] = (ab, Gate._trusted(GateKind.CX, (pb, pa)), ab)
        out.extend(triple)
        la, lb = p2l[pa], p2l[pb]
        p2l[pa], p2l[pb] = lb, la
        if la is not None:
            l2p[la] = pb
        if lb is not None:
            l2p[lb] = pa

    for g in c.gates:
        if len(g.qubits) == 1:
            physical = (l2p[g.qubits[0]],)
        else:
            la, lb = g.qubits
            while cmap.distance(l2p[la], l2p[lb]) > 1:
                pa, pb = l2p[la], l2p[lb]
                mover, target = (pa, pb) if pa < pb else (pb, pa)
                do_swap(mover, cmap.next_hop(mover, target))
                swaps += 1
            physical = (l2p[la], l2p[lb])
        if physical != g.qubits:  # a gate that stays on its qubits is reused as is
            g = Gate._trusted(g.kind, physical, g.params, g.matrix)
        out.append(g)

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
