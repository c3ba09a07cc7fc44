"""Greedy shortest-path SWAP routing onto a coupling map.

No lookahead: whenever a two-qubit gate straddles non-adjacent physical
qubits, the endpoint with the lower physical index walks one step along a BFS
shortest path (ties broken by ascending neighbor index; the map precomputes
each path's first hop) until the pair is adjacent. Inserted swaps are emitted
by the lowering's SWAP rule, as CX triples, so routed circuits stay inside the
two-qubit basis. Deterministic by construction.

The router walks its input's qubit stream and records the physical stream and
where each swap goes; the routed gates are built on first access of `gates`.
"""

from dataclasses import dataclass
from functools import partial
from typing import Iterable

from ..circuit import Circuit, Gate, GateKind
from ..errors import CouplingError
from .coupling import CouplingMap
from .decompose import decompose, decompose_all, emit_rule, rule_stream

_SWAP = GateKind.SWAP

# most gates a routed circuit may hold, checked where a swap is appended (a
# route without swaps is no longer than its lowered input, which the
# generators' gate ceilings bound). The qubit stream and the swap positions
# cost about 14 bytes per routed gate, so about 28 MB here. The families the
# tests, the README and the benchmark use route to under 20 000 gates; a full
# family of n = 200, d = 1 on line:200 would route to 8.06 million.
MAX_ROUTED_GATES = 2_000_000


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
    stream: list[tuple[int, ...]] = []  # the physical qubits of each routed gate
    swap_at: list[int] = []  # per swap, the index in c of the gate it precedes
    singles = [(p,) for p in range(cmap.num_qubits)]
    # the map's distance and first-hop tables, read directly per gate
    dist, hop = cmap._dist, cmap._hop
    append = stream.append
    for i, qubits in enumerate(c._stream):
        if len(qubits) == 1:
            append(singles[l2p[qubits[0]]])
            continue
        la, lb = qubits
        pa, pb = l2p[la], l2p[lb]
        while dist[pa][pb] > 1:
            mover, target = (pa, pb) if pa < pb else (pb, pa)
            step = hop[mover][target]
            stream += rule_stream(_SWAP, (mover, step), ())
            if len(stream) > MAX_ROUTED_GATES:
                raise CouplingError(
                    f"routing a {c.width}-qubit circuit onto a {cmap.num_qubits}-qubit "
                    f"map needs more than {MAX_ROUTED_GATES} gates"
                )
            swap_at.append(i)
            lm, ls = p2l[mover], p2l[step]
            p2l[mover], p2l[step] = ls, lm
            if lm is not None:
                l2p[lm] = step
            if ls is not None:
                l2p[ls] = mover
            pa, pb = l2p[la], l2p[lb]
        append(qubits if pa == la and pb == lb else (pa, pb))
    build = partial(_routed_gates, c, stream, swap_at)
    return RoutedCircuit(
        Circuit._lazy(cmap.num_qubits, stream, build, c.base_layers), tuple(l2p), len(swap_at)
    )


def _routed_gates(c: Circuit, stream: list[tuple[int, ...]], swap_at: list[int]) -> tuple[Gate, ...]:
    """The gates of `route`'s circuit: c's gates moved to the physical qubits
    of `stream`, with a swap before gate i of c for each i in `swap_at`.

    A gate whose qubits did not move is kept as is. Every other gate is one of
    c's checked gates moved, or a swap CX, so it is built with one
    `Gate._trusted` call.
    """
    out: list[Gate] = []
    swaps = iter(swap_at)
    next_swap = next(swaps, -1)
    trusted = Gate._trusted
    # stream[len(out)] holds the qubits of the next gate out: for a swap, its first CX
    for i, g in enumerate(c.gates):
        while next_swap == i:
            emit_rule(out, _SWAP, stream[len(out)])
            next_swap = next(swaps, -1)
        physical = stream[len(out)]
        out.append(g if physical == g.qubits else trusted(g.kind, physical, g.params, g.matrix))
    return tuple(out)


def uses_only_map_edges(c: Circuit, cmap: CouplingMap) -> bool:
    """True when every 2-qubit gate acts on a coupling-map edge."""
    return all(cmap.has_edge(*qubits) for qubits in c._stream if len(qubits) == 2)


def transpiled_depth(c: Circuit, cmap: CouplingMap) -> int:
    """Depth after lowering to basis gates and routing onto the map."""
    return route(decompose(c), cmap).circuit.depth()


def transpiled_depths(circuits: Iterable[Circuit], cmap: CouplingMap) -> list[int]:
    """`transpiled_depth` of each circuit, with the SU4 payloads of all of
    them factored together by `decompose_all`."""
    return [route(d, cmap).circuit.depth() for d in decompose_all(circuits)]
