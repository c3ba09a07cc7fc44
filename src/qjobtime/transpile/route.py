"""Greedy shortest-path SWAP routing onto a coupling map.

No lookahead: whenever a two-qubit gate straddles non-adjacent physical
qubits, the endpoint with the lower physical index walks one step along a BFS
shortest path (ties broken by ascending neighbor index; the map holds each
path's first hop) until the pair is adjacent. Inserted swaps are emitted
by the lowering's SWAP rule, as CX triples, so routed circuits stay inside the
two-qubit basis. Deterministic by construction.

The router walks one entry per input gate: a lowered circuit's (qubits,
`rule_profile`) entries, or a unit entry per gate of any other circuit. It
keeps the ASAP frontier of each physical qubit from the profiles, so the
routed depth comes from the same walk that places the swaps; a swap goes
after the leading 1q gates of the entry that needs it, before its first CX.
The router records only where each entry's swaps go: the routed gates are
rebuilt from the input's gates and the swaps when first read.
"""

from collections import namedtuple
from functools import partial
from typing import Iterable, Iterator

from ..circuit import MAX_GATES, MAX_SAMPLE_GATES, Circuit, Gate, GateKind, check_gates
from ..errors import CouplingError
from ..model import FrozenRecord
from .coupling import CouplingMap
from .decompose import decompose, decompose_all, emit_rule, rule_profile

_SWAP = GateKind.SWAP
# the profile of each gate of a circuit that the lowering did not make, by arity
_UNIT = {1: rule_profile(GateKind.X, ()), 2: rule_profile(GateKind.CX, ())}


class RoutedCircuit(FrozenRecord, namedtuple("RoutedCircuit", "circuit final_layout swap_count")):
    """Routing result: the physical-width circuit, where each logical qubit
    ended up (final_layout[logical] = physical), and how many swaps it cost."""

    __slots__ = ()


def route(c: Circuit, cmap: CouplingMap) -> RoutedCircuit:
    """Map a circuit onto `cmap` starting from the identity layout."""
    n = cmap.num_qubits
    if c.width > n:
        raise CouplingError(f"circuit width {c.width} exceeds coupling map size {n}")
    # logical <-> physical; the logical qubits from c.width up stand for free physical ones
    l2p, p2l = list(range(n)), list(range(n))
    ready = [0] * n  # the ASAP frontier of each physical qubit
    swaps = []  # per entry that needs swaps: (the index in c of its first CX, its `_path`)
    # (pa, pb) -> its `_path`: the layout moves with each swap, yet a pair recurs, as in
    # 96% of a full-entanglement kernel's paths on heavy-hex-like:27 and a quarter of QV's
    paths = {}
    # the map's distance and first-hop tables, read directly per gate
    dist, hop = cmap._dist, cmap._hop
    swap = rule_profile(_SWAP, ())  # its rule starts with its first CX
    swap_length, (swap_a, swap_b) = swap.length, swap.after
    swap_count = 0
    # checked where a swap is placed: without swaps a route is as long as its input
    what = f"the route of a {c.width}-qubit circuit onto a {n}-qubit map"
    entries = c._entries
    if entries is None:
        entries = [(g.qubits, _UNIT[len(g.qubits)]) for g in c.gates]
    at = 0  # the index in c of the next entry's first gate
    for qubits, p in entries:
        if len(qubits) == 1:
            ready[l2p[qubits[0]]] += p.length
            at += p.length
            continue
        length, (lead_a, lead_b), (after_a, after_b) = p
        la, lb = qubits
        pa, pb = l2p[la], l2p[lb]
        ready[pa] += lead_a
        ready[pb] += lead_b
        if dist[pa][pb] > 1:
            first = at + lead_a + lead_b
            path, pa, pb = paths.get((pa, pb)) or paths.setdefault((pa, pb), _path(pa, pb, dist, hop))
            swaps.append((first, path))
            for mover, step in path:
                swap_count += 1
                if first + swap_length * swap_count > MAX_GATES:
                    check_gates(what, first + swap_length * swap_count, MAX_GATES, CouplingError)
                top = ready[mover] if ready[mover] > ready[step] else ready[step]
                ready[mover], ready[step] = top + swap_a, top + swap_b
                # step's logical qubit (never la or lb) goes to mover; la and lb are placed below
                moved = p2l[mover] = p2l[step]
                l2p[moved] = mover
            p2l[pa], p2l[pb], l2p[la], l2p[lb] = la, lb, pa, pb
        top = ready[pa] if ready[pa] > ready[pb] else ready[pb]
        ready[pa], ready[pb] = top + after_a, top + after_b
        at += length
    routed = Circuit._trusted(n, partial(_replay, c, swaps, n), c.base_layers,
                              at + swap_length * swap_count, max(ready))
    return RoutedCircuit(routed, tuple(l2p[: c.width]), swap_count)


def _path(pa: int, pb: int, dist, hop) -> tuple[list[tuple[int, int]], int, int]:
    """The swaps, each (mover, step), that bring physical qubits pa and pb
    next to each other by the rule above, and the qubits they end on."""
    path = []
    while dist[pa][pb] > 1:
        mover, target = (pa, pb) if pa < pb else (pb, pa)
        step = hop[mover][target]
        path.append((mover, step))
        if mover == pa:
            pa = step
        else:
            pb = step
    return path, pa, pb


def _replay(c: Circuit, swaps, width: int) -> tuple[Gate, ...]:
    """`route`'s gates, rebuilt from c's: each moved to the physical qubits
    of its logical ones, and before gate i of c, for each (i, path) in
    `swaps`, the swaps of the path by the SWAP rule."""
    gates = c.gates
    l2p, p2l = list(range(width)), list(range(width))
    out, start = [], 0
    for i, path in swaps + [(len(gates), ())]:
        out += (_moved_gate(g, l2p) for g in gates[start:i])
        for a, b in path:
            emit_rule(out, _SWAP, (a, b))
            p2l[a], p2l[b] = p2l[b], p2l[a]
            l2p[p2l[a]], l2p[p2l[b]] = a, b
        start = i
    return tuple(out)


def _moved_gate(g: Gate, l2p: list[int]) -> Gate:
    """g on the physical qubits of its logical ones: g itself when they did
    not move, else g's checked fields on them, in one `Gate._trusted` call."""
    physical = tuple(map(l2p.__getitem__, g.qubits))
    return g if physical == g.qubits else Gate._trusted(g.kind, physical, g.params, g.matrix)


def uses_only_map_edges(c: Circuit, cmap: CouplingMap) -> bool:
    """True when every 2-qubit gate acts on a coupling-map edge."""
    return all(cmap.has_edge(*g.qubits) for g in c.gates if len(g.qubits) == 2)


def transpiled_depth(c: Circuit, cmap: CouplingMap) -> int:
    """Depth after lowering to basis gates and routing onto the map."""
    return route(decompose(c), cmap).circuit.depth()


def transpiled_depths(circuits: Iterable[Circuit], cmap: CouplingMap) -> list[int]:
    """`transpiled_depth` of each circuit, each lowered and routed as it is drawn."""
    return list(routed_depths(decompose_all(circuits), cmap))


def routed_depths(lowered: Iterable[Circuit], cmap: CouplingMap) -> Iterator[int]:
    """Each lowered circuit's routed depth, yielded once neither is held; refused with
    `CouplingError` once the routed circuits pass `MAX_SAMPLE_GATES` basis gates in all."""
    count = total = 0  # not `enumerate`, whose result tuple would hold c
    for c in lowered:
        routed = route(c, cmap).circuit
        count, total = count + 1, total + len(routed)
        check_gates(f"the first {count} routed circuits", total, MAX_SAMPLE_GATES, CouplingError)
        depth = routed.depth()
        del c, routed  # the next circuit is drawn and lowered without them
        yield depth
