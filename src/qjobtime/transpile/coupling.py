"""Device connectivity graphs used for routing."""

import json
from collections import deque
from itertools import chain
from typing import Iterable

from ..errors import CouplingError
from ..model import json_typed

# most physical qubits a map may have, refused before its edges are read: the
# distance and first-hop tables grow with the square of the qubit count
# (heavy-hex-like:1121, the size of IBM's largest device, takes about 40 MB)
MAX_MAP_QUBITS = 1200


class CouplingMap:
    """Undirected connectivity over `num_qubits` physical qubits.

    Immutable by convention; adjacency, all-pairs shortest distances and the
    first hop of each shortest path are precomputed (maps are small: tens of
    qubits, at most `MAX_MAP_QUBITS`).
    """

    def __init__(self, num_qubits: int, edges: Iterable[tuple[int, int]], tag: str = "custom"):
        if num_qubits < 1:
            raise CouplingError("coupling map needs at least one qubit")
        if num_qubits > MAX_MAP_QUBITS:
            raise CouplingError(f"coupling map has {num_qubits} qubits, above {MAX_MAP_QUBITS}")
        norm = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise CouplingError(f"self-loop on qubit {a}")
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise CouplingError(f"edge ({a},{b}) outside 0..{num_qubits - 1}")
            norm.add((min(a, b), max(a, b)))
        self.num_qubits = num_qubits
        self.edges = frozenset(norm)
        self.tag = tag
        self._adj: tuple[tuple[int, ...], ...] = self._adjacency()
        self._dist, self._hop = self._all_pairs_bfs()
        if -1 in self._dist[0]:
            raise CouplingError("coupling map is not connected")

    def _adjacency(self):
        adj = [[] for _ in range(self.num_qubits)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    def _all_pairs_bfs(self):
        """Distances and first hops from one BFS per source; -1 marks an
        unreachable qubit.

        hop[src][dst] is the first step of the BFS shortest path from src to
        dst: neighbors are visited in ascending order, so ties go to the
        smallest index. hop[src][src] is src.
        """
        n = self.num_qubits
        dist, hop = [], []
        for src in range(n):
            d = [-1] * n
            h = [src] * n
            d[src] = 0
            queue = deque([src])
            while queue:
                u = queue.popleft()
                for v in self._adj[u]:
                    if d[v] < 0:
                        d[v] = d[u] + 1
                        h[v] = v if u == src else h[u]
                        queue.append(v)
            dist.append(tuple(d))
            hop.append(tuple(h))
        return tuple(dist), tuple(hop)

    def distance(self, a: int, b: int) -> int:
        return self._dist[a][b]

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def __repr__(self):
        return f"CouplingMap({self.tag}, n={self.num_qubits}, edges={len(self.edges)})"

    @classmethod
    def from_json(cls, text: str) -> "CouplingMap":
        """Map from `{"n": ..., "edges": [[a, b], ...], "tag": ...}`; `n` and
        every endpoint must be JSON integers (bools, floats and strings are
        refused, never rounded)."""
        try:
            spec = json.loads(text)
            n = json_typed("n", spec["n"], int)
            return cls(n, _integer_edges(spec["edges"]), spec.get("tag", "custom"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CouplingError(f"bad coupling map JSON: {exc!r}") from exc


def _integer_edges(edges):
    """The items of a JSON edge list, each refused unless its endpoints are
    integers and not bools. A generator, so the constructor refuses a map
    above `MAX_MAP_QUBITS` before any edge is read."""
    for edge in edges:
        if not all(type(q) is int for q in edge):
            raise ValueError(f"edge {edge!r} must be a pair of integers")
        yield edge


# The builders pass their edges as generators, so a map above
# `MAX_MAP_QUBITS` is refused before any edge exists.


def line_map(n: int) -> CouplingMap:
    return CouplingMap(n, ((i, i + 1) for i in range(n - 1)), tag="line")


def ring_map(n: int) -> CouplingMap:
    if n < 3:
        raise CouplingError("ring needs at least 3 qubits")
    return CouplingMap(n, ((i, (i + 1) % n) for i in range(n)), tag="ring")


def all_to_all_map(n: int) -> CouplingMap:
    return CouplingMap(n, ((i, j) for i in range(n) for j in range(i + 1, n)), tag="all-to-all")


def heavy_hex_like_map(n: int) -> CouplingMap:
    """Sparse degree-<=3 graph approximating heavy-hex device connectivity:
    a backbone path with a rung every eight qubits."""
    rungs = ((i, i + 4) for i in range(1, n - 4, 8))
    return CouplingMap(n, chain(((i, i + 1) for i in range(n - 1)), rungs), tag="heavy-hex-like")


_NAMED = {
    "line": line_map,
    "ring": ring_map,
    "all-to-all": all_to_all_map,
    "heavy-hex-like": heavy_hex_like_map,
}


def named_map(kind: str, n: int) -> CouplingMap:
    try:
        builder = _NAMED[kind]
    except KeyError:
        raise CouplingError(f"unknown coupling map kind {kind!r}; options: {sorted(_NAMED)}")
    return builder(n)
