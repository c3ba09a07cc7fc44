"""Device connectivity graphs used for routing."""

import json
from collections import deque
from functools import cached_property
from itertools import chain
from typing import Iterable

from ..errors import CouplingError
from ..model import json_typed

# most physical qubits a map may have, refused before its edges are read: the
# edge set of an all-to-all map grows with the square of the qubit count, and
# so do the distance and first-hop tables once every row has been read
MAX_MAP_QUBITS = 1200


class _Rows(dict):
    """A table of a map, one row per source qubit: reading a row not yet
    filled runs that source's BFS, which fills its row in both tables."""

    def __init__(self, bfs):
        super().__init__()
        self.bfs = bfs

    def __missing__(self, src: int):
        self.bfs(src)
        return self[src]


class CouplingMap:
    """Undirected connectivity over `num_qubits` physical qubits.

    Immutable by convention. The adjacency is built with the map; the
    shortest distances and the first hop of each shortest path from a source
    qubit are computed the first time that source is read (a device-scale map
    has up to `MAX_MAP_QUBITS` qubits, and a route reads a few dozen rows).
    """

    def __init__(self, num_qubits: int, edges: Iterable[tuple[int, int]], tag: str = "custom"):
        def adjacency():
            norm = set()
            for a, b in edges:
                a, b = int(a), int(b)
                if a == b:
                    raise CouplingError(f"self-loop on qubit {a}")
                if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                    raise CouplingError(f"edge ({a},{b}) outside 0..{num_qubits - 1}")
                norm.add((min(a, b), max(a, b)))
            self.edges = frozenset(norm)
            return _adjacency(num_qubits, norm)

        self._fill(num_qubits, adjacency, tag)

    @classmethod
    def _trusted(cls, num_qubits: int, adjacency, tag: str) -> "CouplingMap":
        """A named builder's map, unchecked: `adjacency()` gives each qubit's sorted neighbours."""
        cmap = object.__new__(cls)
        cmap._fill(num_qubits, adjacency, tag)
        return cmap

    def _fill(self, num_qubits: int, adjacency, tag: str) -> None:
        if num_qubits < 1:
            raise CouplingError("coupling map needs at least one qubit")
        if num_qubits > MAX_MAP_QUBITS:
            raise CouplingError(f"coupling map has {num_qubits} qubits, above {MAX_MAP_QUBITS}")
        self.num_qubits, self.tag, self._adj = num_qubits, tag, adjacency()
        self._dist, self._hop = _Rows(self._bfs), _Rows(self._bfs)
        if -1 in self._dist[0]:
            raise CouplingError("coupling map is not connected")

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Each edge once, as (a, b) with a < b, read from the adjacency on first use."""
        return frozenset((a, b) for a, nbrs in enumerate(self._adj) for b in nbrs if a < b)

    def _bfs(self, src: int) -> None:
        """Fill row `src` of the distance and first-hop tables by one BFS;
        -1 marks an unreachable qubit.

        hop[src][dst] is the first step of the BFS shortest path from src to
        dst: neighbors are visited in ascending order, so ties go to the
        smallest index. hop[src][src] is src.
        """
        n = self.num_qubits
        if not 0 <= src < n:
            raise IndexError(f"qubit {src} outside 0..{n - 1}")
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
        self._dist[src], self._hop[src] = tuple(d), tuple(h)

    def distance(self, a: int, b: int) -> int:
        if not 0 <= b < self.num_qubits:
            raise IndexError(f"qubit {b} outside 0..{self.num_qubits - 1}")
        return self._dist[a][b]

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def __repr__(self):
        edges = sum(map(len, self._adj)) // 2
        return f"CouplingMap({self.tag}, n={self.num_qubits}, edges={edges})"

    @classmethod
    def from_json(cls, text: str) -> "CouplingMap":
        """Map from `{"n": ..., "edges": [[a, b], ...], "tag": ...}`; `n` and
        every endpoint must be JSON integers (bools, floats and strings are
        refused, never rounded), and the optional tag a string."""
        try:
            spec = json.loads(text)
            n = json_typed("n", spec["n"], int)
            tag = json_typed("tag", spec.get("tag", "custom"), str)
            return cls(n, _integer_edges(spec["edges"]), tag)
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


def _adjacency(num_qubits: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    adj = [[] for _ in range(num_qubits)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return tuple(tuple(sorted(nbrs)) for nbrs in adj)


def line_map(n: int) -> CouplingMap:
    return CouplingMap._trusted(n, lambda: _adjacency(n, zip(range(n - 1), range(1, n))), "line")


def ring_map(n: int) -> CouplingMap:
    if n < 3:
        raise CouplingError("ring needs at least 3 qubits")
    return CouplingMap._trusted(n, lambda: _adjacency(n, zip(range(n), [*range(1, n), 0])), "ring")


def all_to_all_map(n: int) -> CouplingMap:
    def adjacency():  # each qubit's neighbours are all the other qubits
        row = tuple(range(n))
        return tuple(row[:q] + row[q + 1:] for q in row)

    return CouplingMap._trusted(n, adjacency, "all-to-all")


def heavy_hex_like_map(n: int) -> CouplingMap:
    """Sparse degree-<=3 graph approximating heavy-hex device connectivity:
    a backbone path with a rung every eight qubits."""
    edges = chain(zip(range(n - 1), range(1, n)), ((i, i + 4) for i in range(1, n - 4, 8)))
    return CouplingMap._trusted(n, lambda: _adjacency(n, edges), "heavy-hex-like")


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
