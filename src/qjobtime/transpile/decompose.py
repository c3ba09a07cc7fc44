"""Lowering to the hardware basis: 1q {RZ, SX, X}, 2q {CX}.

Output is unitarily equivalent to the input up to global phase. Fixed rules:

    H         -> RZ(pi/2), SX, RZ(pi/2)
    RZZ(t)    -> CX, RZ(t) on the target, CX            (exact)
    SWAP      -> CX, CX, CX                             (exact)
    U3        -> ZYZ Euler angles as an RZ/SX string
    SU4       -> three CX with 1q dressings (see kak); the SU4 payloads of
                 the circuits given to `decompose_all` are factored in
                 stacked passes of at most `KAK_BATCH` payloads

Each rule states its gate sequence once, in `_RULES`. A lowered circuit's
qubit stream, all that routing and depth read, is read from the rules when
the circuit is lowered; its gates are read from them on first access of
`gates`. The router emits its swaps by the SWAP rule.

Every emitted gate acts on the qubits of an already-checked input gate, so it
is built with `Gate._trusted` (angles passed as Python floats), skipping the
construction checks. Gates are immutable, so a gate that recurs within one
circuit (each qubit's SX and the H rule's RZ(pi/2), each pair's CX) is built
once and shared.
"""

from functools import lru_cache, partial
from typing import Iterable, Iterator

import numpy as np

from ..circuit import Circuit, Gate, GateKind, gate_matrix
from .kak import canonical_layers, kak_decompose, zsx_angles

BASIS_1Q = (GateKind.RZ, GateKind.SX, GateKind.X)
BASIS_2Q = (GateKind.CX,)

# the kinds, bound once: reading an Enum member costs a class attribute
# lookup, and the lowering tests a kind on every gate
_H, _SX, _RZ, _RZZ, _CX = GateKind.H, GateKind.SX, GateKind.RZ, GateKind.RZZ, GateKind.CX
_SWAP, _U3, _SU4 = GateKind.SWAP, GateKind.U3, GateKind.SU4
_PASS_THROUGH = frozenset(BASIS_1Q + BASIS_2Q)  # already in the basis
_HALF_PI = (np.pi / 2,)  # the H rule's RZ angle

# A rule is the gate sequence one input gate lowers to. Each step is
# (kind, positions, angles): a gate of `kind` on the input gate's qubits at
# `positions`, with the constant `angles`, or with the input gate's own
# parameters where `angles` is `_OWN`. A `_ROW` step takes the input gate's
# next `zsx_angles` row (count, angles) and emits `_ROW_GATES[count]` on its
# qubit: each entry is the index of an RZ angle, or None for SX.
_ROW, _OWN = "row", "own"
_CX01 = (_CX, (0, 1), ())
_ROWS01 = ((_ROW, (0,), ()), (_ROW, (1,), ()))  # a 1q layer on (hi, lo)
_RULES = {
    _H: ((_RZ, (0,), _HALF_PI), (_SX, (0,), ()), (_RZ, (0,), _HALF_PI)),
    _RZZ: (_CX01, (_RZ, (1,), _OWN), _CX01),
    _SWAP: (_CX01, (_CX, (1, 0), ()), _CX01),
    _U3: ((_ROW, (0,), ()),),
    _SU4: _ROWS01 + (_CX01,) + _ROWS01 + (_CX01,) + _ROWS01 + (_CX01,) + _ROWS01,
}
_ROW_GATES = {0: (), 1: (0,), 3: (0, None, 1, None, 2)}  # RZ(a1) SX RZ(a2) SX RZ(a3)


@lru_cache(maxsize=4096)
def rule_stream(kind: GateKind, qubits: tuple[int, ...], counts: tuple[int, ...]) -> tuple:
    """The qubits of each gate that `kind` on `qubits` lowers to, given the
    counts of its `zsx_angles` rows in order."""
    counts = iter(counts)
    out = []
    for step, positions, _ in _RULES[kind]:
        q = tuple(qubits[i] for i in positions)
        out += (q,) * (len(_ROW_GATES[next(counts)]) if step is _ROW else 1)
    return tuple(out)


def emit_rule(out: list[Gate], shared: "SharedGates", kind: GateKind, qubits: tuple[int, ...],
              params: tuple[float, ...] = (), rows=()) -> None:
    """Append the gates that `kind` on `qubits` with `params` lowers to,
    taking its `zsx_angles` rows, each (count, [a1, a2, a3]), from `rows`."""
    rows = iter(rows)
    trusted = Gate._trusted
    for step, positions, angles in _RULES[kind]:
        q = tuple(qubits[i] for i in positions)
        if step is _ROW:
            count, a = next(rows)
            sx = shared[_SX, q]
            out += (sx if i is None else trusted(_RZ, q, (a[i],)) for i in _ROW_GATES[count])
        elif angles is _OWN:
            out.append(trusted(step, q, params))
        elif angles:
            out.append(shared[step, q, angles])
        else:
            out.append(shared[step, q])


class SharedGates(dict):
    """Gates keyed by their `Gate._trusted` arguments, (kind, qubits) or
    (kind, qubits, params), each built on its first lookup."""

    def __missing__(self, key):
        gate = self[key] = Gate._trusted(*key)
        return gate


# most SU4 payloads one stacked KAK pass factors: a whole QV baseline of 20
# width-8 circuits (640 payloads) fits in one pass, and the pass's
# intermediates stay the same size however many circuits are lowered
KAK_BATCH = 1024


def _su4_dressings(payloads: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per SU4 payload, the `zsx_angles` counts (k, 8) and angles (k, 8, 3) of
    its eight 1q dressings in emission order: (hi, lo) before the first CX
    and after each of the three CX. All payloads go through one stacked KAK
    pass."""
    _, a1, a0, xyz, b1, b0 = kak_decompose(np.stack(payloads))
    (pre_hi, pre_lo), (m1_hi, m1_lo), (m2_hi, m2_lo) = canonical_layers(*xyz.T)
    layers = np.broadcast_arrays(pre_hi @ b1, pre_lo @ b0, m1_hi, m1_lo, m2_hi, m2_lo, a1, a0)
    counts, angles = zsx_angles(np.stack(layers, axis=1).reshape(-1, 2, 2))
    return counts.reshape(-1, 8), angles.reshape(-1, 8, 3)


def decompose_all(circuits: Iterable[Circuit]) -> Iterator[Circuit]:
    """`decompose` of each circuit, yielded in order. Consecutive circuits are
    gathered while their SU4 payloads fit in `KAK_BATCH` (a larger circuit
    forms a batch alone); a batch's payloads are factored in stacked passes
    of at most `KAK_BATCH`, and its circuits are then lowered one at a time."""
    batch, size = [], 0
    for c in circuits:
        su4 = [g.matrix for g in c.gates if g.kind is _SU4]
        if batch and size + len(su4) > KAK_BATCH:
            yield from _lower_batch(batch)
            batch, size = [], 0
        batch.append((c, su4))
        size += len(su4)
    yield from _lower_batch(batch)


def _lower_batch(batch: list[tuple[Circuit, list[np.ndarray]]]) -> Iterator[Circuit]:
    payloads = [m for _, su4 in batch for m in su4]
    passes = [_su4_dressings(payloads[i : i + KAK_BATCH])
              for i in range(0, len(payloads), KAK_BATCH)]
    counts, angles = map(np.concatenate, zip(*passes)) if passes else (None, None)
    start = 0
    for c, su4 in batch:
        end = start + len(su4)
        # dressing rows become Python values only for the circuit being lowered
        rows = zip(map(tuple, counts[start:end].tolist()), angles[start:end].tolist()) if su4 else None
        yield _lower(c, rows)
        start = end


def decompose(c: Circuit) -> Circuit:
    """Rewrite every gate into basis gates; width and metadata preserved."""
    return next(decompose_all((c,)))


def _lower(c: Circuit, dressings) -> Circuit:
    """`c` in basis gates, taking each SU4 gate's dressing rows, (counts,
    angles) in gate order, from the iterator `dressings`: the qubit stream
    now, the gates on first access."""
    stream: list[tuple[int, ...]] = []
    rows = []  # per gate that is not passed through, in order: its (counts, angles)
    for g in c.gates:
        k = g.kind
        if k in _PASS_THROUGH:
            stream.append(g.qubits)
            continue
        if k is _SU4:
            counts, angles = next(dressings)
        elif k is _U3:
            counts, angles = zsx_angles(gate_matrix(g)[None])
            counts, angles = tuple(counts.tolist()), angles.tolist()
        else:
            counts = angles = ()
        rows.append((counts, angles))
        stream += rule_stream(k, g.qubits, counts)
    return Circuit._lazy(c.width, stream, partial(_lower_gates, c.gates, rows), c.base_layers)


def _lower_gates(gates: tuple[Gate, ...], rows) -> tuple[Gate, ...]:
    """The gates of `_lower`'s circuit, from the input gates and the rows it kept."""
    shared = SharedGates()
    out: list[Gate] = []
    rows = iter(rows)
    for g in gates:
        k = g.kind
        if k in _PASS_THROUGH:
            out.append(g)
        else:
            emit_rule(out, shared, k, g.qubits, g.params, zip(*next(rows)))
    return tuple(out)
