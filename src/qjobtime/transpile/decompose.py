"""Lowering to the hardware basis: 1q {RZ, SX, X}, 2q {CX}.

Output is unitarily equivalent to the input up to global phase. Fixed rules:

    H         -> RZ(pi/2), SX, RZ(pi/2)
    RZZ(t)    -> CX, RZ(t) on the target, CX            (exact)
    SWAP      -> CX, CX, CX                             (exact)
    U3        -> ZYZ Euler angles as an RZ/SX string
    SU4       -> three CX with 1q dressings (see kak); a circuit's SU4
                 payloads go through KAK's interaction pass as one stack,
                 which gives each dressing's gate count

Each rule states its gate sequence once, in `_RULES`; a basis gate's rule is
the gate itself. Routing and depth read a rule through its `rule_profile`:
its length, and for a two-qubit rule the 1q gates each qubit gets before the
first CX and each qubit's depth after it. A lowered circuit keeps one
(qubits, profile) entry per input gate, which the router walks. Its gates
are built on first access of `gates`, which its depth and length read; only
then are the SU4 gates' local factors and dressing angles computed, from the
interaction-pass rows the circuit keeps. The router places its swaps by the
SWAP rule's profile and emits them by the rule.

Every emitted gate acts on the qubits of an already-checked input gate, so it
is built with one `Gate._trusted` call (angles passed as Python floats),
skipping the construction checks.
"""

from collections import namedtuple
from functools import lru_cache, partial
from typing import Iterable, Iterator

import numpy as np

from ..circuit import Circuit, Gate, GateKind, gate_matrix


def __getattr__(name: str):
    # `kak_decompose`, unused here but read at this path, where bench/tracing.py wraps it:
    # `kak` loads on the first SU4 or U3 lowering or on this read, and on no other name
    if name != "kak_decompose":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .kak import kak_decompose
    return kak_decompose


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
    **{k: ((k, (0,), _OWN),) for k in BASIS_1Q},
    _CX: (_CX01,),
    _H: ((_RZ, (0,), _HALF_PI), (_SX, (0,), ()), (_RZ, (0,), _HALF_PI)),
    _RZZ: (_CX01, (_RZ, (1,), _OWN), _CX01),
    _SWAP: (_CX01, (_CX, (1, 0), ()), _CX01),
    _U3: ((_ROW, (0,), ()),),
    _SU4: _ROWS01 + (_CX01,) + _ROWS01 + (_CX01,) + _ROWS01 + (_CX01,) + _ROWS01,
}
_ROW_GATES = {0: (), 1: (0,), 3: (0, None, 1, None, 2)}  # RZ(a1) SX RZ(a2) SX RZ(a3)


# What routing and depth read of a rule with given row counts: its length in
# basis gates and, for a two-qubit rule (else None), `lead`, the 1q gates on
# each qubit before the first CX, and `after`, each qubit's depth once the
# rule ends, above the deeper of the two right before that CX.
RuleProfile = namedtuple("RuleProfile", "length lead after")


@lru_cache(maxsize=4096)
def rule_profile(kind: GateKind, counts: tuple[int, ...]) -> RuleProfile:
    """The `RuleProfile` of `kind` lowered with `counts`, read from the
    qubits of its gates on qubits (0, 1), which are each step's `positions`:
    after the first CX, both qubits share one frontier, so the rest of the
    rule only adds fixed offsets to it."""
    rows, steps = iter(counts), []
    for step, positions, _ in _RULES[kind]:
        steps += (positions,) * (len(_ROW_GATES[next(rows)]) if step is _ROW else 1)
    first = next((i for i, q in enumerate(steps) if len(q) == 2), None)
    if first is None:
        return RuleProfile(len(steps), None, None)
    lead, after = (steps[:first].count((0,)), steps[:first].count((1,))), [1, 1]
    for q in steps[first + 1:]:
        if len(q) == 1:
            after[q[0]] += 1
        else:
            after = [max(after) + 1] * 2
    return RuleProfile(len(steps), lead, tuple(after))


# the profile of each rule that takes no `zsx_angles` rows
_FIXED = {k: rule_profile(k, ()) for k in _RULES if k not in (_U3, _SU4)}


def emit_rule(out: list[Gate], kind: GateKind, qubits: tuple[int, ...],
              params: tuple[float, ...] = (), rows=()) -> None:
    """Append the gates that `kind` on `qubits` with `params` lowers to,
    taking its `zsx_angles` rows, each (count, [a1, a2, a3]), from `rows`."""
    rows = iter(rows)
    trusted = Gate._trusted
    for step, positions, angles in _RULES[kind]:
        q = tuple(qubits[i] for i in positions)
        if step is _ROW:
            count, a = next(rows)
            out += (trusted(_SX, q) if i is None else trusted(_RZ, q, (a[i],))
                    for i in _ROW_GATES[count])
        else:
            out.append(trusted(step, q, params if angles is _OWN else angles))


def _su4_dressings(k1: np.ndarray, p: np.ndarray, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of an interaction pass, the `zsx_angles` counts (k, 8) and
    angles (k, 8, 3) of its SU4 payload's eight 1q dressings in emission
    order: (hi, lo) before the first CX and after each of the three CX."""
    from .kak import canonical_layers, kak_local_factors, zsx_angles
    a1, a0, b1, b0 = kak_local_factors(k1, p)
    (pre_hi, pre_lo), (m1_hi, m1_lo), (m2_hi, m2_lo) = canonical_layers(*xyz.T)
    layers = np.broadcast_arrays(pre_hi @ b1, pre_lo @ b0, m1_hi, m1_lo, m2_hi, m2_lo, a1, a0)
    counts, angles = zsx_angles(np.stack(layers, axis=1).reshape(-1, 2, 2))
    return counts.reshape(-1, 8), angles.reshape(-1, 8, 3)


def _su4_counts(payloads: list[np.ndarray]):
    """(counts, k1, p, xyz) for SU4 payloads factored in one stacked
    interaction pass: the `_su4_dressings` counts, and the pass's outputs
    that the dressings are later computed from. The counts of a row that
    `all_three_rows` clears are all 3; only the other rows take
    `_su4_dressings` now."""
    from .kak import all_three_rows, kak_interaction
    _, k1, p, xyz, _ = kak_interaction(np.stack(payloads))
    counts = np.full((len(payloads), 8), 3)
    rest = np.flatnonzero(~all_three_rows(k1, p, xyz))
    if rest.size:
        counts[rest] = _su4_dressings(k1[rest], p[rest], xyz[rest])[0]
    return counts, k1, p, xyz


def decompose(c: Circuit) -> Circuit:
    """`c` in basis gates, width and metadata preserved: one (qubits,
    `rule_profile`) entry per gate now, its SU4 payloads through one stacked
    interaction pass for their dressing counts, and the gates on first access,
    with the SU4 dressings computed then from the rows of that pass."""
    su4 = [g.matrix for g in c.gates if g.kind is _SU4]
    interaction = None
    if su4:
        counts, *interaction = _su4_counts(su4)
        su4_counts = map(tuple, counts.tolist())
    entries = []
    rows = []  # per U3, H, RZZ or SWAP gate, in order: its (counts, angles)
    for g in c.gates:
        k = g.kind
        if k is _SU4:
            profile = rule_profile(k, next(su4_counts))
        elif k is _U3:
            from .kak import zsx_angles
            counts, angles = zsx_angles(gate_matrix(g)[None])
            counts = tuple(counts.tolist())
            rows.append((counts, angles.tolist()))
            profile = rule_profile(k, counts)
        else:
            profile = _FIXED[k]
            if k not in _PASS_THROUGH:
                rows.append(((), ()))
        entries.append((g.qubits, profile))
    return Circuit._trusted(c.width, partial(_lower_gates, c.gates, rows, interaction), c.base_layers,
                            entries=entries)


def decompose_all(circuits: Iterable[Circuit]) -> Iterator[Circuit]:
    """`decompose` of each circuit, lowered as it is drawn and yielded in order."""
    return map(decompose, circuits)


def _lower_gates(gates: tuple[Gate, ...], rows, interaction) -> tuple[Gate, ...]:
    """The gates of `decompose`'s circuit, from the input gates, the rows it
    kept and the dressings of its interaction-pass rows."""
    out: list[Gate] = []
    rows = iter(rows)
    if interaction is not None:
        counts, angles = _su4_dressings(*interaction)
        su4_rows = zip(map(tuple, counts.tolist()), angles.tolist())
    for g in gates:
        k = g.kind
        if k in _PASS_THROUGH:
            out.append(g)
        else:
            row = next(su4_rows if k is _SU4 else rows)
            emit_rule(out, k, g.qubits, g.params, zip(*row))
    return tuple(out)
