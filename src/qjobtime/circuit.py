"""Gate-level circuit IR with composition, inversion, ASAP depth, and the
unitary of each gate.

Circuits are immutable after construction and all operations are pure, so
values can be shared freely across threads.

Text format: a `width=<n>` header (plus an optional `layers=<d>` metadata
header), then one gate per line as `KIND q0[,q1,...] [param,...]`. Multiple
circuits in one file are separated by blank lines.
"""

import math
from collections import namedtuple
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidCircuitError, InvalidGateError, InvalidParameterError, WidthMismatchError
from .model import FrozenRecord


class GateKind(Enum):
    """A gate kind: its name (the member's value), the qubits it acts on
    (`arity`), its parameter count (`param_count`) and the most basis gates
    its lowering rule emits (`basis_gates`).

    U3 carries (theta, phi, lam, phase): a full U(2) element with explicit
    global phase, so that inversion is exact rather than up-to-phase. It
    lowers to at most RZ SX RZ SX RZ; SU4 to three CX and eight such 1q
    dressings (all five gates long for a Haar draw).
    """

    H = "H", 1, 0, 3
    X = "X", 1, 0, 1
    SX = "SX", 1, 0, 1
    RZ = "RZ", 1, 1, 1
    RZZ = "RZZ", 2, 1, 3
    CX = "CX", 2, 0, 1
    SWAP = "SWAP", 2, 0, 3
    U3 = "U3", 1, 4, 5
    SU4 = "SU4", 2, 0, 43

    def __new__(cls, name: str, arity: int, param_count: int, basis_gates: int):
        member = object.__new__(cls)
        member._value_ = name
        member.arity, member.param_count, member.basis_gates = arity, param_count, basis_gates
        return member

    # members are singletons: hash by identity, not by a Python-level call on
    # the name, since the lowering hashes a kind on every input gate (the
    # `_RULES` table, the `_PASS_THROUGH` set and `rule_profile`'s cache)
    __hash__ = object.__hash__


# Size bounds of the d_eff path, in basis gates: the entries that lowering
# emits and that routing and depth walk. MAX_GATES bounds one circuit, before
# its draw and as it is routed; lowering and routing peak at 30 to 45 B per
# routed gate, about 90 MB at the bound (tracemalloc: a QV circuit on
# all-to-all:40, whose one KAK pass over 46 500 SU4 gates is the peak).
# MAX_SAMPLE_GATES bounds the work of one `deff` side or `gen-circuits`
# file, samples x gates per circuit before any draw and the routed total: it
# admits 10 000 QV samples at v = 8 (13.8 million) and n = 60, d = 2, full on
# heavy-hex-like:127 (7.3 million routed). A `deff` side routes one sample at
# a time and holds none of them, whatever its count.
MAX_GATES = 2_000_000
MAX_SAMPLE_GATES = 20_000_000


def check_gates(what: str, gates: int, bound: int, error=InvalidParameterError) -> int:
    """Refuse `what`, of `gates` basis gates, above `bound` with `error`; return `gates`."""
    if gates > bound:
        raise error(f"{what} would hold {gates} basis gates, more than {bound}")
    return gates


# the one kind the constructor, the text reader and the writer test, bound once
_SU4 = GateKind.SU4

# largest entry of |M M^dagger - I| an SU4 payload may have; KAK decomposition
# uses the same bound on the imaginary part of its real orthogonal factor
UNITARY_TOL = 1e-7

# SX = exp(i pi/4) Rx(pi/2) written as a U3; its inverse is a U3, and
# inverting that folds back to SX so that double inversion is structure-preserving.
_SX_AS_U3 = (np.pi / 2, -np.pi / 2, np.pi / 2, np.pi / 4)


def check_su4_payloads(m: np.ndarray) -> None:
    """Refuse a stack (k, 4, 4) of SU4 payloads unless each row's largest
    entry of |M M^dagger - I| is within `UNITARY_TOL`; a NaN row fails too."""
    err = np.abs(m @ m.conj().swapaxes(1, 2) - np.eye(4)).max(axis=(1, 2))
    if not (err <= UNITARY_TOL).all():
        raise InvalidGateError("SU4 matrix payload is not unitary")


class ArrayRecord(FrozenRecord):
    """A record with array fields: it equals a record of its own class whose
    fields are equal, each array by `array_equal`, and does not hash."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return FrozenRecord.__eq__(self, other)  # a plain tuple of its fields is not equal
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                   else a == b for a, b in zip(self, other))

    __hash__ = None  # an array does not hash


_GateFields = namedtuple("_GateFields", ("kind", "qubits", "params", "matrix"))
_new_tuple = tuple.__new__


class Gate(ArrayRecord, _GateFields):
    """One gate application: a kind, the qubits it acts on, real parameters.

    Generic two-qubit gates (SU4) carry their 4x4 unitary as a matrix payload
    instead of angle parameters; decomposition into a fixed basis is the
    transpiler's job, not the IR's. An immutable 4-field tuple: a gate has no
    `__dict__` and is built in one allocation, since a transpiled circuit
    holds tens of thousands of them. It compares by value (its payload by
    `array_equal`), but is neither hashable nor ordered, and its fields
    cannot be assigned; `_make`, `_replace`, pickling and copying run the
    checks of `__new__`.
    """

    __slots__ = ()

    def __new__(cls, kind: GateKind, qubits: tuple[int, ...], params: tuple[float, ...] = (),
                matrix: np.ndarray | None = None):
        qubits = tuple(int(q) for q in qubits)
        params = tuple(float(p) for p in params)
        if len(set(qubits)) != len(qubits):
            raise InvalidGateError(f"{kind.value}: repeated qubit in {qubits}")
        if any(q < 0 for q in qubits):
            raise InvalidGateError(f"{kind.value}: negative qubit index")
        if len(qubits) != kind.arity:
            raise InvalidGateError(f"{kind.value} acts on {kind.arity} qubit(s), got {qubits}")
        if len(params) != kind.param_count:
            raise InvalidGateError(f"{kind.value} takes {kind.param_count} parameter(s), got {len(params)}")
        if not all(map(math.isfinite, params)):
            raise InvalidGateError(f"{kind.value}: non-finite parameter in {params}")
        if kind is _SU4:
            if matrix is None or matrix.shape != (4, 4):
                raise InvalidGateError("SU4 requires a 4x4 unitary matrix payload")
            check_su4_payloads(matrix[None])
            matrix = np.array(matrix, dtype=complex)
            matrix.setflags(write=False)
        elif matrix is not None:
            raise InvalidGateError(f"{kind.value} does not take a matrix payload")
        return _new_tuple(cls, (kind, qubits, params, matrix))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, kind: GateKind, qubits: tuple[int, ...], params: tuple[float, ...] = (),
                 matrix: np.ndarray | None = None) -> "Gate":
        """Build without the checks of `__new__`, for gates whose inputs were
        already checked: one tuple allocation.

        The caller guarantees what the checks would: `qubits` a tuple of
        distinct nonnegative ints of the kind's arity, `params` a tuple of
        finite floats of the kind's count, and `matrix` a read-only checked
        payload (SU4) or None. The transpiler derives each gate from an
        already-checked one; the generators build theirs from inputs checked
        as a batch (`phase_angles` for rotation angles, `check_su4_payloads`
        on a circuit's whole payload stack).
        """
        return _new_tuple(cls, (kind, qubits, params, matrix))

    @classmethod
    def h(cls, q: int) -> "Gate":
        return cls(GateKind.H, (q,))

    @classmethod
    def x(cls, q: int) -> "Gate":
        return cls(GateKind.X, (q,))

    @classmethod
    def sx(cls, q: int) -> "Gate":
        return cls(GateKind.SX, (q,))

    @classmethod
    def rz(cls, q: int, theta: float) -> "Gate":
        return cls(GateKind.RZ, (q,), (theta,))

    @classmethod
    def rzz(cls, a: int, b: int, theta: float) -> "Gate":
        return cls(GateKind.RZZ, (a, b), (theta,))

    @classmethod
    def cx(cls, control: int, target: int) -> "Gate":
        return cls(GateKind.CX, (control, target))

    @classmethod
    def swap(cls, a: int, b: int) -> "Gate":
        return cls(GateKind.SWAP, (a, b))

    @classmethod
    def u3(cls, q: int, theta: float, phi: float, lam: float, phase: float = 0.0) -> "Gate":
        return cls(GateKind.U3, (q,), (theta, phi, lam, phase))

    @classmethod
    def su4(cls, a: int, b: int, matrix: np.ndarray) -> "Gate":
        return cls(GateKind.SU4, (a, b), (), np.asarray(matrix, dtype=complex))

    # -- behaviour ---------------------------------------------------------

    def inverse(self) -> "Gate":
        """Exact inverse as a single gate of a supported kind."""
        k = self.kind
        if k in (GateKind.H, GateKind.X, GateKind.CX, GateKind.SWAP):
            return self
        if k in (GateKind.RZ, GateKind.RZZ):
            return Gate(k, self.qubits, (-self.params[0],))
        if k is _SU4:
            return Gate(k, self.qubits, (), self.matrix.conj().T)
        # a U3, or SX as the U3 `_SX_AS_U3`: its dagger is exactly a U3
        theta, phi, lam, phase = _SX_AS_U3 if k is GateKind.SX else self.params
        inv = (-theta, -lam, -phi, -phase)
        if inv == _SX_AS_U3:
            return Gate(GateKind.SX, self.qubits)
        return Gate(GateKind.U3, self.qubits, inv)

    def __repr__(self) -> str:
        parts = [self.kind.value, ",".join(map(str, self.qubits))]
        if self.params:
            parts.append(",".join(repr(p) for p in self.params))
        if self.matrix is not None:
            parts.append("<4x4>")
        return f"Gate({' '.join(parts)})"


_SQ2 = 1.0 / np.sqrt(2.0)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary of a single gate (2x2 or 4x4; first listed qubit = high bit)."""
    k = gate.kind
    if k is GateKind.H:
        return _H
    if k is GateKind.X:
        return _X
    if k is GateKind.SX:
        return _SX
    if k is GateKind.RZ:
        t = gate.params[0]
        return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]])
    if k is GateKind.U3:
        theta, phi, lam, phase = gate.params
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        return np.exp(1j * phase) * np.array(
            [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
        )
    if k is GateKind.CX:
        return _CX
    if k is GateKind.SWAP:
        return _SWAP
    if k is GateKind.RZZ:
        t = gate.params[0]
        e = np.exp(-0.5j * t)
        return np.diag([e, e.conjugate(), e.conjugate(), e])
    return gate.matrix  # SU4


class Circuit:
    """An ordered gate list on `width` qubits.

    `base_layers` optionally records how many repetitions of a base template
    the circuit was built from; it is metadata and does not affect semantics.

    A circuit made by the transpiler builds its gates only when they are
    read, and a routed one is made with its length and depth; any other
    circuit's depth and length are read from its gates. Its fields cannot be assigned.
    """

    # a transpiler output's length, depth and (qubits, rule profile) entries, when made with them
    _length = _depth = _entries = None

    def __init__(self, width: int, gates: Iterable[Gate] = (), base_layers: int | None = None):
        gates = tuple(gates)
        vars(self).update(width=width, gates=gates, base_layers=base_layers)
        if width < 0:
            raise InvalidCircuitError("width must be nonnegative")
        for g in gates:
            if any(q >= width for q in g.qubits):
                raise InvalidCircuitError(f"gate {g!r} exceeds circuit width {width}")

    @classmethod
    def _trusted(cls, width: int, gates, base_layers: int | None, length: int | None = None,
                 depth: int | None = None, entries: list | None = None) -> "Circuit":
        """Build without the checks of `__init__`, for the transpiler's and the
        generators' own output only. `gates` is the tuple of gates, or a
        function that builds it on first read; `length` and `depth` are given
        when known, and a lowered circuit keeps its (qubits, rule profile)
        `entries`, which the router walks. The caller guarantees that the
        gates fit `width` and that every attribute agrees with them."""
        c = object.__new__(cls)
        fields = vars(c)
        fields.update(width=width, base_layers=base_layers, _length=length, _depth=depth,
                      _entries=entries)
        fields["_build_gates" if callable(gates) else "gates"] = gates
        return c

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        # a transpiler output's, built on first read by the function it was made with
        fields = vars(self)
        fields.setdefault("gates", fields["_build_gates"]())
        fields.pop("_build_gates", None)
        return fields["gates"]

    __setattr__, __delattr__ = FrozenRecord.__setattr__, FrozenRecord.__delattr__

    def __repr__(self) -> str:
        return f"Circuit(width={self.width!r}, gates={self.gates!r}, base_layers={self.base_layers!r})"

    def __len__(self) -> int:
        return len(self.gates) if self._length is None else self._length

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.width == other.width
            and self.base_layers == other.base_layers
            and self.gates == other.gates
        )

    def depth(self) -> int:
        """Longest chain of gates sharing qubits (unit-cost ASAP layering);
        a routed circuit's was found while routing."""
        if self._depth is not None:
            return self._depth
        ready = [0] * self.width
        top = 0
        for g in self.gates:
            qubits = g.qubits
            if len(qubits) == 1:
                q = qubits[0]
                layer = ready[q] = ready[q] + 1
            else:
                a, b = qubits
                layer = ready[a] if ready[a] > ready[b] else ready[b]
                layer = ready[a] = ready[b] = layer + 1
            if layer > top:
                top = layer
        return top

    def compose(self, other: "Circuit") -> "Circuit":
        """This circuit followed by `other`; widths must match."""
        if self.width != other.width:
            raise WidthMismatchError(
                f"cannot compose width {self.width} with width {other.width}"
            )
        if self.base_layers is None and other.base_layers is None:
            layers = None
        else:
            layers = (self.base_layers or 0) + (other.base_layers or 0)
        return Circuit(self.width, self.gates + other.gates, layers)

    def inverse(self) -> "Circuit":
        """Reversed gate order with every gate replaced by its exact inverse."""
        return Circuit(self.width, tuple(g.inverse() for g in reversed(self.gates)), self.base_layers)

    # -- text serialization --------------------------------------------------

    def to_text(self) -> str:
        lines = [f"width={self.width}"]
        if self.base_layers is not None:
            lines.append(f"layers={self.base_layers}")
        for g in self.gates:
            entry = f"{g.kind.value} {','.join(map(str, g.qubits))}"
            params: tuple[float, ...] = g.params
            if g.kind is _SU4:
                flat = g.matrix.reshape(-1)
                params = tuple(float(v) for c in flat for v in (c.real, c.imag))
            if params:
                entry += " " + ",".join(repr(p) for p in params)
            lines.append(entry)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("width="):
            raise InvalidCircuitError("circuit text must start with a width=<n> header")
        ln = lines[0]
        try:
            width = int(ln.split("=", 1)[1])
            base_layers = None
            body = lines[1:]
            if body and body[0].startswith("layers="):
                ln = body[0]
                base_layers = int(ln.split("=", 1)[1])
                body = body[1:]
            gates = []
            for ln in body:
                fields = ln.split()
                kind = GateKind(fields[0])
                qubits = tuple(int(q) for q in fields[1].split(","))
                raw = tuple(float(p) for p in fields[2].split(",")) if len(fields) > 2 else ()
                if kind is _SU4:
                    if len(raw) != 32:
                        raise ValueError("SU4 needs 32 re,im values")
                    vals = np.array(raw).reshape(16, 2)
                    mat = (vals[:, 0] + 1j * vals[:, 1]).reshape(4, 4)
                    gates.append(Gate(kind, qubits, (), mat))
                else:
                    gates.append(Gate(kind, qubits, raw))
        except (ValueError, IndexError, InvalidGateError) as exc:
            raise InvalidCircuitError(f"bad circuit line {ln!r}: {exc}") from exc
        return cls(width, tuple(gates), base_layers)


def write_circuits(path, circuits: Iterable[Circuit]) -> None:
    """Write each circuit as it is drawn from `circuits`, blank-line
    separated. The file is opened once the first circuit is drawn, so an
    error while building that one leaves no file behind."""
    circuits = iter(circuits)
    first = next(circuits, None)
    with open(path, "w", newline="\n") as fh:
        if first is not None:
            fh.write(first.to_text())
        for c in circuits:
            fh.write("\n" + c.to_text())


def read_circuits(path) -> list[Circuit]:
    with open(path) as fh:
        text = fh.read()
    blocks = [b for b in text.split("\n\n") if b.strip()]
    return [Circuit.from_text(b) for b in blocks]
