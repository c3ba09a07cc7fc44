import ast
import copy
import operator
import pickle
import re
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

import qjobtime
from conftest import random_circuit, up_to_phase
from qjobtime.circuit import (
    Circuit,
    Gate,
    GateKind,
    check_su4_payloads,
    read_circuits,
    write_circuits,
)
from qjobtime.errors import InvalidCircuitError, InvalidGateError, WidthMismatchError
from qjobtime.generators import haar_su4, haar_su4_stack
from qjobtime.sim import circuit_unitary


def longest_dag_path(c: Circuit) -> int:
    """Independent depth oracle: longest path in the gate dependency DAG."""
    last_on = {}
    longest = [0] * len(c.gates)
    best = 0
    for i, g in enumerate(c.gates):
        preds = [last_on[q] for q in g.qubits if q in last_on]
        longest[i] = 1 + max((longest[p] for p in preds), default=0)
        for q in g.qubits:
            last_on[q] = i
        best = max(best, longest[i])
    return best


class TestDepth:
    def test_empty_circuit(self):
        assert Circuit(3).depth() == 0

    def test_single_gate(self):
        assert Circuit(1, (Gate.h(0),)).depth() == 1

    def test_chained_gates(self):
        c = Circuit(2, (Gate.h(0), Gate.cx(0, 1), Gate.rz(1, 0.1)))
        assert c.depth() == 3
        assert longest_dag_path(c) == 3

    def test_parallel_gates_share_layer(self):
        c = Circuit(3, (Gate.h(0), Gate.h(1), Gate.h(2)))
        assert c.depth() == 1

    def test_matches_dag_oracle_on_random_circuits(self, rng):
        for _ in range(25):
            c = random_circuit(4, int(rng.integers(1, 40)), rng)
            assert c.depth() == longest_dag_path(c)

    def test_compose_depth_bounds(self, rng):
        for _ in range(20):
            a = random_circuit(3, int(rng.integers(1, 15)), rng)
            b = random_circuit(3, int(rng.integers(1, 15)), rng)
            d = a.compose(b).depth()
            assert d <= a.depth() + b.depth()
            assert d >= max(a.depth(), b.depth())


class TestCompose:
    def test_identity_of_composition(self):
        c = Circuit(2, (Gate.h(0), Gate.cx(0, 1)))
        for composed in (c.compose(Circuit(2)), Circuit(2).compose(c)):
            assert (composed.width, composed.gates) == (c.width, c.gates)

    def test_width_mismatch_rejected(self):
        with pytest.raises(WidthMismatchError):
            Circuit(2).compose(Circuit(3))

    def test_gate_count_is_sum(self, rng):
        a = random_circuit(3, 7, rng)
        b = random_circuit(3, 5, rng)
        assert len(a.compose(b)) == 12

    def test_h_h_is_identity(self):
        c = Circuit(1, (Gate.h(0),)).compose(Circuit(1, (Gate.h(0),)))
        assert np.abs(circuit_unitary(c) - np.eye(2)).max() < 1e-12

    def test_base_layers_metadata_adds(self):
        a = Circuit(2, (Gate.h(0),), base_layers=2)
        b = Circuit(2, (Gate.h(1),), base_layers=3)
        assert a.compose(b).base_layers == 5
        assert a.compose(Circuit(2)).base_layers == 2
        assert Circuit(2).compose(Circuit(2)).base_layers is None


class TestInverse:
    def test_rz_negates(self):
        c = Circuit(1, (Gate.rz(0, 0.5),))
        assert c.inverse().gates == (Gate.rz(0, -0.5),)

    def test_reversal_with_self_inverse_gates(self):
        c = Circuit(2, (Gate.h(0), Gate.cx(0, 1)))
        assert c.inverse().gates == (Gate.cx(0, 1), Gate.h(0))

    def test_random_circuit_times_inverse_is_identity(self, rng):
        for _ in range(10):
            c = random_circuit(3, 20, rng)
            u = circuit_unitary(c.compose(c.inverse()))
            assert np.abs(u - np.eye(8)).max() < 1e-10

    def test_involution_on_structure(self, rng):
        for _ in range(10):
            c = random_circuit(3, 25, rng)
            twice = c.inverse().inverse()
            assert (twice.width, twice.gates) == (c.width, c.gates)

    def test_width_preserved(self, rng):
        c = random_circuit(4, 10, rng)
        assert c.inverse().width == 4
        assert c.compose(c).width == 4


class TestValidation:
    def test_gate_exceeding_width_rejected(self):
        with pytest.raises(InvalidCircuitError):
            Circuit(1, (Gate.cx(0, 1),))

    def test_repeated_qubit_rejected(self):
        with pytest.raises(InvalidGateError):
            Gate(GateKind.CX, (0, 0))

    def test_param_arity_enforced(self):
        """Every kind refuses one qubit or one parameter too few or too many,
        with the count it takes in the message."""
        takes = {"H": (1, 0), "X": (1, 0), "SX": (1, 0), "RZ": (1, 1), "RZZ": (2, 1),
                 "CX": (2, 0), "SWAP": (2, 0), "U3": (1, 4), "SU4": (2, 0)}
        assert {kind.value: (kind.arity, kind.param_count) for kind in GateKind} == takes
        for kind in GateKind:
            arity, count = takes[kind.value]
            for qubits in (tuple(range(arity - 1)), tuple(range(arity + 1))):
                with pytest.raises(InvalidGateError, match=re.escape(
                        f"{kind.value} acts on {arity} qubit(s), got {qubits}")):
                    Gate(kind, qubits)
            for wrong in {count - 1, count + 1} - {-1}:
                with pytest.raises(InvalidGateError, match=re.escape(
                        f"{kind.value} takes {count} parameter(s), got {wrong}")):
                    Gate(kind, tuple(range(arity)), (0.1,) * wrong)

    def test_gate_is_frozen_and_slotted(self):
        """Checked and trusted gates alike refuse field assignment and carry
        no `__dict__`."""
        for g in (Gate.rz(0, 0.5), Gate._trusted(GateKind.RZ, (0,), (0.5,))):
            with pytest.raises(FrozenInstanceError):
                g.params = (1.0,)
            assert not hasattr(g, "__dict__")

    def test_gate_contract(self, rng):
        """Gates compare by value (payloads by `array_equal`), are neither
        hashable nor ordered, keep their repr, and every way to build one
        from field values but `_trusted` runs the constructor's checks."""
        u = haar_su4(rng)
        su4 = Gate.su4(0, 1, u)
        assert su4 == Gate.su4(0, 1, u.copy()) and not su4 != Gate.su4(0, 1, u.copy())
        assert su4 != Gate.su4(0, 1, u.conj().T) and not su4 == Gate.su4(0, 1, u.conj().T)
        assert su4 != Gate.su4(1, 0, u)
        rz = Gate.rz(0, 0.5)
        assert rz == Gate._trusted(GateKind.RZ, (0,), (0.5,)) and not rz != Gate.rz(0, 0.5)
        assert rz != Gate.rz(0, -0.5) and rz != Gate.rzz(0, 1, 0.5) and rz != Gate.h(0)
        assert Gate.h(0) != (GateKind.H, (0,), (), None)  # a tuple of its fields is no gate
        assert repr(rz) == "Gate(RZ 0 0.5)" and repr(su4) == "Gate(SU4 0,1 <4x4>)"
        assert repr(Gate.u3(1, 0.1, 0.2, 0.3)) == "Gate(U3 1 0.1,0.2,0.3,0.0)"
        for g in (rz, su4, Gate.cx(1, 0)):
            with pytest.raises(TypeError):
                hash(g)
            for order in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    order(g, g)
            with pytest.raises(FrozenInstanceError):
                del g.kind
            clones = [pickle.loads(pickle.dumps(g, protocol)) for protocol in range(6)]
            for clone in clones + [copy.copy(g), copy.deepcopy(g)]:
                assert type(clone) is Gate and clone == g and repr(clone) == repr(g)
        assert not copy.deepcopy(su4).matrix.flags.writeable
        assert Gate._make((GateKind.RZ, (0,), (0.5,), None)) == rz
        assert rz._replace(params=(1.0,)) == Gate.rz(0, 1.0)
        # a gate built unchecked with a repeated qubit does not survive a round trip
        bad = Gate._trusted(GateKind.CX, (0, 0))
        for build in (lambda: pickle.loads(pickle.dumps(bad)),
                      lambda: pickle.loads(pickle.dumps(bad, 0)), lambda: copy.copy(bad),
                      lambda: copy.deepcopy(bad), lambda: Gate._make(bad),
                      lambda: Gate._make((GateKind.CX, (1, 1), (), None)),
                      lambda: Gate.cx(0, 1)._replace(qubits=(1, 1)),
                      lambda: rz._replace(params=(float("nan"),)),
                      lambda: su4._replace(matrix=np.ones((4, 4), dtype=complex))):
            with pytest.raises(InvalidGateError):
                build()

    def test_su4_payload_must_be_unitary(self):
        with pytest.raises(InvalidGateError):
            Gate(GateKind.SU4, (0, 1), (), np.ones((4, 4), dtype=complex))
        with pytest.raises(InvalidGateError):
            Gate.su4(0, 1, np.full((4, 4), np.nan))
        with pytest.raises(InvalidGateError):  # off by more than UNITARY_TOL = 1e-7
            Gate.su4(0, 1, np.diag([1, 1, 1, 1 + 5e-7]))


class TestGateKind:
    def test_members_hash_by_identity(self):
        """Members are singletons, so they hash by identity; lookups by value,
        dict keys and pickling still give the one member."""
        assert GateKind.__hash__ is object.__hash__
        table = {kind: kind.value for kind in GateKind}
        assert all(table[GateKind(value)] == value for value in table.values())
        assert GateKind("RZ") is GateKind.RZ
        assert {GateKind.RZ, GateKind.RZ, GateKind.SX} == {GateKind.SX, GateKind.RZ}
        for kind in GateKind:
            assert pickle.loads(pickle.dumps(kind)) is kind


def gatekind_reads_in_loops(source: str) -> list[int]:
    """Lines of the `GateKind.<member>` reads inside a `for` or `while` body
    or a comprehension of `source`."""
    found = []

    def visit(node, in_loop):
        if (in_loop and isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "GateKind" and node.attr in GateKind.__members__):
            found.append(node.lineno)
        looping = isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
        for name, value in ast.iter_fields(node):
            body = name == "body" and isinstance(node, (ast.For, ast.AsyncFor, ast.While))
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, in_loop or looping or body)

    visit(ast.parse(source), False)
    return found


class TestGateKindReads:
    def test_the_detector_finds_reads_in_loops_only(self):
        source = (
            "A = GateKind.H\n"
            "for g in gates:\n"
            "    k = GateKind.RZ\n"
            "else:\n"
            "    k = GateKind.SX\n"
            "while g:\n"
            "    f(GateKind.CX.value)\n"
            "xs = [g for g in gates if g.kind is GateKind.SU4]\n"
            "ys = {k: GateKind.X for k in ks}\n"
            "GateKind.__members__\n"
            "for g in gates:\n"
            "    GateKind.values\n"
        )
        assert gatekind_reads_in_loops(source) == [3, 7, 8, 9]

    def test_no_module_reads_an_enum_member_per_gate(self):
        """The lowering, the router, the generators and the text format bind
        each `GateKind` member once at module level: reading a member costs a
        class attribute lookup, several times that of a global name."""
        src = Path(qjobtime.__file__).parent
        found = {
            str(path.relative_to(src)): lines
            for path in sorted(src.rglob("*.py"))
            if (lines := gatekind_reads_in_loops(path.read_text()))
        }
        assert found == {}


class TestSu4PayloadCheck:
    def test_haar_stack_passes(self, rng):
        check_su4_payloads(haar_su4_stack(rng, 16))

    @pytest.mark.parametrize("row", [0, 7, 15])
    def test_one_row_off_by_2e_7_is_refused(self, rng, row):
        stack = haar_su4_stack(rng, 16)
        stack[row] *= 1 + 2e-7  # M M^dagger = (1 + 2e-7)^2 I: off by 4e-7
        with pytest.raises(InvalidGateError, match="not unitary"):
            check_su4_payloads(stack)

    @pytest.mark.parametrize("row", [0, 15])
    def test_one_nan_row_is_refused(self, rng, row):
        stack = haar_su4_stack(rng, 16)
        stack[row] = np.nan
        with pytest.raises(InvalidGateError, match="not unitary"):
            check_su4_payloads(stack)


class TestTextFormat:
    def test_round_trip_all_kinds(self, rng):
        gates = (
            Gate.h(0), Gate.x(1), Gate.sx(2), Gate.rz(0, -1.25),
            Gate.rzz(0, 2, 2.5), Gate.cx(1, 0), Gate.swap(1, 2),
            Gate.u3(1, 0.1, -0.2, 0.3, 0.4), Gate.su4(0, 2, haar_su4(rng)),
        )
        c = Circuit(3, gates, base_layers=4)
        assert Circuit.from_text(c.to_text()) == c

    def test_multi_circuit_file(self, tmp_path, rng):
        circuits = [random_circuit(3, 8, rng) for _ in range(3)]
        path = tmp_path / "batch.txt"
        write_circuits(path, circuits)
        assert read_circuits(path) == circuits

    def test_semantics_preserved(self, rng):
        c = random_circuit(3, 15, rng)
        c2 = Circuit.from_text(c.to_text())
        assert up_to_phase(circuit_unitary(c), circuit_unitary(c2)) < 1e-12

    @pytest.mark.parametrize(
        "text, line",
        [
            pytest.param("width=2\nFOO 0\n", "FOO 0", id="unknown-kind"),
            pytest.param("width=2\nPERMUTATION 1,0\n", "PERMUTATION 1,0", id="permutation"),
            pytest.param("width=2\nH\n", "H", id="no-qubit-field"),
            pytest.param("width=2\nCX 0,x\n", "CX 0,x", id="bad-qubit"),
            pytest.param("width=1\nRZ 0 1.5e\n", "RZ 0 1.5e", id="bad-param"),
            pytest.param("width=1\nRZ 0 nan\nH 0\n", "RZ 0 nan", id="nan-param"),
            pytest.param("width=2\nSU4 0,1 1,0\n", "SU4 0,1 1,0", id="short-su4"),
            pytest.param("width=x\nH 0\n", "width=x", id="bad-width"),
            pytest.param("width=1\nlayers=two\nH 0\n", "layers=two", id="bad-layers"),
        ],
    )
    def test_parse_error_is_coded_and_names_the_line(self, text, line):
        with pytest.raises(InvalidCircuitError) as info:
            Circuit.from_text(text)
        assert repr(line) in str(info.value)

    def test_missing_header_rejected(self):
        with pytest.raises(InvalidCircuitError):
            Circuit.from_text("H 0\n")
