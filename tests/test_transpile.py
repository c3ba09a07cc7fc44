from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_circuit, up_to_phase
from qjobtime.circuit import UNITARY_TOL, Circuit, Gate, GateKind
from qjobtime.deff import effective_layers, sample_kernel_circuits, sample_qv_circuits
from qjobtime.errors import CouplingError, InvalidGateError
from qjobtime.generators import Entanglement, KernelFamily, haar_su4, qv_circuit
from qjobtime.sim import circuit_unitary, gate_matrix, simulate
from qjobtime.transpile import (
    BASIS_1Q,
    BASIS_2Q,
    CouplingMap,
    all_to_all_map,
    decompose,
    heavy_hex_like_map,
    line_map,
    named_map,
    ring_map,
    route,
    transpiled_depth,
    uses_only_map_edges,
)
from qjobtime.transpile.kak import canonical_matrix, kak_decompose

BASIS = set(BASIS_1Q) | set(BASIS_2Q)


def assert_basis_only(c: Circuit):
    assert {g.kind for g in c.gates} <= BASIS


def undo_layout(amplitudes: np.ndarray, layout, width: int) -> np.ndarray:
    """Move each logical qubit's axis back from its physical position."""
    tensor = amplitudes.reshape((2,) * width)
    return np.moveaxis(tensor, layout, range(len(layout))).reshape(-1)


class TestKak:
    def test_reassembles_random_unitaries(self, rng):
        for _ in range(100):
            u = haar_su4(rng)
            phase, a1, a0, xyz, b1, b0 = kak_decompose(u)
            v = phase * np.kron(a1, a0) @ canonical_matrix(*xyz) @ np.kron(b1, b0)
            assert np.abs(u - v).max() < 1e-9

    def test_reassembles_structured_gates(self):
        cx = gate_matrix(Gate.cx(0, 1))
        swap = gate_matrix(Gate.swap(0, 1))
        iswap = np.array(
            [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        h = gate_matrix(Gate.h(0))
        cases = [np.eye(4, dtype=complex), cx, swap, iswap, 1j * cx, np.kron(h, h),
                 canonical_matrix(np.pi / 4, np.pi / 4, np.pi / 4)]
        for u in cases:
            phase, a1, a0, xyz, b1, b0 = kak_decompose(u)
            v = phase * np.kron(a1, a0) @ canonical_matrix(*xyz) @ np.kron(b1, b0)
            assert np.abs(u - v).max() < 1e-9

    # every base has a degenerate interaction spectrum; CX with seed 84 and
    # eps = 1e-10 fails the first diagonalization and needs a retry
    @settings(max_examples=200, deadline=None)
    @given(
        base=st.sampled_from(["cx", "swap", "identity", "canonical"]),
        log_eps=st.floats(-14.0, -6.0),
        seed=st.integers(0, 2**32 - 1),
        left=st.booleans(),
    )
    @example(base="cx", log_eps=-10.0, seed=84, left=False)
    @example(base="cx", log_eps=-10.0, seed=84, left=True)
    def test_near_degenerate_inputs_decompose(self, base, log_eps, seed, left):
        """Gates within eps of a degenerate interaction spectrum still lower
        exactly: decompose then circuit_unitary has infidelity <= 1e-12."""
        u = {
            "cx": gate_matrix(Gate.cx(0, 1)),
            "swap": gate_matrix(Gate.swap(0, 1)),
            "identity": np.eye(4, dtype=complex),
            "canonical": canonical_matrix(np.pi / 8, np.pi / 8, 0.0),
        }[base]
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w, v = np.linalg.eigh((a + a.conj().T) / 2)
        kick = (v * np.exp(1j * 10.0**log_eps * w)) @ v.conj().T  # exp(i eps H)
        u = kick @ u if left else u @ kick
        got = circuit_unitary(decompose(Circuit(2, (Gate.su4(0, 1, u),))))
        assert 1.0 - abs(np.trace(u.conj().T @ got) / 4) ** 2 <= 1e-12

    # seeds 124 and 241 failed every retry before kak_decompose re-unitarized
    # its input
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=124)
    @example(seed=241)
    def test_every_accepted_payload_decomposes(self, seed):
        """A Haar SU(4) perturbed to a unitarity error of 0.99 * UNITARY_TOL
        passes `Gate.su4` and factors to within that error."""
        rng = np.random.default_rng(seed)
        u = haar_su4(rng)
        kick = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        kick *= 1e-7 / np.abs(kick).max()
        unitarity_error = lambda m: np.abs(m @ m.conj().T - np.eye(4)).max()
        u = u + kick * (0.99 * UNITARY_TOL / unitarity_error(u + kick))
        phase, a1, a0, xyz, b1, b0 = kak_decompose(Gate.su4(0, 1, u).matrix)
        v = phase * np.kron(a1, a0) @ canonical_matrix(*xyz) @ np.kron(b1, b0)
        assert np.abs(u - v).max() < 2 * UNITARY_TOL

    def test_non_unitary_input_is_a_coded_error(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(InvalidGateError):
            kak_decompose(g)


class TestDecompose:
    def test_hadamard_rule(self):
        d = decompose(Circuit(1, (Gate.h(0),)))
        assert [g.kind for g in d] == [GateKind.RZ, GateKind.SX, GateKind.RZ]
        assert up_to_phase(circuit_unitary(d), gate_matrix(Gate.h(0))) < 1e-10

    def test_zz_phase_rule(self):
        theta = 1.234
        d = decompose(Circuit(2, (Gate.rzz(0, 1, theta),)))
        assert d.gates == (Gate.cx(0, 1), Gate.rz(1, theta), Gate.cx(0, 1))

    def test_swap_rule(self):
        d = decompose(Circuit(2, (Gate.swap(0, 1),)))
        assert d.gates == (Gate.cx(0, 1), Gate.cx(1, 0), Gate.cx(0, 1))

    def test_basis_gates_pass_through(self):
        c = Circuit(2, (Gate.x(0), Gate.sx(1), Gate.rz(0, 0.4), Gate.cx(0, 1)))
        assert decompose(c).gates == c.gates

    def test_u3_lowering(self, rng):
        for _ in range(20):
            g = Gate.u3(0, *(float(v) for v in rng.uniform(-np.pi, np.pi, 4)))
            d = decompose(Circuit(1, (g,)))
            assert_basis_only(d)
            assert up_to_phase(circuit_unitary(d), gate_matrix(g)) < 1e-10

    def test_su4_three_cx_and_equivalence(self, rng):
        for _ in range(50):
            u = haar_su4(rng)
            c = Circuit(2, (Gate.su4(0, 1, u),))
            d = decompose(c)
            assert_basis_only(d)
            assert sum(g.kind is GateKind.CX for g in d) <= 3
            assert up_to_phase(circuit_unitary(d), u) < 1e-8

    def test_su4_structured_payloads(self):
        h = gate_matrix(Gate.h(0))
        sx = gate_matrix(Gate.sx(0))
        payloads = [
            np.eye(4, dtype=complex),
            gate_matrix(Gate.cx(0, 1)),
            gate_matrix(Gate.swap(0, 1)),
            np.kron(h, sx),
            canonical_matrix(np.pi / 4, 0, 0),
            canonical_matrix(np.pi / 4, np.pi / 4, np.pi / 4),
        ]
        for u in payloads:
            d = decompose(Circuit(2, (Gate.su4(0, 1, u),)))
            assert_basis_only(d)
            assert up_to_phase(circuit_unitary(d), u) < 1e-8

    def test_random_circuits_land_in_basis(self, rng):
        for _ in range(10):
            c = random_circuit(3, 15, rng)
            d = decompose(c)
            assert_basis_only(d)
            assert up_to_phase(circuit_unitary(c), circuit_unitary(d)) < 1e-8

    def test_metadata_preserved(self):
        c = Circuit(2, (Gate.h(0),), base_layers=3)
        assert decompose(c).base_layers == 3


class TestRoute:
    def test_already_mapped_circuit_untouched(self):
        fam = KernelFamily(4, 1, Entanglement.LINEAR)
        c = decompose(sample_kernel_circuits(fam, 1, seed=0)[0])
        routed = route(c, line_map(4))
        assert routed.swap_count == 0
        assert routed.circuit == c
        assert routed.final_layout == (0, 1, 2, 3)

    def test_distant_cx_needs_one_swap(self):
        routed = route(Circuit(3, (Gate.cx(0, 2),)), line_map(3))
        assert routed.swap_count == 1
        # brute-force oracle: no zero-swap placement exists on a path graph
        assert not line_map(3).has_edge(0, 2)
        sv = simulate(routed.circuit)
        fixed = undo_layout(sv.amplitudes, routed.final_layout, 3)
        expected = simulate(Circuit(3, (Gate.cx(0, 2),))).amplitudes
        assert np.abs(fixed - expected).max() < 1e-12

    def test_all_to_all_never_swaps(self, rng):
        cmap = all_to_all_map(4)
        for _ in range(10):
            c = decompose(random_circuit(4, 20, rng))
            routed = route(c, cmap)
            assert routed.swap_count == 0
            assert routed.circuit.gates == c.gates

    def test_routed_gates_respect_edges(self, rng):
        for cmap in (line_map(5), ring_map(5), heavy_hex_like_map(7)):
            for _ in range(10):
                c = decompose(random_circuit(4, 25, rng))
                routed = route(c, cmap)
                assert uses_only_map_edges(routed.circuit, cmap)

    def test_unitary_equivalence_after_layout_undo(self, rng):
        cmap = line_map(4)
        for _ in range(10):
            c = decompose(random_circuit(4, 25, rng))
            routed = route(c, cmap)
            fixed = undo_layout(simulate(routed.circuit).amplitudes, routed.final_layout, 4)
            assert np.abs(fixed - simulate(c).amplitudes).max() < 1e-8

    def test_deterministic(self, rng):
        c = decompose(random_circuit(5, 30, rng))
        cmap = heavy_hex_like_map(7)
        assert route(c, cmap).circuit == route(c, cmap).circuit

    def test_width_overflow_rejected(self):
        with pytest.raises(CouplingError):
            route(Circuit(5), line_map(3))


class TestTranspiledDepth:
    def test_empty(self):
        assert transpiled_depth(Circuit(3), line_map(3)) == 0

    def test_single_hadamard(self):
        assert transpiled_depth(Circuit(1, (Gate.h(0),)), line_map(1)) == 3

    def test_all_to_all_equals_decomposed_depth(self, rng):
        cmap = all_to_all_map(4)
        for _ in range(5):
            c = random_circuit(4, 20, rng)
            assert transpiled_depth(c, cmap) == decompose(c).depth()

    def test_full_exceeds_linear_on_line(self):
        lmap = line_map(5)
        for d in (1, 2, 3):
            full = np.mean([
                transpiled_depth(c, lmap)
                for c in sample_kernel_circuits(KernelFamily(5, d, Entanglement.FULL), 25, seed=2)
            ])
            linear = np.mean([
                transpiled_depth(c, lmap)
                for c in sample_kernel_circuits(KernelFamily(5, d, Entanglement.LINEAR), 25, seed=2)
            ])
            assert full > linear

    def test_mean_depth_nondecreasing_in_template_count(self):
        lmap = line_map(4)
        means = []
        for d in (1, 2, 3):
            fam = KernelFamily(4, d, Entanglement.FULL)
            means.append(np.mean([
                transpiled_depth(c, lmap) for c in sample_kernel_circuits(fam, 25, seed=4)
            ]))
        assert means[0] <= means[1] <= means[2]

    def test_qv_circuits_transpile(self):
        c = qv_circuit(4, 4, seed=8)
        assert transpiled_depth(c, heavy_hex_like_map(7)) > 0


class TestCouplingMaps:
    def test_disconnected_rejected(self):
        with pytest.raises(CouplingError):
            CouplingMap(4, [(0, 1), (2, 3)])

    def test_bad_edge_rejected(self):
        with pytest.raises(CouplingError):
            CouplingMap(2, [(0, 2)])

    def test_json_round_trip(self):
        cmap = heavy_hex_like_map(16)
        back = CouplingMap.from_json(cmap.to_json())
        assert back.num_qubits == cmap.num_qubits
        assert back.edges == cmap.edges

    def test_heavy_hex_degree_bound(self):
        cmap = heavy_hex_like_map(27)
        degree = [len(cmap.neighbors(q)) for q in range(27)]
        assert max(degree) <= 3

    def test_named_map_lookup(self):
        assert named_map("line", 5).num_qubits == 5
        with pytest.raises(CouplingError):
            named_map("torus", 5)

    def test_distance_and_paths(self):
        """The first-hop table gives the second node of a reference BFS path,
        and each hop lowers the distance by one, on every ordered pair of every
        named map (sizes 2..30) and of one irregular custom map."""
        cmap = line_map(5)
        assert cmap.distance(0, 4) == 4
        custom = CouplingMap.from_json(
            '{"n": 8, "edges": [[0, 5], [0, 3], [5, 7], [3, 7], [7, 2], [2, 6], [6, 1], [1, 4], '
            '[4, 0]]}'
        )
        maps = [custom] + [
            named_map(kind, n)
            for n in range(2, 31)
            for kind in ("line", "ring", "all-to-all", "heavy-hex-like")
            if kind != "ring" or n >= 3
        ]
        for cmap in maps:
            for src in range(cmap.num_qubits):
                assert cmap.next_hop(src, src) == src
                for dst in range(cmap.num_qubits):
                    if dst == src:
                        continue
                    hop = cmap.next_hop(src, dst)
                    assert hop == _bfs_path(cmap, src, dst)[1], (cmap, src, dst)
                    assert cmap.distance(hop, dst) == cmap.distance(src, dst) - 1


def _bfs_path(cmap: CouplingMap, src: int, dst: int) -> list[int]:
    """Reference: one BFS shortest path, ties broken by ascending neighbor index."""
    parent = {src: src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in cmap.neighbors(u):
            if v not in parent:
                parent[v] = u
                if v == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    return path[::-1]
                queue.append(v)
    raise AssertionError(f"no path between {src} and {dst}")


# repr(d_eff) on a fixed grid as computed with every transpiler gate built
# through the checked constructors: ((n, d, entanglement), map, seed) with 3
# kernel and 2 QV samples on line:8 and heavy-hex-like:16
PINNED_DEFF = {
    ((4, 2, "linear"), "line", 0): "1.373134328358209",
    ((4, 2, "linear"), "line", 7): "1.295774647887324",
    ((4, 2, "linear"), "heavy-hex-like", 0): "1.373134328358209",
    ((4, 2, "linear"), "heavy-hex-like", 7): "1.295774647887324",
    ((4, 2, "full"), "line", 0): "4.149253731343284",
    ((4, 2, "full"), "line", 7): "3.915492957746479",
    ((4, 2, "full"), "heavy-hex-like", 0): "4.149253731343284",
    ((4, 2, "full"), "heavy-hex-like", 7): "3.915492957746479",
    ((8, 4, "linear"), "line", 0): "2.070588235294118",
    ((8, 4, "linear"), "line", 7): "2.1755253399258345",
    ((8, 4, "linear"), "heavy-hex-like", 0): "2.3497997329773033",
    ((8, 4, "linear"), "heavy-hex-like", 7): "2.410958904109589",
    ((8, 4, "full"), "line", 0): "19.068235294117645",
    ((8, 4, "full"), "line", 7): "20.03461063040791",
    ((8, 4, "full"), "heavy-hex-like", 0): "22.472630173564752",
    ((8, 4, "full"), "heavy-hex-like", 7): "23.057534246575344",
    ((4, 8, "linear"), "line", 0): "3.124705882352941",
    ((4, 8, "linear"), "line", 7): "3.2830655129789865",
    ((4, 8, "linear"), "heavy-hex-like", 0): "3.5460614152202936",
    ((4, 8, "linear"), "heavy-hex-like", 7): "3.638356164383562",
    ((4, 8, "full"), "line", 0): "10.635294117647058",
    ((4, 8, "full"), "line", 7): "11.174289245982695",
    ((4, 8, "full"), "heavy-hex-like", 0): "12.069425901201603",
    ((4, 8, "full"), "heavy-hex-like", 7): "12.383561643835616",
}


def assert_passes_checks(c: Circuit):
    """Every gate holds exactly what the checked constructor would store, and
    the checked Circuit constructor accepts the gate list."""
    for g in c.gates:
        assert all(type(q) is int for q in g.qubits), g
        assert all(type(p) is float for p in g.params), g
        assert Gate(g.kind, g.qubits, g.params, g.matrix) == g
    assert Circuit(c.width, c.gates, c.base_layers) == c


def test_pinned_deff_and_checked_transpiler_output(rng):
    maps = {"line": line_map(8), "heavy-hex-like": heavy_hex_like_map(16)}
    for ((n, d, ent), map_name, seed), want in PINNED_DEFF.items():
        fam = KernelFamily(n, d, Entanglement(ent))
        est = effective_layers(fam, maps[map_name], kernel_samples=3, qv_samples=2, seed=seed)
        assert repr(est.d_eff) == want, (n, d, ent, map_name, seed)
        if seed == 0 and map_name == "heavy-hex-like":
            circuits = sample_kernel_circuits(fam, 3, seed) + sample_qv_circuits(est.v, est.v, 2, seed)
            for c in circuits:
                lowered = decompose(c)
                assert_passes_checks(lowered)
                assert_passes_checks(route(lowered, maps[map_name]).circuit)
    # every gate kind, including U3 and SWAP lowering
    for c in [random_circuit(5, 40, rng) for _ in range(10)]:
        lowered = decompose(c)
        assert_passes_checks(lowered)
        assert_passes_checks(route(lowered, heavy_hex_like_map(7)).circuit)
