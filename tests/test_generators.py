from fractions import Fraction

import numpy as np
import pytest

from qjobtime import generators, sim
from qjobtime.circuit import MAX_GATES, Circuit, Gate, GateKind, gate_matrix
from qjobtime.errors import InvalidParameterError
from qjobtime.generators import (
    Entanglement,
    KernelFamily,
    aspect_label,
    encoding_circuit,
    haar_su4,
    haar_su4_stack,
    kernel_basis_gates,
    kernel_circuit,
    phase_angles,
    qv_basis_gates,
    qv_circuit,
    sample_features,
    seed_stream,
)
from qjobtime.model import BackendSpec
from qjobtime.sim import exact_kernel, kernel_matrix, simulate
from qjobtime.transpile import decompose


def assert_built_as_checked(c: Circuit, reference: Circuit) -> None:
    """c equals the checked reference gate for gate, prints the same text and
    carries the plain int qubits and float parameters the checked
    constructor stores; its text parses back through that constructor."""
    assert (c.width, c.base_layers) == (reference.width, reference.base_layers)
    assert c == reference
    assert c.to_text() == reference.to_text()
    for g in c.gates:
        assert all(type(q) is int for q in g.qubits)
        assert all(type(p) is float for p in g.params)
    assert Circuit.from_text(c.to_text()) == c


def reference_qv_circuit(q: int, layers: int, seed: int) -> Circuit:
    """Per-matrix QV construction: a permutation, then one QR per pair."""
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(layers):
        perm = rng.permutation(q)
        for k in range(q // 2):
            g = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
            u, r = np.linalg.qr(g)
            u = u * (np.diag(r) / np.abs(np.diag(r)))
            u = u * np.linalg.det(u) ** -0.25
            gates.append(Gate.su4(int(perm[2 * k]), int(perm[2 * k + 1]), u))
    return Circuit(q, tuple(gates), base_layers=layers)


def reference_qv_layers(q: int, layers: int, seed: int) -> Circuit:
    """Per-layer QV construction: a permutation, then the layer's floor(q/2)
    matrices as one `haar_su4_stack`, each gate built checked."""
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(layers):
        perm = rng.permutation(q)
        for k, u in enumerate(haar_su4_stack(rng, q // 2)):
            gates.append(Gate.su4(int(perm[2 * k]), int(perm[2 * k + 1]), u))
    return Circuit(q, tuple(gates), base_layers=layers)


def reference_encoding_circuit(fam: KernelFamily, x) -> Circuit:
    """Encoding circuit built gate by gate through the checked constructors."""
    n, a = fam.n, phase_angles(fam, x)
    layer = [Gate.h(j) for j in range(n)] + [Gate.rz(j, 2.0 * a[j]) for j in range(n)]
    layer += [Gate.rzz(j, k, 2.0 * a[n + p]) for p, (j, k) in enumerate(fam.entanglement.pairs(n))]
    return Circuit(n, tuple(layer) * fam.d, base_layers=fam.d)


class TestQuantumVolumeCircuits:
    def test_two_qubit_two_layer_structure(self):
        c = qv_circuit(2, 2, seed=0)
        assert len(c) == 2
        assert all(g.kind is GateKind.SU4 for g in c)
        assert c.base_layers == 2

    def test_gate_count_is_layers_times_pairs(self):
        for q, layers in [(3, 2), (4, 4), (5, 3), (7, 5)]:
            c = qv_circuit(q, layers, seed=1)
            assert len(c) == layers * (q // 2)
            assert all(g.kind is GateKind.SU4 for g in c)

    def test_square_rule_from_quantum_volume(self):
        backend = BackendSpec("b", 7, 16, 1000.0)
        assert backend.qv_layers == 4
        c = qv_circuit(backend.qv_layers, backend.qv_layers, seed=0)
        assert c.width == c.base_layers == 4

    def test_deterministic_for_fixed_seed(self):
        a = qv_circuit(4, 3, seed=11)
        b = qv_circuit(4, 3, seed=11)
        other = qv_circuit(4, 3, seed=12)
        assert a == b
        assert a != other

    def test_small_width_rejected(self):
        with pytest.raises(InvalidParameterError):
            qv_circuit(1, 1, seed=0)

    def test_haar_payloads_unitary(self, rng):
        for _ in range(50):
            u = haar_su4(rng)
            assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-10
            assert abs(np.linalg.det(u) - 1.0) < 1e-10

    @pytest.mark.parametrize("q", range(2, 10))
    def test_stacked_draws_match_per_matrix_reference(self, q):
        for seed in range(200):
            assert_built_as_checked(qv_circuit(q, 2, seed), reference_qv_circuit(q, 2, seed))

    @pytest.mark.parametrize("q", range(2, 10))
    def test_one_pass_matches_per_layer_stacks(self, q):
        for layers in (1, 3, 8):
            for seed in range(20):
                assert_built_as_checked(qv_circuit(q, layers, seed),
                                        reference_qv_layers(q, layers, seed))

    # the most SU4 gates a QV circuit may hold: each counts 43 basis gates
    SU4_BOUND = MAX_GATES // 43

    def test_circuit_at_the_gate_bound_builds(self):
        assert self.SU4_BOUND == 46_511
        assert qv_basis_gates(2, self.SU4_BOUND) == 1_999_973
        assert len(qv_circuit(2, self.SU4_BOUND, seed=0)) == self.SU4_BOUND

    @pytest.mark.parametrize("q, layers", [(2, SU4_BOUND + 1), (9, SU4_BOUND // 4 + 1),
                                           (10**6, 1), (3, 10**11)])
    def test_gate_ceiling_is_refused_before_any_draw(self, q, layers, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)  # a draw would fail otherwise
        refusal = f"width {q} and {layers} layers would hold .* more than {MAX_GATES}"
        with pytest.raises(InvalidParameterError, match=refusal):
            qv_circuit(q, layers, seed=0)

    def test_payloads_are_read_only(self):
        c = qv_circuit(5, 3, seed=4)
        assert not any(g.matrix.flags.writeable for g in c.gates)


class TestEncodingCircuits:
    def test_linear_two_qubit_structure(self):
        fam = KernelFamily(2, 1, Entanglement.LINEAR)
        x = [0.3, 0.7]
        c = encoding_circuit(fam, x)
        kinds = [g.kind for g in c]
        assert kinds == [GateKind.H, GateKind.H, GateKind.RZ, GateKind.RZ, GateKind.RZZ]
        rz = [g for g in c if g.kind is GateKind.RZ]
        assert rz[0].params[0] == pytest.approx(2 * 0.3)
        assert rz[1].params[0] == pytest.approx(2 * 0.7)

    def test_pair_phase_vanishes_at_pi(self):
        fam = KernelFamily(2, 1, Entanglement.FULL)
        c = encoding_circuit(fam, [np.pi, np.pi])
        (zz,) = [g for g in c if g.kind is GateKind.RZZ]
        assert zz.params[0] == pytest.approx(0.0)

    def test_full_three_qubit_pairs(self):
        fam = KernelFamily(3, 1, Entanglement.FULL)
        c = encoding_circuit(fam, [0.1, 0.2, 0.3])
        zz_pairs = [g.qubits for g in c if g.kind is GateKind.RZZ]
        assert zz_pairs == [(0, 1), (0, 2), (1, 2)]

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            encoding_circuit(KernelFamily(3, 1), [0.1, 0.2])

    @pytest.mark.parametrize("ent", list(Entanglement))
    def test_rotations_are_twice_the_phase_angles(self, ent, rng):
        fam = KernelFamily(4, 2, ent)
        v = sample_features(fam, rng)
        pairs = fam.entanglement.pairs(fam.n)
        angles = phase_angles(fam, v)
        params = [g.params[0] for g in encoding_circuit(fam, v) if g.params]
        assert params == [2.0 * a for a in angles] * fam.d
        # bit-equal to the RZ(2 x_j), RZZ(2 (pi - x_j)(pi - x_k)) products
        assert params[: fam.n + len(pairs)] == [2.0 * v[j] for j in range(fam.n)] + [
            2.0 * (np.pi - v[j]) * (np.pi - v[k]) for j, k in pairs
        ]

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 2), (5, 1), (4, 3)])
    def test_gate_counts(self, n, d):
        x = np.linspace(0.1, 1.0, n)
        linear = encoding_circuit(KernelFamily(n, d, Entanglement.LINEAR), x)
        full = encoding_circuit(KernelFamily(n, d, Entanglement.FULL), x)
        assert len(linear) == d * (n + n + (n - 1))
        assert len(full) == d * (n + n + n * (n - 1) // 2)


class TestKernelCircuits:
    @pytest.mark.parametrize("ent", list(Entanglement))
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_trusted_build_matches_checked_constructors(self, ent, n, d, rng):
        fam = KernelFamily(n, d, ent)
        x, y = sample_features(fam, rng), sample_features(fam, rng)
        assert_built_as_checked(encoding_circuit(fam, x), reference_encoding_circuit(fam, x))
        reference = reference_encoding_circuit(fam, x).compose(
            reference_encoding_circuit(fam, y).inverse()
        )
        assert_built_as_checked(kernel_circuit(fam, x, y), reference)

    def test_self_overlap_is_one(self, rng):
        fam = KernelFamily(3, 2, Entanglement.FULL)
        x = sample_features(fam, rng)
        prob = simulate(kernel_circuit(fam, x, x)).zero_probability()
        assert prob == pytest.approx(1.0, abs=1e-10)

    def test_volumetric_area_and_metadata(self):
        fam = KernelFamily(4, 2)
        c = kernel_circuit(fam, np.ones(4), np.zeros(4))
        assert c.base_layers == 4  # 2*d template repetitions
        assert c.base_layers * c.width == 2 * fam.d * fam.n == 16

    def test_gate_count_doubles_encoding(self):
        fam = KernelFamily(3, 2, Entanglement.LINEAR)
        x, y = np.ones(3), np.zeros(3)
        assert len(kernel_circuit(fam, x, y)) == 2 * len(encoding_circuit(fam, x))

    def test_kernel_value_in_unit_interval(self, rng):
        fam = KernelFamily(2, 1)
        for _ in range(10):
            val = exact_kernel(fam, sample_features(fam, rng), sample_features(fam, rng))
            assert 0.0 <= val <= 1.0

    # the widest full family whose d = 1 overlap circuit fits under the gate
    # bound: it lowers to 2(4n + 3n(n-1)/2) = 3n^2 + 5n basis gates
    WIDE_FULL = max(n for n in range(2, 1000) if 3 * n * n + 5 * n <= MAX_GATES)

    def test_family_at_the_gate_ceiling_builds(self, monkeypatch):
        """n = 2 lowers to 22 basis gates per d, so d = 90 909 is the deepest
        family under the bound; its rounds share their gates, so it builds
        and lowers in well under a second. The widest full family, n = 815
        at d = 1 (3n² + 5n basis gates), is counted at the bound; building and
        lowering it peaks at 340 MB, so it is built and lowered to exactly its count under a
        bound of 20 000, where n = 80 is the widest that fits and 81 is
        refused."""
        fam = KernelFamily(2, 90_909)
        c = kernel_circuit(fam, np.zeros(2), np.ones(2))
        assert len(decompose(c)) == kernel_basis_gates(fam) == 1_999_998
        wide = KernelFamily(self.WIDE_FULL, 1, Entanglement.FULL)
        assert self.WIDE_FULL == 815 and kernel_basis_gates(wide) == 1_996_750
        monkeypatch.setattr(generators, "MAX_GATES", 20_000)
        n = max(n for n in range(2, 1000) if 3 * n * n + 5 * n <= 20_000)
        wide = KernelFamily(n, 1, Entanglement.FULL)
        c = kernel_circuit(wide, np.zeros(n), np.ones(n))
        assert n == 80 and len(decompose(c)) == kernel_basis_gates(wide) == 19_600
        with pytest.raises(InvalidParameterError, match="would hold 20088 basis gates, more than 20000"):
            kernel_circuit(KernelFamily(n + 1, 1, Entanglement.FULL), np.zeros(n + 1), np.ones(n + 1))

    @pytest.mark.parametrize("fam", [KernelFamily(2, 90_910),
                                     KernelFamily(WIDE_FULL + 1, 1, Entanglement.FULL),
                                     KernelFamily(10**9, 1), KernelFamily(3, 10**12)])
    def test_gate_ceiling_is_refused_before_any_gate_or_state(self, fam, monkeypatch):
        for module in (generators, sim):  # building a gate or a state would fail otherwise
            monkeypatch.setattr(module, "phase_angles", None)
        x = [0.0]
        refusal = rf"kernel family .* would hold \d+ basis gates, more than {MAX_GATES}"
        for build in (lambda: encoding_circuit(fam, x), lambda: kernel_circuit(fam, x, x),
                      lambda: kernel_matrix(fam, [x, x]), lambda: kernel_matrix(fam, [x], 10)):
            with pytest.raises(InvalidParameterError, match=refusal):
                build()


class TestBasisGateCounts:
    """The generators' basis-gate counts against the lowering's output."""

    @pytest.mark.parametrize("entanglement", list(Entanglement))
    def test_kernel_count_is_the_lowered_length(self, entanglement, rng):
        for n in range(1, 7):
            for d in range(1, 4):
                fam = KernelFamily(n, d, entanglement)
                c = kernel_circuit(fam, sample_features(fam, rng), sample_features(fam, rng))
                assert len(decompose(c)) == kernel_basis_gates(fam), fam

    @pytest.mark.parametrize("q", range(2, 8))
    def test_qv_count_is_the_lowered_length_of_haar_draws(self, q):
        for layers in (1, 2, 5):
            for seed in range(3):
                assert len(decompose(qv_circuit(q, layers, seed))) == qv_basis_gates(q, layers)

    def test_qv_count_bounds_a_degenerate_payload_strictly(self):
        """A CX payload's dressings are partly trivial, so it lowers to fewer
        than the 43 basis gates counted per SU4."""
        cx = Circuit(2, (Gate.su4(0, 1, gate_matrix(Gate.cx(0, 1))),))
        assert len(decompose(cx)) < qv_basis_gates(2, 1) == 43


class TestAspectRatio:
    def test_square(self):
        assert KernelFamily(4, 2).aspect_ratio == 1
        assert aspect_label(KernelFamily(4, 2).aspect_ratio) == "square"

    def test_wide_and_shallow(self):
        fam = KernelFamily(6, 1)
        assert fam.aspect_ratio == Fraction(1, 3)
        assert aspect_label(fam.aspect_ratio) == "wide-shallow"

    def test_narrow_and_deep(self):
        fam = KernelFamily(2, 3)
        assert fam.aspect_ratio == Fraction(3, 1)
        assert aspect_label(fam.aspect_ratio) == "narrow-deep"

    def test_exact_rational(self):
        assert KernelFamily(6, 2).aspect_ratio == Fraction(2, 3)


class TestFamilyDescriptor:
    def test_dict_round_trip(self):
        fam = KernelFamily(4, 2, Entanglement.FULL)
        assert KernelFamily.from_dict(fam.to_dict()) == fam

    def test_bad_descriptor(self):
        with pytest.raises(InvalidParameterError):
            KernelFamily.from_dict({"n": 4})

    @pytest.mark.parametrize("spec", [[], 3, None, "n=4", {"n": float("inf"), "d": 1},
                                      {"n": 4, "d": 1.9}, {"n": 4, "d": 2.0}, {"n": True, "d": 1},
                                      {"n": 4, "d": False}, {"n": "4", "d": 1},
                                      {"n": 4, "d": 1, "entanglement": "ring"},
                                      {"n": 4, "d": 1, "entanglement": ["full"]}])
    def test_only_objects_with_integer_sizes_parse(self, spec):
        with pytest.raises(InvalidParameterError):
            KernelFamily.from_dict(spec)

    def test_invariants(self):
        with pytest.raises(InvalidParameterError):
            KernelFamily(0, 1)
        with pytest.raises(InvalidParameterError):
            KernelFamily(2, 0)


class TestSeedStream:
    def test_stream_is_the_seed_sequence_of_its_key(self):
        expected = np.random.SeedSequence((7, 2, 5)).generate_state(4)
        assert np.array_equal(seed_stream(7, 2, 5).generate_state(4), expected)

    def test_negative_seed_is_refused(self):
        with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -1"):
            seed_stream(-1, 3)
