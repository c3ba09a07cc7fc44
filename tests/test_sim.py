import copy
import pickle
import re

import numpy as np
import pytest

from conftest import random_circuit
from qjobtime.circuit import Circuit, Gate
from qjobtime.errors import InvalidGateError, InvalidParameterError, SimulationCapError
from qjobtime.generators import (
    Entanglement,
    KernelFamily,
    encoding_circuit,
    sample_features,
)
from qjobtime import sim
from qjobtime.sim import (
    MAX_ENTRIES,
    MAX_SHOTS,
    circuit_unitary,
    estimate_kernel,
    exact_kernel,
    kernel_matrix,
    simulate,
)

FAMILIES = [KernelFamily(n, 2, ent) for n in (1, 2, 3, 4) for ent in Entanglement]


class TestSimulate:
    def test_hadamard_superposition(self):
        sv = simulate(Circuit(1, (Gate.h(0),)))
        assert np.allclose(sv.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_bell_state(self):
        sv = simulate(Circuit(2, (Gate.h(0), Gate.cx(0, 1))))
        assert np.allclose(sv.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    def test_norm_preserved(self, rng):
        for _ in range(10):
            sv = simulate(random_circuit(4, 30, rng))
            assert abs(sv.norm() - 1.0) < 1e-10

    def test_unitarity_oracle(self, rng):
        for _ in range(5):
            c = random_circuit(3, 20, rng)
            sv = simulate(c.compose(c.inverse()))
            assert abs(sv.amplitudes[0] - 1.0) < 1e-10

    def test_width_cap(self, monkeypatch):
        """A state or unitary of up to MAX_ENTRIES = 2^24 entries is built, and
        one of more is refused, an absurd width at once; the message names the
        bound. A 24-qubit zero state touches few pages; the unitary's accepted
        edge, 12 qubits, would fill 256 MiB and is shown on a smaller bound."""
        bound = f"would hold more than the simulator's bound of MAX_ENTRIES = {MAX_ENTRIES}"
        assert simulate(Circuit(24)).n == 24
        for width in (25, 10**9):
            with pytest.raises(SimulationCapError, match=re.escape(f"2^{width} state of a")):
                simulate(Circuit(width))
        message = f"the 4^13 unitary of a 13-qubit circuit {bound}"
        with pytest.raises(SimulationCapError, match=re.escape(message)):
            circuit_unitary(Circuit(13))
        monkeypatch.setattr(sim, "MAX_ENTRIES", 2**10)
        assert simulate(Circuit(10)).n == 10
        assert circuit_unitary(Circuit(5)).shape == (32, 32)
        with pytest.raises(SimulationCapError, match=re.escape("2^11 state")):
            simulate(Circuit(11))
        with pytest.raises(SimulationCapError, match=re.escape("4^6 unitary")):
            circuit_unitary(Circuit(6))


    def test_states_compare_by_value(self, rng):
        """Two runs of one circuit give equal states, rebuilt ones too; a state
        of other amplitudes or width, or a plain tuple of its fields, is not
        equal, and a state does not hash."""
        c = random_circuit(3, 20, rng)
        sv = simulate(c)
        assert sv == simulate(c) and not sv != simulate(c)
        zero = simulate(Circuit(3))
        assert sv != zero and not sv == zero
        assert sim.StateVector(zero.amplitudes, 2) != zero  # its amplitudes, another width
        for stranger in (tuple(sv), (zero.amplitudes, 3)):
            assert sv != stranger and stranger != sv and not sv == stranger
        for clone in (pickle.loads(pickle.dumps(sv)), copy.copy(sv), copy.deepcopy(sv)):
            assert type(clone) is sim.StateVector and clone == sv
        with pytest.raises(TypeError):
            hash(sv)


class TestExactKernel:
    def test_equal_inputs_give_one(self, rng):
        for n in (2, 3, 4):
            fam = KernelFamily(n, 1, Entanglement.FULL)
            x = sample_features(fam, rng)
            assert exact_kernel(fam, x, x) == pytest.approx(1.0, abs=1e-10)

    def test_symmetric(self, rng):
        fam = KernelFamily(3, 2, Entanglement.LINEAR)
        x, y = sample_features(fam, rng), sample_features(fam, rng)
        assert exact_kernel(fam, x, y) == pytest.approx(exact_kernel(fam, y, x), abs=1e-10)

    def test_single_qubit_closed_form(self, rng):
        # one qubit, one repetition: U(x) = RZ(2x) H, so the overlap
        # amplitude is <0| H RZ(2(x-y)) H |0> = cos(x - y)
        fam = KernelFamily(1, 1)
        for _ in range(20):
            x, y = rng.uniform(0, 2 * np.pi, 2)
            expected = np.cos(x - y) ** 2
            assert exact_kernel(fam, [x], [y]) == pytest.approx(expected, abs=1e-9)

    def test_bounded(self, rng):
        fam = KernelFamily(2, 2, Entanglement.FULL)
        for _ in range(10):
            v = exact_kernel(fam, sample_features(fam, rng), sample_features(fam, rng))
            assert 0.0 <= v <= 1.0


class TestEstimateKernel:
    def test_equal_inputs_estimate_exactly_one(self):
        fam = KernelFamily(2, 1)
        est = estimate_kernel(fam, [0.4, 1.1], [0.4, 1.1], shots=64, seed=5)
        assert est.estimate == 1.0
        assert est.zero_count == 64

    def test_single_shot_is_bernoulli(self):
        fam = KernelFamily(2, 1)
        values = {estimate_kernel(fam, [0.3, 0.9], [2.0, 1.5], 1, seed=s).estimate
                  for s in range(30)}
        assert values <= {0.0, 1.0}
        assert len(values) == 2  # p is mid-range for this pair

    def test_deterministic_per_seed(self):
        fam = KernelFamily(3, 1)
        x, y = np.arange(1.0, 4.0), np.arange(2.0, 5.0)
        a = estimate_kernel(fam, x, y, 500, seed=9)
        b = estimate_kernel(fam, x, y, 500, seed=9)
        assert a == b

    def test_estimator_unbiased_within_binomial_band(self, rng):
        fam = KernelFamily(2, 1)
        x, y = sample_features(fam, rng), sample_features(fam, rng)
        p = exact_kernel(fam, x, y)
        shots = 1000
        mean = np.mean(
            [estimate_kernel(fam, x, y, shots, seed=s).estimate for s in range(200)]
        )
        assert abs(mean - p) <= 4 * np.sqrt(p * (1 - p) / shots)

    def test_invalid_shots(self):
        with pytest.raises(InvalidParameterError):
            estimate_kernel(KernelFamily(2, 1), [0, 0], [0, 0], shots=0)

    @pytest.mark.parametrize("seed", [-1, (1, -2)])
    def test_negative_seed_is_refused(self, seed):
        with pytest.raises(InvalidParameterError, match=re.escape(f"seed must be >= 0, got {seed!r}")):
            estimate_kernel(KernelFamily(2, 1), [0, 0], [0, 0], shots=10, seed=seed)

    def test_tuple_seed_of_nonnegative_ints_is_valid(self):
        fam = KernelFamily(2, 1)
        a = estimate_kernel(fam, [0.3, 0.9], [2.0, 1.5], 100, seed=(1, 2))
        assert a == estimate_kernel(fam, [0.3, 0.9], [2.0, 1.5], 100, seed=(1, 2))


class TestKernelMatrix:
    def test_identical_vectors_give_ones(self):
        fam = KernelFamily(2, 1)
        data = [[0.2, 0.4]] * 4
        assert np.allclose(kernel_matrix(fam, data), np.ones((4, 4)), atol=1e-10)

    def test_matches_pairwise_exact_kernel(self, rng):
        for fam in FAMILIES:
            data = [sample_features(fam, rng) for _ in range(4)]
            k = kernel_matrix(fam, data)
            for i in range(4):
                for j in range(4):
                    expected = 1.0 if i == j else exact_kernel(fam, data[i], data[j])
                    assert k[i, j] == pytest.approx(expected, abs=1e-12)
            assert np.array_equal(k, k.T)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("ent", list(Entanglement))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_form_states_match_gate_by_gate_oracle(self, n, ent, d, rng):
        fam = KernelFamily(n, d, ent)
        data = [sample_features(fam, rng) for _ in range(3)]
        data.append(data[0])
        k = kernel_matrix(fam, data)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(k[i, j] - exact_kernel(fam, data[i], data[j])) <= 1e-12
        shots = 200
        assert kernel_matrix(fam, data, shots=shots, seed=n)[0, 3] * shots == shots
        for matrix_shots in (None, shots):
            assert kernel_matrix(fam, [], shots=matrix_shots).shape == (0, 0)
            assert kernel_matrix(fam, data[:1], shots=matrix_shots).tolist() == [[1.0]]

    def test_sixteen_qubits_match_simulated_overlaps(self, rng):
        fam = KernelFamily(16, 2, Entanglement.FULL)
        centre = sample_features(fam, rng)
        data = [centre + rng.normal(0.0, 0.02, fam.n) for _ in range(3)]  # entries far from 0
        k = kernel_matrix(fam, data)
        states = [simulate(encoding_circuit(fam, x)).amplitudes for x in data]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert abs(k[i, j] - abs(np.vdot(states[j], states[i])) ** 2) <= 1e-12
        # 256 states of 2^16 amplitudes fill MAX_ENTRIES; one more is refused
        assert MAX_ENTRIES >> fam.n == 256
        with pytest.raises(SimulationCapError, match=re.escape("257 x 2^16 encoded states")):
            kernel_matrix(fam, data * 85 + data[:2])

    def test_kernel_arrays_at_the_bound(self, monkeypatch):
        """On a bound of 2^10 entries: 7 qubits over 8 vectors (8 x 2^7 states,
        2^7 x 7 sign tables) and 32 vectors (32 x 32 overlaps) are built; one
        vector more, or an eighth qubit's 2^8 x 8 sign tables, is refused."""
        monkeypatch.setattr(sim, "MAX_ENTRIES", 2**10)
        fam, rng = KernelFamily(7, 1), np.random.default_rng(3)
        data = [sample_features(fam, rng) for _ in range(8)]
        assert kernel_matrix(fam, data).shape == (8, 8)
        with pytest.raises(SimulationCapError, match=re.escape("9 x 2^7 encoded states")):
            kernel_matrix(fam, data + data[:1])
        with pytest.raises(SimulationCapError, match=re.escape("2^8 x 8 sign tables")):
            kernel_matrix(KernelFamily(8, 1), [[0.1] * 8])
        pairs = [[0.1, 0.2]] * 32
        assert kernel_matrix(KernelFamily(2, 1), pairs, shots=10).shape == (32, 32)
        with pytest.raises(SimulationCapError, match=re.escape("33 x 33 overlaps")):
            kernel_matrix(KernelFamily(2, 1), pairs + pairs[:1], shots=10)

    def test_h_rounds_at_the_budget(self, monkeypatch):
        """On a budget of 96 amplitude updates, (d - 1) n N 2^n: 4 vectors on
        2 qubits with d = 4 are built; a fifth vector or a fifth round is
        refused, naming the budget, before any state is built."""
        monkeypatch.setattr(sim, "MAX_AMPLITUDE_UPDATES", 96)
        built = []
        encode = sim._encoded_states
        monkeypatch.setattr(sim, "_encoded_states", lambda *a: built.append(a) or encode(*a))
        data = [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]]
        assert kernel_matrix(KernelFamily(2, 4), data).shape == (4, 4)
        budget = "more than the simulator's budget of MAX_AMPLITUDE_UPDATES = 96"
        with pytest.raises(SimulationCapError, match="make 120 amplitude updates, " + budget):
            kernel_matrix(KernelFamily(2, 4), data + data[:1])
        with pytest.raises(SimulationCapError, match="the 4 H rounds .* 128 amplitude updates"):
            kernel_matrix(KernelFamily(2, 5), data)
        assert len(built) == 1

    @pytest.mark.parametrize("seed", [0, 5, 99])
    def test_shot_counts_are_one_binomial_draw_on_stream_3(self, seed):
        rng = np.random.default_rng(seed)
        shots = 300
        upper = np.triu_indices(4, 1)
        for fam in FAMILIES:
            data = [sample_features(fam, rng) for _ in range(3)]
            data.append(data[1])  # a repeated vector: p0 = 1 up to rounding
            p0 = np.clip(kernel_matrix(fam, data)[upper], 0.0, 1.0)
            counts = np.random.default_rng(np.random.SeedSequence((seed, 3))).binomial(shots, p0)
            k = kernel_matrix(fam, data, shots=shots, seed=seed)
            assert np.array_equal(k[upper], counts / shots)
            assert np.array_equal(k, k.T) and np.array_equal(np.diag(k), np.ones(4))
            assert k[1, 3] == 1.0
            p = np.clip(exact_kernel(fam, data[0], data[2]), 0.0, 1.0)
            est = estimate_kernel(fam, data[0], data[2], shots, seed=seed)
            assert est.zero_count == np.random.default_rng(seed).binomial(shots, p)

    def test_shot_counts_within_five_sigma_and_z_scores_standard_normal(self):
        # 70 vectors near one centre: 2415 pairs with p0 between 0.13 and 1
        fam = KernelFamily(3, 1, Entanglement.FULL)
        rng = np.random.default_rng(2024)
        centre = sample_features(fam, rng)
        data = centre + rng.normal(0.0, 0.1, (70, fam.n))
        shots = 4000
        upper = np.triu_indices(len(data), 1)
        p = kernel_matrix(fam, data)[upper]
        assert p.size >= 2000 and 0.1 < p.min() and p.max() < 1.0
        counts = np.rint(kernel_matrix(fam, data, shots=shots, seed=11)[upper] * shots)
        sigma = np.sqrt(shots * p * (1.0 - p))
        # Every count within 5 sigma of shots * p0, sigma floored at one count
        # for the few near-duplicate pairs; beyond 5 sigma has probability
        # about 6e-7 per pair under N(0, 1).
        assert np.all(np.abs(counts - shots * p) <= 5.0 * np.maximum(sigma, 1.0))
        # Binomial z-scores have mean 0 and variance 1 exactly. Over M
        # independent pairs the sample mean has standard error 1/sqrt(M) and
        # the sample variance about sqrt(2/M); both must lie within 4 of those.
        z = (counts - shots * p) / sigma
        assert abs(z.mean()) <= 4.0 / np.sqrt(z.size)
        assert abs(z.var() - 1.0) <= 4.0 * np.sqrt(2.0 / z.size)

    @pytest.mark.parametrize("shots", [1000, MAX_SHOTS])
    def test_overlap_that_rounds_above_one_counts_every_shot(self, shots):
        # repeated vectors whose computed overlap is 1 + 4.4e-16; a binomial
        # draw refuses p > 1, so both functions clip it to 1
        fam, x = KernelFamily(2, 1), [3.47, 1.16]
        assert kernel_matrix(fam, [x, x])[0, 1] > 1.0
        assert kernel_matrix(fam, [x, x], shots=shots)[0, 1] == 1.0
        fam, x = KernelFamily(3, 1, Entanglement.FULL), [4.2, 0.7, 0.1]
        assert exact_kernel(fam, x, x) > 1.0
        est = estimate_kernel(fam, x, x, shots)
        assert (est.zero_count, est.estimate) == (shots, 1.0)

    @pytest.mark.parametrize("shots", [0, -3, MAX_SHOTS + 1])
    def test_shots_outside_the_int64_range_are_refused(self, shots):
        fam = KernelFamily(2, 1)
        with pytest.raises(InvalidParameterError, match=f"1..{MAX_SHOTS}"):
            kernel_matrix(fam, [[0.1, 0.2]], shots=shots)
        with pytest.raises(InvalidParameterError, match=f"1..{MAX_SHOTS}"):
            estimate_kernel(fam, [0.1, 0.2], [0.1, 0.2], shots)

    def test_exact_matrix_positive_semidefinite(self, rng):
        fam = KernelFamily(3, 1, Entanglement.FULL)
        data = [sample_features(fam, rng) for _ in range(6)]
        eigs = np.linalg.eigvalsh(kernel_matrix(fam, data))
        assert eigs.min() >= -1e-8

    def test_shot_matrix_converges_to_exact(self, rng):
        fam = KernelFamily(2, 1)
        data = [sample_features(fam, rng) for _ in range(4)]
        exact = kernel_matrix(fam, data)
        errors = [
            np.abs(kernel_matrix(fam, data, shots=s, seed=3) - exact).max()
            for s in (100, 10_000, 1_000_000)
        ]
        assert errors[0] > errors[2]
        assert errors[2] < 3e-3

    def test_empty_dataset(self):
        assert kernel_matrix(KernelFamily(2, 1), []).shape == (0, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_is_a_coded_error(self, bad):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            kernel_matrix(KernelFamily(2, 1), [[bad, 0.1], [0.2, 0.3]])

    @pytest.mark.parametrize(
        "fam, row, refused",
        [
            (KernelFamily(2, 1), [1e200, 1e200], True),  # RZZ angle overflows
            (KernelFamily(3, 1), [1e308, 0.1, 0.2], True),  # RZ angle overflows
            (KernelFamily(3, 1), [1e200, 0.2, 1e200], False),  # only pair (0, 2) overflows
            (KernelFamily(3, 1, Entanglement.FULL), [1e200, 0.2, 1e200], True),
            (KernelFamily(3, 2, Entanglement.FULL), [9e153] * 3, False),  # finite, sum is not
        ],
    )
    @pytest.mark.parametrize("shots", [None, 10])
    def test_overflowing_phase_angle_is_the_oracles_coded_error(self, fam, row, refused, shots):
        data = [row, [0.2, 0.3, 0.4][: fam.n]]
        if refused:
            with pytest.raises(InvalidGateError, match="non-finite"):
                encoding_circuit(fam, row)
            with pytest.raises(InvalidGateError, match="non-finite"):
                kernel_matrix(fam, data, shots=shots)
        else:
            encoding_circuit(fam, row)
            k = kernel_matrix(fam, data, shots=shots)
            assert np.isfinite(k).all() and 0.0 <= k.min() and k.max() <= 1.0 + 1e-12

    def test_first_vector_is_checked_before_the_width_cap(self):
        """At 24 qubits one state fits MAX_ENTRIES but its sign tables do not:
        a bad first vector gets the oracle's error, a good one the bound's,
        before any later vector is read."""
        fam = KernelFamily(24, 1)
        with pytest.raises(InvalidParameterError, match="24"):
            kernel_matrix(fam, [[0.1] * 2])
        with pytest.raises(SimulationCapError, match=re.escape("2^24 x 24 sign tables")):
            kernel_matrix(fam, [[0.1] * 24])
        with pytest.raises(SimulationCapError, match=re.escape("2 x 2^24 encoded states")):
            kernel_matrix(fam, [[0.1] * 24, [0.1] * 2])
