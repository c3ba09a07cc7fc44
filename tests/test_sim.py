import numpy as np
import pytest

import qjobtime.sim as sim
from conftest import random_circuit
from qjobtime.circuit import Circuit, Gate
from qjobtime.errors import InvalidParameterError, SimulationCapError
from qjobtime.generators import Entanglement, KernelFamily, kernel_circuit, sample_features
from qjobtime.sim import (
    estimate_kernel,
    exact_kernel,
    kernel_matrix,
    simulate,
)

FAMILIES = [KernelFamily(n, 2, ent) for n in (1, 2, 3, 4) for ent in Entanglement]


def inverse_cdf_zero_count(fam, x, y, shots, seed_seq):
    """Reference sampler: inverse-CDF draws over the overlap circuit's full
    output distribution, counting those that land on the all-zeros string."""
    cdf = np.cumsum(np.abs(simulate(kernel_circuit(fam, x, y)).amplitudes) ** 2)
    cdf[-1] = max(cdf[-1], 1.0)
    draws = np.random.Generator(np.random.Philox(seed_seq)).random(shots)
    return int(np.count_nonzero(np.searchsorted(cdf, draws, side="right") == 0))


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

    def test_width_cap(self):
        with pytest.raises(SimulationCapError):
            simulate(Circuit(13))
        assert simulate(Circuit(13), max_qubits=13).n == 13


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

    def test_one_simulation_per_vector(self, rng, monkeypatch):
        fam = KernelFamily(2, 1)
        data = [sample_features(fam, rng) for _ in range(4)]
        calls = []
        real = sim.simulate
        monkeypatch.setattr(sim, "simulate", lambda *a, **k: calls.append(1) or real(*a, **k))
        kernel_matrix(fam, data)
        kernel_matrix(fam, data, shots=10)
        assert len(calls) == 8

    @pytest.mark.parametrize("seed", [0, 5, 99])
    def test_shot_counts_match_inverse_cdf_sampler(self, seed):
        rng = np.random.default_rng(seed)
        shots = 300
        for fam in FAMILIES:
            data = [sample_features(fam, rng) for _ in range(3)]
            data.append(data[1])  # a repeated vector: p0 = 1 up to rounding
            k = kernel_matrix(fam, data, shots=shots, seed=seed)
            assert k[1, 3] == 1.0
            for i in range(4):
                for j in range(i + 1, 4):
                    count = inverse_cdf_zero_count(
                        fam, data[i], data[j], shots, np.random.SeedSequence((seed, i, j))
                    )
                    assert k[i, j] == count / shots
                    est = estimate_kernel(fam, data[i], data[j], shots, seed=seed)
                    assert est.zero_count == inverse_cdf_zero_count(
                        fam, data[i], data[j], shots, np.random.SeedSequence(seed)
                    )

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
