import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qjobtime.deff as deff_mod
from qjobtime.circuit import Gate
from qjobtime.deff import (
    MAX_SAMPLES,
    DeffEstimate,
    effective_layers,
    equivalent_qv_width,
    kernel_features,
    mean_transpiled_depth,
    sample_kernel_circuits,
    sample_qv_circuits,
)
from qjobtime.errors import CouplingError, InvalidParameterError
from qjobtime.generators import Entanglement, KernelFamily, kernel_circuit, qv_circuit
from qjobtime.transpile import (
    all_to_all_map,
    decompose,
    heavy_hex_like_map,
    line_map,
    named_map,
    route,
    transpiled_depth,
)


class TestEquivalentQvWidth:
    def test_perfect_square(self):
        assert equivalent_qv_width(4, 2) == 4

    def test_small(self):
        assert equivalent_qv_width(2, 1) == 2

    def test_forced_arithmetic(self):
        assert equivalent_qv_width(5, 3) == 6

    def test_grid_matches_ceiling(self):
        for n in range(2, 9):
            for d in range(1, 7):
                v = equivalent_qv_width(n, d)
                assert v == math.ceil(math.sqrt(2 * d * n))
                assert v * v >= 2 * d * n > (v - 1) * (v - 1)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            equivalent_qv_width(1, 1)


class TestEffectiveLayers:
    def test_equal_depths_give_v_exactly(self, monkeypatch):
        fam = KernelFamily(4, 2)
        cmap = line_map(4)
        qv_set = sample_qv_circuits(4, 4, 5, seed=0)
        monkeypatch.setattr(deff_mod, "sample_kernel_circuits", lambda *a, **k: qv_set)
        monkeypatch.setattr(deff_mod, "sample_qv_circuits", lambda *a, **k: qv_set)
        est = effective_layers(fam, cmap, kernel_samples=5, qv_samples=5, seed=0)
        assert est.d_eff == float(est.v) == 4.0
        assert est.mean_kernel_depth == est.mean_qv_depth

    def test_qv_job_bypass(self):
        fam = KernelFamily(4, 4)
        est = effective_layers(fam, heavy_hex_like_map(7), seed=1, as_qv_job=True)
        assert est.d_eff == 4.0
        assert est.v == 4
        assert est.mean_kernel_depth == est.mean_qv_depth > 0

    def test_regression_pin(self):
        est = effective_layers(KernelFamily(4, 1, Entanglement.LINEAR), line_map(4), seed=7)
        assert est.v == 3
        assert est.mean_kernel_depth == pytest.approx(26.0, abs=1e-12)
        assert est.mean_qv_depth == pytest.approx(71.1, abs=1e-12)
        assert est.d_eff == pytest.approx(1.0970464135021096, abs=1e-12)

    def test_deterministic(self):
        fam = KernelFamily(3, 1, Entanglement.FULL)
        cmap = line_map(4)
        assert effective_layers(fam, cmap, seed=5) == effective_layers(fam, cmap, seed=5)

    def test_map_too_small(self):
        # v = ceil(sqrt(2*3*6)) = 6 exceeds this map even though n fits
        with pytest.raises(CouplingError):
            effective_layers(KernelFamily(5, 4), line_map(5), seed=0)

    def test_doubling_kernel_depth_doubles_estimate(self):
        fam = KernelFamily(4, 1, Entanglement.LINEAR)
        for cmap in (all_to_all_map(4), line_map(4)):
            circuits = sample_kernel_circuits(fam, 10, seed=3)
            base = mean_transpiled_depth(circuits, cmap)
            doubled = mean_transpiled_depth([c.compose(c) for c in circuits], cmap)
            v = equivalent_qv_width(fam.n, fam.d)
            qv_mean = mean_transpiled_depth(sample_qv_circuits(v, v, 10, seed=3), cmap)
            d_eff = base / qv_mean * v
            d_eff_doubled = doubled / qv_mean * v
            assert d_eff_doubled / d_eff == pytest.approx(2.0, rel=0.01)

    def test_nondecreasing_in_template_count(self):
        cmap = line_map(8)
        for strategy in (Entanglement.LINEAR, Entanglement.FULL):
            vals = [
                effective_layers(KernelFamily(4, d, strategy), cmap, seed=0).d_eff
                for d in (1, 2, 3)
            ]
            assert vals[0] <= vals[1] <= vals[2]

    def test_full_at_least_linear(self):
        cmap = line_map(6)
        for n in (3, 4, 5):
            full = effective_layers(KernelFamily(n, 1, Entanglement.FULL), cmap, seed=2).d_eff
            linear = effective_layers(KernelFamily(n, 1, Entanglement.LINEAR), cmap, seed=2).d_eff
            assert full >= linear

    def test_estimate_fields_consistent(self):
        est = effective_layers(KernelFamily(3, 2, Entanglement.FULL), line_map(4), seed=11)
        assert isinstance(est, DeffEstimate)
        assert est.v == equivalent_qv_width(3, 2)
        assert est.d_eff == pytest.approx(est.mean_kernel_depth / est.mean_qv_depth * est.v)
        assert est.d_eff > 0

    def test_sample_counts_validated(self):
        for counts in ({"kernel_samples": 0}, {"qv_samples": -1}):
            with pytest.raises(InvalidParameterError, match=">= 1"):
                effective_layers(KernelFamily(2, 1), line_map(2), **counts)
        for counts in ({"kernel_samples": MAX_SAMPLES + 1}, {"qv_samples": MAX_SAMPLES + 1}):
            with pytest.raises(InvalidParameterError, match=f"<= {MAX_SAMPLES}"):
                effective_layers(KernelFamily(2, 1), line_map(2), **counts)


SMALL_MAPS = [named_map(name, 6) for name in ("line", "ring", "all-to-all", "heavy-hex-like")]


@settings(max_examples=25, deadline=None)
@given(fam=st.builds(KernelFamily, st.integers(2, 5), st.integers(1, 2),
                     st.sampled_from(list(Entanglement))),
       data=st.data())
def test_kernel_depth_does_not_depend_on_features(fam, data):
    """Every kernel sample of a family has one transpiled depth on each map:
    a kernel circuit's gate kinds and qubits do not depend on (x, y), and
    lowering, routing and depth read only those. This breaks if the 1q-gate
    accounting ever starts to depend on the angles."""
    features = st.lists(st.floats(-10.0, 10.0), min_size=fam.n, max_size=fam.n).map(np.array)
    x, y = data.draw(features), data.draw(features)
    reference = kernel_circuit(fam, *kernel_features(fam, 0, 0))
    for cmap in SMALL_MAPS:
        assert transpiled_depth(kernel_circuit(fam, x, y), cmap) == transpiled_depth(reference, cmap)


def test_effective_layers_builds_no_transpiled_gate(monkeypatch):
    """d_eff reads only qubit streams: lowering and routing build no `Gate`
    (every gate the transpiler builds goes through `Gate._trusted`), while
    reading `.gates` of a transpiled circuit builds them."""
    built = []
    trusted = Gate._trusted.__func__

    def spy(cls, *args):
        built.append(sys._getframe(1).f_globals["__name__"])
        return trusted(cls, *args)

    monkeypatch.setattr(Gate, "_trusted", classmethod(spy))
    effective_layers(KernelFamily(3, 2, Entanglement.FULL), line_map(6), 3, 3, seed=1)
    assert "qjobtime.generators" in built  # the generators' gates are seen
    assert not [name for name in built if name.startswith("qjobtime.transpile")]
    qv = qv_circuit(5, 3, seed=0)
    built.clear()
    routed = route(decompose(qv), line_map(6))
    assert built == []
    assert routed.swap_count > 0 and len(routed.circuit.gates) == len(routed.circuit)
    assert {"qjobtime.transpile.decompose", "qjobtime.transpile.route"} <= set(built)
