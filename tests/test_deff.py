import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qjobtime.deff as deff_mod
from qjobtime.circuit import MAX_SAMPLE_GATES, Gate
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
from qjobtime.generators import (
    Entanglement,
    KernelFamily,
    kernel_basis_gates,
    kernel_circuit,
    qv_circuit,
)
from qjobtime.model import DEFAULT_KERNEL_SAMPLES, DEFAULT_QV_SAMPLES
from qjobtime.transpile import kak
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

    KERNEL_BOUND = MAX_SAMPLE_GATES // 4

    @pytest.mark.parametrize("fam, name, gates, at_bound, bound, unit", [
        (KernelFamily(2, 47), "qv_samples", 43 * 47, {"as_qv_job": True},
         MAX_SAMPLE_GATES, "basis gates"),
        (KernelFamily(100, 10), "kernel_samples", 2 * (2 * 100 + 99) * 11, {"qv_samples": 1},
         KERNEL_BOUND, "gates and references"),
        (KernelFamily(100, 1, Entanglement.FULL), "kernel_samples", 2 * (2 * 100 + 4950) * 2,
         {"qv_samples": 1}, KERNEL_BOUND, "gates and references"),
        (KernelFamily(10, 5), "qv_samples", 43 * 10 * 5, {"kernel_samples": 1},  # v = 10
         MAX_SAMPLE_GATES, "basis gates"),
        (KernelFamily(8, 4), "qv_samples", 43 * 8 * 4, {"kernel_samples": 1},  # v = 8
         MAX_SAMPLE_GATES, "basis gates"),
    ])
    def test_side_bound_is_checked_before_any_draw(self, monkeypatch, fam, name, gates, at_bound,
                                                   bound, unit):
        """samples x count per circuit is worked out before a sample is drawn:
        the most samples under the side's bound reach the sampler, one more is
        refused. QV samples count basis gates against `MAX_SAMPLE_GATES`: they
        may hold 9896 x 47 = 465 112 SU4 gates here (the bound is 465 116 SU4
        gates of 43 basis gates each), and `MAX_SAMPLES` QV samples at v = 8
        (13.76 million) fit. Kernel samples count the gates and gate
        references they hold, 2(2n + |pairs|)(d + 1), against a quarter of it:
        760 samples of n = 100, d = 10 and 242 of the full n = 100, d = 1."""
        class Drawn(Exception):
            pass

        def drawn(*args):
            raise Drawn

        for sampler in ("sample_kernel_circuits", "sample_qv_circuits"):
            monkeypatch.setattr(deff_mod, sampler, drawn)
        most = min(bound // gates, MAX_SAMPLES)
        with pytest.raises(Drawn):
            effective_layers(fam, line_map(100), **{**at_bound, name: most})
        if most == MAX_SAMPLES:
            return
        refusal = (f"{name} {most + 1} x {gates} {unit} per circuit would hold "
                   f"{(most + 1) * gates} {unit}, more than {bound}")
        with pytest.raises(InvalidParameterError, match=refusal):
            effective_layers(fam, line_map(100), **{**at_bound, name: most + 1})

    @pytest.mark.parametrize("fam, counts, name", [
        (KernelFamily(40, 40), {"qv_samples": 10_000, "as_qv_job": True},
         "qv_samples 10000 x 34400"),
        (KernelFamily(100, 10), {"kernel_samples": 10_000, "qv_samples": 1},
         "kernel_samples 10000 x 6578 gates and references"),
        (KernelFamily(100, 10), {"kernel_samples": 1, "qv_samples": 10_000},
         "qv_samples 10000 x 42570"),
    ])
    def test_sample_gates_over_the_ceiling_are_refused_before_any_draw(
        self, monkeypatch, fam, counts, name
    ):
        """samples x gates per circuit is worked out before a sample is drawn."""
        for sampler in ("sample_kernel_circuits", "sample_qv_circuits"):
            monkeypatch.setattr(deff_mod, sampler, lambda *args: pytest.fail("drew a sample"))
        with pytest.raises(InvalidParameterError, match=name):
            effective_layers(fam, line_map(100), seed=0, **counts)

    @pytest.mark.parametrize("fam", [KernelFamily(2, 1), KernelFamily(40, 1, Entanglement.FULL),
                                     KernelFamily(12, 6), KernelFamily(12, 40, Entanglement.FULL)])
    def test_kernel_samples_hold_at_most_110_bytes_per_counted_entry(self, fam):
        """What a kernel side's bound counts, gates plus gate references, is
        what its samples hold: at most 110 B each (about 100 at d = 1, where
        the gates dominate), so a side at the bound holds at most 550 MB."""
        held = 2 * (2 * fam.n + fam.entanglement.pair_count(fam.n)) * (fam.d + 1)
        sample_kernel_circuits(fam, 1, seed=0)  # fill any first-call cache outside the count
        tracemalloc.start()
        try:
            circuits = sample_kernel_circuits(fam, 20, seed=0)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(circuits) == 20 and size <= 110 * 20 * held, size / (20 * held)

    def test_routed_total_over_the_bound_is_refused_after_one_more_circuit(self, monkeypatch):
        """Each side's routed circuits are summed as they are routed; once the
        sum passes `MAX_SAMPLE_GATES` the side is refused with `COUPLING_MAP`,
        so no circuit is routed past the one that crossed it."""
        fam, cmap = KernelFamily(5, 1, Entanglement.FULL), line_map(5)
        first = kernel_circuit(fam, *kernel_features(fam, 0, 0))
        routed = len(route(decompose(first), cmap).circuit)
        assert routed > kernel_basis_gates(fam)  # swaps were added
        route_module = sys.modules["qjobtime.transpile.route"]
        calls = []
        real_route = route_module.route
        monkeypatch.setattr(route_module, "route", lambda *a: calls.append(1) or real_route(*a))
        monkeypatch.setattr(route_module, "MAX_SAMPLE_GATES", 3 * routed)
        effective_layers(fam, cmap, kernel_samples=3, qv_samples=1, seed=0)  # at the bound
        calls.clear()
        refusal = f"the first 4 routed circuits would hold {4 * routed} basis gates, more than"
        with pytest.raises(CouplingError, match=f"{refusal} {3 * routed}"):
            effective_layers(fam, cmap, kernel_samples=10, qv_samples=1, seed=0)
        assert len(calls) == 4


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


def test_effective_layers_runs_no_local_factor_pass(monkeypatch):
    """d_eff reads only the dressing counts of the QV baselines' SU4 gates,
    which the KAK interaction pass gives: the local factors (`factor_kron`)
    of these payloads are computed only once a transpiled circuit's `.gates`
    is read."""
    factored = []
    factor_kron = kak.factor_kron
    monkeypatch.setattr(kak, "factor_kron", lambda m4: factored.append(len(m4)) or factor_kron(m4))
    fam = KernelFamily(4, 3, Entanglement.FULL)
    effective_layers(fam, line_map(8), 3, 3, seed=1)
    effective_layers(fam, line_map(8), qv_samples=3, seed=1, as_qv_job=True)
    assert factored == []
    routed = route(decompose(qv_circuit(5, 3, seed=0)), line_map(6))
    assert factored == []
    assert routed.circuit.gates
    assert factored == [6, 6]  # kron(a1, a0) and kron(b1, b0) of the 6 payloads
