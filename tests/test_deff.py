import importlib
import math
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import mean_transpiled_depth
from hypothesis import given, settings
from hypothesis import strategies as st

import qjobtime.deff as deff_mod
import qjobtime.generators as generators
from qjobtime.circuit import MAX_SAMPLE_GATES, Gate, GateKind
from qjobtime.deff import (
    MAX_SAMPLES,
    DeffEstimate,
    effective_layers,
    equivalent_qv_width,
    kernel_features,
    sample_kernel_circuits,
    sample_qv_circuits,
)
from qjobtime.errors import CouplingError, InvalidCircuitError, InvalidParameterError
from qjobtime.generators import (
    Entanglement,
    KernelFamily,
    kernel_basis_gates,
    kernel_circuit,
    qv_circuit,
    seed_stream,
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
    transpiled_depths,
)
from qjobtime.transpile.decompose import rule_profile
from qjobtime.transpile.route import routed_depths


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

    @pytest.mark.parametrize("fam, name, gates, at_bound", [
        (KernelFamily(2, 47), "qv_samples", 43 * 47, {"as_qv_job": True}),
        (KernelFamily(100, 10), "kernel_samples", 2 * 10 * (4 * 100 + 3 * 99), {"qv_samples": 1}),
        (KernelFamily(100, 1, Entanglement.FULL), "kernel_samples", 2 * (4 * 100 + 3 * 4950),
         {"qv_samples": 1}),
        (KernelFamily(10, 5), "qv_samples", 43 * 10 * 5, {"kernel_samples": 1}),  # v = 10
        (KernelFamily(8, 4), "qv_samples", 43 * 8 * 4, {"kernel_samples": 1}),  # v = 8
    ])
    def test_side_bound_is_checked_before_any_draw(self, monkeypatch, fam, name, gates, at_bound):
        """samples x basis gates per circuit is worked out before a sample is
        drawn: the most samples under `MAX_SAMPLE_GATES` reach the sampler,
        one more is refused. QV samples may hold 9896 x 47 = 465 112 SU4 gates
        here (the bound is 465 116 SU4 gates of 43 basis gates each), and
        `MAX_SAMPLES` QV samples at v = 8 (13.76 million) fit. Kernel samples
        count 2d(4n + 3|pairs|) each: 1434 samples of n = 100, d = 10 and 655
        of the full n = 100, d = 1."""
        class Drawn(Exception):
            pass

        def drawn(*args):
            raise Drawn

        for sampler in ("sample_kernel_circuits", "sample_qv_circuits"):
            monkeypatch.setattr(deff_mod, sampler, drawn)
        most = min(MAX_SAMPLE_GATES // gates, MAX_SAMPLES)
        with pytest.raises(Drawn):
            effective_layers(fam, line_map(100), **{**at_bound, name: most})
        if most == MAX_SAMPLES:
            return
        refusal = (f"{name} {most + 1} x {gates} basis gates per circuit would hold "
                   f"{(most + 1) * gates} basis gates, more than {MAX_SAMPLE_GATES}")
        with pytest.raises(InvalidParameterError, match=refusal):
            effective_layers(fam, line_map(100), **{**at_bound, name: most + 1})

    @pytest.mark.parametrize("fam, counts, name", [
        (KernelFamily(40, 40), {"qv_samples": 10_000, "as_qv_job": True},
         "qv_samples 10000 x 34400"),
        (KernelFamily(100, 10), {"kernel_samples": 10_000, "qv_samples": 1},
         "kernel_samples 10000 x 13940 basis gates"),
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

    def test_samples_are_drawn_each_time_they_are_read(self, monkeypatch):
        """A sampler returns a sequence of `count` circuits that holds none:
        it has the length, indexing (negative and sliced) and iteration of
        a list, and draws sample k, from its stream, each time it is read."""
        fam = KernelFamily(3, 2, Entanglement.FULL)
        drawn = []
        for name in ("kernel_circuit", "qv_circuit"):
            real = getattr(deff_mod, name)
            monkeypatch.setattr(deff_mod, name, lambda *a, _real=real: drawn.append(1) or _real(*a))
        kernel, qv = sample_kernel_circuits(fam, 4, seed=5), sample_qv_circuits(5, 3, 4, seed=5)
        assert (len(kernel), len(qv), drawn) == (4, 4, [])
        assert kernel[2] == kernel[-2] == kernel_circuit(fam, *kernel_features(fam, 5, 2))
        assert qv[3] == qv[-1] == qv_circuit(5, 3, seed_stream(5, 1, 3))
        assert len(drawn) == 4
        assert list(kernel) == [kernel[k] for k in range(4)] == kernel[:]
        assert qv[1:3] == [qv[1], qv[2]] and kernel[5:] == [] and not sample_qv_circuits(5, 3, 0, 5)
        for k in (4, -5):
            with pytest.raises(IndexError):
                kernel[k]

    @pytest.mark.parametrize("fam, cmap, counts", [
        (KernelFamily(8, 26), line_map(8), {"as_qv_job": True}),  # 104 SU4 gates a sample
        (KernelFamily(4, 30), line_map(16), {"qv_samples": 1}),
    ])
    def test_peak_memory_does_not_grow_with_the_sample_count(self, fam, cmap, counts):
        """Each side's samples are drawn as they are lowered, so its peak
        traced memory at 100 samples is within 20% of that at 10: each side
        holds one sample at a time."""
        name = "qv_samples" if counts.get("as_qv_job") else "kernel_samples"
        effective_layers(fam, cmap, **{**counts, name: 2})  # fill first-call caches
        peaks = []
        for samples in (10, 100):
            tracemalloc.start()
            try:
                effective_layers(fam, cmap, **{**counts, name: samples})
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks

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


# d_eff routes each sample from its structure: a kernel sample from the
# entries of sample 0 lowered once, a QV sample from its pairs alone, every
# SU4 gate with eight generic dressings. The gates, when read, are the exact
# lowering of the drawn sample.
STRUCTURE_MAPS = [named_map(name, 13) for name in ("line", "ring", "all-to-all", "heavy-hex-like")]


def _structural_depths(samples, cmap):
    return list(routed_depths(map(samples._lowered, range(len(samples))), cmap))


@pytest.mark.parametrize("v", range(2, 13))
def test_qv_structure_gives_the_full_path_depths(v):
    """The QV side from pairings alone gives the depths of drawing, lowering
    and routing each sample, for widths 2..12, seeds 0..2 and every named
    map kind; its entries are those of the exact lowering."""
    for seed in range(3):
        samples = sample_qv_circuits(v, v, 2, seed)
        for k in range(2):
            assert samples._lowered(k)._entries == decompose(samples[k])._entries, (v, seed, k)
        for cmap in STRUCTURE_MAPS:
            assert _structural_depths(samples, cmap) == transpiled_depths(samples, cmap), (v, seed)


@pytest.mark.parametrize("fam", [KernelFamily(n, d, ent) for ent in Entanglement
                                 for n, d in ((2, 1), (5, 2), (8, 4), (4, 8))])
def test_kernel_structure_gives_the_full_path_depths(fam):
    """Every kernel sample routed with the entries of sample 0 has the depth
    of its own lowering, on every named map kind."""
    samples = sample_kernel_circuits(fam, 4, seed=3)
    for k in range(4):
        assert samples._lowered(k)._entries == decompose(samples[k])._entries, k
    for cmap in STRUCTURE_MAPS:
        assert _structural_depths(samples, cmap) == transpiled_depths(samples, cmap), cmap


def test_structural_gates_are_the_exact_lowering_or_a_coded_error(monkeypatch):
    """Reading a structural circuit's gates, or its route's, gives the exact
    lowering of the drawn sample; with doctored entries it is refused with
    `INVALID_CIRCUIT` instead of returning gates that were not routed."""
    samples, cmap = sample_qv_circuits(5, 4, 2, seed=1), line_map(6)
    exact = decompose(samples[1])
    assert samples._lowered(1).gates == exact.gates
    assert route(samples._lowered(1), cmap).circuit.gates == route(exact, cmap).circuit.gates
    structure = samples._structure
    fewer = rule_profile(GateKind.SU4, (3,) * 7 + (1,))
    monkeypatch.setattr(samples, "_structure",
                        lambda k: structure(k)[:-1] + [(structure(k)[-1][0], fewer)])
    for read in (lambda: samples._lowered(1).gates,
                 lambda: route(samples._lowered(1), cmap).circuit.gates):
        with pytest.raises(InvalidCircuitError, match="sample 1 does not lower") as info:
            read()
        assert info.value.code == "INVALID_CIRCUIT"


def test_effective_layers_draws_one_kernel_circuit_and_no_haar_matrix(monkeypatch):
    """d_eff draws kernel sample 0 alone and no QV circuit, and makes no Haar
    matrix and no KAK interaction pass, with or without `as_qv_job`."""
    calls = []
    for module, name in ((deff_mod, "kernel_circuit"), (deff_mod, "qv_circuit"),
                         (generators, "_haar_su4"),
                         (importlib.import_module("qjobtime.transpile.kak"), "kak_interaction")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    fam, cmap = KernelFamily(8, 4), heavy_hex_like_map(27)
    est = effective_layers(fam, cmap, seed=2)
    assert calls == ["kernel_circuit"]
    assert effective_layers(fam, cmap, seed=2, as_qv_job=True).mean_qv_depth > 0
    assert calls == ["kernel_circuit"]
    seventh = kernel_circuit(fam, *kernel_features(fam, 2, 7))
    assert est.mean_kernel_depth == transpiled_depth(seventh, cmap)


def test_routing_loop_holds_no_earlier_circuit():
    """`transpiled_depths` drops each lowered and routed circuit before the
    next one is drawn and lowered: its peak traced memory at 30 samples is
    within 5% of that at 10 (104 SU4 gates a sample)."""
    cmap = line_map(8)
    transpiled_depths(sample_qv_circuits(8, 26, 2, 0), cmap)  # fill first-call caches
    peaks = []
    for samples in (10, 30):
        tracemalloc.start()
        try:
            transpiled_depths(sample_qv_circuits(8, 26, samples, 0), cmap)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks


# repr(d_eff) of the two `sweep-kak` families at the CLI's default sample
# counts (25 kernel, 20 QV) on heavy-hex-like:27, computed by drawing every
# sample, lowering it with KAK and routing it
PINNED_BENCH_DEFF = {
    (8, 4, 0): "2.3060796645702304",
    (8, 4, 1): "2.3106209793882106",
    (4, 8, 0): "3.480083857442348",
    (4, 8, 1): "3.486937114349481",
}


def test_pinned_deff_at_the_default_sample_counts():
    cmap = heavy_hex_like_map(27)
    for (n, d, seed), want in PINNED_BENCH_DEFF.items():
        est = effective_layers(KernelFamily(n, d), cmap, seed=seed)
        assert (est.kernel_samples, est.qv_samples) == (DEFAULT_KERNEL_SAMPLES, DEFAULT_QV_SAMPLES)
        assert repr(est.d_eff) == want, (n, d, seed)
