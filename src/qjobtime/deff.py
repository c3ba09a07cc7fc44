"""Effective number of quantum-volume layers of a kernel-circuit family.

A kernel circuit on n qubits with d template repetitions has volumetric area
2*d*n (width times total base layers); the QV circuit with the same area is
the square one of width v = ceil(sqrt(2*d*n)). Normalizing mean transpiled
depth of the kernel circuits by that of width-v QV circuits, and scaling by v,
gives the family's effective layer count:

    d_eff = (mean kernel depth / mean QV depth) * v

Both means are taken on the same coupling map with per-sample derived seeds,
so the result is a deterministic function of (family, map, samples, seed)
regardless of evaluation order.
"""

import math
from collections import namedtuple
from collections.abc import Sequence
from functools import cache, partial

import numpy as np

from .circuit import MAX_SAMPLE_GATES, Circuit, GateKind, check_gates
from .errors import CouplingError, InvalidCircuitError, InvalidParameterError
from .generators import (KernelFamily, kernel_basis_gates, kernel_circuit, qv_basis_gates,
                         qv_circuit, qv_draw, sample_features, seed_stream)
from .model import DEFAULT_KERNEL_SAMPLES, DEFAULT_QV_SAMPLES, FrozenRecord
from .transpile.coupling import CouplingMap
from .transpile.decompose import decompose, rule_profile
from .transpile.route import routed_depths

MAX_SAMPLES = 10_000  # ceiling on every sample count, refused before any circuit is built
_HAAR_SU4 = rule_profile(GateKind.SU4, (3,) * 8)  # eight full dressings, as in a Haar draw


def check_sample_count(name: str, count: int) -> None:
    """Refuse a sample count outside 1..MAX_SAMPLES."""
    if count < 1:
        raise InvalidParameterError(f"{name} must be >= 1, got {count}")
    if count > MAX_SAMPLES:
        raise InvalidParameterError(f"{name} must be <= {MAX_SAMPLES}, got {count}")


def _check_side(name: str, count: int, each: int) -> None:
    """Refuse `count` samples of `each` basis gates per circuit above `MAX_SAMPLE_GATES` in all."""
    check_gates(f"{name} {count} x {each} basis gates per circuit", count * each, MAX_SAMPLE_GATES)


def equivalent_qv_width(n: int, d: int) -> int:
    """Width of the square QV circuit with volumetric area 2*d*n: ceil(sqrt(2dn))."""
    if n < 2 or d < 1:
        raise InvalidParameterError("need n >= 2 and d >= 1")
    area = 2 * d * n
    v = math.isqrt(area)
    return v if v * v == area else v + 1


class DeffEstimate(FrozenRecord, namedtuple(
        "DeffEstimate", "v mean_kernel_depth mean_qv_depth d_eff kernel_samples qv_samples seed")):
    """Depth-normalized effective layer count and the measurements behind it."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


def kernel_features(fam: KernelFamily, seed: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) of kernel sample k, drawn from stream (seed, 0, k)."""
    rng = np.random.default_rng(seed_stream(seed, 0, k))
    return sample_features(fam, rng), sample_features(fam, rng)


class _Samples(Sequence):
    """`count` circuits, sample k drawn by `draw(k)` each time it is read, and
    lowered for d_eff without a draw, from its structure: the (qubits,
    `rule_profile`) entries `structure(k)` on `width` qubits."""

    def __init__(self, count: int, draw, structure, width: int, layers: int):
        self._range, self._draw, self._structure = range(count), draw, structure
        self._width, self._layers = width, layers

    def __len__(self) -> int:
        return len(self._range)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._draw(i) for i in self._range[k]]
        return self._draw(self._range[k])

    def mean_depth(self, cmap: CouplingMap) -> float:
        """Mean routed depth of the samples lowered from their structure, as `np.mean` gives it."""
        return sum(routed_depths(map(self._lowered, self._range), cmap)) / len(self._range)

    def _lowered(self, k: int) -> Circuit:
        entries = self._structure(k)
        return Circuit._trusted(self._width, partial(self._exact_gates, k, entries), self._layers,
                                entries=entries)

    def _exact_gates(self, k: int, entries: list):
        lowered = decompose(self[k])
        if lowered._entries != entries:  # the gates would not be those that were routed
            raise InvalidCircuitError(f"sample {k} does not lower to the structure routed for it")
        return lowered.gates


def sample_kernel_circuits(fam: KernelFamily, count: int, seed: int) -> Sequence[Circuit]:
    """Kernel circuits at `count` independent (x, y) draws, sample k from `kernel_features`;
    all have the structure of sample 0, since their gate kinds and qubits do not depend on them."""
    first = cache(lambda: decompose(kernel_circuit(fam, *kernel_features(fam, seed, 0)))._entries)
    return _Samples(count, lambda k: kernel_circuit(fam, *kernel_features(fam, seed, k)),
                    lambda k: first(), fam.n, 2 * fam.d)


def sample_qv_circuits(width: int, layers: int, count: int, seed: int) -> Sequence[Circuit]:
    """QV circuits, sample k from stream (seed, 1, k). Its structure is its pairs (`qv_draw`),
    each SU4 gate lowered by `_HAAR_SU4`, as a Haar draw's is but for odds of 5e-12 (README)."""
    stream = partial(seed_stream, seed, 1)
    return _Samples(count, lambda k: qv_circuit(width, layers, stream(k)),
                    lambda k: [(p, _HAAR_SU4) for p in qv_draw(width, layers, stream(k))[0]],
                    width, layers)


def effective_layers(
    fam: KernelFamily,
    cmap: CouplingMap,
    kernel_samples: int = DEFAULT_KERNEL_SAMPLES,
    qv_samples: int = DEFAULT_QV_SAMPLES,
    seed: int = 0,
    as_qv_job: bool = False,
) -> DeffEstimate:
    """Estimate the family's effective QV layer count on a coupling map.

    With `as_qv_job` the family describes quantum volume circuits themselves
    (width fam.n, fam.d layers); their effective layer count is the layer
    count, so the depth ratio is pinned to one and d_eff = fam.d exactly.
    """
    if as_qv_job:
        if fam.n > cmap.num_qubits:
            raise CouplingError(f"map has {cmap.num_qubits} qubits, job needs {fam.n}")
        check_sample_count("qv_samples", qv_samples)
        _check_side("qv_samples", qv_samples, qv_basis_gates(fam.n, fam.d))
        mean_depth = sample_qv_circuits(fam.n, fam.d, qv_samples, seed).mean_depth(cmap)
        return DeffEstimate(fam.d, mean_depth, mean_depth, float(fam.d), 0, qv_samples, seed)
    v = equivalent_qv_width(fam.n, fam.d)
    if max(fam.n, v) > cmap.num_qubits:
        raise CouplingError(
            f"map has {cmap.num_qubits} qubits but the comparison needs {max(fam.n, v)}"
        )
    check_sample_count("kernel_samples", kernel_samples)
    check_sample_count("qv_samples", qv_samples)
    _check_side("kernel_samples", kernel_samples, kernel_basis_gates(fam))
    _check_side("qv_samples", qv_samples, qv_basis_gates(v, v))
    kernel_mean = sample_kernel_circuits(fam, kernel_samples, seed).mean_depth(cmap)
    qv_mean = sample_qv_circuits(v, v, qv_samples, seed).mean_depth(cmap)
    return DeffEstimate(
        v, kernel_mean, qv_mean, kernel_mean / qv_mean * v, kernel_samples, qv_samples, seed
    )
