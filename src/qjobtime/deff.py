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
from typing import Sequence

import numpy as np

from .circuit import MAX_SAMPLE_GATES, Circuit, check_gates
from .errors import CouplingError, InvalidParameterError
from .generators import (KernelFamily, kernel_basis_gates, kernel_circuit, qv_basis_gates,
                         qv_circuit, sample_features, seed_stream)
from .model import DEFAULT_KERNEL_SAMPLES, DEFAULT_QV_SAMPLES, FrozenRecord
from .transpile.coupling import CouplingMap
from .transpile.route import transpiled_depths

MAX_SAMPLES = 10_000  # ceiling on every sample count, refused before any circuit is built


def check_sample_count(name: str, count: int) -> None:
    """Refuse a sample count outside 1..MAX_SAMPLES."""
    if count < 1:
        raise InvalidParameterError(f"{name} must be >= 1, got {count}")
    if count > MAX_SAMPLES:
        raise InvalidParameterError(f"{name} must be <= {MAX_SAMPLES}, got {count}")


def _check_side(name: str, count: int, each: int, bound: int, unit: str = "basis gates") -> None:
    """Refuse `count` samples of `each` `unit` per circuit above `bound` in all."""
    check_gates(f"{name} {count} x {each} {unit} per circuit", count * each, bound, unit=unit)


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


def sample_kernel_circuits(fam: KernelFamily, count: int, seed: int) -> list[Circuit]:
    """Kernel circuits at `count` independent (x, y) draws."""
    return [kernel_circuit(fam, *kernel_features(fam, seed, k)) for k in range(count)]


def sample_qv_circuits(width: int, layers: int, count: int, seed: int) -> list[Circuit]:
    """QV circuits, sample k from stream (seed, 1, k)."""
    return [qv_circuit(width, layers, seed_stream(seed, 1, k)) for k in range(count)]


def mean_transpiled_depth(circuits: Sequence[Circuit], cmap: CouplingMap) -> float:
    if not circuits:
        raise InvalidParameterError("need at least one circuit")
    return float(np.mean(transpiled_depths(circuits, cmap)))


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
        _check_side("qv_samples", qv_samples, qv_basis_gates(fam.n, fam.d), MAX_SAMPLE_GATES)
        circuits = sample_qv_circuits(fam.n, fam.d, qv_samples, seed)
        mean_depth = mean_transpiled_depth(circuits, cmap)
        return DeffEstimate(
            fam.d, mean_depth, mean_depth, float(fam.d), 0, qv_samples, seed
        )
    v = equivalent_qv_width(fam.n, fam.d)
    if max(fam.n, v) > cmap.num_qubits:
        raise CouplingError(
            f"map has {cmap.num_qubits} qubits but the comparison needs {max(fam.n, v)}"
        )
    check_sample_count("kernel_samples", kernel_samples)
    check_sample_count("qv_samples", qv_samples)
    kernel_basis_gates(fam)
    # kernel samples are all built before any is lowered; each holds 2(2n + |pairs|) gates
    # of up to 210 B, shared by its d rounds, and d times as many 8 B references (tracemalloc):
    # MAX_SAMPLE_GATES / 4 of both hold at most about 540 MB, and 4 times their count passes
    # the side's basis gates
    held = 2 * (2 * fam.n + fam.entanglement.pair_count(fam.n)) * (fam.d + 1)
    _check_side("kernel_samples", kernel_samples, held, MAX_SAMPLE_GATES // 4, "gates and references")
    _check_side("qv_samples", qv_samples, qv_basis_gates(v, v), MAX_SAMPLE_GATES)
    kernel_mean = mean_transpiled_depth(sample_kernel_circuits(fam, kernel_samples, seed), cmap)
    qv_mean = mean_transpiled_depth(sample_qv_circuits(v, v, qv_samples, seed), cmap)
    return DeffEstimate(
        v, kernel_mean, qv_mean, kernel_mean / qv_mean * v, kernel_samples, qv_samples, seed
    )
