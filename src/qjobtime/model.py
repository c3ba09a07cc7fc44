"""The runtime model: CLOPS arithmetic, prediction, scoring, extrapolation.

A system that executes C circuit layers per second should run a job of M
circuits, K parameter updates, S shots, and d_eff effective layers in
M*K*S*d_eff / C seconds, assuming the stack has no fixed overheads. Everything
here is pure arithmetic and thread-safe.
"""

import json
import math
import operator
from collections import namedtuple
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import BackendNotFoundError, InvalidParameterError

if TYPE_CHECKING:
    from .transpile.coupling import CouplingMap

# circuits sampled per d_eff estimate: kernel circuits, and QV circuits of the
# equivalent width (`deff.effective_layers` and the CLI default to these)
DEFAULT_KERNEL_SAMPLES = 25
DEFAULT_QV_SAMPLES = 20


def check_range(name: str, value: float, low: float = -math.inf, *, closed: bool = False) -> None:
    """Refuse `value` unless it is finite and above `low` (or equal to it when
    `closed`); an int beyond float range is refused like inf."""
    try:
        ok = math.isfinite(value) and (value >= low if closed else value > low)
    except OverflowError:
        ok, value = False, "an int beyond float range"
    if not ok:
        bound = "" if low == -math.inf else f" and {'at least' if closed else 'above'} {low:g}"
        raise InvalidParameterError(f"{name} must be finite{bound}, got {value}")


def _check_counts(**counts) -> None:
    """Refuse a count that is not an integer, Python's or numpy's: a float,
    a bool or a string."""
    for name, value in counts.items():
        try:  # a bool is an int, so it is passed on as None, which fails
            operator.index(None if type(value) is bool else value)
        except TypeError:
            raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None


def json_typed(name: str, value, *types: type):
    """`value`, read from parsed JSON, refused with a ValueError unless its type
    is one of `types`: a bool or a string is never a number, a float never an int."""
    if type(value) not in types:  # bool is an int subclass
        kind = "an integer" if types == (int,) else "a number" if int in types else "a string"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


def _finite(what: str, compute) -> float:
    """`compute()`, refused when it is not a finite nonzero float: an int or a
    power beyond float range raises OverflowError, a float product turns inf,
    and a quotient of positive inputs that rounds to 0.0 has underflowed."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InvalidParameterError(f"{what} overflows a float")
    if value == 0.0:  # every caller computes from positive inputs
        raise InvalidParameterError(f"{what} underflows a float")
    return value


class FrozenRecord:
    """The value rules of the records below, mixed into a namedtuple subclass:
    a record equals only a record of its own class with equal fields, hashes
    as the tuple of its fields, is not ordered and, like a `Circuit`, cannot
    be assigned to. Construction runs the class's `_check`; so do `_make`,
    `_replace`, pickling and copying, which rebuild through the constructor."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    def _check(self) -> None:
        """Refuse invalid field values with an `InvalidParameterError`."""

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        # a plain tuple, or another record class with equal fields, is another value
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the inverse of `__eq__`, where tuple's compares fields
    __hash__ = tuple.__hash__

    def _unordered(self, other):
        raise TypeError(f"{type(self).__name__} values are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _make(cls, iterable):
        """The record of a field list (`_replace` builds through this), checked."""
        return cls(*iterable)

    def __reduce__(self):
        # pickling (every protocol) and copying rebuild through the checks
        return type(self), tuple(self)


class BackendSpec(FrozenRecord, namedtuple("BackendSpec", "name num_qubits quantum_volume clops")):
    """A system's capability and speed: qubit count, quantum volume V
    (power of two) and CLOPS C in layers/second. Its coupling map derives
    from the qubit count and is cached in the one `__dict__` a record has."""

    def _check(self):
        _check_counts(num_qubits=self.num_qubits, quantum_volume=self.quantum_volume)
        v = self.quantum_volume
        if v < 2 or v & (v - 1):
            raise InvalidParameterError(f"quantum volume must be a power of two >= 2, got {v}")
        check_range("CLOPS", self.clops, 0.0)
        if self.qv_layers > self.num_qubits:
            raise InvalidParameterError(
                f"log2(V) = {self.qv_layers} exceeds qubit count {self.num_qubits}"
            )

    @property
    def qv_layers(self) -> int:
        """Layer count of this system's quantum volume circuits: log2(V)."""
        return int(self.quantum_volume).bit_length() - 1

    @cached_property
    def coupling(self) -> "CouplingMap":
        """`heavy_hex_like_map(num_qubits)`, built on first read: only d_eff
        estimates route, and a large map's all-pairs tables are costly."""
        from .transpile.coupling import heavy_hex_like_map

        return heavy_hex_like_map(self.num_qubits)

    def to_dict(self) -> dict:
        return self._asdict()


class JobSpec(FrozenRecord, namedtuple("JobSpec", "circuits shots updates d_eff", defaults=(1, 1.0))):
    """The unit whose runtime is predicted: M circuits, each run for S shots,
    with K parameter updates (K=1 for kernel jobs) at d_eff effective layers."""

    __slots__ = ()

    def _check(self):
        _check_counts(circuits=self.circuits, shots=self.shots, updates=self.updates)
        if self.circuits < 1 or self.shots < 1 or self.updates < 1:
            raise InvalidParameterError("JobSpec needs circuits, shots, updates >= 1")
        check_range("d_eff", self.d_eff, 0.0)
        _finite("M*K*S*d_eff", lambda: self.total_layers)

    @property
    def total_layers(self) -> float:
        """Circuit layers the job executes: M*K*S*d_eff."""
        return self.circuits * self.updates * self.shots * self.d_eff


class RuntimeReport(FrozenRecord, namedtuple("RuntimeReport", "predicted actual ratio loss")):
    """Prediction vs reality: ratio r = predicted/actual and the asymmetric
    loss that penalizes under-prediction (r < 1) harder than over-prediction."""

    __slots__ = ()


def clops_from_measurement(circuits: int, layers: int, updates: int, shots: int, elapsed: float) -> float:
    """Layers per second from one timed run: M*D*K*S / T."""
    if min(circuits, layers, updates, shots) < 1:
        raise InvalidParameterError("all job counts must be positive")
    check_range("elapsed time", elapsed, 0.0)
    return _finite("measured CLOPS", lambda: circuits * layers * updates * shots / elapsed)

# the standard speed-measurement job shape: S = M = 100 with K = 10 updates
CLOPS_PROTOCOL = {"circuits": 100, "shots": 100, "updates": 10}


def _seconds(job: JobSpec, clops: float) -> float:
    """M*K*S*d_eff / C, refused when it is not a finite float."""
    return _finite("predicted runtime M*K*S*d_eff / C", lambda: job.total_layers / clops)


def predict_runtime(job: JobSpec, backend: BackendSpec) -> float:
    """Predicted wall-clock seconds: M*K*S*d_eff / C."""
    return _seconds(job, backend.clops)


def loss_from_ratio(ratio: float) -> float:
    """r - 1 when over-predicting (r >= 1), 1/r - 1 when under-predicting."""
    check_range("runtime ratio", ratio, 0.0)
    loss = ratio - 1.0 if ratio >= 1.0 else 1.0 / ratio - 1.0
    check_range("runtime loss", loss)  # 1/r overflows for a subnormal r
    return loss


def score(predicted: float, actual: float) -> RuntimeReport:
    """Score a prediction against a recorded runtime."""
    check_range("predicted runtime", predicted, 0.0)
    check_range("actual runtime", actual, 0.0)
    ratio = predicted / actual
    return RuntimeReport(predicted, actual, ratio, loss_from_ratio(ratio))


def kernel_job_size(n_vectors: int) -> int:
    """Circuits needed for all unordered pairs of a dataset: N*(N-1)/2."""
    _check_counts(N=n_vectors)
    if n_vectors < 2:
        raise InvalidParameterError("a kernel job needs at least 2 feature vectors")
    return n_vectors * (n_vectors - 1) // 2


def extrapolate(n_vectors: int, shots: int, d_eff: float, clops: float) -> float:
    """Predicted seconds to evaluate every pairwise kernel of an N-point dataset."""
    check_range("CLOPS", clops, 0.0)
    return _seconds(JobSpec(kernel_job_size(n_vectors), shots, 1, d_eff), clops)


def _check_shot_law(n_vectors: int, epsilon: float, scale: float) -> None:
    if n_vectors < 2:
        raise InvalidParameterError("need at least 2 feature vectors")
    if not 0 < epsilon <= 1:
        raise InvalidParameterError(f"epsilon must lie in (0, 1], got {epsilon}")
    check_range("scale", scale, 0.0)


def required_shots(n_vectors: int, epsilon: float, scale: float = 1.0) -> int:
    """Shots per kernel entry for generalization error at most epsilon,
    following the N^(8/3) / epsilon^2 law with calibration constant `scale`."""
    _check_shot_law(n_vectors, epsilon, scale)
    shots = _finite("required shots", lambda: scale * n_vectors ** (8.0 / 3.0) / epsilon**2)
    return math.ceil(shots)


def total_runtime_scaling(
    n_vectors: int, epsilon: float, scale: float, d_eff: float, clops: float
) -> float:
    """Asymptotic whole-dataset runtime law, scale * N^(14/3) * d_eff / (C eps^2):
    the N^2 pair count times the per-entry shot requirement."""
    _check_shot_law(n_vectors, epsilon, scale)
    check_range("d_eff", d_eff, 0.0)
    check_range("CLOPS", clops, 0.0)
    return _finite(
        "whole-dataset runtime",
        lambda: scale * n_vectors ** (14.0 / 3.0) * d_eff / (clops * epsilon**2),
    )


def shot_limited_runtime(
    n_vectors: int, epsilon: float, scale: float, d_eff: float, clops: float
) -> float:
    """Exact-count version of the scaling law: every pair at its required shots."""
    return extrapolate(n_vectors, required_shots(n_vectors, epsilon, scale), d_eff, clops)


# -- built-in backend registry ----------------------------------------------

_BUILTIN = (
    # name, qubits, quantum volume, CLOPS (reported rounded to 0.1K)
    ("ibm_hanoi", 27, 64, 2300.0),
    ("ibmq_guadalupe", 16, 32, 2400.0),
    ("ibmq_jakarta", 7, 16, 2400.0),
    ("ibmq_mumbai", 27, 128, 1800.0),
    ("ibmq_toronto", 27, 32, 1800.0),
    ("ibmq_auckland", 27, 64, 2400.0),
)


def builtin_backends() -> dict[str, BackendSpec]:
    return {
        name: BackendSpec(name, n, v, c) for name, n, v, c in _BUILTIN
    }


def get_backend(name: str, registry: dict[str, BackendSpec] | None = None) -> BackendSpec:
    reg = registry if registry is not None else builtin_backends()
    try:
        return reg[name]
    except KeyError:
        raise BackendNotFoundError(
            f"backend {name!r} not in registry; known: {sorted(reg)}"
        ) from None


def registry_to_json(registry: dict[str, BackendSpec]) -> str:
    return json.dumps(
        {"backends": [registry[k].to_dict() for k in sorted(registry)]},
        indent=2,
        sort_keys=True,
    )


def registry_from_json(text: str) -> dict[str, BackendSpec]:
    """Registry from `{"backends": [{"name", "num_qubits", "quantum_volume",
    "clops"}, ...]}`: a string name, integer sizes and a numeric CLOPS, each
    name listed once."""
    registry = {}
    try:
        for e in json.loads(text)["backends"]:
            name = json_typed("name", e["name"], str)
            if name in registry:
                raise ValueError(f"backend {name!r} is listed twice")
            n, v = (json_typed(k, e[k], int) for k in ("num_qubits", "quantum_volume"))
            registry[name] = BackendSpec(name, n, v, float(json_typed("clops", e["clops"], int, float)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"bad backend registry JSON: {exc!r}") from exc
    return registry


def format_duration(seconds: float) -> str:
    """Human-readable magnitude for long runtimes, e.g. '292.3 days'."""
    check_range("duration", seconds, 0.0, closed=True)
    units = (("years", 365.25 * 86400.0), ("days", 86400.0), ("hours", 3600.0), ("minutes", 60.0))
    for label, span in units:
        if seconds >= span:
            return f"{seconds / span:.1f} {label}"
    return f"{seconds:.3g} s"
