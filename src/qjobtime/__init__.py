"""qjobtime: runtime prediction for quantum-kernel circuit workloads.

The model is four numbers: a job of M circuits with K parameter updates and S
shots, whose circuits carry d_eff effective quantum-volume layers, runs in
M*K*S*d_eff / C seconds on a system with speed C (circuit layer operations
per second). The package builds the circuit families, measures transpiled
depth to derive d_eff, scores predictions against recorded runtimes, and
extrapolates to large-dataset workloads.
"""

from types import ModuleType as _ModuleType

from .circuit import Circuit, Gate, GateKind, read_circuits, write_circuits
from .deff import DeffEstimate, effective_layers, equivalent_qv_width
from .errors import QJobTimeError
from .execsim import StackTimingParams, fit_params, simulate_job_runtime
from .generators import (
    Entanglement,
    KernelFamily,
    aspect_label,
    encoding_circuit,
    haar_su4,
    kernel_circuit,
    qv_circuit,
    sample_features,
)
from .model import (
    BackendSpec,
    JobSpec,
    RuntimeReport,
    builtin_backends,
    clops_from_measurement,
    extrapolate,
    format_duration,
    get_backend,
    kernel_job_size,
    loss_from_ratio,
    predict_runtime,
    required_shots,
    score,
    shot_limited_runtime,
    total_runtime_scaling,
)
from .records import RuntimeRecord, load_runtime_records, save_runtime_records
from .sim import (
    KernelEstimate,
    StateVector,
    circuit_unitary,
    estimate_kernel,
    exact_kernel,
    kernel_matrix,
    simulate,
)
from .transpile import (
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

__version__ = "0.1.0"

# every public name bound above, the submodules aside
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
