"""qjobtime: runtime prediction for quantum-kernel circuit workloads.

The model is four numbers: a job of M circuits with K parameter updates and S
shots, whose circuits carry d_eff effective quantum-volume layers, runs in
M*K*S*d_eff / C seconds on a system with speed C (circuit layer operations
per second). The package builds the circuit families, measures transpiled
depth to derive d_eff, scores predictions against recorded runtimes, and
extrapolates to large-dataset workloads.

The names below are re-exported lazily (PEP 562): each defining module is
imported on the first access to one of its names, so `import qjobtime` loads
neither numpy nor the circuit stack.
"""

from importlib import import_module as _import_module

# defining submodule -> the public names re-exported from it
_EXPORTS = {
    "circuit": ("Circuit", "Gate", "GateKind", "read_circuits", "write_circuits"),
    "deff": ("DeffEstimate", "effective_layers", "equivalent_qv_width"),
    "errors": ("QJobTimeError",),
    "execsim": ("StackTimingParams", "fit_params", "simulate_job_runtime"),
    "generators": (
        "Entanglement",
        "KernelFamily",
        "aspect_label",
        "encoding_circuit",
        "haar_su4",
        "kernel_circuit",
        "qv_circuit",
        "sample_features",
    ),
    "model": (
        "BackendSpec",
        "JobSpec",
        "RuntimeReport",
        "builtin_backends",
        "clops_from_measurement",
        "extrapolate",
        "format_duration",
        "get_backend",
        "kernel_job_size",
        "loss_from_ratio",
        "predict_runtime",
        "required_shots",
        "score",
        "shot_limited_runtime",
        "total_runtime_scaling",
    ),
    "records": ("RuntimeRecord", "load_runtime_records", "save_runtime_records"),
    "sim": (
        "KernelEstimate",
        "StateVector",
        "circuit_unitary",
        "estimate_kernel",
        "exact_kernel",
        "kernel_matrix",
        "simulate",
    ),
    "transpile": (
        "CouplingMap",
        "all_to_all_map",
        "decompose",
        "heavy_hex_like_map",
        "line_map",
        "named_map",
        "ring_map",
        "route",
        "transpiled_depth",
        "uses_only_map_edges",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
