"""Command-line interface binding the modules into reproducible runs.

All randomness flows from a single --seed per subcommand; nested seeds are
derived deterministically, so identical invocations produce byte-identical
artifacts. Failures print a machine-readable error JSON on stderr and exit
with the error's code-specific status.
"""

import errno
import json
import os
import sys
from importlib import import_module
from pathlib import Path

import click

from .errors import CouplingError, InvalidParameterError, QJobTimeError
from .model import (
    DEFAULT_KERNEL_SAMPLES,
    DEFAULT_QV_SAMPLES,
    BackendSpec,
    JobSpec,
    builtin_backends,
    extrapolate,
    format_duration,
    get_backend,
    loss_from_ratio,
    predict_runtime,
    registry_from_json,
    registry_to_json,
    score,
)
from .records import (
    holds_prediction_pairs,
    load_dataset,
    load_prediction_pairs,
    load_runtime_records,
    write_csv,
)

# Names the array commands take from the numpy-backed modules, imported on
# first use (PEP 562) so that the other commands load only click and the
# stdlib. Commands call them through `_this`, so a name set on this module
# (as a tracing wrapper is) is the one called. `deff_mod` is the module itself:
# its functions are looked up there on every call.
_LAZY = {
    "write_circuits": "circuit",
    "deff_mod": "deff",
    "StackTimingParams": "execsim",
    "fit_params": "execsim",
    "simulate_job_runtime": "execsim",
    "KernelFamily": "generators",
    "check_kernel_gates": "generators",
    "kernel_circuit": "generators",
    "qv_circuit": "generators",
    "seed_stream": "generators",
    "kernel_matrix": "sim",
    "CouplingMap": "transpile.coupling",
    "named_map": "transpile.coupling",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __package__)
    value = module if name == "deff_mod" else getattr(module, name)
    globals()[name] = value
    return value


_this = sys.modules[__name__]  # this module, also when it runs as __main__


def _echo_json(data, path=None, err: bool = False) -> None:
    """Print `data` as indented JSON with sorted keys; with `path`, write it there too."""
    text = json.dumps(data, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    click.echo(text, err=err)


def _check_out(*paths) -> None:
    """Refuse an output path that cannot be opened for writing (a directory,
    or a file in a missing directory) before the command does any work, so a
    refused command prints nothing and writes no file. `None` paths are skipped."""
    for path in filter(None, paths):
        p = Path(path)
        if p.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not p.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"{what} {path} is not valid JSON: {exc}") from exc


def _load_registry(path) -> dict[str, BackendSpec]:
    if path is None:
        return builtin_backends()
    return registry_from_json(Path(path).read_text())


def _parse_family(text: str):
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"family must be JSON like '{{\"n\":4,\"d\":2}}': {exc}")
    return _this.KernelFamily.from_dict(spec)


def _parse_map(text: str, registry):
    """Accept 'kind:n' (e.g. line:8), 'backend:<name>', or a JSON file path."""
    if ":" in text:
        kind, _, arg = text.partition(":")
        if kind == "backend":
            return get_backend(arg, registry).coupling
        try:
            return _this.named_map(kind, int(arg))
        except ValueError:
            raise CouplingError(f"bad map spec {text!r}; use kind:n, backend:name, or a JSON file")
    p = Path(text)
    if not p.exists():
        raise CouplingError(f"coupling map file {text!r} not found")
    return _this.CouplingMap.from_json(p.read_text())


def _list(text: str, kind=int) -> list:
    """Comma-separated ints (or floats with kind=float); at least one."""
    noun = "integer" if kind is int else "number"
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise InvalidParameterError(f"expected comma-separated {noun}s, got {text!r}")
    if not values:
        raise InvalidParameterError(f"expected at least one {noun} in {text!r}")
    return values


class _App(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except OSError as exc:
            if exc.filename is None:
                raise
            # every path a command reads or writes is one the user gave
            error = InvalidParameterError(f"cannot open {exc.filename}: {exc.strerror}")
        except QJobTimeError as exc:
            error = exc
        _echo_json({"error": {"code": error.code, "message": str(error)}}, err=True)
        ctx.exit(error.exit_code)


@click.group(cls=_App)
@click.option("--config", type=click.Path(exists=True), default=None,
              help="JSON file of per-subcommand flag defaults; explicit flags win.")
@click.pass_context
def main(ctx, config):
    """Predict, score, and extrapolate quantum job runtimes."""
    if config:
        defaults = _read_json(config, "--config")
        if not isinstance(defaults, dict) or not all(isinstance(v, dict) for v in defaults.values()):
            raise InvalidParameterError(
                f"--config {config} must map subcommand names to objects of flag defaults"
            )
        ctx.default_map = defaults


@main.command()
@click.option("--backend", required=True, help="Backend name from the registry.")
@click.option("--registry", type=click.Path(exists=True), default=None,
              help="Backend registry JSON overriding the built-in one.")
@click.option("--M", "m", type=int, required=True, help="Circuits in the job.")
@click.option("--S", "s", type=int, required=True, help="Shots per circuit.")
@click.option("--K", "k", type=int, default=1, show_default=True,
              help="Parameter updates (1 for kernel jobs).")
@click.option("--deff", type=float, required=True, help="Effective QV layer count.")
def predict(backend, registry, m, s, k, deff):
    """Predict a job's wall-clock runtime in seconds."""
    spec = get_backend(backend, _load_registry(registry))
    seconds = predict_runtime(JobSpec(m, s, k, deff), spec)
    click.echo(f"predicted_seconds={seconds!r} (~{format_duration(seconds)})")


@main.command(name="score")
@click.option("--records", "records_path", type=click.Path(exists=True), required=True,
              help="CSV of runs: either T_pred,T_actual or backend,M,S,K,deff,T_seconds.")
@click.option("--registry", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), required=True, help="Report CSV path.")
def score_cmd(records_path, registry, out):
    """Score predictions against recorded runtimes (ratio r, loss L)."""
    _check_out(out)
    rows = []
    if holds_prediction_pairs(records_path):
        for predicted, actual in load_prediction_pairs(records_path):
            rep = score(predicted, actual)
            rows.append([rep.predicted, rep.actual, rep.ratio, rep.loss])
        write_csv(out, ["T_pred", "T_actual", "r", "L"], rows)
    else:
        reg = _load_registry(registry)
        for rec in load_runtime_records(records_path):
            spec = get_backend(rec.backend, reg)
            rep = score(predict_runtime(rec.job, spec), rec.seconds)
            rows.append(
                [rec.backend, rec.job.circuits, rec.job.shots, rec.job.updates,
                 rec.job.d_eff, rep.predicted, rec.seconds, rep.ratio, rep.loss]
            )
        write_csv(
            out,
            ["backend", "M", "S", "K", "deff", "T_pred", "T_actual", "r", "L"],
            rows,
        )
    click.echo(f"scored {len(rows)} run(s) -> {out}")


@main.command(name="deff")
@click.option("--family", required=True, help='Family JSON, e.g. {"n":4,"d":2,"entanglement":"linear"}.')
@click.option("--map", "map_spec", required=True,
              help="Coupling map: kind:n (line, ring, all-to-all, heavy-hex-like), backend:name, or JSON file.")
@click.option("--registry", type=click.Path(exists=True), default=None)
@click.option("--kernel-samples", type=int, default=DEFAULT_KERNEL_SAMPLES, show_default=True)
@click.option("--qv-samples", type=int, default=DEFAULT_QV_SAMPLES, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--qv-job", is_flag=True, help="Treat the family as QV circuits (d_eff = d).")
@click.option("--out", type=click.Path(), default=None, help="Also write the JSON here.")
def deff_cmd(family, map_spec, registry, kernel_samples, qv_samples, seed, qv_job, out):
    """Estimate a family's effective QV layer count on a coupling map."""
    _check_out(out)
    fam = _parse_family(family)
    cmap = _parse_map(map_spec, _load_registry(registry))
    est = _this.deff_mod.effective_layers(
        fam, cmap, kernel_samples=kernel_samples, qv_samples=qv_samples,
        seed=seed, as_qv_job=qv_job,
    )
    _echo_json(est.to_dict(), out)


@main.command(name="gen-circuits")
@click.option("--family", default=None, help="Kernel family JSON (random x, y per circuit).")
@click.option("--qv-width", type=int, default=None, help="Generate QV circuits of this width instead.")
@click.option("--qv-layers", type=int, default=None)
@click.option("--count", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def gen_circuits(family, qv_width, qv_layers, count, seed, out):
    """Emit circuits in the line-oriented text format."""
    _check_out(out)
    deff = _this.deff_mod
    deff.check_sample_count("--count", count)
    if family is not None:
        fam = _parse_family(family)
        _this.check_kernel_gates(fam)  # before any feature vector is drawn
        circuits = [
            _this.kernel_circuit(fam, *deff.kernel_features(fam, seed, k)) for k in range(count)
        ]
    elif qv_width is not None:
        if qv_layers is None:
            raise InvalidParameterError("--qv-layers is required with --qv-width")
        circuits = [
            _this.qv_circuit(qv_width, qv_layers, _this.seed_stream(seed, 1, k))
            for k in range(count)
        ]
    else:
        raise InvalidParameterError("provide --family or --qv-width/--qv-layers")
    _this.write_circuits(out, circuits)
    click.echo(f"wrote {len(circuits)} circuit(s) -> {out}")


@main.command(name="simulate-kernel")
@click.option("--family", required=True)
@click.option("--data", "data_path", type=click.Path(exists=True), required=True,
              help="CSV dataset, one feature vector per row, no header.")
@click.option("--shots", default="exact", show_default=True,
              help="Shot count per pair, or 'exact'.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="Kernel matrix CSV path.")
@click.option("--summary", "summary_path", type=click.Path(), default=None,
              help="Write the JSON summary here as well.")
def simulate_kernel(family, data_path, shots, seed, out, summary_path):
    """Compute a pairwise kernel matrix for a dataset (exact or shot-based)."""
    _check_out(out, summary_path)
    import numpy as np

    fam = _parse_family(family)
    dataset = load_dataset(data_path)
    if shots == "exact":
        n_shots = None
    else:
        try:
            n_shots = int(shots)
        except ValueError:
            raise InvalidParameterError(f"--shots must be an integer or 'exact', got {shots!r}")
    matrix = _this.kernel_matrix(fam, dataset, shots=n_shots, seed=seed)
    write_csv(out, [f"k{j}" for j in range(len(dataset))], matrix.tolist())
    eigmin = float(np.linalg.eigvalsh(matrix).min())
    summary = {
        "n": len(dataset),
        "pairs_evaluated": len(dataset) * (len(dataset) - 1) // 2,
        "min_entry": float(matrix.min()),
        "max_entry": float(matrix.max()),
        "mean_entry": float(matrix.mean()),
        "min_eigenvalue": eigmin,
        "positive_semidefinite": bool(eigmin >= -1e-8),
        "shots": n_shots,
    }
    _echo_json(summary, summary_path)


@main.command(name="extrapolate")
@click.option("--N", "n", required=True, help="Dataset size(s), comma separated.")
@click.option("--S", "s", type=int, required=True)
@click.option("--deff", type=float, required=True)
@click.option("--clops", required=True, help="System speed(s), comma separated.")
@click.option("--out", type=click.Path(), default=None, help="Sweep CSV (N, clops, seconds).")
def extrapolate_cmd(n, s, deff, clops, out):
    """Extrapolate whole-dataset kernel runtimes over N and CLOPS grids."""
    _check_out(out)
    rows = []
    for size in _list(n):
        for speed in _list(clops, float):
            rows.append([size, speed, extrapolate(size, s, deff, speed)])
    if out:
        write_csv(out, ["N", "clops", "seconds"], rows)
    for size, speed, seconds in rows:
        click.echo(f"N={size} clops={speed!r} seconds={seconds!r} (~{format_duration(seconds)})")


@main.command(name="sweep")
@click.option("--backend", required=True)
@click.option("--registry", type=click.Path(exists=True), default=None)
@click.option("--params", "params_path", type=click.Path(exists=True), required=True,
              help="Stack timing parameters JSON.")
@click.option("--M", "m", required=True, help="Circuit counts, comma separated.")
@click.option("--S", "s", required=True, help="Shot counts, comma separated.")
@click.option("--families", required=True,
              help='JSON array of family descriptors, e.g. [{"n":4,"d":2,"entanglement":"full"}].')
@click.option("--kernel-samples", type=int, default=DEFAULT_KERNEL_SAMPLES, show_default=True)
@click.option("--qv-samples", type=int, default=DEFAULT_QV_SAMPLES, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def sweep_cmd(backend, registry, params_path, m, s, families,
              kernel_samples, qv_samples, seed, out):
    """Grid of predicted vs simulated runtimes over (family, M, S)."""
    _check_out(out)
    reg = _load_registry(registry)
    spec = get_backend(backend, reg)
    params = _this.StackTimingParams.from_dict(_read_json(params_path, "--params"))
    try:
        descriptors = json.loads(families)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"--families must be a JSON array: {exc}")
    if not isinstance(descriptors, list):
        raise InvalidParameterError(f"--families must be a JSON array, got {families!r}")
    fams = [_this.KernelFamily.from_dict(d) for d in descriptors]
    rows = []
    job_index = 0
    for fam in fams:
        est = _this.deff_mod.effective_layers(
            fam, spec.coupling, kernel_samples=kernel_samples,
            qv_samples=qv_samples, seed=seed,
        )
        aspect = float(fam.aspect_ratio)
        for circuits in _list(m):
            for shots in _list(s):
                job = JobSpec(circuits, shots, 1, est.d_eff)
                predicted = predict_runtime(job, spec)
                simulated = _this.simulate_job_runtime(
                    job, params, _this.seed_stream(seed, 2, job_index)
                )
                ratio = predicted / simulated
                rows.append(
                    [spec.name, circuits, shots, aspect, est.d_eff, predicted, simulated,
                     ratio, loss_from_ratio(ratio)]
                )
                job_index += 1
    write_csv(out, ["backend", "M", "S", "a", "deff", "T_pred", "T_sim", "r", "L"], rows)
    click.echo(f"swept {len(rows)} job(s) -> {out}")


@main.command(name="fit")
@click.option("--records", "records_path", type=click.Path(exists=True), required=True)
@click.option("--fix-t-job", type=float, default=None,
              help="Pin the per-job overhead (needed when every record shares one M).")
@click.option("--out", type=click.Path(), default=None)
def fit_cmd(records_path, fix_t_job, out):
    """Calibrate stack timing parameters from recorded runtimes."""
    _check_out(out)
    records = load_runtime_records(records_path)
    params = _this.fit_params([(r.job, r.seconds) for r in records], fix_t_job=fix_t_job)
    _echo_json(params.to_dict(), out)


@main.group()
def backends():
    """Inspect or export the backend registry."""


@backends.command(name="list")
@click.option("--registry", type=click.Path(exists=True), default=None)
def backends_list(registry):
    reg = _load_registry(registry)
    click.echo(f"{'name':<16} {'qubits':>6} {'QV':>5} {'CLOPS':>8} {'QV layers':>9}")
    for name in sorted(reg):
        b = reg[name]
        click.echo(
            f"{b.name:<16} {b.num_qubits:>6} {b.quantum_volume:>5} {b.clops:>8.0f} {b.qv_layers:>9}"
        )


@backends.command(name="export")
@click.option("--registry", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), required=True)
def backends_export(registry, out):
    _check_out(out)
    reg = _load_registry(registry)
    Path(out).write_text(registry_to_json(reg) + "\n")
    click.echo(f"exported {len(reg)} backend(s) -> {out}")


if __name__ == "__main__":
    main(sys.argv[1:])
