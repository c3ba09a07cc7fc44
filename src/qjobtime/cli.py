"""Command-line interface binding the modules into reproducible runs.

All randomness flows from a single --seed per subcommand; nested seeds are
derived deterministically, so identical invocations produce byte-identical
artifacts. Failures, usage errors among them, print a machine-readable error
JSON on stderr and exit with the error's code-specific status.
"""

import argparse
import errno
import json
import math
import os
import sys
from importlib import import_module
from pathlib import Path

from .errors import CouplingError, InvalidParameterError, QJobTimeError
from .model import (DEFAULT_KERNEL_SAMPLES, DEFAULT_QV_SAMPLES, BackendSpec, JobSpec,
                    builtin_backends, extrapolate, format_duration, get_backend, loss_from_ratio,
                    predict_runtime, registry_from_json, registry_to_json, score)
from .records import (holds_prediction_pairs, load_dataset, load_prediction_pairs,
                      load_runtime_records, write_csv)

# Names the array commands take from the numpy-backed modules, imported on
# first use (PEP 562) so that the other commands load only the stdlib.
# Commands call them through `_this`, so a name set on this module (as a
# tracing wrapper is) is the one called. `deff_mod` is the module itself: its
# functions are looked up there on every call.
_LAZY = {
    "write_circuits": "circuit", "deff_mod": "deff", "kernel_matrix": "sim",
    **dict.fromkeys(["StackTimingParams", "fit_params", "simulate_job_runtime"], "execsim"),
    # `kernel_circuit` and `qv_circuit`, unused here (`gen-circuits` draws through `deff`),
    # stay at this module path, where bench/tracing.py wraps them (ROADMAP item 1b)
    **dict.fromkeys(["KernelFamily", "kernel_circuit", "qv_circuit", "seed_stream"], "generators"),
    **dict.fromkeys(["CouplingMap", "named_map"], "transpile.coupling"),
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
    print(text, file=sys.stderr if err else sys.stdout)


def _check_out(*paths) -> None:
    """Refuse an output path that cannot be opened for writing (a directory,
    or a file in a missing directory). `None` paths are skipped."""
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


# most rows one `sweep` or `extrapolate` grid builds and holds: at the bound, a
# one-family sweep took 30 s and an extrapolate 13 s on a 2-CPU host
MAX_GRID_ROWS = 10**6


def _check_grid(what: str, *axes: list) -> None:
    """Refuse a grid over `axes` of more than `MAX_GRID_ROWS` rows."""
    rows = math.prod(map(len, axes))
    if rows > MAX_GRID_ROWS:
        raise InvalidParameterError(f"{what} would build {rows} rows, more than {MAX_GRID_ROWS}")


# name -> (function, options) of each command, where an option is (flag,
# `add_argument` keywords); a group's options are its own table of commands
COMMANDS: dict = {}
# the words click took for an on/off flag's value, as a --config file may give one
_FLAG_WORDS = {**dict.fromkeys(["1", "true", "t", "yes", "y", "on"], True),
               **dict.fromkeys(["0", "false", "f", "no", "n", "off"], False)}


def _command(name: str, *options, table: dict = COMMANDS):
    """Register the decorated function as command `name` of `table`."""
    def register(fn):
        table[name] = (fn, options)
        return fn
    return register


def _opt(flag: str, **kwargs) -> tuple:
    return flag, kwargs


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are `InvalidParameterError`s, with --help
    as its only help flag and no abbreviated flags. Given a `table`, it
    parses one of the table's commands and that command's arguments."""

    def __init__(self, prog: str, description: str, table=None):
        epilog = table and "commands:\n" + "\n".join(
            f"  {name:<16} {fn.__doc__.splitlines()[0]}" for name, (fn, _) in sorted(table.items()))
        super().__init__(prog, description=description, epilog=epilog, add_help=False,
                         allow_abbrev=False, formatter_class=argparse.RawDescriptionHelpFormatter)
        self.add_argument("--help", action="help", help="Show this message and exit.")
        if table:
            self.add_argument("command", nargs="?", metavar="COMMAND", help="a command below")
            self.add_argument("args", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)

    def error(self, message):
        raise InvalidParameterError(f"{self.prog}: {message}")

    def command(self, table: dict, args: list[str]):
        """Parse `args`; return the namespace, the command's name and its table entry."""
        ns = self.parse_args(args)
        if ns.command not in table:
            self.error(f"no such command {ns.command!r}" if ns.command else "missing command")
        return ns, ns.command, table[ns.command]


def _parse(prog: str, fn, options, args: list[str], defaults: dict) -> dict:
    """`fn`'s keyword arguments from `args`. An option not given takes its
    value in `defaults` (the command's --config object), through its type,
    else its own default; a --config value satisfies a required option."""
    parser = _Parser(prog, fn.__doc__)
    for flag, kwargs in options:
        # the keyword is the flag's name in lower snake case (--M is m) unless given
        action = parser.add_argument(flag, **{"dest": flag[2:].replace("-", "_").lower(), **kwargs})
        value = defaults.get(action.dest)
        if value is not None and action.nargs == 0:  # an on/off flag
            action.default = _FLAG_WORDS.get(str(value).strip().lower())
            if action.default is None:
                parser.error(f"--config value {value!r} for {flag} is not true or false")
        elif value is not None:  # argparse passes a string default through the type
            action.required, action.default = False, str(value)
    # a flag that takes a value takes the next word, also one that starts
    # with "-" (--deff -inf, --out -a.csv), which argparse would read as a flag
    takes_value = {flag for flag, kwargs in options if "action" not in kwargs}
    words, joined = iter(args), []
    for word in words:
        value = next(words, None) if word in takes_value else None
        joined.append(word if value is None else f"{word}={value}")
    return vars(parser.parse_args(joined))


def _section(config, defaults, name: str) -> dict:
    """Command `name`'s flag defaults in `defaults`, the object --config `config` holds."""
    if not isinstance(defaults, dict) or not all(isinstance(v, dict) for v in defaults.values()):
        raise InvalidParameterError(
            f"--config {config} must map subcommand names to objects of flag defaults")
    return defaults.get(name, {})


def main(args=None, prog_name: str = "qjobtime", standalone_mode: bool = True):
    """Run the command line `args` (by default `sys.argv[1:]`) and return its
    exit status, or in `standalone_mode` exit with it; a failure prints its
    error JSON on stderr. `main.main` is this function too, as click spelled it."""
    code = 0
    try:
        parser = _Parser(prog_name, "Predict, score, and extrapolate quantum job runtimes.", COMMANDS)
        parser.add_argument("--config", help="JSON of per-subcommand flag defaults; explicit flags win.")
        ns, name, (fn, options) = parser.command(COMMANDS, sys.argv[1:] if args is None else args)
        config, prog = ns.config, f"{prog_name} {name}"
        defaults = _section(config, {} if config is None else _read_json(config, "--config"), name)
        if isinstance(options, dict):  # a group, whose --config object maps its commands to theirs
            ns, name, (fn, options) = _Parser(prog, fn.__doc__, options).command(options, ns.args)
            prog, defaults = f"{prog} {name}", _section(config, defaults, name)
        values = _parse(prog, fn, options, ns.args, defaults)
        # refused before any work, so that a refused command prints and writes nothing
        _check_out(values.get("out"), values.get("summary_path"))
        fn(**values)
    except SystemExit as exc:  # argparse's --help, once the help is printed
        code = exc.code
    except (OSError, QJobTimeError) as exc:
        error = exc
        if isinstance(exc, OSError):
            if exc.filename is None:
                raise
            # every path a command reads or writes is one the user gave
            error = InvalidParameterError(f"cannot open {exc.filename}: {exc.strerror}")
        _echo_json({"error": {"code": error.code, "message": str(error)}}, err=True)
        code = error.exit_code
    if standalone_mode:
        sys.exit(code)
    return code


main.main = main

_DEFAULT = " [default: %(default)s]"
_REGISTRY = _opt("--registry", help="Backend registry JSON overriding the built-in one.")
_SEED = _opt("--seed", type=int, default=0, help=_DEFAULT)
_SAMPLES = (_opt("--kernel-samples", type=int, default=DEFAULT_KERNEL_SAMPLES, help=_DEFAULT),
            _opt("--qv-samples", type=int, default=DEFAULT_QV_SAMPLES, help=_DEFAULT))


@_command("predict",
          _opt("--backend", required=True, help="Backend name from the registry."), _REGISTRY,
          _opt("--M", type=int, required=True, help="Circuits in the job."),
          _opt("--S", type=int, required=True, help="Shots per circuit."),
          _opt("--K", type=int, default=1, help="Parameter updates (1 for kernel jobs)." + _DEFAULT),
          _opt("--deff", type=float, required=True, help="Effective QV layer count."))
def predict(backend, registry, m, s, k, deff):
    """Predict a job's wall-clock runtime in seconds."""
    spec = get_backend(backend, _load_registry(registry))
    seconds = predict_runtime(JobSpec(m, s, k, deff), spec)
    print(f"predicted_seconds={seconds!r} (~{format_duration(seconds)})")


@_command("score",
          _opt("--records", dest="records_path", required=True,
               help="CSV of runs: either T_pred,T_actual or backend,M,S,K,deff,T_seconds."),
          _REGISTRY, _opt("--out", required=True, help="Report CSV path."))
def score_cmd(records_path, registry, out):
    """Score predictions against recorded runtimes (ratio r, loss L)."""
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
            rows.append([rec.backend, rec.job.circuits, rec.job.shots, rec.job.updates,
                         rec.job.d_eff, rep.predicted, rec.seconds, rep.ratio, rep.loss])
        write_csv(out, ["backend", "M", "S", "K", "deff", "T_pred", "T_actual", "r", "L"], rows)
    print(f"scored {len(rows)} run(s) -> {out}")


@_command("deff",
          _opt("--family", required=True,
               help='Family JSON, e.g. {"n":4,"d":2,"entanglement":"linear"}.'),
          _opt("--map", dest="map_spec", required=True, help="Coupling map: kind:n (line, ring, "
               "all-to-all, heavy-hex-like), backend:name, or JSON file."),
          _REGISTRY, *_SAMPLES, _SEED,
          _opt("--qv-job", action="store_true", help="Treat the family as QV circuits (d_eff = d)."),
          _opt("--out", help="Also write the JSON here."))
def deff_cmd(family, map_spec, registry, kernel_samples, qv_samples, seed, qv_job, out):
    """Estimate a family's effective QV layer count on a coupling map."""
    fam = _parse_family(family)
    cmap = _parse_map(map_spec, _load_registry(registry))
    est = _this.deff_mod.effective_layers(fam, cmap, kernel_samples=kernel_samples,
                                          qv_samples=qv_samples, seed=seed, as_qv_job=qv_job)
    _echo_json(est.to_dict(), out)


@_command("gen-circuits",
          _opt("--family", help="Kernel family JSON (random x, y per circuit)."),
          _opt("--qv-width", type=int, help="Generate QV circuits of this width instead."),
          _opt("--qv-layers", type=int),
          _opt("--count", type=int, default=1, help=_DEFAULT), _SEED, _opt("--out", required=True))
def gen_circuits(family, qv_width, qv_layers, count, seed, out):
    """Emit circuits in the line-oriented text format."""
    deff = _this.deff_mod
    deff.check_sample_count("--count", count)
    if family is not None:
        fam = _parse_family(family)
        each = deff.kernel_basis_gates(fam)
        circuits = deff.sample_kernel_circuits(fam, count, seed)
    elif qv_width is not None:
        if qv_layers is None:
            raise InvalidParameterError("--qv-layers is required with --qv-width")
        each = deff.qv_basis_gates(qv_width, qv_layers)
        circuits = deff.sample_qv_circuits(qv_width, qv_layers, count, seed)
    else:
        raise InvalidParameterError("provide --family or --qv-width/--qv-layers")
    # the file's total, refused before any draw: at the bound, about 0.3 GB of QV
    # SU4 lines (650 B per 43 basis gates) or 0.2 GB of kernel lines
    deff._check_side("--count", count, each)
    # each circuit is written as it is built; a refusal comes from the first
    # one, before the file is opened
    _this.write_circuits(out, circuits)
    print(f"wrote {count} circuit(s) -> {out}")


@_command("simulate-kernel",
          _opt("--family", required=True),
          _opt("--data", dest="data_path", required=True,
               help="CSV dataset, one feature vector per row, no header."),
          _opt("--shots", default="exact", help="Shot count per pair, or 'exact'." + _DEFAULT),
          _SEED, _opt("--out", required=True, help="Kernel matrix CSV path."),
          _opt("--summary", dest="summary_path", help="Write the JSON summary here as well."))
def simulate_kernel(family, data_path, shots, seed, out, summary_path):
    """Compute a pairwise kernel matrix for a dataset (exact or shot-based)."""
    import numpy as np

    fam = _parse_family(family)
    dataset = load_dataset(data_path)
    try:
        n_shots = None if shots == "exact" else int(shots)
    except ValueError:
        raise InvalidParameterError(f"--shots must be an integer or 'exact', got {shots!r}")
    matrix = _this.kernel_matrix(fam, dataset, shots=n_shots, seed=seed)
    write_csv(out, [f"k{j}" for j in range(len(dataset))], matrix.tolist())
    eigmin, n = float(np.linalg.eigvalsh(matrix).min()), len(dataset)
    summary = {"n": n, "pairs_evaluated": n * (n - 1) // 2, "min_entry": float(matrix.min()),
               "max_entry": float(matrix.max()), "mean_entry": float(matrix.mean()),
               "min_eigenvalue": eigmin, "positive_semidefinite": bool(eigmin >= -1e-8),
               "shots": n_shots}
    _echo_json(summary, summary_path)


@_command("extrapolate",
          _opt("--N", required=True, help="Dataset size(s), comma separated."),
          _opt("--S", type=int, required=True), _opt("--deff", type=float, required=True),
          _opt("--clops", required=True, help="System speed(s), comma separated."),
          _opt("--out", help="Sweep CSV (N, clops, seconds)."))
def extrapolate_cmd(n, s, deff, clops, out):
    """Extrapolate whole-dataset kernel runtimes over N and CLOPS grids."""
    sizes, speeds = _list(n), _list(clops, float)
    _check_grid("extrapolate", sizes, speeds)
    rows = [[size, speed, extrapolate(size, s, deff, speed)] for size in sizes for speed in speeds]
    if out:
        write_csv(out, ["N", "clops", "seconds"], rows)
    for size, speed, seconds in rows:
        print(f"N={size} clops={speed!r} seconds={seconds!r} (~{format_duration(seconds)})")


@_command("sweep",
          _opt("--backend", required=True), _REGISTRY,
          _opt("--params", dest="params_path", required=True, help="Stack timing parameters JSON."),
          _opt("--M", required=True, help="Circuit counts, comma separated."),
          _opt("--S", required=True, help="Shot counts, comma separated."),
          _opt("--families", required=True, help="JSON array of family descriptors, e.g. "
               '[{"n":4,"d":2,"entanglement":"full"}].'),
          *_SAMPLES, _SEED, _opt("--out", required=True))
def sweep_cmd(backend, registry, params_path, m, s, families,
              kernel_samples, qv_samples, seed, out):
    """Grid of predicted vs simulated runtimes over (family, M, S)."""
    try:
        descriptors = json.loads(families)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"--families must be a JSON array: {exc}")
    if not isinstance(descriptors, list):
        raise InvalidParameterError(f"--families must be a JSON array, got {families!r}")
    circuit_counts, shot_counts = _list(m), _list(s)
    _check_grid("sweep", descriptors, circuit_counts, shot_counts)
    deff = _this.deff_mod
    if len(descriptors) > deff.MAX_SAMPLES:
        raise InvalidParameterError(
            f"--families holds {len(descriptors)} families, more than {deff.MAX_SAMPLES}")
    for flag, counts in (("--M", circuit_counts), ("--S", shot_counts)):
        if min(counts) < 1:
            raise InvalidParameterError(f"{flag} values must be >= 1, got {min(counts)}")
    spec = get_backend(backend, _load_registry(registry))
    params = _this.StackTimingParams.from_dict(_read_json(params_path, "--params"))
    fams = [_this.KernelFamily.from_dict(d) for d in descriptors]
    # the d_eff work of all families, refused before any: at most one `deff` run's two sides
    deff.check_gates(f"the d_eff of {len(fams)} families",
                     sum(deff.side_gates(fam, kernel_samples, qv_samples) for fam in fams),
                     2 * deff.MAX_SAMPLE_GATES)
    rows = []
    for fam in fams:
        est = deff.effective_layers(fam, spec.coupling, kernel_samples=kernel_samples,
                                    qv_samples=qv_samples, seed=seed)
        aspect = 2 * fam.d / fam.n  # float(fam.aspect_ratio), without loading fractions
        for circuits in circuit_counts:
            for shots in shot_counts:
                job = JobSpec(circuits, shots, 1, est.d_eff)
                predicted = predict_runtime(job, spec)
                # each job's jitter is seeded by its row
                simulated = _this.simulate_job_runtime(job, params,
                                                       _this.seed_stream(seed, 2, len(rows)))
                ratio = predicted / simulated
                rows.append([spec.name, circuits, shots, aspect, est.d_eff, predicted, simulated,
                             ratio, loss_from_ratio(ratio)])
    write_csv(out, ["backend", "M", "S", "a", "deff", "T_pred", "T_sim", "r", "L"], rows)
    print(f"swept {len(rows)} job(s) -> {out}")


@_command("fit",
          _opt("--records", dest="records_path", required=True),
          _opt("--fix-t-job", type=float,
               help="Pin the per-job overhead (needed when every record shares one M)."),
          _opt("--out"))
def fit_cmd(records_path, fix_t_job, out):
    """Calibrate stack timing parameters from recorded runtimes."""
    records = load_runtime_records(records_path)
    params = _this.fit_params([(r.job, r.seconds) for r in records], fix_t_job=fix_t_job)
    _echo_json(params.to_dict(), out)


def backends():
    """Inspect or export the backend registry."""


_BACKENDS: dict = {}
COMMANDS["backends"] = (backends, _BACKENDS)


@_command("list", _REGISTRY, table=_BACKENDS)
def backends_list(registry):
    """List the registry's backends."""
    reg = _load_registry(registry)
    print(f"{'name':<16} {'qubits':>6} {'QV':>5} {'CLOPS':>8} {'QV layers':>9}")
    for name in sorted(reg):
        b = reg[name]
        print(f"{b.name:<16} {b.num_qubits:>6} {b.quantum_volume:>5} {b.clops:>8.0f} {b.qv_layers:>9}")


@_command("export", _REGISTRY, _opt("--out", required=True), table=_BACKENDS)
def backends_export(registry, out):
    """Write the registry as JSON."""
    reg = _load_registry(registry)
    Path(out).write_text(registry_to_json(reg) + "\n")
    print(f"exported {len(reg)} backend(s) -> {out}")


if __name__ == "__main__":
    main(sys.argv[1:])
