"""Per-layer spans recorded from outside the program.

Pass-through wrappers are installed on the public functions of each
`qjobtime` module at the names their callers look up (a function imported
with `from .x import f` is looked up in the importing module), so nothing
under `src/` changes. A span is (name, start, end, parent, op); counts are
derived from arguments and return values after the op ends, outside every
timed interval, and the wrappers return exactly what the wrapped function
returned.
"""

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_route(fn, result, args, kwargs):
    return {"swaps": result.swap_count, "gates_out": len(result.circuit.gates)}


def _count_decompose(fn, result, args, kwargs):
    circuit = _bound(fn, args, kwargs)["c"]
    return {
        "gates_in": len(circuit.gates),
        "gates_out": len(result.gates),
        "cx_out": sum(1 for g in result.gates if g.kind.value == "CX"),
    }


def _count_gates(fn, result, args, kwargs):
    return {"gates_out": len(result.gates)}


def _count_qv_baseline(fn, result, args, kwargs):
    b = _bound(fn, args, kwargs)
    return {"circuits": len(result), "key": (b["width"], b["layers"], b["count"], int(b["seed"]))}


def _count_kernel_batch(fn, result, args, kwargs):
    return {"circuits": len(result)}


def _count_depth(fn, result, args, kwargs):
    return {"total": result}


def _count_simulate(fn, result, args, kwargs):
    c = _bound(fn, args, kwargs)["c"]
    return {"gate_applications": len(c.gates), "amplitude_updates": len(c.gates) * 2**c.width}


def _count_kernel_matrix(fn, result, args, kwargs):
    b = _bound(fn, args, kwargs)
    n = len(b["dataset"])
    return {"shots": (b.get("shots") or 0) * (n * (n - 1) // 2)}


def _count_rows(fn, result, args, kwargs):
    return {"rows": len(result)}


# (module, attribute, span name, counter). Several sites share a span name
# when one function is bound in more than one caller.
SITES = [
    ("qjobtime.transpile.route", "route", "transpile.route", _count_route),
    ("qjobtime.transpile.route", "decompose", "transpile.decompose", _count_decompose),
    ("qjobtime.transpile.decompose", "kak_decompose", "transpile.kak_decompose", None),
    ("qjobtime.deff", "effective_layers", "deff.effective_layers", None),
    ("qjobtime.deff", "sample_kernel_circuits", "deff.sample_kernel_circuits", _count_kernel_batch),
    ("qjobtime.deff", "sample_qv_circuits", "deff.qv_baseline", _count_qv_baseline),
    ("qjobtime.deff", "kernel_circuit", "generators.kernel_circuit", _count_gates),
    ("qjobtime.deff", "qv_circuit", "generators.qv_circuit", _count_gates),
    ("qjobtime.circuit", "Circuit.depth", "circuit.depth", _count_depth),
    ("qjobtime.sim", "simulate", "sim.simulate", _count_simulate),
    ("qjobtime.sim", "kernel_circuit", "generators.kernel_circuit", _count_gates),
    ("qjobtime.cli", "kernel_matrix", "sim.kernel_matrix", _count_kernel_matrix),
    ("qjobtime.cli", "kernel_circuit", "generators.kernel_circuit", _count_gates),
    ("qjobtime.cli", "qv_circuit", "generators.qv_circuit", _count_gates),
    ("qjobtime.cli", "simulate_job_runtime", "execsim.simulate_job_runtime", None),
    ("qjobtime.cli", "fit_params", "execsim.fit_params", None),
    ("qjobtime.cli", "load_runtime_records", "records.load_runtime_records", _count_rows),
    ("qjobtime.cli", "score", "model.score", None),
    ("qjobtime.cli", "predict_runtime", "model.predict_runtime", None),
    ("qjobtime.cli", "extrapolate", "model.extrapolate", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "result", "call")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.counts = {}
        self.result = self.call = None


class Tracer:
    """Spans of one traced pass, kept in memory in call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        span = Span(name, self._stack[-1] if self._stack else -1, self.op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counter is not None:
                span.result, span.call = result, (fn, counter, args, kwargs)
            return result

        return wrapper

    def finish_op(self):
        """Derive counts for the spans of the current op (outside all timing)."""
        for span in self.spans:
            if span.call is not None and span.op == self.op and not span.counts:
                fn, counter, args, kwargs = span.call
                span.counts = counter(fn, span.result, args, kwargs)

    def release(self):
        """Drop the results and arguments held for counting and checks."""
        for span in self.spans:
            span.result = span.call = None


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for module_name, attr, name, counter in SITES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, tracer.wrap(name, original, counter))
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


def aggregate(spans) -> dict:
    """name -> {s, self_s, calls, <summed numeric counts>}; self time is the
    span minus its direct children (spans nest, so children never overlap)."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out: dict = defaultdict(lambda: defaultdict(float))
    for k, span in enumerate(spans):
        row = out[span.name]
        row["s"] += span.end - span.start
        row["self_s"] += span.end - span.start - child_time[k]
        row["calls"] += 1
        for key, value in span.counts.items():
            if isinstance(value, (int, float)):
                row[key] += value
    return out


# (metric, unit, span name, field); fields come from `aggregate`
_SPAN_METRICS = [
    ("transpile.route.s", "s", "transpile.route", "s"),
    ("transpile.route.calls", "count", "transpile.route", "calls"),
    ("transpile.route.swaps", "count", "transpile.route", "swaps"),
    ("transpile.route.gates_out", "count", "transpile.route", "gates_out"),
    ("transpile.decompose.s", "s", "transpile.decompose", "s"),
    ("transpile.decompose.calls", "count", "transpile.decompose", "calls"),
    ("transpile.decompose.gates_in", "count", "transpile.decompose", "gates_in"),
    ("transpile.decompose.gates_out", "count", "transpile.decompose", "gates_out"),
    ("transpile.decompose.cx_out", "count", "transpile.decompose", "cx_out"),
    ("transpile.kak_decompose.s", "s", "transpile.kak_decompose", "s"),
    ("transpile.kak_decompose.calls", "count", "transpile.kak_decompose", "calls"),
    ("deff.effective_layers.s", "s", "deff.effective_layers", "s"),
    ("deff.effective_layers.self_s", "s", "deff.effective_layers", "self_s"),
    ("deff.effective_layers.calls", "count", "deff.effective_layers", "calls"),
    ("deff.qv_baseline.calls", "count", "deff.qv_baseline", "calls"),
    ("generators.kernel_circuit.s", "s", "generators.kernel_circuit", "s"),
    ("generators.kernel_circuit.calls", "count", "generators.kernel_circuit", "calls"),
    ("generators.qv_circuit.s", "s", "generators.qv_circuit", "s"),
    ("generators.qv_circuit.calls", "count", "generators.qv_circuit", "calls"),
    ("circuit.depth.s", "s", "circuit.depth", "s"),
    ("circuit.depth.calls", "count", "circuit.depth", "calls"),
    ("circuit.depth.total", "count", "circuit.depth", "total"),
    ("sim.simulate.s", "s", "sim.simulate", "s"),
    ("sim.simulate.calls", "count", "sim.simulate", "calls"),
    ("sim.simulate.gate_applications", "count", "sim.simulate", "gate_applications"),
    ("sim.amplitude_updates", "count", "sim.simulate", "amplitude_updates"),
    ("sim.kernel_matrix.s", "s", "sim.kernel_matrix", "s"),
    ("sim.kernel_matrix.self_s", "s", "sim.kernel_matrix", "self_s"),
    ("sim.shots", "count", "sim.kernel_matrix", "shots"),
    ("execsim.simulate_job_runtime.s", "s", "execsim.simulate_job_runtime", "s"),
    ("execsim.simulate_job_runtime.calls", "count", "execsim.simulate_job_runtime", "calls"),
    ("execsim.fit_params.s", "s", "execsim.fit_params", "s"),
    ("execsim.fit_params.calls", "count", "execsim.fit_params", "calls"),
    ("records.load_runtime_records.s", "s", "records.load_runtime_records", "s"),
    ("records.load_runtime_records.rows", "count", "records.load_runtime_records", "rows"),
    ("model.score.calls", "count", "model.score", "calls"),
    ("model.predict_runtime.calls", "count", "model.predict_runtime", "calls"),
    ("cli.command.s", "s", "cli.command", "s"),
    ("cli.self_s", "s", "cli.command", "self_s"),
]
IMPORT_PACKAGES = ("scipy", "numpy", "click", "qjobtime")
PER_LAYER = (
    [(f"setup.import.{pkg}_s", "s") for pkg in IMPORT_PACKAGES]
    + [(name, unit) for name, unit, _, _ in _SPAN_METRICS]
    + [
        ("generators.gates_out", "count"),
        ("deff.qv_baseline.distinct", "count"),
        ("deff.qv_baseline.useful_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
)
COUNT_METRICS = {name for name, unit in PER_LAYER if unit == "count"} | {"deff.qv_baseline.useful_ratio"}


def span_metrics(spans) -> dict[str, float]:
    """Per-layer values of one traced pass (every span metric, 0 when unused)."""
    agg = aggregate(spans)
    out = {name: float(agg[span].get(field, 0.0)) for name, _, span, field in _SPAN_METRICS}
    out["generators.gates_out"] = float(
        agg["generators.kernel_circuit"].get("gates_out", 0.0)
        + agg["generators.qv_circuit"].get("gates_out", 0.0)
    )
    keys = {(s.op, s.counts["key"]) for s in spans if s.name == "deff.qv_baseline"}
    calls = out["deff.qv_baseline.calls"]
    out["deff.qv_baseline.distinct"] = float(len(keys))
    out["deff.qv_baseline.useful_ratio"] = len(keys) / calls if calls else 0.0
    return out


def import_attribution(importtime_stderr: str) -> dict[str, float]:
    """Seconds of import self time per top-level package, from the report of
    `python -X importtime` (self times partition the total import time)."""
    totals = defaultdict(int)
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:"):].split("|", 2)
        if self_us.strip().isdigit():
            totals[name.strip().split(".")[0]] += int(self_us)
    return {pkg: totals[pkg] / 1e6 for pkg in IMPORT_PACKAGES}
