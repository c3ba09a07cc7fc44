"""Checks on the source tree as a whole: where its size bounds are defined
and documented, and what its modules import."""

import ast
import importlib
import json
import re
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from conftest import SRC, run_python
from qjobtime import cli

ROOT = SRC.parent

# every size bound in the program, each defined once
BOUNDS = {"MAX_SAMPLES", "MAX_GATES", "MAX_SAMPLE_GATES", "MAX_MAP_QUBITS", "MAX_ENTRIES",
          "MAX_SHOTS", "MAX_AMPLITUDE_UPDATES", "MAX_GRID_ROWS"}


def module_level_bounds() -> dict[str, list[str]]:
    """MAX_* name -> the src/ files whose module level assigns it."""
    found = defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name) and target.id.startswith("MAX_"):
                    found[target.id].append(str(path.relative_to(SRC)))
    return found


def test_size_bounds_are_defined_once_and_documented():
    found = module_level_bounds()
    assert set(found) == BOUNDS
    assert all(len(files) == 1 for files in found.values()), dict(found)
    assert found["MAX_GATES"] == found["MAX_SAMPLE_GATES"] == ["qjobtime/circuit.py"]
    readme = (ROOT / "README.md").read_text()
    assert [name for name in sorted(BOUNDS) if f"`{name}`" not in readme] == []


def test_simulator_import_leaves_the_transpiler_unloaded():
    """The simulator and the generators it uses load no transpiler module,
    so `simulate-kernel` compiles none of it, nor `fractions`, which loads
    `decimal` and which only `KernelFamily.aspect_ratio` uses."""
    probe = ("import sys, qjobtime.sim\n"
             "print(sorted(m for m in sys.modules if 'transpile' in m or m == 'fractions'))")
    out = run_python("-c", probe, capture_output=True, check=True)
    assert out.stdout.strip() == "[]"


def absolute_imports(path: Path) -> list[str]:
    """The modules `path` imports by absolute name, at any depth."""
    modules = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return modules


def test_third_party_imports_are_the_declared_dependencies():
    """Every top-level import in src/ outside the standard library and the
    package itself, at any depth, is a dependency pyproject.toml declares."""
    imported = {module.split(".")[0] for path in SRC.rglob("*.py")
                for module in absolute_imports(path)}
    third_party = imported - set(sys.stdlib_module_names) - {"qjobtime"}
    block = re.search(r"^dependencies = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(),
                      re.MULTILINE | re.DOTALL)[1]
    assert third_party == set(re.findall(r'"([A-Za-z0-9_.]+)', block)) == {"numpy"}


def test_records_are_namedtuples_and_circuits_keep_only_their_gates():
    """No module imports `dataclasses`: every value record is a
    `FrozenRecord` namedtuple, and `Circuit` takes its refusal rule. No
    module names a qubit stream, a second representation of a circuit
    beside its gates, nor a second statement of what `GateKind` and
    `Circuit._trusted` state once: the per-kind tables, the lazy
    constructor, and KAK's own H and X. Nor does the lowering batch SU4
    payloads across circuits again."""
    forbidden = {"_stream", "_build_stream", "_unkept_stream", "_entries_stream", "rule_stream",
                 "_ARITY", "_NPARAMS", "_lazy", "KAK_BATCH", "_lower_batch"}
    importers, named = [], []
    for path in sorted(SRC.rglob("*.py")):
        where = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                modules = []
            if "dataclasses" in modules:
                importers.append(where)
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None) or getattr(node, "value", None))
            if isinstance(name, str) and name in forbidden:
                named.append((where, node.lineno, name))
    assert importers == []
    assert named == []
    kak = ast.parse((SRC / "qjobtime" / "transpile" / "kak.py").read_text())
    assigned = {target.id for node in ast.walk(kak) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert assigned.isdisjoint({"_H", "_X"})


def test_nothing_is_left_for_teardown_to_close():
    """`cli.run` ends the process without interpreter teardown, so no module
    may import what leaves work for it: exit hooks, threads, log handlers,
    worker pools and temporary files. A file a command leaves open fails its
    in-process test as a `ResourceWarning`."""
    deferred = {"atexit", "threading", "logging", "multiprocessing", "concurrent", "tempfile"}
    found = [(str(path.relative_to(SRC)), module) for path in sorted(SRC.rglob("*.py"))
             for module in absolute_imports(path) if module.split(".")[0] in deferred]
    assert found == []
    assert '"error::ResourceWarning"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("args, status", [
    (["extrapolate", "--N", ",".join(map(str, range(100, 400))), "--S", "1", "--deff", "2",
      "--clops", "1000"], 0),
    (["predict", "--backend", "ibm_atlantis", "--M", "1", "--S", "1", "--deff", "2"], 3),
], ids=["success", "coded-error"])
def test_run_skips_teardown_and_keeps_every_byte(args, status):
    """An `atexit` hook registered before `cli.run` never runs, yet the run's
    stdout (here over one 8 KiB buffer), its error JSON and its status all
    come out."""
    probe = ("import atexit, sys\nfrom qjobtime import cli\n"
             "atexit.register(print, 'teardown ran')\n"
             f"sys.argv[1:] = {args!r}\ncli.run()")
    proc = run_python("-c", probe, capture_output=True)
    assert proc.returncode == status and "teardown ran" not in proc.stdout + proc.stderr
    if status:
        assert proc.stdout == "" and json.loads(proc.stderr)["error"]["code"] == "BACKEND_NOT_FOUND"
    else:
        lines = proc.stdout.splitlines()
        assert len(lines) == 300 and lines[-1].startswith("N=399 ") and proc.stderr == ""


def test_the_console_script_is_the_entry_that_runs_as_main():
    """`pyproject.toml`'s `qjobtime` script names `cli.run`, the function that
    `python -m qjobtime.cli` calls, so both end their process the same way."""
    tomllib = pytest.importorskip("tomllib")  # the standard library's from Python 3.11
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["qjobtime"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
    block = next(node for node in ast.parse(Path(cli.__file__).read_text()).body
                 if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'")
    assert [ast.unparse(node) for node in block.body] == [f"{name}()"]
