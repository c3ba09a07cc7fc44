"""Checks on the source tree as a whole: where its size bounds are defined
and documented, and what its modules import."""

import ast
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    probe = ("import sys, qjobtime.sim\n"
             "print(sorted(m for m in sys.modules if 'transpile' in m or m == 'fractions'))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_third_party_imports_are_the_declared_dependencies():
    """Every top-level import in src/ outside the standard library and the
    package itself, at any depth, is a dependency pyproject.toml declares."""
    imported = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
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
