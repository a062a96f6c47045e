"""Names bound by imports, and the modules a command loads.

Every name a module imports is read there, and every name the benchmark
under ``perfbench/`` reads from the package exists.  A benchmark run
that reads a missing name fails as a whole, and its output is not shown
beside the tests, so the names are checked here, read with ``ast`` and
never executed.  The CLI imports only what a command runs, which a fresh
interpreter shows, and no command loads OpenSSL through ``hashlib``: the
model digest takes SHA-256 from the interpreter's own module.
"""

import ast
import hashlib
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ncfisher import cli, suite
from ncfisher.model import build_model, tracial_model, two_atom_model

ROOT = Path(__file__).resolve().parents[1]


def unread_imports(tree: ast.Module) -> list:
    """The names ``tree`` imports but neither reads, as a name or as the
    base of an attribute, nor lists in its ``__all__``."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.partition(".")[0], node.lineno)
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [(name, line) for name, line in bound if name not in read]


def test_every_imported_name_is_read():
    paths = [*sorted((ROOT / "src" / "ncfisher").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py")),
             *sorted((ROOT / "tools").glob("*.py"))]
    unread = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in paths
              for name, line in unread_imports(ast.parse(path.read_text()))]
    assert unread == []


def package_reads(path: Path) -> set:
    """Each ``<module>.<name>`` that ``path`` reads, as (module, name),
    where ``<module>`` is ``ncfisher`` or a module imported from it by
    name; a dotted module it imports, such as ``ncfisher.cli``, reads as
    (module, "__name__")."""
    tree = ast.parse(path.read_text())
    modules = {}  # bound name -> module
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.partition(".")[0] == "ncfisher":
                    modules["ncfisher"] = "ncfisher"
                    reads.add((a.name, "__name__"))
        elif isinstance(node, ast.ImportFrom) and node.module == "ncfisher":
            for a in node.names:
                modules[a.asname or a.name] = f"ncfisher.{a.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.add((modules[node.value.id], node.attr))
    return reads


def test_the_benchmark_calls_into_the_package_resolve():
    reads = (package_reads(ROOT / "perfbench" / "ops.py")
             | package_reads(ROOT / "perfbench" / "setup_probe.py"))
    # the parse found the calls it is meant to find
    assert {("ncfisher", "build_model"),
            ("ncfisher.conjugate", "solve_conjugate")} <= reads
    missing = [f"{module}.{name}" for module, name in sorted(reads)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
    # the tracer wraps the entries of both in place
    assert isinstance(suite._CHECKS, list)
    assert isinstance(cli._HANDLERS, dict)


# run in a fresh interpreter: the ncfisher modules, and whether numpy and
# hashlib (whose ``_hashlib`` loads OpenSSL) are loaded, after importing
# the CLI, after the commands that need neither the solver, the battery
# nor numpy (the two sampled identity checks among them), and after one
# that solves
LOADED_BY_COMMANDS = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
stages = []

def loaded():
    stages.append(sorted(n for n in sys.modules
                         if n == "ncfisher" or n.startswith("ncfisher."))
                  + [n for n in ("numpy", "hashlib", "_hashlib")
                     if n in sys.modules])

def run(*argvs):
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert ncfisher.cli.run(argv) == 0, argv
    loaded()

import ncfisher.cli
loaded()
run(["moment", "--word", "X:0 X:1 X:0 X:1"], ["check-kms"],
    ["brownian", "--word", "X:0 X:1/2"],
    ["bound", "--alpha", "0.5", "--delta", "0.1"],
    ["verify-lemma2", "--count", "3"], ["verify-core", "--count", "3"])
run(["conjugate"])
print(json.dumps(stages))
"""


def test_a_command_imports_only_what_it_runs():
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_BY_COMMANDS, str(ROOT / "src")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported, unsolved, solved = json.loads(proc.stdout)
    assert imported == ["ncfisher", "ncfisher.algebra", "ncfisher.cli",
                        "ncfisher.model", "ncfisher.moments"]
    assert not {"numpy", "ncfisher.conjugate", "ncfisher.suite"} & set(unsolved)
    assert {"numpy", "ncfisher.conjugate"} <= set(solved)
    for stage in (imported, unsolved, solved):
        assert not {"hashlib", "_hashlib"} & set(stage)


def fresh_stdout(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter, with ``sys`` imported
    and ``src/`` first on its path."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, sys.argv[1]); {code}",
         str(ROOT / "src")], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_state_evaluators_load_neither_numpy_nor_the_solver():
    loaded = fresh_stdout("import ncfisher.moments; print(*sys.modules)")
    assert not {"numpy", "ncfisher.conjugate"} & set(loaded.split())


def three_generator_model():
    return build_model({"generators": [
        {"name": "a", "mode": "half", "atoms": [{"x": 0.18, "w": 0.75}]},
        {"name": "b", "mode": "half",
         "atoms": [{"x": 0.1, "w": 0.5}, {"x": 0.3, "w": 0.2}]},
        {"name": "c", "mode": "half",
         "atoms": [{"x": 0, "w": 0.4}, {"x": 0.28, "w": 0.48}]},
    ]})


def hashlib_digest(m) -> str:
    blob = json.dumps(m.config_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("model", [two_atom_model, tracial_model,
                                   three_generator_model])
def test_the_model_digest_is_hashlibs_sha256(model):
    m = model()
    assert cli._model_digest(m) == hashlib_digest(m)


def test_without_the_interpreters_sha256_the_digest_falls_back_to_hashlib():
    out = fresh_stdout('sys.modules["_sha2"] = sys.modules["_sha256"] = None; '
                       "from ncfisher import cli, model; "
                       'print("hashlib" in sys.modules, '
                       "cli._model_digest(model.two_atom_model()))")
    assert out.split() == ["True", hashlib_digest(two_atom_model())]
