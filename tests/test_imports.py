"""Names bound by imports, read with ``ast`` and never executed.

Every name a module imports is read there, and every name the benchmark
under ``perfbench/`` reads from the package exists.  A benchmark run
that reads a missing name fails as a whole, and its output is not shown
beside the tests, so the names are checked here.
"""

import ast
import importlib
from pathlib import Path

from ncfisher import cli, suite

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
