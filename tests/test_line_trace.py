"""``tools/line_trace.py`` on a temporary stub checkout: a package of
three functions, one that a stub test and the product paths call, one
that only the stub test calls and one that nothing calls."""
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_trace.py"

STUB = {
    "src/ncfisher/__init__.py": '''def used():
    return 1


def test_only():
    return 2


def uncalled():
    return 3
''',
    "tests/test_stub.py": '''import ncfisher


def test_stub():
    assert ncfisher.used() + ncfisher.test_only() == 3
''',
    "tests/golden_reports.py": '''import ncfisher


def replay():
    return [ncfisher.used()]
''',
    "perfbench/inputs.py": '''CYCLES = dict.fromkeys(("galerkin", "words", "cli"),
                       lambda seed, index: [{"models": {}}])
''',
    "perfbench/ops.py": '''import types

import ncfisher


def write_models(models, directory, tag):
    return {}


def prepare_galerkin(op, paths=None):
    return types.SimpleNamespace(call=ncfisher.used,
                                 check=lambda result: None)


prepare_words = prepare_cli = prepare_galerkin
''',
}


def tree(root: Path) -> list:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def test_lines_only_a_test_runs_are_missed_by_the_product_paths(tmp_path):
    for name, text in STUB.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    before = tree(tmp_path)
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the body of test_only is line 6, the body of uncalled line 10
    assert proc.stdout.splitlines()[1:] == [
        "tier-1: exit 0, misses 1 lines",
        "  ncfisher/__init__.py: 10",
        "product paths: exit 0, misses 2 lines",
        "  ncfisher/__init__.py: 6, 10",
    ]
    assert tree(tmp_path) == before
