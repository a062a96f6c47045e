"""``tools/identity_check.py`` on two temporary checkouts of a stub
package: a ``cli.run`` that prints a fixed report per argv, and library
calls that return fixed values, so each difference between the two sides
is planted on purpose."""
import math
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity_check.py"

# ``VALUE``, ``WALL`` and ``STATUS`` are set per checkout; ``ODD`` names
# the one argv whose value is ``VALUE`` (every other prints 0.1)
STUB_CLI = '''
import json, sys, time

VALUE, WALL, STATUS, ODD = {value!r}, {wall!r}, {status!r}, {odd!r}


def run(argv):
    model = argv[argv.index("--model") + 1] if "--model" in argv else None
    value = VALUE if argv == ODD else 0.1
    print(json.dumps({{
        "command": argv[0],
        "inputs": {{"argv": argv, "model": model}},
        "outputs": {{"value": value, "count": len(argv)}},
        "timings": {{"cpu": time.process_time()}},
        "wall_time_s": WALL,
    }}))
    print("[" + argv[0] + "] " + STATUS, file=sys.stderr)
    return 0
'''

ODD = ["suite", "--seed", "2"]

# the calls of the library ops; ``WORD`` is the value of every 14-letter
# word, the fourth op of each ``words`` cycle
STUB_LIBRARY = {
    "model.py": "def build_model(config):\n    return config\n",
    "algebra.py": ("import collections\n"
                   "Letter = collections.namedtuple('Letter', "
                   "'family gen time')\n"),
    "conjugate.py": '''
import types


def BasisSpec(grid, degree):
    return grid, degree


def solve_conjugate(m, target, basis, b_gens=()):
    return types.SimpleNamespace(kept=(0,), r=0.5, z=0.25, rhs=1.0,
                                 residual=0.0, xi_norm_sq=1.0)


def fisher_multi(m, gens, basis):
    return float(len(gens))


def cramer_rao_audit(m, gens, basis):
    return types.SimpleNamespace(
        lhs=1.0, rhs=1.0,
        solutions=[solve_conjugate(m, g, basis) for g in gens])
''',
    "moments.py": '''
WORD = {word!r}


def evaluate_state(m, letters):
    return complex(WORD if len(letters) == 14 else 0.5)


def evaluate_state_shifted(m, letters, positions, z):
    return 0.5j
''',
}


def checkout(root: Path, name: str, value=0.1, wall=1.0,
             status="ok", word=0.5) -> Path:
    pkg = root / name / "src" / "ncfisher"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(STUB_CLI.format(value=value, wall=wall,
                                                status=status, odd=ODD))
    for module, text in STUB_LIBRARY.items():
        (pkg / module).write_text(text.format(word=word))
    return root / name


def check(parent: Path, change: Path):
    return subprocess.run([sys.executable, str(TOOL), str(parent),
                           str(change)], capture_output=True, text=True)


def test_identical_trees_pass(tmp_path):
    proc = check(checkout(tmp_path, "a"), checkout(tmp_path, "b"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = [line.split(" ", 2)[2] for line in lines]
    # the golden argvs: verify-core and verify-lemma2 at seeds 0-3 and
    # suite at seeds 1-3, the README moment example on a full-mode model,
    # and the refusals, the nested model file last; then the library ops
    # of galerkin and words cycles 0-1; one sha256 per side
    assert len(lines) > 12
    end = names.index("moment --model {model:nested} --word X:0 X:0") + 1
    assert names[end - 15] == "verify-lemma2 --degree 6 --seed 3"
    assert names[end - 14] == (
        "moment --model {model:full-lit} --word X:0 X:1 X:0 X:1")
    assert names[end:end + 2] == ["galerkin[0.0] fisher_multi (3,2)",
                                  "galerkin[0.1] cramer_rao_audit (3,2)"]
    assert len(names) - end == 2 * (9 + 12)
    assert names[-1] == "words[1.11] shifted 20"
    for line in lines:
        parent, change, _ = line.split(" ", 2)
        assert parent == change and len(parent) == 64


def test_a_float_one_bit_off_fails_and_is_named(tmp_path):
    nudged = math.nextafter(0.1, 1.0)
    proc = check(checkout(tmp_path, "a"),
                 checkout(tmp_path, "b", value=nudged))
    assert proc.returncode == 1
    assert proc.stderr.strip() == (
        "differs: suite --seed 2: report.outputs.value")
    differing = [line for line in proc.stdout.splitlines()
                 if line.split(" ")[0] != line.split(" ")[1]]
    assert [line.split(" ", 2)[2] for line in differing] == [" ".join(ODD)]


def test_a_difference_in_wall_time_alone_passes(tmp_path):
    proc = check(checkout(tmp_path, "a", wall=1.0),
                 checkout(tmp_path, "b", wall=2.5))
    assert proc.returncode == 0, proc.stderr


def test_a_difference_in_stderr_alone_fails_and_is_named(tmp_path):
    proc = check(checkout(tmp_path, "a"),
                 checkout(tmp_path, "b", status="FAIL"))
    assert proc.returncode == 1
    assert proc.stderr.strip() == "differs: suite: stderr"


def test_a_library_value_one_bit_off_fails_and_is_named(tmp_path):
    nudged = math.nextafter(0.5, 1.0)
    proc = check(checkout(tmp_path, "a"),
                 checkout(tmp_path, "b", word=nudged))
    assert proc.returncode == 1
    assert proc.stderr.strip() == "differs: words[0.3] state 14: value"
    differing = [line.split(" ", 2)[2] for line in proc.stdout.splitlines()
                 if line.split(" ")[0] != line.split(" ")[1]]
    assert differing == ["words[0.3] state 14", "words[1.3] state 14"]
