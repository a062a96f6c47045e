"""``tools/identity_check.py`` on two temporary checkouts of a stub
package: a ``cli.run`` that prints a fixed report per argv, so each
difference between the two sides is planted on purpose."""
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


def checkout(root: Path, name: str, value=0.1, wall=1.0,
             status="ok") -> Path:
    pkg = root / name / "src" / "ncfisher"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(STUB_CLI.format(value=value, wall=wall,
                                                status=status, odd=ODD))
    return root / name


def check(parent: Path, change: Path):
    return subprocess.run([sys.executable, str(TOOL), str(parent),
                           str(change)], capture_output=True, text=True)


def test_identical_trees_pass(tmp_path):
    proc = check(checkout(tmp_path, "a"), checkout(tmp_path, "b"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # the golden argvs: verify-core and verify-lemma2 at seeds 0-3 and
    # suite at seeds 1-3, then the README moment example on a full-mode
    # model; one sha256 per side
    assert len(lines) > 12
    assert lines[-2].endswith(" verify-lemma2 --degree 6 --seed 3")
    assert lines[-1].endswith(
        " moment --model {model:full-lit} --word X:0 X:1 X:0 X:1")
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
