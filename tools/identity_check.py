"""Check that two checkouts print the same CLI reports, bit for bit.

    python tools/identity_check.py PARENT CHANGE

PARENT and CHANGE are two checkouts of the repository.  Each replays the
golden argvs through the golden runner (``replay`` of
``tests/golden_reports.py``, of the repository that holds this tool) in
one fresh ``python`` subprocess with that checkout's ``src/`` and this
repository's ``tests/`` first on ``sys.path``, so both sides run the
same argvs on the same model configs.  This process never imports
``ncfisher``.

Each argv's exit code, report and stderr text are compared as JSON, as
the runner leaves them: without the report's host keys and
``inputs.model``, and with the models' directory written as a
placeholder.  A float that differs in one bit prints differently, so it
differs here.  The tool prints one sha256 per argv and side, and exits 0
when every argv matches, or 1 naming the first argv that differs and its
differing keys.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1] / "tests"

#: runs in each checkout, with its ``src/`` and ``TESTS`` as arguments:
#: prints the JSON list of the golden runs
RUNNER = ("import json, sys; sys.path[:0] = sys.argv[1:]; "
          "from golden_reports import replay; json.dump(replay(), sys.stdout)")


def digest(run: dict) -> str:
    text = json.dumps(run, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def differing_keys(a, b, path: str = "") -> list:
    """Dotted paths of the leaves where ``a`` and ``b`` differ, leaves
    compared by their JSON text, so 0.0 differs from -0.0 and 1 from
    1.0."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = sorted(set(a) | set(b))
        return [k for key in keys
                for k in (differing_keys(a[key], b[key], f"{path}.{key}")
                          if key in a and key in b else [f"{path}.{key}"])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [k for i, (x, y) in enumerate(zip(a, b))
                for k in differing_keys(x, y, f"{path}[{i}]")]
    return [] if json.dumps(a) == json.dumps(b) else [path.lstrip(".")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    parent, change = (json.loads(subprocess.run(
        [sys.executable, "-c", RUNNER, str((path / "src").resolve()),
         str(TESTS)], cwd=path, stdout=subprocess.PIPE, text=True,
        check=True).stdout) for path in (args.parent, args.change))
    first = None
    for a, b in zip(parent, change):
        digests = digest(a), digest(b)
        print(f"{digests[0]} {digests[1]} {' '.join(a['argv'])}")
        if first is None and digests[0] != digests[1]:
            first = a["argv"], differing_keys(a, b)
    if first is not None:
        argv, keys = first
        print(f"differs: {' '.join(argv)}: {', '.join(keys)}",
              file=sys.stderr)
        return 1
    print(f"identical: {len(parent)} argvs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
