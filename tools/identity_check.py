"""Check that two checkouts print the same CLI reports and compute the
same library results, bit for bit.

    python tools/identity_check.py PARENT CHANGE

PARENT and CHANGE are two checkouts of the repository.  Each runs in one
fresh ``python`` subprocess with that checkout's ``src/`` and this
repository's ``tests/``, ``perfbench/`` and ``tools/`` first on
``sys.path``, and BLAS at one thread, as in the benchmark.  There it
replays the golden argvs through the golden runner (``replay`` of
``tests/golden_reports.py``), so both sides run the same argvs on the
same model configs, and then runs the library ops of :func:`library_ops`.
This process never imports ``ncfisher``.

Each argv's exit code, report and stderr text are compared as JSON, as
the runner leaves them: without the report's host keys and
``inputs.model``, and with the models' directory written as a
placeholder.  A float that differs in one bit prints differently, so it
differs here.  Each library op is compared by the sha256 of the bytes of
each field of its result.  The tool prints one sha256 per argv or op and
side, and exits 0 when every argv and op matches, or 1 naming the first
argv that differs and its differing keys, or else the first op that
differs and its differing fields.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PATHS = [ROOT / "tests", ROOT / "perfbench", ROOT / "tools"]

#: the benchmark workloads, cycles and seed of the library ops
LIBRARY_CYCLES = {"galerkin": 2, "words": 2}
LIBRARY_SEED = 11

#: runs in each checkout, with its ``src/`` and ``PATHS`` as arguments:
#: prints the golden runs and the library ops' digests as JSON
RUNNER = ("import json, sys; sys.path[:0] = sys.argv[1:]; "
          "from golden_reports import replay; import identity_check; "
          "json.dump([replay(), identity_check.library_ops()], sys.stdout)")


def field_digest(value) -> str:
    """sha256 of the bits of one field of a library result: a number's
    doubles, an array's dtype, shape and bytes, or another value's
    repr."""
    if isinstance(value, (float, complex)):
        z = complex(value)
        data = struct.pack("<dd", z.real, z.imag)
    elif hasattr(value, "tobytes"):
        data = f"{value.dtype}{value.shape}".encode() + value.tobytes()
    else:
        data = repr(value).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def solution_fields(sol, prefix: str = "") -> dict:
    """The fields of a Galerkin solution that the op digests."""
    return {f"{prefix}{name}": getattr(sol, name)
            for name in ("kept", "r", "z", "rhs", "residual", "xi_norm_sq")}


def galerkin_fields(op: dict, result) -> dict:
    """The result fields of a ``galerkin`` op: a solution's, the value of
    ``fisher_multi``, or both sides and every solution of
    ``cramer_rao_audit``."""
    if op["kind"] == "solve_conjugate":
        return solution_fields(result)
    if op["kind"] == "fisher_multi":
        return {"value": result}
    fields = {"lhs": result.lhs, "rhs": result.rhs}
    for g, sol in zip(op["gens"], result.solutions):
        fields.update(solution_fields(sol, f"{g['name']}."))
    return fields


def library_ops() -> list:
    """The ``galerkin`` and ``words`` ops of ``LIBRARY_CYCLES`` at
    ``LIBRARY_SEED``, from this repository's ``perfbench/inputs.py``, each
    prepared and called by ``perfbench/ops.py`` on the ``ncfisher`` first
    on ``sys.path``: one ``{"op", "fields"}`` per op, ``fields`` mapping
    each field of its result (a ``words`` op's is its value) to its
    :func:`field_digest`.  Runs only in a checkout's subprocess."""
    import inputs
    import ops

    out = []
    for workload, count in LIBRARY_CYCLES.items():
        for cycle in range(count):
            for i, op in enumerate(
                    inputs.CYCLES[workload](LIBRARY_SEED, cycle)):
                if workload == "galerkin":
                    fields = galerkin_fields(
                        op, ops.prepare_galerkin(op).call())
                else:
                    fields = {"value": ops.prepare_words(op).call()}
                out.append({"op": f"{workload}[{cycle}.{i}] {op['label']}",
                            "fields": {k: field_digest(v)
                                       for k, v in fields.items()}})
    return out


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
    env = {**os.environ, **dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")}
    (parent, parent_ops), (change, change_ops) = (json.loads(subprocess.run(
        [sys.executable, "-c", RUNNER, str((path / "src").resolve()),
         *map(str, PATHS)], cwd=path, env=env, stdout=subprocess.PIPE,
        text=True, check=True).stdout) for path in (args.parent, args.change))
    # (name, parent side, change side) of each argv's run, then each op's
    # field digests
    pairs = ([(" ".join(a["argv"]), a, b) for a, b in zip(parent, change)]
             + [(a["op"], a["fields"], b["fields"])
                for a, b in zip(parent_ops, change_ops)])
    first = None
    for name, a, b in pairs:
        digests = digest(a), digest(b)
        print(f"{digests[0]} {digests[1]} {name}")
        if first is None and digests[0] != digests[1]:
            first = name, differing_keys(a, b)
    if first is not None:
        name, keys = first
        print(f"differs: {name}: {', '.join(keys)}", file=sys.stderr)
        return 1
    print(f"identical: {len(parent)} argvs, {len(parent_ops)} library ops",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
