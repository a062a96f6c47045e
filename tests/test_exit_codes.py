"""The exit-code contract of ``cli.run``, on drawn models and small argvs.

Every command exits 0 or 2: the drawn inputs plant no defect, and each
verdict is judged on a residual relative to its own scale, so no correct
run fails on the size of its numbers alone.  Stdout is strict JSON
exactly when the exit code is 0, and empty when it is 2; no exception
escapes, a numpy ``RuntimeWarning`` included; and no refusal comes from
the strict-JSON guard, which is the last line of defence rather than an
input check.
The models are valid half-mode configs whose weights span 300 decades,
so that the input bounds, not the draws, keep the arithmetic finite.
"""
import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from ncfisher.cli import run

TIMES = ["-1", "-3/4", "-1/2", "0", "1/2", "3/4", "1"]


@st.composite
def model_configs(draw):
    gens = []
    for i in range(draw(st.integers(1, 2))):
        xs = draw(st.lists(st.floats(0, 1), min_size=1, max_size=2,
                           unique=True))
        atoms = [{"x": x, "w": 10.0 ** draw(st.integers(-150, 150))}
                 for x in xs]
        gens.append({"name": f"g{i}", "mode": "half", "atoms": atoms})
    return {"generators": gens}


def joined(values):
    return ",".join(str(v) for v in values)


@st.composite
def argvs(draw, ids):
    """A small argv of a drawn command over the generator ``ids``."""
    gen = st.sampled_from(ids)
    time = st.sampled_from(TIMES)
    # the family solves put the target letter at time 0
    grid = ["0", *draw(st.lists(time.filter(lambda t: t != "0"),
                                max_size=2, unique=True))]
    degree = ["--degree", str(draw(st.integers(1, 3)))]
    basis = ["--grid", joined(grid), *degree]
    gens = ["--gens", joined(draw(st.lists(gen, min_size=1, unique=True)))]
    count = ["--count", str(draw(st.integers(1, 5))),
             "--seed", str(draw(st.integers(0, 9))),
             "--target", draw(gen)]

    def word(families):
        letters = draw(st.lists(
            st.tuples(st.sampled_from(families), gen, time),
            min_size=1, max_size=6))
        return " ".join(f"{f}{g}:{t}" for f, g, t in letters)

    command = draw(st.sampled_from([
        "check-kms", "moment", "conjugate", "fisher", "cramer-rao",
        "chi-star", "verify-lemma2", "verify-core", "brownian", "bound",
        "covariance", "suite"]))
    if command == "check-kms":
        points = st.lists(st.floats(-5, 5), min_size=1, max_size=3)
        rest = ["--grid", joined(draw(points))]
    elif command == "moment":
        rest = ["--word", word("XY")]
    elif command == "conjugate":
        target = draw(gen)
        others = [g for g in ids if g != target]
        rest = [*basis, "--target", target, "--b-gens", joined(others),
                "--time", draw(st.sampled_from(grid))]
    elif command in ("fisher", "cramer-rao"):
        rest = [*basis, *gens]
    elif command == "chi-star":
        rest = [*basis, *gens,
                "--tail-cutoff", str(draw(st.floats(0.0, 100.0)))]
    elif command == "verify-lemma2":
        rest = [*count, *degree]
    elif command == "verify-core":
        rest = [*count, "--x-degree", str(draw(st.integers(1, 3)))]
    elif command == "brownian":
        rest = ["--word", word("X"), "--order", str(draw(st.integers(0, 3)))]
    elif command == "bound":
        return ["bound", "--alpha", str(draw(st.floats(-1, 2))),
                "--delta", str(draw(st.floats(-1, 2)))]
    elif command == "covariance":
        rest = [*basis, "--target", draw(gen), "--shift", draw(time)]
    else:
        return ["suite", "--seed", str(draw(st.integers(0, 3)))]
    return [command, *rest]


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("model") / "model.json"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_every_command_keeps_the_exit_code_contract(path, data):
    config = data.draw(model_configs(), label="model")
    ids = [g["name"] for g in config["generators"]]
    argv = data.draw(argvs(ids), label="argv")
    path.write_text(json.dumps(config))
    if argv[0] not in ("bound", "suite"):
        argv += ["--model", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(argv)
    assert code in (0, 2), out.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    else:
        strict_json(out.getvalue())
    assert "JSON compliant" not in err.getvalue()


@pytest.mark.parametrize("depth", [1_000, 100_000])
def test_a_deeply_nested_model_file_is_a_usage_error(tmp_path, capsys,
                                                     depth):
    # json.load gives up on it with a RecursionError, which must not
    # escape as a traceback and exit 1, the code of a failed assertion
    path = tmp_path / "nested.json"
    path.write_text('{"generators": ' + "[" * depth + "]" * depth + "}")
    assert run(["moment", "--word", "X:0 X:0", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: JSON in {path} is nested too deeply to read"]
