"""Per-layer spans, recorded from the benchmark's side.

:meth:`Tracer.install` wraps, in every ``ncfisher`` module that binds them, the
public functions listed in ``FUNCTIONS`` (a module's own internal calls
go through its binding too), plus three methods and the suite's check
list and the CLI's handler table.  A name that is absent is skipped, so
the tracer keeps working when a later version of the package moves or
drops a function.

Each wrapped call is a span: name, start, end, parent span and op id.
Spans stay in memory and :meth:`Tracer.write` saves them when the run
ends.  Self time is a span's duration minus the durations of the wrapped
calls made inside it; it is accumulated as calls return.  The two
hottest leaves, ``GeneratorSpec.eta`` and ``ModelSpec.gen``, are counted
and timed the same way but not stored as spans, which would take
millions of entries on the ``words`` workload.
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

# (defining module, function, stored as spans)
FUNCTIONS = (
    ("moments", "evaluate_state", True),
    ("moments", "evaluate_state_shifted", True),
    ("moments", "brute_force_oracle", True),
    ("conjugate", "enumerate_basis", True),
    ("conjugate", "solve_conjugate", True),
    ("derivation", "differentiate", True),
    ("derivation", "pair_with_y", True),
    ("brownian", "expand_state", True),
    ("core_cp", "conditional_expectation", True),
    ("core_cp", "verify_core_identity", True),
    ("cli", "run", True),
    ("model", "build_model", False),
)

# a caller's binding that also gets a metric of its own
ALIASES = {
    ("conjugate", "evaluate_state"): "conjugate.gram",
    ("conjugate", "pair_with_y"): "conjugate.rhs",
}

# (owning module, class, method, metric key, stored as spans)
METHODS = (
    ("model", "GeneratorSpec", "eta", "model.eta", False),
    ("model", "ModelSpec", "gen", "model.gen", False),
    ("algebra", "NcPoly", "__mul__", "algebra.NcPoly.mul", True),
)

SUITE_CHECKS = (
    "quasi_free_conjugate", "wick_oracle", "kms", "insertion_identity",
    "brownian", "core_identity", "covariance_selfadjoint",
    "freeness_invariance", "galerkin_monotonicity", "cramer_rao",
    "factoriality_bound",
)
CLI_COMMANDS = (
    "check-kms", "moment", "conjugate", "fisher", "cramer-rao", "chi-star",
    "covariance", "verify-lemma2", "verify-core", "brownian", "suite",
)


def _per_layer() -> list:
    out = [("model.eta.calls", "count"), ("model.eta.self_s", "s"),
           ("model.gen.calls", "count")]

    def calls_self(key):
        out.extend([(f"{key}.calls", "count"), (f"{key}.self_s", "s")])

    for key in ("moments.evaluate_state", "moments.evaluate_state_shifted"):
        calls_self(key)
    out.append(("moments.memo_entries", "count"))
    calls_self("moments.brute_force_oracle")
    out.extend([("conjugate.enumerate_basis.self_s", "s"),
                ("conjugate.basis_size", "count"),
                ("conjugate.kept", "count")])
    calls_self("conjugate.gram")
    calls_self("conjugate.rhs")
    out.append(("conjugate.eigh.self_s", "s"))
    for key in ("conjugate.solve_conjugate", "derivation.differentiate",
                "derivation.pair_with_y", "algebra.NcPoly.mul",
                "brownian.expand_state"):
        calls_self(key)
    out.append(("brownian.expand_state.evals_per_call", "count"))
    for key in ("core_cp.conditional_expectation",
                "core_cp.verify_core_identity"):
        calls_self(key)
    out.extend((f"suite.{cid}.self_s", "s") for cid in SUITE_CHECKS)
    out.extend((f"cli.{cmd}.s", "s") for cmd in CLI_COMMANDS)
    out.extend([("cli.run.self_s", "s"), ("bench.ops", "count"),
                ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio")])
    return out


#: every per-layer metric, in BENCHMARK.json order, with its unit
PER_LAYER = _per_layer()

#: the deterministic counters the self-test compares between runs
COUNTERS = ("bench.ops", "conjugate.gram.calls",
            "moments.evaluate_state.calls", "moments.memo_entries",
            "conjugate.basis_size", "conjugate.kept",
            "conjugate.solve_conjugate.calls")


class _Namespace:
    """Attribute view of ``target`` with some names replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.names: dict = {}
        self.spans: list = []  # (id, name id, start, end, parent id, op id)
        self._stack: list = []  # frames [span id or None, child seconds]
        self._next_id = 0
        self._op_models: dict = {}
        self._undo: list = []

    # -- spans ---------------------------------------------------------

    def wrap(self, fn, keys, record=True, key_from_result=None,
             on_result=None):
        """Wrap ``fn``; its calls count toward every metric key in
        ``keys`` and its spans are named after the last one."""
        tracer = self
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = None
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = next((f[0] for f in reversed(stack) if f[0] is not None),
                          None)
            frame = [span_id, 0.0]
            stack.append(frame)
            names = keys
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
            if key_from_result is not None:
                names = key_from_result(result)
            if on_result is not None:
                on_result(result)
            own = duration - frame[1]
            for key in names:
                tracer.calls[key] += 1
                tracer.self_s[key] += own
                tracer.total_s[key] += duration
            if record:
                name_id = tracer.names.setdefault(names[-1], len(tracer.names))
                tracer.spans.append(
                    (span_id, name_id, start, end, parent, tracer.op_id))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_models = {}

    def end_op(self, op_model=None) -> None:
        """Add the memo entries of every model the op built or used."""
        if op_model is not None:
            self._op_models[id(op_model)] = op_model
        self.counts["moments.memo_entries"] += sum(
            len(getattr(m, "_state_memo", None) or ())
            for m in self._op_models.values()
        )
        self.counts["bench.ops"] += 1

    def _keep_model(self, m) -> None:
        self._op_models[id(m)] = m

    def _count_solution(self, sol) -> None:
        self.counts["conjugate.basis_size"] += len(sol.basis_words)
        self.counts["conjugate.kept"] += len(sol.kept)

    # -- installation --------------------------------------------------

    def _replace(self, owner, name, new, old) -> None:
        if isinstance(owner, (dict, list)):
            owner[name] = new
            self._undo.append(lambda: owner.__setitem__(name, old))
        else:
            setattr(owner, name, new)
            self._undo.append(lambda: setattr(owner, name, old))

    def install(self) -> None:
        package = {
            name.partition(".")[2]: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ncfisher"
                                    or name.startswith("ncfisher."))
        }
        hooks = {
            "solve_conjugate": {"on_result": self._count_solution},
            "build_model": {"on_result": self._keep_model},
        }
        for home, fname, record in FUNCTIONS:
            orig = getattr(package.get(home), fname, None)
            if orig is None:
                continue
            for caller, mod in package.items():
                for attr, value in list(vars(mod).items()):
                    if value is not orig:
                        continue
                    keys = [f"{home}.{fname}"]
                    alias = ALIASES.get((caller, fname))
                    if alias:
                        keys.append(alias)
                    self._replace(mod, attr, self.wrap(
                        orig, keys, record, **hooks.get(fname, {})), orig)

        for home, cls_name, meth, key, record in METHODS:
            cls = getattr(package.get(home), cls_name, None)
            orig = vars(cls).get(meth) if cls is not None else None
            if orig is not None:
                self._replace(cls, meth, self.wrap(orig, [key], record), orig)

        conjugate = package.get("conjugate")
        np_mod = getattr(conjugate, "np", None)
        eigh = getattr(getattr(np_mod, "linalg", None), "eigh", None)
        if eigh is not None:
            linalg = _Namespace(np_mod.linalg,
                                eigh=self.wrap(eigh, ["conjugate.eigh"]))
            self._replace(conjugate, "np", _Namespace(np_mod, linalg=linalg),
                          np_mod)

        checks = getattr(package.get("suite"), "_CHECKS", None)
        if isinstance(checks, list):
            for i, fn in enumerate(checks):
                self._replace(checks, i, self.wrap(
                    fn, ["suite.check"],
                    key_from_result=lambda r: [
                        f"suite.{getattr(r, 'cid', 'check')}"]), fn)

        handlers = getattr(package.get("cli"), "_HANDLERS", None)
        if isinstance(handlers, dict):
            for cmd, fn in list(handlers.items()):
                self._replace(handlers, cmd, self.wrap(fn, [f"cli.{cmd}"]), fn)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------

    def evals_per_expansion(self) -> float:
        """State evaluations made directly by each ``expand_state``."""
        expand = self.names.get("brownian.expand_state")
        state = self.names.get("moments.evaluate_state")
        if expand is None or state is None:
            return 0.0
        parents = {s[0] for s in self.spans if s[1] == expand}
        children = sum(1 for s in self.spans
                       if s[1] == state and s[4] in parents)
        return children / len(parents)

    def metrics(self, extra: dict) -> dict:
        """Every ``PER_LAYER`` metric; names absent from the run read 0."""
        out = {}
        for name, unit in PER_LAYER:
            if name in extra:
                value = extra[name]
            elif name == "brownian.expand_state.evals_per_call":
                value = self.evals_per_expansion()
            elif name.endswith(".calls"):
                value = self.calls.get(name[:-len(".calls")], 0)
            elif name.endswith(".self_s"):
                value = self.self_s.get(name[:-len(".self_s")], 0.0)
            elif name.endswith(".s"):
                value = self.total_s.get(name[:-len(".s")], 0.0)
            else:
                value = self.counts.get(name, 0)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path: str) -> None:
        """Save the spans as gzipped JSON lines: a header with the span
        names, then one ``[id, name, start, end, parent, op]`` per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
