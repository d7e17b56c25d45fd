"""Outside-in layer tracing for the traced benchmark run.

The tracer wraps msrplan's public layer functions from outside the package:
every module attribute that refers to a wrapped function is rebound, because
the package binds names with ``from .rules import find_matches`` and similar
imports, so patching only the defining module would miss most call sites.
Methods are patched on their class.  Nothing is installed unless the traced
run asks for it, and ``uninstall`` restores every original binding.

Each call records a span (name, start, end, parent span, query id) into
column arrays kept in memory; ``write`` saves them when the run ends.  A
layer's self time is its span duration minus the durations of its direct
children, which nest without overlap in this single-threaded program.

Two span kinds exist.  A *layer* span records a call into an engine layer.
A *check* span records a verification or oracle entry point
(``verify_witness``, ``check_compliance``, ``evaluate_qbf``, ...): layer calls
made beneath it record no span of their own, so their time is attributed to
the check, not to the decision.  The benchmark opens its own roots around the
timed decision (``bench.query``) and around certificate and oracle checks
(``bench.verify``, ``bench.oracle``, both folding like a check).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYER = "layer"
CHECK = "check"

# (module, attribute or Class.method, span kind); the span is named
# "<module>.<attribute>", e.g. "rules.find_matches" or "kernel.Configuration".
WRAPPED = (
    ("kernel", "Configuration.__init__", LAYER),
    ("kernel", "Configuration.replace", LAYER),
    ("rules", "find_matches", LAYER),
    ("rules", "apply_instance", LAYER),
    ("rules", "tick", LAYER),
    ("specs", "match_spec", LAYER),
    ("specs", "check_compliance", CHECK),
    ("specs", "replay_errors", CHECK),
    ("scenario", "PlanningScenario.classify", LAYER),
    ("scenario", "infer_dmax", LAYER),
    ("scenario", "parse_scenario", LAYER),
    ("delta", "abstract", LAYER),
    ("delta", "delta_key", LAYER),
    ("search", "find_compliant_goal_trace", LAYER),
    ("resilience", "check_resilience", LAYER),
    ("resilience", "verify_witness", CHECK),
    ("resilience", "enumerate_update_points", CHECK),
    ("reductions", "qbf_to_scenario", LAYER),
    ("reductions", "graph_to_goal_instance", LAYER),
    ("reductions", "evaluate_qbf", CHECK),
    ("reductions", "brute_force_homomorphism", CHECK),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__init__')}"


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("H")
        self.parent_col = array("i")
        self.query_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack: list[int] = []
        self._fold = 0
        self.query = -1
        self.counts: Counter[str] = Counter()
        self._states: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        index = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.query_col.append(self.query)
        self.end_col.append(0.0)
        self._stack.append(index)
        self.start_col.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end_col[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, query: int, *, fold: bool):
        """A benchmark-owned span; ``fold`` attributes nested layer calls to it."""
        self.query = query
        index = self._open(self._name_id(name))
        self._fold += fold
        try:
            yield
        finally:
            self._fold -= fold
            self._close(index)

    def end_query(self) -> None:
        """Add the distinct configurations the decision matched to ``states``."""
        self.counts["resilience.states"] += len(self._states)
        self._states.clear()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str):
        tracer = self
        nid = self._name_id(name)
        observe = _OBSERVERS.get(name)
        is_check = kind == CHECK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._fold and not is_check:
                return fn(*args, **kwargs)
            index = tracer._open(nid)
            tracer._fold += is_check
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._fold -= is_check
                tracer._close(index)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry of WRAPPED at every import site in msrplan."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "msrplan" or key.startswith("msrplan.")
        ]
        for module_name, attr, kind in WRAPPED:
            module = sys.modules[f"msrplan.{module_name}"]
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, self._wrap(name, original, kind))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, kind)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
        self._check_complete(modules)

    def _rebind(self, owner: object, key: str, value: object) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _check_complete(self, modules: list) -> None:
        originals = {id(original) for _, _, original in self._restore}
        for mod in modules:
            for key, value in vars(mod).items():
                if id(value) in originals:
                    raise RuntimeError(f"{mod.__name__}.{key} escaped the tracer")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self time in seconds."""
        n = len(self.start_col)
        start, end, parent = self.start_col, self.end_col, self.parent_col
        self_time = array("d", (end[i] - start[i] for i in range(n)))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                self_time[p] -= end[i] - start[i]
        calls = [0] * len(self.names)
        selfs = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_col):
            calls[nid] += 1
            selfs[nid] += self_time[i]
        return {
            name: {"calls": calls[k], "self_s": selfs[k]}
            for k, name in enumerate(self.names)
        }

    def write(self, stem: Path, meta: dict) -> None:
        """Save the spans as ``<stem>.bin`` (columns back to back) and a header."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = [
            ("name", self.name_col), ("parent", self.parent_col),
            ("query", self.query_col), ("start", self.start_col),
            ("end", self.end_col),
        ]
        with open(f"{stem}.bin", "wb") as out:
            for _, col in columns:
                col.tofile(out)
        header = dict(
            meta,
            spans=len(self.start_col),
            names=self.names,
            columns=[[label, col.typecode, col.itemsize] for label, col in columns],
            byteorder=sys.byteorder,
        )
        Path(f"{stem}.json").write_text(json.dumps(header, indent=1) + "\n")


def _observe_find_matches(tracer: Tracer, _args: tuple, result) -> None:
    tracer.counts["rules.find_matches.instances"] += len(result)
    tracer.counts["rules.find_matches.nonempty"] += bool(result)


def _observe_match_spec(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["specs.match_spec.hits"] += result is not None
    tracer._states.add(args[1])


_OBSERVERS = {
    "rules.find_matches": _observe_find_matches,
    "specs.match_spec": _observe_match_spec,
}
