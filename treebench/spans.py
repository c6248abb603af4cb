"""Span tracing installed from outside the library.

:class:`Tracer` replaces every public function of the ``treemajor`` modules,
in every module namespace that binds it, with a wrapper that records a span
(name, parent span, operation id, start, end).  ``Tree.__init__`` and
``DeltaSequence.__init__`` are wrapped the same way to count builds.  Spans
stay in flat arrays in memory until :meth:`Tracer.write` at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("sequences", "transfers", "trees", "realize", "enumeration", "verify", "cli")


def _public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [k for k in vars(module) if not k.startswith("_")]
    return [
        k
        for k in names
        if inspect.isfunction(getattr(module, k))
        and getattr(module, k).__module__ == module.__name__
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.enabled = False
        self.current_op = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        #: calls per (namespace layer, function name)
        self.calls: Counter = Counter()
        #: counts derived from results, such as moves in a trace
        self.counts: Counter = Counter()

    def _wrap(self, span: str, ns: str, fn, on_result=None):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        key = (ns, span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.current_op)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            self.calls[key] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function wherever a ``treemajor`` module binds
        it (modules also call each other's functions under imported names)."""
        package = importlib.import_module("treemajor")
        modules = {name: importlib.import_module(f"treemajor.{name}") for name in LAYERS}
        namespaces = {"package": package, **modules}
        on_result = self._result_counters()
        for module in modules.values():
            for fname in _public_functions(module):
                fn = getattr(module, fname)
                for ns, target in namespaces.items():
                    for attr, value in list(vars(target).items()):
                        if value is fn:
                            wrapped = self._wrap(fname, ns, fn, on_result.get(fname))
                            self._patch(target, attr, wrapped)
        for cls in (modules["trees"].Tree, modules["sequences"].DeltaSequence):
            self._patch(cls, "__init__", self._wrap(cls.__name__, "class", cls.__init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _result_counters(self) -> dict:
        counts = self.counts

        def add(key, f):
            def hook(result):
                counts[key] += f(result)
            return hook

        return {
            "enumerate_trees": add("classes", len),
            "legal_moves": add("legal_moves.moves", len),
            "plan_transfers": add("plan_steps", lambda p: len(p.steps)),
            "replay_plan_on_tree": add("moves", lambda t: len(t.moves)),
            "certify_reachability": lambda c: counts.update(
                ["certificates.positive" if c.trace is not None else "certificates.negative"]
            ),
        }

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: number of spans, inclusive seconds, self seconds
        (the span minus the time its direct child spans cover)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        count: dict = defaultdict(int)
        incl: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            count[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[i]
        return count, incl, self_s

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            header = {
                "names": self.names,
                "spans": len(self.start),
                "arrays": ["name:i", "parent:i", "op:i", "start:d", "end:d"],
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics, named as in ``BENCHMARK.json``."""
    count, incl, self_s = tracer.totals()
    calls = tracer.calls
    c = tracer.counts
    candidates = calls[("enumeration", "centroids")]
    moves = c["moves"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        # enumeration
        "enumerate_trees.self_s": self_s["enumerate_trees"],
        "classes": c["classes"],
        "candidates": candidates,
        "kept_ratio": ratio(c["classes"], candidates),
        "us_per_candidate": 1e6 * ratio(incl["enumerate_trees"], candidates),
        # trees
        "Tree.builds": count["Tree"],
        "Tree.self_s": self_s["Tree"],
        "centroids.calls": count["centroids"],
        "centroids.self_s": self_s["centroids"],
        "canonical_code.calls": count["canonical_code"],
        "canonical_code.self_s": self_s["canonical_code"],
        "move_branch.calls": count["move_branch"],
        "move_branch.self_s": self_s["move_branch"],
        "legal_moves.calls": count["legal_moves"],
        "legal_moves.self_s": self_s["legal_moves"],
        "legal_moves.moves": c["legal_moves.moves"],
        "branches_at.self_s": self_s["branches_at"],
        "branch_members.self_s": self_s["branch_members"],
        "delta_sequence.self_s": self_s["delta_sequence"],
        "format_tree.self_s": self_s["format_tree"],
        # sequences
        "compare.calls": count["compare"],
        "compare.self_s": self_s["compare"],
        "DeltaSequence.builds": count["DeltaSequence"],
        # transfers
        "plan_transfers.self_s": self_s["plan_transfers"],
        "plan_steps": c["plan_steps"],
        # realize
        "replay_plan_on_tree.self_s": self_s["replay_plan_on_tree"],
        "moves": moves,
        "us_per_move": 1e6 * ratio(incl["replay_plan_on_tree"], moves),
        "realize_direct.self_s": self_s["realize_direct"],
        # verify
        "verify_majorization_reachability.self_s": self_s["verify_majorization_reachability"],
        "find_move_trace.self_s": self_s["find_move_trace"],
        "reachability_closure.self_s": self_s["reachability_closure"],
        "check_certificate.self_s": self_s["check_certificate"],
        "closure_is_closed.self_s": self_s["closure_is_closed"],
        "certificates.positive": c["certificates.positive"],
        "certificates.negative": c["certificates.negative"],
        # cli
        "main.self_s": self_s["main"],
        # tracing itself
        "spans": len(tracer.start),
    }
    return m
