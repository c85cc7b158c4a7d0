"""Spans around the calls into each layer of hyperdes, recorded from outside.

`Tracer.install()` replaces module-level functions of the package with
wrappers, in every hyperdes module that binds them, so a call is traced
wherever its caller looks the name up; `uninstall()` puts the originals back.
Each span records its name, start, end, parent span and case.  A layer's
self time is its span's duration minus the time its child spans cover; the
tracer's own bookkeeping inside a span is excluded the same way.  Spans stay
in memory until `write()`.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

from corpora import UNFOLD_KINDS
from hyperdes.formula import LETTER_ATOMS, Bottom, Top


def _oracle_span(args, kwargs):
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    return "oracle.unfold" if kind in UNFOLD_KINDS else "oracle.exact"


def _formula_nodes(node):
    count, stack = 0, [node]
    while stack:
        n = stack.pop()
        count += 1
        if isinstance(n, (Top, Bottom) + LETTER_ATOMS):
            continue
        stack.extend(getattr(n, f) for f in ("sub", "left", "right") if hasattr(n, f))
    return count


def _count_observer(counts, obs):
    counts["des.observer_nodes"] += len(obs.nodes)


def _count_template(counts, result):
    formula, _ = result
    counts["formula.body_nodes"] += _formula_nodes(formula.body)


def _count_kripke(counts, k):
    counts["kripke.nodes"] += len(k.nodes)
    counts["kripke.edges"] += sum(len(t) for t in k.succ.values())


def _count_buchi(counts, ba):
    counts["buchi.calls"] += 1
    counts["buchi.states"] += len(ba.states)
    counts["buchi.edges"] += sum(len(e) for e in ba.edges.values())


# function name -> (module that defines it, span name, counter of its result)
SPANS = {
    "validate_fsa": ("des", "des.validate", None),
    "refine_fault_partition": ("des", "des.refine", None),
    "build_observer": ("des", "des.observer", _count_observer),
    "build_kripke": ("kripke", "kripke.build", _count_kripke),
    "build_modified_kripke": ("kripke", "kripke.build", _count_kripke),
    "_decision_formula": ("hyper", "formula.template", _count_template),
    "expand_macros": ("formula", "formula.expand", None),
    "eval_body": ("formula", "formula.eval", None),
    "ltl_to_buchi": ("buchi", "buchi.translate", _count_buchi),
    "check_forall_forall": ("hyper", "hyper.forall_forall", None),
    "check_forall_exists_sync": ("hyper", "hyper.forall_exists", None),
    "check_exists_forall_bounded": ("hyper", "hyper.exists_forall", None),
    "verify": ("hyper", "hyper.verify_self", None),
    "replay_witness": ("hyper", "hyper.replay", None),
    "oracle_check": ("oracle", _oracle_span, None),
    "parse_model": ("modelio", "modelio.load", None),
    "load_model": ("modelio", "modelio.load", None),
    "serialize_model": ("modelio", "modelio.serialize", None),
    "verdict_to_json": ("modelio", "modelio.serialize", None),
}
# accept tests of one exists/forall candidate: counted, not timed
CANDIDATE_TESTS = ("_estimate_walk_accepts", "_inner_universal_holds")

LAYER_TIMES = ("des.validate", "des.refine", "des.observer", "kripke.build",
               "formula.template", "formula.expand", "formula.eval",
               "buchi.translate", "hyper.forall_forall", "hyper.forall_exists",
               "hyper.exists_forall", "hyper.verify_self", "hyper.replay",
               "oracle.unfold", "oracle.exact", "modelio.load", "modelio.serialize")
LAYER_COUNTS = ("des.observer_nodes", "kripke.nodes", "kripke.edges",
                "formula.body_nodes", "buchi.calls", "buchi.states", "buchi.edges",
                "hyper.candidates_tried")


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, case)
        self.case = None
        self._stack = []         # [span index, name, time covered by children]
        self._self = defaultdict(float)
        self._counts = defaultdict(int)
        self._patched = []       # (module, attribute, original)

    def _span(self, fn, name, count):
        spans, stack, selft, counts = self.spans, self._stack, self._self, self._counts

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            frame = [len(spans), label, 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                selft[label] += end - start - frame[2]
                spans[frame[0]] = (label, start, end, parent, self.case)
                if stack:
                    stack[-1][2] += end - start
            if count is not None:
                count(counts, result)
                if stack:
                    stack[-1][2] += perf_counter() - end
            return result
        return traced

    def _candidate(self, fn):
        stack, counts = self._stack, self._counts

        def counted(*args, **kwargs):
            if stack and stack[-1][1] == "hyper.exists_forall":
                counts["hyper.candidates_tried"] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hyperdes" or n.startswith("hyperdes.")]
        wrappers = {}
        for attr, (home, name, count) in SPANS.items():
            original = getattr(sys.modules.get(f"hyperdes.{home}"), attr, None)
            if original is not None:
                wrappers[original] = self._span(original, name, count)
        for attr in CANDIDATE_TESTS:
            original = getattr(sys.modules["hyperdes.hyper"], attr, None)
            if original is not None:
                wrappers[original] = self._candidate(original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self):
        """Self times (s) and counts since the last take, keyed by metric name."""
        out = {f"{n}_s": self._self.get(n, 0.0) for n in LAYER_TIMES}
        out.update({n: self._counts.get(n, 0) for n in LAYER_COUNTS})
        self._self.clear()
        self._counts.clear()
        return out

    def write(self, path, origin):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"fields": ["name", "start_s", "end_s", "parent", "case"],
               "names": names,
               "spans": [[index[n], round(a - origin, 7), round(b - origin, 7), p, c]
                         for n, a, b, p, c in self.spans]}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
