"""Structure of the package: its modules import each other without cycles,
every breadth-first and depth-first search runs through the graph kernel,
which holds one depth-first search,
neither route imports the other, every estimate step is des's, the
oracle builds no set stepper of its own, and every function and class is
used by the package itself.

Every import statement counts, also one inside a function, since a
deferred import only hides a cycle from the interpreter.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hyperdes"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def imported_modules(source):
    """Modules of the package that a source text imports, anywhere in it."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"hyperdes.{module}" if module else "hyperdes"
            # `from . import x` imports the module x
            names = [module] + [f"{module}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "hyperdes" and len(parts) > 1 and parts[1] in MODULES:
                out.add(parts[1])
    return out


def import_graph():
    return {p.stem: imported_modules(p.read_text(encoding="utf-8")) - {p.stem}
            for p in sorted(PACKAGE.glob("*.py"))}


def find_cycle(graph):
    """Some cycle of a graph given as successor sets, as a closed list of
    nodes, or None."""
    state = {}
    for root in graph:
        if root in state:
            continue
        path, stack = [root], [iter(sorted(graph[root]))]
        state[root] = "open"
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                state[path.pop()] = "done"
            elif state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            elif nxt not in state:
                state[nxt] = "open"
                path.append(nxt)
                stack.append(iter(sorted(graph[nxt])))
    return None


def test_package_has_no_import_cycle():
    cycle = find_cycle(import_graph())
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_oracle_does_not_import_the_formula_engines():
    """The routes are peers: neither imports the other, the oracle imports
    no formula automaton, and only the package, the CLI and the fuzz hold
    both."""
    graph = import_graph()
    assert "oracle" not in graph["hyper"] and "hyper" not in graph["oracle"]
    assert not graph["oracle"] & {"hyper", "buchi", "fuzz"}
    assert graph["graph"] == set()
    assert {m for m, deps in graph.items() if {"hyper", "oracle"} <= deps} == {
        "__init__", "cli", "fuzz"}


def test_scan_sees_relative_absolute_and_deferred_imports():
    source = ("from .des import Fsa\n"
              "import hyperdes.kripke\n"
              "import random\n"
              "def f():\n"
              "    from . import oracle\n"
              "    from hyperdes import graph\n")
    assert imported_modules(source) == {"des", "kripke", "oracle", "graph"}
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def unused_imports(source):
    """Names bound by the module-level imports of a source text that the
    module never uses and does not list in `__all__`; future imports are
    directives, not names."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_every_module_level_import_is_used():
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8"))
              for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_import_scan_sees_names_attributes_and_exports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as j\n"
              "from .des import Fsa, EPS\n"
              "from .graph import reachable\n"
              "__all__ = ['EPS']\n"
              "def f():\n"
              "    return os.path.join(j.dumps(Fsa), 'x')\n")
    assert unused_imports(source) == ["reachable"]


def queue_uses(source):
    """Line numbers at which a source text imports deque, names it as an
    attribute (collections.deque) or calls .popleft(): the marks of a
    hand-written breadth-first queue loop."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and any(a.name == "deque" for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in ("deque", "popleft"):
            lines.append(node.lineno)
    return sorted(lines)


def test_breadth_first_search_runs_only_in_the_graph_kernel():
    found = {p.name: queue_uses(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "graph.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_queue_scan_sees_imports_attributes_and_popleft():
    source = ("from collections import deque, defaultdict\n"
              "import collections\n"
              "q = collections.deque()\n"
              "def f(queue, order):\n"
              "    order.pop()\n"
              "    return queue.popleft()\n")
    assert queue_uses(source) == [1, 3, 6]
    assert queue_uses("from collections import defaultdict\nx = [].pop(0)\n") == []


def iter_pushes(source):
    """Line numbers at which a source text puts an iter(...) call on a list,
    as an item of a list display or the argument of .append, itself or in
    a tuple: the mark of a hand-written depth-first search, whose work
    stack holds one successor iterator per node on the search path."""
    def iter_calls(node):
        items = node.elts if isinstance(node, ast.Tuple) else [node]
        return [item.lineno for item in items if isinstance(item, ast.Call)
                and isinstance(item.func, ast.Name) and item.func.id == "iter"]

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.List):
            for item in node.elts:
                lines += iter_calls(item)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"):
            for arg in node.args:
                lines += iter_calls(arg)
    return sorted(lines)


def test_depth_first_search_runs_only_in_the_graph_kernel():
    found = {p.name: iter_pushes(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "graph.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_iter_push_scan_sees_lists_appends_and_tuples():
    source = ("work = [iter(succ(root))]\n"
              "stack = [(root, iter(succ(root)))]\n"
              "def f(stack, nxt):\n"
              "    stack.append((nxt, iter(succ(nxt))))\n"
              "    work.append(iter(succ(nxt)))\n")
    assert iter_pushes(source) == [1, 2, 4, 5]
    assert iter_pushes("first = next(iter(entry))\n"
                       "cells = [next(iter(n)) for n in nodes]\n"
                       "seen.add(iter(x))\n") == []


def push_owners(source):
    """The functions of a source text that hold a line iter_pushes finds,
    each named by the innermost definition around that line."""
    defs = [node for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    owners = set()
    for line in iter_pushes(source):
        around = [d for d in defs if d.lineno <= line <= d.end_lineno]
        owners.add(max(around, key=lambda d: d.lineno).name if around else None)
    return owners


def test_the_graph_kernel_has_one_depth_first_search():
    """Every depth-first work stack of graph.py lies in one function, so
    SCCs, cycles and accepting lassos all come from one search."""
    assert len(push_owners((PACKAGE / "graph.py").read_text(encoding="utf-8"))) == 1


def test_push_owner_scan_sees_each_search():
    source = ("def sccs(roots, succ):\n"
              "    for root in roots:\n"
              "        work = [(root, iter(succ(root)))]\n"
              "\n"
              "def accepting_lasso(roots, succ, accepting):\n"
              "    work = [iter(succ(roots[0]))]\n"
              "    work.append(iter(succ(roots[1])))\n")
    assert push_owners(source) == {"sccs", "accepting_lasso"}
    assert push_owners("work = [iter(succ(root))]\n") == {None}


def names_imported_from(source, module):
    """Names a source text imports from one module of the package, anywhere
    in it; "*" stands for the module itself, imported whole."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"hyperdes.{base}" if base else "hyperdes"
            if base == f"hyperdes.{module}":
                out.update(a.name for a in node.names)
            elif base == "hyperdes" and any(a.name == module for a in node.names):
                out.add("*")
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[:2] == ["hyperdes", module] for a in node.names):
                out.add("*")
    return out


# what each route may import of the module the other route builds on
ROUTE_IMPORTS = {
    ("oracle", "kripke"): {"KNode", "Lasso", "Verdict", "canonical_lasso"},
    ("hyper", "oracle"): set(),
}
# the oracle's structures, which the hyper route never builds or steps
ORACLE_ONLY = {"build_observer", "observable_step", "joint_moves"}


def route_leaks(sources):
    """(importer, module, name) for every import by which one route could
    reach into the structures of the other."""
    leaks = []
    for (importer, module), allowed in ROUTE_IMPORTS.items():
        found = names_imported_from(sources[importer], module) - allowed
        leaks += [(importer, module, name) for name in sorted(found)]
    found = names_imported_from(sources["hyper"], "des") & ORACLE_ONLY
    return leaks + [("hyper", "des", name) for name in sorted(found)]


def route_sources():
    return {m: (PACKAGE / f"{m}.py").read_text(encoding="utf-8") for m in ("hyper", "oracle")}


def test_routes_stay_independent():
    """The oracle takes only the verdict and witness types from the Kripke
    module; the hyper route takes nothing from the oracle and none of the
    oracle's estimate builders."""
    assert route_leaks(route_sources()) == []


def test_route_scan_sees_each_injected_import():
    injections = (
        ("oracle", "from .kripke import build_kripke\n", ("oracle", "kripke", "build_kripke")),
        ("oracle", "def f():\n    from hyperdes.kripke import step_nodes\n",
         ("oracle", "kripke", "step_nodes")),
        ("oracle", "import hyperdes.kripke\n", ("oracle", "kripke", "*")),
        ("hyper", "from .oracle import _verifier\n", ("hyper", "oracle", "_verifier")),
        ("hyper", "from .oracle import OracleAnalysis\n", ("hyper", "oracle", "OracleAnalysis")),
        ("hyper", "from . import oracle\n", ("hyper", "oracle", "*")),
        ("hyper", "from .des import build_observer\n", ("hyper", "des", "build_observer")),
        ("hyper", "def f():\n    from .des import build_observer\n",
         ("hyper", "des", "build_observer")),
        ("hyper", "from hyperdes.des import observable_step\n",
         ("hyper", "des", "observable_step")),
        ("hyper", "from .des import joint_moves\n", ("hyper", "des", "joint_moves")),
    )
    sources = route_sources()
    for module, line, leak in injections:
        assert route_leaks(dict(sources, **{module: sources[module] + line})) == [leak], line


# the modules that own the model's annotations: the machine that carries
# them, the file format that reads them and the property declarations that
# say which property needs which
ANNOTATION_OWNERS = {"des.py", "modelio.py", "formula.py"}
ANNOTATIONS = {"fault_events", "secret_states"}


def annotation_checks(source):
    """Line numbers at which a source text compares fault_events or
    secret_states, as a name or an attribute, with None."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        named = any(isinstance(o, ast.Attribute) and o.attr in ANNOTATIONS
                    or isinstance(o, ast.Name) and o.id in ANNOTATIONS for o in operands)
        if named and any(isinstance(o, ast.Constant) and o.value is None for o in operands):
            lines.append(node.lineno)
    return lines


def test_only_the_owners_test_for_missing_annotations():
    """Which annotation a property needs is declared once, by
    formula.missing_annotation; no other module tests an annotation for
    None."""
    found = {p.name: annotation_checks(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py")) if p.name not in ANNOTATION_OWNERS}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_annotation_scan_sees_each_injected_check():
    source = (PACKAGE / "hyper.py").read_text(encoding="utf-8")
    end = len(source.splitlines())
    # each injection, and the line of its check after the end of the source
    for line, at in (("if fsa.fault_events is None:\n    pass\n", 1),
                     ("x = self.fsa.secret_states is not None\n", 1),
                     ("y = None == fsa.secret_states\n", 1),
                     ("def f(fault_events):\n    return fault_events != None\n", 2)):
        assert annotation_checks(source + line) == [end + at], line
    assert annotation_checks("fault_events = None\nx = fsa.fault_events or ()\n") == []


def environment_reads(source):
    """Line numbers at which a source text names os.environ or os.getenv,
    or imports either."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
                a.name in ("environ", "getenv") for a in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_reads_the_environment():
    """No module of the package, the command line included, reads the
    environment, so a verdict depends on its arguments alone."""
    found = {str(p.relative_to(PACKAGE)): environment_reads(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.rglob("*.py"))}
    assert "cli.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_environment_scan_sees_each_injected_read():
    source = ("import os\n"
              "a = os.environ.get('X')\n"
              "from os import getenv\n"
              "b = os.getenv('X')\n"
              "environ = {}\n")
    assert environment_reads(source) == [2, 3, 4]


def calls_outside(source, name, allowed):
    """(owner, line) of each call of `name`, as a name or an attribute, in a
    source text outside the module-level definitions named in `allowed`;
    the owner is the enclosing module-level definition, or None."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        if owner in allowed:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == name
                    or isinstance(node.func, ast.Attribute) and node.func.attr == name):
                found.append((owner, node.lineno))
    return found


# where the per-observation step may be called: nowhere in des or the
# oracle, which step on des's set stepper alone
PER_OBSERVATION_CALLERS = {"des.py": set(), "oracle.py": set()}


def test_the_oracle_steps_estimates_only_through_des():
    """des's one set stepper, state_moves, steps every estimate, also
    through joint_moves, and lifts weak detectability's witness from
    estimates to states: neither des's estimate functions nor the oracle
    call observable_step, the step on one observation."""
    found = {name: calls_outside((PACKAGE / name).read_text(encoding="utf-8"),
                                 "observable_step", allowed)
             for name, allowed in PER_OBSERVATION_CALLERS.items()}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_step_scan_sees_each_injected_call():
    allowed = PER_OBSERVATION_CALLERS["oracle.py"]
    source = (PACKAGE / "oracle.py").read_text(encoding="utf-8")
    end = len(source.splitlines())
    # each injection, its owner and the line of its call after the end of the source
    for line, owner, at in (
            ("def _track_moves(fsa, tracks, o):\n    return observable_step(fsa, tracks, o)\n",
             "_track_moves", 2),
            ("moves = des.observable_step(fsa, [], 'o1')\n", None, 1),
            ("class Walk:\n    def step(self, d, o):\n"
             "        return observable_step(self.fsa, d, o)\n", "Walk", 3)):
        assert calls_outside(source + line, "observable_step", allowed) == [
            (owner, end + at)], line
    # a call in weak_detectability_oracle is found, and is passed over
    # only where that definition is named as allowed
    lift = ("def weak_detectability_oracle(an):\n"
            "    return observable_step(an.fsa, [], 'o1')\n"
            "step = observable_step\n")
    assert calls_outside(lift, "observable_step", allowed) == [
        ("weak_detectability_oracle", 2)]
    assert calls_outside(lift, "observable_step", {"weak_detectability_oracle"}) == []


def set_builds(source):
    """(owner, line) of each set a source text builds by iterating: a set
    comprehension; a set or frozenset made from a comprehension or a search
    (bfs, reachable); a set grown by update, union or |= from either; and a
    call of reachable, which returns a set.  A set stepper closes a set of
    states under a search and unions its states' targets into sets, so
    these are its marks; a set grown from a plain name or built empty is
    not.  The owner is the enclosing module-level definition, or None."""
    def callee(node):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    def iterated(node):
        return (isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp))
                or isinstance(node, ast.Call) and callee(node) in ("bfs", "reachable"))

    found = set()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.SetComp)
                    or isinstance(node, ast.Call) and (
                        callee(node) == "reachable"
                        or callee(node) in ("set", "frozenset", "update", "union")
                        and any(iterated(arg) for arg in node.args))
                    or isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitOr)
                    and iterated(node.value)):
                found.add((owner, node.lineno))
    return sorted(found, key=lambda f: f[1])


def test_the_oracle_builds_no_set_stepper_of_its_own():
    """Every estimate the oracle steps is stepped by des: the analysis's
    state_moves, joint_moves and unobservable_reach.  The oracle builds no
    set by iterating, so it holds no private closure or step of a set of
    states."""
    assert set_builds((PACKAGE / "oracle.py").read_text(encoding="utf-8")) == []


def test_set_build_scan_sees_the_deleted_predictability_stepper():
    source = (PACKAGE / "oracle.py").read_text(encoding="utf-8")
    end = len(source.splitlines())
    # the estimate stepper predictability_oracle once kept for itself
    stepper = (
        "def predictability_oracle(an):\n"
        "    def close(states):\n"
        "        return frozenset(bfs(states, lambda x: [y for e, y in events(x)[0]\n"
        "                                                 if e not in faults]))\n"
        "    stepped = {}\n"
        "    def step(est):\n"
        "        out = stepped.get(est)\n"
        "        if out is None:\n"
        "            hits = {}\n"
        "            for x in est:\n"
        "                for o, edges in events(x)[1].items():\n"
        "                    hits.setdefault(o, set()).update(y for e, y in edges\n"
        "                                                     if e not in faults)\n"
        "            out = stepped[est] = {o: close(ys) for o, ys in hits.items()}\n"
        "        return out\n")
    assert set_builds(source + stepper) == [
        ("predictability_oracle", end + 3), ("predictability_oracle", end + 12)]
    # each other injection, its owner and the line of its set after the end
    # of the source
    for line, owner, at in (
            ("def _targets(fsa, est):\n    return {y for x in est for _, y in fsa.out_edges(x)}\n",
             "_targets", 2),
            ("class Walk:\n    def close(self, xs):\n"
             "        return reachable(xs, self.quiet)\n", "Walk", 3),
            ("def _step(fsa, est, hit):\n    for x in est:\n"
             "        hit |= [y for _, y in fsa.out_edges(x)]\n", "_step", 3),
            ("seen = set(bfs(roots, succ))\n", None, 1)):
        assert set_builds(source + line) == [(owner, end + at)], line
    assert set_builds("lasting = set()\nlasting.update(comp)\nnone = frozenset()\n"
                      "moves = {x: step(x) for x in xs}\nfirst = {o: t for o, t in m}\n") == []


# the hyper functions that may read a whole structure: none
WHOLE_STRUCTURE_READERS = set()


def whole_structure_reads(source, allowed):
    """(owner, line) of each read of a `.nodes` or `.index` attribute in a
    source text outside the module-level definitions named in `allowed`;
    the owner is the enclosing module-level definition, or None.  A called
    attribute, such as list.index(x), is a method call and does not count."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        if owner in allowed:
            continue
        called = {id(node.func) for node in ast.walk(top) if isinstance(node, ast.Call)}
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in ("nodes", "index")
                    and isinstance(node.ctx, ast.Load) and id(node) not in called):
                found.append((owner, node.lineno))
    return sorted(found, key=lambda f: f[1])


def test_the_hyper_route_expands_only_what_it_reaches():
    """The structures are built on demand, and a structure's `nodes` or
    `index` lists all of it, expanding every plain node; no hyper function
    reads either."""
    source = (PACKAGE / "hyper.py").read_text(encoding="utf-8")
    assert whole_structure_reads(source, WHOLE_STRUCTURE_READERS) == []


def test_structure_read_scan_sees_each_injected_read():
    source = (PACKAGE / "hyper.py").read_text(encoding="utf-8")
    end = len(source.splitlines())
    # each injection, its owner and the line of its read after the end of the source
    for line, owner, at in (
            ("def _count(k):\n    return len(k.nodes)\n", "_count", 2),
            ("def _known(k, q):\n    return q in k.index\n", "_known", 2),
            ("class Walk:\n    def at(self, q):\n        return self.k.index[q]\n", "Walk", 3),
            ("everything = HyperAnalysis(fsa)._problem(kind)[1].nodes\n", None, 1),
            ("def check_exists_forall_bounded(k):\n    return len(k.nodes) + 1\n",
             "check_exists_forall_bounded", 2)):
        assert whole_structure_reads(source + line, WHOLE_STRUCTURE_READERS) == [
            (owner, end + at)], line
    assert whole_structure_reads("def f(path, q, k):\n    k.nodes = ()\n"
                                 "    return path.index(q)\n",
                                 WHOLE_STRUCTURE_READERS) == []
    assert whole_structure_reads("def skipped(k):\n    return k.nodes\n",
                                 {"skipped"}) == []


def unreferenced_definitions(sources):
    """"module.name" of each module-level function and class in the source
    texts, keyed by module name, that no source refers to outside the
    definition itself: by name, by attribute, or by a re-export from
    `__init__`."""
    defined, users = [], {}
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias) and module == "__init__":
                    name = node.name
                else:
                    continue
                users.setdefault(name, set()).add((module, owner))
    return sorted(f"{module}.{name}" for module, name in defined
                  if not users.get(name, set()) - {(module, name)})


def package_sources():
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def test_every_definition_is_referenced_in_the_package():
    """No function or class of the package exists for the tests alone: the
    tests' references live in tests/support.py."""
    assert unreferenced_definitions(package_sources()) == []


def test_reference_scan_sees_each_injected_definition():
    sources = package_sources()
    for module, line, found in (
            ("des", "def _orphan(fsa):\n    return _orphan(fsa)\n", "des._orphan"),
            ("oracle", "class Walk:\n    def step(self):\n        return Walk\n", "oracle.Walk"),
            ("hyper", "async def _later():\n    pass\n", "hyper._later")):
        assert unreferenced_definitions(dict(sources, **{module: sources[module] + line})) == \
            [found], line
    assert unreferenced_definitions({
        "__init__": "from .a import exported\n",
        "a": "def exported():\n    pass\ndef by_name():\n    pass\n"
             "def by_attribute():\n    pass\n",
        "b": "from . import a\nx = a.by_attribute\ndef f():\n    return by_name()\n"}) == [
            "b.f"]
