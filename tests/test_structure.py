"""Structure of the package: its modules import each other without cycles,
and every breadth-first search runs through the graph kernel.

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
    graph = import_graph()
    assert "oracle" in graph["hyper"]
    assert not graph["oracle"] & {"hyper", "buchi", "fuzz"}
    assert graph["graph"] == set()


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
