"""Structure of the package: its modules import each other without cycles.

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
