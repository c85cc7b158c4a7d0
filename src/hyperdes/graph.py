"""Plain graph algorithms shared by the formula engines and the oracle.

Every function takes its graph as a successor function, `succ(node)`
returning an iterable of nodes (of `(label, node)` pairs for the labelled
ones); a successor map is passed as `mapping.__getitem__`.  Successors are
visited in the order given, so results are deterministic, and every search
is iterative, so long paths do not reach the recursion limit.  Nothing here
knows about automata, formulas or estimates.
"""

from __future__ import annotations

from collections import deque


def sccs(roots, succ):
    """Strongly connected components reachable from `roots`, by Tarjan's
    algorithm (SIAM J. Comput. 1972) without recursion.

    Yields each component as a list as soon as it is complete, so callers
    can stop early; a component comes before every component that reaches it.
    """
    index, low = {}, {}
    stack, on_stack = [], set()
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ(nxt))))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while not comp or comp[-1] != node:
                        comp.append(stack.pop())
                        on_stack.discard(comp[-1])
                    yield comp


def cyclic_sccs(roots, succ):
    """The components of sccs() whose nodes lie on a cycle: those with more
    than one node or with a self-loop."""
    for comp in sccs(roots, succ):
        if len(comp) > 1 or comp[0] in succ(comp[0]):
            yield comp


def first_cycle(roots, succ):
    """The first cycle a depth-first search meets, searching from each root
    in turn.

    Returns (path, i): the search path, whose last node has an edge back to
    path[i]; None when no cycle is reachable.  A fully explored node is not
    entered again, since no cycle passes through it.
    """
    done = set()
    for root in roots:
        if root in done:
            continue
        path, at = [root], {root: 0}
        work = [iter(succ(root))]
        while work:
            for nxt in work[-1]:
                if nxt in at:
                    return path, at[nxt]
                if nxt not in done:
                    at[nxt] = len(path)
                    path.append(nxt)
                    work.append(iter(succ(nxt)))
                    break
            else:
                work.pop()
                node = path.pop()
                del at[node]
                done.add(node)
    return None


def bfs(roots, succ):
    """The nodes reachable from `roots`, breadth first: each once, in
    discovery order, the roots first with duplicates removed.

    Lazy: a node is yielded before `succ` is called on it, and `succ` is
    called at most once per node, so a caller that stops early (with next()
    or any()) expands no node beyond those it has taken.  A caller may
    record what `succ` computes for each node it expands.
    """
    order = list(dict.fromkeys(roots))
    seen = set(order)
    for node in order:
        yield node
        for nxt in succ(node):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)


def reachable(sources, succ):
    """The set of nodes reachable from `sources`, the sources included."""
    return set(bfs(sources, succ))


def shortest_path(source, succ, goal):
    """A shortest path of one or more edges from `source` to `goal`, by
    breadth-first search; `succ(node)` yields (label, node) pairs.

    Returns the path as its (label, node) steps, the last node being
    `goal`, or None when `goal` cannot be reached.  Among shortest paths it
    takes the one whose steps come first in successor order, level by level.
    """
    parent = {}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for label, nxt in succ(node):
            if nxt in parent:
                continue
            parent[nxt] = (node, label)
            if nxt == goal:
                steps = [(label, nxt)]
                while node != source:
                    step = node
                    node, label = parent[step]
                    steps.append((label, step))
                return steps[::-1]
            queue.append(nxt)
    return None


def subset_graph(root, moves):
    """Subset construction: the sets reachable from `root`, by bfs, where
    `moves(set)` returns the list of the set's (symbol, successor set)
    moves, in the caller's symbol order and with no empty successor.

    Returns (order, succ): the sets in bfs order, and for each set the list
    `moves` returned for it, called once per set.
    """
    succ = {}

    def expand(current):
        succ[current] = out = moves(current)
        return [t for _, t in out]

    return list(bfs([root], expand)), succ
