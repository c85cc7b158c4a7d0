"""Plain graph algorithms shared by the formula engines and the oracle.

Every function takes its graph as a successor function, `succ(node)`
returning an iterable of nodes (of `(label, node)` pairs for the labelled
ones); a successor map is passed as `mapping.__getitem__`.  Successors are
visited in the order given, so results are deterministic, and every search
is iterative, so long paths do not reach the recursion limit.  Nothing here
knows about automata, formulas or estimates: the emptiness check,
accepting_lasso, takes acceptance as a predicate on nodes, and the caller
lists each node's successors only when the search first enters it, so a
product is built only as far as the search goes.
"""

from __future__ import annotations

from collections import deque


def sccs(roots, succ):
    """Strongly connected components reachable from `roots`, as a list of
    lists of nodes, each component starting at its root, the node the
    search entered it by; a component comes before every component that
    reaches it.  It is accepting_lasso's search with no node accepting (see
    _search)."""
    comps = []
    _search(roots, succ, lambda _: False, comps.append)
    return comps


def cyclic_sccs(roots, succ):
    """The components of sccs() whose nodes lie on a cycle: those with more
    than one node or with a self-loop."""
    return [comp for comp in sccs(roots, succ)
            if len(comp) > 1 or comp[0] in succ(comp[0])]


def reach_cycles(nodes, succ):
    """The nodes of `nodes` from which a path reaches a cycle, as a set;
    `nodes` must hold every successor of each of its nodes, and `succ`
    return a list.  These are all the nodes but those every path from
    which ends, found backwards from the nodes with no successor, as
    Kahn's topological sort finds its order: a node ends once all its
    successors have.  `succ` is called once per node, so the pass is
    linear in the nodes and edges."""
    succs = {x: succ(x) for x in nodes}
    preds = {x: [] for x in succs}
    for x, ys in succs.items():
        for y in ys:
            preds[y].append(x)
    left = {x: len(ys) for x, ys in succs.items()}
    ended = [x for x, n in left.items() if not n]
    for y in ended:
        for x in preds[y]:
            left[x] -= 1
            if not left[x]:
                ended.append(x)
    return set(succs).difference(ended)


def accepting_lasso(roots, succ, accepting):
    """A lasso through a node satisfying `accepting`, searching from each
    root in turn, by Couvreur's on-the-fly SCC check (FM 1999): returns
    (stem, cycle), two tuples of nodes, or None when no cycle reachable from
    the roots holds an accepting node.

    The stem starts at a root and each of its steps is an edge, as is the
    step from the stem's last node (a root, when the stem is empty) into
    the cycle and from the cycle's last node back to its first.  `succ` and
    `accepting` are called once per node the search enters (see _search).

    With every node accepting it is a plain cycle search: the first edge
    back into the search path ends it, and the answer is that path, cut
    where the edge enters it.
    """
    return _search(roots, succ, accepting, lambda _: None)


def _search(roots, succ, accepting, closed):
    """The package's one depth-first search: Couvreur's SCC search from
    each root in turn, which calls closed(comp) with each component, a list
    of nodes starting at its root, as it closes, and returns
    accepting_lasso's answer.

    It keeps Couvreur's stack of (root position, holds an accepting node)
    for the components still open.  An edge to a node of an open component
    merges every component above that node, and the search stops as soon
    as the merged component holds an accepting node; a component that
    closes without one is never entered again, and closes before every
    component that reaches it.  The cycle is the search path from the
    edge's target when the target is on it, and that part of the path then
    holds an accepting node.  Otherwise the stem is the path to the
    component's root, and the cycle runs breadth first, inside the
    component, from the root to its nearest accepting node and back, which
    calls `succ` and `accepting` again on the nodes it visits.
    """
    at = {}         # each node entered: its position in `live`, -1 once its component closed
    live = []       # the nodes of the open components, in search order
    comps = []      # (position in `live` of the component's root, holds an accepting node)
    for root in roots:
        if root in at:
            continue
        # every component closed when the last root's search ended
        at[root] = 0
        live.append(root)
        comps.append((0, accepting(root)))
        path, work = [root], [iter(succ(root))]
        while work:
            for nxt in work[-1]:
                i = at.get(nxt)
                if i is None:
                    i = at[nxt] = len(live)
                    comps.append((i, accepting(nxt)))
                    live.append(nxt)
                    path.append(nxt)
                    work.append(iter(succ(nxt)))
                    break
                if i >= 0:
                    top, found = comps.pop()
                    while top > i:
                        top, more = comps.pop()
                        found = found or more
                    comps.append((top, found))
                    if found:
                        return _lasso_in(path, nxt, live[top:], succ, accepting)
            else:
                work.pop()
                i = at[path.pop()]
                if comps[-1][0] == i:
                    comps.pop()
                    comp = live[i:]
                    for node in comp:
                        at[node] = -1
                    del live[i:]
                    closed(comp)
    return None


def _lasso_in(path, target, comp, succ, accepting):
    """accepting_lasso's answer when the edge from the end of `path` to
    `target` closes a cycle inside `comp`, a strongly connected list of
    nodes that starts at its root, which lies on `path`, and holds an
    accepting node.

    Before this edge, every component that had merged held no accepting
    node, or the search would have stopped there.  So each accepting node
    of `comp` was alone in its component, as its root, and lies on `path`,
    after `target` when `target` is on it."""
    if target in path:
        i = path.index(target)
        return tuple(path[:i]), tuple(path[i:])
    root = comp[0]
    members = set(comp)
    found = object()        # the goal of the search for an accepting node

    def inside(node):
        return [(None, nxt) for nxt in succ(node) if nxt in members]

    def onward(node):
        return inside(node) + [(None, found)] if accepting(node) else inside(node)

    there = [node for _, node in shortest_path(root, onward, found)[:-1]]
    back = shortest_path(there[-1] if there else root, inside, root)
    cycle = [root] + there + [node for _, node in back[:-1]]
    return tuple(path[:path.index(root)]), tuple(cycle)


def bfs(roots, succ):
    """The nodes reachable from `roots`, breadth first: each once, in
    discovery order, the roots first with duplicates removed.

    Lazy: each new root is yielded as it is drawn from `roots`, and the
    nodes are expanded in discovery order once the roots are exhausted.  A
    node is yielded before `succ` is called on it, and `succ` is called at
    most once per node, so a caller that stops early (with next() or any())
    draws no root and expands no node beyond those it has taken.  A caller
    may record what `succ` computes for each node it expands.
    """
    order, seen = [], set()
    for root in roots:
        if root not in seen:
            seen.add(root)
            order.append(root)
            yield root
    for node in order:
        for nxt in succ(node):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                yield nxt


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
