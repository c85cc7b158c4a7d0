"""The graph kernel against brute force on random small digraphs.

Both decision routes run on these functions, so a fault here would show on
both sides alike and the differential fuzz could not see it.  Each function
is therefore compared with a plain fixpoint or table computed here.
"""

from itertools import islice

from hypothesis import given, settings, strategies as st

from hyperdes.graph import (
    accepting_lasso,
    bfs,
    cyclic_sccs,
    reachable,
    sccs,
    shortest_path,
    subset_graph,
)

LABELS = ("a", "b")


@st.composite
def digraphs(draw):
    """(nodes, edges, roots): up to 8 nodes, edges as (label, source,
    target) triples, and a nonempty list of roots."""
    n = draw(st.integers(1, 8))
    nodes = list(range(n))
    edges = draw(st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(nodes),
                                    st.sampled_from(nodes)), max_size=3 * n, unique=True))
    roots = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=n, unique=True))
    return nodes, edges, roots


def successors(nodes, edges):
    """Unlabelled successor lists, each target once, in edge order."""
    succ = {x: [] for x in nodes}
    for _, a, b in edges:
        if b not in succ[a]:
            succ[a].append(b)
    return succ


def closure(nodes, succ):
    """reach[x]: the nodes at the end of a path of one or more edges from x,
    by fixpoint iteration."""
    reach = {x: set(succ[x]) for x in nodes}
    changed = True
    while changed:
        changed = False
        for x in nodes:
            extra = set().union(*(reach[y] for y in reach[x])) - reach[x]
            if extra:
                reach[x] |= extra
                changed = True
    return reach


def reach_from(roots, reach):
    return set(roots).union(*(reach[r] for r in roots))


def levels(nodes, succ, roots):
    """dist[x]: fewest edges from any root to x (len(nodes) when x cannot be
    reached), by relaxation."""
    dist = {x: 0 if x in roots else len(nodes) for x in nodes}
    for _ in nodes:
        for x in nodes:
            for y in succ[x]:
                dist[y] = min(dist[y], dist[x] + 1)
    return dist


checks = settings(max_examples=200, deadline=None, derandomize=True)


@checks
@given(digraphs())
def test_sccs_are_the_mutual_reachability_classes(graph):
    nodes, edges, roots = graph
    succ = successors(nodes, edges)
    reach = closure(nodes, succ)
    comps = list(sccs(roots, succ.__getitem__))
    members = [x for comp in comps for x in comp]
    assert len(members) == len(set(members))
    assert set(members) == reach_from(roots, reach)
    which = {x: i for i, comp in enumerate(comps) for x in comp}
    for x in members:
        for y in members:
            mutual = x == y or (y in reach[x] and x in reach[y])
            assert (which[x] == which[y]) == mutual
            if which[y] > which[x]:
                assert y not in reach[x]    # a component comes before its predecessors
    cyclic = [set(comp) for comp in cyclic_sccs(roots, succ.__getitem__)]
    assert cyclic == [set(comp) for comp in comps if comp[0] in reach[comp[0]]]


@checks
@given(digraphs())
def test_accepting_lasso_with_every_node_accepting_finds_any_cycle(graph):
    """With every node accepting, accepting_lasso is the package's cycle
    search: its answer is the search path, which ends with an edge back
    into it, and it is missing only when no cycle is reachable."""
    nodes, edges, roots = graph
    succ = successors(nodes, edges)
    reach = closure(nodes, succ)
    found = accepting_lasso(roots, succ.__getitem__, lambda _: True)
    acyclic = all(x not in reach[x] for x in reach_from(roots, reach))
    assert (found is None) == acyclic
    if found is not None:
        stem, cycle = found
        path = stem + cycle
        assert path[0] in roots and cycle
        assert len(path) == len(set(path))
        assert all(b in succ[a] for a, b in zip(path, path[1:]))
        assert cycle[0] in succ[path[-1]]


def test_accepting_lasso_finds_reachable_accepting_cycle():
    """A graph with one accepting loop yields that loop as the witness."""
    succ = {"a": ["b"], "b": ["c"], "c": ["c"]}
    hit = accepting_lasso(["a"], lambda s: succ[s], lambda s: s == "c")
    assert hit == (("a", "b"), ("c",))


def test_accepting_lasso_ignores_non_accepting_cycles():
    """Cycles that never touch an accepting state are not reported."""
    succ = {"a": ["a", "b"], "b": ["a"]}
    assert accepting_lasso(["a"], lambda s: succ[s], lambda s: False) is None


def test_accepting_lasso_accepting_state_without_cycle():
    """Reaching an accepting dead end is not an accepting cycle."""
    succ = {"a": ["b"], "b": []}
    assert accepting_lasso(["a"], lambda s: succ[s], lambda s: s == "b") is None


def test_accepting_lasso_closing_off_the_search_path_goes_breadth_first():
    """The edge d -> e closes the component {a, e, d} at e, which the search
    has left: the cycle runs from the root a to the accepting d and back."""
    succ = {"a": ["e", "d"], "e": ["a"], "d": ["e"]}
    assert accepting_lasso(["a"], lambda s: succ[s], lambda s: s == "d") == (
        (), ("a", "d", "e"))


@checks
@given(digraphs(), st.data())
def test_accepting_lasso_is_a_lasso_missing_only_without_accepting_cycles(graph, data):
    nodes, edges, roots = graph
    accepting = data.draw(st.sets(st.sampled_from(nodes)))
    succ = successors(nodes, edges)
    entered = []

    def tracked(x):
        entered.append(x)
        return succ[x]

    found = accepting_lasso(roots, tracked, accepting.__contains__)
    reach = closure(nodes, succ)
    assert (found is None) == (not any(x in reach[x] for x in
                                       accepting & reach_from(roots, reach)))
    if found is None:
        assert len(entered) == len(set(entered))     # each node expanded once
        return
    stem, cycle = found
    run = stem + cycle
    assert cycle and run[0] in roots
    assert all(b in succ[a] for a, b in zip(run, run[1:]))
    assert cycle[0] in succ[cycle[-1]]
    assert accepting.intersection(cycle)


@checks
@given(digraphs())
def test_bfs_yields_each_reachable_node_once_breadth_first_and_lazily(graph):
    nodes, edges, roots = graph
    succ = successors(nodes, edges)
    yielded, expanded = [], []

    def tracked(x):
        # expanded only once it has been yielded, and only once
        assert x in yielded and x not in expanded
        expanded.append(x)
        return succ[x]

    # a bound one past the node count shows a repeat without looping forever
    for x in islice(bfs(roots + roots[::-1], tracked), len(nodes) + 1):
        yielded.append(x)
    assert len(yielded) == len(set(yielded))
    assert set(yielded) == reach_from(roots, closure(nodes, succ))
    assert yielded[:len(roots)] == roots
    dist = levels(nodes, succ, roots)
    assert [dist[x] for x in yielded] == sorted(dist[x] for x in yielded)

    for k in range(len(yielded) + 1):
        yielded.clear()
        expanded.clear()
        for x in islice(bfs(roots, tracked), k):
            yielded.append(x)
        assert len(expanded) <= k

    # roots from a generator are drawn one at a time, as they are yielded
    drawn = []

    def draw():
        for root in roots:
            drawn.append(root)
            yield root

    for k in range(len(roots) + 1):
        drawn.clear()
        yielded.clear()
        expanded.clear()
        for x in islice(bfs(draw(), tracked), k):
            yielded.append(x)
        assert yielded == roots[:k] and len(drawn) <= k


@checks
@given(digraphs())
def test_reachable_is_the_reflexive_transitive_closure(graph):
    nodes, edges, roots = graph
    succ = successors(nodes, edges)
    assert reachable(roots, succ.__getitem__) == reach_from(roots, closure(nodes, succ))


@checks
@given(digraphs())
def test_shortest_path_has_the_breadth_first_length(graph):
    nodes, edges, _ = graph
    moves = {x: [(label, b) for label, a, b in edges if a == x] for x in nodes}
    # dist[x][y]: fewest edges from x to y, zero edges allowed, by relaxation
    inf = len(nodes) + 1
    dist = {x: {y: 0 if x == y else inf for y in nodes} for x in nodes}
    for _ in nodes:
        for _, a, b in edges:
            for x in nodes:
                dist[x][b] = min(dist[x][b], dist[x][a] + 1)
    for source in nodes:
        for goal in nodes:
            steps = shortest_path(source, moves.__getitem__, goal)
            # one or more edges: leave the source first
            want = min((1 + dist[b][goal] for _, a, b in edges if a == source), default=inf)
            if want >= inf:
                assert steps is None
                continue
            assert len(steps) == want
            at = source
            for label, nxt in steps:
                assert (label, nxt) in moves[at]
                at = nxt
            assert at == goal


@checks
@given(digraphs())
def test_subset_graph_is_the_closure_under_step(graph):
    nodes, edges, roots = graph

    def step(states, label):
        return frozenset(b for lab, a, b in edges if lab == label and a in states)

    def moves(states):
        grouped = {}
        for label, a, b in edges:
            if a in states:
                grouped.setdefault(label, set()).add(b)
        return [(label, frozenset(grouped[label])) for label in LABELS if label in grouped]

    root = frozenset(roots)
    order, succ = subset_graph(root, moves)
    want = {root}
    while True:
        more = {step(s, label) for s in want for label in LABELS} - {frozenset()}
        if more <= want:
            break
        want |= more
    assert order[0] == root
    assert len(order) == len(set(order)) and set(order) == want
    assert set(succ) == want
    for s in order:
        assert succ[s] == [(label, step(s, label)) for label in LABELS if step(s, label)]
    # breadth first: no set is found before the set it is first reached from
    first_seen = {root: 0}
    for s in order:
        for _, t in succ[s]:
            first_seen.setdefault(t, order.index(s))
    assert [first_seen[s] for s in order] == sorted(first_seen[s] for s in order)
