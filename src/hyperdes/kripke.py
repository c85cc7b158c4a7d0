"""Kripke encodings of partially observed automata.

A node pairs an automaton state with the observation that entered it (no
observation yet for initial nodes).  Successors of (x, o) are exactly the
pairs (x', o') where x' is reachable from x by one observable event masked o'
padded with unobservable events on both sides, so infinite node paths
correspond to runs of the automaton sampled at observation instants.

The modified encoding adds, for every node, a twin labeled with the pause
proposition "tau" and connected back and forth with its original; a path may
therefore stall at any instant, which is what delayed estimation and the
corresponding properties quantify over.

Both encodings are built on demand: a node's successors and label are
computed when a search or a replay first looks them up, so a check pays
only for the nodes it reaches, and each state is stepped once, in one
pass, however many of its nodes are expanded.  The modified encoding is a
view that keeps the plain structure it extends.  The node list and its
index cover the whole reachable structure and are computed on first use:
breadth first from the initial nodes, which expands every plain node, and
for the modified encoding the plain nodes, then their twins.  The step is
the set stepper of the analysis (des.state_moves, one per analysed
machine), shared with every other structure the analysis builds of the
machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple, Optional

from .des import EPS, state_moves, unobservable_reach, validate_fsa
from .errors import AlreadyModified
from .graph import bfs


class KNode(NamedTuple):
    state: str
    obs: Optional[str]      # None on nodes not yet entered by an observation
    copy: bool = False      # True for the stalling twin in the modified form

    def pretty(self):
        o = "eps" if self.obs is None else self.obs
        if self.copy:
            return f"({self.state}^c,{o}^c)"
        return f"({self.state},{o})"


@dataclass(frozen=True)
class Lasso:
    """Ultimately periodic node path: stem then cycle repeated forever."""
    stem: tuple
    cycle: tuple

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("a lasso needs a nonempty cycle")


@dataclass
class Verdict:
    """Outcome of deciding one property, on either route."""
    property: str
    holds: object               # True, False or "inconclusive"
    mode: str                   # "exact" or "bounded"
    engine: str
    bound: int = None
    witness: tuple = None       # (pi1 Lasso, pi2 Lasso or None)
    details: dict = None
    seconds: float = None

    @property
    def replayable(self):
        """Whether it has a witness for a replay to check."""
        return self.witness is not None


def canonical_lasso(lasso: Lasso) -> Lasso:
    """Shortest stem, primitive cycle form of the same infinite path.

    The cycle is cut to its smallest period and stem entries that merely
    pre-play the cycle are absorbed into it by rotation, so two lassos
    denote the same path iff their canonical forms are equal.
    """
    cycle = list(lasso.cycle)
    for period in range(1, len(cycle) + 1):
        if len(cycle) % period == 0 and cycle == cycle[:period] * (len(cycle) // period):
            cycle = cycle[:period]
            break
    stem = list(lasso.stem)
    while stem and stem[-1] == cycle[-1]:
        cycle = [cycle[-1]] + cycle[:-1]
        stem.pop()
    return Lasso(stem=tuple(stem), cycle=tuple(cycle))


class OnDemand(dict):
    """A map that computes a missing key's entry, by `compute(key)`, on its
    first lookup and keeps it.  Only indexing computes: `in`, get() and
    iteration see the entries computed so far."""

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class KripkeStructure:
    """Finite Kripke structure with set-of-proposition labels, built on
    demand.

    Propositions use the same surface syntax as the formula language:
    "x:<state>", "o:<observation>" and "tau".  `succ` and `label` are
    OnDemand maps, computing a node's successor tuple and label on first
    lookup; look up only nodes reached from `initial`.  `nodes`, every
    reachable node, is computed on first use: by `order()` when the builder
    gives one, else as the breadth-first order from `initial` over `succ`,
    which expands every node.  `index` maps each node to its position
    there.  A modified view keeps the plain structure it extends as
    `plain`, which is None on a plain one.
    """

    def __init__(self, initial, successors, labels, plain=None, order=None):
        self.initial = tuple(initial)
        self.succ = OnDemand(successors)
        self.label = OnDemand(labels)
        self.modified = plain is not None
        self.plain = plain
        self._order = order

    @cached_property
    def nodes(self):
        if self._order is not None:
            return tuple(self._order())
        return tuple(bfs(self.initial, self.succ.__getitem__))

    @cached_property
    def index(self):
        return {q: i for i, q in enumerate(self.nodes)}

    def __repr__(self):
        """The nodes expanded so far and the edges they leave; expands
        none."""
        kind = "modified Kripke" if self.modified else "Kripke"
        edges = sum(map(len, self.succ.values()))
        return f"<{kind}: {len(self.succ)} nodes expanded, {edges} edges>"


def step_nodes(succ, nodes, obs) -> frozenset:
    """One step of the subset walk over a structure: the successors, under
    the map `succ`, of any of `nodes` that are entered by observation `obs`."""
    return frozenset(t for q in nodes for t in succ[q] if t.obs == obs)


# a KNode from its fields, without the namedtuple's Python-level __new__
_knode = partial(tuple.__new__, KNode)


def _label(q):
    """A plain node's label: its state and the observation entering it."""
    if q.obs is EPS:
        return frozenset((f"x:{q.state}",))
    return frozenset((f"x:{q.state}", f"o:{q.obs}"))


def build_kripke(fsa, moves=None) -> KripkeStructure:
    """Observation-sampled encoding of a validated automaton, on demand.

    The successors of a node (x, o) depend on x alone: they are the nodes
    (x', o') with x' reachable from x by a string observed as o', in
    observation order and, for each observation, in state declaration
    order.  They come from a set stepper of fsa, `moves` (by default a
    fresh des.state_moves(fsa)), on the one-state set {x}, in one pass
    when the first node of x is expanded, and are kept in one dict keyed
    by state for its other nodes; only a step to several states is
    sorted.  An analysis hands in the stepper it shares
    with the other structures it builds of the machine.  The tests'
    reference steps by the definition instead, one observation at a time.
    Only the initial nodes are computed here.
    """
    if not fsa.validated:
        validate_fsa(fsa)

    step = state_moves(fsa) if moves is None else moves
    rank = fsa.state_index.__getitem__
    by_state = {}

    def successors(q):
        x = q[0]
        out = by_state.get(x)
        if out is None:
            out = []
            for o, ys in step((x,)).items():
                for y in (ys if len(ys) == 1 else sorted(ys, key=rank)):
                    out.append(_knode((y, o, False)))
            out = by_state[x] = tuple(out)
        return out

    initial = [_knode((x, EPS, False)) for x in fsa.sort_states(unobservable_reach(fsa, fsa.initial))]
    return KripkeStructure(initial, successors, _label)


def build_modified_kripke(k: KripkeStructure) -> KripkeStructure:
    """A view of `k` with a stalling twin per node, labeled with "tau",
    that keeps `k` as its `plain` structure.

    A twin's one successor is its original; an original keeps its
    successors in `k`, read from `k` on demand, and gets its twin as a last
    one.  Its nodes are those of `k`, then their twins in the same order."""
    if k.modified:
        raise AlreadyModified("structure already carries stalling twins")

    def successors(q):
        if q.copy:
            return (_knode((q.state, q.obs, False)),)
        return k.succ[q] + (_knode((q.state, q.obs, True)),)

    def label(q):
        if q.copy:
            return frozenset((f"x:{q.state}", "tau"))
        return k.label[q]

    def order():
        return k.nodes + tuple(_knode((q.state, q.obs, True)) for q in k.nodes)

    return KripkeStructure(k.initial, successors, label, plain=k, order=order)


def dot_quote(text):
    """A DOT quoted string of text, with its quotes and backslashes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(k: KripkeStructure) -> str:
    """Deterministic DOT rendering; initial nodes get a doubled border."""
    lines = ["digraph kripke {", "  rankdir=LR;", '  node [shape=circle, fontsize=10];']
    initial = set(k.initial)
    for q in k.nodes:
        label = "{" + ",".join(sorted(k.label[q], key=_prop_order)) + "}"
        shape = ", peripheries=2" if q in initial else ""
        lines.append(f"  {dot_quote(q.pretty())} [label={dot_quote(label)}{shape}];")
    for q in k.nodes:
        for t in k.succ[q]:
            lines.append(f"  {dot_quote(q.pretty())} -> {dot_quote(t.pretty())};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _prop_order(p):
    # state prop first, then observation, then the pause marker
    if p.startswith("x:"):
        return (0, p)
    if p.startswith("o:"):
        return (1, p)
    return (2, p)
