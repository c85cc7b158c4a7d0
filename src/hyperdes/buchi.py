"""Translation of LTL bodies to Büchi automata.

The translation is the classic on-the-fly tableau: nodes carry obligations
split into "to process now", "processed" and "postponed to the next instant";
disjunctions and the until/release unfoldings fork nodes, contradictory
literal sets are dropped, and nodes agreeing on processed and postponed
obligations merge.  Acceptance is generalized (one set per until subformula,
ensuring its right side is not postponed forever) and then reduced to plain
Büchi with the usual counter construction.  The translation ends with the
bisimulation quotient of that automaton (see quotient), which accepts the
same words with fewer states: the negated bodies of the forall/forall
templates shrink to 2 states (from 6, or 3 for I-detectability), strong
detectability's from 20 to 11.

Letters are sets of literals: trace-anchored atoms, the pair relations
obseq/stateeq and the state-set literals, which are translated as they
stand, like atoms, so a body need not be expanded over an alphabet first.
A transition guard lists the literals the consumed letter must contain and
the ones it must not; a letter for a body with relations must contain each
relation that holds at that instant, in every argument order used by the
body, and each set literal that holds there.  Guard.admits on such a set is
the definition; the hyper engine's product search encodes each letter and
guard as bitmasks over the literals the guards mention (hyper._bit_letters)
and is tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (
    And,
    Bottom,
    LETTER_ATOMS,
    Next,
    Not,
    Or,
    Release,
    Top,
    Until,
    desugar,
)
from .graph import bfs

INIT = -1  # virtual initial tableau node


def nnf(node):
    """Negation normal form of a desugared body."""
    t = type(node)
    if t in (Top, Bottom) or t in LETTER_ATOMS:
        return node
    if t is Not:
        s = node.sub
        ts = type(s)
        if ts in LETTER_ATOMS:
            return node
        if ts is Top:
            return Bottom()
        if ts is Bottom:
            return Top()
        if ts is Not:
            return nnf(s.sub)
        if ts is And:
            return Or(nnf(Not(s.left)), nnf(Not(s.right)))
        if ts is Or:
            return And(nnf(Not(s.left)), nnf(Not(s.right)))
        if ts is Next:
            return Next(nnf(Not(s.sub)))
        if ts is Until:
            return Release(nnf(Not(s.left)), nnf(Not(s.right)))
        if ts is Release:
            return Until(nnf(Not(s.left)), nnf(Not(s.right)))
        raise TypeError(f"cannot normalize negated {ts.__name__}; desugar first")
    if t in (And, Or, Until, Release):
        return t(nnf(node.left), nnf(node.right))
    if t is Next:
        return Next(nnf(node.sub))
    raise TypeError(f"cannot normalize {t.__name__}; desugar first")


@dataclass(frozen=True)
class Guard:
    pos: frozenset
    neg: frozenset

    def admits(self, letter):
        return self.pos <= letter and not (self.neg & letter)


@dataclass(frozen=True)
class BuchiAutomaton:
    """Plain Büchi automaton with guards consumed on edges.

    Read-only: the engines share one automaton between every check of the
    same body, so no caller may change it or its edge map.
    """
    states: tuple
    initial: object
    edges: dict             # state -> tuple of (guard, target)
    accepting: frozenset


class _Open:
    __slots__ = ("incoming", "new", "old", "nxt")

    def __init__(self, incoming, new, old, nxt):
        self.incoming = set(incoming)
        self.new = list(new)
        self.old = dict(old)    # ordered set: formula -> None
        self.nxt = dict(nxt)

    def fork(self, extra_new):
        return _Open(self.incoming, self.new + list(extra_new), self.old, self.nxt)


def _tableau(phi):
    """Expand the obligation graph; returns node data and until subformulas."""
    closed = {}        # (frozenset old, frozenset nxt) -> id
    old_of = []        # id -> tuple of processed formulas (insertion order)
    nxt_of = []
    incoming = []      # id -> set of predecessor ids (INIT allowed)
    untils = []        # first-appearance order

    # first in, first out: the loop also visits the nodes it appends
    work = [_Open({INIT}, [phi], {}, {})]
    for node in work:
        dead = False
        while node.new:
            f = node.new.pop(0)
            if f in node.old:
                continue
            t = type(f)
            if t is Top:
                continue
            if t is Bottom:
                dead = True
                break
            if t in LETTER_ATOMS:
                if Not(f) in node.old:
                    dead = True
                    break
                node.old[f] = None
            elif t is Not:
                if f.sub in node.old:
                    dead = True
                    break
                node.old[f] = None
            elif t is And:
                node.old[f] = None
                node.new.extend((f.left, f.right))
            elif t is Or:
                node.old[f] = None
                work.append(node.fork([f.right]))
                node.new.append(f.left)
            elif t is Until:
                node.old[f] = None
                work.append(node.fork([f.right]))
                node.new.append(f.left)
                node.nxt[f] = None
            elif t is Release:
                node.old[f] = None
                work.append(node.fork([f.left, f.right]))
                node.new.append(f.right)
                node.nxt[f] = None
            elif t is Next:
                node.old[f] = None
                node.nxt[f.sub] = None
            else:
                raise TypeError(f"unexpected {t.__name__} in tableau")
        if dead:
            continue
        key = (frozenset(node.old), frozenset(node.nxt))
        if key in closed:
            incoming[closed[key]] |= node.incoming
            continue
        qid = len(old_of)
        closed[key] = qid
        old_of.append(tuple(node.old))
        nxt_of.append(tuple(node.nxt))
        incoming.append(set(node.incoming))
        for f in node.old:
            if type(f) is Until and f not in untils:
                untils.append(f)
        work.append(_Open({qid}, list(node.nxt), {}, {}))
    return old_of, nxt_of, incoming, untils


def ltl_to_buchi(body) -> BuchiAutomaton:
    """Büchi automaton for a body (sugar handled here), reduced to its
    bisimulation quotient."""
    phi = nnf(desugar(body))
    old_of, _, incoming, untils = _tableau(phi)
    n = len(old_of)

    guards = []
    for old in old_of:
        pos = frozenset(f for f in old if type(f) in LETTER_ATOMS)
        neg = frozenset(f.sub for f in old if type(f) is Not)
        guards.append(Guard(pos, neg))

    raw_edges = {INIT: []}
    for qid in range(n):
        raw_edges[qid] = []
    for qid in range(n):
        for pred in sorted(incoming[qid]):
            raw_edges[pred].append(qid)

    k = max(1, len(untils))
    old_sets = [frozenset(old) for old in old_of]
    fair = []
    for u in untils:
        if type(u.right) is Top:
            # a trivially true right side never shows up in the processed
            # set, but it also discharges the until at every instant
            fair.append(frozenset(range(n)))
        else:
            fair.append(frozenset(q for q in range(n)
                                  if u not in old_sets[q] or u.right in old_sets[q]))
    if not fair:
        fair.append(frozenset(range(n)))

    edges = {}

    def expand(state):
        q, i = state
        advance = q != INIT and q in fair[i]
        j = (i + 1) % k if advance else i
        edges[state] = tuple((guards[t], (t, j)) for t in raw_edges[q])
        return [(t, j) for t in raw_edges[q]]

    initial = (INIT, 0)
    states = list(bfs([initial], expand))
    accepting = frozenset(s for s in states if s[0] != INIT and s[1] == 0 and s[0] in fair[0])
    return quotient(BuchiAutomaton(states=tuple(states), initial=initial,
                                   edges=edges, accepting=accepting))


def quotient(ba) -> BuchiAutomaton:
    """The bisimulation quotient of ba, which accepts the same words.

    Two states are merged when they agree on acceptance and, for each guard,
    on the classes their edges under it lead to: the partition by acceptance
    is refined on the signature frozenset((guard, class of target)) until it
    is stable.  Each class is kept as its first state in `states` order, so
    the initial state, which comes first, stays initial, and that state's
    edges lead to the kept states of their targets' classes, in their order,
    without repeats."""
    cls, count = {s: s in ba.accepting for s in ba.states}, 0
    while True:
        signatures = {}
        cls = {s: signatures.setdefault(
                   (cls[s], frozenset((g, cls[t]) for g, t in ba.edges[s])), len(signatures))
               for s in ba.states}
        if len(signatures) == count:
            break
        count = len(signatures)
    kept = {}
    for s in ba.states:
        kept.setdefault(cls[s], s)
    states = tuple(kept.values())
    edges = {s: tuple(dict.fromkeys((g, kept[cls[t]]) for g, t in ba.edges[s]))
             for s in states}
    return BuchiAutomaton(states=states, initial=ba.initial, edges=edges,
                          accepting=ba.accepting.intersection(states))
