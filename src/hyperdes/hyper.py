"""Hyperproperty checking engines over Kripke encodings.

Three engines cover the quantifier prefixes that occur in the built-in
properties:

- forall/forall: classic automata route.  The negated body is translated to a
  Büchi automaton, composed with the two-fold self-composition of the
  structure, and searched for an accepting lasso on the fly by
  graph.accepting_lasso, Couvreur's SCC-based emptiness check, which stops
  at the first component that closes with an accepting state.  A node
  pair's successors are listed only when some automaton edge admits its
  letter.  Five properties are decided this way on their templates alone,
  strong detectability among them, and every violation is a pair of traces.
- forall/exists: the built-in formulas of this shape all lie in a synchronous
  fragment (observation agreement up to a single distinguished instant plus
  membership obligations there), which admits an exact subset-tracking walk:
  the set of still-viable witness candidates for the existential trace is
  advanced along every universal trace, and a property violation is exactly a
  reachable instant where the candidate set has died.  Before a pause anchor
  the walk's states are estimates alone, since every member of an estimate
  is reachable together with it; the universal trace is lifted from the
  estimate path once a violation is found.  The search and its
  replay read the same plan, _sync_plan: the body's shape, read once per
  body, in which every state condition is one state-set literal, and one
  state set for each trace, the intersection of its literals' sets as the
  formula's `sets` binds them.  Any other forall/exists body raises
  NotSynchronousFragment.
- exists/forall: the collapse body (always obs-equal implies eventually
  always state-equal, which is weak detectability) is decided on the subset
  graph of the structure's current-state estimates: it holds exactly when a
  cycle of singleton estimates is reachable, and its witness is a run into
  such a cycle, lifted from the estimates to nodes.  verify() takes this
  exact route unless asked for the bounded one.  The bounded route makes
  the same decision first and reports its failure as inconclusive; where
  it holds, it enumerates candidate lassos up to a length bound, and a
  found witness is conclusive, exhaustion inconclusive.  A candidate is
  accepted by the estimate walk, and the product of the structure with the
  estimate prunes the search to the (node, estimate) states that can still
  reach a singleton cycle.  Neither route decides any other exists/forall
  body.

The searches step the current-state estimate by one memoised step,
_estimate_moves, and key their states by the estimate alone wherever the
node adds nothing: the forall/exists walk before its anchor and the exact
exists/forall decision.  Their witnesses are lifted from an estimate path
to a node path by one rule, _lift: backwards from the last node, each
estimate's least member with an edge to the node chosen after it, so no
choice depends on the order a frozenset iterates in.  Replays walk the
estimate along a lasso with _lasso_estimates, which steps by the
definition, kripke.step_nodes, not by the search's step.

Every engine and witness replay reads a formula's body and `sets` as they
stand: obseq/stateeq and the state-set literals (fault, initial, secret,
boundary, cyclic) are literals of the letter of each node pair, so the
automaton of a built-in property does not depend on the model and is
translated once per process.  A built-in property's body is one object per
process (formula.TEMPLATES), and only its `sets` is computed per machine,
so the per-body caches here (_negated_body, _letter_plan, _sync_form,
_is_collapse) find their entry by identity rather than by comparing trees,
and a formula node keeps its hash once computed (see formula).
An expanded body (property_formula's output) is a formula like any other;
only forall/forall decides it to the same verdict.

The product search reads each letter as a bitmask over the literals the
automaton's guards mention: every guard is a (pos, neg) pair of masks,
compiled once per body with the automaton (_negated_body, one cache lookup
per check), and every node carries the mask of what holds there on either
trace, computed when a pair holding the node is first read, so the letter
of a node pair is two masks or-ed with the relation bits its observation
and state keys call for (see _bit_letters).  The masks and keys come from
the node's fields; its label is read only when a guard mentions a plain
atom, as in an expanded body.  Guard.admits on the set of literals that
hold stays the reference the tests compare the masks against.

The structures are built on demand (see kripke): the searches and replays
here look up the successors and labels of the nodes they reach and never
the whole node list, so a check expands only what it visits.  The
forall/exists searches read an original node's successors off the plain
structure a modified view keeps.  The bounded exists/forall search
takes its length bound from the number of nodes its subset graph
expanded, which is every reachable node.  A HyperAnalysis steps each
machine it checks by one set stepper (des.state_moves), shared by its
Kripke structure and the template's cyclic states.
"""

from __future__ import annotations

import functools
import time
from dataclasses import astuple
from itertools import product

from .buchi import ltl_to_buchi
from .des import refine_fault_partition, state_moves, validate_fsa
from .errors import (
    MissingAnnotation,
    NotARun,
    NotCollapseBody,
    NotSynchronousFragment,
    PrefixMismatch,
    UnknownRoute,
)
from .formula import (
    FAULT_PROPERTIES,
    Always,
    And,
    Atom,
    Eventually,
    HyperFormula,
    Implies,
    InSet,
    Not,
    ObsEq,
    StateEq,
    Until,
    _expand_once,
    eval_body,
    missing_annotation,
    property_template,
)
from .graph import accepting_lasso, cyclic_sccs, reachable, shortest_path, subset_graph
from .kripke import (KNode, KripkeStructure, Lasso, OnDemand, Verdict, build_kripke,
                     build_modified_kripke, canonical_lasso, step_nodes)

# candidate lassos the bounded exists/forall search tries before it gives up
MAX_CANDIDATES = 20000


# ---------------------------------------------------------------------------
# shared helpers


def _pair_order(items):
    """Pairs of initial nodes, each once, misaligned pairs first, lazily.

    Distinct start states are where the interesting counterexamples live, so
    they are explored first; this also fixes the reported witness
    deterministically.
    """
    n = len(items)
    for i in range(n):
        for d in range(1, n + 1):
            yield items[i], items[(i + d) % n]


def _project(k, product_path, coord):
    return tuple(q[0][coord] for q in product_path)


def _estimate_moves(succ):
    """The subset step of the searches: moves(D) is a dict from each
    observation of the successors, under `succ`, of D's nodes, in name
    order, to step_nodes(succ, D, o); other observations step D to the empty
    set.  Each estimate's moves are computed once, from its out-edges."""
    memo = {}

    def moves(d):
        if d not in memo:
            grouped = {}
            for q in d:
                for t in succ[q]:
                    grouped.setdefault(t.obs, set()).add(t)
            memo[d] = {o: frozenset(grouped[o]) for o in sorted(grouped)}
        return memo[d]
    return moves


def _lift(succ, estimates, last):
    """A node path along a path of estimates, one node from each, that ends
    at `last`, a member of the last estimate: backwards from `last`, each
    earlier estimate gives its first member, in sorted order, with an edge
    under `succ` to the node chosen after it.  Each estimate but the first
    is a step of the one before, so every member of it has such a
    predecessor; min picks it whatever order a frozenset iterates in."""
    path = [last]
    for d in reversed(estimates[:-1]):
        path.append(min(q for q in d if path[-1] in succ[q]))
    return path[::-1]


def _lasso_estimates(succ, pi1, pos, d):
    """The (position, estimate) states of the subset walk along the lasso
    pi1 from position pos with estimate d, up to and including the first
    repeated state.  A step moves to the next position, wrapping from the
    end of the cycle to its start, and steps d by step_nodes on that node's
    observation, so that a replay does not trust the search's step."""
    nodes = list(pi1.stem) + list(pi1.cycle)
    wrap = len(pi1.stem)
    seen = set()
    while (pos, d) not in seen:
        seen.add((pos, d))
        yield pos, d
        pos = pos + 1 if pos + 1 < len(nodes) else wrap
        d = step_nodes(succ, d, nodes[pos].obs)
    yield pos, d


def _check_prefix(formula, expected):
    got = formula.quantifiers()
    if got != expected:
        raise PrefixMismatch(
            f"engine handles prefix {'/'.join(expected)}, formula has {'/'.join(got)}")


# ---------------------------------------------------------------------------
# forall/forall engine


@functools.lru_cache(maxsize=64)
def _negated_body(body):
    """The automaton of the negated body and the bit encoding of its edges,
    compiled once per body and process: returns (ba, bits, edges, atoms).

    Each literal the guards mention gets one bit; bits maps the literal, as
    the tuple (its type, its two fields), to its bit's mask.  edges[b] lists
    ba.edges[b] in order, each edge as (pos, neg, target) with its guard's
    pos and neg literals as masks.  atoms says whether any guard mentions a
    plain Atom.  A built-in property's body is the same for every model, so
    each property is compiled once; the result is shared by every check of
    the body and must not be mutated."""
    bits = {}

    def mask(literals):
        m = 0
        for lit in literals:
            m |= bits.setdefault((type(lit), *astuple(lit)), 1 << len(bits))
        return m

    ba = ltl_to_buchi(Not(body))
    guards = dict.fromkeys(guard for edges in ba.edges.values() for guard, _ in edges)
    guards = {guard: (mask(guard.pos), mask(guard.neg)) for guard in guards}
    edges = {b: tuple((*guards[guard], b2) for guard, b2 in out)
             for b, out in ba.edges.items()}
    return ba, bits, edges, any(t is Atom for t, *_ in bits)


@functools.lru_cache(maxsize=64)
def _letter_plan(prefix, body, names):
    """The bits _bit_letters sets by the template alone, once per template:
    each set literal of `names` on either trace, the reflexive relations
    of each trace, obseq and stateeq across them."""
    (_, v1), (_, v2) = prefix
    bit = _negated_body(body)[1].get
    return (tuple((bit((InSet, name, v1), 0), bit((InSet, name, v2), 0)) for name in names),
            bit((ObsEq, v1, v1), 0) | bit((StateEq, v1, v1), 0),
            bit((ObsEq, v2, v2), 0) | bit((StateEq, v2, v2), 0),
            bit((ObsEq, v1, v2), 0) | bit((ObsEq, v2, v1), 0),
            bit((StateEq, v1, v2), 0) | bit((StateEq, v2, v1), 0))


def _bit_letters(k, formula, negated):
    """Pair letters of k as bitmasks over the literals of the negated body's
    automaton, given its encoding `negated` (see _negated_body), and the
    edges they admit: returns (letter, admitted).

    letter(u, v) sets the bit of each literal that holds at the node pair
    (u, v): the atoms of both nodes, the obseq/stateeq relations in both
    argument orders and reflexively, and InSet(name, var) when some binding
    of name in formula.sets holds that node's state.  A relation between the
    traces holds when the two nodes carry the same observation (resp. state)
    propositions: the observation of a node entered by one, none for an
    initial node or a stalling twin, and its state, so the keys compared
    are node fields.  A literal on a variable outside the prefix never
    holds.  admitted(letter, b) lists, memoised, the targets of the
    automaton's edges from b, in order, whose guard admits the letter:
    every pos bit set and no neg bit.  This is Guard.admits on the set of
    literals that hold.  Each node's masks are computed on the first letter
    that reads it, and its label is read only when a guard mentions a plain
    atom."""
    (_, v1), (_, v2) = formula.prefix
    _, bits, edges, atoms = negated
    set_bits, reflexive1, reflexive2, obs_rel, state_rel = _letter_plan(
        formula.prefix, formula.body, tuple(name for name, _ in formula.sets))
    # a set no guard mentions sets no bit
    members = [(states, b1, b2) for (_, states), (b1, b2) in zip(formula.sets, set_bits)
               if b1 | b2]

    def masks(q):
        # the masks of what holds at q on either trace, and its observation
        # and state keys
        m1, m2 = reflexive1, reflexive2
        if atoms:
            for p in k.label[q]:
                m1 |= bits.get((Atom, p, v1), 0)
                m2 |= bits.get((Atom, p, v2), 0)
        for states, b1, b2 in members:
            if q.state in states:
                m1 |= b1
                m2 |= b2
        return m1, m2, None if q.copy else q.obs, q.state

    node = OnDemand(masks)

    def letter(u, v):
        m1, _, obs1, state1 = node[u]
        _, m2, obs2, state2 = node[v]
        m = m1 | m2
        if obs1 == obs2:
            m |= obs_rel
        if state1 == state2:
            m |= state_rel
        return m

    memo = {}

    def admitted(lab, b):
        if (lab, b) not in memo:
            memo[lab, b] = [b2 for pos, neg, b2 in edges[b]
                            if lab & pos == pos and not lab & neg]
        return memo[lab, b]

    return letter, admitted


def _product_lasso(k, formula, roots):
    """Accepting lasso of the product of the two-fold self-composition of k
    with the automaton of the negated body, as (stem, cycle) of (node pair,
    automaton state) pairs, or None when no pair of traces violates the
    body; graph.accepting_lasso searches the product as it goes.

    A node pair c = (u, v) reads its pair letter, a bitmask over the
    automaton's literals (see _bit_letters).  The product successors of
    (c, b) are the pairs succ(u) × succ(v), in that order, each with every
    automaton edge from b whose guard admits the letter; with no such edge
    (c, b) has none.  Each pair keeps one record: its letter, computed on
    its first visit, and its successor pairs, listed once, when some edge
    admits its letter, so a pair no edge admits expands neither of its
    nodes.  The admitted edges are computed once per letter and automaton
    state."""
    negated = _negated_body(formula.body)
    letter, admitted = _bit_letters(k, formula, negated)
    succ = k.succ
    records = {}    # node pair -> [its letter, its successor pairs or None]

    def successors(state):
        c, b = state
        record = records.get(c)
        if record is None:
            record = records[c] = [letter(*c), None]
        targets = admitted(record[0], b)
        if not targets:
            return ()
        if record[1] is None:
            record[1] = tuple(product(succ[c[0]], succ[c[1]]))
        return [(c2, b2) for c2 in record[1] for b2 in targets]

    ba = negated[0]
    accepting = ba.accepting
    return accepting_lasso(((c, ba.initial) for c in roots), successors,
                           lambda s: s[1] in accepting)


def check_forall_forall(k: KripkeStructure, formula: HyperFormula) -> Verdict:
    """Exact check of a two-trace universal formula: the emptiness check of
    the product of its negated body's automaton with the two-fold
    self-composition of k, by graph.accepting_lasso (see _product_lasso).

    The body is translated as it stands: obseq/stateeq and state-set leaves
    are literals decided on the pair letter, a bitmask over the literals of
    the automaton's guards (see _bit_letters).  A body expanded over the
    alphabet needs no extra code, since the pair letter holds every plain
    atom it mentions, and gives the same verdict.
    """
    _check_prefix(formula, ("forall", "forall"))
    hit = _product_lasso(k, formula, _pair_order(list(k.initial)))
    if hit is None:
        return Verdict(property=None, holds=True, mode="exact",
                       engine="hyper-forall-forall")
    stem, cycle = hit
    pi1 = canonical_lasso(Lasso(stem=_project(k, stem, 0), cycle=_project(k, cycle, 0)))
    pi2 = canonical_lasso(Lasso(stem=_project(k, stem, 1), cycle=_project(k, cycle, 1)))
    return Verdict(property=None, holds=False, mode="exact",
                   engine="hyper-forall-forall", witness=(pi1, pi2))


# ---------------------------------------------------------------------------
# forall/exists engine (synchronous fragment)


def _conjuncts(node):
    """Conjuncts of a body, left to right."""
    out, stack = [], [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, And):
            stack.extend((cur.right, cur.left))
        else:
            out.append(cur)
    return out


def _set_literal(node, var, names):
    """The name of `node` if it is a state-set literal on `var` whose name
    is among `names`, else None."""
    if isinstance(node, InSet) and node.trace == var and node.name in names:
        return node.name
    return None


@functools.lru_cache(maxsize=64)
def _sync_form(prefix, body, names):
    """The forall/exists shape of a body whose `sets` binds `names`, or
    NotSynchronousFragment saying why it has none: (anchor, p1, p2, scope)
    with p1 and p2 the names of the state-set literals each trace must
    meet, unbound (see _sync_plan).  Every state condition is one set
    literal: the pause constraint and the witness obligation at the pause
    one each, and at instant 0 each conjunct of the antecedent and, beside
    agreement, of the consequent.  Like the automaton it depends on the
    body alone, so it is computed once per body and process."""
    (_, v1), (_, v2) = prefix
    if not isinstance(body, Implies):
        raise NotSynchronousFragment("body must be an implication")
    obseq = ObsEq(v1, v2)
    ante = _conjuncts(body.left)
    cons = _conjuncts(body.right)
    tau1 = Atom("tau", v1)
    tau2 = Atom("tau", v2)
    pause_marker = _conjuncts(_expand_once(tau1))

    if any(c in pause_marker for c in ante):
        # pause-anchored shape: the universal trace stalls exactly once, at a
        # constrained state; the witness must stall there too.
        leftovers = [c for c in ante if c not in pause_marker]
        if (len(leftovers) != 1 or len(ante) != len(pause_marker) + 1
                or any(m not in ante for m in pause_marker)):
            raise NotSynchronousFragment("antecedent must pair the single-pause marker "
                                         "with one pause constraint")
        guard = leftovers[0]
        if not (isinstance(guard, Always) and isinstance(guard.sub, Implies)
                and guard.sub.left == tau1):
            raise NotSynchronousFragment("pause constraint must condition on the pause marker")
        p1 = _set_literal(guard.sub.right, v1, names)
        if p1 is None:
            raise NotSynchronousFragment("pause constraint must be a state-set literal")
        scope = None
        duty = None
        if len(cons) != 2:
            raise NotSynchronousFragment("consequent must pair agreement with a pause obligation")
        for c in cons:
            if isinstance(c, Until) and c.left == obseq and c.right == tau1:
                scope = "until_anchor"
            elif isinstance(c, Always) and c.sub == obseq:
                scope = "always"
            elif (isinstance(c, Always) and isinstance(c.sub, Implies)
                    and c.sub.left == tau1 and isinstance(c.sub.right, And)
                    and c.sub.right.left == tau2):
                duty = _set_literal(c.sub.right.right, v2, names)
        if scope is None:
            raise NotSynchronousFragment("agreement must hold always or until the pause")
        if duty is None:
            raise NotSynchronousFragment("witness obligation at the pause is missing "
                                         "or not a state-set literal")
        return "tau_once", (p1,), (duty,), scope

    # instant-0 shape: requirements and obligations are checked at the first
    # instant and agreement holds forever.
    p1 = tuple(_set_literal(c, v1, names) for c in ante)
    if None in p1:
        raise NotSynchronousFragment("antecedent must be state-set literals at instant 0")
    p2 = []
    eq_seen = False
    for c in cons:
        if isinstance(c, Always) and c.sub == obseq:
            eq_seen = True
            continue
        name = _set_literal(c, v2, names)
        if name is None:
            raise NotSynchronousFragment("consequent must be state-set literals plus agreement")
        p2.append(name)
    if not eq_seen:
        raise NotSynchronousFragment("consequent must require observation agreement")
    if not p2:
        raise NotSynchronousFragment("consequent must name a state set")
    return "instant0", p1, tuple(p2), "always"


def _sync_plan(formula):
    """The plan of a forall/exists formula: (anchor, p1, p2, scope).  The
    anchor is "instant0" or "tau_once"; the universal trace must be in the
    state set p1 at the anchor, and its witness candidates in p2;
    observation agreement holds "always" or "until_anchor".

    The body is read as it stands, so the plan does not depend on the
    structure: observation agreement is the leaf obseq(v1,v2), and each
    state condition is a state-set literal, standing for the states
    formula.sets binds to its name.  A body with obseq or a literal
    expanded is not recognized.  The body is read once per body (see
    _sync_form); each side is bound per call, to the intersection of its
    literals' sets."""
    _check_prefix(formula, ("forall", "exists"))
    anchor, p1, p2, scope = _sync_form(
        formula.prefix, formula.body, tuple(name for name, _ in formula.sets))
    sets = dict(formula.sets)

    def bind(names):
        first, *rest = names
        return frozenset(sets[first]).intersection(*(sets[n] for n in rest))

    return anchor, bind(p1), bind(p2), scope


def _original_succ(k):
    """Successors of each original node, stalling twins left out: the
    successor map of the plain structure, k itself or the one k extends."""
    return (k.plain or k).succ


def check_forall_exists_sync(k: KripkeStructure, formula: HyperFormula) -> Verdict:
    """Exact check of the synchronous forall/exists fragment.

    A breadth-first search (graph.shortest_path) over the states of the
    walk: the source () leads to the roots, and the goal None means "the
    candidates died".  After the anchor a state is ("post", q1, D): the
    universal trace is at q1, and D holds the witness candidates that match
    its observations.  Before a pause anchor a state is ("pre", D) alone,
    since every member of D is reachable together with D: D is the
    estimate after the universal trace's observations so far, stepped by
    _estimate_moves, and each member q1 whose state is in the plan's p1
    opens a pause at the anchor, in sorted order.  A candidate meets the
    obligation there when its state is in p2.  Each edge is labelled with
    the universal-trace nodes it appends: (t1,) for a step after the
    anchor, (twin, q1) for a pause, () before it.  A violation's π1 is then
    lifted backwards from the anchor node along the estimate path (see
    _lift), and extended into a lasso by first successors."""
    anchor, p1, p2, scope = _sync_plan(formula)
    if anchor == "tau_once" and not k.modified:
        raise NotSynchronousFragment("pause-anchored formulas need the structure with stalling twins")

    orig_succ = _original_succ(k)
    moves = _estimate_moves(orig_succ)
    initials = list(k.initial)

    def arrive(q1, d):
        return ("post", q1, d) if d else None

    if anchor == "instant0":
        d0 = frozenset(q for q in initials if q.state in p2)
        roots = [((q1,), arrive(q1, d0)) for q1 in initials if q1.state in p1]
    else:
        roots = [((), ("pre", frozenset(initials)))]

    def successors(state):
        if state == ():
            return roots
        if state[0] == "pre":
            d = state[1]
            out = []
            members = sorted(q for q in d if q.state in p1)
            if members:
                d_anchor = frozenset(x for x in d if x.state in p2)
                if not d_anchor or scope == "always":
                    out = [((KNode(q1.state, q1.obs, copy=True), q1), arrive(q1, d_anchor))
                           for q1 in members]
            out.extend(((), ("pre", d2)) for d2 in moves(d).values())
            return out
        _, q1, d = state
        step = moves(d)
        return [((t1,), arrive(t1, step.get(t1.obs, frozenset()))) for t1 in orig_succ[q1]]

    steps = shortest_path((), successors, None)
    if steps is None:
        return Verdict(property=None, holds=True, mode="exact",
                       engine="hyper-forall-exists")
    path = [q for label, _ in steps for q in label]
    if anchor == "tau_once":
        # path starts at the pause, (twin, q1): lift the estimates before it
        estimates = [s[1] for _, s in steps if s is not None and s[0] == "pre"]
        path = _lift(orig_succ, estimates, path[1]) + path
    # extend the violating path into a lasso: follow first successors from
    # its last node until they repeat
    lead, cycle = accepting_lasso([path[-1]], lambda q: orig_succ[q][:1], lambda _: True)
    pi1 = canonical_lasso(Lasso(stem=tuple(path[:-1]) + lead, cycle=cycle))
    return Verdict(property=None, holds=False, mode="exact",
                   engine="hyper-forall-exists", witness=(pi1, None))


def forall_exists_refutes(k: KripkeStructure, formula: HyperFormula,
                          pi1: Lasso) -> bool:
    """Check that no witness trace exists for this particular universal trace."""
    anchor, p1, p2, scope = _sync_plan(formula)
    nodes = list(pi1.stem) + list(pi1.cycle)
    initials = list(k.initial)
    orig_succ = _original_succ(k)
    if anchor == "instant0":
        if nodes[0] not in k.initial or nodes[0].state not in p1:
            return False
        dset = frozenset(q for q in initials if q.state in p2)
        anchor_index = 0
    else:
        twins = [i for i, q in enumerate(nodes) if q.copy]
        if len(twins) != 1 or any(q.copy for q in pi1.cycle):
            return False
        anchor_index = twins[0]
        if nodes[anchor_index].state not in p1:
            return False
        dset = frozenset(initials)
        for i in range(1, anchor_index):
            dset = step_nodes(orig_succ, dset, nodes[i].obs)
        dset = frozenset(d for d in dset if d.state in p2)
        if scope == "until_anchor":
            return not dset

    # survive the rest of the lasso; periodic repetition means survival
    # forever.  The walk starts at the anchor, or at the return from its twin.
    start = anchor_index + (1 if anchor == "tau_once" else 0)
    return any(not d for _, d in _lasso_estimates(orig_succ, pi1, start, dset))


# ---------------------------------------------------------------------------
# exists/forall engines


@functools.lru_cache(maxsize=64)
def _is_collapse(prefix, body):
    """Whether the body is the collapse body, always obs-equal implies
    eventually always state-equal; decided once per template and process."""
    (_, v1), (_, v2) = prefix
    return body == Implies(Always(ObsEq(v1, v2)), Eventually(Always(StateEq(v1, v2))))


def _estimate_product(k, moves):
    """Reachable product of the structure with the current-state estimate,
    which prunes the bounded candidate search; the exact decision needs
    only the estimates (see _singleton_cycle).  `moves` is
    _estimate_moves(k.succ), shared with that decision.

    A state (q, D) pairs a node with the estimate D, the nodes the structure
    can be in after the observations of the path to q; so D holds q.  D
    starts at the initial nodes, and a step to t moves it to
    step_nodes(k.succ, D, t.obs).  Returns (succ, core, good): the
    successors of each reachable state in k.succ's order, the states on a
    cycle of states whose estimate is a singleton, and the states from which
    core can be reached.  Every position of a candidate the estimate walk
    accepts is a state in good, and weak detectability holds exactly when an
    initial state is in good."""
    succ = {}

    def successors(state):
        q, d = state
        step = moves(d)
        out = succ[state] = [(t, step[t.obs]) for t in k.succ[q]]
        return out

    start = frozenset(k.initial)
    reachable([(q, start) for q in k.initial], successors)
    singles = [s for s in succ if len(s[1]) == 1]
    core = {s for comp in cyclic_sccs(
        singles, lambda s: [n for n in succ[s] if len(n[1]) == 1]) for s in comp}
    pred = {}
    for s, nexts in succ.items():
        for n in nexts:
            pred.setdefault(n, []).append(s)
    good = reachable(core, lambda s: pred.get(s, ()))
    return succ, core, good


def _singleton_cycle(k, moves):
    """The subset graph of k's estimates and a cycle of singleton estimates
    in it: (root, succ, cycle) with root the initial estimate, succ each
    reachable estimate's (observation, estimate) moves, by `moves`, an
    _estimate_moves(k.succ), and cycle the first such cycle a depth-first
    search from the singletons, in breadth-first order, meets, or None when
    no singleton estimate lies on one.  Building the graph steps every
    reachable node."""
    root = frozenset(k.initial)
    order, succ = subset_graph(root, lambda d: list(moves(d).items()))
    found = accepting_lasso([d for d in order if len(d) == 1],
                            lambda d: [t for _, t in succ[d] if len(t) == 1],
                            lambda _: True)
    return root, succ, None if found is None else found[1]


def _collapse_exact(k):
    """Exact decision of the collapse body, weak detectability, on the
    subset graph of the structure's estimates (see _singleton_cycle).

    Some trace has an estimate that is eventually a singleton forever
    exactly when a cycle of singleton estimates is reachable: every member
    of an estimate ends some run on its observations.  The witness is
    lifted as the oracle lifts its own: round the cycle, each singleton's
    node, and before it a shortest estimate path from the initial estimate
    to the cycle's first estimate, lifted backwards from that estimate's
    node (see _lift).  The initial estimate's nodes are entered by no
    observation, so it lies on no cycle.  The witness replays through the
    estimate walk."""
    root, succ, cycle = _singleton_cycle(k, _estimate_moves(k.succ))
    if cycle is None:
        return Verdict(property=None, holds=False, mode="exact",
                       engine="hyper-exists-forall")
    lap = [q for (q,) in cycle]
    steps = shortest_path(root, succ.__getitem__, cycle[0])
    stem = _lift(k.succ, [root] + [d for _, d in steps], lap[0])[:-1]
    pi1 = canonical_lasso(Lasso(stem=tuple(stem), cycle=tuple(lap)))
    return Verdict(property=None, holds=True, mode="exact",
                   engine="hyper-exists-forall", witness=(pi1, None))


def _estimate_walk_accepts(k, pi1):
    """Decide the collapse body for one candidate by tracking every node the
    structure can reach while matching the candidate's observations, and
    requiring that the tracked set is eventually a singleton forever.

    The tracked set is exactly the state estimate for the candidate's
    observation sequence, so it also covers matching runs that die out after
    finitely many steps.  A product check over infinite traces alone is
    weaker: it can certify a candidate whose estimate stays ambiguous at
    every instant because each ambiguous branch eventually fails to match
    the next observation.  Such a candidate never pins down the state and
    must not count."""
    walk = list(_lasso_estimates(k.succ, pi1, 0, frozenset(k.initial)))
    period = walk[walk.index(walk[-1]):-1]
    return all(len(d) == 1 for _, d in period)


def check_exists_forall_bounded(k: KripkeStructure, formula: HyperFormula) -> Verdict:
    """Semi-decision of the collapse body (always obs-equal implies
    eventually always state-equal): try candidate lassos up to a length
    bound, the structure's node count plus one; success is conclusive,
    exhaustion is not.

    The exact decision runs first (see _singleton_cycle): where no cycle
    of singleton estimates is reachable, no candidate can be accepted, and
    the verdict is inconclusive with no candidate tried, as the product's
    pruning would leave it.  Otherwise candidates are the simple lassos
    from each initial node, found by a depth-first search that closes a
    path back onto itself.  A candidate is accepted by the estimate walk,
    which also quantifies over finite matching runs, and the search carries
    the estimate down its path: a root, extension or closing edge whose
    (node, estimate) state cannot reach a cycle of singleton estimates (see
    _estimate_product) leads to no acceptable candidate and is skipped.
    The first accepted candidate is the witness; details["candidates_tried"]
    of an inconclusive verdict counts the candidates whose estimate walk
    ran, at most MAX_CANDIDATES.
    Any other exists/forall body raises NotCollapseBody."""
    _check_prefix(formula, ("exists", "forall"))
    if not _is_collapse(formula.prefix, formula.body):
        raise NotCollapseBody("the exists/forall search decides the collapse body only")
    # the subset graph, and the product after it, step every reachable
    # node, so each node has an entry in the on-demand successor map; both
    # step the estimates on one memo
    moves = _estimate_moves(k.succ)
    if _singleton_cycle(k, moves)[2] is None:
        return Verdict(property=None, holds="inconclusive", mode="bounded",
                       bound=len(k.succ) + 1, engine="hyper-exists-forall",
                       details={"candidates_tried": 0})
    succ, _, good = _estimate_product(k, moves)
    bound = len(k.succ) + 1
    start = frozenset(k.initial)
    tried = 0
    for q0 in k.initial:
        if (q0, start) not in good:
            continue
        stack = [([q0], {q0}, start)]
        while stack:
            path, onpath, d = stack.pop()
            for t, dt in succ[(path[-1], d)]:
                if (t, dt) not in good:
                    continue
                if t in onpath:
                    i = path.index(t)
                    cand = canonical_lasso(
                        Lasso(stem=tuple(path[:i]), cycle=tuple(path[i:])))
                    tried += 1
                    if _estimate_walk_accepts(k, cand):
                        return Verdict(property=None, holds=True, mode="bounded",
                                       engine="hyper-exists-forall",
                                       bound=bound, witness=(cand, None))
                    if tried >= MAX_CANDIDATES:
                        return Verdict(property=None, holds="inconclusive",
                                       mode="bounded", bound=bound,
                                       engine="hyper-exists-forall",
                                       details={"candidates_tried": tried})
                elif len(path) < bound:
                    stack.append((path + [t], onpath | {t}, dt))
    return Verdict(property=None, holds="inconclusive", mode="bounded",
                   bound=bound, engine="hyper-exists-forall",
                   details={"candidates_tried": tried})


# ---------------------------------------------------------------------------
# orchestration


def _require_run(k, lasso):
    """Raise NotARun unless the lasso is a run of k: a Lasso that starts at
    an initial node and every step of which, the closing one included, is an
    edge.  Checked in order, so only nodes already known to be reachable are
    expanded."""
    if not isinstance(lasso, Lasso):
        raise NotARun(f"{lasso!r} is not a lasso")
    nodes = list(lasso.stem) + list(lasso.cycle)
    for q in nodes:
        if not isinstance(q, KNode):
            raise NotARun(f"{q!r} is not a node of the structure")
    if nodes[0] not in k.initial:
        raise NotARun(f"witness starts at non-initial node {nodes[0]!r}")
    for a, b in zip(nodes, nodes[1:]):
        if b not in k.succ[a]:
            raise NotARun(f"no edge from {a!r} to {b!r}")
    if lasso.cycle[0] not in k.succ[nodes[-1]]:
        raise NotARun("witness cycle does not close")


def _lasso_labels(k, lasso):
    return (tuple(k.label[q] for q in lasso.stem),
            tuple(k.label[q] for q in lasso.cycle))


class HyperAnalysis:
    """One machine on the hyper route: its validation, fault refinement,
    plain and modified Kripke structures and the set stepper of each
    machine checked, each built on first use and shared by every verdict
    and replay asked of it.  The oracle route's OracleAnalysis is its
    peer: neither builds a structure of the other."""

    def __init__(self, fsa):
        self.fsa = fsa
        self._built = {}

    def _once(self, key, build):
        built = self._built
        if key not in built:
            built[key] = build()
        return built[key]

    def _problem(self, kind):
        """What a property is decided on: its template and the structure to
        check, built from the machine (fault-refined for the fault
        properties).  Each machine checked, the plain one or the refined
        one, gets one set stepper, des.state_moves, which its Kripke
        structure and the template's cyclic states share."""
        key = ("problem", kind)
        if key not in self._built:
            fsa = self.fsa
            # the name and the annotation before the machine, as on the oracle route
            missing = missing_annotation(kind, fsa)
            if missing is not None:
                raise MissingAnnotation(missing)
            if not fsa.validated:
                validate_fsa(fsa)
            target, part = fsa, None
            if kind in FAULT_PROPERTIES:
                target, part = self._once("refined", lambda: refine_fault_partition(fsa))
            moves = self._once(("moves", target), lambda: state_moves(target))
            formula, structure_kind = property_template(kind, target, part, moves)
            k = self._once(("kripke", target), lambda: build_kripke(target, moves))
            if structure_kind == "modified":
                k = self._once(("modified", target), lambda: build_modified_kripke(k))
            self._built[key] = formula, k
        return self._built[key]

    def verify(self, kind, wd_route="exact") -> Verdict:
        """verify() on this machine's structures."""
        if wd_route not in ("exact", "bounded"):
            raise UnknownRoute(wd_route)
        started = time.perf_counter()
        formula, k = self._problem(kind)
        quants = formula.quantifiers()
        if quants == ("forall", "forall"):
            verdict = check_forall_forall(k, formula)
        elif quants == ("forall", "exists"):
            verdict = check_forall_exists_sync(k, formula)
        elif wd_route == "bounded":
            verdict = check_exists_forall_bounded(k, formula)
        else:
            verdict = _collapse_exact(k)
        verdict.property = kind
        verdict.seconds = time.perf_counter() - started
        return verdict

    def replay(self, kind, verdict: Verdict) -> bool:
        """replay_witness() on this machine's structures."""
        formula, k = self._problem(kind)
        quants = formula.quantifiers()
        witness = (None, None) if verdict.witness is None else verdict.witness
        if not isinstance(witness, tuple) or len(witness) != 2:
            raise NotARun("a witness is a pair of traces")
        pi1, pi2 = witness

        if verdict.holds is False and quants == ("forall", "forall"):
            if pi1 is None or pi2 is None:
                raise NotARun("a forall/forall violation needs a witness for both traces")
            _require_run(k, pi1)
            _require_run(k, pi2)
            (_, v1), (_, v2) = formula.prefix
            assign = {v1: _lasso_labels(k, pi1), v2: _lasso_labels(k, pi2)}
            return eval_body(formula.body, assign, formula.sets) is False
        if verdict.holds is False and quants == ("forall", "exists"):
            if pi2 is not None:
                raise NotARun("a forall/exists violation has no witness for the second trace")
            _require_run(k, pi1)
            return forall_exists_refutes(k, formula, pi1)
        if verdict.holds is True and quants == ("exists", "forall"):
            _require_run(k, pi1)
            return _estimate_walk_accepts(k, pi1)
        raise NotARun(f"no witness replay defined for holds={verdict.holds!r} with prefix {quants}")


def verify(fsa, kind, wd_route="exact") -> Verdict:
    """Decide one property of an automaton on the hyper route, over its
    Kripke encodings; oracle.oracle_check decides it on the other route.

    wd_route: how the hyper engine decides weak detectability, the one
    exists/forall property.  "exact" decides it on the subset graph of the
    Kripke structure's current-state estimates, a reachable cycle of
    singleton estimates, and lifts its witness from the estimates to a run
    (see _collapse_exact); "bounded" makes the same decision, then runs the
    candidate search of check_exists_forall_bounded, bounded by the
    structure's node count plus one, which can prove the property but
    reports its failure as inconclusive.
    Both report engine "hyper-exists-forall"; the oracle's own check is
    "oracle-observer".  Any other value raises UnknownRoute.

    Every property is decided on the formula property_template builds and
    on nothing else: a forall/forall verdict, strong detectability's among
    them, is the emptiness check of one product (see check_forall_forall).

    Each call builds the machine's structures afresh; a HyperAnalysis of
    the machine builds them once for all the properties asked of it.
    """
    return HyperAnalysis(fsa).verify(kind, wd_route)


def replay_witness(fsa, kind, verdict: Verdict) -> bool:
    """Re-validate a verdict's witness against the definitions of the
    structures, independently of the search that produced it."""
    return HyperAnalysis(fsa).replay(kind, verdict)
