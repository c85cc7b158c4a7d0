"""Hyperproperty checking engines over Kripke encodings.

Three engines cover the quantifier prefixes that occur in the built-in
properties:

- forall/forall: classic automata route.  The negated body is translated to a
  Büchi automaton, composed with the two-fold self-composition of the
  structure, and searched for an accepting lasso with a nested DFS.
- forall/exists: the built-in formulas of this shape all lie in a synchronous
  fragment (observation agreement up to a single distinguished instant plus
  membership obligations there), which admits an exact subset-tracking walk:
  the set of still-viable witness candidates for the existential trace is
  advanced along every universal trace, and a property violation is exactly a
  reachable instant where the candidate set has died.
- exists/forall: bounded candidate enumeration; a found witness is conclusive,
  exhaustion is reported as inconclusive.  verify() prefers the exact
  observer-based route for weak detectability and falls back here on request.
  A candidate is accepted by the estimate walk for the collapse body and
  otherwise by the forall/forall product search.

Every engine and witness replay reads a formula's body and `sets` as they
stand: obseq/stateeq and the state-set literals (fault, initial, secret,
boundary) are literals of the letter of each node pair, so the automaton of
a built-in property does not depend on the model and is translated once per
process.  An expanded body (property_formula's output) is a formula like any
other; only forall/forall decides it to the same verdict.
"""

from __future__ import annotations

import functools
import os
import time
from collections import deque
from dataclasses import dataclass

from .buchi import ltl_to_buchi
from .des import boundary_states, refine_fault_partition, validate_fsa
from .errors import (
    MissingAnnotation,
    NotARun,
    NotSynchronousFragment,
    PrefixMismatch,
)
from .formula import (
    Always,
    And,
    Atom,
    Bottom,
    Eventually,
    HyperFormula,
    Implies,
    InSet,
    Not,
    ObsEq,
    Once,
    Or,
    StateEq,
    Until,
    _expand_once,
    eval_body,
    property_template,
)
from .graph import cyclic_sccs, first_cycle, reachable, shortest_path, subset_graph
from .kripke import (KNode, KripkeStructure, Lasso, Verdict, build_kripke,
                     build_modified_kripke, canonical_lasso, step_nodes)
from .oracle import OracleConfig, oracle_check, weak_detectability_exact

DEFAULT_BOUND_ENV = "HYPERDES_BOUND"


# ---------------------------------------------------------------------------
# shared helpers


def _pair_letter(k, u, v, v1, v2, sets):
    """Literals true at the product node (u, v): the atoms of both nodes, the
    obseq/stateeq relations that hold there, in both argument orders and
    reflexively, and InSet(name, var) for each bound set holding that
    node's state.  A relation holds when the two nodes carry the same
    observation (resp. state) propositions, and a set literal when the
    node's one state proposition names a member; that is what their
    expansions over the alphabet say."""
    lu, lv = k.label[u], k.label[v]
    out = {Atom(p, v1) for p in lu}
    out.update(Atom(p, v2) for p in lv)
    for rel, prefix in ((ObsEq, "o:"), (StateEq, "x:")):
        out.update((rel(v1, v1), rel(v2, v2)))
        if ({p for p in lu if p.startswith(prefix)}
                == {p for p in lv if p.startswith(prefix)}):
            out.update((rel(v1, v2), rel(v2, v1)))
    for name, states in sets:
        if u.state in states:
            out.add(InSet(name, v1))
        if v.state in states:
            out.add(InSet(name, v2))
    return frozenset(out)


def _pair_order(items):
    """Pairs of initial nodes, misaligned pairs first.

    Distinct start states are where the interesting counterexamples live, so
    they are explored first; this also fixes the reported witness
    deterministically.
    """
    n = len(items)
    out = []
    for i in range(n):
        for d in range(1, n + 1):
            out.append((items[i], items[(i + d) % n]))
    return list(dict.fromkeys(out))


def _project(k, product_path, coord):
    return tuple(q[0][coord] for q in product_path)


def _check_prefix(formula, expected):
    got = formula.quantifiers()
    if got != expected:
        raise PrefixMismatch(
            f"engine handles prefix {'/'.join(expected)}, formula has {'/'.join(got)}")


# ---------------------------------------------------------------------------
# forall/forall engine


@functools.lru_cache(maxsize=64)
def _negated_body_automaton(body):
    """Automaton of the negated body, translated once per body and process.

    A built-in property's body is the same for every model, so each property
    is translated once.  The automaton is shared by every check of the body
    and must not be mutated."""
    return ltl_to_buchi(Not(body))


def _product_lasso(k, formula, roots, pair_succ, first_node):
    """Accepting lasso of the product of a graph of two-trace positions with
    the automaton of the negated body, as (stem, cycle) of (position,
    automaton state) pairs, or None when no pair of traces violates the body.

    A position c is a pair (first, v): the first trace is at the node
    first_node(first), the second at the node v, and c reads their pair
    letter.  The product successors of (c, b) are c's successors, in
    pair_succ's order, each with every automaton edge from b whose guard
    admits the letter.  Letter and successors are computed once per
    position."""
    (_, v1), (_, v2) = formula.prefix
    ba = _negated_body_automaton(formula.body)
    seen = {}

    def successors(state):
        c, b = state
        if c not in seen:
            seen[c] = (_pair_letter(k, first_node(c[0]), c[1], v1, v2, formula.sets),
                       tuple(pair_succ(c)))
        lab, nexts = seen[c]
        admitted = [b2 for guard, b2 in ba.edges[b] if guard.admits(lab)]
        return [(c2, b2) for c2 in nexts for b2 in admitted]

    accepting = ba.accepting
    return _nested_dfs([(c, ba.initial) for c in roots], successors,
                       lambda s: s[1] in accepting)


def check_forall_forall(k: KripkeStructure, formula: HyperFormula) -> Verdict:
    """Exact check of a two-trace universal formula via nested DFS.

    The body is translated as it stands: obseq/stateeq and state-set leaves
    are literals decided on the pair letter.  A body expanded over the
    alphabet needs no extra code, since the pair letter holds every plain
    atom, and gives the same verdict.
    """
    _check_prefix(formula, ("forall", "forall"))
    hit = _product_lasso(k, formula, _pair_order(list(k.initial)),
                         lambda c: [(a, b) for a in k.succ[c[0]] for b in k.succ[c[1]]],
                         lambda u: u)
    if hit is None:
        return Verdict(property=None, holds=True, mode="exact",
                       engine="hyper-forall-forall")
    stem, cycle = hit
    pi1 = canonical_lasso(Lasso(stem=_project(k, stem, 0), cycle=_project(k, cycle, 0)))
    pi2 = canonical_lasso(Lasso(stem=_project(k, stem, 1), cycle=_project(k, cycle, 1)))
    return Verdict(property=None, holds=False, mode="exact",
                   engine="hyper-forall-forall", witness=(pi1, pi2))


def _nested_dfs(roots, successors, is_accepting):
    """Search for a reachable accepting cycle; returns (stem, cycle) or None.

    Standard two-color nested DFS: the outer search runs in post-order and
    seeds an inner search from every accepting state; the inner search
    succeeds when it closes back into the outer search path.
    """
    cyan = set()
    blue = set()
    red = set()
    path = []
    succ_cache = {}

    def succ_of(state):
        if state not in succ_cache:
            succ_cache[state] = tuple(successors(state))
        return succ_cache[state]

    def red_search(seed):
        # returns path seed -> ... -> some cyan node, or None
        parent = {seed: None}
        stack = [seed]
        while stack:
            node = stack.pop()
            for nxt in succ_of(node):
                if nxt in cyan:
                    chain = [nxt, node]
                    cur = node
                    while parent[cur] is not None:
                        cur = parent[cur]
                        chain.append(cur)
                    chain.reverse()  # seed ... node nxt
                    return chain
                if nxt not in red:
                    red.add(nxt)
                    parent[nxt] = node
                    stack.append(nxt)
        return None

    for root in roots:
        if root in blue:
            continue
        stack = [(root, iter(succ_of(root)))]
        cyan.add(root)
        path.append(root)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in cyan and nxt not in blue:
                    cyan.add(nxt)
                    path.append(nxt)
                    stack.append((nxt, iter(succ_of(nxt))))
                    advanced = True
                    break
            if advanced:
                continue
            if is_accepting(node):
                found = red_search(node)
                if found is not None:
                    # found = node ... w with w on the current path
                    w = found[-1]
                    i = path.index(w)
                    j = path.index(node)
                    stem = list(path[:i])
                    cycle = list(path[i:j + 1]) + found[1:-1]
                    # found[1:-1] is the detour node -> ... -> just before w
                    return tuple(stem), tuple(cycle)
            stack.pop()
            path.pop()
            cyan.discard(node)
            blue.add(node)
    return None


# ---------------------------------------------------------------------------
# forall/exists engine (synchronous fragment)


@dataclass(frozen=True)
class SyncShape:
    """Normal form of the supported forall/exists bodies."""
    anchor: str                 # "instant0" or "tau_once"
    v1: str
    v2: str
    p1_sets: tuple              # state sets; the universal trace must meet each at the anchor
    p2_sets: tuple              # state sets; witness candidates must meet each at the anchor
    eq_scope: str               # "always" or "until_anchor"


def _conjuncts(node):
    """Conjuncts of a body, left to right; a conjunct F1 is read through its
    definition."""
    out, stack = [], [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Once):
            stack.append(_expand_once(cur.sub))
        elif isinstance(cur, And):
            stack.extend((cur.right, cur.left))
        else:
            out.append(cur)
    return out


def _state_disj(node, var, sets):
    """Set of states from a disjunction of x-atoms and state-set literals
    over `var`, the literals' names bound by `sets`, else None."""
    states = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Or):
            stack.extend([cur.left, cur.right])
        elif isinstance(cur, Atom) and cur.trace == var and cur.prop.startswith("x:"):
            states.add(cur.prop[2:])
        elif isinstance(cur, InSet) and cur.trace == var and cur.name in sets:
            states.update(sets[cur.name])
        elif not isinstance(cur, Bottom):
            return None
    return frozenset(states)


def match_sync_shape(formula: HyperFormula) -> SyncShape:
    """Recognize a supported forall/exists body or explain why not.

    The body is read as it stands, so the shape does not depend on the
    structure: observation agreement is the leaf obseq(v1,v2), and a state
    set is a disjunction of x-atoms and state-set literals, each literal
    standing for the states formula.sets binds to its name.  A body with
    obseq expanded over the alphabet is not recognized."""
    _check_prefix(formula, ("forall", "exists"))
    (_, v1), (_, v2) = formula.prefix
    body = formula.body
    if not isinstance(body, Implies):
        raise NotSynchronousFragment("body must be an implication")
    sets = dict(formula.sets)
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
        p1_states = _state_disj(guard.sub.right, v1, sets)
        if p1_states is None:
            raise NotSynchronousFragment("pause constraint must be a state disjunction")
        scope = None
        duty_states = None
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
                duty_states = _state_disj(c.sub.right.right, v2, sets)
        if scope is None:
            raise NotSynchronousFragment("agreement must hold always or until the pause")
        if duty_states is None:
            raise NotSynchronousFragment("witness obligation at the pause is missing "
                                         "or not a state disjunction")
        return SyncShape(anchor="tau_once", v1=v1, v2=v2,
                         p1_sets=(p1_states,), p2_sets=(duty_states,),
                         eq_scope=scope)

    # instant-0 shape: requirements and obligations are checked at the first
    # instant and agreement holds forever.
    p1_sets = tuple(_state_disj(c, v1, sets) for c in ante)
    if any(s is None for s in p1_sets):
        raise NotSynchronousFragment("antecedent must be state disjunctions at instant 0")
    p2_sets = []
    eq_seen = False
    for c in cons:
        if isinstance(c, Always) and c.sub == obseq:
            eq_seen = True
            continue
        s = _state_disj(c, v2, sets)
        if s is None:
            raise NotSynchronousFragment("consequent must be state disjunctions plus agreement")
        p2_sets.append(s)
    if not eq_seen:
        raise NotSynchronousFragment("consequent must require observation agreement")
    return SyncShape(anchor="instant0", v1=v1, v2=v2,
                     p1_sets=p1_sets, p2_sets=tuple(p2_sets), eq_scope="always")


def _original_succ(k):
    """Successors of each original node, stalling twins left out."""
    return {q: tuple(t for t in k.succ[q] if not t.copy) for q in k.nodes
            if not q.copy}


def _meets(state, sets):
    return all(state in s for s in sets)


def check_forall_exists_sync(k: KripkeStructure, formula: HyperFormula) -> Verdict:
    """Exact check of the synchronous forall/exists fragment."""
    shape = match_sync_shape(formula)
    if shape.anchor == "tau_once" and not k.modified:
        raise NotSynchronousFragment("pause-anchored formulas need the structure with stalling twins")

    orig_succ = _original_succ(k)
    initials = list(k.initial)
    parents = {}

    if shape.anchor == "instant0":
        d0_all = frozenset(q for q in initials if _meets(q.state, shape.p2_sets))
        queue = deque()
        seen = set()
        for q1 in initials:
            if not _meets(q1.state, shape.p1_sets):
                continue
            node = ("post", q1, d0_all)
            if d0_all == frozenset():
                return _sync_violation(orig_succ, [q1])
            parents[node] = None
            seen.add(node)
            queue.append(node)
        while queue:
            node = queue.popleft()
            _, q1, dset = node
            for t1 in orig_succ[q1]:
                d2 = step_nodes(orig_succ, dset, t1.obs)
                if not d2:
                    path = _walk_path(parents, node) + [t1]
                    return _sync_violation(orig_succ, path)
                nxt = ("post", t1, d2)
                if nxt not in seen:
                    seen.add(nxt)
                    parents[nxt] = (node, "step", t1)
                    queue.append(nxt)
        return Verdict(property=None, holds=True, mode="exact",
                       engine="hyper-forall-exists")

    # pause-anchored walk
    d0 = frozenset(initials)
    queue = deque()
    seen = set()
    for q1 in initials:
        node = ("pre", q1, d0)
        parents[node] = None
        seen.add(node)
        queue.append(node)
    while queue:
        node = queue.popleft()
        phase, q1, dset = node
        if phase == "pre" and _meets(q1.state, shape.p1_sets):
            d_anchor = frozenset(d for d in dset if _meets(d.state, shape.p2_sets))
            if not d_anchor:
                path = _walk_path(parents, node)
                path = path + [KNode(q1.state, q1.obs, copy=True), q1]
                return _sync_violation(orig_succ, path)
            if shape.eq_scope == "always":
                nxt = ("post", q1, d_anchor)
                if nxt not in seen:
                    seen.add(nxt)
                    parents[nxt] = (node, "anchor", q1)
                    queue.append(nxt)
        for t1 in orig_succ[q1]:
            d2 = step_nodes(orig_succ, dset, t1.obs)
            if phase == "post" and not d2:
                path = _walk_path(parents, node) + [t1]
                return _sync_violation(orig_succ, path)
            nxt = (phase, t1, d2)
            if nxt not in seen:
                seen.add(nxt)
                parents[nxt] = (node, "step", t1)
                queue.append(nxt)
    return Verdict(property=None, holds=True, mode="exact",
                   engine="hyper-forall-exists")


def _walk_path(parents, node):
    """Universal-trace node sequence leading to a walk state."""
    segments = []
    cur = node
    while cur is not None:
        entry = parents[cur]
        if entry is None:
            segments.append([cur[1]])
            break
        prev, move, q = entry
        if move == "anchor":
            segments.append([KNode(q.state, q.obs, copy=True), q])
        else:
            segments.append([q])
        cur = prev
    segments.reverse()
    return [q for seg in segments for q in seg]


def _sync_violation(orig_succ, path):
    """Package a violating universal trace: extend the path into a lasso."""
    # follow first successors from the last node until they repeat
    cont, cut = first_cycle([path[-1]], lambda q: orig_succ[q][:1])
    pi1 = canonical_lasso(Lasso(stem=tuple(path[:-1] + cont[:cut]), cycle=tuple(cont[cut:])))
    return Verdict(property=None, holds=False, mode="exact",
                   engine="hyper-forall-exists", witness=(pi1, None))


def forall_exists_refutes(k: KripkeStructure, formula: HyperFormula,
                          pi1: Lasso) -> bool:
    """Check that no witness trace exists for this particular universal trace."""
    shape = match_sync_shape(formula)
    nodes = list(pi1.stem) + list(pi1.cycle)
    initials = list(k.initial)
    orig_succ = _original_succ(k)
    if shape.anchor == "instant0":
        if nodes[0] not in k.initial or not _meets(nodes[0].state, shape.p1_sets):
            return False
        dset = frozenset(q for q in initials if _meets(q.state, shape.p2_sets))
        anchor_index = 0
    else:
        twins = [i for i, q in enumerate(nodes) if q.copy]
        if len(twins) != 1 or any(q.copy for q in pi1.cycle):
            return False
        anchor_index = twins[0]
        paused = nodes[anchor_index]
        if not _meets(paused.state, shape.p1_sets):
            return False
        dset = frozenset(initials)
        for i in range(1, anchor_index):
            dset = step_nodes(orig_succ, dset, nodes[i].obs)
        dset = frozenset(d for d in dset if _meets(d.state, shape.p2_sets))
        if shape.eq_scope == "until_anchor":
            return not dset

    # survive the rest of the lasso; periodic repetition means survival forever
    pos = anchor_index + 1
    if shape.anchor == "tau_once":
        pos += 1  # skip the return to the original, which is nodes[anchor+1]
        if not dset:
            return True
    seen = set()
    stem_len = len(pi1.stem)
    cycle_len = len(pi1.cycle)
    while True:
        if pos >= len(nodes):
            wrapped = stem_len + (pos - stem_len) % cycle_len if cycle_len else stem_len
            pos = wrapped
        key = (pos, dset)
        if key in seen:
            return False  # candidates survive the loop: a witness exists
        seen.add(key)
        dset = step_nodes(orig_succ, dset, nodes[pos].obs)
        if not dset:
            return True
        pos += 1


# ---------------------------------------------------------------------------
# exists/forall engine (bounded)


def _is_collapse(formula):
    """Whether the body is the collapse body, always obs-equal implies
    eventually always state-equal."""
    (_, v1), (_, v2) = formula.prefix
    return formula.body == Implies(Always(ObsEq(v1, v2)),
                                   Eventually(Always(StateEq(v1, v2))))


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
    nodes = list(pi1.stem) + list(pi1.cycle)
    n = len(nodes)
    wrap = len(pi1.stem)
    pos = 0
    dset = frozenset(k.initial)
    first_at = {}
    singleton = []
    while (pos, dset) not in first_at:
        first_at[(pos, dset)] = len(singleton)
        singleton.append(len(dset) == 1)
        pos = pos + 1 if pos + 1 < n else wrap
        dset = step_nodes(k.succ, dset, nodes[pos].obs)
    start = first_at[(pos, dset)]
    return all(singleton[start:])


def _inner_universal_holds(k, pi1, formula):
    """With the existential trace fixed to the lasso pi1, check that every
    trace satisfies the body: the product search of check_forall_forall
    over positions (index into pi1, node) finds no violating lasso."""
    nodes = list(pi1.stem) + list(pi1.cycle)
    wrap = len(pi1.stem)

    def pair_succ(c):
        p, q2 = c
        p = p + 1 if p + 1 < len(nodes) else wrap
        return [(p, t) for t in k.succ[q2]]

    return _product_lasso(k, formula, [(0, q2) for q2 in k.initial], pair_succ,
                          nodes.__getitem__) is None


def check_exists_forall_bounded(k: KripkeStructure, formula: HyperFormula,
                                bound=None, max_candidates=20000) -> Verdict:
    """Semi-decision for exists/forall: try candidate lassos up to a length
    bound; success is conclusive, exhaustion is not.

    Candidates for the collapse body (always obs-equal implies eventually
    always state-equal) are accepted with the estimate walk, which also
    quantifies over finite matching runs; every other body is checked by
    testing emptiness of the product of the candidate, the structure and the
    Büchi automaton of the negated body."""
    _check_prefix(formula, ("exists", "forall"))
    if bound is None:
        bound = len(k.nodes) + 1
    collapse = _is_collapse(formula)

    def accepts(cand):
        if collapse:
            return _estimate_walk_accepts(k, cand)
        return _inner_universal_holds(k, cand, formula)

    tried = 0
    stack = []
    for q0 in k.initial:
        stack = [([q0], {q0})]
        while stack:
            path, onpath = stack.pop()
            last = path[-1]
            for t in k.succ[last]:
                if t in onpath:
                    i = path.index(t)
                    cand = canonical_lasso(
                        Lasso(stem=tuple(path[:i]), cycle=tuple(path[i:])))
                    tried += 1
                    if accepts(cand):
                        return Verdict(property=None, holds=True, mode="bounded",
                                       engine="hyper-exists-forall",
                                       bound=bound, witness=(cand, None))
                    if tried >= max_candidates:
                        return Verdict(property=None, holds="inconclusive",
                                       mode="bounded", bound=bound,
                                       engine="hyper-exists-forall",
                                       details={"candidates_tried": tried})
                elif len(path) < bound:
                    stack.append((path + [t], onpath | {t}))
    return Verdict(property=None, holds="inconclusive", mode="bounded",
                   bound=bound, engine="hyper-exists-forall",
                   details={"candidates_tried": tried})


# ---------------------------------------------------------------------------
# orchestration


def _decision_problem(fsa, kind):
    """What a property is decided on: the machine (fault-refined for the
    fault properties), its decision formula and the structure to check."""
    if not fsa.validated:
        validate_fsa(fsa)
    part = None
    target = fsa
    if kind in ("diagnosability", "predictability"):
        if fsa.fault_events is None:
            raise MissingAnnotation("fault")
        target, part = refine_fault_partition(fsa)
    formula, structure_kind = _decision_formula(kind, target, part)
    k = build_kripke(target)
    if structure_kind == "modified":
        k = build_modified_kripke(k)
    return target, formula, k


def _decision_formula(kind, target, part):
    """Formula actually used to decide a property.

    Same as property_template for every kind except predictability.  The
    predictability body property_template builds triggers at the first
    faulted instant and requires the compared trace to agree on
    observations strictly before that instant.  An encoded step bundles one
    observable event with the unobservable events that follow it, so the
    step introducing the fault can itself carry an observation, emitted
    before the fault event; an alarm may rest on that observation, yet that
    trigger never asks the compared trace to match it, which produces
    spurious violations.  Anchoring the trigger at the boundary states,
    the last normal states from which a fault is enabled next, requires
    agreement on every observation preceding the fault and matches the
    alarm-based reading exactly.  On runs where the faulted step carries
    no fresh observation the two triggers coincide.
    """
    if kind != "predictability":
        return property_template(kind, target, part)
    obseq = ObsEq("p1", "p2")
    body = Implies(Until(obseq, And(InSet("boundary", "p1"), obseq)),
                   Eventually(InSet("fault", "p2")))
    sets = (("boundary", boundary_states(target, part)), ("fault", part.fault_states))
    return HyperFormula((("forall", "p1"), ("forall", "p2")), body, sets), "plain"


def _lasso_along(k, stem_obs, cycle_obs):
    """Some run of the structure whose observation sequence follows stem_obs
    and then repeats cycle_obs forever, or None if no run can.

    Searches the product of the structure with the positions of the
    observation word for a reachable cycle.
    """
    word = list(stem_obs) + list(cycle_obs)
    wrap = len(stem_obs)

    def succs(state):
        q, pos = state
        npos = pos + 1 if pos + 1 < len(word) else wrap
        return [(t, npos) for t in k.succ[q] if t.obs == word[pos]]

    found = first_cycle([(q0, 0) for q0 in k.initial], succs)
    if found is None:
        return None
    path, i = found
    nodes = [q for q, _ in path]
    return canonical_lasso(Lasso(stem=tuple(nodes[:i]), cycle=tuple(nodes[i:])))


def _strong_detectability_gap(k):
    """Persistent ambiguity that no pair of infinite traces exhibits.

    The pair search certifies that every two observation-matched infinite
    runs eventually agree on the state.  The current-state estimate can
    still stay ambiguous at arbitrarily late instants: states kept alive by
    matching runs that die out after finitely many steps block detection
    without ever lying on an infinite matched companion.  This check
    inspects the estimates themselves: the property fails exactly when an
    estimate holding two or more states lies on or after a cycle of the
    subset walk.

    Returns a violation verdict, or None when the estimates confirm the
    pair verdict.  When an ambiguous estimate lies on a cycle, a single run
    keeps the uncertainty alive forever and is reported as the first
    witness trace with no companion.  Otherwise the ambiguity lives on
    finite observation records only; the verdict then carries a pumpable
    observation word (prefix, cycle, suffix) instead of a trace witness.
    """
    root = frozenset(k.initial)
    symbols = sorted({q.obs for q in k.nodes if q.obs is not None})
    order, succ = subset_graph(root, symbols, lambda d, o: step_nodes(k.succ, d, o))

    def targets(d):
        return [t for _, t in succ[d]]

    def word(source, goal):     # shortest and nonempty, also if source is goal
        return [o for o, _ in shortest_path(source, succ.__getitem__, goal)]

    on_cycle = {d for comp in cyclic_sccs(order, targets) for d in comp}
    reach = reachable(on_cycle, targets)

    def ambiguous(d):
        return len({q.state for q in d}) >= 2

    target = next((d for d in order if d in on_cycle and ambiguous(d)), None)
    if target is not None:
        stem_obs = [] if target == root else word(root, target)
        cycle_obs = word(target, target)
        pi1 = _lasso_along(k, stem_obs, cycle_obs)
        return Verdict(
            property=None, holds=False, mode="exact",
            engine="hyper-estimate-graph",
            witness=None if pi1 is None else (pi1, None),
            details={"ambiguous_states": sorted({q.state for q in target}),
                     "pump_prefix": stem_obs, "pump_cycle": cycle_obs,
                     "pump_suffix": []})
    target = next((d for d in order if d in reach and ambiguous(d)), None)
    if target is None:
        return None
    via = next(d for d in order
               if d in on_cycle and target in reachable([d], targets))
    stem_obs = [] if via == root else word(root, via)
    cycle_obs = word(via, via)
    tail_obs = word(via, target)
    return Verdict(
        property=None, holds=False, mode="exact",
        engine="hyper-estimate-graph", witness=None,
        details={"ambiguous_states": sorted({q.state for q in target}),
                 "pump_prefix": stem_obs, "pump_cycle": cycle_obs,
                 "pump_suffix": tail_obs})


def verify(fsa, kind, engine="hyper", bound=None, wd_route="observer") -> Verdict:
    """Decide one property of an automaton.

    engine: "hyper" (Kripke encodings) or "oracle" (definition unfoldings).
    wd_route: "observer" for the exact route, "bounded" for candidate search.

    Two properties take a route beyond the formula property_template builds:
    predictability is decided with a boundary-anchored trigger
    (see _decision_formula) and a strong-detectability pass of the pair
    search is confirmed against the subset walk (see
    _strong_detectability_gap); both close blind spots of the two-trace
    formulations around matching runs that die out after finitely many
    steps.
    """
    started = time.perf_counter()
    if bound is None and os.environ.get(DEFAULT_BOUND_ENV):
        bound = int(os.environ[DEFAULT_BOUND_ENV])

    if engine == "oracle":
        config = OracleConfig() if bound is None else \
            OracleConfig(max_obs_len=bound, max_delay=bound)
        verdict = oracle_check(fsa, kind, config)
        verdict.seconds = time.perf_counter() - started
        return verdict

    target, formula, k = _decision_problem(fsa, kind)
    quants = formula.quantifiers()
    if quants == ("forall", "forall"):
        verdict = check_forall_forall(k, formula)
        if kind == "strong-detectability" and verdict.holds is True:
            gap = _strong_detectability_gap(k)
            if gap is not None:
                verdict = gap
    elif quants == ("forall", "exists"):
        verdict = check_forall_exists_sync(k, formula)
    elif wd_route == "bounded":
        verdict = check_exists_forall_bounded(k, formula, bound=bound)
    else:
        verdict = weak_detectability_exact(target)
    verdict.property = kind
    verdict.seconds = time.perf_counter() - started
    return verdict


def _require_run(k, lasso):
    nodes = list(lasso.stem) + list(lasso.cycle)
    if not nodes:
        raise NotARun("empty witness trace")
    for q in nodes:
        if q not in k.index:
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


def _replay_pump(k, details):
    """Check a pumpable ambiguous observation word against the structure.

    The word is prefix + cycle + suffix; the subset walk must return to the
    same set around the cycle part and end in the claimed ambiguous set.
    That certifies ambiguity at arbitrarily late instants: the cycle part
    can be repeated any number of times without changing the outcome.
    """
    if not details or "pump_cycle" not in details:
        raise NotARun("violation verdict carries neither a trace witness nor a pumpable word")
    if not details["pump_cycle"]:
        return False

    def advance(d, word):
        for o in word:
            d = step_nodes(k.succ, d, o)
        return d

    before = advance(frozenset(k.initial), details["pump_prefix"])
    after = advance(before, details["pump_cycle"])
    if before != after:
        return False
    final = advance(after, details["pump_suffix"])
    return (len(details["ambiguous_states"]) >= 2
            and sorted({q.state for q in final}) == list(details["ambiguous_states"]))


def replay_witness(fsa, kind, verdict: Verdict) -> bool:
    """Re-validate a verdict's witness against the definitions of the
    structures, independently of the search that produced it."""
    _, formula, k = _decision_problem(fsa, kind)
    quants = formula.quantifiers()

    if verdict.holds is False and quants == ("forall", "forall"):
        if verdict.witness is None:
            return _replay_pump(k, verdict.details)
        pi1, pi2 = verdict.witness
        if pi2 is None:
            if not _is_collapse(formula):
                raise NotARun("single-trace violation witness outside the collapse shape")
            _require_run(k, pi1)
            return not _estimate_walk_accepts(k, pi1)
        _require_run(k, pi1)
        _require_run(k, pi2)
        (_, v1), (_, v2) = formula.prefix
        assign = {v1: _lasso_labels(k, pi1), v2: _lasso_labels(k, pi2)}
        return eval_body(formula.body, assign, formula.sets) is False
    if verdict.holds is False and quants == ("forall", "exists"):
        pi1, pi2 = verdict.witness
        if pi2 is not None:
            raise NotARun("a forall/exists violation has no witness for the second trace")
        _require_run(k, pi1)
        return forall_exists_refutes(k, formula, pi1)
    if verdict.holds is True and quants == ("exists", "forall"):
        pi1, _ = verdict.witness
        _require_run(k, pi1)
        if _is_collapse(formula):
            return _estimate_walk_accepts(k, pi1)
        return _inner_universal_holds(k, pi1, formula)
    raise NotARun(f"no witness replay defined for holds={verdict.holds!r} with prefix {quants}")
