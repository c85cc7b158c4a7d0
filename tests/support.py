"""Seeded samplers and helpers shared between test modules.

Everything here is driven by an explicit random.Random so the acceptance
suite can enumerate a fixed, reproducible stream of cases without hypothesis.
"""

import functools
import json
import math
import random
from types import SimpleNamespace

from hyperdes.des import (
    EPS,
    Fsa,
    boundary_states,
    build_observer,
    refine_fault_partition,
    state_moves,
    unobservable_reach,
    validate_fsa,
)
from hyperdes.errors import HyperdesError, UnknownObservation
from hyperdes.formula import (
    And,
    Atom,
    Bottom,
    Eventually,
    Always,
    Iff,
    Implies,
    InSet,
    Next,
    Not,
    ObsEq,
    Once,
    Or,
    StateEq,
    Top,
    Until,
)
from hyperdes.gen import random_valid_fsa
from hyperdes.graph import bfs, cyclic_sccs, reachable
from hyperdes.kripke import KNode, Verdict

PROPS = ("a", "x:0", "x:1", "o:o1", "o:o2", "tau")
TRACES = ("p1", "p2")

_UNARY = (Not, Next, Eventually, Always, Once)
_BINARY = (And, Or, Implies, Iff, Until)


def random_body(rng, depth=3, relations=False):
    """Random automaton-translatable body over two traces.

    With relations=True, leaves may also be obseq/stateeq relations between
    the traces (either order, or reflexive); the Büchi translation keeps them
    as literals of the letter.  Without it, leaves are atoms and constants
    only, and no extra random draws are made.
    """
    if depth == 0 or rng.random() < 0.3:
        if relations and rng.random() < 0.4:
            return rng.choice((ObsEq, StateEq))(rng.choice(TRACES), rng.choice(TRACES))
        roll = rng.random()
        if roll < 0.80:
            return Atom(rng.choice(PROPS), rng.choice(TRACES))
        if roll < 0.90:
            return Top()
        return Bottom()
    if rng.random() < 0.5:
        return rng.choice(_UNARY)(random_body(rng, depth - 1, relations))
    op = rng.choice(_BINARY)
    return op(random_body(rng, depth - 1, relations),
              random_body(rng, depth - 1, relations))


def random_lasso_labels(rng, max_stem=3, max_cycle=3):
    stem = tuple(frozenset(rng.sample(PROPS, rng.randint(0, 3)))
                 for _ in range(rng.randint(0, max_stem)))
    cycle = tuple(frozenset(rng.sample(PROPS, rng.randint(0, 3)))
                  for _ in range(rng.randint(1, max_cycle)))
    return stem, cycle


def assignment_letters(assignment):
    """Flatten a per-trace label assignment into one tagged-letter lasso.

    Returns (stem_letters, cycle_letters) where each letter is the set of
    trace-anchored atoms true at that instant, together with the
    obseq/stateeq relations that hold there between any two traces (a trace
    always agrees with itself).  The relations are computed here from the
    label sets, independently of the engines' own letter construction.
    """
    stems = {v: sc[0] for v, sc in assignment.items()}
    cycles = {v: sc[1] for v, sc in assignment.items()}
    stem_len = max((len(s) for s in stems.values()), default=0)
    period = math.lcm(*(len(c) for c in cycles.values())) if cycles else 1

    def label(v, i):
        s = stems[v]
        if i < len(s):
            return s[i]
        c = cycles[v]
        return c[(i - len(s)) % len(c)]

    def props(v, i, prefix):
        return {p for p in label(v, i) if p.startswith(prefix)}

    def letter(i):
        out = {Atom(p, v) for v in assignment for p in label(v, i)}
        for a in assignment:
            for b in assignment:
                if props(a, i, "o:") == props(b, i, "o:"):
                    out.add(ObsEq(a, b))
                if props(a, i, "x:") == props(b, i, "x:"):
                    out.add(StateEq(a, b))
        return frozenset(out)

    stem_letters = [letter(i) for i in range(stem_len)]
    cycle_letters = [letter(stem_len + j) for j in range(period)]
    return stem_letters, cycle_letters


# The pair letter as a set of literals: with Guard.admits, the reference for
# the bitmask letters of hyper._bit_letters.
def pair_letter(k, u, v, v1, v2, sets):
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


def fault_ring(n):
    """n-state ring: a (observed o1) steps i -> i+1, b (observed o2) closes
    n-1 -> 0, and the unobservable fault f skips 0 -> 1; initial state 0,
    even-numbered states secret.

    For n >= 4 it is diagnosable, i-detectable and current-state opaque iff
    n is even, and it has none of the other six properties: a lap through f
    shows one o1 fewer, while the estimate {0,1} recurs after every o2 and
    state 0 can still take f into 1 and then behave exactly like 1.
    """
    states = [str(i) for i in range(n)]
    trans = {(str(i), "a"): str(i + 1) for i in range(n - 1)}
    trans[(str(n - 1), "b")] = "0"
    trans[("0", "f")] = "1"
    return Fsa(states=states, events=["a", "b", "f"], transitions=trans,
               initial=["0"], mask={"a": "o1", "b": "o2", "f": None},
               fault_events=["f"], secret_states=states[::2], name=f"fault-{n}")


def all_initial_fault_ring(n):
    """fault_ring(n) with every state initial: its first estimate holds
    every state, and its observer has 2n - 2 estimates."""
    ring = fault_ring(n)
    return Fsa(states=ring.states, events=ring.events, transitions=ring.transitions,
               initial=ring.states, mask=ring.mask, fault_events=ring.fault_events,
               secret_states=ring.secret_states, name=f"all-initial-fault-{n}")


def o1_ring(n):
    """fault_ring(n) with every step observed as o1: neither diagnosable
    nor delayed-detectable, since a run through f stays one state ahead of
    a fault-free run forever under the same observations; i-detectable
    trivially, with its single initial state."""
    ring = fault_ring(n)
    return Fsa(states=ring.states, events=ring.events,
               transitions=ring.transitions, initial=ring.initial,
               mask={"a": "o1", "b": "o1", "f": None},
               fault_events=ring.fault_events, name=f"o1-ring-{n}")


def unobservable_chain(n):
    """n unobservable steps u<i>: i -> i+1 from state 0 to state n, closed by
    one event c (observed o) from n back to 0, with an unobservable fault f
    that skips 0 -> 1 beside u0; initial state 0.

    Every state's closure runs to n, so every pair of states shares each
    observation.  It is not diagnosable: the run through f and the run
    through u0 enter state 1 together and show o at every lap, forever.  It
    is I-detectable, with its single initial state, and not
    delayed-detectable: states 0 and 1 both lie in the first estimate, and
    runs from each show o forever, so no suffix tells them apart."""
    states = [str(i) for i in range(n + 1)]
    trans = {(str(i), f"u{i}"): str(i + 1) for i in range(n)}
    trans[(str(n), "c")] = "0"
    trans[("0", "f")] = "1"
    mask = {f"u{i}": None for i in range(n)}
    mask.update(c="o", f=None)
    return Fsa(states=states, events=[f"u{i}" for i in range(n)] + ["c", "f"],
               transitions=trans, initial=["0"], mask=mask, fault_events=["f"],
               name=f"unobservable-chain-{n}")


def estimate_blowup(n):
    """State 0 loops on a1 (observed a) and b (observed b) and enters a
    chain 1 -> 2 -> ... -> n on a2 (observed a); each chain step takes a
    (observed a) or bb (observed b).  From n, c and g (both observed c)
    lead through c0 to B, whose one event is the fault f (observed d) into
    F, which loops on h (observed d); initial state 0.

    The estimate after an observation string over {a, b} holds 0 and each
    state i <= n for which the string's i-th last letter is a, so there are
    more than 2^n estimates.  It is predictable: the only run to B,
    the only state with a fault, shows c twice, and every fault-free run
    with the same observations ends in B too, which has no fault-free
    continuation."""
    states = [str(i) for i in range(n + 1)] + ["c0", "B", "F"]
    trans = {("0", "a1"): "0", ("0", "a2"): "1", ("0", "b"): "0"}
    for i in range(1, n):
        trans[(str(i), "a")] = trans[(str(i), "bb")] = str(i + 1)
    trans.update({(str(n), "c"): "c0", ("c0", "g"): "B", ("B", "f"): "F", ("F", "h"): "F"})
    mask = {"a1": "a", "a2": "a", "a": "a", "b": "b", "bb": "b", "c": "c", "g": "c",
            "f": "d", "h": "d"}
    return Fsa(states=states, events=list(mask), transitions=trans, initial=["0"],
               mask=mask, fault_events=["f"], name=f"estimate-blowup-{n}")


def labelled_ring(n):
    """n-state ring where each step i -> i+1 (mod n) shows its own
    observation o<i>, and f skips 0 -> 1 showing "of"; initial state 0,
    even-numbered states secret.

    Every observation names the state it enters, so every estimate is a
    single state and no secret stays hidden: the machine is neither
    initial-state, current-state nor infinite-step opaque.  Its alphabet
    grows with n, and so does an expanded obseq.
    """
    states = [str(i) for i in range(n)]
    trans = {(str(i), f"e{i}"): str((i + 1) % n) for i in range(n)}
    trans[("0", "f")] = "1"
    mask = {f"e{i}": f"o{i}" for i in range(n)}
    mask["f"] = "of"
    return Fsa(states=states, events=[f"e{i}" for i in range(n)] + ["f"],
               transitions=trans, initial=["0"], mask=mask, fault_events=["f"],
               secret_states=states[::2], name=f"labelled-{n}")


# The references for des's one set stepper and for the estimate machines
# the oracle's walks are quotients of: each steps by observable_step, one
# declared observation at a time, and leaves out the observations that
# empty what it steps.


def observable_step(fsa, states, o):
    """States reachable from `states` by a string observed exactly as `o`:
    the definition, as unobservable closure, one event with mask o, and
    another unobservable closure."""
    if o not in fsa.obs_index:
        raise UnknownObservation(o)
    inner = unobservable_reach(fsa, states)
    hits = set()
    for x in fsa.sort_states(inner):
        for e, y in fsa.out_edges(x):
            if fsa.mask[e] == o:
                hits.add(y)
    return unobservable_reach(fsa, hits)


def per_observation_moves(fsa, states):
    """Reference for the items of des.state_moves(fsa)(states): one
    observable_step per declared observation, in declaration order, empty
    steps left out."""
    return [(o, t) for o in fsa.observations if (t := observable_step(fsa, states, o))]


def initial_tracks(fsa):
    """The initial node of the track machine: each initial state with its
    current-state spread, the closure of that state."""
    return frozenset((x0, unobservable_reach(fsa, [x0])) for x0 in fsa.initial)


def track_moves(fsa, tracks):
    """(o, the tracks that survive o, each with its current states stepped
    by o), in observation order, with no empty node."""
    return [(o, t) for o in fsa.observations if (t := frozenset(
        (x0, s) for x0, cur in tracks if (s := observable_step(fsa, cur, o))))]


def pair_moves(fsa, pairs):
    """(o, the (anchor, current) pairs with the current state stepped by
    o), in observation order, with no empty set."""
    return [(o, t) for o in fsa.observations if (t := frozenset(
        (a, y) for a, c in pairs for y in observable_step(fsa, [c], o)))]


def per_observation_kripke_succ(fsa, nodes):
    """Reference successor tuples of build_kripke's nodes: for each
    observation in turn, the states one observable_step away, in declaration
    order."""
    return {q: tuple(KNode(y, o) for o, t in per_observation_moves(fsa, [q.state])
                     for y in fsa.sort_states(t))
            for q in nodes}


# The eager builders the on-demand structures of hyperdes.kripke replaced:
# the reference the tests compare them against.


def eager_kripke(fsa):
    """The whole reachable plain structure, built breadth first with every
    label, as nodes, initial, succ, label and index."""
    moves, succ = {}, {}

    def expand(q):
        x = q.state
        if x not in moves:
            moves[x] = tuple(KNode(y, o) for o, ys in per_observation_moves(fsa, [x])
                             for y in fsa.sort_states(ys))
        succ[q] = moves[x]
        return moves[x]

    initial = tuple(KNode(x, EPS) for x in fsa.sort_states(unobservable_reach(fsa, fsa.initial)))
    nodes = tuple(bfs(initial, expand))
    label = {q: frozenset({f"x:{q.state}"} if q.obs is EPS else {f"x:{q.state}", f"o:{q.obs}"})
             for q in nodes}
    return SimpleNamespace(nodes=nodes, initial=initial, succ=succ, label=label,
                           index={q: i for i, q in enumerate(nodes)})


def eager_modified_kripke(k):
    """eager_kripke's structure with a stalling twin per node, labeled with
    "tau": the nodes, then their twins."""
    twins = {q: KNode(q.state, q.obs, copy=True) for q in k.nodes}
    nodes = tuple(k.nodes) + tuple(twins[q] for q in k.nodes)
    succ, label = {}, dict(k.label)
    for q in k.nodes:
        succ[q] = tuple(k.succ[q]) + (twins[q],)
        succ[twins[q]] = (q,)
        label[twins[q]] = frozenset({f"x:{q.state}", "tau"})
    return SimpleNamespace(nodes=nodes, initial=k.initial, succ=succ, label=label,
                           index={q: i for i, q in enumerate(nodes)})


def reversed_observations(fsa):
    """The same machine with its observations declared in reverse order, so
    that declaration order and first appearance in the events differ."""
    return validate_fsa(Fsa(states=fsa.states, events=fsa.events,
                            transitions=fsa.transitions, initial=fsa.initial,
                            mask=fsa.mask, fault_events=fsa.fault_events,
                            secret_states=fsa.secret_states,
                            observations=fsa.observations[::-1], name=fsa.name))


def seeded_machines(count=60):
    """`count` seeded random machines, each also with its observations
    declared in reverse order."""
    for seed in range(count):
        fsa = random_valid_fsa(random.Random(seed))
        yield fsa
        yield reversed_observations(fsa)


def comparison_machines():
    """The machines a rewritten structure is compared with its reference
    on: seeded_machines(), then 300 random machines of up to six states."""
    yield from seeded_machines()
    rng = random.Random(7)
    for _ in range(300):
        yield random_valid_fsa(rng, max_states=6)


def reference_serialize(fsa):
    """Reference for modelio.serialize_model: the canonical document built
    as a dict and written by json.dumps(indent=2, sort_keys=True)."""
    out = {
        "version": 1,
        "states": list(fsa.states),
        "events": list(fsa.events),
        "initial": fsa.sort_states(fsa.initial),
        "transitions": [[x, e, y] for x in fsa.states for e, y in fsa.out_edges(x)],
        "mask": [[e, "eps" if fsa.mask[e] is EPS else fsa.mask[e]] for e in fsa.events],
        "observations": list(fsa.observations),
    }
    if fsa.fault_events is not None:
        out["fault_events"] = [e for e in fsa.events if e in fsa.fault_events]
    if fsa.secret_states is not None:
        out["secret_states"] = [x for x in fsa.states if x in fsa.secret_states]
    if fsa.name is not None:
        out["name"] = fsa.name
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


# The opacity searches the oracle's exposure walk is a quotient of: over
# sets of (initial state, current state) tracks, and over sets of (anchor,
# current state) pairs started from the diagonal of every estimate.


def track_sets(fsa):
    """The track sets reachable from the initial tracks, breadth first."""
    return bfs([initial_tracks(fsa)],
               lambda tracks: [t for _, t in track_moves(fsa, tracks)])


def pair_sets(fsa):
    """The pair sets reachable from the diagonal of every observer node,
    breadth first."""
    starts = [frozenset((x, x) for x in est) for est in build_observer(fsa).nodes]
    return bfs(starts, lambda pairs: [t for _, t in pair_moves(fsa, pairs)])


def initial_state_opacity_reference(fsa):
    """Whether no reachable track set has only secret initial states."""
    secret = fsa.secret_states
    reached = track_sets(fsa)
    exposed = any(tracks and {x0 for x0, _ in tracks} <= secret for tracks in reached)
    return not exposed


def infinite_step_opacity_reference(fsa):
    """Whether no reachable pair set has only secret anchors."""
    secret = fsa.secret_states
    reached = pair_sets(fsa)
    exposed = any(pairs and {a for a, _ in pairs} <= secret for pairs in reached)
    return not exposed


# The closure pair graph and its three cycle checks, which the oracle's
# single-event verifier replaced: the reference for its verdicts on
# diagnosability, I- and delayed detectability.

PAIR_KINDS = ("diagnosability", "i-detectability", "delayed-detectability")


def pair_graph(fsa):
    """Successor function of the closure pair graph, the twin plant of
    Jiang, Huang, Chandra and Kumar (IEEE TAC 46(8), 2001): (x, y) steps to
    (x', y') on an observation o when x' and y' are reached from x and y by
    strings observed exactly as o.  A pair's successors are listed in
    observation order, then in state order of x' and of y', each once."""
    moves, cache = state_moves(fsa), {}

    def succ(pair):
        out = cache.get(pair)
        if out is None:
            x, y = pair
            right = moves((y,))
            found = {}
            for o, xs in moves((x,)).items():
                ys = right.get(o)
                if ys is not None:
                    ys = fsa.sort_states(ys)
                    for a in fsa.sort_states(xs):
                        for b in ys:
                            found[a, b] = None
            out = cache[pair] = list(found)
        return out

    return succ


def pair_graph_verdict(fsa, kind):
    """Diagnosability, I- or delayed detectability decided on the closure
    pair graph: the pairs reachable from the start pairs, breadth first,
    then strongly connected components for a cycle, as an exact oracle
    verdict.

    - diagnosability: on the refined machine with the second side kept
      normal, from every pair of the initial closure, a cycle reachable from
      a (fault, normal) pair;
    - I-detectability: a cycle reachable from the pairs of the closures of
      two distinct initial states;
    - delayed detectability: a cycle reachable from an off-diagonal pair
      reachable from the pairs of the initial closure."""
    if not fsa.validated:
        validate_fsa(fsa)
    details = None
    if kind == "diagnosability":
        refined, part = refine_fault_partition(fsa)
        fault, normal = part.fault_states, part.normal_states
        pairs = pair_graph(refined)

        def succ(pair):
            return [q for q in pairs(pair) if q[1] in normal]

        closure = refined.sort_states(unobservable_reach(refined, refined.initial))
        found = bfs([(x, y) for x in closure for y in closure if y in normal], succ)
        holds = not any(cyclic_sccs([p for p in found if p[0] in fault], succ))
        if not holds:
            details = {"ambiguous_after": pumping_horizon(refined)}
    elif kind == "i-detectability":
        closures = {x0: fsa.sort_states(unobservable_reach(fsa, [x0]))
                    for x0 in fsa.sort_states(fsa.initial)}
        starts = [(a, b) for x0 in closures for y0 in closures if x0 != y0
                  for a in closures[x0] for b in closures[y0]]
        holds = not any(cyclic_sccs(starts, pair_graph(fsa)))
    elif kind == "delayed-detectability":
        succ = pair_graph(fsa)
        closure = fsa.sort_states(unobservable_reach(fsa, fsa.initial))
        found = bfs([(x, y) for x in closure for y in closure], succ)
        holds = not any(cyclic_sccs([p for p in found if p[0] != p[1]], succ))
    else:
        raise ValueError(f"no pair graph check for {kind!r}")
    return Verdict(property=kind, holds=holds, mode="exact", engine="oracle",
                   details=details)


# The checks the oracle's direct ones replaced: predictability by a walk
# over (state, estimate) nodes of the fault-refined machine, with the
# indicator states of that machine, where the oracle searches the pairs of
# the fault-free part's verifier, and strong detectability and
# current-state opacity on the observer.  With pair_graph_verdict's
# diagnosability, they are the reference for the checks that run on the
# machine itself.


def needs_split_machine():
    """One state reachable both before and after the fault."""
    return validate_fsa(Fsa(
        states=["p"], events=["a", "f"],
        transitions={("p", "a"): "p", ("p", "f"): "p"},
        initial=["p"], mask={"a": "o1", "f": "o2"},
        fault_events=["f"], secret_states=["p"]))


def enumerate_runs(fsa, start, length):
    """All event sequences of exactly `length` steps from `start`."""
    runs = [((), start)]
    for _ in range(length):
        runs = [(s + (e,), y) for s, x in runs for e, y in fsa.out_edges(x)]
    return runs


def indicator_states(fsa, part):
    """Normal states from which every long enough string ends in a fault state.

    A normal state escapes the indicator set exactly when it can reach a cycle
    from which a normal state is still reachable (such a cycle pumps
    arbitrarily long strings ending in normal states).
    """
    succ = {x: [] for x in fsa.states}
    pred = {x: [] for x in fsa.states}
    for x in fsa.states:
        for _, y in fsa.out_edges(x):
            succ[x].append(y)
            pred[y].append(x)
    on_cycle = {x for comp in cyclic_sccs(fsa.states, succ.__getitem__) for x in comp}
    reaches_normal = reachable(part.normal_states, pred.__getitem__)
    escaping = reachable(on_cycle & reaches_normal, pred.__getitem__)
    return frozenset(part.normal_states - escaping)


def refined_predictability(fsa):
    """Whether no run of the fault-refined machine reaches a boundary state
    while every prefix estimate, its normal part only, holds a normal state
    outside the indicator region."""
    refined, part = refine_fault_partition(validate_fsa(fsa))
    boundary = boundary_states(refined, part)
    indicator = indicator_states(refined, part)
    normal = part.normal_states

    def succ(node):
        x, est = node
        if est <= indicator:
            return  # predicted from here on, for every extension
        for e, y in refined.out_edges(x):
            if y not in normal:
                continue  # a faulted run can never reach the boundary again
            o = refined.mask[e]
            yield y, est if o is None else observable_step(refined, est, o) & normal

    est0 = unobservable_reach(refined, refined.initial) & normal
    start = [(x0, est0) for x0 in refined.sort_states(refined.initial)]
    return not any(x in boundary and not est <= indicator for x, est in bfs(start, succ))


def observer_strong_detectability(fsa):
    """Whether every observer node on or after a cycle is a singleton."""
    obs = build_observer(validate_fsa(fsa))

    def succ(n):
        return [t for _, t in obs.moves[n]]

    on_cycle = [n for comp in cyclic_sccs(obs.nodes, succ) for n in comp]
    return all(len(n) == 1 for n in reachable(on_cycle, succ))


def observer_current_state_opacity(fsa):
    """Whether no observer node lies inside the secret."""
    secret = fsa.secret_states
    return not any(est <= secret for est in build_observer(validate_fsa(fsa)).nodes)


# The horizon unfoldings: the reference the oracle's exact pair checks
# of diagnosability, I- and delayed detectability are compared against.


def pumping_horizon(machine):
    """States squared, plus one: a path of that many observations through
    the machine's state pairs repeats a pair."""
    return len(machine.states) ** 2 + 1


def _bad_after(roots, moves, is_bad, bound):
    """Whether a bad node lies `bound` steps from `roots`, where `moves(node)`
    returns the node's (symbol, successor) moves: the depth-bounded level
    unfolding.

    Every prefix of a bad string is bad (no step turns a good node bad), so
    only bad nodes are stepped, and a level with none ends the search."""
    level = {t for t in roots if is_bad(t)}
    for _ in range(bound):
        if not level:
            return False
        level = {t for node in level for _, t in moves(node) if is_bad(t)}
    return bool(level)


def _diagnosability_after(fsa, bound):
    """The refined machine, and the post-fault observation count at which a
    fault run first shows with an estimate still ambiguous after `bound`
    post-fault observations, else None."""
    refined, part = refine_fault_partition(fsa)
    fault = part.fault_states

    def succ(node):
        x, ctr, est = node
        if ctr >= bound or est <= fault:
            # the estimate can never leave the fault region again, and a
            # horizon-length ambiguity would already have been reported
            return
        bump = 1 if x in fault else 0
        for e, y in refined.out_edges(x):
            o = refined.mask[e]
            yield ((y, ctr, est) if o is None else
                   (y, min(ctr + bump, bound), observable_step(refined, est, o)))

    est0 = unobservable_reach(refined, refined.initial)
    start = [(x0, 0, est0) for x0 in refined.sort_states(refined.initial)]
    return refined, next((ctr for x, ctr, est in bfs(start, succ)
                          if x in fault and ctr >= bound and not est <= fault), None)


def horizon_unfolding(fsa, kind, bound):
    """Diagnosability, I- or delayed detectability decided by running its
    defining subset machine out to `bound` observations, as a bounded
    verdict.

    - diagnosability: a fault run whose estimate stays ambiguous for `bound`
      post-fault observations, on the fault-refined machine;
    - I-detectability: initial-state ambiguity surviving `bound`
      observations;
    - delayed detectability: some reachable estimate that suffixes of length
      `bound` leave ambiguous about the anchor state.

    At the pumping horizon of the machine it unfolds a surviving bad
    configuration repeats a state pair, so the answer is conclusive there;
    below it holds is "inconclusive", with the finding in
    details["bounded_finding"]."""
    if not fsa.validated:
        validate_fsa(fsa)
    details = {}
    if kind == "diagnosability":
        machine, after = _diagnosability_after(fsa, bound)
        holds = after is None
        if not holds:
            details["ambiguous_after"] = after
    elif kind == "i-detectability":
        machine = fsa
        holds = not _bad_after([initial_tracks(fsa)],
                               lambda tracks: track_moves(fsa, tracks),
                               lambda tracks: len(tracks) >= 2, bound)
    elif kind == "delayed-detectability":
        machine = fsa
        holds = not any(_bad_after([frozenset((x, x) for x in est)],
                                   lambda pairs: pair_moves(fsa, pairs),
                                   lambda pairs: len({a for a, _ in pairs}) >= 2, bound)
                        for est in build_observer(fsa).nodes if len(est) > 1)
    else:
        raise ValueError(f"no horizon unfolding for {kind!r}")
    if bound < pumping_horizon(machine):
        details["bounded_finding"] = holds
        holds = "inconclusive"
    return Verdict(property=kind, holds=holds, mode="bounded", engine="oracle",
                   bound=bound, details=details or None)


# ---------------------------------------------------------------------------
# The number of quantifier alternations in a formula's prefix, by which the
# paper sorts the properties into verification complexity classes.


def alternation_depth(formula):
    quants = formula.quantifiers()
    return sum(1 for a, b in zip(quants, quants[1:]) if a != b)


# ---------------------------------------------------------------------------
# Printing in the surface syntax: parse_formula's inverse, for round trips.

# levels: <-> 1, -> 2, | 3, & 4, U 5, unary 6, atoms 7
_UNARY_SYMBOL = {Not: "!", Next: "X ", Eventually: "F ", Always: "G ", Once: "F1 "}


def _fmt(node, level):
    t = type(node)
    if t is Top:
        return "true"
    if t is Bottom:
        return "false"
    if t is Atom:
        return f"{node.prop}@{node.trace}"
    if t is ObsEq:
        return f"obseq({node.left},{node.right})"
    if t is StateEq:
        return f"stateeq({node.left},{node.right})"
    if t in _UNARY_SYMBOL:
        return _maybe_paren(f"{_UNARY_SYMBOL[t]}{_fmt(node.sub, 6)}", 6, level)
    if t is Until:
        return _maybe_paren(f"{_fmt(node.left, 6)} U {_fmt(node.right, 5)}", 5, level)
    if t is And:
        return _maybe_paren(f"{_fmt(node.left, 4)} & {_fmt(node.right, 5)}", 4, level)
    if t is Or:
        return _maybe_paren(f"{_fmt(node.left, 3)} | {_fmt(node.right, 4)}", 3, level)
    if t is Implies:
        return _maybe_paren(f"{_fmt(node.left, 3)} -> {_fmt(node.right, 2)}", 2, level)
    if t is Iff:
        return _maybe_paren(f"{_fmt(node.left, 2)} <-> {_fmt(node.right, 1)}", 1, level)
    raise TypeError(f"cannot print {t.__name__} in the surface syntax")


def _maybe_paren(text, node_level, required):
    return f"({text})" if node_level < required else text


def format_formula(formula):
    prefix = " ".join(f"{q} {v}." for q, v in formula.prefix)
    return f"{prefix} {_fmt(formula.body, 0)}"


# ---------------------------------------------------------------------------
# Lasso acceptance of a Büchi automaton, by definition: the reference the
# translation is checked against, letter by letter.

def accepts_lasso(ba, stem_letters, cycle_letters):
    """Whether some run of `ba` over the ultimately periodic word is accepting."""
    if not cycle_letters:
        raise ValueError("a lasso needs a nonempty cycle")
    letters = list(stem_letters) + list(cycle_letters)
    n = len(letters)
    wrap = len(stem_letters)

    def npos(p):
        return p + 1 if p + 1 < n else wrap

    @functools.cache
    def succ(node):
        q, p = node
        return [(t, npos(p)) for guard, t in ba.edges[q] if guard.admits(letters[p])]

    return any(any(q in ba.accepting for q, _ in comp)
               for comp in cyclic_sccs([(ba.initial, 0)], succ))


# ---------------------------------------------------------------------------
# Kripke paths of a concrete run.

class StringNotInLanguage(HyperdesError):
    """An event string is not generated by the automaton from the given state."""


def compatible_runs(fsa, k, s, x0, max_runs=None):
    """Node paths of `k` compatible with executing the string `s` from `x0`.

    The concrete trajectory is cut into segments at observable events; a
    compatible path picks one visited state per segment.  Every combination
    is a path of `k`, and these are all of them.
    """
    if x0 not in fsa.initial:
        raise StringNotInLanguage(f"{x0!r} is not an initial state")
    segments = [[x0]]
    seg_obs = [EPS]
    x = x0
    for e in s:
        y = fsa.transitions.get((x, e))
        if y is None:
            raise StringNotInLanguage(f"event {e!r} is not enabled after the prefix ending in state {x!r}")
        if fsa.observable(e):
            segments.append([y])
            seg_obs.append(fsa.mask[e])
        else:
            segments[-1].append(y)
        x = y

    choice_sets = []
    for seg, o in zip(segments, seg_obs):
        uniq = []
        for state in seg:
            q = KNode(state, o)
            if q not in uniq:
                uniq.append(q)
        choice_sets.append(uniq)

    runs = [()]
    for choices in choice_sets:
        runs = [r + (q,) for r in runs for q in choices]
        if max_runs is not None and len(runs) > max_runs:
            runs = runs[:max_runs]
    return runs
