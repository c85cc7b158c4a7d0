"""Definition-level reference checks for the nine properties.

Every check here works from the defining state estimates and runs directly,
with no formulas, no Büchi automata and no trace quantification, so that
agreement with the hyperproperty engines is meaningful evidence for both
sides.

A machine is checked through one OracleAnalysis, which builds the
observer on first use and hands it to weak detectability and infinite-step
opacity; oracle_check makes a fresh one for a single property.  Every other
check runs on the fly on the machine it is given: none builds the observer
or the fault-refined machine.

The estimate steps are des's.  One set stepper per analysis, state_moves
made on first use by the OracleAnalysis, steps the observer's estimates
(build_observer), the estimates current-state opacity walks until one lies
inside the secret, and, through joint_moves, the (open, secret) pairs of
current states on which initial-state and infinite-step opacity are
decided (_exposed); so the observer and the exposure walk of infinite-step
opacity close and step each state once between them.  Weak
detectability's witness is lifted from estimates to states on the same
stepper's steps.  This module keeps the decisions taken on them.

Diagnosability, I-, strong and delayed detectability quantify over
arbitrarily long observation strings.  They are decided on the
single-event verifier of Yoo and Lafortune (IEEE TAC 47(9), 2002), whose
pairs of states agree on every observation so far; it reaches the pairs
of the twin plant of Jiang, Huang, Chandra and Kumar (IEEE TAC 46(8),
2001), and of the detectors of Shu and Lin (Systems & Control Letters
60(5), 2011; IEEE TAC 58(4), 2013), one event at a time.  A violation is
a reachable cycle, which yields ambiguous strings of every length, and
each check is one emptiness search, graph.accepting_lasso, which stops at
the first violating cycle and expands a pair only when it first reaches
it; strong detectability, which asks what a cycle reaches, follows a
search that finds nothing with one pass of graph.sccs over the same pairs.
Diagnosability searches the verifier with a fault bit carried on its
first side, in place of the verifier of the fault-refined machine.
Predictability, whose template is alternation-free like theirs, is one
reachability search over the pairs of the verifier of the machine's
fault-free part, as in Genc and Lafortune (Automatica 45(2), 2009), and
walks no estimates.  As every graph of the package, the verifier follows
declaration order: a pair's moves come in event and observation order,
and the searches start from start pairs in state order, so a check does
the same work whatever the string hashes.  The remaining properties are
plain reachability questions.  Every check is exact and takes the
machine alone.
"""

from __future__ import annotations

import time

from .des import (
    build_observer,
    joint_moves,
    refine_fault_partition,
    state_moves,
    unobservable_reach,
    validate_fsa,
)
from .errors import MissingAnnotation
from .formula import missing_annotation
from .graph import accepting_lasso, bfs, reach_cycles, sccs, shortest_path
from .kripke import KNode, Lasso, Verdict, canonical_lasso


class OracleAnalysis:
    """One machine on the oracle route: its set stepper (des.state_moves)
    and its observer, each built on first use and shared by every check
    asked of it.  The observer serves weak detectability and infinite-step
    opacity; the stepper steps the observer, the exposure walk of initial-
    and infinite-step opacity and current-state opacity's walk, and lifts
    weak detectability's witness.  Every other check holds no structure
    and searches the machine on the fly."""

    def __init__(self, fsa):
        self.fsa = fsa
        self._moves = None
        self._observer = None

    def moves(self):
        if self._moves is None:
            self._moves = state_moves(self.fsa)
        return self._moves

    def observer(self):
        if self._observer is None:
            self._observer = build_observer(self.fsa, self.moves())
        return self._observer

    def check(self, kind) -> Verdict:
        """Decide one property straight from its definition."""
        started = time.perf_counter()
        fsa = self.fsa
        missing = missing_annotation(kind, fsa)
        if missing is not None:
            raise MissingAnnotation(missing)
        if not fsa.validated:
            validate_fsa(fsa)
        verdict = _ORACLES[kind](self)
        verdict.property = kind
        verdict.seconds = time.perf_counter() - started
        return verdict


def oracle_check(fsa, kind) -> Verdict:
    """Decide one property of a machine on a fresh OracleAnalysis."""
    return OracleAnalysis(fsa).check(kind)


def _exact_verdict(holds, details=None):
    return Verdict(property=None, holds=holds, mode="exact", engine="oracle",
                   details=details)


def _verifier(fsa, skip=frozenset()):
    """Successor function of the single-event verifier (Yoo and Lafortune,
    IEEE TAC 47(9), 2002): a pair (x, y) moves when one side takes an
    unobservable event, or when both sides take events with the same
    observation.  From start pairs closed under unobservable moves it
    reaches the pairs of runs that agree on every observation since the
    start: the pairs of the closure pair graph, whose step on an
    observation is unobservable moves, one joint move and unobservable
    moves again.  A validated machine has no unobservable cycle, so every
    cycle of the verifier holds a joint move, and a cycle gives such runs
    for strings of every length.  It has at most n² pairs, and a pair's
    moves are its states' unobservable out-edges and the pairs of their
    out-edges with equal observations.

    A pair's moves come in declaration order: side 1's unobservable moves,
    then side 2's, then the joint moves in observation order and in event
    order of each side.  A state's out-edges are grouped once
    (_grouped_edges), when a pair first holds it; nothing is held per
    pair.  Neither side takes an event of `skip`, so with the fault events
    skipped it is the verifier of the machine's fault-free part."""
    events = _grouped_edges(fsa, skip)

    def succ(pair):
        x, y = pair
        quiet, loud = events(x)
        right_quiet, right = events(y)
        out = [(a, y) for _, a in quiet]
        out += [(x, b) for _, b in right_quiet]
        for o, xs in loud.items():
            ys = right.get(o)
            if ys is not None:
                out += [(a, b) for _, a in xs for _, b in ys]
        return out

    return succ


def _grouped_edges(fsa, skip=frozenset()):
    """A function events(x): x's unobservable out-edges, and its observable
    ones by observation, in observation order, as (event, target) lists in
    event order, leaving out the events of `skip`; grouped when first asked
    for and then kept."""
    order = fsa.obs_index.__getitem__
    grouped = {}

    def events(x):
        found = grouped.get(x)
        if found is None:
            quiet, loud = [], {}
            for e, y in fsa.out_edges(x):
                if e in skip:
                    continue
                o = fsa.mask[e]
                if o is None:
                    quiet.append((e, y))
                else:
                    loud.setdefault(o, []).append((e, y))
            if len(loud) > 1:
                loud = {o: loud[o] for o in sorted(loud, key=order)}
            found = grouped[x] = quiet, loud
        return found

    return events


# ---------------------------------------------------------------------------
# fault properties
#
# Each check takes the machine's OracleAnalysis `an`; check() names the
# verdict's property.


def diagnosability_oracle(an) -> Verdict:
    """A fault run must not stay observationally equal to a normal run for
    arbitrarily many post-fault observations.

    The search runs on the verifier's nodes (x, y, fault): side 1 carries
    a bit that its first fault event sets, and side 2 takes no fault event.
    From every pair of initial states, the property fails exactly when a
    reachable cycle holds a node with the bit set: one emptiness search,
    which stops at the first such cycle.  The bit never clears, so every
    node on such a cycle has it.  These nodes are the verifier's pairs of
    the fault-refined machine (des.refine_fault_partition) with its second
    side kept normal, so the verdict is the one decided on that machine,
    which is not built.

    A node lists first the moves that set side 1's bit, then the other
    joint moves, then the other unobservable ones, each group in the order
    of its joint moves and then its unobservable ones as the verifier lists
    them.  So the search takes a fault as soon as one is enabled, and then
    follows equal observations before it lets one side wait.  On
    tests/support.o1_ring(n) the verifier's order went round all n² offsets
    of a fault run and a normal run before it closed a cycle; this order
    closes one after about n nodes.
    """
    fsa = an.fsa
    faults = fsa.fault_events
    events, normal = _grouped_edges(fsa), _grouped_edges(fsa, faults)

    def succ(node):
        x, y, fault = node
        quiet, loud = events(x)
        right_quiet, right = normal(y)
        ones = [(a, y, fault or e in faults) for e, a in quiet]
        ones += [(x, b, fault) for _, b in right_quiet]
        joint = []
        for o, xs in loud.items():
            ys = right.get(o)
            if ys is not None:
                joint += [(a, b, fault or e in faults) for e, a in xs for _, b in ys]
        moves = joint + ones
        if fault:
            return moves
        return [m for m in moves if m[2]] + [m for m in moves if not m[2]]

    initial = fsa.sort_states(fsa.initial)
    starts = [(x, y, False) for x in initial for y in initial]
    if accepting_lasso(starts, succ, lambda node: node[2]) is None:
        return _exact_verdict(True)
    # such a fault run stays ambiguous past the pumping horizon of the
    # refined machine, its states squared plus one, as the unfolding to
    # that horizon reports it (the reference of the tests,
    # tests/support.horizon_unfolding)
    refined, _ = refine_fault_partition(fsa)
    return _exact_verdict(False, {"ambiguous_after": len(refined.states) ** 2 + 1})


def predictability_oracle(an) -> Verdict:
    """No fault-free run may reach a state with a fault event while a
    fault-free run with the same observations can still last: reach a cycle
    of non-fault events, from which no continuation need hold a fault.

    One search over the pairs of the verifier of the machine's fault-free
    part, from every pair of initial states: the property fails exactly
    when it reaches a pair (x, y) where x has a fault event and y lasts
    (Genc and Lafortune, Automatica 45(2), 2009).  A pair whose second
    state does not last is not stepped, since every state that reaches a
    lasting state lasts.  A string that already holds a fault carries no
    false-alarm risk, so neither side takes a fault event.
    """
    fsa = an.fsa
    faults = fsa.fault_events
    initial = fsa.sort_states(fsa.initial)

    def targets(x):
        return [y for e, y in fsa.out_edges(x) if e not in faults]

    # the states that reach a cycle of non-fault events
    lasting = reach_cycles(fsa.states, targets)
    step = _verifier(fsa, faults)
    starts = ((x, y) for x in initial for y in initial)
    reached = bfs(starts, lambda pair: step(pair) if pair[1] in lasting else ())
    return _exact_verdict(not any(y in lasting and any(e in faults for e, _ in fsa.out_edges(x))
                                  for x, y in reached))


# ---------------------------------------------------------------------------
# detectability properties


def i_detectability_oracle(an) -> Verdict:
    """Every long enough observation string must pin the initial state.

    On the verifier started from the pairs of the unobservable closures of
    two distinct initial states, the property fails exactly when a cycle is
    reachable: the emptiness search with every pair accepting.
    """
    fsa = an.fsa
    closures = {x0: fsa.sort_states(unobservable_reach(fsa, [x0]))
                for x0 in fsa.sort_states(fsa.initial)}
    starts = [(a, b) for x0 in closures for y0 in closures if x0 != y0
              for a in closures[x0] for b in closures[y0]]
    return _exact_verdict(accepting_lasso(starts, _verifier(fsa), lambda _: True) is None)


def strong_detectability_oracle(an) -> Verdict:
    """All long observation strings must pin the current state.

    Two states share arbitrarily long observation strings exactly when
    their pair is reachable on the verifier, from the pairs of the initial
    closure, along a path through a cycle: a path longer than the number
    of pairs repeats one, every cycle holds a joint move, and a cycle can
    be pumped.  So the property fails exactly when an off-diagonal pair is
    reachable from a cycle (Shu and Lin, Systems & Control Letters 60(5),
    2011; Masopust, Automatica 93, 2018), and no observer is built.

    One emptiness search first looks for an off-diagonal pair on a cycle
    and stops at the first one.  Without one, every cycle runs through
    diagonal pairs, and one pass of graph.sccs over the same pairs, which
    lists a component before every component that reaches it, looks for a
    cycle that reaches an off-diagonal pair.
    """
    fsa = an.fsa
    step = _verifier(fsa)
    closure = fsa.sort_states(unobservable_reach(fsa, fsa.initial))
    starts = [(x, y) for x in closure for y in closure]
    if accepting_lasso(starts, step, lambda pair: pair[0] != pair[1]) is not None:
        return _exact_verdict(False)
    moves = {}

    def succ(pair):
        out = moves.get(pair)
        if out is None:
            out = moves[pair] = step(pair)
        return out

    parted = set()      # the pairs that reach an off-diagonal pair
    for comp in sccs(starts, succ):
        if any(x != y for x, y in comp) or any(q in parted for p in comp for q in succ(p)):
            if len(comp) > 1 or comp[0] in succ(comp[0]):
                return _exact_verdict(False)
            parted.update(comp)
    return _exact_verdict(True)


def weak_detectability_oracle(an) -> Verdict:
    """Some observation trace must pin the current state forever: a reachable
    cycle of singleton observer nodes.  A positive verdict carries the trace,
    lifted back to the state/observation structure on the analysis's
    stepper: each estimate on the path gives its first state, in
    declaration order, whose step on the next observation holds the state
    chosen after it.  The trace pauses once, at the cycle's entry, on the
    modified structure's stalling twin: there its estimate is that one
    state, which is the instant the hyper route's replay checks."""
    fsa, obs, step = an.fsa, an.observer(), an.moves()
    moves = obs.moves
    singles = [n for n in obs.nodes if len(n) == 1]
    found = accepting_lasso(singles, lambda n: [t for _, t in moves[n] if len(t) == 1],
                            lambda _: True)
    if found is None:
        return Verdict(property=None, holds=False, mode="exact",
                       engine="oracle-observer")

    cyc_nodes = found[1]
    # each cycle edge is labelled with the first observation taking it
    cyc_obs = [next(o for o, t in moves[a] if t == b)
               for a, b in zip(cyc_nodes, cyc_nodes[1:] + cyc_nodes[:1])]
    entry = cyc_nodes[0]
    # shortest estimate path from the observer root to the cycle entry
    steps = [] if entry == obs.initial else shortest_path(obs.initial, moves.__getitem__, entry)
    est_path = [(obs.initial, None)] + [(n, o) for o, n in steps]

    # choose one concrete state per estimate, backwards from the cycle entry
    states = [None] * len(est_path)
    states[-1] = next(iter(entry))
    for i in range(len(est_path) - 2, -1, -1):
        est, _ = est_path[i]
        _, o_in = est_path[i + 1]
        for x in fsa.sort_states(est):
            if states[i + 1] in step((x,)).get(o_in, ()):
                states[i] = x
                break
    stem = tuple(KNode(states[i], est_path[i][1]) for i in range(len(est_path)))
    # pause once at the cycle's entry, on its stalling twin, as the hyper
    # route's template asks of a witness
    stem += (stem[-1]._replace(copy=True), stem[-1])
    cycle_states = [next(iter(n)) for n in cyc_nodes]
    lap = tuple(KNode(cycle_states[(j + 1) % len(cycle_states)], cyc_obs[j])
                for j in range(len(cyc_obs)))
    witness = canonical_lasso(Lasso(stem=stem, cycle=lap))
    return Verdict(property=None, holds=True, mode="exact",
                   engine="oracle-observer", witness=(witness, None))


def delayed_detectability_oracle(an) -> Verdict:
    """From every reachable estimate, hindsight must pin the anchor state once
    the refinement suffix is long enough.

    The pairs reachable on the verifier from the pairs of the initial
    closure are the pairs of states some observation string can both reach.
    The property fails exactly when a cycle, on the diagonal or off it, is
    reachable from one of those pairs with two distinct states.  The
    emptiness search runs on (pair, seen), where `seen` records whether the
    path has passed an off-diagonal pair, and the nodes with `seen` accept.
    """
    fsa = an.fsa
    step = _verifier(fsa)

    def succ(node):
        pair, seen = node
        return [(q, seen or q[0] != q[1]) for q in step(pair)]

    closure = fsa.sort_states(unobservable_reach(fsa, fsa.initial))
    starts = [((x, y), x != y) for x in closure for y in closure]
    return _exact_verdict(accepting_lasso(starts, succ, lambda node: node[1]) is None)


# ---------------------------------------------------------------------------
# opacity properties


def _exposed(fsa, starts, moves):
    """Whether an observation string, from one of the (open, secret) start
    nodes, exposes the secret: on the walk that steps both current-state
    sets together (des.joint_moves, by the set stepper `moves` of the
    analysis), a node whose open part is empty and whose secret part is
    not.

    `open` holds the current states of the runs anchored at a non-secret
    state, `secret` those of the runs anchored at a secret one.  A node
    with an empty secret part exposes nothing, now or later, and is not
    stepped."""
    reached = bfs(starts, lambda node: [t for _, t in joint_moves(fsa, node, moves)]
                  if node[1] else ())
    return any(secret and not open_ for open_, secret in reached)


def initial_state_opacity_oracle(an) -> Verdict:
    """No observation may narrow the initial-state estimate into the secret.

    The exposure walk starts once, from the closures of the non-secret and
    of the secret initial states.  It is a quotient of the search over sets
    of (initial, current) tracks: the map from a track set to the currents
    of its non-secret and of its secret initial states commutes with the
    track step, and a set lies inside the secret exactly when its image is
    exposed.  So the verdict is the track search's, and the walk has no
    more nodes than that search has sets."""
    fsa = an.fsa
    secret = fsa.secret_states
    start = (unobservable_reach(fsa, fsa.initial - secret),
             unobservable_reach(fsa, fsa.initial & secret))
    return _exact_verdict(not _exposed(fsa, [start], an.moves()))


def current_state_opacity_oracle(an) -> Verdict:
    """No observation may narrow the current-state estimate into the secret:
    the zero-step case of the exposure walk.  The estimates are walked
    lazily, each stepped by the set stepper of the analysis, and the walk
    stops at the first one inside the secret."""
    fsa = an.fsa
    secret = fsa.secret_states
    moves = an.moves()
    reached = bfs([unobservable_reach(fsa, fsa.initial)], lambda est: moves(est).values())
    return _exact_verdict(not any(est <= secret for est in reached))


def infinite_step_opacity_oracle(an) -> Verdict:
    """No observation, refined by any amount of hindsight, may place a past
    estimate inside the secret.

    The exposure walk starts from every observer node E, split into
    (E - secret, E & secret).  It is a quotient of the search over sets of
    (anchor, current) pairs started from each diagonal: the map from a pair
    set to the currents of its non-secret and of its secret anchors
    commutes with the pair step, and a set's anchors lie inside the secret
    exactly when its image is exposed.  So the verdict is the pair search's,
    and the walk has no more nodes than that search has sets."""
    fsa = an.fsa
    secret = fsa.secret_states
    return _exact_verdict(not _exposed(fsa, [(est - secret, est & secret)
                                             for est in an.observer().nodes], an.moves()))


# ---------------------------------------------------------------------------
# dispatch


_ORACLES = {
    "diagnosability": diagnosability_oracle,
    "predictability": predictability_oracle,
    "i-detectability": i_detectability_oracle,
    "strong-detectability": strong_detectability_oracle,
    "weak-detectability": weak_detectability_oracle,
    "delayed-detectability": delayed_detectability_oracle,
    "initial-state-opacity": initial_state_opacity_oracle,
    "current-state-opacity": current_state_opacity_oracle,
    "infinite-step-opacity": infinite_step_opacity_oracle,
}

