"""Finite automata under partial observation: model, validation, state estimation.

The model is a finite-state automaton G = (X, Sigma, delta, X0) with a partial
deterministic transition function and an observation mask M mapping each event
to an observation symbol or to nothing (unobservable).  All estimation
operators work directly on the definitions: the initial-state estimate is the
set of initial states admitting a run with the observed string, the
current-state estimate is the set of states reachable under it, and the
delayed estimate refines a past instant using subsequent observations.

des has one set stepper, state_moves: it steps a set of states on every
observation at once, as the union of its members' steps, each computed
once, as is each state's unobservable closure, by des's one closure
search, unobservable_reach.  An analysis makes one stepper per machine it
checks and hands it to everything it builds of that machine: the
observer, the Kripke structures, cyclic_states and settled_states take it
as an argument, and make a fresh one when given none.  joint_moves steps a
tuple of estimates together on it.  The three estimate functions are one
walk over such a tuple, which differs only in where it starts: the closure
of the initial states for the current-state estimate, the closure of each
initial state for the initial-state estimate, and each state of the
estimate after alpha for the delayed one.  The oracle decides
initial-state and infinite-step opacity on the same joint step; its
single-event verifier needs no stepper, as it moves on one event at a
time.  The tests' references step by the definition instead, one
observation at a time:
unobservable closure, one event with that observation, and another
closure (tests/support.py's observable_step).

refine_fault_partition splits the states a run can reach both with and
without a fault, and boundary_states names the normal states with a
fault event; the hyper route's fault properties are stated on the refined
machine.  The oracle decides them on the machine itself and refines it
only to report a pumping horizon.  cyclic_states names the states on a
cycle of observable moves, which the hyper route's strong-detectability
template binds, and settled_states the states whose estimate can stay one
state forever, which its weak-detectability template binds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DanglingReference,
    NoFaultEvents,
    NoInitialState,
    NotLive,
    ReservedSymbol,
    UnknownObservation,
    UnobservableCycle,
)
from .graph import accepting_lasso, cyclic_sccs, reach_cycles, subset_graph

EPS = None  # internal marker for "unobservable" in masks and node observations


class Fsa:
    """Partially observed automaton with optional fault/secret annotations.

    States, events and observation symbols keep their declaration order; every
    operation below iterates in that order so outputs are reproducible.
    `fault_events` and `secret_states` distinguish "not declared" (None) from
    "declared empty" (empty set).

    Construction checks every reference and raises DanglingReference,
    NoInitialState or ReservedSymbol at the first fault, in a fixed
    order: duplicate states, duplicate events, each transition, the
    initial states, the mask, the observations, the fault events and the
    secret states.  The duplicate and reference checks run on
    `state_index` and `event_index`, which construction builds anyway, and
    the pass that checks the transitions also groups them by event for the
    out-edge lists.  The parser and the generator build through here;
    refine_fault_partition sets the same fields on its split machine
    directly, since nothing it builds from a checked machine can fail.
    """

    def __init__(self, states, events, transitions, initial, mask,
                 fault_events=None, secret_states=None, observations=None,
                 name=None):
        self.states = tuple(states)
        self.events = tuple(events)
        self.name = name
        # a declaration repeated shortens its index, so the indexes are the
        # duplicate checks and then serve every reference check below
        self.state_index = state_index = {x: i for i, x in enumerate(self.states)}
        if len(state_index) != len(self.states):
            raise DanglingReference("duplicate state declarations")
        self.event_index = event_index = {e: i for i, e in enumerate(self.events)}
        if len(event_index) != len(self.events):
            raise DanglingReference("duplicate event declarations")

        self.transitions = dict(transitions)
        by_event = {e: [] for e in self.events}
        for (x, e), y in self.transitions.items():
            if x not in state_index or y not in state_index:
                raise DanglingReference(f"transition ({x!r},{e!r},{y!r}) references an undeclared state")
            edges = by_event.get(e)
            if edges is None:
                raise DanglingReference(f"transition ({x!r},{e!r},{y!r}) references an undeclared event")
            edges.append((x, y))

        self.initial = frozenset(initial)
        if not state_index.keys() >= self.initial:
            raise DanglingReference("initial states must be declared states")
        if not self.initial:
            raise NoInitialState("an automaton needs at least one initial state")

        self.mask = {e: mask[e] for e in self.events if e in mask}
        if len(self.mask) != len(self.events):
            missing = next(e for e in self.events if e not in mask)
            raise DanglingReference(f"mask is not total: missing event {missing!r}")
        if len(mask) != len(self.mask):
            extra = next(e for e in mask if e not in event_index)
            raise DanglingReference(f"mask references undeclared event {extra!r}")
        if "eps" in self.mask.values():
            raise ReservedSymbol("'eps' denotes the unobservable outcome and cannot name an observation")

        # observation alphabet: declared order if given, else first appearance
        used = [o for o in dict.fromkeys(self.mask.values()) if o is not EPS]
        if observations is None:
            self.observations = tuple(used)
        else:
            declared = tuple(observations)
            known = set(declared)
            if len(known) != len(declared):
                raise DanglingReference("duplicate observation declarations")
            if "eps" in known:
                raise ReservedSymbol("'eps' denotes the unobservable outcome and cannot name an observation")
            missing = [o for o in used if o not in known]
            if missing:
                raise DanglingReference(f"mask uses undeclared observation {missing[0]!r}")
            self.observations = declared
        self.obs_index = {o: i for i, o in enumerate(self.observations)}

        self.fault_events = None if fault_events is None else frozenset(fault_events)
        if self.fault_events is not None and not event_index.keys() >= self.fault_events:
            raise DanglingReference("fault events must be declared events")
        self.secret_states = None if secret_states is None else frozenset(secret_states)
        if self.secret_states is not None and not state_index.keys() >= self.secret_states:
            raise DanglingReference("secret states must be declared states")

        # outgoing adjacency in event declaration order: the buckets dealt
        # out to their sources
        self._out = out = {x: [] for x in self.states}
        for e, edges in by_event.items():
            for x, y in edges:
                out[x].append((e, y))

        self.validated = False

    def out_edges(self, state):
        """Outgoing (event, target) pairs from a state, in event order."""
        return self._out[state]

    def observable(self, event):
        return self.mask[event] is not EPS

    def sort_states(self, states):
        """States in declaration order (stable total order)."""
        return sorted(states, key=self.state_index.__getitem__)

    def __repr__(self):
        return f"Fsa({self.name or 'unnamed'}: {len(self.states)} states, {len(self.events)} events)"


@dataclass(frozen=True)
class FaultPartition:
    """Split of the state space into normal and fault states."""
    normal_states: frozenset
    fault_states: frozenset


@dataclass(frozen=True)
class Observer:
    """Subset automaton whose nodes are current-state estimates."""
    nodes: tuple            # estimate frozensets in discovery order
    initial: frozenset
    moves: dict             # estimate -> [(observation, estimate)], in observation order


def validate_fsa(fsa: Fsa) -> Fsa:
    """Check liveness and absence of unobservable cycles.

    Returns the same object marked validated.  Raises NotLive for the first
    state (in declaration order) without outgoing transitions and
    UnobservableCycle with one witness cycle if unobservable events loop.
    """
    for x in fsa.states:
        if not fsa.out_edges(x):
            raise NotLive(x)

    cycle = silent_cycle({x: _uo_targets(fsa, x) for x in fsa.states})
    if cycle is not None:
        raise UnobservableCycle(cycle + cycle[:1])
    fsa.validated = True
    return fsa


def _uo_targets(fsa, state):
    return [y for e, y in fsa.out_edges(state) if not fsa.observable(e)]


def silent_cycle(silent):
    """A cycle of unobservable steps, as a tuple of states, or None when
    there is none, given `silent`, a map from states to their unobservable
    targets; a state that is no key has none.  A state with no unobservable
    event lies on no unobservable cycle, so the search starts only from the
    keys with targets, in map order."""
    found = accepting_lasso([x for x, ys in silent.items() if ys],
                            lambda x: silent.get(x, ()), lambda _: True)
    return None if found is None else found[1]


def unobservable_reach(fsa: Fsa, states) -> frozenset:
    """All states reachable from `states` via unobservable events only."""
    seen = set(states)
    frontier = list(seen)
    out_edges, mask = fsa._out, fsa.mask
    # breadth-first: the loop also visits what it appends.  It does not call
    # graph.bfs: one round of the fuzz-stream benchmark, hyper on the
    # bounded route and the oracle, calls this about 24.5k times, 15k of
    # them for state_moves' closures of single states, nearly always on one
    # to three states, and going through the generator made each such call
    # about 70% slower
    for x in frontier:
        for e, y in out_edges[x]:
            if mask[e] is EPS and y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def state_moves(fsa: Fsa):
    """des's one set stepper: a function moves(states) that returns the
    step of a set of states on every observation at once, as a dict from
    each observation o with a nonempty step, in `fsa.observations` order,
    to the states reachable from `states` by a string observed exactly as
    o.  The tests' reference takes that step, by its definition, on each
    observation in turn.

    That step distributes over union: the unobservable closure of a
    union is the union of the closures, and so is the set of targets of one
    observable event.  So the step of a set is the union, observation by
    observation, of its members' steps.  Each state's step, and each
    state's closure, is computed once per call of state_moves; a set of
    one state gets that memoised dict itself, which callers only read.  A
    walk over many sets thus closes each state once, however many sets it
    lies in.  A state's closure is unobservable_reach of the state alone,
    and its step is one pass over its closure's out-edges, looking up the
    closures of their targets, memoised alike, and joining them per
    observation at its end.  unobservable_reach is a loop, not a
    recursion, so a long unobservable chain closes, and it walks each
    state once, so an unvalidated machine's unobservable cycle closes
    too.

    An analysis makes one stepper per machine it steps and hands it to
    every structure it builds of that machine, so those structures share
    its closures and steps.  Nothing is held on `fsa`: the stepper lives
    and dies with the analysis that made it."""
    closures, steps = {}, {}
    out_edges, mask = fsa._out, fsa.mask
    order = fsa.obs_index.__getitem__

    def closure(x):
        c = closures[x] = unobservable_reach(fsa, (x,))
        return c

    def joined(hits):
        """The dict `hits` from observations to lists of sets, in
        observation order and with each list made the union of its sets."""
        if len(hits) > 1:
            hits = {o: hits[o] for o in sorted(hits, key=order)}
        for o, sets in hits.items():
            hits[o] = sets[0] if len(sets) == 1 else frozenset().union(*sets)
        return hits

    def step(x):
        hits = {}
        for y in closures.get(x) or closure(x):
            for e, z in out_edges[y]:
                o = mask[e]
                if o is not EPS:
                    c = closures.get(z) or closure(z)
                    got = hits.get(o)
                    if got is None:
                        hits[o] = [c]
                    else:
                        got.append(c)
        out = steps[x] = joined(hits)
        return out

    def moves(states):
        if len(states) == 1:
            for x in states:
                out = steps.get(x)
                return step(x) if out is None else out
        hits = {}
        for x in states:
            out = steps.get(x)
            if out is None:
                out = step(x)
            for o, ys in out.items():
                got = hits.get(o)
                if got is None:
                    hits[o] = [ys]
                else:
                    got.append(ys)
        return joined(hits)
    return moves


def joint_moves(fsa: Fsa, estimates, moves):
    """The step of a tuple of current-state estimates stepped together, each
    by the set stepper `moves` of state_moves(fsa): (o, the tuple with each
    estimate stepped by o) for every observation some estimate can take,
    in observation order.  An estimate with no move on o steps to the empty
    set; no all-empty tuple is returned."""
    grouped = {}
    for i, est in enumerate(estimates):
        for o, nxt in moves(est).items():
            grouped.setdefault(o, [frozenset()] * len(estimates))[i] = nxt
    return [(o, tuple(grouped[o])) for o in sorted(grouped, key=fsa.obs_index.__getitem__)]


def _estimates_after(fsa: Fsa, estimates, word, moves=None):
    """The tuple of estimates `word` leads to from the tuple `estimates`,
    stepped together by joint_moves on the set stepper `moves`, by default
    a fresh state_moves(fsa); an estimate with no move on a symbol empties.
    An unknown symbol raises UnknownObservation, also after every estimate
    has emptied."""
    if moves is None:
        moves = state_moves(fsa)
    for o in word:
        if o not in fsa.obs_index:
            raise UnknownObservation(o)
        estimates = dict(joint_moves(fsa, estimates, moves)).get(
            o, (frozenset(),) * len(estimates))
    return estimates


def current_state_estimate(fsa: Fsa, alpha, moves=None) -> frozenset:
    """States the system can be in after observing the sequence `alpha`.

    Each of the three estimate functions steps on `moves`, a set stepper
    of fsa, by default a fresh state_moves(fsa); a caller asking several
    of them about one machine hands them one stepper."""
    return _estimates_after(fsa, (unobservable_reach(fsa, fsa.initial),), alpha, moves)[0]


def initial_state_estimate(fsa: Fsa, alpha, moves=None) -> frozenset:
    """Initial states that admit a run observed exactly as `alpha`.

    Steps the closure of each initial state along `alpha` instead of
    enumerating strings, and keeps the initial states whose estimate stays
    nonempty.
    """
    starts = fsa.sort_states(fsa.initial)
    ends = _estimates_after(fsa, tuple(unobservable_reach(fsa, [x0]) for x0 in starts),
                            alpha, moves)
    return frozenset(x0 for x0, est in zip(starts, ends) if est)


def delayed_state_estimate(fsa: Fsa, alpha, beta, moves=None) -> frozenset:
    """States the system could have been in right after `alpha`, refined by
    the further observations `beta`.

    Steps {x} along `beta` for each state x of the current-state estimate
    after `alpha`, and keeps the states whose estimate stays nonempty; with
    an empty `beta` this is the current-state estimate.  Both walks step
    on one stepper.
    """
    if moves is None:
        moves = state_moves(fsa)
    anchors = fsa.sort_states(current_state_estimate(fsa, alpha, moves))
    ends = _estimates_after(fsa, tuple(frozenset([x]) for x in anchors), beta, moves)
    return frozenset(x for x, est in zip(anchors, ends) if est)


def build_observer(fsa: Fsa, moves=None) -> Observer:
    """Reachable subset automaton under the current-estimate recursion.

    Each estimate's moves, in observation order, come from one set stepper,
    `moves`, by default a fresh state_moves(fsa), so each state is closed
    once for the whole observer and not once per estimate it lies in."""
    init = unobservable_reach(fsa, fsa.initial)
    step = state_moves(fsa) if moves is None else moves
    order, moves = subset_graph(init, lambda est: list(step(est).items()))
    return Observer(nodes=tuple(order), initial=init, moves=moves)


def refine_fault_partition(fsa: Fsa):
    """Ensure fault states are an invariant of "a fault has occurred".

    Pairs each state with a has-fault-occurred bit and keeps reachable pairs.
    If no reachable state needs both bit values the input is returned
    unchanged together with the induced partition (unreachable states count
    as normal); otherwise a split automaton is returned whose fault copies
    are named "<state>#F".

    The split automaton is validated exactly when the input is, and is not
    validated again: each of its states has the out-edges of the state it
    copies, so none is dead where the input has none, and an unobservable
    cycle of it projects onto one of the input.
    Nor does it pass through the Fsa constructor's checks: its states are
    distinct new names, and its transitions, initial and secret states,
    mask and observations are those of the input renamed, so each field is
    set to what the constructor would compute.
    """
    if fsa.fault_events is None:
        raise NoFaultEvents("no fault events declared")
    faults, out_edges = fsa.fault_events, fsa._out

    # breadth first over the reachable (state, fault bit) pairs: the loop
    # also visits what it appends
    order = [(x0, False) for x0 in fsa.sort_states(fsa.initial)]
    seen = set(order)
    for x, bit in order:
        for e, y in out_edges[x]:
            pair = (y, bit or e in faults)
            if pair not in seen:
                seen.add(pair)
                order.append(pair)

    if not any(bit and (x, False) in seen for x, bit in order):
        fault_states = frozenset(x for x, bit in order if bit)
        normal_states = frozenset(fsa.states) - fault_states
        return fsa, FaultPartition(normal_states=normal_states, fault_states=fault_states)

    # a state reached with both bits keeps its name for the normal copy
    taken = set(fsa.states)
    names = {}
    for x, bit in order:
        name = x
        if bit and (x, False) in seen:
            name, n = f"{x}#F", 2
            while name in taken:
                name = f"{x}#F{n}"
                n += 1
            taken.add(name)
        names[x, bit] = name
    # the split machine field by field, each as the constructor computes
    # it: its states, names and edges come from a checked machine, so none
    # of the constructor's checks can fail on them
    out = {names[x, bit]: [(e, names[y, bit or e in faults]) for e, y in out_edges[x]]
           for x, bit in order}
    states = tuple(out)
    secret = None
    if fsa.secret_states is not None:
        secret = frozenset(names[(x, b)] for (x, b) in order if x in fsa.secret_states)
    refined = object.__new__(Fsa)
    refined.__dict__.update(
        states=states, events=fsa.events, name=fsa.name,
        state_index={x: i for i, x in enumerate(states)},
        event_index=dict(fsa.event_index),
        transitions={(x, e): y for x, edges in out.items() for e, y in edges},
        initial=frozenset(names[(x0, False)] for x0 in fsa.initial),
        mask=dict(fsa.mask), observations=fsa.observations, obs_index=dict(fsa.obs_index),
        fault_events=fsa.fault_events, secret_states=secret, _out=out,
        validated=fsa.validated)
    fault_states = frozenset(names[(x, b)] for (x, b) in order if b)
    part = FaultPartition(normal_states=frozenset(states) - fault_states,
                          fault_states=fault_states)
    return refined, part


def boundary_states(fsa: Fsa, part: FaultPartition) -> frozenset:
    """Normal states from which a fault event can occur in the next step."""
    faults = fsa.fault_events or ()
    return frozenset(x for x in part.normal_states if any(e in faults for e, _ in fsa._out[x]))


def cyclic_states(fsa: Fsa, moves=None) -> frozenset:
    """The states on a cycle of the observable-move graph reachable from the
    unobservable closure of the initial states: its edges lead from x to
    every state of its step, moves({x}), on any observation, where `moves`
    is a set stepper of fsa, by default a fresh state_moves(fsa).  These
    are the states of the Kripke nodes on a cycle, since a node's
    successors depend on its state alone."""
    if moves is None:
        moves = state_moves(fsa)

    def succ(x):
        return [y for ys in moves((x,)).values() for y in ys]

    roots = fsa.sort_states(unobservable_reach(fsa, fsa.initial))
    return frozenset(x for comp in cyclic_sccs(roots, succ) for x in comp)


def settled_states(fsa: Fsa, moves=None) -> frozenset:
    """The states from which the graph of singleton steps reaches a cycle:
    its edges lead from x to y when the step of {x} on some observation is
    exactly {y}, by `moves`, a set stepper of fsa, by default a fresh
    state_moves(fsa).  An estimate {x} stays one state forever along some
    observation string exactly when x is settled, so a machine is weakly
    detectable exactly when some reachable estimate is {x} with x settled.
    One linear pass over every state (graph.reach_cycles)."""
    if moves is None:
        moves = state_moves(fsa)
    return frozenset(reach_cycles(fsa.states, lambda x: [
        y for ys in moves((x,)).values() if len(ys) == 1 for y in ys]))
