"""Core automaton module: validation, estimation operators, observer, faults.

Expected values for the three fixture machines were derived by hand from the
definitions and are frozen here.  The brute-force helpers below unfold the
definitions directly (reachability over (state, observed-string) pairs) and
act as the reference the closed-form operators are compared against.
"""

import random
import string
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hyperdes.des import (
    Fsa,
    boundary_states,
    build_observer,
    current_state_estimate,
    delayed_state_estimate,
    initial_state_estimate,
    joint_moves,
    refine_fault_partition,
    state_moves,
    unobservable_reach,
    validate_fsa,
)
from hyperdes.errors import (
    DanglingReference,
    HyperdesError,
    NoFaultEvents,
    NoInitialState,
    NotLive,
    ReservedSymbol,
    UnknownObservation,
    UnobservableCycle,
)
from hyperdes.gen import random_valid_fsa
from hyperdes.graph import bfs
from conftest import make_dying_branch, make_twin_branch
from support import (
    all_initial_fault_ring,
    comparison_machines,
    enumerate_runs,
    needs_split_machine,
    observable_step,
    per_observation_moves,
    reversed_observations,
    seeded_machines,
    unobservable_chain,
)


def obs_string_reach(fsa, start_states, max_obs_len):
    """Map each observation string (length <= max_obs_len) to the states
    reachable by runs from `start_states` observing exactly that string.

    Plain BFS over (state, observed-so-far) pairs; this is the definition of
    the current-state estimate unfolded, with no closure shortcuts.
    """
    seen = set()
    queue = []
    for x in fsa.sort_states(start_states):
        seen.add((x, ()))
        queue.append((x, ()))
    out = {}
    while queue:
        x, alpha = queue.pop(0)
        out.setdefault(alpha, set()).add(x)
        for e, y in fsa.out_edges(x):
            o = fsa.mask[e]
            nxt_alpha = alpha if o is None else alpha + (o,)
            if len(nxt_alpha) > max_obs_len:
                continue
            if (y, nxt_alpha) not in seen:
                seen.add((y, nxt_alpha))
                queue.append((y, nxt_alpha))
    return out


def all_obs_strings(fsa, max_len):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [a + (o,) for a in frontier for o in fsa.observations]
        out.extend(frontier)
    return out


# ---------------------------------------------------------------------------
# validation


def test_validation_marks_the_fixtures_validated(g_diag, g_det, g_opa):
    """The fixture machines validate."""
    for fsa in (g_diag, g_det, g_opa):
        assert fsa.validated


def test_dead_state_rejected():
    """A state without outgoing transitions violates liveness."""
    with pytest.raises(NotLive) as exc:
        validate_fsa(Fsa(states=["0", "1"], events=["a"],
                         transitions={("0", "a"): "1"},
                         initial=["0"], mask={"a": "o1"}))
    assert exc.value.state == "1"


def test_unobservable_cycle_rejected():
    """A cycle of unobservable events is reported with a witness path."""
    with pytest.raises(UnobservableCycle) as exc:
        validate_fsa(Fsa(states=["0", "1"], events=["a", "u"],
                         transitions={("0", "u"): "1", ("1", "u"): "0",
                                      ("1", "a"): "1"},
                         initial=["0"], mask={"a": "o1", "u": None}))
    cycle = exc.value.cycle
    assert cycle[0] == cycle[-1]
    assert len(cycle) >= 2
    assert set(cycle) <= {"0", "1"}


def test_unobservable_self_loop_rejected():
    with pytest.raises(UnobservableCycle) as exc:
        validate_fsa(Fsa(states=["0"], events=["u"],
                         transitions={("0", "u"): "0"},
                         initial=["0"], mask={"u": None}))
    assert list(exc.value.cycle) == ["0", "0"]


def test_dangling_references_rejected():
    with pytest.raises(DanglingReference):
        Fsa(states=["0"], events=["a"], transitions={("0", "a"): "9"},
            initial=["0"], mask={"a": "o1"})
    with pytest.raises(DanglingReference):
        Fsa(states=["0"], events=["a"], transitions={("0", "b"): "0"},
            initial=["0"], mask={"a": "o1"})
    with pytest.raises(DanglingReference):
        Fsa(states=["0"], events=["a"], transitions={("0", "a"): "0"},
            initial=["9"], mask={"a": "o1"})
    with pytest.raises(DanglingReference):
        Fsa(states=["0"], events=["a"], transitions={("0", "a"): "0"},
            initial=["0"], mask={})


def ring_kwargs(**overrides):
    """Constructor arguments of a two-state machine, every annotation set."""
    kwargs = dict(states=["0", "1"], events=["a", "b"],
                  transitions={("0", "a"): "1", ("1", "b"): "0"}, initial=["0"],
                  mask={"a": "o1", "b": None}, observations=["o1"],
                  fault_events=["b"], secret_states=["1"])
    kwargs.update(overrides)
    return kwargs


# (arguments with two faults or more, error type, message of the first):
# each row's faults are caught in the constructor's fixed order
CONSTRUCTOR_ERRORS = [
    (ring_kwargs(states=["0", "1", "0"], events=["a", "a"]), DanglingReference,
     "duplicate state declarations"),
    (ring_kwargs(events=["a", "b", "a"], transitions={("9", "x"): "0"}), DanglingReference,
     "duplicate event declarations"),
    (ring_kwargs(transitions={("0", "a"): "1", ("9", "x"): "0"}, initial=["9"]),
     DanglingReference, "transition ('9','x','0') references an undeclared state"),
    (ring_kwargs(transitions={("0", "x"): "1"}, initial=["9"]), DanglingReference,
     "transition ('0','x','1') references an undeclared event"),
    (ring_kwargs(initial=["0", "9"], mask={}), DanglingReference,
     "initial states must be declared states"),
    (ring_kwargs(initial=[], mask={}), NoInitialState,
     "an automaton needs at least one initial state"),
    (ring_kwargs(mask={"x": "o1", "a": "o1"}), DanglingReference,
     "mask is not total: missing event 'b'"),
    (ring_kwargs(mask={"a": "eps", "x": "o1", "b": None}), DanglingReference,
     "mask references undeclared event 'x'"),
    (ring_kwargs(mask={"a": "eps", "b": None}, observations=["o1", "o1"]), ReservedSymbol,
     "'eps' denotes the unobservable outcome and cannot name an observation"),
    (ring_kwargs(observations=["eps", "eps"]), DanglingReference,
     "duplicate observation declarations"),
    (ring_kwargs(observations=["eps"]), ReservedSymbol,
     "'eps' denotes the unobservable outcome and cannot name an observation"),
    (ring_kwargs(observations=["o2"], fault_events=["x"]), DanglingReference,
     "mask uses undeclared observation 'o1'"),
    (ring_kwargs(fault_events=["x"], secret_states=["9"]), DanglingReference,
     "fault events must be declared events"),
    (ring_kwargs(secret_states=["1", "9"]), DanglingReference,
     "secret states must be declared states"),
]


@pytest.mark.parametrize("kwargs, kind, message", CONSTRUCTOR_ERRORS)
def test_constructor_errors_come_in_a_fixed_order(kwargs, kind, message):
    with pytest.raises(HyperdesError) as err:
        Fsa(**kwargs)
    assert type(err.value) is kind and str(err.value) == message
    assert Fsa(**ring_kwargs()).state_index == {"0": 0, "1": 1}


def test_empty_initial_set_rejected():
    """A machine without initial states has no run; with one, the estimate
    is empty and vacuously inside any secret, so the routes would disagree
    on current-state opacity.  The model schema asks for one initial state,
    and construction refuses the machine the same way."""
    with pytest.raises(NoInitialState):
        Fsa(states=["0"], events=["a"], transitions={("0", "a"): "0"},
            initial=[], mask={"a": "o1"}, secret_states=["0"])


def test_reserved_observation_symbol_rejected():
    """The literal symbol "eps" is reserved for the unobservable outcome."""
    with pytest.raises(ReservedSymbol):
        Fsa(states=["0"], events=["a"], transitions={("0", "a"): "0"},
            initial=["0"], mask={"a": "eps"})


def test_observation_order_declared_vs_first_appearance():
    kwargs = dict(states=["0"], events=["a", "b"],
                  transitions={("0", "a"): "0", ("0", "b"): "0"},
                  initial=["0"], mask={"a": "o2", "b": "o1"})
    assert Fsa(**kwargs).observations == ("o2", "o1")
    assert Fsa(observations=["o1", "o2"], **kwargs).observations == ("o1", "o2")
    with pytest.raises(DanglingReference):
        Fsa(observations=["o1"], **kwargs)


# ---------------------------------------------------------------------------
# closure and single-step operators (frozen values)


def test_unobservable_reach_frozen(g_diag):
    assert unobservable_reach(g_diag, ["0"]) == {"0", "3"}
    assert unobservable_reach(g_diag, ["4"]) == {"1", "2", "4", "5"}
    assert unobservable_reach(g_diag, ["2"]) == {"2"}


def test_observable_step_frozen(g_diag):
    assert observable_step(g_diag, ["0"], "o1") == {"1", "2", "4", "5"}
    assert observable_step(g_diag, ["2"], "o2") == {"2"}
    with pytest.raises(UnknownObservation):
        observable_step(g_diag, ["0"], "o9")


# ---------------------------------------------------------------------------
# state estimates against the unfolded definitions


def test_current_estimate_matches_definition_exhaustively(g_diag, g_det, g_opa):
    """The estimate recursion agrees with run enumeration on every
    observation string up to length 6, and is empty exactly outside the
    observed language."""
    for fsa in (g_diag, g_det, g_opa):
        reach = obs_string_reach(fsa, fsa.initial, 6)
        for alpha in all_obs_strings(fsa, 6):
            expected = frozenset(reach.get(alpha, ()))
            assert current_state_estimate(fsa, alpha) == expected
            assert bool(expected) == (alpha in reach)


def test_initial_estimate_frozen(g_det):
    assert initial_state_estimate(g_det, ()) == {"0", "3"}
    assert initial_state_estimate(g_det, ("o1",)) == {"0"}
    assert initial_state_estimate(g_det, ("o3", "o1")) == {"3"}


def test_initial_estimate_matches_definition_exhaustively(g_diag, g_det, g_opa):
    for fsa in (g_diag, g_det, g_opa):
        per_init = {x0: obs_string_reach(fsa, [x0], 4)
                    for x0 in fsa.sort_states(fsa.initial)}
        for alpha in all_obs_strings(fsa, 4):
            expected = frozenset(x0 for x0, reach in per_init.items()
                                 if alpha in reach)
            assert initial_state_estimate(fsa, alpha) == expected


def test_delayed_estimate_frozen(g_det, g_opa):
    assert delayed_state_estimate(g_det, ("o1",), ("o2", "o3")) == {"1", "4"}
    assert delayed_state_estimate(g_opa, ("o1",), ("o4",)) == {"4"}


def test_delayed_estimate_with_empty_suffix_is_current(g_diag, g_det, g_opa):
    for fsa in (g_diag, g_det, g_opa):
        for alpha in all_obs_strings(fsa, 3):
            assert delayed_state_estimate(fsa, alpha, ()) == \
                current_state_estimate(fsa, alpha)


def test_delayed_estimate_matches_definition(g_diag, g_det, g_opa):
    """An anchor survives the suffix exactly when it admits a continuation
    observing it."""
    for fsa in (g_diag, g_det, g_opa):
        for alpha in all_obs_strings(fsa, 2):
            anchors = current_state_estimate(fsa, alpha)
            for beta in all_obs_strings(fsa, 2):
                expected = frozenset(
                    x for x in anchors
                    if beta in obs_string_reach(fsa, [x], len(beta)))
                assert delayed_state_estimate(fsa, alpha, beta) == expected


def test_delayed_estimate_shrinks_with_longer_suffix(g_diag, g_det, g_opa):
    for fsa in (g_diag, g_det, g_opa):
        for alpha in all_obs_strings(fsa, 2):
            for beta in all_obs_strings(fsa, 3):
                for cut in range(len(beta)):
                    assert delayed_state_estimate(fsa, alpha, beta) <= \
                        delayed_state_estimate(fsa, alpha, beta[:cut])


def moves_cases(g_diag, g_det, g_opa):
    """The fixtures and 60 seeded machines, each also with its observations
    declared in reverse order."""
    for fsa in (g_diag, g_det, g_opa, make_twin_branch(), make_dying_branch()):
        yield fsa
        yield reversed_observations(fsa)
    yield from seeded_machines(60)


def test_state_moves_is_observable_moves_of_each_state():
    """The set stepper gives observable_step of each state and of each set
    on every observation that does not empty it, in declared observation
    order, on the seeded machines and on 300 random machines of up to six
    states.  The states are asked twice, last declared first, so most
    answers reuse closures an earlier answer computed.  The sets are
    every observer node, and both parts of every node of the exposure walk
    from each node E split into (E - secret, E & secret).  One stepper
    answers every question on a machine, so a memo that leaks from one set
    into another shows."""
    for fsa in comparison_machines():
        observer = build_observer(fsa).nodes
        walk_moves = state_moves(fsa)
        walk = bfs([(est - fsa.secret_states, est & fsa.secret_states) for est in observer],
                   lambda n: [t for _, t in joint_moves(fsa, n, walk_moves)])
        sets = [(x,) for x in fsa.states[::-1] + fsa.states] + list(observer)
        sets += [part for node in walk for part in node]
        moves = state_moves(fsa)
        for states in sets:
            assert list(moves(states).items()) == per_observation_moves(fsa, states), \
                (fsa, states)


class CountedEdges(dict):
    """A machine's out-edge map that counts the reads of each state's
    out-edges."""

    def __init__(self, edges):
        super().__init__(edges)
        self.reads = Counter()

    def __getitem__(self, state):
        self.reads[state] += 1
        return super().__getitem__(state)


def over_read_states(stepper):
    """The observer of the 360-state fault ring with every state initial,
    built on the set stepper stepper(fsa); returns the states whose
    out-edges were read more than twice for each state whose closure holds
    them, plus once."""
    fsa = validate_fsa(all_initial_fault_ring(360))
    holders = Counter(y for x in fsa.states for y in unobservable_reach(fsa, [x]))
    fsa._out = CountedEdges(fsa._out)
    assert len(build_observer(fsa, stepper(fsa)).nodes) == 718
    return [x for x in fsa.states if fsa._out.reads[x] > 2 * holders[x] + 1]


def test_observer_closes_each_state_once():
    """The observer of the 360-state fault ring with every state initial has
    718 estimates of up to 360 states.  Its set stepper closes and steps
    each state once, whatever the estimates it lies in: unobservable_reach
    reads a state's out-edges once for each state whose closure holds it,
    when that state is closed, the step reads them as often again, and
    build_observer's closure of the initial states reads them once more.
    A stepper that closes a state again for each estimate
    it lies in reads them hundreds of times, and fails the count."""
    assert over_read_states(state_moves) == []

    def reclosing(fsa):
        return lambda states: dict(per_observation_moves(fsa, states))

    assert len(over_read_states(reclosing)) > 300


def silent_cycle_machine():
    """An unvalidated machine whose states a and b close an unobservable
    cycle, which c's unobservable event enters."""
    return Fsa(states=["a", "b", "c", "d"], events=["u", "v", "w", "p", "q", "r"],
               transitions={("a", "u"): "b", ("b", "v"): "a", ("c", "w"): "a",
                            ("b", "p"): "c", ("c", "q"): "d", ("a", "q"): "a",
                            ("d", "r"): "c", ("d", "p"): "b"},
               initial=["a"], mask={"u": None, "v": None, "w": None, "p": "o1",
                                    "q": "o2", "r": "o1"})


def test_state_moves_terminates_on_an_unobservable_cycle():
    """The stepper needs no validation: on a machine with an unobservable
    cycle it gives the reference step of every state and of sets of them,
    with the states asked first to last and last to first, so each state is
    stepped both before and after the states of its closure."""
    fsa = silent_cycle_machine()
    with pytest.raises(UnobservableCycle):
        validate_fsa(silent_cycle_machine())
    sets = [(x,) for x in fsa.states] + [("a", "c"), ("b", "d"), tuple(fsa.states)]
    for asked in (sets, sets[::-1]):
        moves = state_moves(fsa)
        for states in asked:
            assert list(moves(states).items()) == per_observation_moves(fsa, states), states


def test_state_moves_closes_a_chain_longer_than_the_recursion_limit():
    """Closing is a loop, not a recursion: on an unobservable chain longer
    than the recursion limit, each state's step is the reference's.  The
    first state is asked first, when no closure on the chain is memoised,
    and the others from last to first, each after the closure of its
    successor is."""
    fsa = validate_fsa(unobservable_chain(sys.getrecursionlimit() + 200))
    moves = state_moves(fsa)
    for x in fsa.states[:1] + fsa.states[:0:-1]:
        assert list(moves((x,)).items()) == per_observation_moves(fsa, (x,)), x


def test_joint_moves_is_observable_step_on_every_observation(g_diag, g_det, g_opa):
    """The joint step gives, for each observation in declared order, what
    observable_step makes of each estimate of the tuple, and leaves out the
    observations that empty all of them; on every node reachable from each
    estimate split by the secret (or by the first state), and from pairs of
    random sets, one of them empty."""
    rng = random.Random(11)
    for fsa in moves_cases(g_diag, g_det, g_opa):
        part = fsa.secret_states or {fsa.states[0]}
        starts = [(est - part, est & part) for est in build_observer(fsa).nodes]
        starts += [(frozenset(rng.sample(fsa.states, rng.randint(0, len(fsa.states)))),
                    frozenset()) for _ in range(3)]
        moves = state_moves(fsa)
        for node in bfs(starts, lambda n: [t for _, t in joint_moves(fsa, n, moves)]):
            assert joint_moves(fsa, node, moves) == [(o, t) for o in fsa.observations if any(
                t := tuple(observable_step(fsa, est, o) for est in node))]


def test_estimate_walks_refuse_an_unknown_symbol_after_emptying(g_det):
    """Every estimate walk checks each symbol against the alphabet, also
    once its estimate is empty: no string with an unknown symbol has an
    estimate, empty or not."""
    assert current_state_estimate(g_det, ("o2",)) == frozenset()
    assert initial_state_estimate(g_det, ("o2",)) == frozenset()
    assert delayed_state_estimate(g_det, (), ("o2",)) == frozenset()
    for walk in (lambda: current_state_estimate(g_det, ("o2", "o9")),
                 lambda: initial_state_estimate(g_det, ("o2", "o9")),
                 lambda: delayed_state_estimate(g_det, ("o2",), ("o9",)),
                 lambda: delayed_state_estimate(g_det, (), ("o2", "o9"))):
        with pytest.raises(UnknownObservation):
            walk()


def test_observer_moves_match_per_observation_reference(g_diag, g_det, g_opa):
    for fsa in moves_cases(g_diag, g_det, g_opa):
        obs = build_observer(fsa)
        for node in obs.nodes:
            assert obs.moves[node] == per_observation_moves(fsa, node)
        assert list(obs.moves) == list(obs.nodes)


def test_out_edges_follow_event_order_whatever_the_transition_order():
    """Adjacency is grouped from the transition map, in event declaration
    order, however the map was ordered."""
    rng = random.Random(3)
    for _ in range(30):
        fsa = random_valid_fsa(rng, max_states=6, max_events=5)
        items = list(fsa.transitions.items())
        rng.shuffle(items)
        shuffled = Fsa(states=fsa.states, events=fsa.events, transitions=dict(items),
                       initial=fsa.initial, mask=fsa.mask)
        for x in fsa.states:
            want = [(e, fsa.transitions[(x, e)]) for e in fsa.events
                    if (x, e) in fsa.transitions]
            assert shuffled.out_edges(x) == fsa.out_edges(x) == want


# ---------------------------------------------------------------------------
# observer


def observer_edges(obs):
    """The observer's moves as a map (estimate, observation) -> estimate."""
    return {(node, o): nxt for node, moves in obs.moves.items() for o, nxt in moves}


def test_observer_g_det_frozen(g_det):
    obs = build_observer(g_det)
    n03, n14, n4, n2, n5 = (frozenset(s) for s in
                            ({"0", "3"}, {"1", "4"}, {"4"}, {"2"}, {"5"}))
    assert obs.initial == n03
    assert set(obs.nodes) == {n03, n14, n4, n2, n5}
    assert observer_edges(obs) == {
        (n03, "o1"): n14,
        (n03, "o3"): n4,
        (n14, "o1"): n5,
        (n14, "o2"): n2,
        (n4, "o1"): n5,
        (n4, "o2"): n2,
        (n2, "o3"): n2,
        (n5, "o1"): n5,
    }


def test_observer_g_opa_frozen(g_opa):
    obs = build_observer(g_opa)
    n03, n14, n2, n5 = (frozenset(s) for s in
                        ({"0", "3"}, {"1", "4"}, {"2"}, {"5"}))
    assert set(obs.nodes) == {n03, n14, n2, n5}
    assert observer_edges(obs) == {
        (n03, "o1"): n14,
        (n14, "o2"): n2,
        (n14, "o4"): n5,
        (n2, "o3"): n2,
        (n5, "o3"): n5,
    }


def test_observer_nodes_are_live(g_diag, g_det, g_opa):
    """Under liveness and no unobservable cycles every estimate can be
    extended by some observation."""
    for fsa in (g_diag, g_det, g_opa):
        obs = build_observer(fsa)
        for node in obs.nodes:
            assert obs.moves[node]


# ---------------------------------------------------------------------------
# fault partition


def test_refined_machine_inherits_validation():
    """Refinement makes no dead state and no unobservable cycle: the split
    machine of a validated machine is marked validated, and validating a
    fresh copy of it raises nothing; that of an unvalidated one is not
    marked."""
    split = 0
    for fsa in comparison_machines():
        refined, _ = refine_fault_partition(fsa)
        assert fsa.validated and refined.validated
        if refined is not fsa:
            split += 1
            validate_fsa(Fsa(states=refined.states, events=refined.events,
                             transitions=refined.transitions, initial=refined.initial,
                             mask=refined.mask, fault_events=refined.fault_events))
            raw = Fsa(states=fsa.states, events=fsa.events, transitions=fsa.transitions,
                      initial=fsa.initial, mask=fsa.mask, fault_events=fsa.fault_events)
            assert not refine_fault_partition(raw)[0].validated
    assert split > 50, split


def test_split_machine_is_the_one_the_constructor_builds():
    """The split machine, built without the constructor's checks, has every
    field the constructor gives the same states, transitions and
    annotations, in the same order (dicts compared as item lists), with
    the input's validation mark: on each machine as drawn, with no secret
    declared, and on an unvalidated copy that declares every other state
    secret."""
    split = 0
    for drawn in comparison_machines():
        marked = Fsa(states=drawn.states, events=drawn.events,
                     transitions=drawn.transitions, initial=drawn.initial,
                     mask=drawn.mask, fault_events=drawn.fault_events,
                     secret_states=drawn.states[::2], observations=drawn.observations,
                     name=drawn.name)
        for fsa in (drawn, marked):
            refined, _ = refine_fault_partition(fsa)
            if refined is fsa:
                continue
            split += 1
            built = Fsa(states=refined.states, events=fsa.events,
                        transitions=refined.transitions, initial=refined.initial,
                        mask=fsa.mask, fault_events=fsa.fault_events,
                        secret_states=refined.secret_states,
                        observations=fsa.observations, name=fsa.name)
            built.validated = fsa.validated
            assert vars(refined).keys() == vars(built).keys()
            for field, value in vars(built).items():
                got = getattr(refined, field)
                assert got == value, field
                if isinstance(value, dict):
                    assert list(got.items()) == list(value.items()), field
    assert split > 100, split


def test_refine_no_fault_events(g_det):
    with pytest.raises(NoFaultEvents):
        refine_fault_partition(g_det)


def test_refine_declared_empty_fault_events(g_diag):
    """An empty declaration is a declaration: nothing needs a split, and no
    state is a fault state."""
    fsa = Fsa(states=g_diag.states, events=g_diag.events,
              transitions=g_diag.transitions, initial=g_diag.initial,
              mask=g_diag.mask, fault_events=[])
    refined, part = refine_fault_partition(fsa)
    assert refined is fsa
    assert part.fault_states == frozenset()
    assert part.normal_states == frozenset(fsa.states)


def test_refine_unchanged_when_faults_are_absorbing(g_diag):
    refined, part = refine_fault_partition(g_diag)
    assert refined is g_diag
    assert part.fault_states == {"2"}
    assert part.normal_states == {"0", "1", "3", "4", "5"}


def test_refine_splits_fault_ambiguous_state():
    refined, part = refine_fault_partition(needs_split_machine())
    assert set(refined.states) == {"p", "p#F"}
    assert part.normal_states == {"p"}
    assert part.fault_states == {"p#F"}
    assert refined.transitions == {
        ("p", "a"): "p", ("p", "f"): "p#F",
        ("p#F", "a"): "p#F", ("p#F", "f"): "p#F",
    }
    assert refined.initial == {"p"}
    assert refined.secret_states == {"p", "p#F"}


def test_refined_machine_keeps_the_declared_observations():
    """The split machine keeps the declared observation alphabet, in its
    order and with an observation no event uses, not the order in which
    the mask first uses each observation."""
    base = needs_split_machine()
    fsa = validate_fsa(Fsa(states=base.states, events=base.events,
                           transitions=base.transitions, initial=base.initial,
                           mask=base.mask, fault_events=base.fault_events,
                           observations=["o9", "o2", "o1"]))
    refined, _ = refine_fault_partition(fsa)
    assert refined is not fsa
    assert refined.observations == ("o9", "o2", "o1")


def test_refined_fault_set_is_a_language_invariant(g_diag):
    """After refinement a run ends in a fault state exactly when it contains
    a fault event (checked by full enumeration to |X|+2 steps)."""
    for base in (g_diag, needs_split_machine()):
        refined, part = refine_fault_partition(base)
        depth = len(refined.states) + 2
        for x0 in refined.sort_states(refined.initial):
            for length in range(depth + 1):
                for s, end in enumerate_runs(refined, x0, length):
                    has_fault = any(e in refined.fault_events for e in s)
                    assert has_fault == (end in part.fault_states)


def test_boundary_states_frozen(g_diag):
    refined, part = refine_fault_partition(g_diag)
    assert boundary_states(refined, part) == {"1"}


# ---------------------------------------------------------------------------
# randomized cross-checks of the operators


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_random_estimates_match_definition(seed):
    fsa = random_valid_fsa(random.Random(seed))
    reach = obs_string_reach(fsa, fsa.initial, 3)
    per_init = {x0: obs_string_reach(fsa, [x0], 3)
                for x0 in fsa.sort_states(fsa.initial)}
    for alpha in all_obs_strings(fsa, 3):
        assert current_state_estimate(fsa, alpha) == frozenset(reach.get(alpha, ()))
        assert initial_state_estimate(fsa, alpha) == frozenset(
            x0 for x0, r in per_init.items() if alpha in r)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_random_delayed_estimate_properties(seed):
    fsa = random_valid_fsa(random.Random(seed))
    for alpha in all_obs_strings(fsa, 2):
        assert delayed_state_estimate(fsa, alpha, ()) == \
            current_state_estimate(fsa, alpha)
        anchors = current_state_estimate(fsa, alpha)
        for beta in all_obs_strings(fsa, 2):
            expected = frozenset(
                x for x in anchors
                if beta in obs_string_reach(fsa, [x], len(beta)))
            got = delayed_state_estimate(fsa, alpha, beta)
            assert got == expected
            for cut in range(len(beta)):
                assert got <= delayed_state_estimate(fsa, alpha, beta[:cut])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_random_observer_is_live(seed):
    fsa = random_valid_fsa(random.Random(seed))
    obs = build_observer(fsa)
    for node in obs.nodes:
        assert obs.moves[node]
        assert node  # estimates in the observer are never empty


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_random_refinement_invariant(seed):
    fsa = random_valid_fsa(random.Random(seed), max_states=4, max_events=3)
    refined, part = refine_fault_partition(fsa)
    depth = min(len(refined.states) + 2, 6)
    for x0 in refined.sort_states(refined.initial):
        for length in range(depth + 1):
            for s, end in enumerate_runs(refined, x0, length):
                has_fault = any(e in refined.fault_events for e in s)
                assert has_fault == (end in part.fault_states)


def test_draws_name_events_beyond_the_alphabet():
    """A draw may have more than 26 events: the first 26 keep their letters
    and each later one gets a name of its own."""
    rng = random.Random(7)
    counts = []
    for _ in range(20):
        fsa = random_valid_fsa(rng, max_states=4, max_events=40)
        events = list(fsa.events)
        assert len(set(events)) == len(events)
        assert events[:26] == list(string.ascii_lowercase[:len(events)])
        counts.append(len(events))
    assert max(counts) > 26
