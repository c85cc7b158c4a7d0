"""Large models on both routes, with time bounds.

Structures are built from each state's out-edges grouped by observation, so
their cost grows with the edges of the automaton, not with states times
alphabet.  These models have an alphabet as large as their state space,
where a loop over the alphabet per state or per estimate shows at once.
Each time is the best of three runs, so that a busy host does not decide
the outcome; the bounds were set from measurements and are not to be
loosened.  The growth of the hyper route's estimate searches is gated on
the states they expand instead, which no host changes.
"""

import time

from hyperdes import graph, hyper
from hyperdes.des import Fsa, validate_fsa
from hyperdes.formula import OPACITY_PROPERTIES, PROPERTIES
from hyperdes.hyper import replay_witness, verify
from hyperdes.kripke import build_kripke
from hyperdes.oracle import oracle_check
from support import (
    all_initial_fault_ring,
    estimate_blowup,
    labelled_ring,
    o1_ring,
    unobservable_chain,
)

# each route's entry point for one property of one machine
ROUTES = {"hyper": verify, "oracle": oracle_check}
# the labelled ring: every observation names the state it enters
LABELLED_ANSWERS = {
    "diagnosability": True, "predictability": False, "i-detectability": True,
    "strong-detectability": True, "weak-detectability": True,
    "delayed-detectability": True, "initial-state-opacity": False,
    "current-state-opacity": False, "infinite-step-opacity": False,
}


def best_of_three(run):
    times = []
    for _ in range(3):
        started = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - started)
    return min(times), result


def test_fully_observable_1200_cycle_on_both_routes():
    """The 1200-state labelled ring, fault skip and even secrets included,
    has 1202 observations.  All nine properties decide in under 1 s on
    each route, the routes agree with each other and with the answers
    derived by hand, and every witness replays."""
    fsa = validate_fsa(labelled_ring(1200))
    for kind in PROPERTIES:
        for engine, decide in ROUTES.items():
            seconds, verdict = best_of_three(lambda: decide(fsa, kind))
            assert verdict.holds is LABELLED_ANSWERS[kind], (kind, engine)
            assert seconds < 1.0, (kind, engine, seconds)
            if verdict.replayable:
                assert replay_witness(fsa, kind, verdict) is True, (kind, engine)


def test_wide_initial_set_opacity_on_both_routes():
    """The 150-state labelled ring with every state initial and nothing
    secret: 150 initial tracks and an estimate holding every state.  The
    three opacity properties hold, and each decides in under 1 s on each
    route."""
    ring = labelled_ring(150)
    fsa = validate_fsa(Fsa(states=ring.states, events=ring.events,
                           transitions=ring.transitions, initial=ring.states,
                           mask=ring.mask, fault_events=ring.fault_events,
                           secret_states=[], name="all-initial-labelled-150"))
    for kind in OPACITY_PROPERTIES:
        for engine, decide in ROUTES.items():
            seconds, verdict = best_of_three(lambda: decide(fsa, kind))
            assert verdict.holds is True, (kind, engine)
            assert seconds < 1.0, (kind, engine, seconds)


def test_all_initial_fault_ring_opacity_on_both_routes():
    """The 360-state fault ring with every state initial and the even
    states secret: an estimate of up to every state, and 718 observer
    nodes to start the infinite-step search from.  Initial-state and
    infinite-step opacity fail and current-state opacity holds; the routes
    agree, and each decides in under 1 s."""
    fsa = validate_fsa(all_initial_fault_ring(360))
    answers = {"initial-state-opacity": False, "current-state-opacity": True,
               "infinite-step-opacity": False}
    for kind, holds in answers.items():
        for engine in ROUTES:
            seconds, verdict = best_of_three(lambda: ROUTES[engine](fsa, kind))
            assert verdict.holds is holds, (kind, engine)
            assert seconds < 1.0, (kind, engine, seconds)


def test_all_initial_fault_ring_estimate_checks_on_the_oracle():
    """The oracle's checks on the observer of the 360-state fault ring with
    every state initial, whose 718 estimates hold up to every state: strong
    and weak detectability fail, since the estimates {i, i+1} recur after
    every o2 and {359} leads back to {0, 1}, and current-state opacity
    holds, since every estimate holds an odd state.  Each decides in under
    0.1 s, from scratch each time: weak detectability on the observer,
    strong detectability on the verifier's pairs and current-state opacity
    on the estimates it walks."""
    fsa = validate_fsa(all_initial_fault_ring(360))
    answers = {"strong-detectability": False, "weak-detectability": False,
               "current-state-opacity": True}
    for kind, holds in answers.items():
        seconds, verdict = best_of_three(lambda: oracle_check(fsa, kind))
        assert verdict.holds is holds, kind
        assert seconds < 0.1, (kind, seconds)


def test_unobservable_chain_pair_checks_on_the_oracle():
    """The chain of 300 unobservable steps closed by one observable event,
    with an unobservable fault skip: every state's closure runs to the end
    of the chain, so the closure pair graph listed about n² successors per
    pair, where the single-event verifier has a few moves per pair.
    Diagnosability and delayed detectability fail and I-detectability
    holds, as derived by hand, each decided in under 1 s on the oracle
    route."""
    fsa = validate_fsa(unobservable_chain(300))
    answers = {"diagnosability": False, "i-detectability": True,
               "delayed-detectability": False}
    for kind, holds in answers.items():
        seconds, verdict = best_of_three(lambda: oracle_check(fsa, kind))
        assert verdict.holds is holds, kind
        assert seconds < 1.0, (kind, seconds)


def test_all_initial_fault_ring_estimate_checks_on_the_hyper_route():
    """The hyper route on the 360-state fault ring with every state
    initial: current-state opacity holds and weak detectability fails, as
    on the oracle, each in under 0.15 s from scratch.  Their searches key
    their states by the estimate, 718 of them; searches over (node,
    estimate) pairs, one state per member of each, took 0.18 and 0.17 s."""
    fsa = validate_fsa(all_initial_fault_ring(360))
    answers = {"current-state-opacity": True, "weak-detectability": False}
    for kind, holds in answers.items():
        seconds, verdict = best_of_three(lambda: verify(fsa, kind))
        assert verdict.holds is holds, kind
        assert seconds < 0.15, (kind, seconds)


def test_o1_ring_weak_detectability_on_both_routes():
    """The 100-state o1 ring is not weakly detectable: its estimates never
    shrink to one state, whatever the observations.  Its observer has
    about n² estimates of up to n states.  Both routes say so, and the
    hyper route, on the negated forall/exists walk, takes at most
    1.5 times the oracle's time; a product with one state per member of
    each estimate took 1.8 s, against the oracle's 0.14 s."""
    fsa = validate_fsa(o1_ring(100))
    times = {}
    for engine, decide in ROUTES.items():
        times[engine], verdict = best_of_three(lambda: decide(fsa, "weak-detectability"))
        assert verdict.holds is False, engine
    assert times["hyper"] <= 1.5 * times["oracle"], times


def expanded_states(monkeypatch, fsa, kind):
    """The states the hyper route's searches expand to decide one property:
    the calls of every successor function hyper hands to a graph search."""
    calls = [0]

    def counting(search):
        def wrapped(start, succ, *rest):
            def counted(node):
                calls[0] += 1
                return succ(node)
            return search(start, counted, *rest)
        return wrapped

    with monkeypatch.context() as patch:
        for name, search in vars(graph).items():
            if callable(search) and getattr(hyper, name, None) is search:
                patch.setattr(hyper, name, counting(search))
        verify(fsa, kind)
    return calls[0]


def test_estimate_searches_grow_with_the_estimates(monkeypatch):
    """States expanded, not seconds, at n = 20, 40 and 80.  Each doubling
    of the all-initial fault ring multiplies the states its current-state
    opacity walk and weak-detectability decision expand by at most 2.2 (it
    has 2n - 2 estimates), and each doubling of the o1 ring multiplies
    those of weak detectability by at most 4.5 (its observer is
    quadratic).  Searches over (node, estimate) pairs grew about 3.7 and
    8.2 times per doubling."""
    cases = [(all_initial_fault_ring, "current-state-opacity", 2.2),
             (all_initial_fault_ring, "weak-detectability", 2.2),
             (o1_ring, "weak-detectability", 4.5)]
    for family, kind, most in cases:
        counts = [expanded_states(monkeypatch, validate_fsa(family(n)), kind)
                  for n in (20, 40, 80)]
        for small, large in zip(counts, counts[1:]):
            assert large <= most * small, (family.__name__, kind, counts)


def test_o1_ring_fails_strong_detectability_and_diagnosability_on_the_oracle():
    """The 1000-state ring whose steps all show o1: a run through the fault
    stays one state ahead of a fault-free run under the same observations
    forever, so the current state is never pinned and the fault never
    diagnosed.  Its observer has about n² estimates of up to n states:
    deciding strong detectability on it took 39 s and 2.8 GB at 500 states
    and ran out of a 3 GB address space at 1000.  On the verifier a search
    closes a cycle through an off-diagonal or faulted pair after about n
    pairs.  Each decides in under 1 s."""
    fsa = validate_fsa(o1_ring(1000))
    for kind in ("strong-detectability", "diagnosability"):
        seconds, verdict = best_of_three(lambda: oracle_check(fsa, kind))
        assert verdict.holds is False, kind
        assert seconds < 1.0, (kind, seconds)


def test_estimate_blowup_predictability_on_both_routes():
    """The 16-step chain whose more than 2^16 estimates record where the
    last 16 observations showed a.  It is predictable, and each route decides so
    in under 0.05 s.  A walk over (state, estimate) nodes took 0.13 s at
    n = 12, 0.67 s at 14 and 3.25 s at 16; the oracle's search over the
    fault-free verifier's pairs does not grow with the estimates."""
    fsa = validate_fsa(estimate_blowup(16))
    for engine, decide in ROUTES.items():
        seconds, verdict = best_of_three(lambda: decide(fsa, "predictability"))
        assert verdict.holds is True, engine
        assert seconds < 0.05, (engine, seconds)


def test_kripke_of_the_600_state_labelled_ring_builds_quickly():
    """One node per state and the observation entering it, plus the
    initial node and the fault skip's target: 602 nodes, each expanded,
    in under 0.1 s.  The structure is built on demand, so the timed build
    lists its nodes, which expands every one."""
    fsa = validate_fsa(labelled_ring(600))

    def build():
        k = build_kripke(fsa)
        return k, k.nodes

    seconds, (k, nodes) = best_of_three(build)
    assert len(nodes) == 602 and len(k.succ) == 602
    assert seconds < 0.1, seconds
