"""Relations between the nine properties, checked on both routes.

The differential fuzz compares the two routes, so a fault they share does
not show there.  The relations here follow from the definitions alone and
hold on every machine: implications between properties, monotonicity under
a finer observation, and invariance under renaming.  A verdict that breaks
one is wrong, whatever the other route says.
"""

import random

import pytest

from hyperdes.des import Fsa, validate_fsa
from hyperdes.formula import OPACITY_PROPERTIES, PROPERTIES
from hyperdes.fuzz import differential_fuzz
from hyperdes.gen import random_valid_fsa
from hyperdes.hyper import HyperAnalysis
from hyperdes.oracle import OracleAnalysis

# each route's decision of every property of one machine, on one analysis
ROUTES = {"hyper": lambda fsa: HyperAnalysis(fsa).verify,
          "oracle": lambda fsa: OracleAnalysis(fsa).check}

# (a, b): every machine with property a has property b
IMPLICATIONS = (
    ("predictability", "diagnosability"),
    ("infinite-step-opacity", "current-state-opacity"),
    ("strong-detectability", "weak-detectability"),
    ("delayed-detectability", "i-detectability"),
)


def machines(count):
    rng = random.Random(7)
    return [random_valid_fsa(rng, max_states=6) for _ in range(count)]


def verdicts(fsa, route, kinds=PROPERTIES):
    decide = ROUTES[route](fsa)
    return {kind: decide(kind).holds for kind in kinds}


def broken_implications(fsas, route):
    """(machine index, a, b) for each machine on which the route says that
    a holds and b does not, for each (a, b) of IMPLICATIONS."""
    kinds = tuple(dict.fromkeys(kind for pair in IMPLICATIONS for kind in pair))
    broken = []
    for i, fsa in enumerate(fsas):
        holds = verdicts(fsa, route, kinds)
        broken.extend((i, a, b) for a, b in IMPLICATIONS if holds[a] and not holds[b])
    return broken


def with_fresh_observation(fsa):
    """The machine with its first observable event observed as an
    observation of its own, declared last."""
    event = next(e for e in fsa.events if fsa.observable(e))
    return validate_fsa(Fsa(states=fsa.states, events=fsa.events,
                            transitions=fsa.transitions, initial=fsa.initial,
                            mask={**fsa.mask, event: "fresh"},
                            fault_events=fsa.fault_events,
                            secret_states=fsa.secret_states,
                            observations=fsa.observations + ("fresh",)))


def renamed(fsa, rng):
    """An isomorphic copy: fresh names for the states, events and
    observations, each declared in a shuffled order, and the transitions
    listed in a shuffled order."""
    def fresh(items, prefix):
        order = list(items)
        rng.shuffle(order)
        return {x: f"{prefix}{i}" for i, x in enumerate(order)}

    state, event, obs = (fresh(fsa.states, "s"), fresh(fsa.events, "v"),
                         fresh(fsa.observations, "w"))
    transitions = [((state[x], event[e]), state[y]) for (x, e), y in fsa.transitions.items()]
    rng.shuffle(transitions)
    return validate_fsa(Fsa(
        states=list(state.values()), events=list(event.values()),
        transitions=dict(transitions), initial=[state[x] for x in fsa.initial],
        mask={event[e]: None if o is None else obs[o] for e, o in fsa.mask.items()},
        observations=list(obs.values()),
        fault_events=[event[e] for e in fsa.fault_events],
        secret_states=[state[x] for x in fsa.secret_states]))


@pytest.mark.parametrize("route", ROUTES)
def test_implications_between_properties(route):
    """Predictability implies diagnosability (Genc and Lafortune,
    Automatica 45(2), 2009); infinite-step opacity implies current-state
    opacity, its case with no later observation (Saboori and Hadjicostis,
    IEEE TAC 57(5), 2012); strong detectability implies weak detectability
    (Shu, Lin and Ying, IEEE TAC 52(12), 2007).

    Delayed detectability implies I-detectability.  Suppose a machine is
    not I-detectable: two distinct initial states x0 and y0 admit runs that
    share observation strings of every length.  Take alpha = ε.  The
    current-state estimate after ε is the unobservable closure of the
    initial states, which holds x0 and y0, and each of them admits a run
    observed as every one of those strings beta.  So both stay in the
    delayed estimate after ε refined by beta, however long beta is, and
    that estimate never pins the state: the machine is not delayed
    detectable either."""
    assert broken_implications(machines(600), route) == []


@pytest.mark.parametrize("route", ROUTES)
def test_a_finer_observation_keeps_each_verdict_it_should(route):
    """Giving one observable event an observation of its own splits
    observation strings: two runs observed alike on the new machine were
    observed alike on the old one, so every estimate can only shrink.  A
    fault or detectability property that held still holds, and an opacity
    property that failed still fails (Lin, Automatica 47(3), 2011, for
    opacity)."""
    broken = []
    for i, fsa in enumerate(machines(300)):
        before = verdicts(fsa, route)
        after = verdicts(with_fresh_observation(fsa), route)
        for kind in PROPERTIES:
            # held on one machine, so must hold on the other: old to new,
            # and new to old for opacity
            held, holds = before[kind], after[kind]
            if kind in OPACITY_PROPERTIES:
                held, holds = holds, held
            if held and not holds:
                broken.append((i, kind))
    assert broken == []


@pytest.mark.parametrize("route", ROUTES)
def test_verdicts_do_not_depend_on_names_or_declaration_order(route):
    rng = random.Random(29)
    changed = []
    for i, fsa in enumerate(machines(300)):
        before, after = verdicts(fsa, route), verdicts(renamed(fsa, rng), route)
        changed.extend((i, kind) for kind in PROPERTIES if before[kind] != after[kind])
    assert changed == []


def test_the_relations_see_a_fault_both_routes_share(monkeypatch):
    """With both routes patched to say that predictability holds, the
    routes still agree and every witness still replays, yet predictability
    no longer implies diagnosability."""
    def predictable(decide):
        def patched(self, kind, *args):
            verdict = decide(self, kind, *args)
            if kind == "predictability":
                verdict.holds, verdict.witness = True, None
            return verdict
        return patched

    monkeypatch.setattr(HyperAnalysis, "verify", predictable(HyperAnalysis.verify))
    monkeypatch.setattr(OracleAnalysis, "check", predictable(OracleAnalysis.check))
    report = differential_fuzz(seed=20260823, count=200)
    assert report["disagreements"] == [] and report["witness_failures"] == []
    for route in ROUTES:
        broken = broken_implications(machines(600), route)
        assert {(a, b) for _, a, b in broken} == {IMPLICATIONS[0]}, route
