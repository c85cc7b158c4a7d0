"""Random generation of valid automata for fuzzing and property tests.

Generation is driven entirely by a caller-supplied random.Random instance, so
a fixed seed reproduces the exact same sequence of machines.  Invalid draws
(dead states are repaired, unobservable cycles are rejected) are retried.
"""

from __future__ import annotations

import string

from .des import Fsa, silent_cycle, validate_fsa

# draws rejected for an unobservable cycle before the generator gives up
MAX_ATTEMPTS = 500


def random_valid_fsa(rng, max_states=5, max_events=4, max_obs=3):
    """Draw a live automaton without unobservable cycles.

    States are named "0", "1", ...; events "a", "b", ..., "z", and from the
    27th on "e26", "e27", ...; observations "o1", "o2", ....  At least one
    event is observable, and fault events and secret states are declared
    and nonempty.
    """
    for _ in range(MAX_ATTEMPTS):
        draw = _draw(rng, max_states, max_events, max_obs)
        # a draw is live; look for an unobservable cycle before building it
        silent = {}
        for (x, e), y in draw["transitions"].items():
            if draw["mask"][e] is None:
                silent.setdefault(x, []).append(y)
        if silent_cycle(silent) is None:
            return validate_fsa(Fsa(**draw))
    raise RuntimeError("could not draw a valid automaton; loosen the size limits")


def _draw(rng, max_states, max_events, max_obs):
    n = rng.randint(2, max_states)
    m = rng.randint(1, max_events)
    k = rng.randint(1, max_obs)
    states = [str(i) for i in range(n)]
    events = list(string.ascii_lowercase[:m]) + [f"e{i}" for i in range(26, m)]
    obs = [f"o{i + 1}" for i in range(k)]

    mask = {}
    for e in events:
        if rng.random() < 2.0 / 3.0:
            mask[e] = rng.choice(obs)
        else:
            mask[e] = None
    if all(o is None for o in mask.values()):
        mask[rng.choice(events)] = rng.choice(obs)

    transitions = {}
    for _ in range(max(n, int(1.5 * n))):
        x = rng.choice(states)
        e = rng.choice(events)
        if (x, e) not in transitions:
            transitions[(x, e)] = rng.choice(states)
    for x in states:
        if not any((x, e) in transitions for e in events):
            transitions[(x, rng.choice(events))] = rng.choice(states)

    initial = sorted(rng.sample(states, rng.randint(1, min(2, n))), key=int)

    fault_events = sorted(rng.sample(events, rng.randint(1, min(2, m))))
    secret_states = sorted(rng.sample(states, rng.randint(1, max(1, n - 1))), key=int)

    return dict(states=states, events=events, transitions=transitions,
                initial=initial, mask=mask, fault_events=fault_events,
                secret_states=secret_states, observations=obs)
