"""Model corpora of the three workloads, each a list of cases.

A case is one (model, property) pair: the hyper route decides it, the oracle
decides it too where `oracle` is set, and `expect`, where set, holds the
answers derived by hand that both routes must give.  Corpora are built only
from the public API (`hyperdes.gen`, `hyperdes.des.Fsa`, `hyperdes.modelio`).

Every model's structure is fixed by its workload: the acceptance stream, a
fixed draw of mid-size machines, and the ring families.  `--seed` relabels
each model (fresh names for states, events and observations) and shuffles
the order of the cases, so two seeds pose the same decision problems to the
program under different names and in a different order.  The one
exception is the large ring that keeps the weak-detectability fault, which
is never relabelled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from hyperdes import des, gen, modelio
from hyperdes.formula import PROPERTIES

ACCEPTANCE_SEED = 20260823   # the stream of tests/test_acceptance.py
MID_STREAM_SEED = 20261017
MID_COUNT = 40
MID_STATES = (12, 16)

# Verdicts stated in the docstring of
# tests/test_acceptance.py::test_fixture_verdicts_match_pinned_expectations.
FIXTURE_VERDICTS = {
    "g_diag": {"diagnosability": True, "predictability": False},
    "g_det": {"i-detectability": True, "strong-detectability": True,
              "weak-detectability": True, "delayed-detectability": False},
    "g_opa": {"initial-state-opacity": True, "current-state-opacity": True,
              "infinite-step-opacity": False},
}

# (family, states); the oracle's three unfolding checks run only on the
# rings of at most ORACLE_UNFOLD_STATES states, where they finish quickly.
RINGS = (("fault", 16), ("labelled", 16), ("all-initial", 12),
         ("fault", 48), ("labelled", 48), ("all-initial", 32))
ORACLE_UNFOLD_STATES = 16
UNFOLD_KINDS = ("diagnosability", "i-detectability", "delayed-detectability")
# Weak-detectability on the candidate route raises RecursionError on this
# ring; it stays in the workload and counts as a failed case.
BIG_RING = ("fault", 360)
TINY_RINGS = (("fault", 6), ("labelled", 5), ("all-initial", 5))


@dataclass
class Case:
    model: str          # display name
    fsa: object
    kind: str
    oracle: bool        # run the oracle route as well
    expect: dict = None  # {"hyper": ..., "oracle": ...} derived by hand


def relabel(fsa, rng):
    """Isomorphic copy with fresh names, in the same declaration order.

    Declaration order drives every search order of the program, so keeping
    it keeps each verdict's work the same; see the README for why.
    """
    def fresh(items, prefix):
        ids = list(range(len(items)))
        rng.shuffle(ids)
        return {x: f"{prefix}{i}" for x, i in zip(items, ids)}

    sname = fresh(fsa.states, "x")
    ename = fresh(fsa.events, "e")
    oname = fresh(fsa.observations, "o")
    return des.Fsa(
        states=[sname[x] for x in fsa.states],
        events=[ename[e] for e in fsa.events],
        transitions={(sname[x], ename[e]): sname[y]
                     for (x, e), y in fsa.transitions.items()},
        initial=[sname[x] for x in fsa.initial],
        mask={ename[e]: None if o is None else oname[o] for e, o in fsa.mask.items()},
        observations=[oname[o] for o in fsa.observations],
        fault_events=None if fsa.fault_events is None else
        [ename[e] for e in fsa.fault_events],
        secret_states=None if fsa.secret_states is None else
        [sname[x] for x in fsa.secret_states],
        name=fsa.name,
    )


def through_modelio(fsa):
    """Serialize and parse back, then validate: the program gets parsed models."""
    return des.validate_fsa(modelio.parse_model(modelio.serialize_model(fsa)))


# ---------------------------------------------------------------------------
# ring families


def ring(family, n):
    """n-state ring; the README derives every verdict from this construction.

    fault:       a (o1) steps i -> i+1, b (o2) closes n-1 -> 0, and the
                 unobservable fault f skips 0 -> 1.  Initial {0}.
    labelled:    e_i steps i -> i+1 mod n with its own observation o_i, and
                 the fault f skips 0 -> 1 observed as its own symbol.
    all-initial: the fault ring with every state initial.
    Secret states are the even-numbered ones in every family.
    """
    states = [str(i) for i in range(n)]
    if family == "labelled":
        events = [f"e{i}" for i in range(n)] + ["f"]
        mask = {f"e{i}": f"o{i}" for i in range(n)}
        mask["f"] = "of"
        trans = {(str(i), f"e{i}"): str((i + 1) % n) for i in range(n)}
    else:
        events = ["a", "b", "f"]
        mask = {"a": "o1", "b": "o2", "f": None}
        trans = {(str(i), "a"): str(i + 1) for i in range(n - 1)}
        trans[(str(n - 1), "b")] = "0"
    trans[("0", "f")] = "1"
    return des.Fsa(states=states, events=events, transitions=trans,
                   initial=states if family == "all-initial" else ["0"],
                   mask=mask, fault_events=["f"],
                   secret_states=states[::2], name=f"{family}-{n}")


def ring_answer(family, n, kind):
    """The verdict of `kind` on ring(family, n), derived in the README."""
    even = n % 2 == 0
    answers = {
        "fault": {"diagnosability": True, "i-detectability": True,
                  "current-state-opacity": even},
        "labelled": {"diagnosability": True, "i-detectability": True,
                     "strong-detectability": True, "weak-detectability": True,
                     "delayed-detectability": True},
        "all-initial": {"current-state-opacity": even},
    }
    return answers[family].get(kind, False)


def ring_expect(family, n, kind):
    truth = ring_answer(family, n, kind)
    # the candidate route can only prove weak-detectability; a false one
    # ends with the search exhausted
    hyper = "inconclusive" if kind == "weak-detectability" and truth is False else truth
    return {"hyper": hyper, "oracle": truth}


# ---------------------------------------------------------------------------
# workloads


def fuzz_stream(rng, root, count=500):
    """The acceptance stream, all nine properties, plus the fixture verdicts."""
    stream = random.Random(ACCEPTANCE_SEED)
    cases = []
    for i in range(count):
        fsa = through_modelio(relabel(gen.random_valid_fsa(stream, max_states=5), rng))
        cases += [Case(f"stream-{i}", fsa, kind, True) for kind in PROPERTIES]
    for name, verdicts in FIXTURE_VERDICTS.items():
        fsa = des.validate_fsa(modelio.load_model(root / "models" / f"{name}.json"))
        cases += [Case(name, fsa, kind, True, {"hyper": want, "oracle": want})
                  for kind, want in verdicts.items()]
    rng.shuffle(cases)
    return cases


def mid_random(rng, count=MID_COUNT):
    """A fixed draw of 12- to 16-state machines, all nine properties."""
    stream = random.Random(MID_STREAM_SEED)
    lo, hi = MID_STATES
    cases = []
    while len(cases) < count * len(PROPERTIES):
        fsa = gen.random_valid_fsa(stream, max_states=hi)
        if len(fsa.states) < lo:
            continue
        fsa = through_modelio(relabel(fsa, rng))
        index = len(cases) // len(PROPERTIES)
        cases += [Case(f"mid-{index}", fsa, kind, True) for kind in PROPERTIES]
    rng.shuffle(cases)
    return cases


def rings(rng, sizes=RINGS):
    """Ring families, all nine properties on the hyper route, checked
    against the answers derived by hand."""
    cases = []
    for family, n in sizes:
        fsa = through_modelio(relabel(ring(family, n), rng))
        cases += [Case(f"{family}-{n}", fsa, kind,
                       n <= ORACLE_UNFOLD_STATES or kind not in UNFOLD_KINDS,
                       ring_expect(family, n, kind)) for kind in PROPERTIES]
    rng.shuffle(cases)
    family, n = BIG_RING
    kind = "weak-detectability"
    cases.append(Case(f"{family}-{n}", through_modelio(ring(family, n)), kind,
                      True, ring_expect(family, n, kind)))
    return cases


def build(workload, seed, root, tiny=False):
    """The case list of a workload; `root` is the checkout, `tiny` shrinks the
    list for the self-test."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "fuzz-stream":
        return fuzz_stream(rng, root, count=8 if tiny else 500)
    if workload == "mid-random":
        return mid_random(rng, count=2 if tiny else MID_COUNT)
    if workload == "rings":
        return rings(rng, sizes=TINY_RINGS if tiny else RINGS)
    raise ValueError(f"unknown workload {workload!r}")

