"""Differential fuzzing: the formula engines against the reference checks.

Random valid automata are decided on both routes; the report counts the
verdicts, and lists every disagreement and every witness that does not
replay.
"""

from __future__ import annotations

import random

from .errors import InvalidBound
from .formula import PROPERTIES
from .gen import random_valid_fsa
from .hyper import HyperAnalysis
from .oracle import OracleAnalysis


def differential_fuzz(seed=0, count=100, max_states=5, max_events=4, max_obs=3) -> dict:
    """Cross-validate the hyperproperty engines against the reference checks
    of the oracle on random valid automata; returns a deterministic report.

    A negative count, or a size limit no machine can be drawn under, raises
    InvalidBound: machines have at least two states, one event and one
    observation."""
    for name, value, least in (("count", count, 0), ("max_states", max_states, 2),
                               ("max_events", max_events, 1), ("max_obs", max_obs, 1)):
        if value < least:
            raise InvalidBound(name, value, expected=f"an integer of at least {least}")
    rng = random.Random(seed)
    # every verdict is exact, so "inconclusive" stays 0; the key keeps the
    # report's shape
    tallies = {kind: {"true": 0, "false": 0, "inconclusive": 0} for kind in PROPERTIES}
    disagreements = []
    witness_failures = []
    for index in range(count):
        fsa = random_valid_fsa(rng, max_states=max_states, max_events=max_events,
                               max_obs=max_obs)
        # one analysis per route: the routes never share a structure
        hyper, oracle = HyperAnalysis(fsa), OracleAnalysis(fsa)
        for kind in PROPERTIES:
            # weak detectability takes the hyper engine's exact route, the
            # negated forall/exists walk on its template, which never runs
            # the oracle's observer check
            hv = hyper.verify(kind)
            ov = oracle.check(kind)
            tallies[kind]["true" if hv.holds else "false"] += 1
            if hv.holds != ov.holds:
                disagreements.append({"index": index, "property": kind,
                                      "hyper": hv.holds, "oracle": ov.holds})
            for side in (hv, ov):
                if side.replayable and not hyper.replay(kind, side):
                    witness_failures.append({"index": index, "property": kind,
                                             "engine": side.engine,
                                             "holds": side.holds})
    return {
        "seed": seed,
        "count": count,
        "max_states": max_states,
        "max_events": max_events,
        "max_obs": max_obs,
        "properties": list(PROPERTIES),
        "tallies": tallies,
        "disagreements": disagreements,
        "witness_failures": witness_failures,
    }
