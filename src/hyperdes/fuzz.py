"""Differential fuzzing: the formula engines against the reference checks.

Random valid automata are decided on both routes; the report counts the
verdicts, and lists every conclusive disagreement and every witness that
does not replay.
"""

from __future__ import annotations

import random

from .formula import PROPERTIES
from .gen import random_valid_fsa
from .hyper import replay_witness, verify
from .oracle import oracle_check


def differential_fuzz(seed=0, count=100, max_states=5, max_events=4, max_obs=3,
                      properties=None, check_witnesses=True) -> dict:
    """Cross-validate the hyperproperty engines against the reference checks
    of the oracle on random valid automata; returns a deterministic report."""
    rng = random.Random(seed)
    kinds = list(properties) if properties else list(PROPERTIES)
    tallies = {kind: {"true": 0, "false": 0, "inconclusive": 0} for kind in kinds}
    disagreements = []
    witness_failures = []
    for index in range(count):
        fsa = random_valid_fsa(rng, max_states=max_states, max_events=max_events,
                               max_obs=max_obs)
        for kind in kinds:
            # only weak detectability reads wd_route: its default route is the
            # oracle's observer check itself, so the candidate-search engine
            # keeps the comparison two-sided
            hv = verify(fsa, kind, wd_route="bounded")
            ov = oracle_check(fsa, kind)
            key = {True: "true", False: "false"}.get(hv.holds, "inconclusive")
            tallies[kind][key] += 1
            both_conclusive = (hv.holds in (True, False)
                               and ov.holds in (True, False))
            if both_conclusive and hv.holds != ov.holds:
                disagreements.append({"index": index, "property": kind,
                                      "hyper": hv.holds, "oracle": ov.holds})
            if check_witnesses:
                for side in (hv, ov):
                    has_pump = bool(side.details and side.details.get("pump_cycle"))
                    if side.witness is None and not has_pump:
                        continue
                    if not replay_witness(fsa, kind, side):
                        witness_failures.append({"index": index, "property": kind,
                                                 "engine": side.engine,
                                                 "holds": side.holds})
    return {
        "seed": seed,
        "count": count,
        "max_states": max_states,
        "max_events": max_events,
        "max_obs": max_obs,
        "properties": kinds,
        "tallies": tallies,
        "disagreements": disagreements,
        "witness_failures": witness_failures,
    }
