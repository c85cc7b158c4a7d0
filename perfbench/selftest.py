"""Self-test of the benchmark: each workload at a tiny size, traced and
untraced, then three injected faults that must each count as one failed case.

    python3 perfbench/selftest.py

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_program()

import corpora  # noqa: E402
from hyperdes import hyper  # noqa: E402

KEPT_FAILURES = {"fuzz-stream": 0, "rings": 1, "mid-random": 0}


def tiny(workload, trace=0):
    result, _ = run.measure(workload, seed=1, seconds=0, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return json.loads(json.dumps(result))


def injected(workload, module, name, make_fault):
    """Run a tiny workload with module.name replaced by make_fault(original)."""
    original = getattr(module, name)
    setattr(module, name, make_fault(original))
    try:
        return tiny(workload)
    finally:
        setattr(module, name, original)


def flip_once(verify):
    """The first conclusive current-state-opacity verdict comes out negated;
    the oracle decides that property exactly, so the routes disagree."""
    state = {"done": False}

    def flipped(fsa, kind, *args, **kwargs):
        v = verify(fsa, kind, *args, **kwargs)
        if not state["done"] and kind == "current-state-opacity" and v.holds in (True, False):
            state["done"] = True
            v.holds = not v.holds
        return v
    return flipped


def reject_once(replay):
    state = {"done": False}

    def rejecting(*args, **kwargs):
        ok = replay(*args, **kwargs)
        if not state["done"]:
            state["done"] = True
            return False
        return ok
    return rejecting


def misderive(ring_answer):
    def wrong(family, n, kind):
        answer = ring_answer(family, n, kind)
        return not answer if (family, kind) == ("labelled", "strong-detectability") else answer
    return wrong


def main():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        base = tiny(workload)
        assert base["correct"], (workload, base)
        assert set(base["metrics"]) == {m["name"] for m in declared["end_to_end"]}, base
        rounds = base["attempted"] // len(corpora.build(workload, 1, run.ROOT, tiny=True))
        assert base["failed"] == KEPT_FAILURES[workload] * rounds, (workload, base)
        traced = tiny(workload, trace=1)
        assert traced["correct"], (workload, traced)
        assert set(traced["metrics"]) == {m["name"] for m in declared["per_layer"]}, traced
        print(f"ok   {workload}: tiny run, {base['attempted']} cases, {base['failed']} failed; "
              f"plain and traced runs report the metrics of BENCHMARK.json")

    for label, workload, module, name, fault in (
            ("flipped verdict", "fuzz-stream", hyper, "verify", flip_once),
            ("witness that does not replay", "mid-random", hyper, "replay_witness", reject_once),
            ("wrong ring answer", "rings", corpora, "ring_answer", misderive)):
        base = tiny(workload)
        hurt = injected(workload, module, name, fault)
        assert hurt["failed"] == base["failed"] + 1, (label, base, hurt)
        assert hurt["correct"] is False, (label, hurt)
        print(f"ok   {label}: counted as one failed case on {workload}")


if __name__ == "__main__":
    main()
