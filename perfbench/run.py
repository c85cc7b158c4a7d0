"""Benchmark of hyperdes verdicts: throughput, latency and per-layer cost.

    python3 perfbench/run.py --workload fuzz-stream --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  The workload's cases are built (the set-up, repeated and timed),
then whole rounds over all cases run until `--seconds` have passed.  Every
case is checked: hyper and oracle verdicts agree where both are conclusive,
witnesses replay, ring and fixture verdicts match their expected answers,
and every verdict's JSON validates against `models/verdict.schema.json`
(after the timed rounds).  With `--trace 0` the end-to-end metrics are
printed, with `--trace 1` the per-layer metrics of traced rounds and the
tracing overhead.  Times are brought to a reference host speed (see
hostspeed.py).  The last line of standard output is one JSON object.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("fuzz-stream", "rings", "mid-random")
SETUP_REPEATS = 5
MIN_ROUNDS = 3
TAIL_LADDER = (75, 80, 90, 95, 99, 99.5, 99.9)


def import_program():
    if not (SRC / "hyperdes" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hyperdes sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import hyperdes
    if Path(hyperdes.__file__).resolve().parent != SRC / "hyperdes":
        sys.exit(f"perfbench: imported hyperdes from {hyperdes.__file__}, not {SRC}")


def tail_percentile(n):
    """Highest percentile of the ladder with at least ten of n samples
    beyond it; the median below forty samples."""
    return max((p for p in TAIL_LADDER if n >= 40 and n * (100 - p) / 100 >= 10),
               default=50)


def percentile(samples, p):
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))   # nearest rank
    return ordered[int(rank) - 1]


def has_witness(verdict):
    return verdict.witness is not None or bool(verdict.details and
                                               verdict.details.get("pump_cycle"))


class Round:
    """Timings, counts and findings of one pass over the cases."""

    def __init__(self):
        # route -> case index -> [(midpoint, seconds)]; scaled by finish()
        self.spans = {"hyper": {}, "oracle": {}, "replay": {}}
        self.times = {}         # route -> case index -> seconds at reference speed
        self.replays = 0
        self.decided = 0
        self.docs = []          # (case index, verdict JSON)
        self.failed = {}        # case index -> reason
        self.wrong = set()      # case indices with a wrong output
        self.start = self.end = 0.0
        self.probing = 0.0      # seconds spent in host-speed probes
        self.wall = 0.0

    def timed(self, route, i, call):
        start = perf_counter()
        result = call()
        end = perf_counter()
        self.spans[route].setdefault(i, []).append(((start + end) / 2, end - start))
        return result

    def finish(self, speed):
        """Scale each timed call by the host speed around it, and the rest
        of the round (checks, serialization) by the round's median speed."""
        self.times = {route: {i: sum(d * speed.scale(t) for t, d in spans)
                              for i, spans in by_case.items()}
                      for route, by_case in self.spans.items()}
        timed = sum(d for by_case in self.spans.values()
                    for spans in by_case.values() for _, d in spans)
        rest = self.end - self.start - self.probing - timed
        self.wall = rest * speed.scale_between(self.start, self.end) \
            + sum(t for by_case in self.times.values() for t in by_case.values())
        self.spans = None


def run_case(i, case, rnd):
    from hyperdes import hyper, modelio, oracle

    def fail(reason, wrong):
        rnd.failed.setdefault(i, f"{case.model} {case.kind}: {reason}")
        if wrong:
            rnd.wrong.add(i)

    verdicts = {}
    try:
        verdicts["hyper"] = rnd.timed("hyper", i, lambda: hyper.verify(
            case.fsa, case.kind, wd_route="bounded"))
    except Exception as exc:
        fail(f"hyper route raised {type(exc).__name__}", False)
    if case.oracle:
        try:
            verdicts["oracle"] = rnd.timed("oracle", i, lambda: oracle.oracle_check(
                case.fsa, case.kind))
        except Exception as exc:
            fail(f"oracle raised {type(exc).__name__}", False)

    for route, v in verdicts.items():
        if v.holds is True or v.holds is False:
            rnd.decided += 1
        if case.expect is not None and v.holds != case.expect[route]:
            fail(f"{route} says {v.holds!r}, expected {case.expect[route]!r}", True)
        if has_witness(v):
            rnd.replays += 1
            try:
                replayed = rnd.timed("replay", i, lambda: hyper.replay_witness(
                    case.fsa, case.kind, v)) is True
            except Exception:
                replayed = False
            if not replayed:
                fail(f"{route} witness does not replay", True)
        rnd.docs.append((i, modelio.verdict_to_json(v)))
    conclusive = [v.holds for v in verdicts.values() if v.holds in (True, False)]
    if len(conclusive) == 2 and conclusive[0] != conclusive[1]:
        fail("hyper and oracle disagree", True)


def run_round(cases, speed, tracer=None, number=0):
    # what the benchmark keeps (cases, earlier rounds) leaves the collector's
    # view, so collections inside the round cost what the program's own
    # objects cost
    gc.collect()
    gc.freeze()
    speed.probe()
    rnd = Round()
    rnd.start = perf_counter()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = [number, i]
        run_case(i, case, rnd)
        rnd.probing += speed.maybe_probe()
    rnd.end = perf_counter()
    speed.probe()
    rnd.finish(speed)
    return rnd


def fold_docs(docs, number, rnd):
    """Move a round's verdict JSON into `docs`, which keeps each distinct
    document once with the (round, case) pairs that produced it."""
    for i, doc in rnd.docs:
        key = json.dumps({k: v for k, v in doc.items() if k != "seconds"},
                         sort_keys=True, default=str)
        docs.setdefault(key, (doc, []))[1].append((number, i))
    rnd.docs = []


def check_schema(docs, rounds):
    """Validate each distinct verdict JSON; a failure marks every case that
    produced it."""
    import jsonschema
    schema = json.loads((ROOT / "models" / "verdict.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    for doc, produced in docs.values():
        if not validator.is_valid(doc):
            for number, i in produced:
                rounds[number].failed.setdefault(i, f"case {i}: verdict JSON fails the schema")
                rounds[number].wrong.add(i)


def scaled(layers, scale):
    return {k: v * scale if k.endswith("_s") else v for k, v in layers.items()}


def setup(workload, seed, tiny, speed, tracer=None):
    """Build the cases SETUP_REPEATS times; returns the cases, each set-up's
    time and, when traced, each set-up's per-layer figures (both scaled)."""
    import corpora
    times, per_layer = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        speed.probe()
        start = perf_counter()
        cases = corpora.build(workload, seed, ROOT, tiny=tiny)
        end = perf_counter()
        speed.probe()
        scale = speed.scale_between(start, end)
        times.append((end - start) * scale)
        if tracer is not None:
            per_layer.append(scaled(tracer.take(), scale))
    return cases, times, per_layer


def measure(workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result object, report lines)."""
    import hostspeed
    import tracing
    speed = hostspeed.HostSpeed()
    for _ in range(hostspeed.NEAREST):
        speed.probe()
    tracer = tracing.Tracer() if trace else None
    origin = perf_counter()
    if tracer:
        tracer.install()
    try:
        cases, setup_times, setup_layers = setup(workload, seed, tiny, speed, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    min_rounds = 1 if tiny else MIN_ROUNDS

    # with tracing, odd rounds are traced and even ones give the overhead base
    rounds, traced, traced_layers, docs = [], [], [], {}
    start = perf_counter()
    while (perf_counter() - start < seconds or len(rounds) < min_rounds
           or (trace and len(rounds) < 2)):
        traced_turn = bool(trace) and len(rounds) % 2 == 1
        if traced_turn:
            tracer.install()
        try:
            rnd = run_round(cases, speed, tracer if traced_turn else None, len(rounds))
        finally:
            if traced_turn:
                tracer.uninstall()
        rounds.append(rnd)
        fold_docs(docs, len(rounds) - 1, rnd)
        if len(rounds) == 1:
            # the high-water mark of set-up and one round; later rounds only
            # add the benchmark's own records
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if traced_turn:
            traced.append(rnd)
            traced_layers.append(scaled(tracer.take(),
                                        speed.scale_between(rnd.start, rnd.end)))
    check_schema(docs, rounds)

    attempted = len(cases) * len(rounds)
    failed = sum(len(r.failed) for r in rounds)
    correct = not any(r.wrong for r in rounds)
    host_ms = statistics.median(speed.took) * 1e3
    lines = [f"workload {workload}: seed {seed}, {len(cases)} cases per round, "
             f"{len(rounds)} rounds, {attempted} attempted, {failed} failed",
             f"  host: the reference took {host_ms:.3f} ms (median of {len(speed.took)} "
             f"probes); times are scaled to {hostspeed.REFERENCE_S * 1e3:g} ms"]
    reasons = sorted({reason for r in rounds for reason in r.failed.values()})
    lines += [f"  failed: {reason}" for reason in reasons[:10]]

    if trace:
        metrics = {}
        for name in setup_layers[0]:
            value = (statistics.median(d[name] for d in setup_layers)
                     + statistics.median(d[name] for d in traced_layers))
            metrics[name] = {"value": value, "unit": "s" if name.endswith("_s") else "count"}
        plain = [r.wall for r in rounds if r not in traced]
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(r.wall for r in traced) / statistics.median(plain),
            "unit": "ratio"}
        metrics["host.reference_ms"] = {"value": host_ms, "unit": "ms"}
        tracer.write(BENCH / "out" / f"spans-{workload}-seed{seed}.json", origin)
        lines.append(f"  per layer: one set-up plus one round, medians of "
                     f"{len(setup_layers)} set-ups and {len(traced)} traced rounds")
    else:
        metrics = end_to_end(rounds, setup_times, peak_rss_mb, lines)
    for name, m in metrics.items():
        lines.append(f"  {name:28s} {m['value']:14.6f} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def end_to_end(rounds, setup_times, peak_rss_mb, lines):
    """Each verdict and replay is timed by its median over the rounds, and
    wall_s is the median round."""
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
    }
    typical = {}
    for route in rounds[0].times:
        cases = set().union(*(r.times[route] for r in rounds))
        typical[route] = [statistics.median(r.times[route][i] for r in rounds
                                            if i in r.times[route]) for i in cases]
    for route, count in (("hyper", len(typical["hyper"])), ("oracle", len(typical["oracle"])),
                         ("replay", rounds[0].replays)):
        name = "replays_per_s" if route == "replay" else f"{route}_verdicts_per_s"
        metrics[name] = (count / sum(typical[route]), "1/s")
    for route in ("hyper", "oracle"):
        samples = typical[route]
        tail = tail_percentile(len(samples))
        metrics[f"{route}_verdict_p50_ms"] = (statistics.median(samples) * 1e3, "ms")
        metrics[f"{route}_verdict_tail_ms"] = (percentile(samples, tail) * 1e3, "ms")
        lines.append(f"  {route} verdicts: {len(samples)} cases, tail is p{tail}")
    metrics["decided_verdicts"] = (statistics.median(r.decided for r in rounds), "count")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
