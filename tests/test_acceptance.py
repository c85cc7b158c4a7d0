"""Acceptance gate: one test per release criterion.

Each test is a single pass/fail line under pytest -v.  The differential fuzz
report is computed once per module and shared between the criteria that
consume it; its machine stream is regenerated from the recorded seed where
per-instance checks are needed.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from support import (
    accepts_lasso,
    alternation_depth,
    assignment_letters,
    horizon_unfolding,
    random_body,
    random_lasso_labels,
)

from hyperdes.buchi import ltl_to_buchi
from hyperdes.des import delayed_state_estimate, refine_fault_partition
from hyperdes.formula import (
    OPACITY_PROPERTIES,
    PROPERTIES,
    eval_body,
    missing_annotation,
    property_formula,
)
from hyperdes.gen import random_valid_fsa
from hyperdes.hyper import HyperAnalysis, replay_witness, verify
from hyperdes.modelio import verdict_to_json
from hyperdes.oracle import OracleAnalysis, oracle_check
from hyperdes.kripke import (
    KNode,
    Lasso,
    build_kripke,
    build_modified_kripke,
    canonical_lasso,
)
from hyperdes.fuzz import differential_fuzz
from hyperdes.oracle import oracle_check

FUZZ_SEED = 20260823
FUZZ_COUNT = 500


@pytest.fixture(scope="module")
def fuzz_report():
    started = time.perf_counter()
    report = differential_fuzz(seed=FUZZ_SEED, count=FUZZ_COUNT)
    report["_elapsed"] = time.perf_counter() - started
    return report


def test_fixture_verdicts_match_pinned_expectations(g_diag, g_det, g_opa):
    """g_diag is diagnosable but not predictable, with the pinned witness
    pair; g_det is I-/strongly/weakly detectable but not delayed-detectable,
    with hindsight estimate {1, 4} after o1; g_opa is initial- and
    current-state opaque but not infinite-step opaque, on both engines.
    Every verdict arrives in under a second."""
    diag = verify(g_diag, "diagnosability")
    assert diag.holds is True and diag.seconds < 1.0

    pred = verify(g_diag, "predictability")
    assert pred.holds is False and pred.seconds < 1.0
    pi1, pi2 = pred.witness
    assert pi1 == canonical_lasso(Lasso(
        stem=(KNode("0", None, False), KNode("1", "o1", False)),
        cycle=(KNode("2", "o2", False),)))
    assert pi2 == canonical_lasso(Lasso(
        stem=(KNode("3", None, False), KNode("4", "o1", False)),
        cycle=(KNode("5", "o3", False),)))

    for kind in ("i-detectability", "strong-detectability", "weak-detectability"):
        verdict = verify(g_det, kind)
        assert verdict.holds is True and verdict.seconds < 1.0

    dd = verify(g_det, "delayed-detectability")
    assert dd.holds is False and dd.seconds < 1.0
    d1, d2 = dd.witness
    assert d1.stem[1].obs == d2.stem[1].obs == "o1"
    assert {d1.stem[1].state, d2.stem[1].state} == {"1", "4"}
    assert delayed_state_estimate(g_det, ("o1",), ("o2",)) == frozenset(["1", "4"])

    for kind, want in (("initial-state-opacity", True),
                       ("current-state-opacity", True),
                       ("infinite-step-opacity", False)):
        hyper = verify(g_opa, kind)
        oracle = oracle_check(g_opa, kind)
        assert hyper.holds is want and hyper.seconds < 1.0
        assert oracle.holds is want


def test_structure_encodings_match_pinned_graphs(g_diag, g_opa):
    """The plain encoding of g_diag has exactly the pinned initial nodes
    and edge relation; the stalling encoding of g_opa has exactly twice the
    nodes of its plain encoding, pairing every node with a tau-labeled
    copy."""
    k = build_kripke(g_diag)

    def n(state, obs=None):
        return KNode(state, obs, False)

    after_o1 = [n("1", "o1"), n("2", "o1"), n("4", "o1"), n("5", "o1")]
    assert set(k.initial) == {n("0"), n("3")}
    assert set(k.nodes) == {n("0"), n("3"), n("2", "o2"), n("5", "o3")} | set(after_o1)
    edges = {(a, b) for a in k.nodes for b in k.succ[a]}
    expected = ({(n("0"), q) for q in after_o1}
                | {(n("3"), q) for q in after_o1}
                | {(n("1", "o1"), n("2", "o2")),
                   (n("2", "o1"), n("2", "o2")),
                   (n("4", "o1"), n("2", "o2")), (n("4", "o1"), n("5", "o3")),
                   (n("5", "o1"), n("5", "o3")),
                   (n("2", "o2"), n("2", "o2")),
                   (n("5", "o3"), n("5", "o3"))})
    assert len(expected) == 15
    assert edges == expected

    plain = build_kripke(g_opa)
    modified = build_modified_kripke(plain)
    assert len(modified.nodes) == 2 * len(plain.nodes)
    copies = {q for q in modified.nodes if q.copy}
    assert len(copies) == len(plain.nodes)
    assert {KNode(q.state, q.obs, False) for q in copies} == set(plain.nodes)
    for q in modified.nodes:
        assert ("tau" in modified.label[q]) == q.copy


def test_differential_fuzz_engines_never_disagree(fuzz_report):
    """500 random valid machines, all nine properties: conclusive verdicts
    from the hyperproperty engines and the reference checks coincide, within
    the ten-minute budget, and the hyper engine decides weak detectability
    on every machine."""
    assert fuzz_report["count"] == FUZZ_COUNT
    assert sorted(fuzz_report["properties"]) == sorted(PROPERTIES)
    assert fuzz_report["disagreements"] == []
    assert fuzz_report["tallies"]["weak-detectability"]["inconclusive"] == 0
    assert fuzz_report["_elapsed"] <= 600.0


def test_buchi_translation_agrees_with_direct_evaluation():
    """200 seeded (body, lasso) pairs: automaton acceptance equals direct
    evaluation on every one."""
    rng = random.Random(FUZZ_SEED)
    for _ in range(200):
        body = random_body(rng)
        assign = {"p1": random_lasso_labels(rng),
                  "p2": random_lasso_labels(rng)}
        stem, cycle = assignment_letters(assign)
        assert accepts_lasso(ltl_to_buchi(body), stem, cycle) == eval_body(body, assign)


def test_witnesses_replay_against_the_definitions(fuzz_report, g_diag, g_det, g_opa):
    """The fuzz run replays every violation witness and every
    weak-detectability pass without a single failure, and the fixture
    verdicts replay directly."""
    assert fuzz_report["witness_failures"] == []
    for fsa, kind in ((g_diag, "predictability"),
                      (g_det, "delayed-detectability"),
                      (g_opa, "infinite-step-opacity")):
        verdict = verify(fsa, kind)
        assert verdict.holds is False
        assert replay_witness(fsa, kind, verdict) is True
    wd = verify(g_det, "weak-detectability")
    assert wd.holds is True
    assert replay_witness(g_det, "weak-detectability", wd) is True


def test_diagnosability_violations_show_within_pumping_horizon(fuzz_report):
    """Every machine of the fuzz stream that violates diagnosability already
    exhibits a violation with delay at most states-squared plus one."""
    rng = random.Random(fuzz_report["seed"])
    confirmed = 0
    for _ in range(fuzz_report["count"]):
        fsa = random_valid_fsa(rng, max_states=fuzz_report["max_states"],
                               max_events=fuzz_report["max_events"],
                               max_obs=fuzz_report["max_obs"])
        if oracle_check(fsa, "diagnosability").holds is not False:
            continue
        horizon = len(fsa.states) ** 2 + 1
        capped = horizon_unfolding(fsa, "diagnosability", horizon)
        # below the horizon of the refined machine the probe's finding is
        # reported, not trusted
        finding = (capped.details["bounded_finding"]
                   if capped.holds == "inconclusive" else capped.holds)
        assert finding is False
        confirmed += 1
    assert confirmed == fuzz_report["tallies"]["diagnosability"]["false"]


def test_alternation_depths_split_the_properties():
    """The quantifier prefixes sort the nine properties into five with no
    alternation and four with one."""
    from conftest import make_g_det, make_g_diag, make_g_opa
    g_diag, g_det, g_opa = make_g_diag(), make_g_det(), make_g_opa()
    refined, part = refine_fault_partition(g_diag)
    depths = {}
    for kind in PROPERTIES:
        if kind in ("diagnosability", "predictability"):
            formula, _ = property_formula(kind, refined, part)
        elif kind in OPACITY_PROPERTIES:
            formula, _ = property_formula(kind, g_opa)
        else:
            formula, _ = property_formula(kind, g_det)
        depths[kind] = alternation_depth(formula)
    assert sorted(k for k, d in depths.items() if d == 0) == sorted([
        "diagnosability", "predictability", "i-detectability",
        "strong-detectability", "delayed-detectability"])
    assert sorted(k for k, d in depths.items() if d == 1) == sorted([
        "weak-detectability", "initial-state-opacity",
        "current-state-opacity", "infinite-step-opacity"])


# SHA-256 of the verdict JSON, "seconds" left out, of all nine properties
# on both routes (hyper first, each route one analysis per machine) over
# the first 60 machines of the acceptance stream and then g_diag, g_det
# and g_opa, each fixture for the properties it is annotated for: it
# changes if any verdict, witness or detail does
VERDICT_STREAM_DIGEST = "3ff009fd0571068a2be29198a96b2a837f127926847a04593f18b90d3406c254"


def verdict_stream_digest():
    """The digest VERDICT_STREAM_DIGEST pins, computed afresh."""
    from conftest import make_g_det, make_g_diag, make_g_opa

    rng = random.Random(FUZZ_SEED)
    machines = [random_valid_fsa(rng) for _ in range(60)]
    machines += [make_g_diag(), make_g_det(), make_g_opa()]
    digest = hashlib.sha256()
    for fsa in machines:
        hyper, oracle = HyperAnalysis(fsa), OracleAnalysis(fsa)
        for kind in PROPERTIES:
            if missing_annotation(kind, fsa) is not None:
                continue
            for verdict in (hyper.verify(kind), oracle.check(kind)):
                doc = verdict_to_json(verdict)
                del doc["seconds"]
                digest.update(json.dumps(doc, sort_keys=True).encode("ascii") + b"\n")
    return digest.hexdigest()


def test_verdict_stream_digest_is_pinned():
    """Every verdict of the pinned stream, witnesses and details included,
    is the one the digest was computed from."""
    assert verdict_stream_digest() == VERDICT_STREAM_DIGEST


def test_verdict_stream_does_not_depend_on_the_hash_seed():
    """The pinned stream, run in two fresh processes under PYTHONHASHSEED=0
    and =1, gives the pinned digest in both: no verdict, witness or detail
    depends on the order in which a set of strings or nodes iterates, such
    as which member of an estimate a witness lift picks."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    script = "from test_acceptance import verdict_stream_digest; print(verdict_stream_digest())"
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", script], cwd=tests, env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs == [VERDICT_STREAM_DIGEST + "\n"] * 2
