"""Tests for the definition-level reference checks."""

import itertools
import random
import time

import pytest

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
from hyperdes.errors import MissingAnnotation
from hyperdes.formula import PROPERTIES
from hyperdes.gen import random_valid_fsa
from hyperdes.graph import bfs
from hyperdes.kripke import KNode, Lasso
from hyperdes.fuzz import differential_fuzz
from hyperdes.oracle import OracleAnalysis, _verifier, oracle_check
from hyperdes.hyper import replay_witness, verify
from support import (
    comparison_machines,
    enumerate_runs,
    horizon_unfolding,
    indicator_states,
    infinite_step_opacity_reference,
    initial_state_opacity_reference,
    needs_split_machine,
    observable_step,
    observer_current_state_opacity,
    observer_strong_detectability,
    PAIR_KINDS,
    o1_ring,
    pair_graph_verdict,
    pair_sets,
    pumping_horizon,
    refined_predictability,
    track_sets,
)
from tests.conftest import make_dying_branch, make_twin_branch


def all_obs_strings(fsa, max_len):
    """Every observation string the machine can produce, by brute force."""
    out = [()]
    frontier = [((), current_state_estimate(fsa, ()))]
    for _ in range(max_len):
        nxt = []
        for alpha, est in frontier:
            for o in fsa.observations:
                step = observable_step(fsa, est, o)
                if step:
                    word = alpha + (o,)
                    out.append(word)
                    nxt.append((word, step))
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# fixture verdicts


def test_oracle_fixture_verdicts(g_diag, g_det, g_opa):
    """The reference checks agree with the frozen fixture expectations."""
    expected = [
        (g_diag, "diagnosability", True),
        (g_diag, "predictability", False),
        (g_det, "i-detectability", True),
        (g_det, "strong-detectability", True),
        (g_det, "weak-detectability", True),
        (g_det, "delayed-detectability", False),
        (g_opa, "initial-state-opacity", True),
        (g_opa, "current-state-opacity", True),
        (g_opa, "infinite-step-opacity", False),
    ]
    for fsa, kind, holds in expected:
        verdict = oracle_check(fsa, kind)
        assert verdict.holds is holds, kind
        assert verdict.property == kind


def test_twin_branch_machine_fails_current_state_properties():
    """Two observation-identical branches defeat diagnosis and every
    current-state detection notion, while the secret stays hidden and the
    single initial state keeps its own estimate trivially sharp."""
    fsa = make_twin_branch()
    assert oracle_check(fsa, "diagnosability").holds is False
    assert oracle_check(fsa, "strong-detectability").holds is False
    assert oracle_check(fsa, "weak-detectability").holds is False
    assert oracle_check(fsa, "delayed-detectability").holds is False
    assert oracle_check(fsa, "predictability").holds is False
    assert oracle_check(fsa, "i-detectability").holds is True
    assert oracle_check(fsa, "current-state-opacity").holds is True
    assert oracle_check(fsa, "infinite-step-opacity").holds is True
    assert oracle_check(fsa, "initial-state-opacity").holds is True


# ---------------------------------------------------------------------------
# verdicts


def test_default_bound_is_conclusive(g_diag):
    verdict = oracle_check(g_diag, "diagnosability")
    assert verdict.holds is True
    assert verdict.details is None


def declared_fault_free(fsa):
    """The machine with its fault annotation declared and empty."""
    return Fsa(states=fsa.states, events=fsa.events, transitions=fsa.transitions,
               initial=fsa.initial, mask=fsa.mask, fault_events=[],
               secret_states=fsa.secret_states, observations=fsa.observations)


def test_declared_empty_fault_events_are_decided_on_both_routes():
    """A machine that declares its fault events, and none, never faults:
    both routes decide that diagnosability and predictability hold, as they
    decide an empty secret set, instead of refusing the machine."""
    rng = random.Random(5)
    for index in range(300):
        fsa = declared_fault_free(random_valid_fsa(rng))
        for kind in ("diagnosability", "predictability"):
            assert verify(fsa, kind).holds is True, (index, kind)
            assert oracle_check(fsa, kind).holds is True, (index, kind)


def test_oracle_verdicts_carry_their_seconds(g_diag, g_det):
    """Each route times its own verdicts: an oracle verdict, from
    oracle_check or a held OracleAnalysis, carries a non-negative float."""
    oracle = OracleAnalysis(g_det)
    for verdict in (oracle_check(g_diag, "diagnosability"),
                    oracle.check("weak-detectability"), oracle.check("i-detectability")):
        assert isinstance(verdict.seconds, float) and verdict.seconds >= 0.0


# ---------------------------------------------------------------------------
# exact pair checks against the horizon unfoldings and the pair graph


def _horizon_probe(fsa, kind):
    """The unfolding run to the pumping horizon of the machine it unfolds:
    the refined machine for diagnosability."""
    machine = refine_fault_partition(fsa)[0] if kind == "diagnosability" else fsa
    return horizon_unfolding(fsa, kind, pumping_horizon(machine))


def test_exact_checks_agree_with_the_horizon_unfolding(g_diag, g_det):
    """On the fixtures, the twin and dying branches and 60 seeded machines of
    up to eight states, the default exact check and the unfolding to the
    pumping horizon give the same verdict, for both answers."""
    rng = random.Random(20261018)
    machines = ([g_diag, g_det, make_twin_branch(), make_dying_branch()]
                + [random_valid_fsa(rng, max_states=8) for _ in range(60)])
    seen = {kind: set() for kind in PAIR_KINDS}
    for i, fsa in enumerate(machines):
        for kind in PAIR_KINDS:
            if kind == "diagnosability" and fsa.fault_events is None:
                continue
            exact = oracle_check(fsa, kind)
            probe = _horizon_probe(fsa, kind)
            assert (exact.mode, exact.bound) == ("exact", None)
            assert probe.mode == "bounded"
            assert exact.holds == probe.holds, (i, kind)
            assert exact.details == probe.details, (i, kind)
            seen[kind].add(exact.holds)
    assert all(answers == {True, False} for answers in seen.values()), seen


def test_exact_checks_decide_the_o1_ring_quickly():
    """On the ring whose steps all show o1 the verifier has n² pairs, where
    the unfolding ran to n²+1 observations: each check decides in under
    0.05 s at 30 states and 0.1 s at 60 (best of three runs, so that a
    busy host does not decide the outcome)."""
    expected = {"diagnosability": False, "i-detectability": True,
                "delayed-detectability": False}
    for n, limit in ((30, 0.05), (60, 0.1)):
        fsa = validate_fsa(o1_ring(n))
        for kind in PAIR_KINDS:
            times = []
            for _ in range(3):
                started = time.perf_counter()
                verdict = oracle_check(fsa, kind)
                times.append(time.perf_counter() - started)
                assert verdict.holds is expected[kind], (n, kind)
            assert min(times) < limit, (n, kind, times)


def test_verifier_lists_moves_in_declaration_order():
    """A pair's moves come as the verifier is defined, in declaration
    order: side 1's unobservable moves, then side 2's, then the joint moves
    on equal observations, in observation order and in event order of each
    side; so the pair checks do the same work under every string-hash
    seed.  Checked on every pair of states of the comparison machines."""
    for index, fsa in enumerate(comparison_machines()):
        succ = _verifier(fsa)
        for x in fsa.states:
            for y in fsa.states:
                expected = [(a, y) for e, a in fsa.out_edges(x) if fsa.mask[e] is None]
                expected += [(x, b) for e, b in fsa.out_edges(y) if fsa.mask[e] is None]
                expected += [(a, b) for o in fsa.observations
                             for e, a in fsa.out_edges(x) if fsa.mask[e] == o
                             for d, b in fsa.out_edges(y) if fsa.mask[d] == o]
                assert succ((x, y)) == expected, (index, x, y)


def test_verifier_checks_agree_with_the_pair_graph():
    """The verifier's emptiness searches give the verdicts and details of
    the closure pair graph's cycle checks (tests/support.pair_graph_verdict)
    on the comparison machines and on 300 seeded machines of up to twelve
    states, for both answers."""
    rng = random.Random(5)
    machines = list(comparison_machines()) + [random_valid_fsa(rng, max_states=12)
                                              for _ in range(300)]
    seen = {kind: set() for kind in PAIR_KINDS}
    for i, fsa in enumerate(machines):
        for kind in PAIR_KINDS:
            exact = oracle_check(fsa, kind)
            reference = pair_graph_verdict(fsa, kind)
            assert (exact.holds, exact.details) == (reference.holds, reference.details), (i, kind)
            seen[kind].add(exact.holds)
    assert all(answers == {True, False} for answers in seen.values()), seen


# ---------------------------------------------------------------------------
# direct checks against the refined machine and the observer


def test_direct_checks_agree_with_the_refined_and_observer_references():
    """Diagnosability and predictability, decided on the machine itself,
    give the verdicts (and diagnosability's details) of their references on
    the fault-refined machine: the closure pair graph of
    tests/support.pair_graph_verdict and the estimate search of
    refined_predictability.  Strong detectability and current-state
    opacity, decided without the observer, give the verdicts of their
    observer references.  Checked on the comparison machines, on 2,000
    seeded machines of up to six states and on 300 of up to twelve, for
    both answers of each property."""
    rng7, rng5 = random.Random(7), random.Random(5)
    machines = (list(comparison_machines())
                + [random_valid_fsa(rng7, max_states=6) for _ in range(2000)]
                + [random_valid_fsa(rng5, max_states=12) for _ in range(300)])
    references = {
        "diagnosability": lambda fsa: pair_graph_verdict(fsa, "diagnosability"),
        "predictability": refined_predictability,
        "strong-detectability": observer_strong_detectability,
        "current-state-opacity": observer_current_state_opacity,
    }
    seen = {kind: set() for kind in references}
    for i, fsa in enumerate(machines):
        for kind, reference in references.items():
            exact = oracle_check(fsa, kind)
            expected = reference(fsa)
            if kind == "diagnosability":
                assert (exact.holds, exact.details) == (expected.holds, expected.details), (i, kind)
            else:
                assert exact.holds is expected, (i, kind)
            seen[kind].add(exact.holds)
    assert all(answers == {True, False} for answers in seen.values()), seen


def test_indicator_states_frozen(g_diag):
    refined, part = refine_fault_partition(g_diag)
    assert indicator_states(refined, part) == {"1"}


def test_indicator_states_match_run_enumeration(g_diag):
    """A normal state is an indicator exactly when every run of |X|+1 steps
    from it ends in a fault state."""
    for base in (g_diag, needs_split_machine()):
        refined, part = refine_fault_partition(base)
        depth = len(refined.states) + 1
        expected = frozenset(
            x for x in part.normal_states
            if all(end in part.fault_states
                   for _, end in enumerate_runs(refined, x, depth)))
        assert indicator_states(refined, part) == expected



# ---------------------------------------------------------------------------
# definitional cross-checks by exhaustive enumeration


def test_predictability_violation_matches_definition(g_diag):
    """Some run reaches the fault boundary although no prefix estimate ever
    fell inside the indicator region.  Estimates count their normal part
    only: strings that already contain the fault carry no false-alarm
    risk."""
    refined, part = refine_fault_partition(g_diag)
    boundary = boundary_states(refined, part)
    indicator = indicator_states(refined, part)

    def runs(max_len):
        stack = [(x0, ()) for x0 in refined.sort_states(refined.initial)]
        while stack:
            x, word = stack.pop()
            yield x, word
            if len(word) < max_len:
                for e, y in refined.out_edges(x):
                    stack.append((y, word + (e,)))

    violated = False
    for x, word in runs(6):
        if x not in boundary:
            continue
        prefixes_pass = False
        for cut in range(len(word) + 1):
            obs = tuple(refined.mask[e] for e in word[:cut]
                        if refined.mask[e] is not None)
            est = current_state_estimate(refined, obs) & part.normal_states
            if est <= indicator:
                prefixes_pass = True
                break
        if not prefixes_pass:
            violated = True
            break
    assert violated
    assert oracle_check(g_diag, "predictability").holds is False


def test_predictability_alarm_ignores_already_faulted_strings():
    """An immediate unobservable fault puts a faulted state into every
    estimate.  Strings that already contain the fault carry no false-alarm
    risk, so they must not block the alarm for the normal behavior, which is
    fully indicated from the very first instant here."""
    fsa = validate_fsa(Fsa(
        states=["0", "1"],
        events=["f", "b"],
        transitions={("0", "f"): "1", ("1", "b"): "0"},
        initial=["0"],
        mask={"f": None, "b": "o1"},
        observations=["o1"],
        fault_events=["f"],
    ))
    assert oracle_check(fsa, "predictability").holds is True
    assert verify(fsa, "predictability").holds is True


def test_current_state_opacity_matches_definition(g_opa):
    """No observation string up to a generous length exposes the secret."""
    for alpha in all_obs_strings(g_opa, 6):
        est = current_state_estimate(g_opa, alpha)
        assert not est <= g_opa.secret_states
    assert oracle_check(g_opa, "current-state-opacity").holds is True


def test_infinite_step_opacity_violation_matches_definition(g_opa):
    """The o1 then o4 observation pins the intermediate state inside the
    secret, exactly as the oracle claims."""
    est = delayed_state_estimate(g_opa, ("o1",), ("o4",))
    assert est and est <= g_opa.secret_states
    assert oracle_check(g_opa, "infinite-step-opacity").holds is False


def test_initial_state_opacity_matches_definition(g_opa):
    for alpha in all_obs_strings(g_opa, 6):
        est = initial_state_estimate(g_opa, alpha)
        assert not (est and est <= g_opa.secret_states)
    assert oracle_check(g_opa, "initial-state-opacity").holds is True


def test_i_detectability_matches_definition(g_det):
    """Every observation string of length two or more pins the initial
    state, matching the positive verdict."""
    for alpha in all_obs_strings(g_det, 6):
        if len(alpha) >= 2:
            assert len(initial_state_estimate(g_det, alpha)) == 1
    assert oracle_check(g_det, "i-detectability").holds is True


def test_delayed_detectability_violation_matches_definition(g_det):
    """The anchor after o1 stays ambiguous under arbitrarily long suffixes."""
    for extra in range(1, 6):
        beta = ("o2",) + ("o3",) * extra
        assert delayed_state_estimate(g_det, ("o1",), beta) == frozenset(["1", "4"])
    assert oracle_check(g_det, "delayed-detectability").holds is False


# ---------------------------------------------------------------------------
# weak detectability witness lifting


def exposure_walk(fsa, starts):
    """Every (open, secret) node the joint step reaches from `starts`."""
    moves = state_moves(fsa)
    return set(bfs(starts, lambda node: [t for _, t in joint_moves(fsa, node, moves)]))


def split_by_secret(anchored, secret):
    """The (open, secret) node of (anchor, current states) items: the
    current states of the non-secret anchors, and those of the secret
    ones."""
    return (frozenset(c for a, cur in anchored if a not in secret for c in cur),
            frozenset(c for a, cur in anchored if a in secret for c in cur))


def test_exposure_walk_is_a_quotient_of_the_track_and_pair_searches():
    """Keeping, of each track set (pair set), the current states of its
    non-secret and of its secret initial states (anchors) maps the sets the
    search reaches onto the nodes the exposure walk reaches.  So the oracle
    decides both opacity properties as the searches do, and its walk has no
    more nodes than they have sets."""
    for index, fsa in enumerate(comparison_machines()):
        secret = fsa.secret_states
        tracks = set(track_sets(fsa))
        walk = exposure_walk(fsa, [(unobservable_reach(fsa, fsa.initial - secret),
                                    unobservable_reach(fsa, fsa.initial & secret))])
        assert {split_by_secret(t, secret) for t in tracks} == walk, index
        assert len(walk) <= len(tracks)
        assert (oracle_check(fsa, "initial-state-opacity").holds
                is initial_state_opacity_reference(fsa)), index

        pairs = set(pair_sets(fsa))
        walk = exposure_walk(fsa, [(est - secret, est & secret)
                                   for est in build_observer(fsa).nodes])
        assert {split_by_secret([(a, [c]) for a, c in p], secret) for p in pairs} == walk, index
        assert len(walk) <= len(pairs)
        assert (oracle_check(fsa, "infinite-step-opacity").holds
                is infinite_step_opacity_reference(fsa)), index


def test_weak_witness_is_a_replayable_trace(g_det):
    verdict = oracle_check(g_det, "weak-detectability")
    assert verdict.holds is True
    assert replay_witness(g_det, "weak-detectability", verdict) is True


def test_weak_witness_estimate_trace_is_eventually_singleton(g_det):
    """Along the witness observations the estimate reaches and keeps size
    one, which is the defining condition.  The witness pauses once, and
    the steps into the stalling twin and back from it observe nothing."""
    verdict = oracle_check(g_det, "weak-detectability")
    pi1, _ = verdict.witness
    for laps in range(1, 4):
        nodes = list(pi1.stem) + list(pi1.cycle) * laps
        obs = tuple(q.obs for p, q in zip(nodes, nodes[1:]) if not (p.copy or q.copy))
        assert len(current_state_estimate(g_det, obs)) == 1


def test_weak_detectability_false_has_no_witness():
    verdict = oracle_check(make_twin_branch(), "weak-detectability")
    assert verdict.holds is False
    assert verdict.witness is None


# ---------------------------------------------------------------------------
# dispatch and annotations


def test_oracle_rejects_unknown_property(g_det):
    with pytest.raises(ValueError):
        oracle_check(g_det, "detectability")


def test_oracle_requires_annotations(g_det, g_diag):
    with pytest.raises(MissingAnnotation):
        oracle_check(g_det, "diagnosability")
    with pytest.raises(MissingAnnotation):
        oracle_check(g_diag, "initial-state-opacity")


# ---------------------------------------------------------------------------
# differential fuzzing


def test_differential_fuzz_smoke():
    """A short random campaign finds no disagreement between the engines and
    no witness that fails to replay."""
    report = differential_fuzz(seed=20260823, count=25)
    assert report["disagreements"] == []
    assert report["witness_failures"] == []
    total = sum(sum(t.values()) for t in report["tallies"].values())
    assert total == 25 * 9
    assert report["properties"] == list(report["tallies"]) == list(PROPERTIES)


def test_differential_fuzz_is_deterministic():
    """Identical seeds give byte-identical reports."""
    a = differential_fuzz(seed=11, count=6)
    b = differential_fuzz(seed=11, count=6)
    assert a == b

