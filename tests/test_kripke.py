"""Kripke encodings: exact structures for the fixtures, path/run agreement.

The node and edge sets asserted here were derived by hand from the edge rule
(target state reachable from source state by one observable event padded with
unobservable ones) and are frozen as regression anchors.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hyperdes.des import current_state_estimate, cyclic_states, validate_fsa
from hyperdes.errors import AlreadyModified
from hyperdes.gen import random_valid_fsa
from hyperdes.graph import cyclic_sccs
import hyperdes.hyper
from hyperdes.hyper import HyperAnalysis, _original_succ, verify
from support import (
    StringNotInLanguage,
    comparison_machines,
    compatible_runs,
    eager_kripke,
    eager_modified_kripke,
    fault_ring,
    per_observation_kripke_succ,
    reversed_observations,
    seeded_machines,
)
from conftest import make_g_opa
from hyperdes.kripke import (
    KNode,
    Lasso,
    build_kripke,
    build_modified_kripke,
    export_dot,
)


def n(state, obs=None, copy=False):
    return KNode(state, obs, copy)


def edge_set(k):
    return {(q, t) for q in k.nodes for t in k.succ[q]}


def test_g_diag_kripke_exact(g_diag):
    k = build_kripke(g_diag)
    assert set(k.initial) == {n("0"), n("3")}
    assert set(k.nodes) == {
        n("0"), n("3"),
        n("1", "o1"), n("2", "o1"), n("4", "o1"), n("5", "o1"),
        n("2", "o2"), n("5", "o3"),
    }
    assert edge_set(k) == {
        (n("0"), n("1", "o1")), (n("0"), n("2", "o1")),
        (n("0"), n("4", "o1")), (n("0"), n("5", "o1")),
        (n("3"), n("1", "o1")), (n("3"), n("2", "o1")),
        (n("3"), n("4", "o1")), (n("3"), n("5", "o1")),
        (n("1", "o1"), n("2", "o2")),
        (n("2", "o1"), n("2", "o2")),
        (n("2", "o2"), n("2", "o2")),
        (n("4", "o1"), n("2", "o2")), (n("4", "o1"), n("5", "o3")),
        (n("5", "o1"), n("5", "o3")),
        (n("5", "o3"), n("5", "o3")),
    }
    assert k.label[n("0")] == {"x:0"}
    assert k.label[n("4", "o1")] == {"x:4", "o:o1"}


def test_g_det_kripke_exact(g_det):
    k = build_kripke(g_det)
    assert set(k.initial) == {n("0"), n("3")}
    assert edge_set(k) == {
        (n("0"), n("1", "o1")), (n("0"), n("4", "o1")),
        (n("3"), n("4", "o3")),
        (n("1", "o1"), n("2", "o2")),
        (n("4", "o1"), n("5", "o1")), (n("4", "o1"), n("2", "o2")),
        (n("4", "o3"), n("5", "o1")), (n("4", "o3"), n("2", "o2")),
        (n("2", "o2"), n("2", "o3")),
        (n("2", "o3"), n("2", "o3")),
        (n("5", "o1"), n("5", "o1")),
    }


def test_g_opa_kripke_exact(g_opa):
    k = build_kripke(g_opa)
    assert set(k.nodes) == {
        n("0"), n("3"),
        n("1", "o1"), n("4", "o1"),
        n("2", "o2"), n("5", "o4"),
        n("2", "o3"), n("5", "o3"),
    }
    assert edge_set(k) == {
        (n("0"), n("1", "o1")),
        (n("3"), n("4", "o1")),
        (n("1", "o1"), n("2", "o2")),
        (n("4", "o1"), n("2", "o2")), (n("4", "o1"), n("5", "o4")),
        (n("2", "o2"), n("2", "o3")),
        (n("2", "o3"), n("2", "o3")),
        (n("5", "o4"), n("5", "o3")),
        (n("5", "o3"), n("5", "o3")),
    }


def test_g_opa_modified_kripke(g_opa):
    k = build_kripke(g_opa)
    kt = build_modified_kripke(k)
    assert len(kt.nodes) == 2 * len(k.nodes)
    assert set(kt.initial) == set(k.initial)
    for q in k.nodes:
        twin = n(q.state, q.obs, copy=True)
        assert twin in kt.index
        assert kt.label[twin] == {f"x:{q.state}", "tau"}
        assert kt.succ[twin] == (q,)
        assert kt.succ[q] == tuple(k.succ[q]) + (twin,)
        assert "tau" not in kt.label[q]
    assert len(edge_set(kt)) == len(edge_set(k)) + 2 * len(k.nodes)


def same_structure(lazy, eager):
    """Assert that an on-demand structure holds what its eager reference
    does: node order, initial nodes, index, and the successors and label of
    every node, with nothing else expanded."""
    assert lazy.nodes == eager.nodes
    assert lazy.initial == eager.initial
    assert lazy.index == eager.index
    for q in eager.nodes:
        assert lazy.succ[q] == eager.succ[q], q
        assert lazy.label[q] == eager.label[q], q
    assert dict(lazy.succ) == eager.succ
    assert dict(lazy.label) == eager.label


def test_on_demand_structures_match_the_eager_builders():
    """The plain and modified structures, built on demand, hold exactly
    what the eager builders they replaced do, on the seeded machines and
    300 random machines of up to six states."""
    for fsa in comparison_machines():
        k = build_kripke(fsa)
        same_structure(k, eager_kripke(fsa))
        kt = build_modified_kripke(build_kripke(fsa))
        same_structure(kt, eager_modified_kripke(eager_kripke(fsa)))


def test_cyclic_states_are_the_states_of_the_cyclic_nodes():
    """des.cyclic_states, computed on automaton states, names exactly the
    states of the Kripke nodes on a cycle, on the comparison machines and
    300 random machines of up to twelve states; on some of them a reachable
    state lies on no cycle."""
    rng = random.Random(5)
    machines = [*comparison_machines(),
                *(random_valid_fsa(rng, max_states=12) for _ in range(300))]
    acyclic = 0
    for fsa in machines:
        k = build_kripke(fsa)
        nodes = frozenset(q.state for comp in cyclic_sccs(k.initial, k.succ.__getitem__)
                          for q in comp)
        assert cyclic_states(fsa) == nodes, fsa
        acyclic += nodes != {q.state for q in k.nodes}
    assert acyclic


def test_a_replay_expands_only_part_of_the_structure():
    """On a fresh analysis of the 360-state fault ring, replaying a witness
    looks up fewer nodes than the structure holds: the replay checks its
    lasso and walks its estimates, and never enumerates the nodes.  The
    predictability witness runs on the fault-refined machine, the
    infinite-step opacity witness on the structure with stalling twins;
    each lasso rounds the ring once."""
    fsa = validate_fsa(fault_ring(360))
    for kind in ("predictability", "infinite-step-opacity"):
        verdict = verify(fsa, kind)
        analysis = HyperAnalysis(fsa)
        assert analysis.replay(kind, verdict) is True, kind
        _, k = analysis._problem(kind)
        expanded = len(k.succ)
        assert expanded < len(k.nodes), (kind, expanded, len(k.nodes))


def test_repr_reports_what_is_expanded_and_expands_nothing(g_det):
    """repr, as in a failure message, names the nodes expanded so far and
    the edges they leave, and looks up no node itself."""
    k = build_kripke(g_det)
    kt = build_modified_kripke(k)
    assert repr(k) == "<Kripke: 0 nodes expanded, 0 edges>"
    assert repr(kt) == "<modified Kripke: 0 nodes expanded, 0 edges>"
    assert len(k.succ) == len(kt.succ) == 0
    q = k.initial[0]
    kt.succ[q]
    assert repr(kt) == (f"<modified Kripke: 1 nodes expanded, "
                        f"{len(k.succ[q]) + 1} edges>")
    assert repr(k) == f"<Kripke: 1 nodes expanded, {len(k.succ[q])} edges>"


def test_modifying_twice_is_rejected(g_opa):
    kt = build_modified_kripke(build_kripke(g_opa))
    with pytest.raises(AlreadyModified):
        build_modified_kripke(kt)


def test_initial_nodes_have_twins_too(g_diag):
    """Stalling must also be possible before the first observation."""
    kt = build_modified_kripke(build_kripke(g_diag))
    for q in kt.initial:
        assert n(q.state, None, copy=True) in kt.index


def kripke_obs_language(k, max_len):
    """Map observation strings to the automaton states of the nodes reached
    by paths from the initial nodes observing them."""
    out = {(): {q.state for q in k.initial}}
    frontier = {(): set(k.initial)}
    for _ in range(max_len):
        nxt = {}
        for alpha, qs in frontier.items():
            for q in qs:
                for t in k.succ[q]:
                    nxt.setdefault(alpha + (t.obs,), set()).add(t)
        for alpha, qs in nxt.items():
            out.setdefault(alpha, set()).update(q.state for q in qs)
        frontier = nxt
    return out


def test_kripke_paths_compute_current_estimates(g_diag, g_det, g_opa):
    """States reached by observation-labeled paths coincide with the
    current-state estimate of the observed string, both ways."""
    for fsa in (g_diag, g_det, g_opa):
        k = build_kripke(fsa)
        lang = kripke_obs_language(k, 4)
        for alpha, states in lang.items():
            assert frozenset(states) == current_state_estimate(fsa, alpha)
        every = [()]
        for _ in range(4):
            every = [a + (o,) for a in every for o in fsa.observations]
            for alpha in every:
                assert bool(current_state_estimate(fsa, alpha)) == (alpha in lang)


def test_kripke_successors_match_per_observation_reference(g_diag, g_det, g_opa):
    """Successors come in observation order, each observation's targets in
    state order, exactly as one observable_step per (state, observation)
    gives them; also when observations are declared out of first-appearance
    order."""
    cases = [g_diag, g_det, g_opa] + [reversed_observations(f) for f in (g_diag, g_det, g_opa)]
    for fsa in cases + list(seeded_machines(60)):
        k = build_kripke(fsa)
        assert k.succ == per_observation_kripke_succ(fsa, k.nodes), fsa.observations


def test_node_count_bound(g_diag, g_det, g_opa):
    for fsa in (g_diag, g_det, g_opa):
        k = build_kripke(fsa)
        assert len(k.nodes) <= len(fsa.states) * (len(fsa.observations) + 1)
        kt = build_modified_kripke(k)
        assert len(kt.nodes) == 2 * len(k.nodes)


def test_compatible_runs_frozen(g_diag):
    k = build_kripke(g_diag)
    runs = compatible_runs(g_diag, k, ("u1", "b", "u2", "f", "d", "d"), "0")
    assert len(runs) == 6
    assert {r[0] for r in runs} == {n("0"), n("3")}
    assert {r[1] for r in runs} == {n("4", "o1"), n("1", "o1"), n("2", "o1")}
    for r in runs:
        assert r[2] == n("2", "o2") and r[3] == n("2", "o2")
        for a, b in zip(r, r[1:]):
            assert b in k.succ[a]


def test_compatible_runs_cap(g_diag):
    k = build_kripke(g_diag)
    runs = compatible_runs(g_diag, k, ("u1", "b", "u2", "f", "d", "d"), "0",
                           max_runs=2)
    assert len(runs) == 2


def test_compatible_runs_rejects_non_strings(g_diag):
    k = build_kripke(g_diag)
    with pytest.raises(StringNotInLanguage):
        compatible_runs(g_diag, k, ("a", "a"), "0")
    with pytest.raises(StringNotInLanguage):
        compatible_runs(g_diag, k, ("a",), "5")


def random_string(fsa, rng, max_len):
    x = rng.choice(fsa.sort_states(fsa.initial))
    x0 = x
    s = []
    for _ in range(rng.randint(0, max_len)):
        out = fsa.out_edges(x)
        e, y = rng.choice(out)
        s.append(e)
        x = y
    return x0, tuple(s)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_random_compatible_runs_are_kripke_paths(seed):
    """Every execution of the automaton yields at least one path of the
    encoding, and each produced path really is one with matching
    observations."""
    rng = random.Random(seed)
    fsa = random_valid_fsa(rng)
    k = build_kripke(fsa)
    for _ in range(5):
        x0, s = random_string(fsa, rng, 6)
        expected_obs = tuple(fsa.mask[e] for e in s if fsa.observable(e))
        runs = compatible_runs(fsa, k, s, x0, max_runs=50)
        assert runs
        for r in runs:
            assert r[0] in k.initial
            assert tuple(q.obs for q in r[1:]) == expected_obs
            for a, b in zip(r, r[1:]):
                assert b in k.succ[a]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_random_kripke_agrees_with_estimates(seed):
    fsa = random_valid_fsa(random.Random(seed))
    k = build_kripke(fsa)
    assert len(k.nodes) <= len(fsa.states) * (len(fsa.observations) + 1)
    for alpha, states in kripke_obs_language(k, 3).items():
        assert frozenset(states) == current_state_estimate(fsa, alpha)


def test_lasso_requires_cycle():
    with pytest.raises(ValueError):
        Lasso(stem=(), cycle=())


def test_export_dot_deterministic(g_opa):
    k = build_kripke(g_opa)
    text = export_dot(k)
    assert text == export_dot(build_kripke(g_opa))
    assert '"(0,eps)"' in text
    assert '"(2,o2)" -> "(2,o3)";' in text
    kt = build_modified_kripke(k)
    assert '"(2^c,o2^c)"' in export_dot(kt)


@pytest.mark.parametrize("machine, kind", [
    (lambda: fault_ring(48), "diagnosability"),
    (make_g_opa, "current-state-opacity"),
])
def test_each_state_is_stepped_once(monkeypatch, machine, kind):
    """The stepper handed to build_kripke is asked for the step of each
    state of the machine at most once in a verify, however many of its
    nodes (one per observation entering it, and its twins) the search
    expands: a node's successors are read off its state's entry."""
    steps = Counter()

    def counting_build(fsa, moves):
        def counted(states):
            if len(states) == 1:
                steps[fsa, *states] += 1
            return moves(states)
        return build_kripke(fsa, counted)

    monkeypatch.setattr(hyperdes.hyper, "build_kripke", counting_build)
    analysis = HyperAnalysis(machine())
    analysis.verify(kind)
    targets = {target for target, _ in steps}
    assert len(targets) == 1
    assert len(steps) <= len(targets.pop().states)
    assert set(steps.values()) == {1}
    # the search expanded more nodes than states, so a step per node fails
    _, k = analysis._problem(kind)
    assert len(_original_succ(k)) > len(steps)


def test_original_successors_come_from_the_plain_structure():
    """The forall/exists engine reads an original node's successors, twins
    left out, off the plain structure the modified view keeps."""
    k = build_kripke(make_g_opa())
    kt = build_modified_kripke(k)
    assert kt.plain is k and k.plain is None
    assert _original_succ(kt) is k.succ and _original_succ(k) is k.succ
    for q in kt.nodes:
        if not q.copy:
            assert kt.succ[q] == k.succ[q] + (q._replace(copy=True),)
