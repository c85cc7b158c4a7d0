"""Tests for the hyperproperty checking engines."""

import random
import time

import pytest

from hyperdes.buchi import ltl_to_buchi
from hyperdes.des import Fsa, refine_fault_partition, validate_fsa
from hyperdes.errors import (
    MissingAnnotation,
    NotARun,
    NotSynchronousFragment,
    PrefixMismatch,
)
from hyperdes.formula import (
    Always,
    And,
    Atom,
    Eventually,
    OPACITY_PROPERTIES,
    HyperFormula,
    Implies,
    InSet,
    Next,
    Not,
    ObsEq,
    Or,
    StateEq,
    Until,
    eval_body,
    expand_macros,
    parse_formula,
    property_formula,
    property_template,
)
from hyperdes.gen import random_valid_fsa
from hyperdes.hyper import (
    Verdict,
    check_exists_forall_bounded,
    check_forall_exists_sync,
    check_forall_forall,
    forall_exists_refutes,
    match_sync_shape,
    replay_witness,
    verify,
    _decision_formula,
    _estimate_walk_accepts,
    _inner_universal_holds,
    _negated_body_automaton,
    _nested_dfs,
)
from hyperdes.kripke import (
    KNode,
    Lasso,
    build_kripke,
    build_modified_kripke,
    canonical_lasso,
)
from support import fault_ring, labelled_ring


def node(state, obs=None, copy=False):
    return KNode(state, obs, copy)


def lasso(stem, cycle):
    return Lasso(stem=tuple(stem), cycle=tuple(cycle))


# ---------------------------------------------------------------------------
# canonical lasso form


def test_canonical_lasso_absorbs_preplayed_cycle():
    """Stem entries that just repeat the cycle are folded into it."""
    raw = lasso([node("0"), node("1", "o1"), node("2", "o2"), node("2", "o2")],
                [node("2", "o2")])
    assert canonical_lasso(raw) == lasso([node("0"), node("1", "o1")],
                                         [node("2", "o2")])


def test_canonical_lasso_cuts_cycle_to_primitive_period():
    """A doubled cycle is reduced to its smallest period."""
    raw = lasso([node("0")], [node("1", "o1"), node("2", "o2"),
                              node("1", "o1"), node("2", "o2")])
    assert canonical_lasso(raw) == lasso([node("0")],
                                         [node("1", "o1"), node("2", "o2")])


def test_canonical_lasso_rotation_lands_on_same_form():
    """Two spellings of one ultimately periodic path agree after
    canonicalization."""
    a = lasso([node("0"), node("1", "o1")], [node("2", "o2"), node("3", "o3")])
    b = lasso([node("0"), node("1", "o1"), node("2", "o2")],
              [node("3", "o3"), node("2", "o2")])
    assert canonical_lasso(a) == canonical_lasso(b)


# ---------------------------------------------------------------------------
# nested DFS


def test_nested_dfs_finds_reachable_accepting_cycle():
    """A graph with one accepting loop yields that loop as the witness."""
    succ = {"a": ["b"], "b": ["c"], "c": ["c"]}
    hit = _nested_dfs(["a"], lambda s: succ[s], lambda s: s == "c")
    assert hit == (("a", "b"), ("c",))


def test_nested_dfs_ignores_non_accepting_cycles():
    """Cycles that never touch an accepting state are not reported."""
    succ = {"a": ["a", "b"], "b": ["a"]}
    assert _nested_dfs(["a"], lambda s: succ[s], lambda s: False) is None


def test_nested_dfs_accepting_state_without_cycle():
    """Reaching an accepting dead end is not an accepting cycle."""
    succ = {"a": ["b"], "b": []}
    assert _nested_dfs(["a"], lambda s: succ[s], lambda s: s == "b") is None


# ---------------------------------------------------------------------------
# forall/forall fixture verdicts


def test_diagnosability_fixture_holds(g_diag):
    """The fault in the fixture is always identified after two observations."""
    verdict = verify(g_diag, "diagnosability")
    assert verdict.holds is True
    assert verdict.mode == "exact"
    assert verdict.engine == "hyper-forall-forall"
    assert verdict.witness is None
    assert verdict.property == "diagnosability"


def test_predictability_fixture_violated_with_pinned_witness(g_diag):
    """The boundary state is reachable while the estimate still allows the
    fault-free branch; the reported traces are the canonical pair."""
    verdict = verify(g_diag, "predictability")
    assert verdict.holds is False
    pi1, pi2 = verdict.witness
    assert pi1 == lasso([node("0"), node("1", "o1")], [node("2", "o2")])
    assert pi2 == lasso([node("3"), node("4", "o1")], [node("5", "o3")])


def test_i_detectability_fixture_holds(g_det):
    verdict = verify(g_det, "i-detectability")
    assert verdict.holds is True
    assert verdict.mode == "exact"


def test_strong_detectability_fixture_holds(g_det):
    verdict = verify(g_det, "strong-detectability")
    assert verdict.holds is True
    assert verdict.mode == "exact"


def test_delayed_detectability_fixture_violated_with_pinned_witness(g_det):
    """Hindsight never separates states 1 and 4 under the o1 o2 o3... trace."""
    verdict = verify(g_det, "delayed-detectability")
    assert verdict.holds is False
    pi1, pi2 = verdict.witness
    assert pi1 == lasso([node("0"), node("1", "o1"), node("2", "o2")],
                        [node("2", "o3")])
    assert pi2 == lasso([node("0"), node("4", "o1"), node("2", "o2")],
                        [node("2", "o3")])


def _check_both_routes(fsa, template):
    """Decide a forall/forall formula with obseq/stateeq and the state sets
    decided on the pair letter and with them expanded over the alphabet; the
    verdicts must match and every violation pair must falsify the expanded
    body."""
    k = build_kripke(fsa)
    expanded = HyperFormula(template.prefix,
                            expand_macros(template.body, fsa, template.sets))
    (_, v1), (_, v2) = expanded.prefix
    verdicts = [check_forall_forall(k, template), check_forall_forall(k, expanded)]
    assert verdicts[0].holds == verdicts[1].holds
    for verdict in verdicts:
        if verdict.holds is False:
            pi1, pi2 = verdict.witness
            assign = {v1: (tuple(k.label[q] for q in pi1.stem),
                           tuple(k.label[q] for q in pi1.cycle)),
                      v2: (tuple(k.label[q] for q in pi2.stem),
                           tuple(k.label[q] for q in pi2.cycle))}
            assert eval_body(expanded.body, assign) is False
    return verdicts[0].holds


def test_relational_and_expanded_templates_agree_on_fixtures(g_diag, g_det):
    """The five forall/forall templates and the boundary-triggered
    predictability formula give the same verdict whether obseq/stateeq and
    the fault, boundary and initial sets are decided on the pair letter or
    expanded over the alphabet, and every violation pair replays on the
    expanded body; so does a written formula using the relations reversed
    and reflexively."""
    refined, part = refine_fault_partition(g_diag)
    for fsa, kind, p, want in ((refined, "diagnosability", part, True),
                               (refined, "predictability", part, False),
                               (g_det, "i-detectability", None, True),
                               (g_det, "strong-detectability", None, True),
                               (g_det, "delayed-detectability", None, False)):
        template, _ = property_template(kind, fsa, p)
        expanded, _ = property_formula(kind, fsa, p)
        assert expanded.body == expand_macros(template.body, fsa, template.sets)
        assert _check_both_routes(fsa, template) is want, kind
    trigger, _ = _decision_formula("predictability", refined, part)
    assert _check_both_routes(refined, trigger) is False
    written = parse_formula("forall p1. forall p2. "
                            "G obseq(p2,p1) & obseq(p1,p1) -> G stateeq(p2,p1)")
    assert _check_both_routes(g_det, written) is False


def test_relational_and_expanded_templates_agree_on_fuzz_stream():
    """A seeded slice of the acceptance fuzz stream, on the templates whose
    expanded automata stay small: i- and delayed-detectability, and
    diagnosability and the boundary-triggered predictability formula on the
    machines that declare a fault."""
    rng = random.Random(20260823)
    outcomes = {}
    for _ in range(12):
        fsa = random_valid_fsa(rng, max_states=5, max_events=4, max_obs=3)
        cases = [(fsa, property_template(kind, fsa)[0])
                 for kind in ("i-detectability", "delayed-detectability")]
        if fsa.fault_events:
            refined, part = refine_fault_partition(fsa)
            cases += [(refined, _decision_formula(kind, refined, part)[0])
                      for kind in ("diagnosability", "predictability")]
        for machine, formula in cases:
            outcome = _check_both_routes(machine, formula)
            outcomes.setdefault(formula.body, set()).add(outcome)
    assert len(outcomes) == 4
    assert all(seen == {True, False} for seen in outcomes.values())


def test_forall_forall_witness_violates_body(g_det):
    """The reported pair really falsifies the formula body pointwise."""
    verdict = verify(g_det, "delayed-detectability")
    formula, _ = property_formula("delayed-detectability", g_det)
    k = build_kripke(g_det)
    (_, v1), (_, v2) = formula.prefix
    pi1, pi2 = verdict.witness
    assign = {
        v1: (tuple(k.label[q] for q in pi1.stem), tuple(k.label[q] for q in pi1.cycle)),
        v2: (tuple(k.label[q] for q in pi2.stem), tuple(k.label[q] for q in pi2.cycle)),
    }
    assert eval_body(expand_macros(formula.body, g_det), assign) is False


# ---------------------------------------------------------------------------
# forall/exists fixture verdicts


def test_initial_state_opacity_fixture_holds(g_opa):
    verdict = verify(g_opa, "initial-state-opacity")
    assert verdict.holds is True
    assert verdict.engine == "hyper-forall-exists"


def test_current_state_opacity_fixture_holds(g_opa):
    verdict = verify(g_opa, "current-state-opacity")
    assert verdict.holds is True


def test_infinite_step_opacity_fixture_violated_with_pinned_witness(g_opa):
    """Observing o1 o4 reveals in hindsight that the system paused in the
    secret state 4; the witness pauses there via the stalling twin."""
    verdict = verify(g_opa, "infinite-step-opacity")
    assert verdict.holds is False
    pi1, pi2 = verdict.witness
    assert pi2 is None
    assert pi1 == lasso(
        [node("3"), node("4", "o1"), node("4", "o1", copy=True),
         node("4", "o1"), node("5", "o4")],
        [node("5", "o3")])


def test_sync_shape_of_instant0_formula(g_opa):
    """The initial-state formula matches the instant-0 shape with the right
    requirement and obligation sets."""
    formula, kind = property_template("initial-state-opacity", g_opa)
    assert kind == "plain"
    shape = match_sync_shape(formula)
    assert shape.anchor == "instant0"
    assert shape.eq_scope == "always"
    assert frozenset(["0", "3"]) in shape.p1_sets
    assert frozenset(["0", "4"]) in shape.p1_sets
    assert frozenset(["1", "2", "3", "5"]) in shape.p2_sets


def test_sync_shape_of_pause_formulas(g_opa):
    """Both hindsight formulas match the pause-anchored shape, differing only
    in how long observation agreement is required."""
    f_cso, kind_cso = property_template("current-state-opacity", g_opa)
    f_ifo, kind_ifo = property_template("infinite-step-opacity", g_opa)
    assert kind_cso == kind_ifo == "modified"
    s_cso = match_sync_shape(f_cso)
    s_ifo = match_sync_shape(f_ifo)
    assert s_cso.anchor == s_ifo.anchor == "tau_once"
    assert s_cso.eq_scope == "until_anchor"
    assert s_ifo.eq_scope == "always"
    assert s_cso.p1_sets == (frozenset(["0", "4"]),)
    assert s_cso.p2_sets == (frozenset(["1", "2", "3", "5"]),)


def test_sync_engine_rejects_pause_formula_on_plain_structure(g_opa):
    """Pause-anchored formulas need the twin-extended structure."""
    formula, _ = property_template("current-state-opacity", g_opa)
    k = build_kripke(g_opa)
    with pytest.raises(NotSynchronousFragment):
        check_forall_exists_sync(k, formula)


def test_sync_engine_rejects_foreign_body(g_opa):
    """A forall/exists body outside the fragment is refused with a reason."""
    k = build_kripke(g_opa)
    formula = HyperFormula(
        prefix=(("forall", "p1"), ("exists", "p2")),
        body=Always(Atom("x:0", "p1")))
    with pytest.raises(NotSynchronousFragment) as err:
        check_forall_exists_sync(k, formula)
    assert "implication" in str(err.value)


def test_engines_reject_wrong_prefix(g_opa, g_diag):
    """Each engine refuses formulas with the other quantifier pattern."""
    refined, part = refine_fault_partition(g_diag)
    f_dia, _ = property_template("diagnosability", refined, part)
    f_iso, _ = property_template("initial-state-opacity", g_opa)
    k_opa = build_kripke(g_opa)
    k_dia = build_kripke(refined)
    with pytest.raises(PrefixMismatch):
        check_forall_forall(k_opa, f_iso)
    with pytest.raises(PrefixMismatch):
        check_forall_exists_sync(k_dia, f_dia)
    with pytest.raises(PrefixMismatch):
        check_exists_forall_bounded(k_dia, f_dia)


# ---------------------------------------------------------------------------
# exists/forall routes


def test_weak_detectability_routes_agree(g_det):
    """The exact observer route and the bounded candidate search agree on the
    fixture and both witnesses replay."""
    exact = verify(g_det, "weak-detectability")
    bounded = verify(g_det, "weak-detectability", wd_route="bounded")
    assert exact.holds is True
    assert exact.engine == "oracle-observer"
    assert bounded.holds is True
    assert bounded.engine == "hyper-exists-forall"
    assert replay_witness(g_det, "weak-detectability", exact) is True
    assert replay_witness(g_det, "weak-detectability", bounded) is True


def test_weak_detectability_observer_witness_is_pinned(g_det):
    """The lifted observer witness is the canonical singleton loop trace."""
    verdict = verify(g_det, "weak-detectability")
    pi1, pi2 = verdict.witness
    assert pi2 is None
    assert pi1 == lasso([node("0"), node("4", "o1")], [node("5", "o1")])


def test_bounded_route_inconclusive_when_no_witness_exists():
    """A machine whose estimate never narrows leaves the candidate search
    inconclusive while the observer route concludes false."""
    from tests.conftest import make_twin_branch
    fsa = make_twin_branch()
    validate_fsa(fsa)
    exact = verify(fsa, "weak-detectability")
    bounded = verify(fsa, "weak-detectability", wd_route="bounded")
    assert exact.holds is False
    assert bounded.holds == "inconclusive"
    assert bounded.mode == "bounded"


def make_dying_branch():
    """A machine whose estimate stays ambiguous although the ambiguity is
    carried only by runs that keep failing to match the next observation.

    From initial state 1 the estimate after every observation is {0, 1}: the
    unobservable move 0 -> 1 refills state 1 at each instant, yet state 1
    matches a next observation of o1 only, and that move collapses it back
    onto the main run.  So no observation sequence ever pins the current
    state, while every infinite observation-matched pair of runs agrees from
    some point on.
    """
    return validate_fsa(Fsa(
        states=["0", "1"],
        events=["a", "b", "u"],
        transitions={("0", "b"): "0", ("0", "u"): "1", ("1", "a"): "0"},
        initial=["1"],
        mask={"a": "o1", "b": "o2", "u": None},
        observations=["o1", "o2"],
    ))


def test_bounded_route_rejects_eternally_ambiguous_machine():
    """A candidate whose estimate never collapses must not be certified, even
    when every infinite observation-matched companion run converges onto
    it."""
    fsa = make_dying_branch()
    assert verify(fsa, "weak-detectability").holds is False
    bounded = verify(fsa, "weak-detectability", wd_route="bounded")
    assert bounded.holds == "inconclusive"


def test_estimate_walk_is_stricter_than_the_trace_product():
    """On the dying-branch machine the product over infinite traces accepts
    candidates, because each ambiguous branch dies out within a step; their
    estimates stay ambiguous regardless, so the walk rejects every one."""
    fsa = make_dying_branch()
    k = build_kripke(fsa)
    formula, _ = property_template("weak-detectability", fsa)
    cands = []
    for q0 in k.initial:
        stack = [([q0], {q0})]
        while stack:
            path, onpath = stack.pop()
            for t in k.succ[path[-1]]:
                if t in onpath:
                    i = path.index(t)
                    cands.append(canonical_lasso(
                        Lasso(stem=tuple(path[:i]), cycle=tuple(path[i:]))))
                elif len(path) <= len(k.nodes):
                    stack.append((path + [t], onpath | {t}))
    accepted = [c for c in cands if _inner_universal_holds(k, c, formula)]
    assert accepted
    assert all(not _estimate_walk_accepts(k, c) for c in accepted)


OBSEQ, STATEEQ = ObsEq("p1", "p2"), StateEq("p1", "p2")
# exists/forall bodies other than the collapse body, with the relations and
# the set literals as leaves; "chosen" is bound to every other state
EXISTS_FORALL_BODIES = (
    Implies(Always(OBSEQ), Eventually(STATEEQ)),
    Implies(Always(OBSEQ), Always(STATEEQ)),
    Implies(And(InSet("initial", "p2"), Always(OBSEQ)), Always(STATEEQ)),
    Always(Implies(InSet("chosen", "p2"), Not(StateEq("p2", "p1")))),
    Implies(Until(OBSEQ, InSet("chosen", "p2")), InSet("chosen", "p1")),
    Always(Implies(OBSEQ, Next(Or(STATEEQ, InSet("chosen", "p1"))))),
)


def _exists_forall_outcomes(fsa):
    """Decide each body on the candidate route as it stands and expanded
    over the alphabet; the verdicts, witnesses and details must be equal."""
    k = build_kripke(fsa)
    prefix = (("exists", "p1"), ("forall", "p2"))
    sets = (("initial", fsa.initial), ("chosen", frozenset(fsa.states[::2])))
    outcomes = []
    for body in EXISTS_FORALL_BODIES:
        relational = check_exists_forall_bounded(k, HyperFormula(prefix, body, sets))
        expanded = check_exists_forall_bounded(
            k, HyperFormula(prefix, expand_macros(body, fsa, sets)))
        assert relational == expanded, body
        outcomes.append(relational.holds)
    return outcomes


def test_exists_forall_bodies_agree_with_their_expansion(g_det):
    """Bodies beyond the collapse body are decided on the pair letter, with
    the same verdict, witness and details as their expansion, on g_det and
    a seeded slice of small machines; each body both finds a witness and
    exhausts its candidates somewhere."""
    seen = [set() for _ in EXISTS_FORALL_BODIES]
    rng = random.Random(20260823)
    machines = [g_det] + [random_valid_fsa(rng, max_states=4, max_events=3, max_obs=2)
                          for _ in range(12)]
    for fsa in machines:
        for outcomes, holds in zip(seen, _exists_forall_outcomes(fsa)):
            outcomes.add(holds)
    assert all(outcomes == {True, "inconclusive"} for outcomes in seen)


def test_exists_forall_body_decides_without_expansion(g_opa):
    """Eventual state agreement on g_opa, with a cold translation cache:
    translating the expansion took seconds, the pair letter keeps the check
    small."""
    formula = parse_formula("exists p1. forall p2. G obseq(p1,p2) -> F stateeq(p1,p2)")
    k = build_kripke(g_opa)
    _negated_body_automaton.cache_clear()
    started = time.perf_counter()
    verdict = check_exists_forall_bounded(k, formula)
    assert time.perf_counter() - started < 0.1
    assert verdict.holds is True
    assert verdict.witness[0] == lasso([node("0"), node("1", "o1"), node("2", "o2")],
                                       [node("2", "o3")])


# ---------------------------------------------------------------------------
# decision routes beyond the bare formulas


def make_phantom_branch():
    """A machine that spawns a doomed copy of itself at every observation.

    From state a each o1 step may stay at a or move to b, so the estimate
    after o1 o1 ... is always {a, b}.  But b only continues with o2, so a
    run sitting at b can never keep matching o1; every infinite pair of
    observation-matched runs agrees from some point on, while the current
    state is never pinned down.
    """
    return validate_fsa(Fsa(
        states=["a", "b"],
        events=["e1", "e2", "e3"],
        transitions={("a", "e1"): "a", ("a", "e2"): "b", ("b", "e3"): "a"},
        initial=["a"],
        mask={"e1": "o1", "e2": "o1", "e3": "o2"},
        observations=["o1", "o2"],
    ))


def test_strong_detectability_sees_ambiguity_without_a_diverging_pair():
    """The pair search passes on the phantom-branch machine, yet the estimate
    stays ambiguous forever; the subset-walk completion must catch it and
    report a run along which the uncertainty recurs."""
    fsa = make_phantom_branch()
    k = build_kripke(fsa)
    formula, _ = property_template("strong-detectability", fsa)
    assert check_forall_forall(k, formula).holds is True
    verdict = verify(fsa, "strong-detectability")
    assert verdict.holds is False
    assert verdict.engine == "hyper-estimate-graph"
    pi1, pi2 = verdict.witness
    assert pi2 is None
    assert not _estimate_walk_accepts(k, pi1)
    assert verdict.details["ambiguous_states"] == ["a", "b"]
    assert verify(fsa, "strong-detectability", engine="oracle").holds is False
    assert replay_witness(fsa, "strong-detectability", verdict) is True


def test_strong_detectability_reports_pumpable_word_for_transient_ambiguity():
    """Here the ambiguous estimate {t, u} is left immediately: after o2 the
    next observation separates the states, so no single run carries the
    uncertainty forever.  It is still reached after arbitrarily many o1
    steps, so the property fails; the verdict then carries a pumpable
    observation word in place of a trace witness."""
    fsa = validate_fsa(Fsa(
        states=["s", "t", "u"],
        events=["e", "g", "h", "i", "j"],
        transitions={("s", "e"): "s", ("s", "g"): "t", ("s", "h"): "u",
                     ("t", "i"): "t", ("u", "j"): "u"},
        initial=["s"],
        mask={"e": "o1", "g": "o2", "h": "o2", "i": "o3", "j": "o4"},
        observations=["o1", "o2", "o3", "o4"],
    ))
    k = build_kripke(fsa)
    formula, _ = property_template("strong-detectability", fsa)
    assert check_forall_forall(k, formula).holds is True
    verdict = verify(fsa, "strong-detectability")
    assert verdict.holds is False
    assert verdict.witness is None
    assert verdict.details["ambiguous_states"] == ["t", "u"]
    assert verdict.details["pump_cycle"]
    assert verify(fsa, "strong-detectability", engine="oracle").holds is False
    assert replay_witness(fsa, "strong-detectability", verdict) is True


def test_predictability_alarm_may_rest_on_the_faulted_steps_observation():
    """The fault b fires right after the observable c inside one encoded
    step, and the estimate after ... o3 is already fully indicating, so the
    fault is predictable.  A trigger placed at the faulted instant compares
    observations strictly before it and misses that o3; the boundary-anchored
    trigger used by verify must accept the machine."""
    fsa = validate_fsa(Fsa(
        states=["0", "1", "3"],
        events=["a", "b", "c"],
        transitions={("0", "a"): "0", ("0", "c"): "3", ("3", "b"): "1",
                     ("1", "a"): "1"},
        initial=["0"],
        mask={"a": "o2", "b": None, "c": "o3"},
        observations=["o2", "o3"],
        fault_events=["b"],
    ))
    refined, part = refine_fault_partition(fsa)
    formula, _ = property_template("predictability", refined, part)
    assert check_forall_forall(build_kripke(refined), formula).holds is False
    assert verify(fsa, "predictability").holds is True
    assert verify(fsa, "predictability", engine="oracle").holds is True


def test_bound_env_var_overrides_default(g_det, monkeypatch):
    """The environment bound feeds the candidate search."""
    monkeypatch.setenv("HYPERDES_BOUND", "4")
    verdict = verify(g_det, "weak-detectability", wd_route="bounded")
    assert verdict.bound == 4
    assert verdict.holds is True


# ---------------------------------------------------------------------------
# verify orchestration


def test_verify_requires_fault_annotation(g_det):
    """Fault properties need declared fault events."""
    with pytest.raises(MissingAnnotation) as err:
        verify(g_det, "diagnosability")
    assert "fault" in str(err.value)


def test_verify_requires_secret_annotation(g_diag):
    """Opacity properties need declared secret states."""
    with pytest.raises(MissingAnnotation) as err:
        verify(g_diag, "current-state-opacity")
    assert "secret" in str(err.value)


def test_verify_oracle_engine_agrees_on_fixtures(g_diag, g_det, g_opa):
    """Both engines give the same answer on every fixture property."""
    cases = [
        (g_diag, "diagnosability"), (g_diag, "predictability"),
        (g_det, "i-detectability"), (g_det, "strong-detectability"),
        (g_det, "weak-detectability"), (g_det, "delayed-detectability"),
        (g_opa, "initial-state-opacity"), (g_opa, "current-state-opacity"),
        (g_opa, "infinite-step-opacity"),
    ]
    for fsa, kind in cases:
        hyper = verify(fsa, kind)
        oracle = verify(fsa, kind, engine="oracle")
        assert hyper.holds == oracle.holds, kind


def test_verdict_records_property_and_timing(g_diag):
    verdict = verify(g_diag, "diagnosability")
    assert verdict.property == "diagnosability"
    assert verdict.seconds is not None and verdict.seconds >= 0


# ---------------------------------------------------------------------------
# witness replay


def test_replay_rejects_non_edge(g_diag):
    """Corrupting a witness step breaks the run check."""
    verdict = verify(g_diag, "predictability")
    pi1, pi2 = verdict.witness
    broken = Lasso(stem=pi1.stem, cycle=(node("5", "o3"),))
    fake = Verdict(property="predictability", holds=False, mode="exact",
                   engine="hyper-forall-forall", witness=(broken, pi2))
    with pytest.raises(NotARun):
        replay_witness(g_diag, "predictability", fake)


def test_replay_rejects_non_initial_start(g_diag):
    verdict = verify(g_diag, "predictability")
    pi1, pi2 = verdict.witness
    shifted = Lasso(stem=pi1.stem[1:], cycle=pi1.cycle)
    fake = Verdict(property="predictability", holds=False, mode="exact",
                   engine="hyper-forall-forall", witness=(shifted, pi2))
    with pytest.raises(NotARun):
        replay_witness(g_diag, "predictability", fake)


def test_replay_refuses_satisfying_pair(g_diag):
    """A well-formed pair that does not violate the body is not accepted."""
    run = lasso([node("0"), node("1", "o1")], [node("2", "o2")])
    fake = Verdict(property="predictability", holds=False, mode="exact",
                   engine="hyper-forall-forall", witness=(run, run))
    assert replay_witness(g_diag, "predictability", fake) is False


def test_replay_validates_fixture_witnesses(g_diag, g_det, g_opa):
    """Every violated fixture verdict replays successfully."""
    for fsa, kind in [(g_diag, "predictability"),
                      (g_det, "delayed-detectability"),
                      (g_opa, "infinite-step-opacity")]:
        verdict = verify(fsa, kind)
        assert verdict.holds is False
        assert replay_witness(fsa, kind, verdict) is True


def test_forall_exists_refutation_is_trace_specific(g_opa):
    """The hindsight refutation accepts the real violating trace and rejects
    a trace whose pause sits at a non-secret state."""
    formula, _ = property_template("infinite-step-opacity", g_opa)
    k = build_modified_kripke(build_kripke(g_opa))
    good = lasso([node("3"), node("4", "o1"), node("4", "o1", copy=True),
                  node("4", "o1"), node("5", "o4")],
                 [node("5", "o3")])
    assert forall_exists_refutes(k, formula, good) is True
    weak = lasso([node("3"), node("4", "o1"), node("2", "o2"),
                  node("2", "o2", copy=True), node("2", "o2")],
                 [node("2", "o3")])
    assert forall_exists_refutes(k, formula, weak) is False


# ---------------------------------------------------------------------------
# model-independent templates

FORALL_FORALL = ("diagnosability", "predictability", "i-detectability",
                 "strong-detectability", "delayed-detectability")


def _decided(fsa, kind):
    """The formula verify decides `kind` with, over the machine it uses."""
    if kind in ("diagnosability", "predictability"):
        target, part = refine_fault_partition(validate_fsa(fsa))
        return _decision_formula(kind, target, part)[0]
    return _decision_formula(kind, validate_fsa(fsa), None)[0]


def test_negated_body_automata_do_not_depend_on_the_model(g_diag, g_det, g_opa):
    """Each forall/forall decision formula has one body for every machine,
    and its negation translates to an automaton of the same size on fault
    rings of 16 and 48 states and on the fixtures."""
    machines = [fault_ring(16), fault_ring(48), g_diag, g_det, g_opa]
    for kind in FORALL_FORALL:
        bodies, sizes = set(), set()
        for fsa in machines:
            if kind in ("diagnosability", "predictability") and fsa.fault_events is None:
                continue
            body = _decided(fsa, kind).body
            ba = ltl_to_buchi(Not(body))
            bodies.add(body)
            sizes.add((len(ba.states), sum(len(e) for e in ba.edges.values())))
        assert len(bodies) == 1, kind
        assert len(sizes) == 1, (kind, sizes)


def test_large_fault_ring_decides_on_the_hyper_route():
    """The 360-state fault ring: diagnosable, not predictable, and weak
    detectability is out of reach of the candidate route (it is false, and
    that route can only prove it).  The predictability witness replays."""
    fsa = validate_fsa(fault_ring(360))
    want = {"diagnosability": True, "predictability": False,
            "weak-detectability": "inconclusive"}
    for kind, holds in want.items():
        verdict = verify(fsa, kind, wd_route="bounded")
        assert verdict.holds == holds, kind
        assert verdict.seconds < 10, kind
    verdict = verify(fsa, "predictability")
    assert replay_witness(fsa, "predictability", verdict) is True
    # replay evaluates the body with its state sets and relations as leaves,
    # so it does not grow with the ring
    big = validate_fsa(fault_ring(500))
    for kind in ("predictability", "strong-detectability", "delayed-detectability"):
        verdict = verify(big, kind)
        assert verdict.holds is False, kind
        assert replay_witness(big, kind, verdict) is True, kind


def test_large_labelled_ring_opacity_on_the_hyper_route():
    """On the 400-state labelled ring, one observation per state, the sync
    engine reads obseq as a leaf: all three opacity properties are violated
    and their witnesses replay."""
    fsa = validate_fsa(labelled_ring(400))
    for kind in OPACITY_PROPERTIES:
        verdict = verify(fsa, kind)
        assert verdict.holds is False, kind
        assert replay_witness(fsa, kind, verdict) is True, kind


def test_cold_and_warm_translation_cache_agree(g_diag, g_det):
    """Verdicts and witnesses are the same whether each check translates its
    body afresh or takes the automaton an earlier check translated; a warm
    pass translates nothing, and the five forall/forall decision formulas
    need five translations however many machines use them."""
    cases = [(fsa, kind) for fsa in (fault_ring(6), fault_ring(9), g_diag)
             for kind in ("diagnosability", "predictability")]
    cases += [(fsa, kind) for fsa in (fault_ring(6), g_det, fault_ring(9))
              for kind in ("i-detectability", "strong-detectability",
                           "delayed-detectability")]

    def outcome(verdict):
        return verdict.holds, verdict.mode, verdict.engine, verdict.witness, verdict.details

    cold = []
    for fsa, kind in cases:
        _negated_body_automaton.cache_clear()
        cold.append(outcome(verify(fsa, kind)))
    _negated_body_automaton.cache_clear()
    first = [outcome(verify(fsa, kind)) for fsa, kind in cases]
    assert _negated_body_automaton.cache_info().misses == len(FORALL_FORALL)
    warm = [outcome(verify(fsa, kind)) for fsa, kind in cases]
    assert _negated_body_automaton.cache_info().misses == len(FORALL_FORALL)
    assert cold == first == warm
    assert {holds for holds, *_ in cold} == {True, False}
