"""Tests for the hyperproperty checking engines."""

import random
import time
from dataclasses import replace

import pytest

from hyperdes import hyper
from hyperdes.buchi import ltl_to_buchi, quotient
from hyperdes.des import Fsa, refine_fault_partition, validate_fsa
from hyperdes.errors import (
    DuplicateSetName,
    HyperdesError,
    MissingAnnotation,
    NotARun,
    NotCollapseBody,
    NotLive,
    NotSynchronousFragment,
    PrefixMismatch,
    UnknownProperty,
    UnknownRoute,
)
from hyperdes.formula import (
    Always,
    And,
    Atom,
    Eventually,
    OPACITY_PROPERTIES,
    PROPERTIES,
    TEMPLATES,
    HyperFormula,
    Implies,
    InSet,
    Not,
    ObsEq,
    Once,
    Or,
    Until,
    _expand_once,
    eval_body,
    expand_macros,
    missing_annotation,
    parse_formula,
    property_formula,
    property_template,
)
from hyperdes.gen import random_valid_fsa
from hyperdes.hyper import (
    HyperAnalysis,
    Verdict,
    check_exists_forall_bounded,
    check_forall_exists_sync,
    check_forall_forall,
    forall_exists_refutes,
    replay_witness,
    verify,
    _bit_letters,
    _estimate_moves,
    _estimate_product,
    _estimate_walk_accepts,
    _lasso_estimates,
    _negated_body,
    _original_succ,
    _sync_plan,
)
from hyperdes.kripke import (
    KNode,
    Lasso,
    build_kripke,
    build_modified_kripke,
    canonical_lasso,
    step_nodes,
)
from hyperdes.oracle import oracle_check
from support import fault_ring, labelled_ring, pair_letter
from tests.conftest import make_dying_branch, make_twin_branch


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
    """The five forall/forall templates, predictability's boundary-triggered
    one among them, give the same verdict whether obseq/stateeq and the
    fault, boundary and initial sets are decided on the pair letter or
    expanded over the alphabet, and every violation pair replays on the
    expanded body; so does a written formula using the relations reversed
    and reflexively."""
    refined, part = refine_fault_partition(g_diag)
    for fsa, kind, p, want in ((refined, "diagnosability", part, True),
                               (refined, "predictability", part, False),
                               (g_det, "i-detectability", None, True),
                               (make_phantom_branch(), "strong-detectability", None, False),
                               (g_det, "delayed-detectability", None, False)):
        template, _ = property_template(kind, fsa, p)
        expanded, _ = property_formula(kind, fsa, p)
        assert expanded.body == expand_macros(template.body, fsa, template.sets)
        assert _check_both_routes(fsa, template) is want, kind
    written = parse_formula("forall p1. forall p2. "
                            "G obseq(p2,p1) & obseq(p1,p1) -> G stateeq(p2,p1)")
    assert _check_both_routes(g_det, written) is False


def test_relational_and_expanded_templates_agree_on_fuzz_stream():
    """A seeded slice of the acceptance fuzz stream, on the templates whose
    expanded automata stay small: i- and delayed-detectability, and
    diagnosability and predictability on the machines that declare a
    fault."""
    rng = random.Random(20260823)
    outcomes = {}
    for _ in range(12):
        fsa = random_valid_fsa(rng, max_states=5, max_events=4, max_obs=3)
        cases = [(fsa, property_template(kind, fsa)[0])
                 for kind in ("i-detectability", "delayed-detectability")]
        if fsa.fault_events:
            refined, part = refine_fault_partition(fsa)
            cases += [(refined, property_template(kind, refined, part)[0])
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


def test_a_set_name_bound_twice_is_refused(g_det):
    """The product search reads InSet(name) as holding where any binding of
    the name holds the state, eval_body by the last binding only: bound to
    {"0"} and then to {"nope"}, "s" made G !InSet("s", p1) violated on g_det
    with a witness that eval_body says satisfies the body.  HyperFormula
    refuses such a `sets`; with one binding the engine and eval_body agree."""
    prefix = (("forall", "p1"), ("forall", "p2"))
    body = Always(Not(InSet("s", "p1")))
    with pytest.raises(DuplicateSetName) as exc:
        HyperFormula(prefix, body, (("s", frozenset({"0"})), ("s", frozenset({"nope"}))))
    assert isinstance(exc.value, HyperdesError) and exc.value.name == "s"

    formula = HyperFormula(prefix, body, (("s", frozenset({"0"})),))
    k = build_kripke(g_det)
    verdict = check_forall_forall(k, formula)
    assert verdict.holds is False
    assign = {v: (tuple(k.label[q] for q in pi.stem), tuple(k.label[q] for q in pi.cycle))
              for (_, v), pi in zip(prefix, verdict.witness)}
    assert eval_body(body, assign, formula.sets) is False


def _letter_reference_cases(g_diag, g_det, g_opa):
    """(machine, formula) pairs for the letter reference: the five
    forall/forall templates, predictability's boundary-triggered body among
    them, a written body using the relations reversed and reflexively, on the
    fixtures, the twin and dying branches and 40 seeded random machines, and
    the i-detectability body expanded over the alphabet, on all but g_opa
    and the random machines (its expansion over g_opa's four observations
    translates to an automaton of 657 states)."""
    written = parse_formula("forall p1. forall p2. "
                            "G obseq(p2,p1) & obseq(p1,p1) -> G stateeq(p2,p1)")
    named = [g_diag, g_det, g_opa, make_twin_branch(), make_dying_branch()]
    for fsa in named:
        if fsa is not g_opa:
            yield fsa, property_formula("i-detectability", fsa)[0]
    for fsa in named + [random_valid_fsa(random.Random(seed)) for seed in range(40)]:
        yield fsa, written
        for kind in FORALL_FORALL[2:]:
            yield fsa, property_template(kind, fsa)[0]
        if fsa.fault_events:
            refined, part = refine_fault_partition(fsa)
            for kind in FORALL_FORALL[:2]:
                yield refined, property_template(kind, refined, part)[0]


def test_bit_letters_admit_the_edges_the_literal_sets_admit(g_diag, g_det, g_opa):
    """For every automaton state and every node pair of the plain and the
    modified structure, the bitmask letter admits the same edges, in the
    same order, as Guard.admits on the set-of-literals letter."""
    for fsa, formula in _letter_reference_cases(g_diag, g_det, g_opa):
        (_, v1), (_, v2) = formula.prefix
        negated = _negated_body(formula.body)
        ba = negated[0]
        mentioned = {lit for edges in ba.edges.values() for guard, _ in edges
                     for lit in guard.pos | guard.neg}
        k = build_kripke(fsa)
        for structure in (k, build_modified_kripke(k)):
            letter, admitted = _bit_letters(structure, formula, negated)
            # a guard asks only about the literals it mentions, and admitted
            # reads only the bit letter, so each distinct pair of the two
            # stands for every node pair that reads it
            letters = {(pair_letter(structure, u, v, v1, v2, formula.sets) & mentioned,
                        letter(u, v))
                       for u in structure.nodes for v in structure.nodes}
            for literals, bits in letters:
                for b, edges in ba.edges.items():
                    want = [b2 for guard, b2 in edges if guard.admits(literals)]
                    assert admitted(bits, b) == want, (fsa.name, formula.body, b)


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
    """The initial-state formula matches the instant-0 shape, each side
    bound to the intersection of its literals' sets: initial and secret for
    the universal trace, initial and nonsecret for its witness."""
    formula, kind = property_template("initial-state-opacity", g_opa)
    assert kind == "plain"
    anchor, p1, p2, eq_scope = _sync_plan(formula)
    assert anchor == "instant0"
    assert eq_scope == "always"
    assert p1 == frozenset(["0"])
    assert p2 == frozenset(["3"])


def test_sync_shape_of_pause_formulas(g_opa):
    """Both hindsight formulas match the pause-anchored shape, differing only
    in how long observation agreement is required."""
    f_cso, kind_cso = property_template("current-state-opacity", g_opa)
    f_ifo, kind_ifo = property_template("infinite-step-opacity", g_opa)
    assert kind_cso == kind_ifo == "modified"
    anchor_cso, p1_cso, p2_cso, scope_cso = _sync_plan(f_cso)
    anchor_ifo, p1_ifo, p2_ifo, scope_ifo = _sync_plan(f_ifo)
    assert anchor_cso == anchor_ifo == "tau_once"
    assert scope_cso == "until_anchor"
    assert scope_ifo == "always"
    assert p1_cso == p1_ifo == frozenset(["0", "4"])
    assert p2_cso == p2_ifo == frozenset(["1", "2", "3", "5"])


def _pause_body(marker, constraint):
    tau1, tau2 = Atom("tau", "p1"), Atom("tau", "p2")
    return Implies(And(marker, Always(Implies(tau1, constraint))),
                   And(Always(ObsEq("p1", "p2")),
                       Always(Implies(tau1, And(tau2, InSet("nonsecret", "p2"))))))


@pytest.mark.parametrize("body, reason", [
    # a pause constraint written as a disjunction of x-atoms
    (_pause_body(_expand_once(Atom("tau", "p1")), Or(Atom("x:0", "p1"), Atom("x:4", "p1"))),
     "pause constraint must be a state-set literal"),
    # the pause marker written as F1 in place of its definition
    (_pause_body(Once(Atom("tau", "p1")), InSet("secret", "p1")),
     "antecedent must be state-set literals"),
    # an instant-0 body whose consequent names no state set
    (Implies(InSet("secret", "p1"), Always(ObsEq("p1", "p2"))),
     "consequent must name a state set"),
], ids=["x-atom-disjunction", "once-marker", "instant0-without-obligation"])
def test_sync_engine_refuses_conditions_that_are_not_set_literals(g_opa, body, reason):
    """Every state condition of a forall/exists body is one state-set
    literal, and an instant-0 consequent names at least one; any other
    body is outside the fragment."""
    template, _ = property_template("infinite-step-opacity", g_opa)
    formula = HyperFormula(prefix=template.prefix, body=body, sets=template.sets)
    k = build_modified_kripke(build_kripke(g_opa))
    with pytest.raises(NotSynchronousFragment, match=reason):
        check_forall_exists_sync(k, formula)


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
    exact = oracle_check(g_det, "weak-detectability")
    bounded = verify(g_det, "weak-detectability", wd_route="bounded")
    assert exact.holds is True
    assert exact.engine == "oracle-observer"
    assert bounded.holds is True
    assert bounded.engine == "hyper-exists-forall"
    assert replay_witness(g_det, "weak-detectability", exact) is True
    assert replay_witness(g_det, "weak-detectability", bounded) is True


def test_weak_detectability_observer_witness_is_pinned(g_det):
    """The lifted observer witness is the canonical singleton loop trace."""
    verdict = oracle_check(g_det, "weak-detectability")
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


def test_bounded_route_rejects_eternally_ambiguous_machine():
    """A candidate whose estimate never collapses must not be certified, even
    when every infinite observation-matched companion run converges onto
    it."""
    fsa = make_dying_branch()
    assert verify(fsa, "weak-detectability").holds is False
    bounded = verify(fsa, "weak-detectability", wd_route="bounded")
    assert bounded.holds == "inconclusive"


def reference_candidates(k, bound):
    """Every candidate of the bounded exists/forall search, unpruned and in
    its order: the simple lassos from each initial node, closed by a
    depth-first search over paths of fewer than `bound` nodes."""
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
                elif len(path) < bound:
                    stack.append((path + [t], onpath | {t}))
    return cands


def estimate_positions(k, pi1):
    """The (node, estimate) states of a lasso's stem and first two laps."""
    nodes = list(pi1.stem) + 2 * list(pi1.cycle)
    d = frozenset(k.initial)
    out = [(nodes[0], d)]
    for t in nodes[1:]:
        d = step_nodes(k.succ, d, t.obs)
        out.append((t, d))
    return out


def product_machines():
    """g_det, the twin and dying branches and 40 seeded small machines."""
    from conftest import make_g_det, make_twin_branch
    rng = random.Random(20261018)
    return ([make_g_det(), validate_fsa(make_twin_branch()), make_dying_branch()]
            + [random_valid_fsa(rng, max_states=8, max_events=4, max_obs=3)
               for _ in range(40)])


def test_pruned_candidate_search_matches_the_unpruned_one():
    """With the estimate product pruning it, the collapse-body search returns
    the verdict, bound and witness of the unpruned enumeration, and every
    candidate the estimate walk accepts stays inside good."""
    holds = set()
    for fsa in product_machines():
        k = build_kripke(fsa)
        formula, _ = property_template("weak-detectability", fsa)
        bound = len(k.nodes) + 1
        cands = reference_candidates(k, bound)
        accepted = [c for c in cands if _estimate_walk_accepts(k, c)]
        _, core, good = _estimate_product(k, _estimate_moves(k.succ))
        assert core <= good
        for c in accepted:
            assert set(estimate_positions(k, c)) <= good
        verdict = check_exists_forall_bounded(k, formula)
        assert verdict.bound == bound
        if accepted:
            assert verdict.holds is True
            assert verdict.witness == (accepted[0], None)
        else:
            assert verdict.holds == "inconclusive"
            assert verdict.witness is None
            assert verdict.details["candidates_tried"] <= len(cands)
        holds.add(verdict.holds)
    assert holds == {True, "inconclusive"}


def helper_machines():
    """The three fixtures, the phantom branch and product_machines()."""
    from conftest import make_g_diag, make_g_opa
    return [make_g_diag(), make_g_opa(), make_phantom_branch()] + product_machines()


def test_estimate_moves_is_step_nodes_on_every_observation():
    """The memoised step gives, for each estimate, step_nodes on every
    observation entering a successor of one of its nodes, in name order:
    on the plain structure and on the original nodes of the modified one,
    from every estimate of the product and from random sets of nodes, all
    through one memo per structure."""
    rng = random.Random(20261019)
    for fsa in helper_machines():
        k = build_kripke(fsa)
        product, _, _ = _estimate_product(k, _estimate_moves(k.succ))
        estimates = {d for _, d in product}
        nodes = list(k.nodes)
        estimates.update(frozenset(rng.sample(nodes, rng.randint(0, len(nodes))))
                         for _ in range(20))
        for succ in (k.succ, _original_succ(build_modified_kripke(k))):
            moves = _estimate_moves(succ)
            for d in sorted(estimates, key=lambda d: sorted(map(k.index.get, d))):
                present = sorted({t.obs for q in d for t in succ[q]})
                assert list(moves(d).items()) == [(o, step_nodes(succ, d, o))
                                                  for o in present]


def test_lasso_estimates_follow_the_lasso_to_the_first_repeat():
    """The lasso walk visits the (node, estimate) states of estimate_positions
    in order, and stops at the first state it has visited before."""
    for fsa in helper_machines():
        k = build_kripke(fsa)
        for cand in reference_candidates(k, len(k.nodes) + 1):
            nodes = list(cand.stem) + list(cand.cycle)
            walk = list(_lasso_estimates(k.succ, cand, 0, frozenset(k.initial)))
            assert len(set(walk)) == len(walk) - 1 and walk[-1] in walk[:-1]
            seen = [(nodes[pos], d) for pos, d in walk]
            expected = estimate_positions(k, cand)
            n = min(len(seen), len(expected))
            assert n > len(nodes) and seen[:n] == expected[:n]


def test_exact_route_agrees_with_the_observer_check():
    """The exact hyper route decides weak detectability as the oracle's
    observer check does, without running it, and each witness replays."""
    holds = set()
    for fsa in product_machines():
        verdict = verify(fsa, "weak-detectability")
        assert verdict.holds is oracle_check(fsa, "weak-detectability").holds
        assert (verdict.mode, verdict.engine) == ("exact", "hyper-exists-forall")
        if verdict.holds:
            assert replay_witness(fsa, "weak-detectability", verdict) is True
        else:
            assert verdict.witness is None
        holds.add(verdict.holds)
    assert holds == {True, False}


def test_bounded_route_exhausts_a_witnessless_machine_at_once():
    """The 16th machine of at least 12 states from this stream has no
    witness; the unpruned search gave up at its 20,000-candidate cap after
    about two seconds, the pruned one runs out of candidates at once."""
    rng = random.Random(20261017)
    machines = []
    while len(machines) < 16:
        fsa = random_valid_fsa(rng, max_states=16)
        if len(fsa.states) >= 12:
            machines.append(fsa)
    fsa = machines[-1]
    validate_fsa(fsa)
    started = time.perf_counter()
    bounded = verify(fsa, "weak-detectability", wd_route="bounded")
    assert time.perf_counter() - started < 0.1
    assert bounded.holds == "inconclusive"
    assert verify(fsa, "weak-detectability").holds is False


def test_unknown_weak_detectability_route_is_refused(g_det):
    """Only the exact and the bounded route exist; any other name raises a
    typed error, whatever the property, instead of taking the default
    route."""
    assert verify(g_det, "weak-detectability", wd_route="exact").mode == "exact"
    assert verify(g_det, "weak-detectability", wd_route="bounded").mode == "bounded"
    for kind in ("weak-detectability", "i-detectability"):
        with pytest.raises(UnknownRoute) as exc:
            verify(g_det, kind, wd_route="observer")
        assert exc.value.route == "observer"


def test_unknown_property_is_a_typed_value_error(g_det):
    """Both routes refuse a property that is not built in with one error,
    a HyperdesError that is also a ValueError."""
    for decide in (verify, oracle_check):
        with pytest.raises(UnknownProperty) as exc:
            decide(g_det, "liveness")
        assert isinstance(exc.value, HyperdesError) and isinstance(exc.value, ValueError)
        assert exc.value.kind == "liveness"


def test_routes_report_the_same_error_on_an_unannotated_dead_machine():
    """Both routes test the property name and its annotation before they
    validate the machine, so a machine that is neither live nor annotated
    gets the same error from each; a property it is annotated for reaches
    validation on both."""
    fsa = Fsa(states=["0", "1"], events=["a"], transitions={("0", "a"): "1"},
              initial=["0"], mask={"a": "o1"})
    for kind, error in (("diagnosability", MissingAnnotation),
                        ("current-state-opacity", MissingAnnotation),
                        ("liveness", UnknownProperty),
                        ("strong-detectability", NotLive)):
        for decide in (verify, oracle_check):
            with pytest.raises(error):
                decide(fsa, kind)


def test_exists_forall_search_refuses_other_bodies(g_det):
    """The candidate search decides the collapse body only: any other
    exists/forall body is a typed error, not a verdict."""
    k = build_kripke(g_det)
    for text in ("G obseq(p1,p2) -> F stateeq(p1,p2)",
                 "G obseq(p1,p2) -> G stateeq(p1,p2)"):
        formula = parse_formula("exists p1. forall p2. " + text)
        with pytest.raises(NotCollapseBody):
            check_exists_forall_bounded(k, formula)


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


def make_transient_pump():
    """A machine whose ambiguous estimate {t, u} is left at once.

    After o2 the next observation separates t from u, so no single run
    carries the uncertainty forever; {t, u} is still reached after
    arbitrarily many o1 steps."""
    return validate_fsa(Fsa(
        states=["s", "t", "u"],
        events=["e", "g", "h", "i", "j"],
        transitions={("s", "e"): "s", ("s", "g"): "t", ("s", "h"): "u",
                     ("t", "i"): "t", ("u", "j"): "u"},
        initial=["s"],
        mask={"e": "o1", "g": "o2", "h": "o2", "i": "o3", "j": "o4"},
        observations=["o1", "o2", "o3", "o4"],
    ))


def _fails_on_its_template(fsa):
    """Strong detectability fails on fsa, although every two
    observation-matched infinite traces eventually agree: the template's
    first conjunct alone, G obseq -> F G stateeq, holds, and its second,
    two traces that meet on a cycle and part again, finds the violation.
    verify reports the pair search's verdict with a two-trace witness that
    replays, and the oracle agrees."""
    first = parse_formula("forall p1. forall p2. G obseq(p1,p2) -> F G stateeq(p1,p2)")
    assert check_forall_forall(build_kripke(fsa), first).holds is True
    verdict = verify(fsa, "strong-detectability")
    assert verdict.holds is False
    assert verdict.engine == "hyper-forall-forall"
    pi1, pi2 = verdict.witness
    assert pi1 is not None and pi2 is not None
    assert replay_witness(fsa, "strong-detectability", verdict) is True
    assert oracle_check(fsa, "strong-detectability").holds is False


def test_strong_detectability_sees_ambiguity_without_a_diverging_pair():
    """On the phantom-branch machine the estimate stays {a, b} forever,
    though no two infinite traces keep apart; the template alone fails it
    with a pair that meets at the cyclic state a and parts."""
    _fails_on_its_template(make_phantom_branch())


def test_strong_detectability_reports_pumpable_word_for_transient_ambiguity():
    """On the transient-pump machine the ambiguity lives on finite records
    only, after o1 ... o1 o2; the template alone fails it with a pair that
    meets at the cyclic state s and parts on o2."""
    _fails_on_its_template(make_transient_pump())


# Machines on which strong detectability fails although every two
# observation-matched infinite traces eventually agree, as (seed, size
# limits, draw indices), index i being the i-th random_valid_fsa draw from
# random.Random(seed).  On 660 of seed 7 the ambiguity lives on finite
# observation records only.
PAIR_AGREEMENT_BLIND = (
    (7, {"max_states": 6},
     (47, 134, 298, 425, 431, 521, 573, 618, 660, 738, 889, 980, 1012, 1017,
      1020, 1042, 1211, 1314, 1430, 1444, 1563, 1591, 1625, 1810, 1868, 1911)),
    (5, {"max_states": 12}, (18, 236, 279)),
    (20260823, {}, (104, 260, 467, 479)),
)


def test_strong_detectability_template_fails_where_pair_agreement_is_blind():
    """On every pinned machine the template's first conjunct alone holds
    and the template fails, as on the two machines above."""
    for seed, limits, indices in PAIR_AGREEMENT_BLIND:
        rng = random.Random(seed)
        draws = [random_valid_fsa(rng, **limits) for _ in range(indices[-1] + 1)]
        for i in indices:
            _fails_on_its_template(draws[i])


def test_predictability_alarm_may_rest_on_the_faulted_steps_observation():
    """The fault b fires right after the observable c inside one encoded
    step, and the estimate after ... o3 is already fully indicating, so the
    fault is predictable.  A trigger placed at the faulted instant, written
    out here, compares observations strictly before it and misses that o3;
    the boundary-anchored trigger of the template must accept the
    machine."""
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
    k = build_kripke(refined)
    first_fault = HyperFormula(
        (("forall", "p1"), ("forall", "p2")),
        Implies(Until(ObsEq("p1", "p2"), InSet("fault", "p1")), Eventually(InSet("fault", "p2"))),
        (("fault", part.fault_states),))
    assert check_forall_forall(k, first_fault).holds is False
    formula, _ = property_template("predictability", refined, part)
    assert check_forall_forall(k, formula).holds is True
    assert verify(fsa, "predictability").holds is True
    assert oracle_check(fsa, "predictability").holds is True


def test_predictability_template_agrees_with_verify_on_fuzz_machine_358():
    """Machine 358 of the acceptance fuzz stream is predictable on both
    routes.  The template used to trigger at the first faulted instant,
    which the product search found violated there; the template is now the
    formula verify decides, and it holds."""
    rng = random.Random(20260823)
    for _ in range(359):
        fsa = random_valid_fsa(rng, max_states=5, max_events=4, max_obs=3)
    refined, part = refine_fault_partition(validate_fsa(fsa))
    formula, _ = property_template("predictability", refined, part)
    assert check_forall_forall(build_kripke(refined), formula).holds is True
    assert verify(fsa, "predictability").holds is True
    assert oracle_check(fsa, "predictability").holds is True


def test_library_ignores_the_bound_environment_variable(g_det, monkeypatch):
    """No module reads HYPERDES_BOUND: the bounded candidate search gives
    the same verdict with the variable set."""
    unset = verify(g_det, "weak-detectability", wd_route="bounded")
    monkeypatch.setenv("HYPERDES_BOUND", "4")
    verdict = verify(g_det, "weak-detectability", wd_route="bounded")
    assert verdict.bound == unset.bound != 4
    assert verdict.holds is unset.holds is True
    assert verdict.witness == unset.witness


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
        oracle = oracle_check(fsa, kind)
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


def test_replay_refuses_a_forall_forall_violation_without_two_traces(g_det, g_opa):
    """A forall/forall violation is replayed on its two traces alone: with
    the second trace, or the whole witness, missing the replay raises
    NotARun.  So does a forall/exists violation or a holding exists/forall
    verdict whose witness is missing, holds no first trace or is a lasso
    instead of a pair."""
    fsa = make_phantom_branch()
    verdict = verify(fsa, "strong-detectability")
    pi1, _ = verdict.witness
    for witness in ((pi1, None), None):
        with pytest.raises(NotARun):
            replay_witness(fsa, "strong-detectability", replace(verdict, witness=witness))
    for fsa, kind, holds in ((g_opa, "infinite-step-opacity", False),
                             (g_det, "weak-detectability", True)):
        verdict = verify(fsa, kind)
        assert verdict.holds is holds and replay_witness(fsa, kind, verdict) is True
        for witness in (None, (None, None), verdict.witness[0]):
            with pytest.raises(NotARun):
                replay_witness(fsa, kind, replace(verdict, witness=witness))


def with_unreachable_state(fsa):
    """The same machine with one more state, "u", which no run reaches: it
    leaves for the first initial state on the first observable event."""
    e = next(e for e in fsa.events if fsa.observable(e))
    return validate_fsa(Fsa(states=fsa.states + ("u",), events=fsa.events,
                            transitions={**fsa.transitions,
                                         ("u", e): fsa.sort_states(fsa.initial)[0]},
                            initial=fsa.initial, mask=fsa.mask,
                            fault_events=fsa.fault_events,
                            secret_states=fsa.secret_states, name=fsa.name))


def test_replay_refuses_nodes_outside_the_structure(g_diag, g_det, g_opa):
    """A witness node that names an undeclared state, is not a KNode, or
    names a declared state no run reaches makes the witness no run: the
    replay raises NotARun, whether the node opens a trace or closes its
    cycle, on every witness the three fixtures give."""
    outsiders = (node("undeclared"), node("undeclared", "o1"), node("u"), node("u", "o1"),
                 ("0", None, False), ("0", None), "0", ["0"], None)
    replayed = 0
    for base in (g_diag, g_det, g_opa):
        fsa = with_unreachable_state(base)
        for kind in PROPERTIES:
            if missing_annotation(kind, fsa) is not None:
                continue
            verdict = verify(fsa, kind)
            if verdict.witness is None:
                continue
            assert replay_witness(fsa, kind, verdict) is True, (fsa.name, kind)
            replayed += 1
            for i, trace in enumerate(verdict.witness):
                if trace is None:
                    continue
                nodes = list(trace.stem) + list(trace.cycle)
                for at in (0, len(nodes) - 1):
                    for bad in outsiders:
                        broken = nodes[:at] + [bad] + nodes[at + 1:]
                        witness = list(verdict.witness)
                        witness[i] = Lasso(stem=tuple(broken[:len(trace.stem)]),
                                           cycle=tuple(broken[len(trace.stem):]))
                        with pytest.raises(NotARun):
                            replay_witness(fsa, kind, replace(verdict, witness=tuple(witness)))
    assert replayed >= 3


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
    """The template of `kind` over the machine verify decides it on."""
    if kind in ("diagnosability", "predictability"):
        target, part = refine_fault_partition(validate_fsa(fsa))
        return property_template(kind, target, part)[0]
    return property_template(kind, validate_fsa(fsa))[0]


def test_the_decided_formula_is_the_template(g_diag, g_det, g_opa):
    """For every property, the formula the hyper route decides is
    property_template's output over the machine it decides on."""
    for fsa in (g_diag, g_det, g_opa):
        analysis = HyperAnalysis(fsa)
        for kind in PROPERTIES:
            if missing_annotation(kind, fsa) is None:
                assert analysis._problem(kind)[0] == _decided(fsa, kind), kind


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


# (states, edges) of the negated templates' automata; the tableau's
# unreduced automata have 6/9, 6/9, 3/3, 20/37 and 6/9
REDUCED_SIZES = {"diagnosability": (2, 3), "predictability": (2, 3),
                 "i-detectability": (2, 2), "strong-detectability": (11, 21),
                 "delayed-detectability": (2, 3)}


def test_negated_body_automata_are_reduced():
    """ltl_to_buchi returns the bisimulation quotient: the negated bodies of
    the five forall/forall templates translate at the pinned sizes, a second
    quotient changes nothing, and a fresh translation has the same states,
    edges in the same order, and accepting states."""
    for kind in FORALL_FORALL:
        negated = Not(TEMPLATES[kind][1])
        ba = ltl_to_buchi(negated)
        assert (len(ba.states), sum(len(e) for e in ba.edges.values())) == REDUCED_SIZES[kind]
        for other in (quotient(ba), ltl_to_buchi(negated)):
            assert other.states == ba.states, kind
            assert other.initial == ba.initial == ba.states[0], kind
            assert list(other.edges.items()) == list(ba.edges.items()), kind
            assert other.accepting == ba.accepting, kind


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


def _cache_cases(g_diag, g_det):
    """Every forall/forall property on fault rings and a fixture."""
    cases = [(fsa, kind) for fsa in (fault_ring(6), fault_ring(9), g_diag)
             for kind in ("diagnosability", "predictability")]
    cases += [(fsa, kind) for fsa in (fault_ring(6), g_det, fault_ring(9))
              for kind in ("i-detectability", "strong-detectability",
                           "delayed-detectability")]
    return cases


def _outcome(verdict):
    return verdict.holds, verdict.mode, verdict.engine, verdict.witness, verdict.details


def test_cold_and_warm_translation_cache_agree(g_diag, g_det, monkeypatch):
    """Verdicts and witnesses are the same whether each check compiles its
    negated body afresh (its automaton and the automaton's bit encoding)
    or takes what an earlier check compiled.  A first pass compiles, and
    translates, the five forall/forall decision formulas five times however
    many machines use them, and a warm pass compiles and translates
    nothing."""
    translations = []

    def translate(body):
        translations.append(body)
        return ltl_to_buchi(body)

    monkeypatch.setattr(hyper, "ltl_to_buchi", translate)
    cases = _cache_cases(g_diag, g_det)
    cold = []
    for fsa, kind in cases:
        _negated_body.cache_clear()
        cold.append(_outcome(verify(fsa, kind)))
    assert len(translations) == len(cases)
    _negated_body.cache_clear()
    del translations[:]
    first = [_outcome(verify(fsa, kind)) for fsa, kind in cases]
    assert _negated_body.cache_info().misses == len(FORALL_FORALL)
    assert len(translations) == len(FORALL_FORALL)
    warm = [_outcome(verify(fsa, kind)) for fsa, kind in cases]
    assert _negated_body.cache_info().misses == len(FORALL_FORALL)
    assert len(translations) == len(FORALL_FORALL)
    assert cold == first == warm
    assert {holds for holds, *_ in cold} == {True, False}


def test_guard_masks_are_compiled_once_per_body(g_diag, g_det):
    """The bit encoding of the automaton's guards is compiled once per body,
    with its automaton: a first and a warm pass over the forall/forall
    checks compile the five decision formulas five times, every check of a
    body reads the same encoding, and an encoding compiled afresh has the
    same literal bits and the same edge masks, in the same order."""
    cases = _cache_cases(g_diag, g_det)
    _negated_body.cache_clear()
    first = [_outcome(verify(fsa, kind)) for fsa, kind in cases]
    assert _negated_body.cache_info().misses == len(FORALL_FORALL)
    shared = {kind: _negated_body(TEMPLATES[kind][1]) for kind in FORALL_FORALL}
    warm = [_outcome(verify(fsa, kind)) for fsa, kind in cases]
    assert _negated_body.cache_info().misses == len(FORALL_FORALL)
    assert first == warm
    for kind, negated in shared.items():
        assert _negated_body(TEMPLATES[kind][1]) is negated, kind
    for kind, (_, bits, edges, atoms) in shared.items():
        _negated_body.cache_clear()
        _, fresh_bits, fresh_edges, fresh_atoms = _negated_body(TEMPLATES[kind][1])
        assert list(fresh_bits.items()) == list(bits.items()), kind
        assert list(fresh_edges.items()) == list(edges.items()), kind
        assert fresh_atoms == atoms, kind
