"""Formula layer: parsing, printing, templates, lasso evaluation.

The naive evaluator at the bottom resolves temporal operators by unfolding
with cycle detection along the (deterministic) suffix chain, which is a
different algorithm than the fixpoint sweeps inside eval_body; the two are
compared on random formulas and random ultimately periodic traces.
"""

import pytest
from hypothesis import given, settings, strategies as st

from hyperdes.des import refine_fault_partition
from hyperdes.errors import (
    ArityError,
    FormulaSyntaxError,
    MissingAnnotation,
    UnboundTraceVar,
)
from hyperdes.formula import (
    Always,
    And,
    Atom,
    Bottom,
    Eventually,
    HyperFormula,
    Iff,
    Implies,
    InSet,
    Next,
    Not,
    ObsEq,
    Once,
    Or,
    StateEq,
    Top,
    Until,
    alternation_depth,
    desugar,
    eval_body,
    expand_macros,
    format_formula,
    parse_formula,
    property_formula,
    property_template,
)
from hyperdes.kripke import build_kripke

FF = (("forall", "p1"), ("forall", "p2"))


def body_of(text):
    return parse_formula("forall p1. forall p2. " + text).body


# ---------------------------------------------------------------------------
# parsing


def test_parse_prefix_and_atoms():
    f = parse_formula("forall p1. exists p2. x:1@p1 & tau@p2")
    assert f.prefix == (("forall", "p1"), ("exists", "p2"))
    assert f.body == And(Atom("x:1", "p1"), Atom("tau", "p2"))


def test_parse_precedence_and_over_or():
    assert body_of("tau@p1 & tau@p2 | x:1@p1") == \
        Or(And(Atom("tau", "p1"), Atom("tau", "p2")), Atom("x:1", "p1"))


def test_parse_implies_right_assoc():
    assert body_of("x:1@p1 -> o:o1@p2 -> false") == \
        Implies(Atom("x:1", "p1"), Implies(Atom("o:o1", "p2"), Bottom()))


def test_parse_until_right_assoc_and_binds_tighter_than_and():
    assert body_of("tau@p1 U tau@p2 U x:1@p1") == \
        Until(Atom("tau", "p1"), Until(Atom("tau", "p2"), Atom("x:1", "p1")))
    assert body_of("tau@p1 U tau@p2 & x:1@p1 U x:1@p2") == \
        And(Until(Atom("tau", "p1"), Atom("tau", "p2")),
            Until(Atom("x:1", "p1"), Atom("x:1", "p2")))


def test_parse_unary_binds_tighter_than_until():
    assert body_of("! F tau@p1 U x:1@p2") == \
        Until(Not(Eventually(Atom("tau", "p1"))), Atom("x:1", "p2"))


def test_parse_helpers_and_constants():
    assert body_of("obseq(p1,p2) <-> stateeq(p2,p1)") == \
        Iff(ObsEq("p1", "p2"), StateEq("p2", "p1"))
    assert body_of("true & false") == And(Top(), Bottom())
    assert body_of("F1 tau@p1") == Once(Atom("tau", "p1"))
    assert body_of("X G o:o2@p2") == Next(Always(Atom("o:o2", "p2")))


def test_parse_hash_in_proposition_names():
    assert body_of("x:4#F@p1") == Atom("x:4#F", "p1")


def test_unbound_trace_variable():
    with pytest.raises(UnboundTraceVar) as exc:
        parse_formula("forall p1. p2")
    assert exc.value.var == "p2"
    with pytest.raises(UnboundTraceVar):
        parse_formula("forall p1. forall p2. x:1@p3")
    with pytest.raises(UnboundTraceVar):
        parse_formula("forall p1. forall p2. obseq(p1,q)")


def test_quantifier_arity():
    with pytest.raises(ArityError):
        parse_formula("forall p1. x:1@p1")
    with pytest.raises(ArityError):
        parse_formula("forall p1. forall p2. forall p3. x:1@p1")


def test_syntax_errors_carry_positions():
    cases = [
        "forall p1. forall p2. x:1@p1 &",
        "forall p1. forall p2. (x:1@p1",
        "forall p1. forall p2. y:1@p1",
        "forall p1. forall p2. tau p1",
        "forall p1. forall p2. x:1@p1 x:1@p2",
        "forall p1. forall p1. x:1@p1",
        "forall x. forall p2. tau@p2",
        "forall p1. forall p2. p1",
    ]
    for text in cases:
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(text)
        assert 0 <= exc.value.position <= len(text)


def test_unexpected_character_position():
    text = "forall p1. forall p2. x:1@p1 $"
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(text)
    assert exc.value.position == text.index("$")


# ---------------------------------------------------------------------------
# printing round-trips


def all_templates(g_diag, g_det, g_opa):
    refined, part = refine_fault_partition(g_diag)
    out = []
    for kind in ("diagnosability", "predictability"):
        out.append(property_formula(kind, refined, part))
    for kind in ("i-detectability", "strong-detectability",
                 "weak-detectability", "delayed-detectability"):
        out.append(property_formula(kind, g_det))
    for kind in ("initial-state-opacity", "current-state-opacity",
                 "infinite-step-opacity"):
        out.append(property_formula(kind, g_opa))
    return out


def test_templates_round_trip_through_text(g_diag, g_det, g_opa):
    for formula, _ in all_templates(g_diag, g_det, g_opa):
        assert parse_formula(format_formula(formula)) == formula


_PROPS = ("x:0", "x:1", "o:o1", "o:o2", "tau")
_TRACES = ("p1", "p2")

_atoms = st.builds(Atom, st.sampled_from(_PROPS), st.sampled_from(_TRACES))
_leaves = st.one_of(
    _atoms,
    st.just(Top()),
    st.just(Bottom()),
    st.builds(ObsEq, st.sampled_from(_TRACES), st.sampled_from(_TRACES)),
    st.builds(StateEq, st.sampled_from(_TRACES), st.sampled_from(_TRACES)),
)
_bodies = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(Next, kids),
        st.builds(Eventually, kids),
        st.builds(Always, kids),
        st.builds(Once, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Implies, kids, kids),
        st.builds(Iff, kids, kids),
        st.builds(Until, kids, kids),
    ),
    max_leaves=8,
)
_prefixes = st.sampled_from((
    (("forall", "p1"), ("forall", "p2")),
    (("forall", "p1"), ("exists", "p2")),
    (("exists", "p1"), ("forall", "p2")),
    (("exists", "p1"), ("exists", "p2")),
))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(prefix=_prefixes, body=_bodies)
def test_random_formulas_round_trip(prefix, body):
    formula = HyperFormula(prefix, body)
    assert parse_formula(format_formula(formula)) == formula


# ---------------------------------------------------------------------------
# templates


def contains_helper_nodes(node):
    t = type(node)
    if t in (ObsEq, StateEq, InSet, Once):
        return True
    if t in (Atom, Top, Bottom):
        return False
    if hasattr(node, "sub"):
        return contains_helper_nodes(node.sub)
    return contains_helper_nodes(node.left) or contains_helper_nodes(node.right)


def test_templates_are_fully_expanded(g_diag, g_det, g_opa):
    for formula, _ in all_templates(g_diag, g_det, g_opa):
        assert not contains_helper_nodes(formula.body)


def test_template_structure_kinds(g_diag, g_det, g_opa):
    refined, part = refine_fault_partition(g_diag)
    for kind, expected in [
        ("diagnosability", "plain"), ("predictability", "plain"),
    ]:
        assert property_formula(kind, refined, part)[1] == expected
    for kind in ("i-detectability", "strong-detectability",
                 "weak-detectability", "delayed-detectability"):
        assert property_formula(kind, g_det)[1] == "plain"
    assert property_formula("initial-state-opacity", g_opa)[1] == "plain"
    assert property_formula("current-state-opacity", g_opa)[1] == "modified"
    assert property_formula("infinite-step-opacity", g_opa)[1] == "modified"


def test_alternation_depths(g_diag, g_det, g_opa):
    refined, part = refine_fault_partition(g_diag)
    zero = [property_formula(k, refined, part)[0]
            for k in ("diagnosability", "predictability")]
    zero += [property_formula(k, g_det)[0]
             for k in ("i-detectability", "strong-detectability",
                       "delayed-detectability")]
    one = [property_formula("weak-detectability", g_det)[0]]
    one += [property_formula(k, g_opa)[0]
            for k in ("initial-state-opacity", "current-state-opacity",
                      "infinite-step-opacity")]
    for f in zero:
        assert alternation_depth(f) == 0
    for f in one:
        assert alternation_depth(f) == 1


def test_diagnosability_template_shape(g_diag):
    refined, part = refine_fault_partition(g_diag)
    formula, _ = property_formula("diagnosability", refined, part)
    assert formula.prefix == FF
    body = formula.body
    assert isinstance(body, Implies)
    assert body.left.left == Eventually(Atom("x:2", "p1"))
    assert body.right == Eventually(Atom("x:2", "p2"))
    assert isinstance(body.left.right, Always)


def test_initial_state_opacity_consequent_pins_pi2_to_initial(g_opa):
    """The witness trace must itself start in an initial state; that
    requirement sits in the consequent so it constrains the chosen trace."""
    formula, _ = property_formula("initial-state-opacity", g_opa)
    assert formula.prefix == (("forall", "p1"), ("exists", "p2"))
    consequent = formula.body.right
    assert consequent.left == Or(Atom("x:0", "p2"), Atom("x:3", "p2"))


def test_current_state_opacity_uses_until_to_the_pause(g_opa):
    formula, kind = property_formula("current-state-opacity", g_opa)
    assert kind == "modified"
    until = formula.body.right.left
    assert isinstance(until, Until)
    assert until.right == Atom("tau", "p1")


def test_obseq_expansion_counts(g_det):
    expanded = expand_macros(ObsEq("p1", "p2"), g_det)
    iffs = []
    stack = [expanded]
    while stack:
        node = stack.pop()
        if isinstance(node, Iff):
            iffs.append(node)
        elif isinstance(node, And):
            stack.extend([node.left, node.right])
    assert len(iffs) == len(g_det.observations) == 3
    via_kripke = expand_macros(ObsEq("p1", "p2"), build_kripke(g_det).fsa)
    assert via_kripke == expanded


def test_template_bodies_do_not_depend_on_the_model(g_diag, g_det, g_opa):
    """A template names its state sets; only the binding differs between
    machines, and expanding the template with it gives property_formula."""
    refined, part = refine_fault_partition(g_diag)
    for kind in ("diagnosability", "predictability"):
        template, _ = property_template(kind, refined, part)
        assert template.sets == (("fault", part.fault_states),)
        assert property_formula(kind, refined, part)[0] == HyperFormula(
            template.prefix, expand_macros(template.body, refined, template.sets))
    for kind in ("i-detectability", "strong-detectability", "delayed-detectability",
                 "initial-state-opacity", "current-state-opacity", "infinite-step-opacity"):
        machines = (g_opa,) if "opacity" in kind else (g_opa, g_det)
        templates = [property_template(kind, fsa)[0] for fsa in machines]
        assert len({t.body for t in templates}) == 1
        for fsa, template in zip(machines, templates):
            assert property_formula(kind, fsa)[0] == HyperFormula(
                template.prefix, expand_macros(template.body, fsa, template.sets))
    sets = dict(property_template("initial-state-opacity", g_opa)[0].sets)
    assert sets["initial"] == g_opa.initial
    assert sets["secret"] == g_opa.secret_states
    assert sets["nonsecret"] == frozenset(g_opa.states) - g_opa.secret_states


def test_set_literal_expands_in_declaration_order(g_det):
    """A set literal becomes the disjunction of its states' atoms, in the
    order the machine declares them, and needs a binding."""
    chosen = frozenset(g_det.states[:3])
    expanded = expand_macros(InSet("chosen", "p2"), g_det, (("chosen", chosen),))
    first, second, third = (Atom(f"x:{x}", "p2") for x in g_det.states[:3])
    assert expanded == Or(Or(first, second), third)
    assert expand_macros(InSet("none", "p1"), g_det, (("none", frozenset()),)) == Bottom()
    with pytest.raises(ValueError):
        expand_macros(InSet("chosen", "p1"), g_det)


def test_missing_annotations(g_det, g_diag):
    with pytest.raises(MissingAnnotation) as exc:
        property_formula("diagnosability", g_det)
    assert exc.value.kind == "fault"
    with pytest.raises(MissingAnnotation) as exc:
        property_formula("initial-state-opacity", g_det)
    assert exc.value.kind == "secret"
    with pytest.raises(ValueError):
        property_formula("liveness", g_det)


# ---------------------------------------------------------------------------
# desugaring


def test_desugar_idempotent_on_templates(g_diag, g_det, g_opa):
    for formula, _ in all_templates(g_diag, g_det, g_opa):
        once = desugar(formula.body)
        assert desugar(once) == once


@settings(max_examples=80, deadline=None, derandomize=True)
@given(body=_bodies)
def test_desugar_idempotent_on_random_formulas(body):
    once = desugar(strip_helpers(body))
    assert desugar(once) == once


def strip_helpers(node):
    """Replace obseq/stateeq with plain atoms so desugar applies."""
    t = type(node)
    if t in (ObsEq, StateEq):
        return Atom("x:0", node.left)
    if t in (Atom, Top, Bottom):
        return node
    if hasattr(node, "sub"):
        return t(strip_helpers(node.sub))
    return t(strip_helpers(node.left), strip_helpers(node.right))


# ---------------------------------------------------------------------------
# evaluation


def lasso(stem, cycle):
    return tuple(frozenset(s) for s in stem), tuple(frozenset(c) for c in cycle)


def test_eval_atoms_and_boolean_ops():
    assign = {"p1": lasso([{"x:0"}], [{"x:1", "o:o1"}]),
              "p2": lasso([{"x:3"}], [{"x:1", "o:o1"}])}
    assert eval_body(Atom("x:0", "p1"), assign)
    assert not eval_body(Atom("x:0", "p2"), assign)
    assert eval_body(Or(Atom("x:0", "p2"), Atom("x:3", "p2")), assign)
    assert eval_body(Implies(Atom("x:9", "p1"), Bottom()), assign)


def test_eval_obs_agreement_is_vacuous_at_instant_zero():
    """Initial labels carry no observation proposition, so agreement holds
    there regardless of the states."""
    assign = {"p1": lasso([{"x:0"}], [{"x:1", "o:o1"}]),
              "p2": lasso([{"x:3"}], [{"x:1", "o:o1"}])}
    assert eval_body(ObsEq("p1", "p2"), assign)
    assert eval_body(Always(ObsEq("p1", "p2")), assign)
    assert not eval_body(Always(StateEq("p1", "p2")), assign)
    assert eval_body(Next(StateEq("p1", "p2")), assign)


def test_eval_obs_disagreement():
    assign = {"p1": lasso([], [{"x:1", "o:o1"}]),
              "p2": lasso([], [{"x:1", "o:o2"}])}
    assert not eval_body(ObsEq("p1", "p2"), assign)
    assert eval_body(StateEq("p1", "p2"), assign)


def test_eval_set_literal_agrees_with_its_expansion(g_det):
    """eval_body decides a set literal from its binding, as the expanded
    disjunction would, and refuses an unbound name."""
    chosen = (("chosen", frozenset(g_det.states[:3])),)
    literal = Always(Or(InSet("chosen", "p1"), Not(InSet("chosen", "p2"))))
    expanded = expand_macros(literal, g_det, chosen)
    for x, y in [(x, y) for x in g_det.states for y in g_det.states]:
        assign = {"p1": lasso([{f"x:{x}"}], [{f"x:{y}", "o:o1"}]),
                  "p2": lasso([], [{f"x:{y}", "o:o1"}])}
        assert eval_body(literal, assign, chosen) == eval_body(expanded, assign), (x, y)
    with pytest.raises(ValueError):
        eval_body(literal, assign)


def test_eval_until_and_eventually_across_the_wrap():
    assign = {"p1": lasso([{"a"}], [{"a"}, {"b"}]),
              "p2": lasso([], [{}])}
    a, b = Atom("a", "p1"), Atom("b", "p1")
    assert eval_body(Until(a, b), assign)
    assert eval_body(Always(Eventually(b)), assign)
    assert not eval_body(Eventually(Always(b)), assign)
    assert eval_body(Always(Eventually(a)), assign)


def test_eval_next_wraps_into_the_cycle():
    assign = {"p1": lasso([{"s"}], [{"c1"}, {"c2"}])}
    c1, c2 = Atom("c1", "p1"), Atom("c2", "p1")
    assert eval_body(Next(c1), assign)
    assert eval_body(Next(Next(c2)), assign)
    assert eval_body(Next(Next(Next(c1))), assign)


def test_eval_once():
    tau = Atom("tau", "p1")
    empty = {"p2": lasso([], [{}])}
    once_true = {"p1": lasso([{}, {"tau"}], [{}]), **empty}
    twice = {"p1": lasso([{"tau"}, {"tau"}], [{}]), **empty}
    never = {"p1": lasso([{}], [{}]), **empty}
    infinitely = {"p1": lasso([], [{"tau"}, {}]), **empty}
    assert eval_body(Once(tau), once_true)
    assert not eval_body(Once(tau), twice)
    assert not eval_body(Once(tau), never)
    assert not eval_body(Once(tau), infinitely)


def test_eval_mismatched_stem_lengths_align():
    assign = {"p1": lasso([{"a"}, {"a"}, {"a"}], [{"b"}]),
              "p2": lasso([], [{"a"}])}
    assert eval_body(Until(Atom("a", "p1"), Atom("b", "p1")), assign)
    assert eval_body(Always(Atom("a", "p2")), assign)


def test_eval_rejects_empty_cycle():
    with pytest.raises(ValueError):
        eval_body(Top(), {"p1": ((), ())})


# ---------------------------------------------------------------------------
# naive reference evaluator


def naive_eval(body, assignment):
    """Unfolding evaluation with cycle detection along the suffix chain."""
    stems = {v: sc[0] for v, sc in assignment.items()}
    cycles = {v: sc[1] for v, sc in assignment.items()}
    stem_len = max((len(s) for s in stems.values()), default=0)
    period = 1
    for c in cycles.values():
        period = period * len(c) // _gcd(period, len(c))
    n = stem_len + period

    def label(v, i):
        s = stems[v]
        if i < len(s):
            return s[i]
        c = cycles[v]
        return c[(i - len(s)) % len(c)]

    def nxt(i):
        return i + 1 if i + 1 < n else stem_len

    def value(node, i, active):
        t = type(node)
        if t is Top:
            return True
        if t is Bottom:
            return False
        if t is Atom:
            return node.prop in label(node.trace, i)
        if t is ObsEq:
            return ({p for p in label(node.left, i) if p.startswith("o:")}
                    == {p for p in label(node.right, i) if p.startswith("o:")})
        if t is StateEq:
            return ({p for p in label(node.left, i) if p.startswith("x:")}
                    == {p for p in label(node.right, i) if p.startswith("x:")})
        if t is Not:
            return not value(node.sub, i, active)
        if t is And:
            return value(node.left, i, active) and value(node.right, i, active)
        if t is Or:
            return value(node.left, i, active) or value(node.right, i, active)
        if t is Implies:
            return (not value(node.left, i, active)) or value(node.right, i, active)
        if t is Iff:
            return value(node.left, i, active) == value(node.right, i, active)
        if t is Next:
            return value(node.sub, nxt(i), active)
        if t is Once:
            return value(And(Eventually(node.sub),
                             Always(Implies(node.sub, Next(Always(Not(node.sub)))))),
                         i, active)
        key = (id(node), i)
        if t in (Until, Eventually):
            if key in active:
                return False
            right = node.right if t is Until else node.sub
            left = node.left if t is Until else Top()
            if value(right, i, active):
                return True
            if not value(left, i, active):
                return False
            return value(node, nxt(i), active | {key})
        if t is Always:
            if key in active:
                return True
            if not value(node.sub, i, active):
                return False
            return value(node, nxt(i), active | {key})
        raise TypeError(type(node).__name__)

    return value(body, 0, frozenset())


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


_label_sets = st.frozensets(
    st.sampled_from(("a", "x:0", "x:1", "o:o1", "o:o2", "tau")), max_size=3)
_lassos = st.tuples(st.lists(_label_sets, max_size=3),
                    st.lists(_label_sets, min_size=1, max_size=3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(body=_bodies, t1=_lassos, t2=_lassos)
def test_eval_body_matches_naive_unfolding(body, t1, t2):
    assign = {"p1": (tuple(t1[0]), tuple(t1[1])),
              "p2": (tuple(t2[0]), tuple(t2[1]))}
    assert eval_body(body, assign) == naive_eval(body, assign)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(body=_bodies, t1=_lassos, t2=_lassos)
def test_eval_body_invariant_under_desugaring(body, t1, t2):
    assign = {"p1": (tuple(t1[0]), tuple(t1[1])),
              "p2": (tuple(t2[0]), tuple(t2[1]))}
    stripped = strip_helpers(body)
    assert eval_body(stripped, assign) == eval_body(desugar(stripped), assign)
