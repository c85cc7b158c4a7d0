"""Büchi translation: known languages, duality, agreement with eval_body."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hyperdes.buchi import Guard, ltl_to_buchi, nnf
from hyperdes.formula import (
    Always,
    And,
    Atom,
    Bottom,
    Eventually,
    Next,
    Not,
    ObsEq,
    Or,
    Release,
    StateEq,
    Top,
    Until,
    desugar,
    eval_body,
)
from support import accepts_lasso, assignment_letters, random_body, random_lasso_labels

A = Atom("a", "p1")
B = Atom("b", "p1")


def word(*insts):
    """Letters from compact prop tuples, e.g. word(("a",), (), ("a", "b"))."""
    return [frozenset(Atom(p, "p1") for p in inst) for inst in insts]


def test_nnf_pushes_negations():
    assert nnf(Not(Not(A))) == A
    assert nnf(Not(And(A, B))) == Or(Not(A), Not(B))
    assert nnf(Not(Until(A, B))) == Release(Not(A), Not(B))
    assert nnf(Not(Release(A, B))) == Until(Not(A), Not(B))
    assert nnf(Not(Next(A))) == Next(Not(A))
    assert nnf(Not(Top())) == Bottom()


def test_nnf_keeps_relations_as_literals():
    """obseq/stateeq are leaves of the letter: a negated relation stays a
    negated literal instead of being pushed into an expansion."""
    eqo = ObsEq("p1", "p2")
    eqs = StateEq("p2", "p1")
    assert nnf(eqo) == eqo
    assert nnf(Not(eqo)) == Not(eqo)
    assert nnf(Not(Not(eqs))) == eqs
    assert nnf(Not(And(eqo, eqs))) == Or(Not(eqo), Not(eqs))
    assert desugar(Not(eqo)) == Not(eqo)


def test_guard_admission():
    g = Guard(pos=frozenset({A}), neg=frozenset({B}))
    assert g.admits(frozenset({A}))
    assert not g.admits(frozenset({A, B}))
    assert not g.admits(frozenset())


def test_always_language():
    ba = ltl_to_buchi(Always(A))
    assert accepts_lasso(ba, word(), word(("a",)))
    assert accepts_lasso(ba, word(("a",), ("a",)), word(("a", "b"),))
    assert not accepts_lasso(ba, word(("a",)), word(()))
    assert not accepts_lasso(ba, word(()), word(("a",)))


def test_eventually_language():
    ba = ltl_to_buchi(Eventually(A))
    assert accepts_lasso(ba, word(), word(("a",)))
    assert accepts_lasso(ba, word((), (), ("a",)), word(()))
    assert not accepts_lasso(ba, word((), ()), word(()))


def test_until_language():
    ba = ltl_to_buchi(Until(A, B))
    assert accepts_lasso(ba, word(("a",), ("a",), ("b",)), word(()))
    assert accepts_lasso(ba, word(("b",),), word(()))
    assert not accepts_lasso(ba, word(("a",), ("a",)), word(("a",)))
    assert not accepts_lasso(ba, word(("a",), ()), word(("b",)))


def test_next_language():
    ba = ltl_to_buchi(Next(A))
    assert accepts_lasso(ba, word((), ("a",)), word(()))
    assert not accepts_lasso(ba, word(("a",), ()), word(()))
    assert accepts_lasso(ba, word(), word(("a",)))


def test_infinitely_often_language():
    ba = ltl_to_buchi(Always(Eventually(A)))
    assert accepts_lasso(ba, word(), word(("a",), ()))
    assert accepts_lasso(ba, word(("a",),), word((), ("a",)))
    assert not accepts_lasso(ba, word(("a",), ("a",)), word(()))


def test_eventually_always_language():
    ba = ltl_to_buchi(Eventually(Always(A)))
    assert accepts_lasso(ba, word((), ()), word(("a",)))
    assert not accepts_lasso(ba, word(("a",),), word(("a",), ()))


def test_conjunction_of_fairness_constraints():
    """Two until subformulas exercise the acceptance counter."""
    ba = ltl_to_buchi(And(Always(Eventually(A)), Always(Eventually(B))))
    assert accepts_lasso(ba, word(), word(("a",), ("b",)))
    assert accepts_lasso(ba, word(), word(("a", "b"),))
    assert not accepts_lasso(ba, word(), word(("a",), ()))
    assert not accepts_lasso(ba, word(), word(("b",),))


def test_contradiction_accepts_nothing():
    ba = ltl_to_buchi(And(A, Not(A)))
    assert not accepts_lasso(ba, word(("a",),), word(("a",),))
    ba = ltl_to_buchi(Bottom())
    assert not accepts_lasso(ba, word(()), word(()))


def test_tautology_accepts_everything():
    ba = ltl_to_buchi(Or(A, Not(A)))
    assert accepts_lasso(ba, word(()), word(("a", "b"), ()))


def test_until_onto_trivial_right_accepts_everything():
    """A trivially true right side discharges its until at every instant;
    the processed sets never record it, so the fairness sets must not rely
    on finding it there."""
    for body in (Eventually(Top()), Always(Eventually(Top())),
                 Until(A, Top())):
        ba = ltl_to_buchi(body)
        assert accepts_lasso(ba, word(), word(()))
        assert accepts_lasso(ba, word(("b",)), word(("a",), ()))
    ba = ltl_to_buchi(Not(Always(Eventually(Top()))))
    assert not accepts_lasso(ba, word(), word(()))
    ba = ltl_to_buchi(Always(Eventually(Bottom())))
    assert not accepts_lasso(ba, word(), word(("a",)))


def test_empty_cycle_rejected():
    ba = ltl_to_buchi(Top())
    with pytest.raises(ValueError):
        accepts_lasso(ba, word(("a",),), [])


def test_translation_deterministic():
    body = And(Always(Eventually(A)), Until(A, B))
    ba1, ba2 = ltl_to_buchi(body), ltl_to_buchi(body)
    assert ba1.states == ba2.states
    assert ba1.edges == ba2.edges
    assert ba1.accepting == ba2.accepting


_labels = st.frozensets(st.sampled_from(("a", "x:0", "x:1", "o:o1", "o:o2", "tau")),
                        max_size=3)
_lassos = st.tuples(st.lists(_labels, max_size=3),
                    st.lists(_labels, min_size=1, max_size=3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), t1=_lassos, t2=_lassos)
def test_buchi_agrees_with_eval_body(seed, t1, t2):
    body = random_body(random.Random(seed))
    assign = {"p1": (tuple(t1[0]), tuple(t1[1])),
              "p2": (tuple(t2[0]), tuple(t2[1]))}
    stem, cycle = assignment_letters(assign)
    ba = ltl_to_buchi(body)
    assert accepts_lasso(ba, stem, cycle) == eval_body(body, assign)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_exactly_one_of_formula_and_negation_accepts(seed):
    rng = random.Random(seed)
    body = random_body(rng)
    assign = {"p1": random_lasso_labels(rng), "p2": random_lasso_labels(rng)}
    stem, cycle = assignment_letters(assign)
    pos = accepts_lasso(ltl_to_buchi(body), stem, cycle)
    neg = accepts_lasso(ltl_to_buchi(Not(body)), stem, cycle)
    assert pos != neg


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_desugaring_preserves_the_language(seed):
    rng = random.Random(seed)
    body = random_body(rng)
    assign = {"p1": random_lasso_labels(rng), "p2": random_lasso_labels(rng)}
    stem, cycle = assignment_letters(assign)
    assert accepts_lasso(ltl_to_buchi(body), stem, cycle) == \
        accepts_lasso(ltl_to_buchi(desugar(body)), stem, cycle)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), t1=_lassos, t2=_lassos)
def test_buchi_agrees_with_eval_body_on_relations(seed, t1, t2):
    """Bodies with obseq/stateeq leaves, in either argument order or
    reflexive, translate as they stand; the letters carry the relations that
    hold, computed from the label sets."""
    body = random_body(random.Random(seed), relations=True)
    assign = {"p1": (tuple(t1[0]), tuple(t1[1])),
              "p2": (tuple(t2[0]), tuple(t2[1]))}
    stem, cycle = assignment_letters(assign)
    assert accepts_lasso(ltl_to_buchi(body), stem, cycle) == eval_body(body, assign)
    assert accepts_lasso(ltl_to_buchi(Not(body)), stem, cycle) != eval_body(body, assign)
