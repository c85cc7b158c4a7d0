"""Two-trace hyperproperty formulas: AST, surface syntax, templates, evaluation.

A formula is a quantifier prefix over exactly two trace variables followed by
an LTL body whose atoms are propositions anchored to one trace, written
"x:<state>@p1", "o:<observation>@p1" or "tau@p1".  The relations obseq(p,q)
and stateeq(p,q) state agreement of the observation (resp. state)
propositions of the two traces at an instant, and InSet(name, p) states that
trace p is in a named set of states, bound to its states by the formula's
`sets`.  These are leaves of their own: the Büchi translation treats them as
literals of the pair letter, and the engines decide them there.

property_template instantiates the nine built-in observational properties
with the relations and the fault, initial and secret sets left as leaves, so
a template's body depends on the property alone; every engine and witness
replay reads it as it stands.  expand_macros rewrites the leaves, given the
binding, into biconditional conjunctions and state disjunctions over an
automaton's alphabet, and property_formula returns the templates so
expanded (no helper nodes left): the printable surface form, and the
reference tests compare the templates against.  eval_body decides a body on
ultimately periodic traces by fixpoint iteration and serves as the semantic
reference the automaton-based engines are checked against.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ArityError, FormulaSyntaxError, MissingAnnotation, UnboundTraceVar


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Atom:
    prop: str           # "x:<state>", "o:<observation>" or "tau"
    trace: str


@dataclass(frozen=True)
class Not:
    sub: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True)
class Iff:
    left: object
    right: object


@dataclass(frozen=True)
class Next:
    sub: object


@dataclass(frozen=True)
class Until:
    left: object
    right: object


@dataclass(frozen=True)
class Release:
    """Dual of Until; produced by desugaring, not part of the surface syntax."""
    left: object
    right: object


@dataclass(frozen=True)
class Eventually:
    sub: object


@dataclass(frozen=True)
class Always:
    sub: object


@dataclass(frozen=True)
class Once:
    """Holds at exactly one instant from now on (surface operator F1)."""
    sub: object


@dataclass(frozen=True)
class ObsEq:
    left: str
    right: str


@dataclass(frozen=True)
class StateEq:
    left: str
    right: str


@dataclass(frozen=True)
class InSet:
    """The state of a trace lies in a named state set; the formula that uses
    it binds the name to the states (see HyperFormula.sets)."""
    name: str           # "fault", "initial", "secret", "nonsecret" or "boundary"
    trace: str


# leaves a letter of the pair composition can contain
LETTER_ATOMS = (Atom, ObsEq, StateEq, InSet)


@dataclass(frozen=True)
class HyperFormula:
    prefix: tuple       # ((quantifier, var), (quantifier, var))
    body: object
    sets: tuple = ()    # ((name, frozenset of states), ...) binding the InSet names

    def quantifiers(self):
        return tuple(q for q, _ in self.prefix)


def alternation_depth(formula: HyperFormula) -> int:
    quants = formula.quantifiers()
    return sum(1 for a, b in zip(quants, quants[1:]) if a != b)


# ---------------------------------------------------------------------------
# surface syntax

_RESERVED = {"forall", "exists", "true", "false", "obseq", "stateeq",
             "X", "U", "F", "G", "F1", "x", "o", "tau"}

_TOKEN_RE = re.compile(r"\s+|<->|->|[!&|().,@:]|[A-Za-z0-9_#]+")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        chunk = m.group(0)
        if not chunk.isspace():
            tokens.append((chunk, pos))
        pos = m.end()
    tokens.append((None, len(text)))  # end marker
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.vars = []

    def peek(self):
        return self.tokens[self.i][0]

    def pos(self):
        return self.tokens[self.i][1]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text, what=None):
        tok, pos = self.take()
        if tok != text:
            raise FormulaSyntaxError(f"expected {what or text!r}, found {tok!r}", pos)
        return tok

    def ident(self, what):
        tok, pos = self.take()
        if tok is None or not tok[0].isalnum() and tok[0] not in "_#":
            raise FormulaSyntaxError(f"expected {what}, found {tok!r}", pos)
        return tok, pos

    def trace_var(self):
        tok, pos = self.ident("a trace variable")
        if tok not in self.vars:
            raise UnboundTraceVar(tok)
        return tok

    def parse(self):
        while self.peek() in ("forall", "exists"):
            quant, _ = self.take()
            name, pos = self.ident("a trace variable name")
            if name in _RESERVED:
                raise FormulaSyntaxError(f"{name!r} is reserved and cannot name a trace", pos)
            if any(name == seen for _, seen in self.vars):
                raise FormulaSyntaxError(f"duplicate trace variable {name!r}", pos)
            self.vars.append((quant, name))
            self.expect(".")
        prefix = tuple(self.vars)
        self.vars = [name for _, name in prefix]
        body = self.iff()
        tok, pos = self.take()
        if tok is not None:
            raise FormulaSyntaxError(f"unexpected trailing input {tok!r}", pos)
        if len(prefix) != 2:
            raise ArityError(f"expected exactly 2 trace quantifiers, found {len(prefix)}")
        return HyperFormula(prefix=prefix, body=body)

    def iff(self):
        left = self.implies()
        if self.peek() == "<->":
            self.take()
            return Iff(left, self.iff())
        return left

    def implies(self):
        left = self.or_()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.implies())
        return left

    def or_(self):
        left = self.and_()
        while self.peek() == "|":
            self.take()
            left = Or(left, self.and_())
        return left

    def and_(self):
        left = self.until()
        while self.peek() == "&":
            self.take()
            left = And(left, self.until())
        return left

    def until(self):
        left = self.unary()
        if self.peek() == "U":
            self.take()
            return Until(left, self.until())
        return left

    def unary(self):
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.unary())
        if tok == "X":
            self.take()
            return Next(self.unary())
        if tok == "F":
            self.take()
            return Eventually(self.unary())
        if tok == "G":
            self.take()
            return Always(self.unary())
        if tok == "F1":
            self.take()
            return Once(self.unary())
        return self.primary()

    def primary(self):
        tok, pos = self.take()
        if tok == "(":
            body = self.iff()
            self.expect(")")
            return body
        if tok == "true":
            return Top()
        if tok == "false":
            return Bottom()
        if tok in ("obseq", "stateeq"):
            self.expect("(")
            left = self.trace_var()
            self.expect(",")
            right = self.trace_var()
            self.expect(")")
            return (ObsEq if tok == "obseq" else StateEq)(left, right)
        if tok == "tau":
            self.expect("@")
            return Atom("tau", self.trace_var())
        if tok in ("x", "o"):
            self.expect(":")
            name, _ = self.ident("a proposition name")
            self.expect("@")
            return Atom(f"{tok}:{name}", self.trace_var())
        if tok is not None and (tok[0].isalnum() or tok[0] in "_#"):
            if self.peek() == ":":
                raise FormulaSyntaxError(f"unknown proposition namespace {tok!r}", pos)
            if tok in self.vars:
                raise FormulaSyntaxError(f"trace variable {tok!r} is not a formula", pos)
            raise UnboundTraceVar(tok)
        raise FormulaSyntaxError(f"expected a formula, found {tok!r}", pos)


def parse_formula(text: str) -> HyperFormula:
    return _Parser(text).parse()


# levels: <-> 1, -> 2, | 3, & 4, U 5, unary 6, atoms 7
_UNARY_SYMBOL = {Not: "!", Next: "X ", Eventually: "F ", Always: "G ", Once: "F1 "}


def _fmt(node, level):
    t = type(node)
    if t is Top:
        return "true"
    if t is Bottom:
        return "false"
    if t is Atom:
        return f"{node.prop}@{node.trace}"
    if t is ObsEq:
        return f"obseq({node.left},{node.right})"
    if t is StateEq:
        return f"stateeq({node.left},{node.right})"
    if t in _UNARY_SYMBOL:
        return _maybe_paren(f"{_UNARY_SYMBOL[t]}{_fmt(node.sub, 6)}", 6, level)
    if t is Until:
        return _maybe_paren(f"{_fmt(node.left, 6)} U {_fmt(node.right, 5)}", 5, level)
    if t is And:
        return _maybe_paren(f"{_fmt(node.left, 4)} & {_fmt(node.right, 5)}", 4, level)
    if t is Or:
        return _maybe_paren(f"{_fmt(node.left, 3)} | {_fmt(node.right, 4)}", 3, level)
    if t is Implies:
        return _maybe_paren(f"{_fmt(node.left, 3)} -> {_fmt(node.right, 2)}", 2, level)
    if t is Iff:
        return _maybe_paren(f"{_fmt(node.left, 2)} <-> {_fmt(node.right, 1)}", 1, level)
    raise TypeError(f"cannot print {t.__name__} in the surface syntax")


def _maybe_paren(text, node_level, required):
    return f"({text})" if node_level < required else text


def format_formula(formula: HyperFormula) -> str:
    prefix = " ".join(f"{q} {v}." for q, v in formula.prefix)
    return f"{prefix} {_fmt(formula.body, 0)}"


# ---------------------------------------------------------------------------
# macro expansion, desugaring


def expand_macros(body, fsa, sets=()):
    """Replace obseq/stateeq/F1 and state-set literals with their definitions
    over an automaton's alphabet.

    `sets` binds the names of InSet literals to state sets, as a formula's
    `sets` does; a literal becomes the disjunction of the state atoms of its
    set, in declaration order.
    """
    obs_props = [f"o:{o}" for o in fsa.observations]
    state_props = [f"x:{x}" for x in fsa.states]
    bound = dict(sets)

    def walk(node):
        t = type(node)
        if t is ObsEq:
            return _prop_agreement(obs_props, node.left, node.right)
        if t is StateEq:
            return _prop_agreement(state_props, node.left, node.right)
        if t is InSet:
            if node.name not in bound:
                raise ValueError(f"no state set is bound to {node.name!r}")
            return _disj(fsa.sort_states(bound[node.name]), node.trace)
        if t is Once:
            return _expand_once(walk(node.sub))
        if t in (Top, Bottom, Atom):
            return node
        if t in (Not, Next, Eventually, Always):
            return t(walk(node.sub))
        return t(walk(node.left), walk(node.right))

    return walk(body)


def _prop_agreement(props, left, right):
    if not props:
        return Top()
    out = None
    for p in props:
        clause = Iff(Atom(p, left), Atom(p, right))
        out = clause if out is None else And(out, clause)
    return out


def _expand_once(sub):
    return And(Eventually(sub), Always(Implies(sub, Next(Always(Not(sub))))))


def desugar(body):
    """Rewrite to the core connectives: atoms, !, &, |, X, U, R.

    Idempotent.  obseq/stateeq and state-set leaves are kept as they are,
    like atoms, and F1 is rewritten through its definition.
    """
    t = type(body)
    if t in (Top, Bottom) or t in LETTER_ATOMS:
        return body
    if t is Not:
        return Not(desugar(body.sub))
    if t is Next:
        return Next(desugar(body.sub))
    if t is And:
        return And(desugar(body.left), desugar(body.right))
    if t is Or:
        return Or(desugar(body.left), desugar(body.right))
    if t is Until:
        return Until(desugar(body.left), desugar(body.right))
    if t is Release:
        return Release(desugar(body.left), desugar(body.right))
    if t is Implies:
        return Or(Not(desugar(body.left)), desugar(body.right))
    if t is Iff:
        a, b = desugar(body.left), desugar(body.right)
        return And(Or(Not(a), b), Or(Not(b), a))
    if t is Eventually:
        return Until(Top(), desugar(body.sub))
    if t is Always:
        return Release(Bottom(), desugar(body.sub))
    if t is Once:
        return desugar(_expand_once(body.sub))
    raise TypeError(f"cannot desugar {t.__name__}")


# ---------------------------------------------------------------------------
# the nine property templates

PROPERTIES = (
    "diagnosability",
    "predictability",
    "i-detectability",
    "strong-detectability",
    "weak-detectability",
    "delayed-detectability",
    "initial-state-opacity",
    "current-state-opacity",
    "infinite-step-opacity",
)

FAULT_PROPERTIES = ("diagnosability", "predictability")
OPACITY_PROPERTIES = ("initial-state-opacity", "current-state-opacity",
                      "infinite-step-opacity")


def _disj(states, var):
    out = None
    for x in states:
        atom = Atom(f"x:{x}", var)
        out = atom if out is None else Or(out, atom)
    return Bottom() if out is None else out


def property_formula(kind, fsa, part=None):
    """Instantiate a built-in property over an automaton.

    Returns (formula, structure_kind) where structure_kind says which
    encoding the formula is to be checked on: "plain" or "modified" (the one
    with stalling twins).  Diagnosability and predictability need the fault
    partition of a refined machine; the opacity properties need declared
    secret states.  The body is property_template's with obseq/stateeq
    expanded over the automaton's alphabet and each state-set literal
    expanded into the disjunction of its states: the form to print in the
    surface syntax.  The engines decide property_template's output.
    """
    formula, structure_kind = property_template(kind, fsa, part)
    body = expand_macros(formula.body, fsa, formula.sets)
    return HyperFormula(formula.prefix, body), structure_kind


def property_template(kind, fsa, part=None):
    """Like property_formula, with the relations and state sets left as
    literals of the pair letter.

    The body is the same for every automaton: obseq/stateeq compare the two
    traces, and InSet("fault" | "initial" | "secret" | "nonsecret", p) says
    that trace p is in that set of states.  The returned formula's `sets`
    binds each of these names to the automaton's states.  The engines decide
    these literals on the pair letter directly, so the Büchi automaton of a
    template depends on the property alone and is translated once per
    process.
    """
    if kind not in PROPERTIES:
        raise ValueError(f"unknown property {kind!r}; expected one of {', '.join(PROPERTIES)}")
    if kind in FAULT_PROPERTIES and part is None:
        raise MissingAnnotation("fault")
    if kind in OPACITY_PROPERTIES and fsa.secret_states is None:
        raise MissingAnnotation("secret")

    forall2 = (("forall", "p1"), ("forall", "p2"))
    obseq = ObsEq("p1", "p2")
    stateeq = StateEq("p1", "p2")

    if kind in FAULT_PROPERTIES:
        fault1 = InSet("fault", "p1")
        fault2 = InSet("fault", "p2")
        if kind == "diagnosability":
            body = Implies(And(Eventually(fault1), Always(obseq)), Eventually(fault2))
        else:
            body = Implies(Until(obseq, fault1), Eventually(fault2))
        return HyperFormula(forall2, body, (("fault", part.fault_states),)), "plain"

    initial = (("initial", fsa.initial),)
    if kind == "i-detectability":
        body = Implies(And(InSet("initial", "p1"), And(InSet("initial", "p2"), Always(obseq))),
                       stateeq)
        return HyperFormula(forall2, body, initial), "plain"
    if kind == "strong-detectability":
        body = Implies(Always(obseq), Eventually(Always(stateeq)))
        return HyperFormula(forall2, body), "plain"
    if kind == "weak-detectability":
        body = Implies(Always(obseq), Eventually(Always(stateeq)))
        return HyperFormula((("exists", "p1"), ("forall", "p2")), body), "plain"
    if kind == "delayed-detectability":
        body = Implies(Always(obseq), Always(stateeq))
        return HyperFormula(forall2, body), "plain"

    forall_exists = (("forall", "p1"), ("exists", "p2"))
    secret = fsa.secret_states
    sets = (("secret", secret),
            ("nonsecret", frozenset(x for x in fsa.states if x not in secret)))

    if kind == "initial-state-opacity":
        body = Implies(And(InSet("initial", "p1"), InSet("secret", "p1")),
                       And(InSet("initial", "p2"),
                           And(Always(obseq), InSet("nonsecret", "p2"))))
        return HyperFormula(forall_exists, body, initial + sets), "plain"

    tau1 = Atom("tau", "p1")
    tau2 = Atom("tau", "p2")
    secret_pause = And(_expand_once(tau1), Always(Implies(tau1, InSet("secret", "p1"))))
    reveal_free = Always(Implies(tau1, And(tau2, InSet("nonsecret", "p2"))))
    if kind == "current-state-opacity":
        body = Implies(secret_pause, And(Until(obseq, tau1), reveal_free))
    else:
        body = Implies(secret_pause, And(Always(obseq), reveal_free))
    return HyperFormula(forall_exists, body, sets), "modified"


# ---------------------------------------------------------------------------
# evaluation on ultimately periodic traces


def eval_body(body, assignment, sets=()):
    """Truth value at instant 0 of a body over ultimately periodic traces.

    `assignment` maps each trace variable to a pair (stem, cycle) of label
    sequences (sets of propositions).  `sets` binds the names of InSet
    literals as in expand_macros: a literal holds where the trace's label
    names a state of its set.  Temporal operators are solved by monotone
    fixpoint iteration over the finitely many distinct suffixes of the
    combined trace.
    """
    bound = dict(sets)
    stems = {v: tuple(sc[0]) for v, sc in assignment.items()}
    cycles = {v: tuple(sc[1]) for v, sc in assignment.items()}
    for v, c in cycles.items():
        if not c:
            raise ValueError(f"trace {v!r} has an empty cycle")
    stem_len = max((len(s) for s in stems.values()), default=0)
    period = math.lcm(*(len(c) for c in cycles.values())) if cycles else 1
    n = stem_len + period

    def label(v, i):
        s = stems[v]
        if i < len(s):
            return s[i]
        c = cycles[v]
        return c[(i - len(s)) % len(c)]

    def nxt(i):
        return i + 1 if i + 1 < n else stem_len

    def props_of(v, i, prefix):
        return frozenset(p for p in label(v, i) if p.startswith(prefix))

    cache = {}

    def arr(node):
        key = node
        if key in cache:
            return cache[key]
        t = type(node)
        if t is Top:
            out = [True] * n
        elif t is Bottom:
            out = [False] * n
        elif t is Atom:
            out = [node.prop in label(node.trace, i) for i in range(n)]
        elif t is ObsEq:
            out = [props_of(node.left, i, "o:") == props_of(node.right, i, "o:")
                   for i in range(n)]
        elif t is StateEq:
            out = [props_of(node.left, i, "x:") == props_of(node.right, i, "x:")
                   for i in range(n)]
        elif t is InSet:
            if node.name not in bound:
                raise ValueError(f"no state set is bound to {node.name!r}")
            members = {f"x:{x}" for x in bound[node.name]}
            out = [not members.isdisjoint(label(node.trace, i)) for i in range(n)]
        elif t is Not:
            sub = arr(node.sub)
            out = [not b for b in sub]
        elif t is And:
            a, b = arr(node.left), arr(node.right)
            out = [p and q for p, q in zip(a, b)]
        elif t is Or:
            a, b = arr(node.left), arr(node.right)
            out = [p or q for p, q in zip(a, b)]
        elif t is Implies:
            a, b = arr(node.left), arr(node.right)
            out = [(not p) or q for p, q in zip(a, b)]
        elif t is Iff:
            a, b = arr(node.left), arr(node.right)
            out = [p == q for p, q in zip(a, b)]
        elif t is Next:
            sub = arr(node.sub)
            out = [sub[nxt(i)] for i in range(n)]
        elif t is Until:
            a, b = arr(node.left), arr(node.right)
            out = _lfp(n, nxt, lambda i, val: b[i] or (a[i] and val[nxt(i)]))
        elif t is Eventually:
            b = arr(node.sub)
            out = _lfp(n, nxt, lambda i, val: b[i] or val[nxt(i)])
        elif t is Always:
            a = arr(node.sub)
            out = _gfp(n, nxt, lambda i, val: a[i] and val[nxt(i)])
        elif t is Release:
            a, b = arr(node.left), arr(node.right)
            out = _gfp(n, nxt, lambda i, val: b[i] and (a[i] or val[nxt(i)]))
        elif t is Once:
            out = arr(_expand_once(node.sub))
        else:
            raise TypeError(f"cannot evaluate {t.__name__}")
        cache[key] = out
        return out

    return arr(body)[0]


def _lfp(n, nxt, update):
    val = [False] * n
    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            if not val[i] and update(i, val):
                val[i] = True
                changed = True
    return val


def _gfp(n, nxt, update):
    val = [True] * n
    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            if val[i] and not update(i, val):
                val[i] = False
                changed = True
    return val
