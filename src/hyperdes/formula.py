"""Two-trace hyperproperty formulas: AST, surface syntax, templates, evaluation.

A formula is a quantifier prefix over exactly two trace variables followed by
an LTL body whose atoms are propositions anchored to one trace, written
"x:<state>@p1", "o:<observation>@p1" or "tau@p1".  The relations obseq(p,q)
and stateeq(p,q) state agreement of the observation (resp. state)
propositions of the two traces at an instant, and InSet(name, p) states that
trace p is in a named set of states, bound to its states by the formula's
`sets`.  These are leaves of their own: the Büchi translation treats them as
literals of the pair letter, and the engines decide them there.

missing_annotation says which annotation each built-in property needs, and
property_template gives the formula the hyper route decides for it, with
the relations and the state sets left as leaves, so a template's body
depends on the property alone.  Each body is built once per process, in
TEMPLATES; property_template computes only the machine's `sets`, the states
each set name stands for.  Every engine and witness replay reads the
template as it stands.  expand_macros rewrites the leaves, given the
binding, into biconditional conjunctions and state disjunctions over an
automaton's alphabet, and property_formula returns the templates so
expanded: the printable form of what is decided.  eval_body decides a body
on ultimately periodic traces by fixpoint iteration and serves as the
semantic reference the automaton-based engines are checked against.
Every node of a body keeps its hash once computed, so the caches keyed by
a body, and eval_body's memo, hash each node once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .des import boundary_states, cyclic_states
from .errors import (
    ArityError,
    DuplicateSetName,
    FormulaSyntaxError,
    MissingAnnotation,
    UnboundTraceVar,
    UnknownProperty,
)


# ---------------------------------------------------------------------------
# AST


def _node(cls):
    """A frozen dataclass whose hash is computed on first use and kept.

    A frozen dataclass hashes the tuple of its fields on every call, so a
    lookup keyed by a formula would rehash the whole tree.  Here each node
    keeps its hash, so hashing a tree costs one tuple hash per node, once.
    The hash is the dataclass's own, so equal trees keep equal hashes;
    equality, astuple and repr read the fields and are unchanged."""
    cls = dataclass(frozen=True)(cls)
    fields_hash = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = fields_hash(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


@_node
class Top:
    pass


@_node
class Bottom:
    pass


@_node
class Atom:
    prop: str           # "x:<state>", "o:<observation>" or "tau"
    trace: str


@_node
class Not:
    sub: object


@_node
class And:
    left: object
    right: object


@_node
class Or:
    left: object
    right: object


@_node
class Implies:
    left: object
    right: object


@_node
class Iff:
    left: object
    right: object


@_node
class Next:
    sub: object


@_node
class Until:
    left: object
    right: object


@_node
class Release:
    """Dual of Until; produced by desugaring, not part of the surface syntax."""
    left: object
    right: object


@_node
class Eventually:
    sub: object


@_node
class Always:
    sub: object


@_node
class Once:
    """Holds at exactly one instant from now on (surface operator F1)."""
    sub: object


@_node
class ObsEq:
    left: str
    right: str


@_node
class StateEq:
    left: str
    right: str


@_node
class InSet:
    """The state of a trace lies in a named state set; the formula that uses
    it binds the name to the states (see HyperFormula.sets)."""
    name: str           # "fault", "initial", "secret", "nonsecret", "boundary" or "cyclic"
    trace: str


# leaves a letter of the pair composition can contain
LETTER_ATOMS = (Atom, ObsEq, StateEq, InSet)


@dataclass(frozen=True)
class HyperFormula:
    prefix: tuple       # ((quantifier, var), (quantifier, var))
    body: object
    sets: tuple = ()    # ((name, frozenset of states), ...) binding the InSet names

    def __post_init__(self):
        # the engines read a name as bound by any of its bindings, while
        # eval_body reads only the last, so a name bound twice is refused
        names = set()
        for name, _ in self.sets:
            if name in names:
                raise DuplicateSetName(name)
            names.add(name)

    def quantifiers(self):
        return tuple(q for q, _ in self.prefix)


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


# the binary operators, weakest first, each as (token, node, groups right)
_BINARY = (("<->", Iff, True), ("->", Implies, True), ("|", Or, False),
           ("&", And, False), ("U", Until, True))
_LEVEL = {op: level for level, (op, _, _) in enumerate(_BINARY)}

_UNARY = {"!": Not, "X": Next, "F": Eventually, "G": Always, "F1": Once}


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
        body = self.binary()
        tok, pos = self.take()
        if tok is not None:
            raise FormulaSyntaxError(f"unexpected trailing input {tok!r}", pos)
        if len(prefix) != 2:
            raise ArityError(f"expected exactly 2 trace quantifiers, found {len(prefix)}")
        return HyperFormula(prefix=prefix, body=body)

    def binary(self, level=0):
        """A formula whose binary operators are those of _BINARY from
        `level` on, by precedence climbing: a right-grouping operator reads
        its right operand at its own level, a left-grouping one at the next
        level and then loops, so its chain groups to the left."""
        left = self.unary()
        at = _LEVEL.get(self.peek(), -1)
        while at >= level:
            self.take()
            _, node, right = _BINARY[at]
            left = node(left, self.binary(at if right else at + 1))
            at = _LEVEL.get(self.peek(), -1)
        return left

    def unary(self):
        node = _UNARY.get(self.peek())
        if node is None:
            return self.primary()
        self.take()
        return node(self.unary())

    def primary(self):
        tok, pos = self.take()
        if tok == "(":
            body = self.binary()
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
    if t in (Not, Next):
        return t(desugar(body.sub))
    if t in (And, Or, Until, Release):
        return t(desugar(body.left), desugar(body.right))
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
DETECTABILITY_PROPERTIES = tuple(
    p for p in PROPERTIES if p not in FAULT_PROPERTIES + OPACITY_PROPERTIES)


def missing_annotation(kind, fsa):
    """The annotation property `kind` needs and the machine lacks: "fault"
    for a fault property of a machine without fault events, "secret" for an
    opacity property of one without secret states, else None.  A name that
    is not a built-in property raises UnknownProperty."""
    if kind not in PROPERTIES:
        raise UnknownProperty(kind, PROPERTIES)
    if kind in FAULT_PROPERTIES and fsa.fault_events is None:
        return "fault"
    if kind in OPACITY_PROPERTIES and fsa.secret_states is None:
        return "secret"
    return None


def _disj(states, var):
    out = None
    for x in states:
        atom = Atom(f"x:{x}", var)
        out = atom if out is None else Or(out, atom)
    return Bottom() if out is None else out


def _templates():
    """Each built-in property's quantifier prefix, body, structure kind and
    the names of the state sets its body reads, in binding order."""
    forall2 = (("forall", "p1"), ("forall", "p2"))
    forall_exists = (("forall", "p1"), ("exists", "p2"))
    obseq = ObsEq("p1", "p2")
    stateeq = StateEq("p1", "p2")
    collapse = Implies(Always(obseq), Eventually(Always(stateeq)))
    tau1 = Atom("tau", "p1")
    tau2 = Atom("tau", "p2")
    secret_pause = And(_expand_once(tau1), Always(Implies(tau1, InSet("secret", "p1"))))
    reveal_free = Always(Implies(tau1, And(tau2, InSet("nonsecret", "p2"))))
    return {
        "diagnosability": (
            forall2,
            Implies(And(Eventually(InSet("fault", "p1")), Always(obseq)),
                    Eventually(InSet("fault", "p2"))),
            "plain", ("fault",)),
        # triggered at the boundary states (normal, a fault enabled next),
        # not at the first faulted instant: the encoded step that brings the
        # fault can carry an observation emitted before it, and an alarm may
        # rest on that observation, which a trigger at the faulted instant
        # never asks the compared trace to match
        "predictability": (
            forall2,
            Implies(Until(obseq, And(InSet("boundary", "p1"), obseq)),
                    Eventually(InSet("fault", "p2"))),
            "plain", ("boundary", "fault")),
        "i-detectability": (
            forall2,
            Implies(And(InSet("initial", "p1"), And(InSet("initial", "p2"), Always(obseq))),
                    stateeq),
            "plain", ("initial",)),
        # two observation-equal traces eventually agree forever, and no two
        # meet at a state on a cycle and part again while still equal in
        # observation: the second conjunct also sees matching runs that die
        # out, whose ambiguity the first, on infinite traces alone, misses
        "strong-detectability": (
            forall2,
            And(collapse, Not(Until(obseq, And(stateeq, And(InSet("cyclic", "p1"), Until(
                obseq, And(obseq, Not(stateeq)))))))),
            "plain", ("cyclic",)),
        "weak-detectability": (
            (("exists", "p1"), ("forall", "p2")), collapse, "plain", ()),
        "delayed-detectability": (
            forall2, Implies(Always(obseq), Always(stateeq)), "plain", ()),
        "initial-state-opacity": (
            forall_exists,
            Implies(And(InSet("initial", "p1"), InSet("secret", "p1")),
                    And(InSet("initial", "p2"), And(Always(obseq), InSet("nonsecret", "p2")))),
            "plain", ("initial", "secret", "nonsecret")),
        "current-state-opacity": (
            forall_exists,
            Implies(secret_pause, And(Until(obseq, tau1), reveal_free)),
            "modified", ("secret", "nonsecret")),
        "infinite-step-opacity": (
            forall_exists,
            Implies(secret_pause, And(Always(obseq), reveal_free)),
            "modified", ("secret", "nonsecret")),
    }


TEMPLATES = _templates()

# the states each set name stands for, given the machine, for the fault
# properties its fault partition, and a set stepper of the machine or None
_SET_STATES = {
    "fault": lambda fsa, part, moves: part.fault_states,
    "boundary": lambda fsa, part, moves: boundary_states(fsa, part),
    "initial": lambda fsa, part, moves: fsa.initial,
    "cyclic": lambda fsa, part, moves: cyclic_states(fsa, moves),
    "secret": lambda fsa, part, moves: fsa.secret_states,
    "nonsecret": lambda fsa, part, moves: frozenset(
        x for x in fsa.states if x not in fsa.secret_states),
}


def property_formula(kind, fsa, part=None):
    """property_template's output with obseq/stateeq expanded over the
    automaton's alphabet and each state-set literal expanded into the
    disjunction of its states: what is decided, in the surface syntax."""
    formula, structure_kind = property_template(kind, fsa, part)
    body = expand_macros(formula.body, fsa, formula.sets)
    return HyperFormula(formula.prefix, body), structure_kind


def property_template(kind, fsa, part=None, moves=None):
    """The formula the hyper route decides for a built-in property, and the
    encoding to check it on: "plain" or "modified" (the one with stalling
    twins).  Diagnosability and predictability take the fault partition of
    a refined machine; a missing annotation or partition raises
    MissingAnnotation.

    The prefix, body and encoding come from TEMPLATES, built once per
    process, so every call returns the same body object; only the formula's
    `sets` is computed here, from the machine.  In the body obseq/stateeq
    compare the two traces, and InSet("fault" | "boundary" | "initial" |
    "secret" | "nonsecret" | "cyclic", p) says that trace p is in that set
    of states ("cyclic": on a cycle of observable moves, see
    des.cyclic_states, which steps by `moves`, a set stepper of fsa, or by
    a fresh one when it is None); `sets` binds each of these names to the
    machine's states.  The engines decide these literals on the pair letter directly,
    so the Büchi automaton of a template depends on the property alone and
    is translated once per process.
    """
    missing = missing_annotation(kind, fsa)
    if missing is not None or kind in FAULT_PROPERTIES and part is None:
        raise MissingAnnotation(missing or "fault")
    prefix, body, structure_kind, names = TEMPLATES[kind]
    sets = tuple((name, _SET_STATES[name](fsa, part, moves)) for name in names)
    return HyperFormula(prefix, body, sets), structure_kind


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

    try:
        return arr(body)[0]
    finally:
        # arr refers to itself through its cell; drop it so the call
        # leaves no reference cycle to the garbage collector
        arr = None


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
