"""Exception types shared across the package."""


class HyperdesError(Exception):
    """Base class for all errors raised by this package."""


# --- automaton model ---------------------------------------------------------

class DanglingReference(HyperdesError):
    """A state or event is referenced but never declared."""


class NoInitialState(HyperdesError):
    """The automaton declares no initial state, so it has no run."""


class NotLive(HyperdesError):
    """A state has no outgoing transition (violates the liveness assumption)."""

    def __init__(self, state):
        self.state = state
        super().__init__(f"state {state!r} has no outgoing transition")


class UnobservableCycle(HyperdesError):
    """The automaton contains a cycle of unobservable events."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("unobservable cycle through states: " + " -> ".join(map(repr, self.cycle)))


class NoFaultEvents(HyperdesError):
    """Fault partition requested of a model that does not declare its fault
    events; an empty declaration is a declaration."""


class UnknownObservation(HyperdesError):
    """An observation symbol is not part of the observation alphabet."""

    def __init__(self, symbol):
        self.symbol = symbol
        super().__init__(f"unknown observation symbol {symbol!r}")


class ReservedSymbol(HyperdesError):
    """The reserved mask token 'eps' was used as an observation symbol."""

    def __init__(self, message, path=None):
        self.path = path
        super().__init__(message if path is None else f"{message} (at {path})")


# --- Kripke structures -------------------------------------------------------

class AlreadyModified(HyperdesError):
    """Copy states were requested for a structure that already has them."""


# --- formulas ----------------------------------------------------------------

class FormulaSyntaxError(HyperdesError):
    """Concrete-syntax error; carries the character position."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnboundTraceVar(HyperdesError):
    """A trace variable is used in the body but not bound by the prefix."""

    def __init__(self, var):
        self.var = var
        super().__init__(f"unbound trace variable {var!r}")


class ArityError(HyperdesError):
    """The quantifier prefix does not have exactly two trace variables."""


class DuplicateSetName(HyperdesError):
    """A formula's `sets` binds one state-set name twice."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"state set {name!r} is bound twice")


class UnknownProperty(HyperdesError, ValueError):
    """A property name that is not one of the built-in properties."""

    def __init__(self, kind, expected):
        self.kind = kind
        super().__init__(f"unknown property {kind!r}; expected one of {', '.join(expected)}")


class MissingAnnotation(HyperdesError):
    """The model lacks an annotation required by the requested property."""

    def __init__(self, kind):
        self.kind = kind
        super().__init__(f"model is missing required annotation: {kind}")


# --- engines -----------------------------------------------------------------

class PrefixMismatch(HyperdesError):
    """A formula was routed to an engine for a different quantifier prefix."""


class NotSynchronousFragment(HyperdesError):
    """A forall-exists body falls outside the supported synchronous fragment."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(f"not in the synchronous fragment: {reason}")


class NotCollapseBody(HyperdesError):
    """An exists/forall body other than the collapse body, the one such body
    the engines decide."""


class NotARun(HyperdesError):
    """A claimed witness lasso is not a run of the structure."""


class UnknownRoute(HyperdesError):
    """A weak-detectability route other than "exact" or "bounded"."""

    def __init__(self, route):
        self.route = route
        super().__init__(f"unknown weak-detectability route {route!r}; "
                         "expected 'exact' or 'bounded'")


class InvalidBound(HyperdesError):
    """A fuzz count or machine size limit that no run can use: a negative
    count, or a limit no machine can be drawn under."""

    def __init__(self, name, value, expected):
        self.name = name
        self.value = value
        super().__init__(f"invalid {name} {value!r}; expected {expected}")


# --- model files -------------------------------------------------------------

class SchemaError(HyperdesError):
    """A model document violates the schema; carries a JSON-path locator."""

    def __init__(self, message, path):
        self.path = path
        super().__init__(f"{message} (at {path})")


class DuplicateTransition(HyperdesError):
    """Two transitions share the same source state and event."""

    def __init__(self, source, event, path=None):
        self.source = source
        self.event = event
        self.path = path
        message = f"duplicate transition from {source!r} on {event!r}"
        super().__init__(message if path is None else f"{message} (at {path})")


class UnknownId(HyperdesError):
    """A document references an identifier that is not declared."""

    def __init__(self, ident, path=None):
        self.ident = ident
        self.path = path
        message = f"unknown identifier {ident!r}"
        super().__init__(message if path is None else f"{message} (at {path})")
