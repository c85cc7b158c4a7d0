"""Model files and verdict serialization.

Model schema v1 (see models/model.schema.json for the machine-readable form):

    {
      "version": 1,
      "name": "g_diag",
      "states": ["0", "1"],
      "events": ["a", "u"],
      "initial": ["0"],
      "transitions": [["0", "a", "1"], ["1", "a", "1"], ["0", "u", "1"]],
      "mask": [["a", "o1"], ["u", "eps"]],
      "observations": ["o1"],
      "fault_events": ["u"],
      "secret_states": ["1"]
    }

"eps" is reserved: as a mask value it marks an event unobservable, and it can
never name an observation symbol.  "name", "observations", "fault_events" and
"secret_states" are optional; omitting an annotation is not the same as
declaring it empty.  Arrays keep declaration order and object keys serialize
sorted, so serialization is canonical and parse(serialize(fsa)) reproduces
the automaton exactly.

document_from_json checks a decoded JSON value and builds the automaton
from it directly; serialize_model writes the canonical JSON of an automaton.
Every parse error names the offending location as a JSON path like
"$.transitions[3][1]".  A well-formed array is checked in one pass that
formats no path; only an array or entry that fails it is checked again
piece by piece, which raises the first error with its path, the same
error in the same order either way.  Types are checked before anything
is hashed, so an unhashable entry is a SchemaError like any other.

The canonical text is byte for byte what json.dumps(document, indent=2,
sort_keys=True) + "\n" writes, with the document's keys known in advance
and each array one entry per line.  serialize_model lays that text out
itself and quotes each identifier once with json's encode_basestring_ascii
(its C function where the interpreter has one): json.dumps with an indent
falls back to json's pure-Python encoder, which walks every nested list
and string in Python and takes about as long as parsing the text back.
The tests keep json.dumps as the writer's reference.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .des import EPS, Fsa
from .errors import DuplicateTransition, ReservedSymbol, SchemaError, UnknownId

SCHEMA_VERSION = 1
MASK_EPS = "eps"

_REQUIRED_KEYS = ("version", "states", "events", "initial", "transitions", "mask")
_OPTIONAL_KEYS = ("name", "observations", "fault_events", "secret_states")
_STR = frozenset((str,))


def _ident(value, path):
    if not isinstance(value, str) or not value:
        raise SchemaError("identifiers must be non-empty strings", path)
    return value


def _declared(item, declared, path):
    if item not in declared:
        raise UnknownId(item, path)
    return item


def _ids(raw, path, what, declared=None, allow_empty=False):
    """The entries of the JSON array `raw` as a tuple: non-empty strings,
    pairwise distinct and, where `declared` is given, members of it.

    A well-formed array passes set operations that run in C, and no path
    is formatted.  Any other goes through the checks one by one, which
    raise the first error in a fixed order: the array itself, then the
    first entry that is not a non-empty string, then the first duplicate,
    then the first undeclared entry.  Types are checked before any entry
    is hashed, so an unhashable entry is a SchemaError too."""
    if type(raw) is list and (raw or allow_empty) and set(map(type, raw)) <= _STR:
        seen = set(raw)
        if len(seen) == len(raw) and "" not in seen and (declared is None or seen <= declared):
            return tuple(raw)
    if not isinstance(raw, list):
        raise SchemaError("expected an array", path)
    if not raw and not allow_empty:
        raise SchemaError("array must not be empty", path)
    for i, item in enumerate(raw):
        _ident(item, f"{path}[{i}]")
    seen = set()
    for i, item in enumerate(raw):
        if item in seen:
            raise SchemaError(f"duplicate {what} {item!r}", f"{path}[{i}]")
        seen.add(item)
    if declared is not None:
        for i, item in enumerate(raw):
            _declared(item, declared, f"{path}[{i}]")
    return tuple(raw)


def _transition(entry, path, state_set, event_set, transitions):
    """One transition entry checked piece by piece, as (source, event,
    target); raises the entry's first error."""
    if not isinstance(entry, list) or len(entry) != 3:
        raise SchemaError("transitions are [source, event, target] triples", path)
    s = _declared(_ident(entry[0], f"{path}[0]"), state_set, f"{path}[0]")
    e = _declared(_ident(entry[1], f"{path}[1]"), event_set, f"{path}[1]")
    t = _declared(_ident(entry[2], f"{path}[2]"), state_set, f"{path}[2]")
    if (s, e) in transitions:
        raise DuplicateTransition(s, e, path=path)
    return s, e, t


def _mask_entry(entry, path, event_set, obs_set, mask):
    """One mask entry checked piece by piece, as (event, value); raises the
    entry's first error."""
    if not isinstance(entry, list) or len(entry) != 2:
        raise SchemaError('mask entries are [event, observation-or-"eps"] pairs', path)
    e = _declared(_ident(entry[0], f"{path}[0]"), event_set, f"{path}[0]")
    v = _ident(entry[1], f"{path}[1]")
    if e in mask:
        raise SchemaError(f"event {e!r} is masked twice", path)
    if v != MASK_EPS and obs_set is not None and v not in obs_set:
        raise UnknownId(v, f"{path}[1]")
    return e, v


def document_from_json(raw) -> Fsa:
    """Check a decoded JSON value against schema v1 and build the automaton;
    declaration order carries over unchanged.

    Each array is checked in one plain pass that formats no JSON path; an
    array or entry that fails it is checked again piece by piece, which
    raises its first error with its path."""
    if not isinstance(raw, dict):
        raise SchemaError("model document must be a JSON object", "$")
    for key in raw:
        if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
            raise SchemaError(f"unexpected key {key!r}", f"$.{key}")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise SchemaError(f"missing required key {key!r}", f"$.{key}")
    version = raw["version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {version!r}", "$.version")
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError("name must be a string", "$.name")

    states = _ids(raw["states"], "$.states", "state")
    events = _ids(raw["events"], "$.events", "event")
    state_set, event_set = set(states), set(events)
    initial = _ids(raw["initial"], "$.initial", "initial state", state_set)

    if not isinstance(raw["transitions"], list):
        raise SchemaError("expected an array", "$.transitions")
    transitions = {}
    for entry in raw["transitions"]:
        if type(entry) is list and len(entry) == 3:
            s, e, t = entry
            if (type(s) is str and type(e) is str and type(t) is str
                    and s in state_set and e in event_set and t in state_set
                    and (s, e) not in transitions):
                transitions[s, e] = t
                continue
        # every earlier entry was added, so their count is this entry's index
        s, e, t = _transition(entry, f"$.transitions[{len(transitions)}]",
                              state_set, event_set, transitions)
        transitions[s, e] = t

    observations = obs_set = None
    if "observations" in raw:
        observations = _ids(raw["observations"], "$.observations", "observation",
                            allow_empty=True)
        if MASK_EPS in observations:
            raise ReservedSymbol(
                "'eps' is the unobservable marker and cannot name an observation",
                path=f"$.observations[{observations.index(MASK_EPS)}]")
        obs_set = set(observations)

    if not isinstance(raw["mask"], list):
        raise SchemaError("expected an array", "$.mask")
    mask = {}
    for entry in raw["mask"]:
        if type(entry) is list and len(entry) == 2:
            e, v = entry
            if (type(e) is str and type(v) is str and e in event_set and v
                    and e not in mask
                    and (v == MASK_EPS or obs_set is None or v in obs_set)):
                mask[e] = EPS if v == MASK_EPS else v
                continue
        e, v = _mask_entry(entry, f"$.mask[{len(mask)}]", event_set, obs_set, mask)
        mask[e] = EPS if v == MASK_EPS else v
    if len(mask) != len(events):
        missing = next(e for e in events if e not in mask)
        raise SchemaError(f"mask must cover every event: missing {missing!r}", "$.mask")

    fault_events = None
    if "fault_events" in raw:
        fault_events = _ids(raw["fault_events"], "$.fault_events", "fault event",
                            event_set, allow_empty=True)

    secret_states = None
    if "secret_states" in raw:
        secret_states = _ids(raw["secret_states"], "$.secret_states", "secret state",
                             state_set, allow_empty=True)

    return Fsa(
        states=states,
        events=events,
        transitions=transitions,
        initial=initial,
        mask=mask,
        fault_events=fault_events,
        secret_states=secret_states,
        observations=observations,
        name=name,
    )


def parse_model(text) -> Fsa:
    """Parse schema v1 JSON text into an automaton.

    Checks structure and referential integrity only; liveness and the
    no-unobservable-cycle assumption are checked by validate_fsa at
    verification time.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}",
                          f"$ (line {exc.lineno}, column {exc.colno})") from exc
    except (ValueError, RecursionError) as exc:
        # nesting deeper than the interpreter's recursion limit, or an
        # integer longer than its digit limit
        raise SchemaError(f"unreadable JSON: {exc}", "$") from exc
    return document_from_json(raw)


def load_model(path) -> Fsa:
    """Read and parse a model file; a file that is not UTF-8 text raises
    SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"not UTF-8 text: {exc.reason}", "$") from exc
    return parse_model(text)


def serialize_model(fsa: Fsa) -> str:
    """Canonical JSON text: sorted keys, declaration-order arrays.

    Transitions are listed by source state, then by event.  The observation
    alphabet is always written out so a round trip never depends on
    mask-derived defaults; the other optional keys appear only when set.

    The text is laid out by hand exactly as json.dumps(document, indent=2,
    sort_keys=True) + "\n" lays out this schema: keys in sorted order,
    every array entry on its own line, an empty array as "[]".  Each
    identifier is quoted once, by json's own encode_basestring_ascii.

    A name or identifier that is not a string raises the SchemaError
    parse_model raises on the text json.dumps writes of the machine."""
    try:
        states = {x: _quote(x) for x in fsa.states}
        events = {e: _quote(e) for e in fsa.events}
        shown = {EPS: _quote(MASK_EPS)} | {o: _quote(o) for o in fsa.observations}
        name = None if fsa.name is None else _quote(fsa.name)
    except TypeError:   # the first in parse_model's order
        if fsa.name is not None and not isinstance(fsa.name, str):
            raise SchemaError("name must be a string", "$.name") from None
        raise next(SchemaError("identifiers must be non-empty strings", f"$.{key}[{i}]")
                   for key in ("states", "events", "observations")
                   for i, item in enumerate(getattr(fsa, key))
                   if not isinstance(item, str)) from None
    fields = [("events", _array(events.values()))]
    if fsa.fault_events is not None:
        fields.append(("fault_events", _array(
            [q for e, q in events.items() if e in fsa.fault_events])))
    fields.append(("initial", _array([states[x] for x in fsa.sort_states(fsa.initial)])))
    fields.append(("mask", _array(
        [f"[\n      {q},\n      {shown[fsa.mask[e]]}\n    ]" for e, q in events.items()])))
    if name is not None:
        fields.append(("name", name))
    fields.append(("observations", _array([shown[o] for o in fsa.observations])))
    if fsa.secret_states is not None:
        fields.append(("secret_states", _array(
            [q for x, q in states.items() if x in fsa.secret_states])))
    fields.append(("states", _array(states.values())))
    fields.append(("transitions", _array(
        [f"[\n      {q},\n      {events[e]},\n      {states[y]}\n    ]"
         for x, q in states.items() for e, y in fsa.out_edges(x)])))
    fields.append(("version", str(SCHEMA_VERSION)))
    return "{\n" + ",\n".join(f'  "{key}": {value}' for key, value in fields) + "\n}\n"


def _array(items):
    """A value of the top-level object given as its entries' texts: a JSON
    array with one entry per line, as json.dumps(indent=2) lays it out."""
    if not items:
        return "[]"
    return "[\n    " + ",\n    ".join(items) + "\n  ]"


def _node_to_json(node):
    return {
        "state": node.state,
        "obs": MASK_EPS if node.obs is None else node.obs,
        "copy": bool(node.copy),
    }


def _lasso_to_json(lasso):
    return {
        "stem": [_node_to_json(n) for n in lasso.stem],
        "cycle": [_node_to_json(n) for n in lasso.cycle],
    }


def verdict_to_json(verdict) -> dict:
    """JSON value for a verdict; witnesses become node-sequence lassos.

    "bound", "witness", "details" and "seconds" appear only when present on
    the verdict.
    """
    out = {
        "property": verdict.property,
        "holds": verdict.holds,
        "mode": verdict.mode,
        "engine": verdict.engine,
    }
    if verdict.bound is not None:
        out["bound"] = verdict.bound
    if verdict.witness is not None:
        out["witness"] = [None if w is None else _lasso_to_json(w)
                          for w in verdict.witness]
    if verdict.details:
        out["details"] = verdict.details
    if verdict.seconds is not None:
        out["seconds"] = verdict.seconds
    return out
