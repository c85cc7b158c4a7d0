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
"$.transitions[3][1]".
"""

from __future__ import annotations

import json

from .des import EPS, Fsa
from .errors import DuplicateTransition, ReservedSymbol, SchemaError, UnknownId

SCHEMA_VERSION = 1
MASK_EPS = "eps"

_REQUIRED_KEYS = ("version", "states", "events", "initial", "transitions", "mask")
_OPTIONAL_KEYS = ("name", "observations", "fault_events", "secret_states")


def _ident(value, path):
    if not isinstance(value, str) or not value:
        raise SchemaError("identifiers must be non-empty strings", path)
    return value


def _ident_array(raw, path, allow_empty=False):
    if not isinstance(raw, list):
        raise SchemaError("expected an array", path)
    if not raw and not allow_empty:
        raise SchemaError("array must not be empty", path)
    return tuple(_ident(v, f"{path}[{i}]") for i, v in enumerate(raw))


def _distinct(items, path, what):
    seen = set()
    for i, item in enumerate(items):
        if item in seen:
            raise SchemaError(f"duplicate {what} {item!r}", f"{path}[{i}]")
        seen.add(item)


def _declared(item, declared, path):
    if item not in declared:
        raise UnknownId(item, path)
    return item


def document_from_json(raw) -> Fsa:
    """Check a decoded JSON value against schema v1 and build the automaton;
    declaration order carries over unchanged."""
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

    states = _ident_array(raw["states"], "$.states")
    _distinct(states, "$.states", "state")
    events = _ident_array(raw["events"], "$.events")
    _distinct(events, "$.events", "event")
    state_set, event_set = set(states), set(events)

    initial = _ident_array(raw["initial"], "$.initial")
    _distinct(initial, "$.initial", "initial state")
    for i, x in enumerate(initial):
        _declared(x, state_set, f"$.initial[{i}]")

    if not isinstance(raw["transitions"], list):
        raise SchemaError("expected an array", "$.transitions")
    triples = []
    seen_pairs = set()
    for i, entry in enumerate(raw["transitions"]):
        path = f"$.transitions[{i}]"
        if not isinstance(entry, list) or len(entry) != 3:
            raise SchemaError("transitions are [source, event, target] triples", path)
        s = _declared(_ident(entry[0], f"{path}[0]"), state_set, f"{path}[0]")
        e = _declared(_ident(entry[1], f"{path}[1]"), event_set, f"{path}[1]")
        t = _declared(_ident(entry[2], f"{path}[2]"), state_set, f"{path}[2]")
        if (s, e) in seen_pairs:
            raise DuplicateTransition(s, e, path=path)
        seen_pairs.add((s, e))
        triples.append((s, e, t))

    observations = None
    if "observations" in raw:
        observations = _ident_array(raw["observations"], "$.observations", allow_empty=True)
        _distinct(observations, "$.observations", "observation")
        for i, o in enumerate(observations):
            if o == MASK_EPS:
                raise ReservedSymbol(
                    "'eps' is the unobservable marker and cannot name an observation",
                    path=f"$.observations[{i}]")

    if not isinstance(raw["mask"], list):
        raise SchemaError("expected an array", "$.mask")
    pairs = []
    masked = set()
    for i, entry in enumerate(raw["mask"]):
        path = f"$.mask[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError('mask entries are [event, observation-or-"eps"] pairs', path)
        e = _declared(_ident(entry[0], f"{path}[0]"), event_set, f"{path}[0]")
        v = _ident(entry[1], f"{path}[1]")
        if e in masked:
            raise SchemaError(f"event {e!r} is masked twice", path)
        masked.add(e)
        if v != MASK_EPS and observations is not None and v not in observations:
            raise UnknownId(v, f"{path}[1]")
        pairs.append((e, v))
    for e in events:
        if e not in masked:
            raise SchemaError(f"mask must cover every event: missing {e!r}", "$.mask")

    fault_events = None
    if "fault_events" in raw:
        fault_events = _ident_array(raw["fault_events"], "$.fault_events", allow_empty=True)
        _distinct(fault_events, "$.fault_events", "fault event")
        for i, e in enumerate(fault_events):
            _declared(e, event_set, f"$.fault_events[{i}]")

    secret_states = None
    if "secret_states" in raw:
        secret_states = _ident_array(raw["secret_states"], "$.secret_states", allow_empty=True)
        _distinct(secret_states, "$.secret_states", "secret state")
        for i, x in enumerate(secret_states):
            _declared(x, state_set, f"$.secret_states[{i}]")

    return Fsa(
        states=states,
        events=events,
        transitions={(s, e): t for s, e, t in triples},
        initial=initial,
        mask={e: (EPS if v == MASK_EPS else v) for e, v in pairs},
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
    """
    out = {
        "version": SCHEMA_VERSION,
        "states": list(fsa.states),
        "events": list(fsa.events),
        "initial": fsa.sort_states(fsa.initial),
        "transitions": [[x, e, y] for x in fsa.states for e, y in fsa.out_edges(x)],
        "mask": [[e, MASK_EPS if fsa.mask[e] is EPS else fsa.mask[e]] for e in fsa.events],
        "observations": list(fsa.observations),
    }
    if fsa.fault_events is not None:
        out["fault_events"] = [e for e in fsa.events if e in fsa.fault_events]
    if fsa.secret_states is not None:
        out["secret_states"] = [x for x in fsa.states if x in fsa.secret_states]
    if fsa.name is not None:
        out["name"] = fsa.name
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


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
