"""Model file parsing, canonical serialization, verdict output.

The three fixture machines live under models/ in canonical form.  Parsing
them must reproduce the conftest builders field by field, serializing must
reproduce the files byte for byte, and every parse error must point at the
offending location with a JSON path.
"""

import hashlib
import json
import random
from pathlib import Path

import jsonschema
import pytest

from hyperdes.errors import (
    DuplicateTransition,
    HyperdesError,
    ReservedSymbol,
    SchemaError,
    UnknownId,
)
from hyperdes.gen import random_valid_fsa
from hyperdes.hyper import verify
from hyperdes.kripke import build_kripke
from hyperdes.modelio import (
    document_from_json,
    load_model,
    parse_model,
    serialize_model,
    verdict_to_json,
)
from hyperdes.des import Fsa
from support import (
    all_initial_fault_ring,
    comparison_machines,
    fault_ring,
    labelled_ring,
    o1_ring,
    reference_serialize,
)
from tests.conftest import make_g_det, make_g_diag, make_g_opa, make_twin_branch

MODELS = Path(__file__).resolve().parent.parent / "models"


def same_fsa(a, b):
    """Field-by-field structural equality of two automata."""
    return (a.states == b.states and a.events == b.events
            and a.transitions == b.transitions and a.initial == b.initial
            and a.mask == b.mask and a.observations == b.observations
            and a.fault_events == b.fault_events
            and a.secret_states == b.secret_states and a.name == b.name)


def minimal_doc(**overrides):
    """One state with one observable self-loop, the smallest valid document."""
    doc = {
        "version": 1,
        "states": ["s"],
        "events": ["e"],
        "initial": ["s"],
        "transitions": [["s", "e", "s"]],
        "mask": [["e", "o1"]],
    }
    doc.update(overrides)
    return doc


def test_fixture_files_parse_to_the_builders():
    """models/*.json and the conftest builders describe the same machines."""
    for make in (make_g_diag, make_g_det, make_g_opa):
        built = make()
        parsed = load_model(MODELS / f"{built.name}.json")
        assert same_fsa(parsed, built), built.name
    g = load_model(MODELS / "g_diag.json")
    assert len(g.states) == 6 and len(g.events) == 7
    assert g.mask["f"] is None and g.mask["a"] == "o1"
    assert g.fault_events == frozenset({"f"})


def test_fixture_files_are_canonical():
    """Serializing a parsed fixture file reproduces it byte for byte."""
    for name in ("g_diag", "g_det", "g_opa"):
        text = (MODELS / f"{name}.json").read_text(encoding="utf-8")
        assert serialize_model(parse_model(text)) == text, name


def test_fixture_files_validate_against_model_schema():
    """The shipped JSON-schema file accepts the fixtures and rejects junk."""
    schema = json.loads((MODELS / "model.schema.json").read_text(encoding="utf-8"))
    for name in ("g_diag", "g_det", "g_opa"):
        doc = json.loads((MODELS / f"{name}.json").read_text(encoding="utf-8"))
        jsonschema.validate(doc, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(minimal_doc(version=2), schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(minimal_doc(mask=[["e", "o1", "extra"]]), schema)


def odd_name_machines():
    """Machines whose identifiers and names need escaping: non-ASCII
    letters, characters outside the basic plane, quotes, backslashes,
    control characters and "</"; then the annotations declared empty,
    left out, and a machine with no transitions and no observation."""
    odd = ["é", "😀", '"q"', "back\\slash", "tab\tnew\nline", "\x00\x1f\x7f",
           "</script>", "\u2028"]
    states = odd + ["plain"]
    events = ["ä" + o for o in odd]
    yield Fsa(states=states, events=events,
              transitions={(x, e): states[(i + j) % len(states)]
                           for i, x in enumerate(states) for j, e in enumerate(events)},
              initial=[odd[1], odd[0]],
              mask={e: (None if i % 3 == 0 else odd[i % 4] + "/obs") for i, e in enumerate(events)},
              fault_events=events[::2], secret_states=states[1::2],
              name='name "</é\\\x01')
    base = dict(states=["s", "t"], events=["e"], transitions={("s", "e"): "t", ("t", "e"): "s"},
                initial=["t", "s"], mask={"e": "o1"})
    yield Fsa(**base, fault_events=[], secret_states=[], name="")
    yield Fsa(**base)
    yield Fsa(states=["s"], events=["u"], transitions={}, initial=["s"], mask={"u": None})


def writer_machines():
    """The machines the writer is checked on: the comparison machines, 300
    random machines of up to 16 states, the ring families and the
    machines with names that need escaping."""
    yield from comparison_machines()
    rng = random.Random(16)
    for _ in range(300):
        yield random_valid_fsa(rng, max_states=16)
    for n in (4, 7, 48):
        yield from (fault_ring(n), all_initial_fault_ring(n), o1_ring(n), labelled_ring(n))
    yield from odd_name_machines()


def test_writer_is_byte_identical_to_json_dumps():
    """serialize_model writes, byte for byte, what json.dumps(indent=2,
    sort_keys=True) writes of the canonical document; each text satisfies
    the model schema and parses back to the same machine."""
    schema = json.loads((MODELS / "model.schema.json").read_text(encoding="utf-8"))
    validator = jsonschema.Draft202012Validator(schema)
    count = 0
    for fsa in writer_machines():
        text = serialize_model(fsa)
        assert text == reference_serialize(fsa), fsa
        assert text.isascii()
        validator.validate(json.loads(text))
        assert same_fsa(parse_model(text), fsa), fsa
        count += 1
    assert count >= 700


# SHA-256 of serialize_model over the first 50 machines the generator
# draws from random.Random(20260823), concatenated: it changes if the
# generator's draws or the writer's bytes do
GENERATOR_DIGEST = "1f3ca799a5420ddadcfa0ab3b7a7514363b8c853149fe5a63204e8f0ad04cf38"


def test_generator_stream_digest_is_pinned():
    rng = random.Random(20260823)
    digest = hashlib.sha256()
    for _ in range(50):
        digest.update(serialize_model(random_valid_fsa(rng)).encode("ascii"))
    assert digest.hexdigest() == GENERATOR_DIGEST


def test_minimal_document_parses():
    """A single observable self-loop is a valid model with derived alphabet."""
    fsa = parse_model(json.dumps(minimal_doc()))
    assert fsa.states == ("s",) and fsa.transitions == {("s", "e"): "s"}
    assert fsa.observations == ("o1",)
    assert fsa.fault_events is None and fsa.secret_states is None


def test_eps_mask_value_means_unobservable():
    """A mask value of "eps" parses to an unobservable event, not a symbol."""
    doc = minimal_doc(events=["e", "u"],
                      transitions=[["s", "e", "s"], ["s", "u", "s"]],
                      mask=[["e", "o1"], ["u", "eps"]])
    fsa = parse_model(json.dumps(doc))
    assert fsa.mask["u"] is None
    assert fsa.observations == ("o1",)


def test_parse_serialize_identity_on_random_models():
    """parse(serialize(fsa)) structurally equals fsa for 100 random models."""
    rng = random.Random(42)
    for _ in range(100):
        fsa = random_valid_fsa(rng)
        assert same_fsa(parse_model(serialize_model(fsa)), fsa)


def test_duplicate_transition_rejected():
    """Two transitions from one state on one event violate determinism."""
    doc = minimal_doc(states=["0", "1", "2"], events=["a"], initial=["0"],
                      transitions=[["0", "a", "1"], ["0", "a", "2"],
                                   ["1", "a", "1"], ["2", "a", "2"]],
                      mask=[["a", "o1"]])
    with pytest.raises(DuplicateTransition) as err:
        parse_model(json.dumps(doc))
    assert err.value.source == "0" and err.value.event == "a"
    assert err.value.path == "$.transitions[1]"


def test_schema_errors_carry_json_paths():
    """Structural violations name the offending location."""
    bad = [
        ({k: v for k, v in minimal_doc().items() if k != "version"}, "$.version"),
        (minimal_doc(version=2), "$.version"),
        (minimal_doc(version=True), "$.version"),
        (minimal_doc(extra=1), "$.extra"),
        (minimal_doc(states={}), "$.states"),
        (minimal_doc(states=[]), "$.states"),
        (minimal_doc(states=[7]), "$.states[0]"),
        (minimal_doc(states=["s", "s"], transitions=[["s", "e", "s"]]), "$.states[1]"),
        (minimal_doc(transitions=[["s", "e"]]), "$.transitions[0]"),
        (minimal_doc(mask=[]), "$.mask"),
        (minimal_doc(mask=[["e", "o1"], ["e", "o1"]]), "$.mask[1]"),
        (minimal_doc(name=7), "$.name"),
        ([], "$"),
    ]
    for doc, where in bad:
        with pytest.raises(SchemaError) as err:
            document_from_json(doc)
        assert err.value.path == where, doc


def test_unknown_ids_carry_json_paths():
    """References to undeclared states, events or observations are located."""
    bad = [
        (minimal_doc(initial=["t"]), "t", "$.initial[0]"),
        (minimal_doc(transitions=[["s", "e", "t"]]), "t", "$.transitions[0][2]"),
        (minimal_doc(transitions=[["s", "x", "s"]]), "x", "$.transitions[0][1]"),
        (minimal_doc(fault_events=["x"]), "x", "$.fault_events[0]"),
        (minimal_doc(secret_states=["t"]), "t", "$.secret_states[0]"),
        (minimal_doc(observations=["o2"]), "o1", "$.mask[0][1]"),
    ]
    for doc, ident, where in bad:
        with pytest.raises(UnknownId) as err:
            document_from_json(doc)
        assert err.value.ident == ident and err.value.path == where, doc


def two_state_doc(**overrides):
    """Two states and two events, every annotation declared."""
    doc = minimal_doc(states=["0", "1"], events=["a", "u"], initial=["0"],
                      transitions=[["0", "a", "1"], ["1", "a", "0"], ["0", "u", "1"]],
                      mask=[["a", "o1"], ["u", "eps"]], observations=["o1"],
                      fault_events=["u"], secret_states=["1"])
    doc.update(overrides)
    return doc


IDENT = "identifiers must be non-empty strings"
TRIPLE = "transitions are [source, event, target] triples"
PAIR = 'mask entries are [event, observation-or-"eps"] pairs'

# (document, error type, message, path): the first error of each document
PARSE_ERRORS = [
    # transitions: unhashable, dict and empty entries, duplicates, unknown ids
    (two_state_doc(transitions=[[["1"], "a", "0"]]), SchemaError, IDENT, "$.transitions[0][0]"),
    (two_state_doc(transitions=[["0", "a", "1"], ["1", ["a"], "0"]]), SchemaError, IDENT,
     "$.transitions[1][1]"),
    (two_state_doc(transitions=[["0", "a", {"1": 1}]]), SchemaError, IDENT, "$.transitions[0][2]"),
    (two_state_doc(transitions=[{"0": "a"}]), SchemaError, TRIPLE, "$.transitions[0]"),
    (two_state_doc(transitions=[["0", "a"]]), SchemaError, TRIPLE, "$.transitions[0]"),
    (two_state_doc(transitions=[["0", "", "1"]]), SchemaError, IDENT, "$.transitions[0][1]"),
    (two_state_doc(transitions=[["0", "a", "1"], ["0", "a", "0"]]), DuplicateTransition,
     "duplicate transition from '0' on 'a'", "$.transitions[1]"),
    (two_state_doc(transitions=[["0", "a", "9"]]), UnknownId, "unknown identifier '9'",
     "$.transitions[0][2]"),
    (two_state_doc(transitions=[["0", "x", ["9"]]]), UnknownId, "unknown identifier 'x'",
     "$.transitions[0][1]"),
    (two_state_doc(transitions="0a1"), SchemaError, "expected an array", "$.transitions"),
    # initial: every entry's type first, then duplicates, then unknown ids
    (two_state_doc(initial=[["0"]]), SchemaError, IDENT, "$.initial[0]"),
    (two_state_doc(initial=["0", {}]), SchemaError, IDENT, "$.initial[1]"),
    (two_state_doc(initial=[""]), SchemaError, IDENT, "$.initial[0]"),
    (two_state_doc(initial=["0", "0", ["1"]]), SchemaError, IDENT, "$.initial[2]"),
    (two_state_doc(initial=["9", "0", "0"]), SchemaError, "duplicate initial state '0'",
     "$.initial[2]"),
    (two_state_doc(initial=["0", "9"]), UnknownId, "unknown identifier '9'", "$.initial[1]"),
    (two_state_doc(initial=[]), SchemaError, "array must not be empty", "$.initial"),
    # mask: unhashable, dict and empty entries, an event masked twice,
    # unknown events and observations, an uncovered event
    (two_state_doc(mask=[[["a"], "o1"], ["u", "eps"]]), SchemaError, IDENT, "$.mask[0][0]"),
    (two_state_doc(mask=[["a", ["o1"]], ["u", "eps"]]), SchemaError, IDENT, "$.mask[0][1]"),
    (two_state_doc(mask=[{"a": "o1"}, ["u", "eps"]]), SchemaError, PAIR, "$.mask[0]"),
    (two_state_doc(mask=[["a", "o1"], ["u", ""]]), SchemaError, IDENT, "$.mask[1][1]"),
    (two_state_doc(mask=[["a", "o1"], ["a", "o1"], ["u", "eps"]]), SchemaError,
     "event 'a' is masked twice", "$.mask[1]"),
    (two_state_doc(mask=[["a", "o1"], ["x", "eps"]]), UnknownId, "unknown identifier 'x'",
     "$.mask[1][0]"),
    (two_state_doc(mask=[["a", "o2"], ["u", "eps"]]), UnknownId, "unknown identifier 'o2'",
     "$.mask[0][1]"),
    (two_state_doc(mask=[["a", "o1"]]), SchemaError, "mask must cover every event: missing 'u'",
     "$.mask"),
    # observations: eps used as an observation, after every other check
    (two_state_doc(observations=["o1", "eps"]), ReservedSymbol,
     "'eps' is the unobservable marker and cannot name an observation", "$.observations[1]"),
    (two_state_doc(observations=["eps", "eps"]), SchemaError, "duplicate observation 'eps'",
     "$.observations[1]"),
    (two_state_doc(observations=["eps", ["o1"]]), SchemaError, IDENT, "$.observations[1]"),
    # fault_events and secret_states
    (two_state_doc(fault_events=[["u"]]), SchemaError, IDENT, "$.fault_events[0]"),
    (two_state_doc(fault_events=[{}]), SchemaError, IDENT, "$.fault_events[0]"),
    (two_state_doc(fault_events=["u", "u"]), SchemaError, "duplicate fault event 'u'",
     "$.fault_events[1]"),
    (two_state_doc(fault_events=["x"]), UnknownId, "unknown identifier 'x'", "$.fault_events[0]"),
    (two_state_doc(fault_events="u"), SchemaError, "expected an array", "$.fault_events"),
    (two_state_doc(secret_states=[["1"]]), SchemaError, IDENT, "$.secret_states[0]"),
    (two_state_doc(secret_states=["1", ""]), SchemaError, IDENT, "$.secret_states[1]"),
    (two_state_doc(secret_states=["1", "1"]), SchemaError, "duplicate secret state '1'",
     "$.secret_states[1]"),
    (two_state_doc(secret_states=["9"]), UnknownId, "unknown identifier '9'",
     "$.secret_states[0]"),
    # states and events
    (two_state_doc(states=["0", {}]), SchemaError, IDENT, "$.states[1]"),
    (two_state_doc(states=["0", "1", "0"]), SchemaError, "duplicate state '0'", "$.states[2]"),
    (two_state_doc(events=["a", ["u"]]), SchemaError, IDENT, "$.events[1]"),
    (two_state_doc(events=["a", "u", "a"]), SchemaError, "duplicate event 'a'", "$.events[2]"),
    # the blocks are checked in a fixed order: states, events, initial,
    # transitions, observations, mask, fault_events, secret_states
    (two_state_doc(initial=["9"], transitions=[["0", "a"]]), UnknownId, "unknown identifier '9'",
     "$.initial[0]"),
    (two_state_doc(transitions=[["0", "a"]], observations=["eps"]), SchemaError, TRIPLE,
     "$.transitions[0]"),
    (two_state_doc(observations=["eps"], mask=[]), ReservedSymbol,
     "'eps' is the unobservable marker and cannot name an observation", "$.observations[0]"),
    (two_state_doc(mask=[["a", "o1"]], fault_events=["x"]), SchemaError,
     "mask must cover every event: missing 'u'", "$.mask"),
    (two_state_doc(fault_events=["x"], secret_states=["9"]), UnknownId, "unknown identifier 'x'",
     "$.fault_events[0]"),
]


@pytest.mark.parametrize("doc, kind, message, path", PARSE_ERRORS)
def test_parse_errors_are_pinned(doc, kind, message, path):
    """Each malformed document raises its first error with its type,
    message and path; an unhashable entry is a SchemaError, not a
    TypeError."""
    with pytest.raises(HyperdesError) as err:
        document_from_json(doc)
    assert type(err.value) is kind
    assert err.value.path == path
    assert str(err.value) == f"{message} (at {path})"


def test_eps_cannot_name_an_observation():
    """The reserved mask token is rejected in the observation alphabet."""
    with pytest.raises(ReservedSymbol) as err:
        document_from_json(minimal_doc(observations=["eps", "o1"]))
    assert err.value.path == "$.observations[0]"


def test_invalid_json_is_a_schema_error():
    """Broken JSON text surfaces as SchemaError with the decoder location."""
    with pytest.raises(SchemaError) as err:
        parse_model("{not json")
    assert "line 1" in err.value.path


def test_annotations_distinguish_absent_from_empty():
    """fault_events: [] declares an empty set; omitting it declares nothing."""
    with_empty = parse_model(json.dumps(minimal_doc(fault_events=[])))
    without = parse_model(json.dumps(minimal_doc()))
    assert with_empty.fault_events == frozenset()
    assert without.fault_events is None
    assert same_fsa(parse_model(serialize_model(with_empty)), with_empty)


def test_predictability_verdict_serializes_both_lassos():
    """The violated-predictability verdict carries the two label traces."""
    verdict = verify(make_g_diag(), "predictability")
    doc = verdict_to_json(verdict)
    assert doc["property"] == "predictability" and doc["holds"] is False
    assert doc["mode"] == "exact" and len(doc["witness"]) == 2
    first, second = doc["witness"]
    trace = [(n["state"], n["obs"]) for n in first["stem"] + first["cycle"]]
    assert trace == [("0", "eps"), ("1", "o1"), ("2", "o2")]
    assert [n["state"] for n in first["cycle"]] == ["2"]
    trace = [(n["state"], n["obs"]) for n in second["stem"] + second["cycle"]]
    assert trace == [("3", "eps"), ("4", "o1"), ("5", "o3")]
    assert "seconds" in doc
    doc.pop("seconds")
    assert json.loads(json.dumps(doc, sort_keys=True)) == doc


def test_bounded_inconclusive_verdict_serializes_bound():
    """An exhausted bounded search reports mode and bound in its JSON: the
    node count of the Kripke structure plus one."""
    verdict = verify(make_twin_branch(), "weak-detectability", wd_route="bounded")
    doc = verdict_to_json(verdict)
    assert doc["holds"] == "inconclusive"
    assert doc["mode"] == "bounded"
    assert doc["bound"] == len(build_kripke(make_twin_branch()).nodes) + 1
    assert "witness" not in doc


def test_verdicts_validate_against_verdict_schema():
    """Every fixture verdict shape conforms to the shipped verdict schema."""
    schema = json.loads((MODELS / "verdict.schema.json").read_text(encoding="utf-8"))
    cases = [
        (make_g_diag, ["diagnosability", "predictability"]),
        (make_g_det, ["i-detectability", "strong-detectability",
                      "weak-detectability", "delayed-detectability"]),
        (make_g_opa, ["initial-state-opacity", "current-state-opacity",
                      "infinite-step-opacity"]),
    ]
    for make, kinds in cases:
        for kind in kinds:
            verdict = verify(make(), kind)
            jsonschema.validate(verdict_to_json(verdict), schema)
    bounded = verify(make_twin_branch(), "weak-detectability", wd_route="bounded")
    assert bounded.bound == len(build_kripke(make_twin_branch()).nodes) + 1
    jsonschema.validate(verdict_to_json(bounded), schema)


def non_string_machines():
    """(machine, path) rows: each machine has a name or identifiers that
    are not strings, first met by parse_model at path."""
    def machine(states=("0", "1"), events=("a", "u"), observations=("o1",), name="m"):
        x0, x1 = states
        a, u = events
        return Fsa(states=states, events=events, initial=[x0],
                   transitions={(x0, a): x1, (x1, a): x0, (x0, u): x1},
                   mask={a: observations[0], u: None}, observations=observations,
                   fault_events=[u], secret_states=[x1], name=name)
    yield machine(states=(0, 1)), "$.states[0]"
    yield machine(states=("0", 1)), "$.states[1]"
    yield machine(name=7), "$.name"
    yield machine(name=7, states=(0, 1)), "$.name"
    yield machine(events=("a", 2.5)), "$.events[1]"
    yield machine(events=("a", 2.5), states=("0", (1,))), "$.states[1]"
    yield machine(observations=(True,)), "$.observations[0]"
    yield machine(observations=(3,), events=(1, "u")), "$.events[0]"


@pytest.mark.parametrize("fsa, path", non_string_machines())
def test_writer_refuses_non_string_identifiers(fsa, path):
    """A machine no model file can hold has no text: serialize_model raises
    the SchemaError, path and message included, that parse_model raises on
    the text json.dumps writes of it."""
    with pytest.raises(SchemaError) as err:
        serialize_model(fsa)
    assert err.value.path == path
    with pytest.raises(SchemaError) as parsed:
        parse_model(reference_serialize(fsa))
    assert (err.value.path, str(err.value)) == (parsed.value.path, str(parsed.value))
