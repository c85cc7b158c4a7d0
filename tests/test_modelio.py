"""Model file parsing, canonical serialization, verdict output.

The three fixture machines live under models/ in canonical form.  Parsing
them must reproduce the conftest builders field by field, serializing must
reproduce the files byte for byte, and every parse error must point at the
offending location with a JSON path.
"""

import json
import random
from pathlib import Path

import jsonschema
import pytest

from hyperdes.errors import (
    DuplicateTransition,
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
