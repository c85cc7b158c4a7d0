"""End-to-end command-line behavior on the shipped fixture models.

Exit codes are part of the interface: 0 when everything checked holds, 1 on
a violation, 2 on usage or model errors (including engine disagreement), 4
on an internal error; every verdict is exact, so 3 is not used.  stdout
must stay machine output (JSON, or DOT on request); prose goes to stderr.
"""

import json
import re
from pathlib import Path

import pytest

import hyperdes.cli
from hyperdes.cli import main
from hyperdes.des import Fsa, build_observer
from hyperdes.formula import PROPERTIES
from hyperdes.kripke import build_kripke, build_modified_kripke
from hyperdes.modelio import load_model, serialize_model

MODELS = Path(__file__).resolve().parent.parent / "models"
G_DIAG = str(MODELS / "g_diag.json")
G_DET = str(MODELS / "g_det.json")
G_OPA = str(MODELS / "g_opa.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_diagnosability_holds(capsys):
    """g_diag is diagnosable: exit 0 and a single conclusive JSON entry."""
    code, out, err = run(capsys, "verify", "--model", G_DIAG,
                         "--property", "diagnosability")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 1 and entries[0]["holds"] is True
    assert entries[0]["property"] == "diagnosability"
    assert "diagnosability: holds" in err


def test_verify_predictability_emits_witness(capsys):
    """g_diag is not predictable: exit 1 with the two-lasso witness."""
    code, out, _ = run(capsys, "verify", "--model", G_DIAG,
                       "--property", "predictability", "--emit-witness")
    assert code == 1
    entry = json.loads(out)[0]
    assert entry["holds"] is False
    first, second = entry["witness"]
    assert [n["state"] for n in first["stem"]] == ["0", "1"]
    assert [n["state"] for n in first["cycle"]] == ["2"]
    assert [n["state"] for n in second["stem"] + second["cycle"]] == ["3", "4", "5"]


def test_verify_omits_witness_by_default(capsys):
    """Without --emit-witness the JSON entries carry no witness key."""
    _, out, _ = run(capsys, "verify", "--model", G_DIAG,
                    "--property", "predictability")
    assert "witness" not in json.loads(out)[0]


def test_all_opacity_group(capsys):
    """g_opa keeps initial- and current-state secrets but not infinite-step."""
    code, out, _ = run(capsys, "verify", "--model", G_OPA, "--all-opacity")
    assert code == 1
    got = {e["property"]: e["holds"] for e in json.loads(out)}
    assert got == {"initial-state-opacity": True,
                   "current-state-opacity": True,
                   "infinite-step-opacity": False}


def test_engine_both_agreeing_is_not_an_error(capsys):
    """Two agreeing engines produce paired entries and the verdict exit code."""
    code, out, _ = run(capsys, "verify", "--model", G_OPA, "--all-opacity",
                       "--engine", "both")
    assert code == 1
    entries = json.loads(out)
    assert len(entries) == 6
    assert [e["property"] for e in entries[:2]] == ["initial-state-opacity"] * 2
    assert entries[0]["engine"] != entries[1]["engine"]


def test_engine_both_never_compares_a_route_with_itself(capsys):
    """Under --engine both, weak detectability compares the hyper engine's
    exact route, the subset graph of its Kripke structure, with the
    oracle's observer check."""
    code, out, _ = run(capsys, "verify", "--model", G_DET,
                       "--property", "weak-detectability", "--engine", "both")
    assert code == 0
    hyper, oracle = json.loads(out)
    assert hyper["holds"] is oracle["holds"] is True
    assert hyper["engine"] == "hyper-exists-forall"
    assert oracle["engine"] == "oracle-observer"


def test_internal_error_exits_four(capsys, monkeypatch):
    """An exception that is neither a model nor an I/O error exits 4, which
    no verdict uses, and leaves its traceback on stderr."""
    def broken(*args, **kwargs):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(hyperdes.cli.HyperAnalysis, "verify", broken)
    code, out, err = run(capsys, "verify", "--model", G_DIAG,
                         "--property", "diagnosability")
    assert code == 4 and out == ""
    assert "Traceback" in err and "RuntimeError: engine fault" in err


def test_all_skips_unannotated_properties(capsys):
    """--all on a model without annotations checks what it can and warns."""
    code, out, err = run(capsys, "verify", "--model", G_DET, "--all")
    assert code == 1
    props = [e["property"] for e in json.loads(out)]
    assert props == ["i-detectability", "strong-detectability",
                     "weak-detectability", "delayed-detectability"]
    assert "skipping diagnosability" in err
    assert "skipping initial-state-opacity" in err


def test_check_witness_confirms_replay(capsys):
    """--check-witness replays the predictability refutation successfully."""
    code, _, err = run(capsys, "verify", "--model", G_DIAG,
                       "--property", "predictability", "--check-witness")
    assert code == 1
    assert "replayed 1 witness(es), all confirmed" in err


def test_declared_empty_fault_events_decide_every_property(capsys, tmp_path):
    """A model whose fault_events is [] declares the annotation: --all
    checks all nine properties on both routes, and diagnosability and
    predictability hold on each."""
    model = tmp_path / "fault-free.json"
    model.write_text(serialize_model(Fsa(
        states=["0", "1"], events=["a", "b"],
        transitions={("0", "a"): "1", ("1", "b"): "0", ("1", "a"): "1"},
        initial=["0"], mask={"a": "o1", "b": None},
        fault_events=[], secret_states=["1"])), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--model", str(model), "--all",
                         "--engine", "both", "--check-witness")
    assert code in (0, 1), err
    entries = json.loads(out)
    assert [e["property"] for e in entries[::2]] == list(PROPERTIES)
    assert all(e["holds"] in (True, False) for e in entries)
    for entry in entries:
        if entry["property"] in ("diagnosability", "predictability"):
            assert entry["holds"] is True
    assert "skipping" not in err


def test_invalid_bound_exits_two(capsys):
    """The command line takes no bound: --bound is an argparse usage error,
    exit 2 with the usage message and no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--model", G_DIAG, "--property", "diagnosability",
              "--bound", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --bound 2" in captured.err
    assert "Traceback" not in captured.err


def test_verify_ignores_the_bound_environment_variable(capsys, monkeypatch):
    """No module reads HYPERDES_BOUND: whether it is a number or not,
    verify --all --engine both gives, on every fixture, the exit code and
    stdout it gives with the variable unset (the verdicts' seconds aside)."""
    def outcome(model):
        code, out, _ = run(capsys, "verify", "--model", model, "--all",
                           "--engine", "both")
        return code, [{k: v for k, v in e.items() if k != "seconds"}
                      for e in json.loads(out)]

    for model in (G_DIAG, G_DET, G_OPA):
        monkeypatch.delenv("HYPERDES_BOUND", raising=False)
        unset = outcome(model)
        for value in ("abc", "2"):
            monkeypatch.setenv("HYPERDES_BOUND", value)
            assert outcome(model) == unset, (model, value)


def test_usage_and_model_errors_exit_two(capsys, tmp_path):
    """Missing files, missing annotations and bad flags all exit 2."""
    assert run(capsys, "verify", "--model", str(tmp_path / "nope.json"),
               "--property", "diagnosability")[0] == 2
    assert run(capsys, "verify", "--model", G_DET,
               "--property", "diagnosability")[0] == 2
    assert run(capsys, "verify", "--model", G_DIAG)[0] == 2
    assert run(capsys, "inspect", "--model", G_DIAG, "--what", "estimates",
               "--obs", "oX")[0] == 2
    assert run(capsys, "inspect", "--model", G_DIAG, "--what", "estimates",
               "--obs", "o1", "--delay", "3")[0] == 2
    with pytest.raises(SystemExit) as err:
        main(["verify", "--model", G_DIAG, "--property", "bogus"])
    assert err.value.code == 2
    capsys.readouterr()


def test_broken_model_file_exits_two(capsys, tmp_path):
    """Schema violations surface as exit 2 with the JSON path on stderr."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "states": ["s"]}', encoding="utf-8")
    code, out, err = run(capsys, "verify", "--model", str(bad),
                         "--property", "i-detectability")
    assert code == 2 and out == ""
    assert "$.events" in err


@pytest.mark.parametrize("content", [
    b"[" * 200_000,
    b'{"version": ' + b"1" * 5000 + b"}",
    b'{"name": "\xff"}',
], ids=["nested-too-deep", "integer-too-long", "not-utf8"])
def test_unreadable_model_file_is_a_schema_error(capsys, tmp_path, content):
    """A file the JSON reader cannot take in (nesting past the recursion
    limit, an integer past the digit limit, bytes that are not UTF-8) is a
    schema error at $ for every command that loads a model: exit 2, no
    traceback."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    for argv in (("verify", "--model", str(bad), "--property", "i-detectability"),
                 ("export", "--model", str(bad))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "(at $)" in err and "Traceback" not in err and "internal error" not in err


def test_inspect_estimates_empty_observation(capsys):
    """The empty observation string reports the unobservable reach of X0."""
    code, out, _ = run(capsys, "inspect", "--model", G_DIAG,
                       "--what", "estimates", "--obs", "")
    assert code == 0
    doc = json.loads(out)
    assert doc["initial_estimate"] == ["0"]
    assert doc["current_estimate"] == ["0", "3"]


def test_inspect_estimates_refuses_an_empty_symbol(capsys):
    """An empty symbol inside a nonempty --obs (leading, doubled or
    trailing comma) is a usage error: exit 2 with a message and no
    traceback, where it used to be dropped silently."""
    for obs in ("o1,,o2", ",o1", "o1,", ","):
        code, out, err = run(capsys, "inspect", "--model", G_OPA,
                             "--what", "estimates", "--obs", obs)
        assert code == 2 and out == "", obs
        assert "empty observation symbol" in err and "Traceback" not in err, obs


def test_inspect_estimates_delay_split(capsys):
    """--delay moves trailing observations into the hindsight suffix."""
    code, out, _ = run(capsys, "inspect", "--model", G_DET,
                       "--what", "estimates", "--obs", "o1,o2", "--delay", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["delayed"]["alpha"] == ["o1"] and doc["delayed"]["beta"] == ["o2"]
    assert doc["delayed"]["estimate"] == ["1", "4"]
    assert doc["current_estimate"] == ["2"]


def test_inspect_kripke_dot(capsys):
    """DOT output names nodes (state,obs) and doubles initial borders."""
    code, out, _ = run(capsys, "inspect", "--model", G_DIAG,
                       "--what", "kripke", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"(0,eps)"' in out and '"(3,eps)"' in out
    assert "peripheries=2" in out


DOT_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|->|[][{};,=]|\w+')


def dot_tokens(line):
    """The tokens of one line of DOT: quoted strings, ids, -> and
    punctuation; anything else, such as a quote closed early, fails."""
    tokens, pos = [], 0
    while pos < len(line):
        if line[pos] == " ":
            pos += 1
            continue
        match = DOT_TOKEN.match(line, pos)
        assert match, (line, pos)
        tokens.append(match.group())
        pos = match.end()
    return tokens


def unquote(token):
    assert len(token) >= 2 and token[0] == token[-1] == '"', token
    return re.sub(r"\\(.)", r"\1", token[1:-1])


def dot_graph(text):
    """The nodes and edges of a DOT graph as the exporters write it, read
    one tokenized line at a time: {node id: its attributes} and [(source,
    target, label)], ids and labels unescaped."""
    lines = text.splitlines()
    assert dot_tokens(lines[0])[::2] == ["digraph", "{"] and lines[-1] == "}"
    nodes, edges = {}, []
    for line in lines[1:-1]:
        tokens = dot_tokens(line)
        assert tokens[-1] == ";", line
        if tokens[0] in ("rankdir", "node"):
            continue
        n = 3 if tokens[1] == "->" else 1
        ids, attrs, items = [unquote(t) for t in tokens[:n:2]], {}, tokens[n:-1]
        if items:
            assert items[0] == "[" and items[-1] == "]", line
            for i in range(1, len(items) - 1, 4):
                key, eq, value, sep = items[i:i + 4]
                assert eq == "=" and sep in (",", "]"), line
                attrs[key] = unquote(value) if value.startswith('"') else value
        if n == 1:
            nodes[ids[0]] = attrs
        else:
            edges.append((*ids, attrs.get("label")))
    return nodes, edges


def test_dot_exports_escape_quotes_and_backslashes(capsys, tmp_path):
    """Every quoted id and label of both DOT exporters escapes quotes and
    backslashes: on a model whose states and observations hold them, and on
    g_opa, each output line tokenizes, and its ids and labels read back as
    the nodes, labels and edges of the structure."""
    model = tmp_path / "quotes.json"
    model.write_text(serialize_model(Fsa(
        states=['a"b', "c\\"], events=["e", "f"],
        transitions={('a"b', "e"): "c\\", ("c\\", "f"): 'a"b', ("c\\", "e"): "c\\"},
        initial=['a"b', "c\\"], mask={"e": 'o"1', "f": "o\\2"})), encoding="utf-8")
    for path in (str(model), G_OPA):
        fsa = load_model(path)
        plain = build_kripke(fsa)
        for what, k in (("kripke", plain), ("modified-kripke", build_modified_kripke(plain))):
            code, out, _ = run(capsys, "inspect", "--model", path, "--what", what,
                               "--format", "dot")
            assert code == 0
            nodes, edges = dot_graph(out)
            assert {q: a["label"] for q, a in nodes.items()} == {
                q.pretty(): "{" + ",".join(sorted(k.label[q], key=lambda p: (
                    p[:2] != "x:", p[:2] != "o:", p))) + "}" for q in k.nodes}
            assert edges == [(q.pretty(), t.pretty(), None)
                             for q in k.nodes for t in k.succ[q]]
        obs = build_observer(fsa)

        def name(est):
            return "{" + ",".join(fsa.sort_states(est)) + "}"

        code, out, _ = run(capsys, "inspect", "--model", path, "--what", "observer",
                           "--format", "dot")
        assert code == 0
        nodes, edges = dot_graph(out)
        assert {q: a["label"] for q, a in nodes.items()} == {
            name(est): name(est) for est in obs.nodes}
        assert sorted(edges) == sorted((name(src), name(dst), o) for src in obs.nodes
                                       for o, dst in obs.moves[src])


def test_inspect_observer_json(capsys):
    """The g_det observer has five reachable estimates from {0,3}."""
    code, out, _ = run(capsys, "inspect", "--model", G_DET,
                       "--what", "observer")
    assert code == 0
    doc = json.loads(out)
    assert doc["nodes"][doc["initial"]] == ["0", "3"]
    assert len(doc["nodes"]) == 5
    assert [doc["nodes"][0], "o1", doc["nodes"][1]] == [["0", "3"], "o1", ["1", "4"]]


def test_inspect_modified_kripke_doubles_nodes(capsys):
    """The modified structure adds exactly one stalling copy per node."""
    _, out, _ = run(capsys, "inspect", "--model", G_OPA, "--what", "kripke")
    plain = json.loads(out)
    _, out, _ = run(capsys, "inspect", "--model", G_OPA,
                    "--what", "modified-kripke")
    modified = json.loads(out)
    assert len(modified["nodes"]) == 2 * len(plain["nodes"])
    assert sum(n["copy"] for n in modified["nodes"]) == len(plain["nodes"])


def test_export_normalizes_formatting(capsys, tmp_path):
    """export rewrites an equivalent scrambled file into canonical form."""
    doc = json.loads(Path(G_DIAG).read_text(encoding="utf-8"))
    scrambled = tmp_path / "scrambled.json"
    scrambled.write_text(json.dumps(dict(reversed(list(doc.items())))),
                         encoding="utf-8")
    code, out, _ = run(capsys, "export", "--model", str(scrambled))
    assert code == 0
    assert out == Path(G_DIAG).read_text(encoding="utf-8")


def test_out_flag_writes_file_and_keeps_stdout_clean(capsys, tmp_path):
    """--out redirects the JSON payload away from stdout."""
    target = tmp_path / "verdicts.json"
    code, out, _ = run(capsys, "verify", "--model", G_DIAG,
                       "--property", "diagnosability", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text(encoding="utf-8"))[0]["holds"] is True


def test_fuzz_smoke(capsys):
    """A tiny fuzz run reports its tallies and exits 0 when engines agree."""
    code, out, err = run(capsys, "fuzz", "--seed", "3", "--count", "4")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 4 and report["disagreements"] == []
    assert "fuzzed 4 machines" in err


def test_fuzz_ignores_the_bound_environment_variable(capsys, monkeypatch):
    """The fuzz takes no bound, so HYPERDES_BOUND, which only verify reads,
    leaves its exit code and report as they are without the variable."""
    argv = ("fuzz", "--seed", "1", "--count", "3")
    unset = run(capsys, *argv)
    monkeypatch.setenv("HYPERDES_BOUND", "abc")
    code, out, _ = run(capsys, *argv)
    assert unset[0] == code == 0
    assert out == unset[1]


@pytest.mark.parametrize("flag, value", [("--max-states", "0"), ("--max-states", "1"),
                                         ("--max-events", "0"), ("--max-obs", "0"),
                                         ("--count", "-1")])
def test_fuzz_refuses_sizes_it_cannot_draw(capsys, flag, value):
    """A size limit no machine fits under, or a negative count, is a usage
    error: exit 2 with the offending name, no report and no traceback."""
    code, out, err = run(capsys, "fuzz", "--seed", "3", "--count", "2", flag, value)
    assert code == 2 and out == ""
    assert f"invalid {flag[2:].replace('-', '_')} {value}" in err
    assert "Traceback" not in err and "internal error" not in err
