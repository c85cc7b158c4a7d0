"""Command-line front end: verify properties, inspect structures, fuzz, export.

stdout carries machine output only (JSON, or DOT when requested); summaries
and warnings go to stderr.  Exit codes: 0 every checked property holds, 1 at
least one is violated, 2 usage or model errors (including a disagreement
under --engine both), 4 an internal error: any other exception, whose
traceback goes to stderr.  Every verdict the command line reports is exact,
so none is inconclusive and 3 is not used.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .des import (
    build_observer,
    current_state_estimate,
    delayed_state_estimate,
    initial_state_estimate,
    state_moves,
    validate_fsa,
)
from .errors import HyperdesError
from .formula import (
    DETECTABILITY_PROPERTIES,
    OPACITY_PROPERTIES,
    PROPERTIES,
    missing_annotation,
)
from .fuzz import differential_fuzz
from .hyper import HyperAnalysis
from .kripke import build_kripke, build_modified_kripke, dot_quote, export_dot
from .modelio import MASK_EPS, load_model, serialize_model, verdict_to_json
from .oracle import OracleAnalysis

# the model field that carries each annotation
ANNOTATION_FIELDS = {"fault": "fault_events", "secret": "secret_states"}


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def cmd_verify(args):
    fsa = load_model(args.model)
    explicit = list(args.properties or [])
    chosen = []
    for kind in (explicit
                 + (list(PROPERTIES) if args.all else [])
                 + (list(DETECTABILITY_PROPERTIES) if args.all_detectability else [])
                 + (list(OPACITY_PROPERTIES) if args.all_opacity else [])):
        if kind not in chosen:
            chosen.append(kind)
    if not chosen:
        print("error: select at least one property "
              "(--property, --all, --all-detectability, --all-opacity)",
              file=sys.stderr)
        return 2

    checked = []
    for kind in chosen:
        missing = missing_annotation(kind, fsa)
        if missing is None:
            checked.append(kind)
            continue
        field = ANNOTATION_FIELDS[missing]
        if kind in explicit:
            print(f"error: {kind} needs the {field} annotation on the model",
                  file=sys.stderr)
            return 2
        print(f"skipping {kind}: model has no {field} annotation",
              file=sys.stderr)

    # one analysis per route, so the routes never share a structure; under
    # --engine both, weak detectability compares the hyper engine's search
    # for a cycle of singleton estimates of the Kripke structure with the
    # oracle's search for one on the observer
    analysis, oracle = HyperAnalysis(fsa), OracleAnalysis(fsa)
    decide = {"hyper": analysis.verify, "oracle": oracle.check}
    engines = ("hyper", "oracle") if args.engine == "both" else (args.engine,)
    entries = []
    verdicts = []
    disagreements = []
    for kind in checked:
        per_engine = []
        for engine in engines:
            verdict = decide[engine](kind)
            per_engine.append(verdict)
            verdicts.append(verdict)
            doc = verdict_to_json(verdict)
            if not args.emit_witness:
                doc.pop("witness", None)
            entries.append(doc)
            print(f"{kind}: {'holds' if verdict.holds else 'violated'} "
                  f"[{verdict.engine}, {verdict.mode}, {verdict.seconds:.3f}s]",
                  file=sys.stderr)
        if len(per_engine) == 2 and per_engine[0].holds != per_engine[1].holds:
            disagreements.append(kind)

    if args.check_witness:
        replayable = [v for v in verdicts if v.replayable]
        for verdict in replayable:
            if not analysis.replay(verdict.property, verdict):
                print(f"error: witness for {verdict.property} did not replay",
                      file=sys.stderr)
                return 2
        print(f"replayed {len(replayable)} witness(es), all confirmed", file=sys.stderr)

    _emit(_json_text(entries), args.out)
    if disagreements:
        print("error: engines disagree on: " + ", ".join(disagreements),
              file=sys.stderr)
        return 2
    return 1 if any(v.holds is False for v in verdicts) else 0


def _kripke_json(k):
    nodes = []
    for q in k.nodes:
        nodes.append({
            "state": q.state,
            "obs": MASK_EPS if q.obs is None else q.obs,
            "copy": bool(q.copy),
            "labels": sorted(k.label[q]),
        })
    edges = [[k.index[q], k.index[t]] for q in k.nodes for t in k.succ[q]]
    return {
        "modified": k.modified,
        "initial": [k.index[q] for q in k.initial],
        "nodes": nodes,
        "edges": edges,
    }


def _observer_json(fsa, observer):
    order = {est: i for i, est in enumerate(observer.nodes)}
    nodes = [fsa.sort_states(est) for est in observer.nodes]
    edges = sorted(([order[src], o, order[dst]] for src in observer.nodes
                    for o, dst in observer.moves[src]), key=lambda e: (e[0], e[1]))
    return {"initial": order[observer.initial], "nodes": nodes, "edges": edges}


def _observer_dot(fsa, observer):
    def name(est):
        return dot_quote("{" + ",".join(fsa.sort_states(est)) + "}")

    lines = ["digraph observer {", "  rankdir=LR;",
             "  node [shape=box, fontsize=10];"]
    for est in observer.nodes:
        extra = ", peripheries=2" if est == observer.initial else ""
        lines.append(f"  {name(est)} [label={name(est)}{extra}];")
    for src in observer.nodes:
        for o, dst in sorted(observer.moves[src], key=lambda move: move[0]):
            lines.append(f"  {name(src)} -> {name(dst)} [label={dot_quote(o)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_inspect(args):
    fsa = validate_fsa(load_model(args.model))
    if args.what == "estimates":
        obs = tuple(args.obs.split(",")) if args.obs else ()
        if "" in obs:
            print(f"error: --obs {args.obs!r} has an empty observation symbol",
                  file=sys.stderr)
            return 2
        if args.delay < 0 or args.delay > len(obs):
            print(f"error: --delay must be between 0 and {len(obs)}",
                  file=sys.stderr)
            return 2
        split = len(obs) - args.delay
        moves = state_moves(fsa)
        doc = {
            "obs": list(obs),
            "initial_estimate": fsa.sort_states(initial_state_estimate(fsa, obs, moves)),
            "current_estimate": fsa.sort_states(current_state_estimate(fsa, obs, moves)),
            "delayed": {
                "alpha": list(obs[:split]),
                "beta": list(obs[split:]),
                "estimate": fsa.sort_states(
                    delayed_state_estimate(fsa, obs[:split], obs[split:], moves)),
            },
        }
        _emit(_json_text(doc), args.out)
        return 0
    if args.what == "observer":
        observer = build_observer(fsa)
        if args.format == "dot":
            _emit(_observer_dot(fsa, observer), args.out)
        else:
            _emit(_json_text(_observer_json(fsa, observer)), args.out)
        return 0
    k = build_kripke(fsa)
    if args.what == "modified-kripke":
        k = build_modified_kripke(k)
    if args.format == "dot":
        _emit(export_dot(k), args.out)
    else:
        _emit(_json_text(_kripke_json(k)), args.out)
    return 0


def cmd_fuzz(args):
    report = differential_fuzz(seed=args.seed, count=args.count,
                               max_states=args.max_states,
                               max_events=args.max_events,
                               max_obs=args.max_obs)
    _emit(_json_text(report), args.out)
    print(f"fuzzed {report['count']} machines: "
          f"{len(report['disagreements'])} disagreements, "
          f"{len(report['witness_failures'])} witness replay failures",
          file=sys.stderr)
    if report["disagreements"] or report["witness_failures"]:
        return 2
    return 0


def cmd_export(args):
    _emit(serialize_model(load_model(args.model)), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperdes",
        description="Decide observational properties of partially observed "
                    "finite automata: diagnosability, predictability, "
                    "detectability and opacity variants.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("verify", help="check properties of a model file")
    p.add_argument("--model", required=True, help="model file (schema v1 JSON)")
    p.add_argument("--property", dest="properties", action="append",
                   choices=PROPERTIES, metavar="KIND",
                   help="property to check, repeatable; one of: "
                        + ", ".join(PROPERTIES))
    p.add_argument("--all", action="store_true",
                   help="check all nine properties, skipping those the model "
                        "is not annotated for")
    p.add_argument("--all-detectability", action="store_true",
                   help="check the four detectability variants")
    p.add_argument("--all-opacity", action="store_true",
                   help="check the three opacity variants")
    p.add_argument("--engine", choices=("hyper", "oracle", "both"),
                   default="hyper",
                   help="verification engine; both compares and fails on "
                        "disagreement")
    p.add_argument("--emit-witness", action="store_true",
                   help="include witness lassos in the JSON output")
    p.add_argument("--check-witness", action="store_true",
                   help="replay every produced witness before reporting")
    p.add_argument("--out", default=None,
                   help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("inspect", help="dump a derived structure")
    p.add_argument("--model", required=True, help="model file (schema v1 JSON)")
    p.add_argument("--what", required=True,
                   choices=("kripke", "modified-kripke", "observer", "estimates"))
    p.add_argument("--obs", default="",
                   help='comma-separated observation symbols, "" for the '
                        "empty string")
    p.add_argument("--delay", type=int, default=0,
                   help="trailing observations treated as hindsight for the "
                        "delayed estimate")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out", default=None,
                   help="write output here instead of stdout")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("fuzz", help="differential-fuzz the two engines")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--max-states", type=int, default=5)
    p.add_argument("--max-events", type=int, default=4)
    p.add_argument("--max-obs", type=int, default=3)
    p.add_argument("--out", default=None,
                   help="write the report here instead of stdout")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("export", help="rewrite a model file in canonical form")
    p.add_argument("--model", required=True, help="model file (schema v1 JSON)")
    p.add_argument("--out", default=None,
                   help="write the canonical file here instead of stdout")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HyperdesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("error: internal error", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
