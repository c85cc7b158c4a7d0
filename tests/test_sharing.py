"""One owner per structure: each route builds a machine's structures once.

The builders are wrapped where each route looks them up, so a call counts
for the route that made it: the hyper route refines the machine and builds
its plain and modified Kripke structures, the oracle route builds its
observer, and refines the machine only to report a diagnosability
violation's pumping horizon.
"""

from pathlib import Path

import pytest

import hyperdes.hyper
import hyperdes.oracle
from hyperdes.cli import main
from hyperdes.formula import missing_annotation
from hyperdes.fuzz import differential_fuzz
from hyperdes.modelio import load_model
from hyperdes.oracle import OracleAnalysis

BUILDERS = {
    "hyper": ("refine_fault_partition", "build_kripke", "build_modified_kripke"),
    "oracle": ("refine_fault_partition", "build_observer"),
}
ROUTES = {"hyper": hyperdes.hyper, "oracle": hyperdes.oracle}
MODELS = Path(__file__).resolve().parent.parent / "models"


@pytest.fixture
def builds(monkeypatch):
    """(route, builder) -> the argument of every call made since."""
    calls = {}
    for route, names in BUILDERS.items():
        module = ROUTES[route]
        for name in names:
            seen = calls[(route, name)] = []

            def counted(arg, _build=getattr(module, name), _seen=seen):
                _seen.append(arg)
                return _build(arg)

            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("model", ["g_diag", "g_det", "g_opa"])
def test_cli_builds_each_structure_once_per_route(model, builds, capsys):
    """verify --all --engine both --check-witness decides and replays every
    property a model is annotated for on one structure of each kind per
    route: no builder runs twice on the same argument, and each route
    refines the machine and builds its observer or modified structure at
    most once."""
    code = main(["verify", "--model", str(MODELS / f"{model}.json"), "--all",
                 "--engine", "both", "--check-witness"])
    assert code in (0, 1)
    assert "replayed" in capsys.readouterr().err
    for (route, name), args in builds.items():
        assert len({id(a) for a in args}) == len(args), (route, name)
        if name != "build_kripke":
            assert len(args) <= 1, (route, name)
    assert builds[("hyper", "build_kripke")]
    assert builds[("oracle", "build_observer")]


@pytest.mark.parametrize("model", ["g_diag", "g_det", "g_opa"])
def test_oracle_decides_on_the_machine_without_observer_or_refinement(model, builds):
    """Strong detectability, current-state opacity, predictability and a
    holding diagnosability verdict are decided on the machine itself: an
    OracleAnalysis asked every one of them the model is annotated for
    builds no observer and no fault refinement."""
    oracle = OracleAnalysis(load_model(MODELS / f"{model}.json"))
    asked = [kind for kind in ("strong-detectability", "current-state-opacity",
                               "diagnosability", "predictability")
             if missing_annotation(kind, oracle.fsa) is None]
    verdicts = {kind: oracle.check(kind).holds for kind in asked}
    assert verdicts.get("diagnosability", True) is True
    assert {name: args for (route, name), args in builds.items()
            if route == "oracle" and args} == {}


def test_fuzz_builds_each_structure_once_per_machine_and_route(builds):
    """differential_fuzz holds one analysis per route per machine for all
    nine verdicts of each route and every replay: at most two Kripke
    structures (the machine and its refinement), one modified structure,
    one observer, and one refinement on each route, per machine.  The shape
    of a forall/exists body is read once per body, for all machines."""
    count = 500
    hyperdes.hyper._sync_form.cache_clear()
    report = differential_fuzz(seed=20260823, count=count)
    assert report["disagreements"] == [] and report["witness_failures"] == []
    made = {key: len(args) for key, args in builds.items()}
    assert made[("hyper", "build_kripke")] <= 2 * count
    assert made[("hyper", "build_modified_kripke")] <= count
    assert made[("oracle", "build_observer")] <= count
    assert made[("hyper", "refine_fault_partition")] <= count
    assert made[("oracle", "refine_fault_partition")] <= count
    assert min(made.values()) > 0
    assert hyperdes.hyper._sync_form.cache_info().misses == 3
