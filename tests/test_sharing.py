"""One owner per structure: each route builds a machine's structures once.

The builders are wrapped where each route looks them up, so a call counts
for the route that made it: the hyper route refines the machine and builds
its plain and modified Kripke structures, the oracle route builds its
observer, and refines the machine only to report a diagnosability
violation's pumping horizon.  Each route makes one set stepper
(des.state_moves) per machine it checks and hands it to every structure it
builds of that machine; the stepper is also wrapped where des and kripke
look it up, which is where a builder handed none makes its own, and where
the command line's estimates query makes its one.
"""

from pathlib import Path

import pytest

import hyperdes.cli
import hyperdes.des
import hyperdes.hyper
import hyperdes.kripke
import hyperdes.oracle
from hyperdes.cli import main
from hyperdes.formula import missing_annotation
from hyperdes.fuzz import differential_fuzz
from hyperdes.modelio import load_model
from hyperdes.oracle import OracleAnalysis

BUILDERS = {
    "hyper": ("refine_fault_partition", "build_kripke", "build_modified_kripke",
              "state_moves"),
    "oracle": ("refine_fault_partition", "build_observer", "state_moves"),
    # a builder's own stepper, made when it is handed none
    "des": ("state_moves",),
    "kripke": ("state_moves",),
    # the stepper of an estimates query
    "cli": ("state_moves",),
}
ROUTES = {"hyper": hyperdes.hyper, "oracle": hyperdes.oracle, "des": hyperdes.des,
          "kripke": hyperdes.kripke, "cli": hyperdes.cli}
MODELS = Path(__file__).resolve().parent.parent / "models"


@pytest.fixture
def builds(monkeypatch):
    """(route, builder) -> the first argument of every call made since;
    any further arguments are passed through."""
    calls = {}
    for route, names in BUILDERS.items():
        module = ROUTES[route]
        for name in names:
            seen = calls[(route, name)] = []

            def counted(arg, *rest, _build=getattr(module, name), _seen=seen):
                _seen.append(arg)
                return _build(arg, *rest)

            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("model", ["g_diag", "g_det", "g_opa"])
def test_cli_builds_each_structure_once_per_route(model, builds, capsys):
    """verify --all --engine both --check-witness decides and replays every
    property a model is annotated for on one structure of each kind per
    route: no builder runs twice on the same argument, and each route
    refines the machine and builds its observer or modified structure at
    most once.  The hyper route makes one stepper for each machine it
    builds a Kripke structure of, the plain one and the refined one, just
    before that structure, and the oracle route one for the machine; no
    builder makes a stepper of its own."""
    code = main(["verify", "--model", str(MODELS / f"{model}.json"), "--all",
                 "--engine", "both", "--check-witness"])
    assert code in (0, 1)
    assert "replayed" in capsys.readouterr().err
    for (route, name), args in builds.items():
        assert len({id(a) for a in args}) == len(args), (route, name)
        if name not in ("build_kripke", "state_moves"):
            assert len(args) <= 1, (route, name)
    assert builds[("hyper", "build_kripke")]
    assert builds[("oracle", "build_observer")]
    assert _same(builds[("hyper", "state_moves")], builds[("hyper", "build_kripke")])
    assert len(builds[("oracle", "state_moves")]) == 1
    assert builds[("des", "state_moves")] == builds[("kripke", "state_moves")] == []


def _same(made, built):
    """Whether the two lists hold the same objects in the same order."""
    return len(made) == len(built) and all(a is b for a, b in zip(made, built))


@pytest.mark.parametrize("model", ["g_diag", "g_det", "g_opa"])
def test_oracle_decides_on_the_machine_without_observer_or_refinement(model, builds):
    """Strong detectability, current-state opacity, predictability and a
    holding diagnosability verdict are decided on the machine itself: an
    OracleAnalysis asked every one of them the model is annotated for
    builds no observer and no fault refinement.  Current-state opacity's
    walk makes the analysis's one stepper."""
    oracle = OracleAnalysis(load_model(MODELS / f"{model}.json"))
    asked = [kind for kind in ("strong-detectability", "current-state-opacity",
                               "diagnosability", "predictability")
             if missing_annotation(kind, oracle.fsa) is None]
    verdicts = {kind: oracle.check(kind).holds for kind in asked}
    assert verdicts.get("diagnosability", True) is True
    assert {name: args for (route, name), args in builds.items()
            if route == "oracle" and name != "state_moves" and args} == {}
    assert len(builds[("oracle", "state_moves")]) == (
        "current-state-opacity" in asked)


def test_fuzz_builds_each_structure_once_per_machine_and_route(builds):
    """differential_fuzz holds one analysis per route per machine for all
    nine verdicts of each route and every replay: at most two Kripke
    structures (the machine and its refinement), one modified structure,
    one observer, and one refinement on each route, per machine.  The hyper
    route makes one stepper per Kripke structure, for the machine it
    encodes, and the oracle route at most one per machine; no builder makes
    its own.  The shape of a forall/exists body is read once per body, for
    all machines: the three opacity bodies and the one weak detectability's
    negates."""
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
    assert _same(builds[("hyper", "state_moves")], builds[("hyper", "build_kripke")])
    oracle_steppers = builds[("oracle", "state_moves")]
    assert len({id(a) for a in oracle_steppers}) == len(oracle_steppers) <= count
    assert made[("des", "state_moves")] == made[("kripke", "state_moves")] == 0
    assert min(n for (route, _), n in made.items() if route in ("hyper", "oracle")) > 0
    assert hyperdes.hyper._sync_form.cache_info().misses == 4


def test_each_analysis_makes_its_own_stepper(builds):
    """No stepper outlives its analysis: two verdicts asked of one machine
    through the module-level verify and oracle_check make two steppers on
    each route, none kept on the machine."""
    fsa = load_model(MODELS / "g_opa.json")
    for _ in range(2):
        hyperdes.hyper.verify(fsa, "current-state-opacity")
        hyperdes.oracle.oracle_check(fsa, "current-state-opacity")
    assert _same(builds[("hyper", "state_moves")], [fsa, fsa])
    assert _same(builds[("oracle", "state_moves")], [fsa, fsa])


@pytest.mark.parametrize("delay", [0, 1, 2])
def test_an_estimates_query_makes_one_stepper(delay, builds, capsys):
    """inspect --what estimates answers its initial, current and delayed
    estimates, the delayed one's two walks included, on one stepper of the
    machine, and no estimate function makes its own.  Called alone, the
    delayed estimate makes one stepper for both its walks."""
    code = main(["inspect", "--model", str(MODELS / "g_det.json"), "--what", "estimates",
                 "--obs", "o1,o2", "--delay", str(delay)])
    assert code == 0 and capsys.readouterr().out
    assert len(builds[("cli", "state_moves")]) == 1
    assert builds[("des", "state_moves")] == []
    fsa = load_model(MODELS / "g_det.json")
    assert hyperdes.des.delayed_state_estimate(fsa, ("o1",), ("o2",)) == {"1", "4"}
    assert _same(builds[("des", "state_moves")], [fsa])
