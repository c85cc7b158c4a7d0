"""Verification of observational properties of partially observed automata.

The package decides nine properties of finite-state, partially observed
discrete-event systems: diagnosability, predictability, four detectability
variants and three opacity variants.  Each property is encoded as a two-trace
temporal formula over a Kripke structure derived from the automaton and
checked by quantifier-prefix-specific engines; an independent oracle decides
each property from its state-estimate definition for cross-validation.

Typical entry points:

    from hyperdes import HyperAnalysis, load_model, oracle_check, verify
    fsa = load_model("model.json")
    verdict = verify(fsa, "diagnosability")          # the hyper route
    reference = oracle_check(fsa, "diagnosability")  # the oracle route

Each route has one per-machine object, and the two are peers that never
share a structure.  HyperAnalysis(fsa) builds each of the hyper route's
structures once and shares it across its verify and replay calls;
OracleAnalysis(fsa) does the same for the oracle's checks.  verify and
oracle_check decide one property on a fresh object.  Every verdict carries
the seconds it took.

The `hyperdes` console script exposes the same functionality (plus structure
inspection and differential fuzzing) on the command line.
"""

from .des import (
    Fsa,
    build_observer,
    current_state_estimate,
    delayed_state_estimate,
    initial_state_estimate,
    validate_fsa,
)
from .formula import PROPERTIES, parse_formula, property_formula
from .fuzz import differential_fuzz
from .hyper import HyperAnalysis, replay_witness, verify
from .kripke import KNode, Lasso, Verdict, build_kripke, build_modified_kripke, export_dot
from .modelio import load_model, parse_model, serialize_model
from .oracle import OracleAnalysis, oracle_check

__version__ = "0.1.0"

__all__ = [
    "Fsa",
    "HyperAnalysis",
    "KNode",
    "Lasso",
    "OracleAnalysis",
    "PROPERTIES",
    "Verdict",
    "build_kripke",
    "build_modified_kripke",
    "build_observer",
    "current_state_estimate",
    "delayed_state_estimate",
    "differential_fuzz",
    "export_dot",
    "initial_state_estimate",
    "load_model",
    "oracle_check",
    "parse_formula",
    "parse_model",
    "property_formula",
    "replay_witness",
    "serialize_model",
    "validate_fsa",
    "verify",
    "__version__",
]
