"""Shared fixture automata used across the test suite.

Three small machines exercise the three property families: g_diag for fault
diagnosis and prediction, g_det for the detectability variants, g_opa for the
opacity variants.
"""

import pytest

from hyperdes.des import Fsa, validate_fsa


def make_g_diag():
    return validate_fsa(Fsa(
        states=["0", "1", "2", "3", "4", "5"],
        events=["a", "b", "c", "d", "f", "u1", "u2"],
        transitions={
            ("0", "a"): "1",
            ("0", "u1"): "3",
            ("1", "f"): "2",
            ("2", "d"): "2",
            ("3", "b"): "4",
            ("4", "u2"): "1",
            ("4", "u1"): "5",
            ("5", "c"): "5",
        },
        initial=["0"],
        mask={"a": "o1", "b": "o1", "c": "o3", "d": "o2",
              "f": None, "u1": None, "u2": None},
        observations=["o1", "o2", "o3"],
        fault_events=["f"],
        name="g_diag",
    ))


def make_g_det():
    return validate_fsa(Fsa(
        states=["0", "1", "2", "3", "4", "5"],
        events=["a", "b", "c", "d", "e"],
        transitions={
            ("0", "a"): "1",
            ("0", "b"): "4",
            ("1", "c"): "2",
            ("2", "d"): "2",
            ("3", "e"): "4",
            ("4", "a"): "5",
            ("4", "c"): "2",
            ("5", "b"): "5",
        },
        initial=["0", "3"],
        mask={"a": "o1", "b": "o1", "c": "o2", "d": "o3", "e": "o3"},
        observations=["o1", "o2", "o3"],
        name="g_det",
    ))


def make_g_opa():
    return validate_fsa(Fsa(
        states=["0", "1", "2", "3", "4", "5"],
        events=["a", "b", "c", "d", "e"],
        transitions={
            ("0", "a"): "1",
            ("1", "c"): "2",
            ("2", "d"): "2",
            ("3", "b"): "4",
            ("4", "e"): "5",
            ("4", "c"): "2",
            ("5", "d"): "5",
        },
        initial=["0", "3"],
        mask={"a": "o1", "b": "o1", "c": "o2", "d": "o3", "e": "o4"},
        observations=["o1", "o2", "o3", "o4"],
        secret_states=["0", "4"],
        name="g_opa",
    ))


def make_twin_branch():
    """Two observationally identical branches, one through a fault.

    Every observation sequence is o1 o1 ... and the estimate never separates
    the branches, so nothing is diagnosable or detectable here.
    """
    return validate_fsa(Fsa(
        states=["a0", "f1", "n1"],
        events=["uf", "un", "e"],
        transitions={
            ("a0", "uf"): "f1",
            ("a0", "un"): "n1",
            ("f1", "e"): "f1",
            ("n1", "e"): "n1",
        },
        initial=["a0"],
        mask={"uf": None, "un": None, "e": "o1"},
        observations=["o1"],
        fault_events=["uf"],
        secret_states=["f1"],
        name="twin_branch",
    ))


def make_dying_branch():
    """A machine whose estimate stays ambiguous although the ambiguity is
    carried only by runs that keep failing to match the next observation.

    From initial state 1 the estimate after every observation is {0, 1}: the
    unobservable move 0 -> 1 refills state 1 at each instant, yet state 1
    matches a next observation of o1 only, and that move collapses it back
    onto the main run.  So no observation sequence ever pins the current
    state, while every infinite observation-matched pair of runs agrees from
    some point on.
    """
    return validate_fsa(Fsa(
        states=["0", "1"],
        events=["a", "b", "u"],
        transitions={("0", "b"): "0", ("0", "u"): "1", ("1", "a"): "0"},
        initial=["1"],
        mask={"a": "o1", "b": "o2", "u": None},
        observations=["o1", "o2"],
    ))


@pytest.fixture
def g_diag():
    return make_g_diag()


@pytest.fixture
def g_det():
    return make_g_det()


@pytest.fixture
def g_opa():
    return make_g_opa()
