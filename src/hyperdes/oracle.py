"""Definition-level reference checks for the nine properties.

Every check here unfolds the defining estimate recursions directly, with no
formulas, no Büchi automata and no trace quantification, so that agreement
with the hyperproperty engines is meaningful evidence for both sides.

The detectability and diagnosis properties quantify over arbitrarily long
observation suffixes; those checks run a subset machine out to the pumping
horizon (number of states squared, plus one), beyond which a surviving bad
configuration repeats a joint state pair and can be pumped forever.  The
remaining properties are plain reachability questions and are decided
exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .des import (
    boundary_states,
    build_observer,
    indicator_states,
    observable_step,
    refine_fault_partition,
    step_delayed_pairs,
    unobservable_reach,
    validate_fsa,
)
from .errors import MissingAnnotation
from .formula import FAULT_PROPERTIES, OPACITY_PROPERTIES, PROPERTIES
from .graph import cyclic_sccs, first_cycle, reachable, shortest_path
from .kripke import KNode, Lasso, Verdict, canonical_lasso


@dataclass
class OracleConfig:
    """Knobs for the bounded reference checks.

    max_obs_len bounds post-fault observation counts (diagnosability) and
    observation string lengths (i-detectability); max_delay bounds the
    refinement suffix for delayed detectability.  None means the pumping
    horizon of the machine under analysis.  With conclusive_policy "strict" a
    verdict obtained under a bound below that horizon is downgraded to
    inconclusive; "trusting" reports the bounded finding as is.
    """
    max_obs_len: int = None
    max_delay: int = None
    conclusive_policy: str = "strict"


def _pumping_horizon(fsa):
    return len(fsa.states) ** 2 + 1


def _resolve_bound(requested, fsa, policy):
    horizon = _pumping_horizon(fsa)
    bound = horizon if requested is None else requested
    conclusive = bound >= horizon or policy == "trusting"
    return bound, conclusive


def _bounded_verdict(kind, raw_holds, bound, conclusive, details=None):
    holds = raw_holds if conclusive else "inconclusive"
    det = dict(details or {})
    if not conclusive:
        det["bounded_finding"] = raw_holds
    return Verdict(property=kind, holds=holds, mode="bounded", engine="oracle",
                   bound=bound, details=det or None)


# ---------------------------------------------------------------------------
# fault properties


def diagnosability_oracle(fsa, config=None) -> Verdict:
    """Search for a fault run whose estimate stays ambiguous for a whole
    pumping horizon of post-fault observations."""
    config = config or OracleConfig()
    refined, part = refine_fault_partition(fsa)
    bound, conclusive = _resolve_bound(config.max_obs_len, refined,
                                       config.conclusive_policy)
    fault = part.fault_states
    est0 = unobservable_reach(refined, refined.initial)
    start = [(x0, 0, est0) for x0 in refined.sort_states(refined.initial)]
    seen = set(start)
    queue = deque(start)
    while queue:
        x, ctr, est = queue.popleft()
        if x in fault and ctr >= bound and not est <= fault:
            return _bounded_verdict("diagnosability", False, bound, conclusive,
                                    {"ambiguous_after": ctr})
        if ctr >= bound or est <= fault:
            # the estimate can never leave the fault region again, and a
            # horizon-length ambiguity would already have been reported
            continue
        for e, y in refined.out_edges(x):
            o = refined.mask[e]
            if o is None:
                nxt = (y, ctr, est)
            else:
                bump = 1 if x in fault else 0
                nxt = (y, min(ctr + bump, bound), observable_step(refined, est, o))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return _bounded_verdict("diagnosability", True, bound, conclusive)


def predictability_oracle(fsa, config=None) -> Verdict:
    """Look for a run that reaches a fault boundary state while no prefix
    estimate ever fell inside the indicator region.

    The estimate tracked here is its normal-region part only.  A consistent
    string that already contains a fault carries no false-alarm risk, so its
    end state must not block an alarm; and the fault region is absorbing, so
    the restricted estimate is self-contained under stepping.
    """
    refined, part = refine_fault_partition(fsa)
    boundary = boundary_states(refined, part)
    indicator = indicator_states(refined, part)
    normal = part.normal_states
    est0 = unobservable_reach(refined, refined.initial) & normal
    start = [(x0, est0) for x0 in refined.sort_states(refined.initial)]
    seen = set(start)
    queue = deque(start)
    while queue:
        x, est = queue.popleft()
        if est <= indicator:
            continue  # predicted from here on, for every extension
        if x in boundary:
            return Verdict(property="predictability", holds=False, mode="exact",
                           engine="oracle")
        for e, y in refined.out_edges(x):
            if y not in normal:
                continue  # a faulted run can never reach the boundary again
            o = refined.mask[e]
            nxt = (y, est if o is None else
                   observable_step(refined, est, o) & normal)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return Verdict(property="predictability", holds=True, mode="exact",
                   engine="oracle")


# ---------------------------------------------------------------------------
# detectability properties


def _initial_tracks(fsa):
    """Deterministic machine node: which initial states still admit the
    observed string, each with its current-state spread."""
    return frozenset((x0, unobservable_reach(fsa, [x0])) for x0 in fsa.initial)


def _step_tracks(fsa, tracks, o):
    out = []
    for x0, cur in tracks:
        nxt = observable_step(fsa, cur, o)
        if nxt:
            out.append((x0, nxt))
    return frozenset(out)


def _track_frontier(fsa, roots, is_bad, bound):
    """Breadth-first levels of the track machine; since a bad string keeps all
    its prefixes bad, a level with no bad node ends the search early."""
    level = set(roots)
    for _ in range(bound):
        bad = [t for t in level if is_bad(t)]
        if not bad:
            return False
        nxt = set()
        for tracks in level:
            for o in fsa.observations:
                stepped = _step_tracks(fsa, tracks, o)
                if stepped:
                    nxt.add(stepped)
        level = nxt
    return any(is_bad(t) for t in level)


def i_detectability_oracle(fsa, config=None) -> Verdict:
    """Initial-state ambiguity surviving a pumping horizon of observations."""
    config = config or OracleConfig()
    bound, conclusive = _resolve_bound(config.max_obs_len, fsa,
                                       config.conclusive_policy)
    bad = _track_frontier(fsa, [_initial_tracks(fsa)],
                          lambda tracks: len(tracks) >= 2, bound)
    return _bounded_verdict("i-detectability", not bad, bound, conclusive)


def strong_detectability_oracle(fsa, config=None) -> Verdict:
    """All long observation strings must pin the current state: every observer
    node on or after a cycle has to be a singleton."""
    obs = build_observer(fsa)

    def succ(n):
        return [t for _, t in obs.moves[n]]

    on_cycle = [n for comp in cyclic_sccs(obs.nodes, succ) for n in comp]
    closed = reachable(on_cycle, succ)
    holds = all(len(n) == 1 for n in closed)
    return Verdict(property="strong-detectability", holds=holds, mode="exact",
                   engine="oracle")


def weak_detectability_exact(fsa) -> Verdict:
    """Some observation trace must pin the current state forever: a reachable
    cycle of singleton observer nodes.  A positive verdict carries the trace,
    lifted back to the state/observation structure."""
    if not fsa.validated:
        validate_fsa(fsa)
    obs = build_observer(fsa)
    moves = obs.moves
    singles = [n for n in obs.nodes if len(n) == 1]
    found = first_cycle(singles, lambda n: [t for _, t in moves[n] if len(t) == 1])
    if found is None:
        return Verdict(property="weak-detectability", holds=False, mode="exact",
                       engine="oracle-observer")

    path, i = found
    cyc_nodes = path[i:]
    # each cycle edge is labelled with the first observation taking it
    cyc_obs = [next(o for o, t in moves[a] if t == b)
               for a, b in zip(cyc_nodes, cyc_nodes[1:] + cyc_nodes[:1])]
    entry = cyc_nodes[0]
    # shortest estimate path from the observer root to the cycle entry
    steps = [] if entry == obs.initial else shortest_path(obs.initial, moves.__getitem__, entry)
    est_path = [(obs.initial, None)] + [(n, o) for o, n in steps]

    # choose one concrete state per estimate, backwards from the cycle entry
    states = [None] * len(est_path)
    states[-1] = next(iter(entry))
    for i in range(len(est_path) - 2, -1, -1):
        est, _ = est_path[i]
        _, o_in = est_path[i + 1]
        for x in fsa.sort_states(est):
            if states[i + 1] in observable_step(fsa, [x], o_in):
                states[i] = x
                break
    stem = tuple(KNode(states[i], est_path[i][1]) for i in range(len(est_path)))
    cycle_states = [next(iter(n)) for n in cyc_nodes]
    lap = tuple(KNode(cycle_states[(j + 1) % len(cycle_states)], cyc_obs[j])
                for j in range(len(cyc_obs)))
    witness = canonical_lasso(Lasso(stem=stem, cycle=lap))
    return Verdict(property="weak-detectability", holds=True, mode="exact",
                   engine="oracle-observer", witness=(witness, None))


def delayed_detectability_oracle(fsa, config=None) -> Verdict:
    """From every reachable estimate, hindsight must pin the anchor state once
    the refinement suffix outlives the pumping horizon."""
    config = config or OracleConfig()
    bound, conclusive = _resolve_bound(config.max_delay, fsa,
                                       config.conclusive_policy)
    obs = build_observer(fsa)
    bad = False
    for est in obs.nodes:
        if len(est) == 1:
            continue
        start = frozenset((x, x) for x in est)
        level = {start}
        for _ in range(bound):
            live = {p for p in level if len({a for a, _ in p}) >= 2}
            if not live:
                break
            nxt = set()
            for pairs in live:
                for o in fsa.observations:
                    stepped = step_delayed_pairs(fsa, pairs, o)
                    if stepped:
                        nxt.add(stepped)
            level = nxt
        else:
            if any(len({a for a, _ in p}) >= 2 for p in level):
                bad = True
        if bad:
            break
    return _bounded_verdict("delayed-detectability", not bad, bound, conclusive)


# ---------------------------------------------------------------------------
# opacity properties


def initial_state_opacity_oracle(fsa, config=None) -> Verdict:
    """No observation may narrow the initial-state estimate into the secret."""
    secret = fsa.secret_states
    root = _initial_tracks(fsa)
    seen = {root}
    queue = deque([root])
    while queue:
        tracks = queue.popleft()
        concl = frozenset(x0 for x0, _ in tracks)
        if concl and concl <= secret:
            return Verdict(property="initial-state-opacity", holds=False,
                           mode="exact", engine="oracle")
        for o in fsa.observations:
            nxt = _step_tracks(fsa, tracks, o)
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return Verdict(property="initial-state-opacity", holds=True, mode="exact",
                   engine="oracle")


def current_state_opacity_oracle(fsa, config=None) -> Verdict:
    """No observation may narrow the current-state estimate into the secret."""
    secret = fsa.secret_states
    obs = build_observer(fsa)
    for est in obs.nodes:
        if est <= secret:
            return Verdict(property="current-state-opacity", holds=False,
                           mode="exact", engine="oracle")
    return Verdict(property="current-state-opacity", holds=True, mode="exact",
                   engine="oracle")


def infinite_step_opacity_oracle(fsa, config=None) -> Verdict:
    """No observation, refined by any amount of hindsight, may place a past
    estimate inside the secret."""
    secret = fsa.secret_states
    obs = build_observer(fsa)
    for est in obs.nodes:
        start = frozenset((x, x) for x in est)
        seen = {start}
        queue = deque([start])
        while queue:
            pairs = queue.popleft()
            anchors = frozenset(a for a, _ in pairs)
            if anchors and anchors <= secret:
                return Verdict(property="infinite-step-opacity", holds=False,
                               mode="exact", engine="oracle")
            for o in fsa.observations:
                nxt = step_delayed_pairs(fsa, pairs, o)
                if nxt and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return Verdict(property="infinite-step-opacity", holds=True, mode="exact",
                   engine="oracle")


# ---------------------------------------------------------------------------
# dispatch


_ORACLES = {
    "diagnosability": diagnosability_oracle,
    "predictability": predictability_oracle,
    "i-detectability": i_detectability_oracle,
    "strong-detectability": strong_detectability_oracle,
    "weak-detectability": lambda fsa, config=None: weak_detectability_exact(fsa),
    "delayed-detectability": delayed_detectability_oracle,
    "initial-state-opacity": initial_state_opacity_oracle,
    "current-state-opacity": current_state_opacity_oracle,
    "infinite-step-opacity": infinite_step_opacity_oracle,
}


def oracle_check(fsa, kind, config=None) -> Verdict:
    """Decide one property straight from its definition."""
    if kind not in _ORACLES:
        raise ValueError(f"unknown property {kind!r}; expected one of {', '.join(PROPERTIES)}")
    if not fsa.validated:
        validate_fsa(fsa)
    if kind in FAULT_PROPERTIES and fsa.fault_events is None:
        raise MissingAnnotation("fault")
    if kind in OPACITY_PROPERTIES and fsa.secret_states is None:
        raise MissingAnnotation("secret")
    return _ORACLES[kind](fsa, config)
