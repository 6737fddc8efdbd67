"""Finite-state event reconstruction.

The machine's transition function psi gives the state each event leads
to, or None: event e occurs in state s iff psi((e, s)) is not None.  A
computation window of length L is L (event, state) steps: the first L-1
steps chain through psi, and the last step names the event about to
occur in the final state, written "*" while nothing constrains it.  An
observation (P, min, max) explains a segment of min..min+max consecutive
steps each satisfying P; an observation sequence partitions the whole
window; an evidential statement demands one window satisfying every
sequence at once.

check_claim answers every claim with one layered search over a lazily
built product automaton that stops once its layers cycle without a
witness, asking psi only where a step's letter, the step_ok values of
the distinct properties as the bits of an int, lets it go on; a state
whose own bits end an account does not start.  Each (product position,
letter) step and acceptance test is computed once per call.  Witness
windows are read back up to a cap through only the nodes that reach
them, a forward path count gives their exact number, and each account's
segment compositions (the MSPR meaning of Gladyshev & Patel, 2004) are
read from their letters.
route="exact" runs the paper's fixed-length set algebra instead
(meaning_fixed_length over expand_generic's variants, then comb): the
executable spec that tests compare against, exponential in the horizon.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .values import (
    ANY_PROPERTY,
    EvidentialStatement,
    FlucidError,
    Observation,
    ObservationSequence,
    PLUS_INF,
    TagSet,
    ValidationError,
    check_type,
)

WILDCARD = "*"

Step = Tuple[Any, Any]                 # (event, state)
Computation = Tuple[Step, ...]


class ReconstructionError(FlucidError):
    """A reconstruction request violated a precondition."""


# ---------------------------------------------------------------------------
# Machine, properties, result containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Property:
    """Step predicate with a declarative serializable form.

    states None means any state; allow None means any event; deny lists
    forbidden events.  The wildcard final event satisfies only properties
    that put no constraint on events.
    """

    name: str = ""
    states: Optional[FrozenSet[Any]] = None
    allow_events: Optional[FrozenSet[Any]] = None
    deny_events: FrozenSet[Any] = frozenset()

    def __post_init__(self):
        check_type(self.name, str, "a property's name: a string")
        for label in ("states", "allow_events"):
            check_type(getattr(self, label), (frozenset, type(None)),
                       "a property's %s: a frozenset or None" % label)
        check_type(self.deny_events, frozenset,
                   "a property's deny_events: a frozenset")

    def constrains_events(self) -> bool:
        return self.allow_events is not None or bool(self.deny_events)

    def step_ok(self, event: Any, state: Any) -> bool:
        return self.state_ok(state) and self.event_ok(event)

    def state_ok(self, state: Any) -> bool:
        return self.states is None or state in self.states

    def event_ok(self, event: Any) -> bool:
        if event == WILDCARD:
            return not self.constrains_events()
        return ((self.allow_events is None or event in self.allow_events)
                and event not in self.deny_events)


ANYTHING = Property(name="$")


@dataclass(frozen=True, eq=False)
class StateMachine:
    """T = (states, events, psi).  psi((event, state)) is the state the
    event leads to, self-loops included, or None where the event does not
    fire; that pair cannot occur, and no reconstructed step uses it.  A
    table passes its get.  Every read goes through target, which checks
    the labels of each transition it returns.
    """

    states: Tuple[Any, ...]
    events: Tuple[Any, ...]
    psi: Callable[[Step], Any]
    properties: Mapping[str, Property] = field(default_factory=dict)

    def __post_init__(self):
        check_type(self.states, (tuple, list), "a machine's states: a tuple")
        check_type(self.events, (tuple, list), "a machine's events: a tuple")
        check_type(self.psi, Callable,
                   "a machine's psi: a function of (event, state) pairs")
        for label in (*self.states, *self.events):
            try:
                hash(label)
            except TypeError:
                raise ValidationError(
                    "label %r is not hashable" % (label,)) from None
        object.__setattr__(self, "_labels", (frozenset(self.states),
                                             frozenset(self.events)))

    def target(self, event: Any, state: Any) -> Any:
        """psi at (event, state): the state reached, or None.  A state
        returned, its event and its source must all be declared."""
        q = None
        try:
            q = self.psi((event, state))
            states, events = self._labels
            if q is None or (event in events and state in states
                             and q in states):
                return q
        except TypeError:           # an unhashable label is undeclared
            pass
        raise ValidationError("transition (%r, %r) -> %r uses undeclared "
                              "labels" % (event, state, q), "psi")

    def successor(self, event: Any, state: Any) -> Any:
        if (q := self.target(event, state)) is None:
            raise ReconstructionError(
                "event %r does not fire in state %r" % (event, state))
        return q

    def fires(self, event: Any, state: Any) -> bool:
        return self.target(event, state) is not None


def _by_length(runs: Iterable[Computation]) -> List[Computation]:
    """runs by length, then repr, the same in every process.  A step's
    repr is made once, keyed by identity: 1 and True print apart."""
    shown: Dict[int, str] = {}
    return sorted(runs, key=lambda run: (len(run), "(%s%s)" % (", ".join([
        shown.get(id(s)) or shown.setdefault(id(s), repr(s)) for s in run]),
        "," * (len(run) == 1))))


def _check_lens(lens: Any, what: str) -> None:
    """lens is a tuple of segment lengths, each a non-negative integer."""
    if not isinstance(lens, tuple) or not all(
            type(d) is int and d >= 0 for d in lens):
        raise ValidationError("%s %r, not a tuple of non-negative integers"
                              % (what, lens), "lens")


class _Runs:
    """Prints computations in _by_length order, the same in every process."""

    def __repr__(self) -> str:
        return "%s(lens=%r, computations=frozenset(%r))" % (
            type(self).__name__, self.lens,
            _by_length(self.computations))


@dataclass(frozen=True, repr=False)
class MPR(_Runs):
    """Map of partitioned runs: segment lengths plus initial computations."""

    lens: Tuple[int, ...]
    computations: FrozenSet[Computation]

    def __post_init__(self):
        _check_lens(self.lens, "an MPR's lens is")
        check_type(self.computations, frozenset,
                   "an MPR's computations: a frozenset")

    def total(self) -> int:
        return sum(self.lens)

    def is_empty(self) -> bool:
        return not self.computations


@dataclass(frozen=True, repr=False)
class MSPR(_Runs):
    """Map of a sequence of partitioned runs (one lens vector per account)."""

    lens: Tuple[Tuple[int, ...], ...]
    computations: FrozenSet[Computation]

    def __post_init__(self):
        check_type(self.lens, tuple, "an MSPR's lens: a tuple of lens tuples")
        for lens in self.lens:
            _check_lens(lens, "an MSPR's lens holds")
        check_type(self.computations, frozenset,
                   "an MSPR's computations: a frozenset")

    def is_empty(self) -> bool:
        return not self.computations


EMPTY_MSPR = MSPR(lens=(), computations=frozenset())


@dataclass(frozen=True)
class ClaimResult:
    consistent: bool
    explanations: Tuple[MSPR, ...]
    backtraces: Tuple[Computation, ...]
    horizon_warning: bool
    horizon: int
    route: str
    truncated: bool = False   # the layered read-back stopped at the cap
    witnesses: int = 0        # witness windows over the lengths searched
    nodes: int = 0            # product nodes the layered search expanded; a
                              # start whose mask ends an account is never made


# ---------------------------------------------------------------------------
# Back-tracing primitives
# ---------------------------------------------------------------------------


def invert_transition(fsm: StateMachine) -> Dict[Any, FrozenSet[Step]]:
    """Predecessor table: (e, q) lands in result[q'] iff psi(e, q) = q'."""
    check_type(fsm, StateMachine, "invert_transition takes a StateMachine")
    table: Dict[Any, Set[Step]] = {s: set() for s in fsm.states}
    for e, q in itertools.product(fsm.events, fsm.states):
        if (q2 := fsm.target(e, q)) is not None:
            table[q2].add((e, q))
    return {s: frozenset(v) for s, v in table.items()}


def psi_inverse_set(fsm: StateMachine,
                    computations: Iterable[Computation]) -> Set[Computation]:
    """Extend every non-empty computation one fired step to the left."""
    check_type(fsm, StateMachine, "psi_inverse_set takes a StateMachine")
    inverse = invert_transition(fsm)
    try:
        return {(stp,) + c for c in computations if c
                for stp in inverse.get(c[0][1], ())}
    except TypeError:
        raise ValidationError("computations are tuples of (event, state) "
                              "steps, not %r" % (computations,)) from None


# ---------------------------------------------------------------------------
# Meanings of observation sequences
# ---------------------------------------------------------------------------


def resolve_property(fsm: StateMachine, prop: Any) -> Property:
    """Map an observation's property value onto a step predicate.  A tag
    set allows exactly its tags as events."""
    check_type(fsm, StateMachine, "resolve_property takes a StateMachine")
    if isinstance(prop, Property):
        return prop
    if isinstance(prop, TagSet):
        tags = prop.tags or ()
        return Property(name="|".join(str(t) for t in tags),
                        allow_events=frozenset(tags))
    if prop is ANY_PROPERTY or prop == "$":
        return ANYTHING
    if isinstance(prop, str) and prop in fsm.properties:
        return fsm.properties[prop]
    if prop in fsm.states:
        return Property(name=str(prop), states=frozenset([prop]))
    raise ReconstructionError(
        "property %r is neither a declared property nor a state" % (prop,))


def meaning_fixed_length(fsm: StateMachine,
                         os: Sequence[Tuple[Property, int]]) -> MPR:
    """All windows explained by a fixed-length observation sequence."""
    check_type(fsm, StateMachine, "meaning_fixed_length takes a StateMachine")
    try:
        lens = tuple(int(d) for _, d in os)
    except (TypeError, ValueError):
        lens = None
    if lens is None or not all(isinstance(p, Property) for p, _ in os):
        raise ValidationError("os is a sequence of (Property, length) "
                              "pairs, not %r" % (os,), "os")
    if any(d < 0 for d in lens):
        raise ValidationError("segment lengths must be non-negative", "os")
    total = sum(lens)
    if total == 0:
        return MPR(lens, frozenset({()}))
    schedule = [p for p, d in os for _ in range(d)]
    runs: Set[Computation] = set()
    last = schedule[-1]
    stack: List[Tuple[Computation, Any]] = [((), s) for s in fsm.states]
    while stack:
        prefix, state = stack.pop()
        i = len(prefix)
        if i < total - 1:
            stack += [(prefix + ((e, state),), q) for e in fsm.events
                      if (q := fsm.target(e, state)) is not None
                      and schedule[i].step_ok(e, state)]
        elif last.step_ok(WILDCARD, state):
            runs.add(prefix + ((WILDCARD, state),))
        else:
            runs.update(prefix + ((e, state),) for e in fsm.events
                        if fsm.fires(e, state) and last.step_ok(e, state))
    return MPR(lens, frozenset(runs))


def expand_generic(os: ObservationSequence, horizon: int) -> Tuple[ObservationSequence, ...]:
    """All fixed-length variants of a generic observation sequence.

    Each observation's duration ranges over min..min+max, with an
    unbounded max truncated at the horizon.
    """
    check_type(os, ObservationSequence,
               "expand_generic takes an observation sequence")
    check_type(horizon, int, "expand_generic takes an integer horizon")
    minsum = sum(o.min for o in os.observations)
    if horizon < minsum:
        raise ValidationError(
            "horizon %d is below the total minimum duration %d"
            % (horizon, minsum), "horizon")
    per_obs: List[List[Observation]] = []
    for o in os.observations:
        hi = horizon if o.max is PLUS_INF else o.min + o.max
        variants = [Observation(o.property, d, 0, o.w, o.t, o.description)
                    for d in range(o.min, hi + 1)]
        per_obs.append(variants)
    return tuple(ObservationSequence(combo, name=os.name)
                 for combo in itertools.product(*per_obs))


def _dedupe_wildcard_twins(runs: Iterable[Computation]) -> Set[Computation]:
    """Drop a concrete-final-event run whose wildcard twin is also present."""
    pool = set(runs)
    return {r for r in pool if not r or r[-1][0] == WILDCARD
            or r[:-1] + ((WILDCARD, r[-1][1]),) not in pool}


def comb(x: MPR, y: MPR) -> MSPR:
    """Combine two maps of partitioned runs into a proper MSPR."""
    check_type(x, MPR, "comb takes an MPR")
    check_type(y, MPR, "comb takes an MPR")
    if x.total() != y.total():
        return EMPTY_MSPR
    common = x.computations & y.computations
    if not common:
        return EMPTY_MSPR
    return MSPR(lens=(y.lens, x.lens), computations=frozenset(common))


# ---------------------------------------------------------------------------
# Claim checking
# ---------------------------------------------------------------------------


def _default_horizon(fsm: StateMachine, es: EvidentialStatement) -> int:
    """Window bound: the longest account's sum of min + capped max."""
    n = len(fsm.states)
    return max([1] + [sum(o.min + (n if o.max is PLUS_INF else min(o.max, n))
                          for o in os.observations) for os in es.sequences])


def check_claim(fsm: StateMachine, es: EvidentialStatement,
                horizon: Optional[int] = None,
                max_backtraces: int = 64,
                route: Optional[str] = None) -> ClaimResult:
    """Verdict plus explanations for an evidential statement.

    Consistent iff some window length admits a computation satisfying
    every observation sequence simultaneously.  Backtraces are the
    witness windows with consecutive identical steps collapsed (dwelling
    in a self-loop is presentation noise, not a separate explanation).
    Every claim takes the layered search, which reads back at most
    max_backtraces witness windows, sets truncated when it stopped there
    with more possibly left, and counts in witnesses every window of the
    lengths it searched; it asks psi only at the pairs it reaches, so a
    psi that evaluates each pair it is asked is evaluated only there.
    route="exact" is the executable spec's hook: set algebra over
    fixed-length variants, exponential in the horizon.  horizon and
    max_backtraces are non-negative integers, and es is a non-empty
    evidential statement: its sequences and their observations are each
    valid since it was built.
    """
    check_type(fsm, StateMachine, "check_claim takes a StateMachine")
    if not isinstance(es, EvidentialStatement) or len(es) == 0:
        raise ValidationError("evidential statement must be non-empty", "es")
    all_triples = [[(resolve_property(fsm, o.property), o.min, o.max)
                    for o in os.observations] for os in es.sequences]
    if horizon is None:
        horizon = _default_horizon(fsm, es)
    for name, limit in (("horizon", horizon), ("max_backtraces", max_backtraces)):
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
            raise ValidationError("%s must be a non-negative integer, not %r"
                                  % (name, limit), name)
    has_unbounded = any(mx is PLUS_INF for tri in all_triples for _, _, mx in tri)

    truncated, witnesses, nodes = False, 0, 0
    if route == "exact":
        consistent, msprs = _check_exact(fsm, es, all_triples, horizon)
    elif route in (None, "layered"):
        route = "layered"
        consistent, msprs, truncated, witnesses, nodes = _check_layered(
            fsm, all_triples, horizon, max_backtraces)
    else:
        raise ValidationError("route must be exact or layered", "route")

    runs = _by_length({c for m in msprs for c in m.computations})
    return ClaimResult(
        consistent=consistent,
        explanations=tuple(msprs),
        backtraces=tuple(dict.fromkeys(_collapse_stutters(r) for r in runs)),
        horizon_warning=bool(has_unbounded and not consistent),
        horizon=horizon,
        route=route,
        truncated=truncated,
        witnesses=witnesses if route == "layered" else len(runs),
        nodes=nodes,
    )


def _collapse_stutters(run: Computation) -> Computation:
    return tuple(stp for i, stp in enumerate(run) if i == 0 or run[i - 1] != stp)


def _window(triple_list: Sequence[Tuple[Property, int, Any]]) -> Tuple[int, Any]:
    lo = sum(mn for _, mn, _ in triple_list)
    if any(mx is PLUS_INF for _, _, mx in triple_list):
        return lo, PLUS_INF
    return lo, lo + sum(mx for _, _, mx in triple_list)


def _unify_intersect(left: Iterable[Computation],
                     right: Iterable[Computation]) -> FrozenSet[Computation]:
    """Common runs, letting a wildcard final event stand for any event."""
    index: Dict[Tuple[Computation, Any], Set[Any]] = {}
    has_empty_right = False
    for r in right:
        if not r:
            has_empty_right = True
            continue
        index.setdefault((r[:-1], r[-1][1]), set()).add(r[-1][0])
    out: Set[Computation] = set()
    for r in left:
        if not r:
            if has_empty_right:
                out.add(r)
            continue
        events = index.get((r[:-1], r[-1][1]))
        if not events:
            continue
        ev = r[-1][0]
        if ev in events:
            out.add(r)
        elif ev == WILDCARD:
            out.update(r[:-1] + ((e, r[-1][1]),) for e in events)
        elif WILDCARD in events:
            out.add(r)
    return frozenset(out)


def _check_exact(fsm: StateMachine, es: EvidentialStatement,
                 all_triples, horizon: int) -> Tuple[bool, List[MSPR]]:
    per_os_mprs: List[List[MPR]] = []
    for os, triples in zip(es.sequences, all_triples):
        try:
            expanded = expand_generic(os, horizon)
        except ValidationError:
            return False, []
        mprs = []
        pool: Set[Computation] = set()
        for variant in expanded:
            fixed = [(resolve_property(fsm, o.property), o.min)
                     for o in variant.observations]
            if sum(d for _, d in fixed) > horizon:
                continue
            m = meaning_fixed_length(fsm, fixed)
            if not m.is_empty():
                mprs.append(m)
                pool.update(m.computations)
        # one account's meaning keeps only the most general final step
        keep = _dedupe_wildcard_twins(pool)
        mprs = [MPR(m.lens, m.computations & keep) for m in mprs
                if m.computations & keep]
        if not mprs:
            return False, []
        per_os_mprs.append(mprs)

    acc: List[MSPR] = [MSPR((m.lens,), m.computations) for m in per_os_mprs[0]]
    for mprs in per_os_mprs[1:]:
        merged: List[MSPR] = []
        for left in acc:
            for right in mprs:
                if sum(left.lens[0]) != right.total():
                    continue
                common = _unify_intersect(left.computations,
                                          right.computations)
                if common:
                    merged.append(MSPR((right.lens,) + left.lens, common))
        acc = merged
        if not acc:
            break
    return bool(acc), acc


# --------------------------- layered route ---------------------------------


NfaPos = Tuple[int, int]               # (observation index, consumed steps)


def _closure(positions: Iterable[NfaPos],
             triples: Sequence[Tuple[Property, int, Any]]) -> FrozenSet[NfaPos]:
    """Add the start of each observation that may follow an ended one."""
    work = set(positions)
    ended = [j for j, k in work if j < len(triples) and k >= triples[j][1]]
    while ended:
        j = ended.pop() + 1
        if (j, 0) not in work:
            work.add((j, 0))
            if j < len(triples) and triples[j][1] == 0:
                ended.append(j)
    return frozenset(work)


def _check_layered(fsm: StateMachine, all_triples, horizon: int,
                   max_backtraces: int
                   ) -> Tuple[bool, List[MSPR], bool, int, int]:
    """Layer by layer over nodes (state, product position id).

    A product position holds each account's set of match positions.  A
    step's letter, its state's mask (read off the states the properties
    name) anded with its event's, has bit i set when the i-th distinct
    property's step_ok holds, WILDCARD events included, and alone decides
    where a position goes, so each (position, letter) step, and with it
    acceptance, is computed once per call.  A node asks psi only for the
    events whose letter lets every account go on; a step is monotone in
    the bits, so a state whose own mask kills it asks for none and does
    not start.  A layer maps each node to its number of paths from layer
    0, so every length closed off has its witnesses counted.  A wanted
    layer whose node set repeats one since the last witness closes a
    barren cycle that later layers only repeat.  The read-back visits
    only the nodes that reach a witness.
    Returns the verdict, the explanations, whether the cap cut the
    read-back short, the witness count and the number of nodes expanded.
    """
    windows = [_window(t) for t in all_triples]
    want = range(max([1] + [lo for lo, _ in windows]),   # the lengths searched
                 min([horizon] + [hi for _, hi in windows
                                  if hi is not PLUS_INF]) + 1)
    found: List[Computation] = [()] if all(lo == 0 for lo, _ in windows) else []
    last = want[-1] if want else 0

    # interned product positions: key -> id, with closures and acceptance
    ids: Dict[Tuple[FrozenSet[NfaPos], ...], int] = {}
    closed: List[Tuple[FrozenSet[NfaPos], ...]] = []
    accepting: List[bool] = []

    def intern(poss: Tuple[FrozenSet[NfaPos], ...]) -> int:
        if poss not in ids:
            ids[poss] = len(closed)
            closed.append(tuple(_closure(p, t)
                                for p, t in zip(poss, all_triples)))
            accepting.append(all((len(t), 0) in c
                                 for c, t in zip(closed[-1], all_triples)))
        return ids[poss]

    props: Dict[Property, int] = {}
    cols = [[props.setdefault(p, len(props)) for p, _, _ in t] for t in all_triples]
    default = sum(1 << i for p, i in props.items() if p.states is None)
    named: Dict[Any, int] = {}              # state -> mask, where it differs
    for p, i in props.items():
        for s in p.states or ():
            named[s] = named.get(s, default) | 1 << i
    event_bits = {e: sum(p.event_ok(e) << i for i, p in enumerate(props))
                  for e in (*fsm.events, WILDCARD)}

    def letter(stp: Step) -> int:
        return named.get(stp[1], default) & event_bits[stp[0]]

    steps: Dict[Tuple[int, int], Optional[int]] = {}

    def step(pid: int, lt: int) -> Optional[int]:
        """Successor position, or None when some account dies."""
        if (pid, lt) not in steps:
            nxt = []
            for c, triples, col in zip(closed[pid], all_triples, cols):
                out = set()
                for j, k in c:
                    if j < len(triples) and lt >> col[j] & 1:
                        _, mn, mx = triples[j]
                        if mx is PLUS_INF:
                            out.add((j, min(k + 1, mn)))
                        elif k + 1 <= mn + mx:
                            out.add((j, k + 1))
                nxt.append(frozenset(out))
            steps[pid, lt] = intern(tuple(nxt)) if all(nxt) else None
        return steps[pid, lt]

    fans: Dict[Tuple[int, int], Any] = {}   # (pid, state mask) -> moves, wild
    Node = Tuple[Any, int]
    graph: Dict[Node, Tuple[List[Tuple[Node, Step]], List[Step]]] = {}

    def expand(node: Node) -> Tuple[List[Tuple[Node, Step]], List[Step]]:
        """The node's chained moves and its final steps, built once."""
        if node not in graph:
            state, pid = node
            bits = named.get(state, default)
            if (pid, bits) not in fans:
                fans[pid, bits] = ([], None) if step(pid, bits) is None else (
                    [(e, nid) for e in fsm.events
                     if (nid := step(pid, bits & event_bits[e])) is not None],
                    step(pid, bits & event_bits[WILDCARD]))
            moves, wild = fans[pid, bits]
            edges = [((q, nid), (e, state)) for e, nid in moves
                     if (q := fsm.target(e, state)) is not None]
            graph[node] = edges, (
                [(WILDCARD, state)] if wild is not None and accepting[wild]
                else [stp for (_, nid), stp in edges if accepting[nid]])
        return graph[node]

    start = intern(tuple(_closure({(0, 0)}, t) for t in all_triples))
    alive = {s for s, bits in named.items() if step(start, bits) is not None}
    live = (fsm.states if step(start, default) is not None else
            [s for s in fsm.states if s in alive] if alive else ())
    layers: List[Dict[Node, int]] = [{(s, start): 1 for s in live}]
    rev: Dict[Node, List[Node]] = {}        # node -> expanded predecessors
    indexed = 0                             # graph entries rev covers

    def read_back(t: int, ends: List[Tuple[Node, List[Step]]]) -> None:
        """Append layer t's witnesses, at ends in order, up to the cap.
        Only nodes that reach an end get predecessors, in layer order: a
        predecessor of such a node reaches one too."""
        nonlocal indexed
        for prev in itertools.islice(graph, indexed, None):
            for succ, _ in graph[prev][0]:
                rev.setdefault(succ, []).append(prev)
        indexed, reach = len(graph), {node for node, _ in ends}
        preds: List[Dict[Node, List[Tuple[int, Node, Step]]]] = [
            {} for _ in range(t + 1)]
        for i in range(t - 1, -1, -1):  # built backwards, for _paths' stack
            into = {p for node in reach for p in rev[node] if p in layers[i]}
            for prev in reversed([p for p in layers[i] if p in into]):
                for succ, stp in reversed(graph[prev][0]):
                    if succ in reach:
                        preds[i + 1].setdefault(succ, []).append((i, prev, stp))
            reach = into
        runs = (run for node, finals in ends for fstep in finals
                for run in _paths(t, node, (fstep,), preds))
        found.extend(itertools.islice(runs, max_backtraces - len(found)))

    witnesses = len(found)
    stopped = False
    barren: Set[FrozenSet[Node]] = set()    # node sets since the last witness
    for t in range(0, horizon):
        # close off windows of length t+1: t chained steps plus a final step
        if (t + 1) in want:
            before = witnesses
            ends = []
            for node, n in layers[t].items():
                finals = (graph[node] if node in graph else expand(node))[1]
                if finals:
                    witnesses += n * len(finals)
                    ends.append((node, finals))
            if ends and len(found) < max_backtraces:
                read_back(t, ends)
            if witnesses and len(found) >= max_backtraces:
                stopped = t + 1 < last
                break
            if witnesses > before:
                barren.clear()
            elif (reached := frozenset(layers[t])) in barren:
                break   # a barren cycle: later layers only repeat it
            else:
                barren.add(reached)
        if t + 1 >= last:
            break
        counts: Dict[Node, int] = {}
        for node, n in layers[t].items():
            for succ, _ in (graph[node] if node in graph else expand(node))[0]:
                counts[succ] = counts.get(succ, 0) + n
        layers.append(counts)
        if not counts:
            break

    return (witnesses > 0, _explanations(all_triples, cols, found, letter),
            stopped or witnesses > len(found), witnesses, len(graph))


def _compositions(triples: Sequence[Tuple[Property, int, Any]],
                  oks: Sequence[Tuple[bool, ...]]) -> List[Tuple[int, ...]]:
    """Every split of a window into consecutive segments, one per
    observation, segment j taking min..min+max steps whose step_ok
    values oks[k][j] all hold."""
    L = len(oks)
    # starts[j + 1][end]: (j, start, length) of each segment j ending there
    starts: List[Dict[int, List[Tuple[int, int, int]]]] = [{0: []}]
    for j, (_, mn, mx) in enumerate(triples):
        ends: Dict[int, List[Tuple[int, int, int]]] = {}
        for pos in starts[j]:
            top = L if mx is PLUS_INF else min(L, pos + mn + mx)
            k = pos
            while True:
                if k - pos >= mn:
                    ends.setdefault(k, []).append((j, pos, k - pos))
                if k == top or not oks[k][j]:
                    break
                k += 1
        starts.append(ends)
    return list(_paths(len(triples), L, (), starts))


def _paths(depth: int, at: Any, tail: tuple,
           before: Sequence[Mapping[Any, List[tuple]]]) -> Iterator[tuple]:
    """Label tuples of the paths of depth steps into at, each followed by
    tail, depth first: before[i].get(at) lists step i's (i - 1, predecessor,
    label) triples, the last followed first.  One buffer holds the path."""
    path: List[Any] = [None] * depth
    stack = [(depth, at, None)]
    while stack:
        i, at, label = stack.pop()
        if i < depth:
            path[i] = label
        if i:
            stack += before[i].get(at, ())
        else:
            yield tuple(path) + tail


def _explanations(all_triples, cols: Sequence[Sequence[int]],
                  found: List[Computation], letter) -> List[MSPR]:
    """Group the witnesses by each tuple of segment compositions, one per
    account and the last account first, as comb does.

    An account splits a window that ends in a concrete event as that
    window ending in WILDCARD when it can, since its meaning keeps only
    the most general final step, and as it stands otherwise.
    """
    groups: Dict[Tuple[Tuple[int, ...], ...], Set[Computation]] = {}
    memo: Dict[Tuple[int, Tuple[int, ...]], List[Tuple[int, ...]]] = {}
    for run in found:
        word = tuple(letter(stp) for stp in run)
        tries = ([word[:-1] + (letter((WILDCARD, run[-1][1])),), word] if run
                 else [word])
        per_account = []
        for i, (triples, col) in enumerate(zip(all_triples, cols)):
            for w in tries:
                if (i, w) not in memo:
                    memo[i, w] = _compositions(
                        triples, [[lt >> c & 1 for c in col] for lt in w])
                if memo[i, w]:
                    break
            per_account.append(memo[i, w])
        for lens in itertools.product(*reversed(per_account)):
            groups.setdefault(lens, set()).add(run)
    return [MSPR(lens, frozenset(groups[lens])) for lens in sorted(groups)]


# ---------------------------------------------------------------------------
# Fixture parsing
# ---------------------------------------------------------------------------


def load_fsm(text: str) -> StateMachine:
    """Parse the transition fixture format.

    One transition per line: `event state -> state`; `#` starts a comment;
    named step predicates as blocks:
    `property NAME { states: a, b; allow-events: e; deny-events: f; }`.

    The machine's psi is the table of the listed transitions: an event
    fires only in the states the file lists it for, a listed self-loop
    included, and a pair the file leaves out cannot occur.
    """
    check_type(text, str, "load_fsm takes text")
    transitions: Dict[Tuple[str, str], str] = {}
    states: Dict[str, None] = {}     # insertion-ordered sets
    events: Dict[str, None] = {}
    properties: Dict[str, Property] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        lineno, line = i + 1, lines[i].split("#", 1)[0].strip()
        i += 1
        if not line:
            continue
        try:
            if line.startswith("property "):
                while "}" not in line and i < len(lines):
                    line += " " + lines[i].split("#", 1)[0].strip()
                    i += 1
                name, prop = _parse_property_block(line)
                properties[name] = prop
                continue
            if "->" not in line:
                raise ValidationError("unrecognized fixture line: %r" % line,
                                      "fsm")
            left, _, target = line.partition("->")
            parts = left.split()
            if len(parts) != 2:
                raise ValidationError(
                    "transition needs `event state -> state`: %r" % line,
                    "fsm")
            event, src = parts
            dst = target.strip()
            if not dst:
                raise ValidationError("missing target state: %r" % line, "fsm")
        except ValidationError as exc:
            raise _at_line(exc, lineno) from None
        events[event] = None
        states.update(dict.fromkeys((src, dst)))
        transitions[(event, src)] = dst

    return StateMachine(states=tuple(states), events=tuple(events),
                        psi=transitions.get, properties=properties)


def _at_line(exc: ValidationError, lineno: int) -> ValidationError:
    """exc with the 1-based fixture line it was raised for."""
    return ValidationError("line %d: %s" % (lineno, exc), exc.fieldname)


def _split_top_commas(text: str) -> List[str]:
    """Split on commas outside parentheses; labels like (1,u,o2) stay whole."""
    items: List[str] = []
    depth = start = 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            items.append(text[start:i])
            start = i + 1
    items.append(text[start:])
    return [i.strip() for i in items if i.strip()]


def _parse_property_block(block: str) -> Tuple[str, Property]:
    head, _, rest = block.partition("{")
    words = head.split()
    if len(words) < 2:
        raise ValidationError(
            "property needs `property NAME { ... }`: %r" % block, "fsm")
    name = words[1]
    body, _, tail = rest.partition("}")
    if tail.strip():
        raise ValidationError("text after '}': %r" % tail.strip(), "fsm")
    states = allow = None
    deny: FrozenSet[str] = frozenset()
    for clause in body.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        key, _, vals = clause.partition(":")
        items = frozenset(_split_top_commas(vals))
        key = key.strip()
        if key == "states":
            states = items
        elif key == "allow-events":
            allow = items
        elif key == "deny-events":
            deny = items
        else:
            raise ValidationError("unknown property clause %r" % key, "fsm")
    return name, Property(name=name, states=states, allow_events=allow,
                          deny_events=deny)


def load_es(text: str) -> EvidentialStatement:
    """Parse the claim fixture format.

    `observation NAME = $` / `\\0(PROP)` / `(PROP, min, max[, w[, t]])`,
    `sequence NAME = obs obs ...`, and one `statement = seq seq ...` line.
    Properties stay symbolic; they resolve against a machine at check time.
    max accepts an integer or `infinitum` / `INF+`.
    """
    check_type(text, str, "load_es takes text")
    from .values import make_observation, no_observation, zero_observation

    observations: Dict[str, Observation] = {}
    sequences: Dict[str, ObservationSequence] = {}
    statement: Optional[List[str]] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("observation "):
                name, _, value = map(
                    str.strip, line[len("observation "):].partition("="))
                if not name or not value:
                    raise ValidationError(
                        "observation needs `observation NAME = VALUE`: %r"
                        % raw, "es")
                if value == "$":
                    observations[name] = no_observation()
                elif value.startswith("\\0(") and value.endswith(")"):
                    observations[name] = zero_observation(value[3:-1].strip())
                elif value.startswith("(") and value.endswith(")"):
                    parts = _split_top_commas(value[1:-1])
                    if len(parts) < 3:
                        raise ValidationError(
                            "observation tuple needs (PROP, min, max"
                            "[, w[, t]]): %r" % raw, "es")
                    prop = parts[0]
                    try:
                        mn = int(parts[1])
                        mx = (PLUS_INF if parts[2] in ("infinitum", "INF+")
                              else int(parts[2]))
                        w = float(parts[3]) if len(parts) > 3 else None
                        t = int(parts[4]) if len(parts) > 4 else None
                    except ValueError:
                        raise ValidationError(
                            "observation min, max and t must be integers and"
                            " w a number: %r" % raw, "es") from None
                    observations[name] = make_observation(prop, mn, mx, w, t)
                else:
                    raise ValidationError(
                        "unrecognized observation value %r" % value, "es")
            elif line.startswith("sequence "):
                name, _, members = map(
                    str.strip, line[len("sequence "):].partition("="))
                try:
                    obs = [observations[m] for m in members.split()]
                except KeyError as missing:
                    raise ValidationError(
                        "sequence %s references unknown observation %s"
                        % (name, missing), "es")
                if not obs:
                    raise ValidationError("sequence %s is empty" % name, "es")
                sequences[name] = ObservationSequence(obs, name=name)
            elif line.partition("=")[0].strip() == "statement":
                if statement is not None:
                    raise ValidationError("a second statement line; the first"
                                          " is line %d" % statement_line, "es")
                statement, statement_line = line.partition("=")[2].split(), lineno
            else:
                raise ValidationError("unrecognized claim line: %r" % raw,
                                      "es")
        except ValidationError as exc:
            raise _at_line(exc, lineno) from None
    if statement is None:
        raise ValidationError("claim fixture has no statement line", "es")
    try:
        seqs = [sequences[m] for m in statement]
    except KeyError as missing:
        raise _at_line(ValidationError(
            "statement references unknown sequence %s" % missing, "es"),
            statement_line) from None
    return EvidentialStatement(seqs)
