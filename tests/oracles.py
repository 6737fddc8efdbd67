"""Independent reference implementations used by the test suite.

Everything in here is deliberately written from first principles against
the published definitions, with no imports from the package under test,
so that agreement between package and oracle is meaningful.  Sentinels are
plain strings here ("bod", "eod", "*"); comparing tests translate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

EOD = "eod"
BOD = "bod"
WILD = "*"


# ---------------------------------------------------------------------------
# Belief calculus over explicit mass assignments
# ---------------------------------------------------------------------------


def powerset(frame: Iterable[Any]) -> List[FrozenSet[Any]]:
    items = list(frame)
    out = []
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            out.append(frozenset(combo))
    return out


def bel_oracle(mass: Dict[FrozenSet[Any], float], a: FrozenSet[Any]) -> float:
    """Sum of mass over non-empty subsets of a."""
    return sum(m for b, m in mass.items() if b and b <= a)


def pl_oracle(mass: Dict[FrozenSet[Any], float], a: FrozenSet[Any]) -> float:
    """Sum of mass over sets intersecting a."""
    return sum(m for b, m in mass.items() if b & a)


def dempster_oracle(m1: Dict[FrozenSet[Any], float],
                    m2: Dict[FrozenSet[Any], float]) -> Dict[FrozenSet[Any], float]:
    conflict = 0.0
    combined: Dict[FrozenSet[Any], float] = {}
    for b, mb in m1.items():
        for c, mc in m2.items():
            inter = b & c
            if inter:
                combined[inter] = combined.get(inter, 0.0) + mb * mc
            else:
                conflict += mb * mc
    if abs(conflict - 1.0) < 1e-12:
        raise ZeroDivisionError("total conflict")
    scale = 1.0 / (1.0 - conflict)
    return {a: m * scale for a, m in combined.items()}


# ---------------------------------------------------------------------------
# Finite-stream reference operators
# ---------------------------------------------------------------------------


def _at(xs: Sequence[Any], i: int) -> Any:
    if i < 0:
        return BOD
    if i >= len(xs):
        return EOD
    return xs[i]


def _matches(xs: Sequence[Any], ys: Sequence[Any], want: bool) -> List[Any]:
    # the guard decides which indices survive; the data stream is sampled
    # there even where it has already ended
    return [_at(xs, j) for j in range(len(ys)) if bool(ys[j]) == want]


def _rev_at(xs: Sequence[Any], i: int) -> Any:
    # reversal runs from the last element back; walking past the first
    # element reaches the stream's beginning, not its end
    if i < 0:
        return BOD
    if i >= len(xs):
        return BOD
    return xs[len(xs) - 1 - i]


def ref_stream_op(op: str, xs: Sequence[Any], ys: Sequence[Any], i: int) -> Any:
    """Value of `op` applied to finite streams xs / ys, sampled at index i."""
    if op == "first":
        return _at(xs, 0)
    if op == "second":
        return _at(xs, 1)
    if op == "last":
        return _at(xs, len(xs) - 1)
    if op == "prelast":
        return _at(xs, len(xs) - 2) if len(xs) >= 2 else BOD
    if op == "next":
        return _at(xs, i + 1)
    if op == "prev":
        return _at(xs, i - 1)
    if op == "fby":
        if i < 0:
            return BOD
        return _at(xs, 0) if i == 0 else _at(ys, i - 1)
    if op == "pby":
        here = _at(ys, i)
        if here != EOD:
            return here
        return EOD if _at(ys, i - 1) == EOD else _at(xs, 0)
    if op in ("wvr", "nwvr"):
        sel = _matches(xs, ys, op == "wvr")
        return _at(sel, i)
    if op in ("rwvr", "nrwvr"):
        if i < 0:
            return BOD
        ry = list(reversed(ys))
        hits = [j for j in range(len(ry)) if bool(ry[j]) == (op == "rwvr")]
        if i >= len(hits):
            return BOD
        return _rev_at(xs, hits[i])
    if op in ("asa", "nasa"):
        sel = _matches(xs, ys, op == "asa")
        return sel[0] if sel else EOD
    if op in ("ala", "nala"):
        sel = _matches(xs, ys, op == "ala")
        kept = []
        for v in sel:
            if v == EOD:
                break
            kept.append(v)
        return kept[-1] if kept else EOD
    if op in ("upon", "nupon"):
        if i < 0:
            return BOD
        if i > len(ys):
            return EOD
        w = sum(1 for k in range(i) if bool(ys[k]) == (op == "upon"))
        return _at(xs, w)
    if op in ("rupon", "nrupon"):
        if i < 0:
            return BOD
        if i > len(ys):
            return BOD
        w = sum(1 for k in range(i)
                if bool(_rev_at(ys, k)) == (op == "rupon"))
        return _rev_at(xs, w)
    if op == "neg":
        v = _at(xs, i)
        return v if v in (EOD, BOD) else -v
    if op == "not":
        v = _at(xs, i)
        return v if v in (EOD, BOD) else not bool(v)
    if op in ("and", "or", "nand", "nor"):
        a = _at(xs, i)
        if a in (EOD, BOD):
            return a
        if op in ("and", "nand") and not bool(a):
            return 0 if op == "and" else 1
        if op in ("or", "nor") and bool(a):
            return 1 if op == "or" else 0
        b = _at(ys, i)
        if b in (EOD, BOD):
            return b
        hit = bool(b)
        return int(hit if op in ("and", "or") else not hit)
    if op in ("xor", "nxor"):
        a = _at(xs, i)
        if a in (EOD, BOD):
            return a
        b = _at(ys, i)
        if b in (EOD, BOD):
            return b
        one = bool(a) != bool(b)
        return int(one if op == "xor" else not one)
    raise ValueError("unknown op %r" % op)


def ref_table_row(op: str, xs: Sequence[Any], ys: Sequence[Any],
                  columns: Sequence[int]) -> List[Any]:
    return [ref_stream_op(op, xs, ys, i) for i in columns]


# ---------------------------------------------------------------------------
# Brute-force event reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OProp:
    """Step predicate: optional state set, allowed events, denied events."""

    states: Optional[FrozenSet[str]] = None
    allow: Optional[FrozenSet[str]] = None
    deny: Optional[FrozenSet[str]] = None
    anything: bool = False

    def constrains_events(self) -> bool:
        return not self.anything and (self.allow is not None or bool(self.deny))

    def step_ok(self, event: str, state: Any) -> bool:
        if self.anything:
            return True
        if self.states is not None and state not in self.states:
            return False
        if event == WILD:
            return not self.constrains_events()
        if self.allow is not None and event not in self.allow:
            return False
        if self.deny and event in self.deny:
            return False
        return True


Run = Tuple[Tuple[str, Any], ...]


def enumerate_runs(transitions: Dict[Tuple[str, Any], Any],
                   states: Sequence[Any], events: Sequence[str],
                   length: int) -> List[Run]:
    """All transition-consistent runs of `length` (event, state) steps.

    The final step's event is the next one to occur: either any event legal
    in the final state, or the wildcard when left unconstrained.  Length
    zero admits exactly the empty run.
    """
    if length < 0:
        return []
    if length == 0:
        return [()]
    out: List[Run] = []

    def extend(prefix: List[Tuple[str, Any]], state: Any) -> None:
        if len(prefix) == length - 1:
            out.append(tuple(prefix + [(WILD, state)]))
            for e in events:
                if (e, state) in transitions:
                    out.append(tuple(prefix + [(e, state)]))
            return
        for e in events:
            nxt = transitions.get((e, state))
            if nxt is not None:
                extend(prefix + [(e, state)], nxt)

    for s in states:
        extend([], s)
    return out


def _compositions(total: int, bounds: Sequence[Tuple[int, int]]) -> Iterable[List[int]]:
    if not bounds:
        if total == 0:
            yield []
        return
    lo, hi = bounds[0]
    for d in range(lo, min(hi, total) + 1):
        for rest in _compositions(total - d, bounds[1:]):
            yield [d] + rest


def os_satisfies(run: Run, obs: Sequence[Tuple[OProp, int, Any]]) -> bool:
    """Is there an ordered partition of run into per-observation segments?"""
    length = len(run)
    bounds = []
    for _prop, mn, mx in obs:
        hi = length if mx == "INF+" else mn + mx
        bounds.append((mn, hi))
    for durs in _compositions(length, bounds):
        pos = 0
        ok = True
        for (prop, _mn, _mx), d in zip(obs, durs):
            for k in range(pos, pos + d):
                if not prop.step_ok(*run[k]):
                    ok = False
                    break
            if not ok:
                break
            pos += d
        if ok:
            return True
    return False


def meaning_oracle(transitions: Dict[Tuple[str, Any], Any],
                   states: Sequence[Any], events: Sequence[str],
                   obs: Sequence[Tuple[OProp, int, Any]],
                   length: int) -> Set[Run]:
    """Runs of the given length explained by the observation sequence.

    A concrete-final-event run is dropped when its wildcard twin is also
    explained, so unconstrained endings keep their most general form.
    """
    sat = {r for r in enumerate_runs(transitions, states, events, length)
           if os_satisfies(r, obs)}
    out = set()
    for r in sat:
        if r and r[-1][0] != WILD:
            twin = r[:-1] + ((WILD, r[-1][1]),)
            if twin in sat:
                continue
        out.add(r)
    return out


def unify_runs(r1: Run, r2: Run) -> Optional[Run]:
    if len(r1) != len(r2) or r1[:-1] != r2[:-1]:
        return None
    if not r1:
        return r1
    (e1, s1), (e2, s2) = r1[-1], r2[-1]
    if s1 != s2:
        return None
    if e1 == e2:
        return r1
    if e1 == WILD:
        return r2
    if e2 == WILD:
        return r1
    return None


def check_claim_oracle(transitions: Dict[Tuple[str, Any], Any],
                       states: Sequence[Any], events: Sequence[str],
                       oss: Sequence[Sequence[Tuple[OProp, int, Any]]],
                       horizon: int) -> Tuple[bool, Set[Tuple[int, Run]]]:
    """(consistent?, {(length, explaining run)}) across all window lengths."""
    found: Set[Tuple[int, Run]] = set()
    for length in range(0, horizon + 1):
        sets = [meaning_oracle(transitions, states, events, obs, length)
                for obs in oss]
        if not sets or any(not s for s in sets):
            continue
        merged = sets[0]
        for nxt in sets[1:]:
            step: Set[Run] = set()
            for a in merged:
                for b in nxt:
                    u = unify_runs(a, b)
                    if u is not None:
                        step.add(u)
            merged = step
            if not merged:
                break
        for r in merged:
            found.add((length, r))
    return (bool(found), found)


# ---------------------------------------------------------------------------
# Generic observation expansion
# ---------------------------------------------------------------------------


def expansions_oracle(obs: Sequence[Tuple[Any, int, Any]],
                      horizon: int) -> List[Tuple[Tuple[Any, int], ...]]:
    """Cross product of per-observation durations min..min+max (INF+ capped)."""
    ranges = []
    for prop, mn, mx in obs:
        hi = horizon if mx == "INF+" else mn + mx
        hi = min(hi, horizon) if mx == "INF+" else hi
        ranges.append([(prop, d) for d in range(mn, hi + 1)])
    return [tuple(combo) for combo in itertools.product(*ranges)]


# ---------------------------------------------------------------------------
# Calendar conversion
# ---------------------------------------------------------------------------


def local_calendar(epoch: int, tz: str) -> Dict[str, int]:
    from datetime import datetime
    from zoneinfo import ZoneInfo
    dt = datetime.fromtimestamp(epoch, ZoneInfo(tz))
    return {
        "year": dt.year, "month": dt.month, "day": dt.day,
        "hour": dt.hour, "minute": dt.minute, "second": dt.second,
    }
