"""Dempster-Shafer evidence: mass assignments, belief, plausibility and
Dempster's combination rule, and the bel/pl credibility of forensic values
computed with them.

A _MassAssignment is a basic belief assignment m : 2^Q -> [0,1] over a
finite frame Q with m(empty) = 0 and total mass 1.  Belief of A sums the
masses of subsets of A; plausibility sums the masses of sets meeting A.
Each observation's weight w is a simple support function (mass w on its
claim, 1 - w on the frame); repeated claims are combined by Dempster's
rule, and a statement is one assignment over its claims (`credibility`).
"""

from __future__ import annotations

import functools
import math
from typing import Any, Dict, FrozenSet, Iterable, Mapping

from .values import (
    ContextSet,
    EvidentialStatement,
    FlucidError,
    Observation,
    ObservationSequence,
    SimpleContext,
    ValidationError,
    kind_of,
    to_source,
)

TOL = 1e-9


class DomainError(FlucidError):
    """A queried set is not within the assignment's frame."""


class CombinationUndefinedError(FlucidError):
    """Dempster's rule with total conflict (K = 1) has no result."""


class _MassAssignment:
    """Immutable basic belief assignment over a finite frame."""

    __slots__ = ("frame", "masses")

    def __init__(self, frame: Iterable[Any],
                 masses: Mapping[FrozenSet[Any], float]):
        fr = frozenset(frame)
        clean: Dict[FrozenSet[Any], float] = {}
        total = 0.0
        for subset, m in masses.items():
            s = frozenset(subset)
            if not s <= fr:
                raise DomainError("focal set %s outside frame" % sorted(map(str, s)))
            if not s:
                if abs(m) > TOL:
                    raise ValidationError("mass of the empty set must be 0", "masses")
                continue
            if m < -TOL or m > 1 + TOL:
                raise ValidationError("mass %r outside [0, 1]" % m, "masses")
            if m <= 0.0:
                continue
            clean[s] = clean.get(s, 0.0) + m
            total += m
        if abs(total - 1.0) > TOL:
            raise ValidationError(
                "masses must sum to 1, got %.12f" % total, "masses")
        object.__setattr__(self, "frame", fr)
        object.__setattr__(self, "masses", clean)

    def mass(self, subset: Iterable[Any]) -> float:
        return self.masses.get(frozenset(subset), 0.0)

    def __repr__(self) -> str:
        parts = ", ".join("%s:%g" % (set(s) or "{}", m)
                          for s, m in sorted(self.masses.items(),
                                             key=lambda kv: sorted(map(str, kv[0]))))
        return "_MassAssignment(%s)" % parts


def _check_subset(m: _MassAssignment, a: Iterable[Any]) -> FrozenSet[Any]:
    s = frozenset(a)
    if not s <= m.frame:
        raise DomainError("queried set %s outside frame" % sorted(map(str, s)))
    return s


def _belief(m: _MassAssignment, a: Iterable[Any]) -> float:
    """Total mass committed to subsets of a."""
    s = _check_subset(m, a)
    return sum(mass for focal, mass in m.masses.items() if focal <= s)


def _plausibility(m: _MassAssignment, a: Iterable[Any]) -> float:
    """Total mass not contradicting a (mass of sets intersecting a)."""
    s = _check_subset(m, a)
    return sum(mass for focal, mass in m.masses.items() if focal & s)


def _dempster_combine(m1: _MassAssignment,
                      m2: _MassAssignment) -> _MassAssignment:
    """Join two independent assignments; undefined under total conflict."""
    if m1.frame != m2.frame:
        raise DomainError("combination requires identical frames")
    conflict = 0.0
    joint: Dict[FrozenSet[Any], float] = {}
    for b, mb in m1.masses.items():
        for c, mc in m2.masses.items():
            inter = b & c
            if inter:
                joint[inter] = joint.get(inter, 0.0) + mb * mc
            else:
                conflict += mb * mc
    if conflict >= 1.0 - TOL:
        raise CombinationUndefinedError(
            "total conflict between the assignments (K = 1)")
    scale = 1.0 / (1.0 - conflict)
    return _MassAssignment(m1.frame, {a: m * scale for a, m in joint.items()})


# ---------------------------------------------------------------------------
# Credibility over the forensic hierarchy
# ---------------------------------------------------------------------------

_CLAIM = frozenset(["claim"])
_CLAIM_FRAME = frozenset(["claim", "contrary"])
_CONTRARY = None        # never equal to a claim, which is a string


def credibility(kind: str, f: Any) -> float:
    """bel or pl of a forensic value.

    Observations carry their own mass w; the no-observation is fully
    believed and the zero-observation not at all.  Contexts are fully
    believed.  Repeated claims fuse by Dempster's rule: each weight w is
    the simple support function {claim: w, frame: 1 - w}, and the fused
    credibility is the belief in the claim after combining them all.  A
    sequence averages the fused credibility of each distinct property.
    A statement is one assignment over its distinct claims (a sequence's
    property profile, fused as above) plus a contrary element: each claim
    gets its fused credibility as mass, scaled down to sum to 1 when the
    claims overcommit, and the remainder goes on the whole frame.  Its
    bel and pl are the belief and plausibility of the set of claims; an
    empty statement has bel 0 and pl 1.
    """
    if kind not in ("bel", "pl"):
        raise ValidationError("unknown credibility kind %r" % (kind,))
    if isinstance(f, (SimpleContext, ContextSet)):
        return 1.0
    if isinstance(f, Observation):
        return _observation_credibility(f)
    if isinstance(f, ObservationSequence):
        return _sequence_credibility(f)
    if isinstance(f, EvidentialStatement):
        claims = _statement_claims(f)
        if not claims:
            return 0.0 if kind == "bel" else 1.0
        query = _belief if kind == "bel" else _plausibility
        return query(_statement_assignment(claims), claims)
    raise DomainError("credibility is not defined on %s" % kind_of(f))


def _observation_credibility(o: Observation) -> float:
    if o.is_no_observation():
        return 1.0
    if o.is_zero_observation():
        return 0.0
    return o.w


def _fuse(weights: Iterable[float]) -> float:
    """Belief in a claim after combining one simple support per weight."""
    m = functools.reduce(_dempster_combine, (
        _MassAssignment(_CLAIM_FRAME, {_CLAIM: w, _CLAIM_FRAME: 1.0 - w})
        for w in weights))
    return _belief(m, _CLAIM)


def _sequence_credibility(os: ObservationSequence) -> float:
    groups: Dict[str, list] = {}
    for o in os.observations:
        groups.setdefault(to_source(o.property), []).append(
            _observation_credibility(o))
    if not groups:
        return 1.0          # an empty account asserts nothing to doubt
    return math.fsum(map(_fuse, groups.values())) / len(groups)


def _statement_claims(es: EvidentialStatement) -> Dict[str, float]:
    """Fused credibility per distinct claim (a sequence's property profile)."""
    claims: Dict[str, list] = {}
    for os in es.sequences:
        key = "|".join(sorted(to_source(o.property) for o in os.observations))
        claims.setdefault(key, []).append(_sequence_credibility(os))
    return {key: _fuse(ws) for key, ws in claims.items()}


def _statement_assignment(claims: Dict[str, float]) -> _MassAssignment:
    frame = frozenset(claims) | {_CONTRARY}
    total = math.fsum(claims.values())
    scale = 1.0 / max(total, 1.0)
    masses = {frozenset([c]): w * scale for c, w in claims.items()}
    masses[frame] = 1.0 - min(total, 1.0)
    return _MassAssignment(frame, masses)
