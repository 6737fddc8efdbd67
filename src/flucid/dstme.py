"""Dempster-Shafer credibility of forensic values, by its closed forms.

Each observation's weight w is a simple support function: mass w on its
claim and 1 - w on the frame (Shafer, A Mathematical Theory of
Evidence, 1976).  `credibility` combines only two shapes of assignment,
and both have closed forms, so no general mass-assignment engine is
kept; the general definitions live in tests/oracles.py, which judges
these forms.

- Simple supports on one claim never conflict: their focal sets, the
  claim and the frame, always meet.  Dempster's rule then needs no
  normalisation, and the mass it leaves off the claim is the product of
  what each support leaves off it, so the fused belief in the claim is
  1 - prod(1 - w).
- A statement's assignment puts each distinct claim's fused credibility
  on that claim alone, scaled down to sum to 1 when the claims
  overcommit, and the rest on the frame (the claims plus a contrary
  element).  Every focal set is then a claim or the frame, so the belief
  of the set of claims is the claims' own mass, min(sum, 1), and its
  plausibility is the total mass, 1.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Dict, List

from .values import (
    ContextSet,
    EvidentialStatement,
    FlucidError,
    Observation,
    ObservationSequence,
    SimpleContext,
    ValidationError,
    kind_of,
)


class DomainError(FlucidError):
    """A value has no credibility: it is not a context or a forensic
    value, or it holds an observation whose property cannot be hashed,
    so its observations cannot be grouped by claim."""


def credibility(kind: str, f: Any) -> float:
    """bel or pl of a forensic value, a number in [0, 1].

    Observations carry their own mass w; the no-observation is fully
    believed and the zero-observation not at all.  Contexts are fully
    believed.  Observations of one property fuse by Dempster's rule into
    1 - prod(1 - w), and a sequence averages the fused credibility of
    its distinct properties; below a statement bel and pl are equal.
    Properties are one when they are ==, as tags are in a tag set, so 1,
    1.0 and true are one property.  A statement's claims are its
    sequences' property profiles (properties with their counts, in any
    order), each fused over the sequences that share it; its bel is the
    sum of the fused claims capped at 1, and its pl is 1, since all of
    its mass meets the set of claims.  An empty statement has bel 0 and
    pl 1.
    """
    if kind not in ("bel", "pl"):
        raise ValidationError("unknown credibility kind %r" % (kind,))
    if isinstance(f, (SimpleContext, ContextSet)):
        return 1.0
    if isinstance(f, Observation):
        return _observation_credibility(f)
    if isinstance(f, ObservationSequence):
        return _sequence_credibility(_by_property(f))
    if isinstance(f, EvidentialStatement):
        fused = _statement_claims(f)    # for pl too: it raises as bel does
        return min(math.fsum(fused), 1.0) if kind == "bel" else 1.0
    raise DomainError("credibility is not defined on %s" % kind_of(f))


def _observation_credibility(o: Observation) -> float:
    if o.is_no_observation():
        return 1.0
    if o.is_zero_observation():
        return 0.0
    return o.w


def _fuse(weights: List[float]) -> float:
    """1 - prod(1 - w), folded as b + w (1 - b): it stays within [0, 1]
    and returns a lone weight unchanged."""
    return functools.reduce(lambda b, w: b + w * (1.0 - b), weights)


def _by_property(os: ObservationSequence) -> Dict[Any, List[float]]:
    """The credibility of each observation of os, grouped by property."""
    groups: Dict[Any, List[float]] = {}
    for o in os.observations:
        c = _observation_credibility(o)
        try:
            groups.setdefault(o.property, []).append(c)
        except TypeError:
            raise DomainError("credibility groups observations by property, "
                              "and a property of kind %s cannot be hashed"
                              % kind_of(o.property)) from None
    return groups


def _sequence_credibility(groups: Dict[Any, List[float]]) -> float:
    if not groups:
        return 1.0          # an empty account asserts nothing to doubt
    return math.fsum(map(_fuse, groups.values())) / len(groups)


def _statement_claims(es: EvidentialStatement) -> List[float]:
    """Fused credibility per distinct claim (a sequence's property profile)."""
    claims: Dict[frozenset, List[float]] = {}
    for os in es.sequences:
        groups = _by_property(os)
        profile = frozenset((p, len(cs)) for p, cs in groups.items())
        claims.setdefault(profile, []).append(_sequence_credibility(groups))
    return [_fuse(ws) for ws in claims.values()]
