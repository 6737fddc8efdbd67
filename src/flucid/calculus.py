"""Set-like operators over contexts, tag sets, and forensic values.

One entry point per operator covers the whole family: membership,
difference, intersection, union, override, and filter (projection /
hiding).  Each dispatches on the kinds of its operands; a kind pairing
with no defined overload raises ContextTypeError.

Membership answers every `in` and `isSubContext` of a program.  A tag is
in a tag set when it is == to one of its tags (TagSet.__contains__), and
the tag-set operators keep or drop tags by that one rule.

The operands are the kinds values.py defines (kind_of names each one).
A selector for filter is a tuple of dimension names, which {d, e} gives
when d and e are dimensions, or a tag set; string tags therefore must be
wrapped in a tag set to tell them from dimension names.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional, Sequence, Set

from .values import (
    ContextSet,
    EvidentialStatement,
    FlucidError,
    Observation,
    ObservationSequence,
    SimpleContext,
    TagSet,
    ValidationError,
    is_forensic,
    kind_of,
)


class ContextTypeError(FlucidError):
    """Operand kinds have no defined overload for the requested operator."""


def _fail(op: str, a: Any, b: Any) -> None:
    raise ContextTypeError(
        "%s is not defined between %s and %s" % (op, kind_of(a), kind_of(b)))


# ---------------------------------------------------------------------------
# membership: in / isSubContext
# ---------------------------------------------------------------------------


def membership(op: str, a: Any, b: Any) -> bool:
    """Subset-flavoured comparison; `in` and `isSubContext` coincide."""
    if op not in ("in", "isSubContext"):
        raise ValidationError("unknown membership operator %r" % (op,))
    if isinstance(b, TagSet) and not isinstance(a, TagSet):
        return a in b
    if isinstance(b, tuple) and not isinstance(a, tuple):
        return a in b
    if isinstance(a, SimpleContext) and isinstance(b, SimpleContext):
        # the empty simple context is a sub-context of any simple context
        return all(pair in b.pairs for pair in a.pairs)
    if isinstance(a, ContextSet) and isinstance(b, ContextSet):
        return all(m in b for m in a)
    if isinstance(a, SimpleContext) and isinstance(b, ContextSet):
        return a in b
    if isinstance(a, TagSet) and isinstance(b, TagSet):
        # an infinite set never fits a finite one
        return a.is_finite() and all(t in b for t in a.tags)
    if is_forensic(a) and is_forensic(b):
        return _forensic_sub(a, b)
    _fail(op, a, b)


def _forensic_sub(a: Any, b: Any) -> bool:
    """Every nested context of a appears in b, order respected in sequences."""
    if isinstance(a, Observation):
        if isinstance(b, Observation):
            return a == b
        if isinstance(b, ObservationSequence):
            return a in b.observations
        return any(_forensic_sub(a, os) for os in b)
    if isinstance(a, ObservationSequence):
        if isinstance(b, ObservationSequence):
            return _is_subsequence(a.observations, b.observations)
        if isinstance(b, EvidentialStatement):
            return any(_is_subsequence(a.observations, os.observations) for os in b)
        return False
    if isinstance(a, EvidentialStatement):
        if isinstance(b, EvidentialStatement):
            return all(any(_is_subsequence(os.observations, other.observations)
                           for other in b) for os in a)
        return False
    return False


def _is_subsequence(small: Sequence[Any], big: Sequence[Any]) -> bool:
    it = iter(big)
    return all(any(x == y for y in it) for x in small)


# ---------------------------------------------------------------------------
# difference / intersection / union
# ---------------------------------------------------------------------------


def difference(a: Any, b: Any) -> Any:
    if isinstance(a, SimpleContext) and isinstance(b, SimpleContext):
        return SimpleContext(p for p in a.pairs if p not in b.pairs)
    if isinstance(a, ContextSet) and isinstance(b, ContextSet):
        return _pairwise_set(difference, a, b)
    if isinstance(a, TagSet) and isinstance(b, TagSet):
        _require_finite(a, b)
        in_b = _member_of(b)
        return TagSet(tuple(t for t in a.tags if not in_b(t)))
    _fail("difference", a, b)


def intersection(a: Any, b: Any) -> Any:
    if isinstance(a, SimpleContext) and isinstance(b, SimpleContext):
        return SimpleContext(p for p in a.pairs if p in b.pairs)
    if isinstance(a, ContextSet) and isinstance(b, ContextSet):
        return _pairwise_set(intersection, a, b)
    if isinstance(a, TagSet) and isinstance(b, TagSet):
        _require_finite(a, b)
        in_b = _member_of(b)
        return TagSet(tuple(t for t in a.tags if in_b(t)))
    _fail("intersection", a, b)


def _member_of(ts: TagSet):
    """`tag in ts` for a finite ts in one hash lookup per hashable tag:
    ts's hashable tags are indexed and its unhashable ones scanned.  The
    index keeps the == rule, since every tag is == to itself."""
    index, rest = set(), []
    for t in ts.tags:
        try:
            index.add(t)
        except TypeError:
            rest.append(t)

    def has(tag: Any) -> bool:
        try:
            hit = tag in index
        except TypeError:
            return tag in ts
        return hit or any(t == tag for t in rest)
    return has


def _require_finite(*sets: TagSet) -> None:
    for ts in sets:
        if not ts.is_finite():
            raise ContextTypeError("element-wise operation needs finite tag sets")


def _pairwise_set(fn, a: ContextSet, b: ContextSet) -> ContextSet:
    """Apply fn over all member pairs, dropping empty results."""
    out = []
    for ma in a:
        for mb in b:
            r = fn(ma, mb)
            if len(r):
                out.append(r)
    return ContextSet(out)


def union(a: Any, b: Any) -> Any:
    """Def-49 union; widens kind on conflict (context set, sequence, statement)."""
    if isinstance(a, SimpleContext) and isinstance(b, SimpleContext):
        return _simple_union(a, b)
    if isinstance(a, (SimpleContext, ContextSet)) and isinstance(b, (SimpleContext, ContextSet)):
        return _context_set_union(_as_context_set(a), _as_context_set(b))
    if isinstance(a, TagSet) and isinstance(b, TagSet):
        _require_finite(a, b)
        in_a = _member_of(a)
        return TagSet(a.tags + tuple(t for t in b.tags if not in_a(t)))
    if is_forensic(a) and is_forensic(b):
        return _forensic_union(a, b)
    _fail("union", a, b)


def _as_context_set(c: Any) -> ContextSet:
    return c if isinstance(c, ContextSet) else ContextSet([c])


def _simple_union(a: SimpleContext, b: SimpleContext) -> Any:
    micro = list(dict.fromkeys(a.pairs + b.pairs))
    dims = list(dict.fromkeys(d for d, _ in micro))
    per_dim = [[(d, t) for dd, t in micro if dd == d] for d in dims]
    if all(len(cands) == 1 for cands in per_dim):
        return SimpleContext(micro)
    # dimension conflict: every way of picking one micro context per
    # dimension, overridden together, becomes a member of the result set
    members = [SimpleContext(choice) for choice in itertools.product(*per_dim)]
    return ContextSet(members)


def _context_set_union(a: ContextSet, b: ContextSet) -> ContextSet:
    dims_a: Set[str] = set().union(*(set(m.dimensions()) for m in a)) if len(a) else set()
    dims_b: Set[str] = set().union(*(set(m.dimensions()) for m in b)) if len(b) else set()
    shared = dims_a & dims_b
    members: List[SimpleContext] = []
    for ma in a:
        for mb in b:
            members.append(_merge_hidden(ma, mb, shared))
    for mb in b:
        for ma in a:
            members.append(_merge_hidden(mb, ma, shared))
    return ContextSet(members)


def _merge_hidden(keep: SimpleContext, other: SimpleContext,
                  shared: Set[str]) -> SimpleContext:
    trimmed = SimpleContext(p for p in other.pairs if p[0] not in shared)
    merged = override(keep, SimpleContext(
        p for p in trimmed.pairs if not keep.has(p[0])))
    return merged


def _forensic_union(a: Any, b: Any) -> Any:
    if isinstance(a, Observation) and isinstance(b, Observation):
        if _in_time_order([a.t, b.t]):
            return ObservationSequence(
                tuple(sorted((a, b), key=lambda o: o.t)))
        # timestamps that do not order the two conflict: keep both apart
        return EvidentialStatement((ObservationSequence((a,)),
                                    ObservationSequence((b,))))
    if isinstance(a, Observation):
        a = ObservationSequence((a,))
    if isinstance(b, Observation):
        b = ObservationSequence((b,))
    if isinstance(a, ObservationSequence) and isinstance(b, ObservationSequence):
        merged = _try_time_merge(a, b)
        if merged is not None:
            return merged
        return EvidentialStatement((a, b))
    if isinstance(a, ObservationSequence):
        a = EvidentialStatement((a,))
    if isinstance(b, ObservationSequence):
        b = EvidentialStatement((b,))
    seqs = list(a.sequences)
    for os in b.sequences:
        if os not in seqs:
            seqs.append(os)
    return EvidentialStatement(tuple(seqs), name=a.name or b.name)


def _try_time_merge(a: ObservationSequence,
                    b: ObservationSequence) -> Optional[ObservationSequence]:
    """Fuse two accounts into one timeline when wall-clock order is total."""
    everything = list(a.observations) + list(b.observations)
    if not _in_time_order([o.t for o in everything]):
        return None
    return ObservationSequence(tuple(sorted(everything, key=lambda o: o.t)),
                               name=a.name or b.name)


def _in_time_order(times: List[Any]) -> bool:
    """Distinct timestamps, all ints or all strings: a total order.  An
    absent one, or a mix of kinds, orders nothing."""
    return len(set(times)) == len(times) and (
        all(isinstance(t, int) for t in times)
        or all(isinstance(t, str) for t in times))


# ---------------------------------------------------------------------------
# override
# ---------------------------------------------------------------------------


def override(a: Any, b: Any) -> Any:
    """Conflict-free union: pairs of b win on shared dimensions."""
    if isinstance(a, SimpleContext) and isinstance(b, SimpleContext):
        kept = [p for p in a.pairs if not b.has(p[0])]
        return SimpleContext(kept + list(b.pairs))
    if isinstance(a, (SimpleContext, ContextSet)) and isinstance(b, (SimpleContext, ContextSet)):
        return _pairwise_set(override, _as_context_set(a), _as_context_set(b))
    if is_forensic(a) and is_forensic(b):
        return _forensic_override(a, b)
    _fail("override", a, b)


def _forensic_override(a: Any, b: Any) -> Any:
    if isinstance(a, Observation) and isinstance(b, Observation):
        if isinstance(a.property, (SimpleContext, ContextSet)) \
                and isinstance(b.property, (SimpleContext, ContextSet)):
            prop = override(a.property, b.property)
            return Observation(prop, b.min, b.max, b.w, b.t, b.description)
        return b
    if isinstance(a, ObservationSequence) and isinstance(b, ObservationSequence):
        merged = [_forensic_override(x, y)
                  for x, y in zip(a.observations, b.observations)]
        longer = a.observations if len(a) > len(b) else b.observations
        return ObservationSequence(tuple(merged) + longer[len(merged):],
                                   name=b.name or a.name)
    if isinstance(a, EvidentialStatement) and isinstance(b, EvidentialStatement):
        by_name = {os.name: os for os in a.sequences if os.name}
        out = []
        for os in a.sequences:
            out.append(by_name.get(os.name, os))
        for os in b.sequences:
            if os.name and any(x.name == os.name for x in out):
                out = [os if x.name == os.name else x for x in out]
            elif os not in out:
                out.append(os)
        return EvidentialStatement(tuple(out), name=b.name or a.name)
    _fail("override", a, b)


# ---------------------------------------------------------------------------
# filter: projection / hiding
# ---------------------------------------------------------------------------


def filter(mode: str, c: Any, sel: Any) -> Any:        # noqa: A001
    """Keep (projection) or remove (hiding) micro contexts matched by sel."""
    if mode not in ("projection", "hiding"):
        raise ValidationError("unknown filter mode %r" % (mode,))
    keep = mode == "projection"
    if isinstance(sel, TagSet):
        match = lambda d, t: t in sel                  # noqa: E731
    elif isinstance(sel, tuple) and all(isinstance(d, str) for d in sel):
        names = set(sel)
        match = lambda d, t: d in names                # noqa: E731
    else:
        got = kind_of(sel)
        if isinstance(sel, tuple):
            got += " holding %s" % kind_of(
                next(d for d in sel if not isinstance(d, str)))
        raise ContextTypeError(
            "filter selector must be a tuple of dimension names or a tag "
            "set, got %s" % got)
    return _filter_value(c, match, keep)


def _filter_value(c: Any, match, keep: bool) -> Any:
    if isinstance(c, SimpleContext):
        return SimpleContext(p for p in c.pairs if match(*p) == keep)
    if isinstance(c, ContextSet):
        kept = []
        for m in c:
            f = _filter_value(m, match, keep)
            if len(f):
                kept.append(f)
        return ContextSet(kept)
    if isinstance(c, Observation):
        if isinstance(c.property, (SimpleContext, ContextSet)):
            return Observation(_filter_value(c.property, match, keep),
                               c.min, c.max, c.w, c.t, c.description)
        return c
    if isinstance(c, ObservationSequence):
        return ObservationSequence(
            tuple(_filter_value(o, match, keep) for o in c.observations),
            name=c.name)
    if isinstance(c, EvidentialStatement):
        return EvidentialStatement(
            tuple(_filter_value(os, match, keep) for os in c.sequences),
            name=c.name)
    raise ContextTypeError("filter is not defined on %s" % kind_of(c))
