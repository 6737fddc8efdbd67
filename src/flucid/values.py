"""Value universe for the Forensic Lucid implementation.

Primitive values are plain Python ints, floats, bools, and strings; arrays
are tuples.  This module adds the structured kinds: five interned
markers (bod, eod, INF+, INF- and $), tag sets, simple contexts and
context sets, and the three-level forensic hierarchy (observation,
observation sequence, evidential statement).  kind_of names every kind.
A value is checked once, when it is built, however it is built: an
Observation checks its fields, a sequence that its members are
observations, and a statement that its members are sequences.  lift is
the one rule that reads a value as forensic.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence, Tuple, Union


class FlucidError(Exception):
    """Root of the package exception hierarchy."""
    span = None     # where in the source it was raised, when known


class ValidationError(FlucidError):
    """A constructor argument violated a declared constraint."""

    def __init__(self, message: str, fieldname: str = ""):
        super().__init__(message)
        self.fieldname = fieldname


def check_type(value: Any, types: Union[type, Tuple[type, ...]],
               what: str) -> None:
    """Reject an entry point's argument of the wrong type; what says what
    the entry point takes, as in "tokenize takes text"."""
    if not isinstance(value, types):
        raise ValidationError("%s, not %s" % (what, type(value).__name__))


# ---------------------------------------------------------------------------
# Sentinels
# ---------------------------------------------------------------------------


class Sentinel:
    """Interned markers: bod and eod bound a stream, INF+ and INF- are
    the infinities, and $ is the property of the no-observation.

    One order rule: INF- is below every number, and every number is below
    INF+.  bod, eod and $ are not ordered; they are tested by identity.
    """

    _interned: dict = {}
    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Sentinel":
        check_type(name, str, "a sentinel is named by a string")
        existing = cls._interned.get(name)
        if existing is not None:
            return existing
        inst = super().__new__(cls)
        object.__setattr__(inst, "name", name)
        cls._interned[name] = inst
        return inst

    def __repr__(self) -> str:
        return self.name

    def __getnewargs__(self):                   # pickle finds the interned one
        return (self.name,)

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self

    def _compare(self, other: Any, op) -> Any:
        a, b = _rank(self), _rank(other)
        if a is None or b is None:
            return NotImplemented
        return op(a, b)

    def __lt__(self, other: Any):
        return self._compare(other, operator.lt)

    def __le__(self, other: Any):
        return self._compare(other, operator.le)

    def __gt__(self, other: Any):
        return self._compare(other, operator.gt)

    def __ge__(self, other: Any):
        return self._compare(other, operator.ge)


def _rank(v: Any) -> Optional[int]:
    """v's place in the sentinels' order, or None when it has none."""
    if isinstance(v, Sentinel):
        return _RANKS.get(v.name)
    return 0 if isinstance(v, (int, float)) else None


_RANKS = {"INF-": -1, "INF+": 1}

BOD = Sentinel("bod")
EOD = Sentinel("eod")
PLUS_INF = Sentinel("INF+")
MINUS_INF = Sentinel("INF-")
ANY_PROPERTY = Sentinel("$")


# ---------------------------------------------------------------------------
# Tag sets and dimensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TagSet:
    """The tags of a dimension, in declaration order.

    The order is the implicit index the stream operators use.  tags None
    is the naturals: the non-negative integers, the tags of an implicitly
    declared dimension.  A tag is in a finite set when it is == to one of
    its tags, so 1, 1.0 and true are one tag, and a tag not == to itself,
    such as NaN, would be in no set, its own included, and is rejected;
    two tag sets are equal when their tags are, in order.
    """

    tags: Optional[Tuple[Any, ...]] = None

    def __post_init__(self):
        check_type(self.tags, (tuple, type(None)), "a tag set's tags: a tuple")
        seen, unhashable = set(), []
        for t in self.tags or ():
            if not t == t:
                raise ValidationError("tag %r is not == to itself, so no tag "
                                      "set holds it" % (t,), "tags")
            try:
                clash = t in seen       # 1, 1.0 and true hash alike
                seen.add(t)
            except TypeError:
                clash = t in unhashable
                unhashable.append(t)
            if clash:
                raise ValidationError("duplicate tag %r in tag set" % (t,), "tags")

    @staticmethod
    def from_range(frm: int, to: int, step: int = 1) -> "TagSet":
        """The integers from frm to to, both included, step apart."""
        for v in (frm, to, step):
            if kind_of(v) != "integer":
                raise ValidationError("a range takes integer bounds and "
                                      "step, not %s" % kind_of(v))
        if step == 0:
            raise ValidationError("a range's step must not be zero", "step")
        return TagSet(tuple(range(frm, to + (1 if step > 0 else -1), step)))

    @staticmethod
    def naturals() -> "TagSet":
        """The open integer tag set used by implicitly declared dimensions."""
        return TagSet()

    def is_finite(self) -> bool:
        return self.tags is not None

    def __contains__(self, tag: Any) -> bool:
        if self.tags is not None:
            return any(t == tag for t in self.tags)
        return (isinstance(tag, int) or
                isinstance(tag, float) and tag.is_integer()) and tag >= 0

    def __len__(self) -> int:
        if self.tags is None:
            raise ValidationError("infinite tag set has no length", "tags")
        return len(self.tags)


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------


class SimpleContext:
    """A point in the context space: dimension:tag pairs, one per dimension.

    Stored canonically sorted by dimension name so that equality, hashing,
    and printed form are deterministic regardless of construction order.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Union[dict, Iterable[Tuple[str, Any]], None] = None):
        if pairs is None:
            items: Sequence[Tuple[str, Any]] = ()
        elif isinstance(pairs, dict):
            items = tuple(pairs.items())
        else:
            items = tuple(pairs)
        seen = {}
        for dim, tag in items:
            if dim in seen and seen[dim] != tag:
                raise ValidationError(
                    "dimension %r bound twice in one simple context" % dim, "pairs")
            seen[dim] = tag
        object.__setattr__(self, "pairs",
                           tuple(sorted(seen.items(), key=lambda p: p[0])))

    def dimensions(self) -> Tuple[str, ...]:
        return tuple(d for d, _ in self.pairs)

    def tag(self, dim: str, default: Any = None) -> Any:
        for d, t in self.pairs:
            if d == dim:
                return t
        return default

    def has(self, dim: str) -> bool:
        return any(d == dim for d, _ in self.pairs)

    def with_pair(self, dim: str, tag: Any) -> "SimpleContext":
        kept = [(d, t) for d, t in self.pairs if d != dim]
        kept.append((dim, tag))
        return SimpleContext(kept)

    def without(self, dim: str) -> "SimpleContext":
        return SimpleContext((d, t) for d, t in self.pairs if d != dim)

    def items(self) -> Tuple[Tuple[str, Any], ...]:
        return self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, SimpleContext) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(("SimpleContext", self.pairs))

    def __repr__(self) -> str:
        return _source_or_kind(self, self.pairs)


class ContextSet:
    """A region of the context space: a set of simple contexts."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[SimpleContext] = ()):
        members = tuple(members)
        if not all(isinstance(m, SimpleContext) for m in members):
            raise ValidationError("context set members must be simple contexts",
                                  "members")
        # canonical order: by printed form, for deterministic iteration
        object.__setattr__(self, "members", tuple(
            sorted(dict.fromkeys(members), key=repr)))

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, c: SimpleContext) -> bool:
        return c in self.members

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, ContextSet) and set(self.members) == set(other.members)

    def __hash__(self) -> int:
        return hash(("ContextSet", frozenset(self.members)))

    def __repr__(self) -> str:
        return _source_or_kind(self, self.members)


# ---------------------------------------------------------------------------
# Forensic hierarchy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Observation:
    """o = (P, min, max, w, t): property P held for min..min+max steps.

    min is a non-negative integer and max one or INF+; w is the
    credibility mass, a real number in [0, 1], kept as a float; t the
    optional wall-clock start, epoch seconds or a raw log timestamp.
    description carries the human-readable => annotation.  Construction
    raises a ValidationError naming the first field out of its range.
    """

    property: Any
    min: int = 1
    max: Any = 0               # int >= 0 or PLUS_INF
    w: float = 1.0
    t: Union[int, str, None] = None
    description: Optional[str] = None

    def __post_init__(self):
        check_duration(self.min, self.max)
        w, t = self.w, self.t
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise ValidationError("w must be a real number", "w")
        if not 0.0 <= w <= 1.0:
            raise ValidationError("w must be within [0, 1]", "w")
        if t is not None and (isinstance(t, bool) or
                              not isinstance(t, (int, str))):
            raise ValidationError("t must be an integer or string timestamp",
                                  "t")
        if not isinstance(w, float):
            object.__setattr__(self, "w", float(w))

    def is_no_observation(self) -> bool:
        return self.property is ANY_PROPERTY

    def is_zero_observation(self) -> bool:
        return self.min == 0 and self.max == 0 and self.property is not ANY_PROPERTY

    def __repr__(self) -> str:
        return _source_or_kind(self, (self.property, self.min, self.max,
                                      self.w, self.t, self.description))


@dataclass(frozen=True)
class ObservationSequence:
    """Chronologically ordered witness account; ordering is significant."""

    observations: Tuple[Observation, ...]
    name: str = ""

    def __post_init__(self):
        check_type(self.observations, (tuple, list),
                   "an observation sequence holds a tuple of observations")
        object.__setattr__(self, "observations", tuple(self.observations))
        for j, o in enumerate(self.observations, 1):
            if not isinstance(o, Observation):
                where = "sequence %s, item" % self.name if self.name \
                    else "an observation sequence's item"
                raise ValidationError("%s %d is %r, not an observation"
                                      % (where, j, o), "observations")

    def __len__(self) -> int:
        return len(self.observations)

    def __iter__(self):
        return iter(self.observations)

    def __repr__(self) -> str:
        label = self.name or "os"
        return "%s%s" % (label, _source_or_kind(self, self.observations))


@dataclass(frozen=True)
class EvidentialStatement:
    """All observation sequences of a case.

    Semantically unordered; declaration order is retained so that iteration
    and printed output stay deterministic.
    """

    sequences: Tuple[ObservationSequence, ...]
    name: str = ""

    def __post_init__(self):
        check_type(self.sequences, (tuple, list),
                   "an evidential statement holds a tuple of sequences")
        object.__setattr__(self, "sequences", tuple(self.sequences))
        for i, os in enumerate(self.sequences, 1):
            if not isinstance(os, ObservationSequence):
                raise ValidationError("sequence %d is %r, not an observation "
                                      "sequence" % (i, os), "sequences")

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self):
        return iter(self.sequences)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, EvidentialStatement):
            return NotImplemented
        return set(self.sequences) == set(other.sequences)

    def __hash__(self) -> int:
        # kept: a demand context that holds the statement is hashed at
        # every warehouse probe
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(("EvidentialStatement", frozenset(self.sequences)))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        label = self.name or "es"
        return "%s{%s}" % (label, ", ".join(os.name or repr(os) for os in self.sequences))


@dataclass(frozen=True)
class FunctionHandle:
    """A function used as a value: its unique name in the analysis."""

    name: str
    params: Tuple[str, ...] = ()

    def __repr__(self) -> str:
        return "<function %s/%d>" % (self.name, len(self.params))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def check_duration(min: Any, max: Any) -> None:
    """An observation's duration: min a non-negative integer, max a
    non-negative integer or INF+."""
    if isinstance(min, bool) or not isinstance(min, int):
        raise ValidationError("min must be an integer", "min")
    if min < 0:
        raise ValidationError("min must be non-negative", "min")
    if max is not PLUS_INF:
        if isinstance(max, bool) or not isinstance(max, int):
            raise ValidationError("max must be an integer or INF+", "max")
        if max < 0:
            raise ValidationError("max must be non-negative", "max")


def make_observation(property: Any, min: Any = None, max: Any = None,
                     w: Any = None, t: Any = None,
                     description: Optional[str] = None) -> Observation:
    """Build an observation, filling defaults min=1, max=0, w=1.0, t absent;
    a t of eod is absent too."""
    return Observation(property, 1 if min is None else min,
                       0 if max is None else max, 1.0 if w is None else w,
                       None if t is EOD else t, description)


def no_observation() -> Observation:
    """$ : puts no restrictions on computations."""
    return Observation(property=ANY_PROPERTY, min=0, max=PLUS_INF, w=1.0)


def zero_observation(property: Any) -> Observation:
    """\\0(P) : explained only by an empty run."""
    return Observation(property=property, min=0, max=0, w=1.0)


def lift(v: Any) -> Any:
    """Read a value as forensic.  Forensic values pass through; a tuple
    shaped (property, min[, max[, w[, t]]]) is that observation; any
    other tuple or a context set is a sequence of its members, each read
    as an observation by the same rule; anything else is a default
    observation of that property."""
    if is_forensic(v):
        return v
    if isinstance(v, ContextSet) or \
            isinstance(v, tuple) and not _observation_shaped(v):
        return ObservationSequence(tuple(map(_as_observation, v)))
    return _as_observation(v)


def _as_observation(v: Any) -> Observation:
    if isinstance(v, Observation):
        return v
    if isinstance(v, tuple) and _observation_shaped(v):
        return make_observation(*v)
    return make_observation(v)


def _observation_shaped(v: tuple) -> bool:
    """(property, min[, max[, w[, t]]]) with min, max and w of their
    fields' types; building it checks their ranges."""
    if not 2 <= len(v) <= 5:
        return False
    if not (isinstance(v[1], int) and not isinstance(v[1], bool)):
        return False
    if len(v) >= 3 and not (v[2] is PLUS_INF or (
            isinstance(v[2], int) and not isinstance(v[2], bool))):
        return False
    if len(v) >= 4 and not isinstance(v[3], (int, float)):
        return False
    return True


# ---------------------------------------------------------------------------
# Kind inspection and serialization
# ---------------------------------------------------------------------------


def kind_of(v: Any) -> str:
    if isinstance(v, bool):
        return "boolean"
    if isinstance(v, int):
        return "integer"
    if isinstance(v, float):
        return "real"
    if isinstance(v, str):
        return "string"
    if isinstance(v, tuple):
        return "array"
    if isinstance(v, Sentinel):
        return "sentinel"
    if isinstance(v, SimpleContext):
        return "simple context"
    if isinstance(v, ContextSet):
        return "context set"
    if isinstance(v, TagSet):
        return "tag set"
    if isinstance(v, Observation):
        return "observation"
    if isinstance(v, ObservationSequence):
        return "observation sequence"
    if isinstance(v, EvidentialStatement):
        return "evidential statement"
    if isinstance(v, FunctionHandle):
        return "function"
    return type(v).__name__


def is_forensic(v: Any) -> bool:
    return isinstance(v, (Observation, ObservationSequence, EvidentialStatement))


def _quote(s: str) -> str:
    if "\n" in s:
        raise ValidationError("a string holding a newline has no source form")
    return '"%s"' % s.replace("\\", "\\\\").replace('"', '\\"')


def to_source(v: Any) -> str:
    """Render a value in concrete syntax; re-parsing yields an equal value."""
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, str):
        return _quote(v)
    if isinstance(v, Sentinel):
        return v.name
    if isinstance(v, tuple):
        return "(%s)" % ", ".join(to_source(x) for x in v)
    if isinstance(v, SimpleContext):
        return "[%s]" % ", ".join(
            "%s:%s" % (d, to_source(t)) for d, t in v.pairs)
    if isinstance(v, ContextSet):
        return "{%s}" % ", ".join(to_source(c) for c in v.members)
    if isinstance(v, Observation):
        if v.is_no_observation():
            return "$"
        if v.is_zero_observation() and v.w == 1.0 and v.t is None:
            return "\\0(%s)" % to_source(v.property)
        prop = to_source(v.property)
        if v.description is not None:
            prop = "%s => %s" % (prop, _quote(v.description))
        parts = [prop, str(v.min), to_source(v.max), repr(v.w)]
        if v.t is not None:
            parts.append(to_source(v.t))
        return "(%s)" % ", ".join(parts)
    if isinstance(v, ObservationSequence):
        return "{ %s }" % ", ".join(to_source(o) for o in v.observations)
    if isinstance(v, EvidentialStatement):
        return "{ %s }" % ", ".join(to_source(s) for s in v.sequences)
    raise ValidationError("value of kind %s has no source form" % kind_of(v))


def _source_or_kind(v: Any, parts: Any) -> str:
    """A value's repr: its source form, or `<kind parts>` when it has
    none (it holds a tag set or a string with a newline)."""
    try:
        return to_source(v)
    except ValidationError:
        return "<%s %r>" % (kind_of(v), parts)
