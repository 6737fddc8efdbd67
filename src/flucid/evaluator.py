"""Demand-driven evaluation.

Expressions are evaluated by demand at a context: a demand names a
definition, a simple context, and a call frame; its value is computed
once and kept in a warehouse that is never overwritten.  Evaluation is
single-threaded, and each Evaluator owns its warehouse, in which a key
is stored once.  Scoping was flattened by the analyzer (every definition
has a unique name) so one global definition environment serves the
whole program; call frames carry only the lazy argument bindings of
function application, which gives the substitution semantics directly:
a formal occurrence evaluates its argument expression at the context of
the occurrence, not of the call.

The stream filters (`wvr`, `upon`, `asa`, `ala` and their n- and
r-forms), `last`, `prelast` and the truth-value words (`and`, `or`,
`xor` and their n-forms) arrive as their semantics.rewrite_to_core
templates, which analyze expands: every element a filter yields is a
demand that the warehouse keeps, a stream scanned for its end is
bounded by the demand depth like any other runaway, and a program
means what its core rewrite means.  `first`, `next`, `prev`, `second`,
`fby` and `pby`, which the case programs and the benchmark run, are
evaluated directly by index arithmetic; `fby` is core even to
rewrite_to_core, since over a forensic left value it prepends that
value's observations to the sequence on its right.  `neg` and `not` run
the code of `-` and `!` and the bitwise words that of the binary
operators, so that their errors name the word as written.  Every
construct the front end accepts has a rule here; the one that fails by
construction is a dimensional subscript outside a call, which the
grammar keeps for function heads.  Errors are
raised with a message only; `eval` gives each FlucidError the position
of the innermost source node it passes through.  Nesting too deep for one
Python stack resumes on a fresh one (see Evaluator.run), so evaluation
runs within the interpreter's recursion limit and never changes it.

Forensic values (observations, sequences, statements) flow through the
same machinery.  An observation is valid once built, and values.lift
reads every forensic operand and declaration, except that a statement
reads a tuple as its sequences.  A call applying a claim function to an
evidential statement evaluates its body like any other call, then
settles the claim: the transition function declared alongside it
becomes the psi of a finite state machine, evaluated at an (event,
state) pair the first time the pair is asked, and when the body's value
is a list of hypotheses (annotated `pby` chains) each is validated hop
by hop against that machine; otherwise the claim is checked by
reconstruction.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import calculus, dstme, era
from .semantics import Analysis, Definition, analyze
from .syntax import nodes as N
from .syntax import parse
from .values import (
    BOD,
    EOD,
    EvidentialStatement,
    FlucidError,
    FunctionHandle,
    MINUS_INF,
    Observation,
    ObservationSequence,
    PLUS_INF,
    SimpleContext,
    ContextSet,
    TagSet,
    ValidationError,
    check_type,
    is_forensic,
    kind_of,
    lift,
    make_observation,
    no_observation,
    to_source,
    zero_observation,
)

EMPTY_CONTEXT = SimpleContext()
DEFAULT_DIMENSION = "d"
DEFAULT_THRESHOLD = 0.5

# Reserved context dimensions for forensic navigation; "~" cannot occur
# in a source identifier, so user dimensions can never collide.
CURRENT_OBSERVATION = "~o"
CURRENT_SEQUENCE = "~os"
CURRENT_STATEMENT = "~es"

_SENTINELS = {"eod": EOD, "bod": BOD, "INF+": PLUS_INF, "INF-": MINUS_INF}


class EvaluationError(FlucidError):
    """Raised with a message only; Evaluator.eval sets span to that of
    the innermost source node the error passes through, as it does for
    every FlucidError."""


@dataclass(frozen=True)
class _Hypothesis:
    """A declared run: elements newest first, each with the event that
    produced it from its (older) successor in the tuple."""
    items: Tuple[Tuple[Any, Optional[str]], ...]


class _Thunk:
    """Lazy binding of a formal: an argument expression closed over the
    caller's frame, or an already-computed value."""

    __slots__ = ("expr", "frame", "value", "has_value")

    def __init__(self, expr=None, frame=None, value=None, has_value=False):
        self.expr = expr
        self.frame = frame
        self.value = value
        self.has_value = has_value

    @staticmethod
    def of_value(value) -> "_Thunk":
        return _Thunk(value=value, has_value=True)


class _Frame:
    __slots__ = ("id", "parent", "bindings")      # id: per Evaluator

    def __init__(self, id: int, parent: Optional["_Frame"],
                 bindings: Dict[str, _Thunk]):
        self.id = id
        self.parent = parent
        self.bindings = bindings

    def lookup(self, name: str) -> Optional[_Thunk]:
        frame: Optional[_Frame] = self
        while frame is not None:
            hit = frame.bindings.get(name)
            if hit is not None:
                return hit
            frame = frame.parent
        return None


_ROOT = _Frame(0, None, {})


class _Miss:
    __repr__ = lambda self: "<miss>"          # noqa: E731


_MISS = _Miss()


def _is_sentinel(v: Any) -> bool:
    return v is EOD or v is BOD


def _truthy(v: Any) -> bool:
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)):
        return v != 0
    raise EvaluationError(
        "a condition must be a truth value, got %s" % kind_of(v))


# The truth-value operators, with the left value that decides each on
# its own; the word forms arrive as their core templates over these.
_LOGIC = {"&&": False, "||": True}
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge}
_BITWISE = {"band": operator.and_, "bor": operator.or_, "bxor": operator.xor}
_CTX_OPS = {"difference": calculus.difference,
            "intersection": calculus.intersection,
            "union": calculus.union, "override": calculus.override}

# Nesting on one Python stack, in evaluations; past it, run resumes on a
# fresh stack.  An evaluation nests at most about four interpreter frames,
# so a stack fits the default recursion limit, 1000, with room to spare.
_STACK_BUDGET = 150

# The default bound on nested evaluation: how many expressions, demands
# included, may be under evaluation at once, across resumed stacks.
MAX_DEPTH = 100_000


class _Cut(Exception):
    """Unwinds to Evaluator.run with the evaluation to resume on a fresh
    stack, filled in by eval: its node, context, frame, pending demands
    and nesting.  Not a FlucidError, so that no handler inside
    evaluation takes it for a failure."""


class Evaluator:
    def __init__(self, analysis: Analysis, *,
                 threshold: float = DEFAULT_THRESHOLD,
                 horizon: Optional[int] = None,
                 trace: Optional[Callable[[str], None]] = None,
                 max_depth: int = MAX_DEPTH):
        check_type(analysis, Analysis, "Evaluator takes an Analysis")
        check_type(analysis.tree, N.Node,
                   "Evaluator takes an Analysis whose tree is a syntax tree")
        check_type(analysis.env, dict,
                   "Evaluator takes an Analysis whose env is a dict")
        self.analysis = analysis
        self.env = analysis.env
        self.threshold = threshold
        self.horizon = horizon
        self.trace = trace
        self.max_depth = max_depth
        self.warehouse: Dict[Any, Any] = {}
        self._chain: Dict[Any, None] = {}      # keys being computed, in order
        # id(node) -> (node, {(context, frame id): value or FlucidError})
        self._settled: Dict[int, Tuple[N.Node, Dict]] = {}     # see run
        self._base = self._depth = self._room = 0   # see run
        self._dims: Dict[str, TagSet] = {}
        self._machines: Dict[Any, era.StateMachine] = {}
        self._frames: Dict[Any, _Frame] = {}    # (site, parent id) -> frame

    # -- entry points ------------------------------------------------------

    def run(self, context: Optional[SimpleContext] = None) -> Any:
        """The program's head at context."""
        return self._resume(self.analysis.tree, context if context is not
                            None else EMPTY_CONTEXT, _ROOT)

    def _resume(self, node: N.Node, ctx: SimpleContext, frame: _Frame) -> Any:
        """node at ctx in frame, evaluated from outside eval.  Past
        _STACK_BUDGET nested evaluations on one stack, eval unwinds to the
        one pending at three quarters of that nesting; _resume evaluates
        it on a fresh stack, then retries the stack it was cut from, where
        eval finds its value or its failure.  A caller that leaves too
        little stack gets an error at node."""
        resumed = [(node, ctx, frame, {}, 0)]           # innermost last
        try:
            while True:
                node, at, frame, self._chain, self._base = resumed[-1]
                self._depth = 0
                self._room = min(_STACK_BUDGET, self.max_depth - self._base)
                try:
                    value = self.eval(node, at, frame)
                except _Cut as cut:
                    resumed.append(cut.args)    # not the unwound frames
                    continue
                except FlucidError as exc:
                    if len(resumed) == 1:
                        raise
                    value = exc
                resumed.pop()
                if not resumed:
                    return value
                self._settled.setdefault(id(node), (node, {}))[1][
                    at, frame.id] = value
        except RecursionError:
            err = EvaluationError("demand depth exceeded; the caller leaves "
                                  "too little stack for evaluation")
            span = resumed[0][0].span
            err.span = span if span.end else None       # as eval does
            raise err
        finally:
            self._settled.clear()

    # -- demands -----------------------------------------------------------

    def demand(self, name: str, ctx: SimpleContext, frame: _Frame) -> Any:
        key = (name, ctx, frame.id)
        hit = self.warehouse.get(key, _MISS)
        if hit is not _MISS:
            return hit
        chain = self._chain
        if key in chain:
            keys = list(chain)
            cycle = [k[0] for k in keys[keys.index(key):]] + [name]
            spans = [(n, self.env[n].node.span) for n in cycle[:-1]]
            raise EvaluationError("cyclic definition: %s (%s)" % (
                " -> ".join(cycle), ", ".join(
                    "%s at %d:%d" % (n, span.line, span.col)
                    for n, span in spans if span.end)))
        chain[key] = None
        try:
            value = self._define(name, ctx, frame)
        finally:
            del chain[key]
        self.warehouse[key] = value
        if self.trace is not None:
            self.trace("DEMAND %s @ %s -> %s"
                       % (name, _show(ctx), _show(value)))
        return value

    def _define(self, name: str, ctx: SimpleContext, frame: _Frame) -> Any:
        defn = self.env[name]
        node = defn.node
        if defn.kind == "var":
            return self.eval(node.expr, ctx, frame)
        if defn.kind == "obs":
            return self._observation_value(node.value, ctx, frame)
        if defn.kind == "os":
            return self._sequence_value(
                self.eval(node.value, ctx, frame), defn.source)
        if defn.kind == "es":
            return self._statement_value(
                self.eval(node.value, ctx, frame), defn.source)
        raise EvaluationError("cannot demand %s '%s'" % (defn.kind, name))

    # -- generic dispatch ----------------------------------------------------

    def eval(self, node: N.Node, ctx: SimpleContext, frame: _Frame) -> Any:
        if self._settled and id(node) in self._settled:
            got = self._settled[id(node)][1].get((ctx, frame.id), _MISS)
            if got is not _MISS:
                if isinstance(got, FlucidError):
                    raise got
                return got
        depth = self._depth + 1
        if depth > self._room:
            if self._base + depth <= self.max_depth:
                raise _Cut()                    # see run
            raise EvaluationError(
                "demand depth exceeded max_depth=%d: probably a stream that "
                "is unbounded in the direction being scanned, or a recursion "
                "that does not end" % self.max_depth)
        self._depth = depth
        try:
            return self._dispatch[type(node)](self, node, ctx, frame)
        except FlucidError as exc:
            # synthesized nodes carry Span(), an empty range: no position
            if exc.span is None and node.span.end:
                exc.span = node.span
            raise
        except _Cut as cut:
            if not cut.args and depth <= self._room * 3 // 4:
                cut.args = (node, ctx, frame, dict(self._chain),
                            self._base + depth - 1)
            raise
        finally:
            self._depth = depth - 1

    # -- literals ------------------------------------------------------------

    def _e_IntLit(self, node, ctx, frame):
        return node.value

    def _e_RealLit(self, node, ctx, frame):
        return node.value

    def _e_StringLit(self, node, ctx, frame):
        return node.value

    def _e_BoolLit(self, node, ctx, frame):
        return node.value

    def _e_SentinelLit(self, node, ctx, frame):
        return _SENTINELS[node.name]

    def _e_NoObsLit(self, node, ctx, frame):
        return no_observation()

    def _e_ZeroObs(self, node, ctx, frame):
        return zero_observation(self.eval(node.prop, ctx, frame))

    def _e_Described(self, node, ctx, frame):
        # the free-text annotation matters when an observation is built;
        # elsewhere the description is presentation only
        return self.eval(node.expr, ctx, frame)

    def _e_TupleLit(self, node, ctx, frame):
        return tuple(self.eval(item, ctx, frame) for item in node.items)

    def _e_BracketLit(self, node, ctx, frame):
        if node.entries and all(e.key is not None for e in node.entries):
            pairs = []
            for entry in node.entries:
                pairs.append((self._key_name(entry.key),
                              self.eval(entry.value, ctx, frame)))
            return SimpleContext(pairs)
        return tuple(self.eval(e.value, ctx, frame) for e in node.entries)

    def _key_name(self, key: N.Node) -> str:
        if isinstance(key, N.Ident):
            return key.name
        raise EvaluationError("a context key must be a dimension name")

    def _e_BraceLit(self, node, ctx, frame):
        values = [self.eval(item, ctx, frame) for item in node.items]
        if values and all(is_forensic(v) for v in values):
            if all(isinstance(v, Observation) for v in values):
                return ObservationSequence(tuple(values))
            return EvidentialStatement(
                tuple(self._sequence_value(v, None) for v in values))
        if values and all(isinstance(v, SimpleContext) for v in values):
            return ContextSet(values)
        return tuple(values)

    def _e_RangeLit(self, node, ctx, frame):
        lo = self.eval(node.lo, ctx, frame)
        hi = self.eval(node.hi, ctx, frame)
        step = self.eval(node.step, ctx, frame) if node.step else 1
        return TagSet.from_range(lo, hi, step)

    def _e_AngleTuple(self, node, ctx, frame):
        dim = node.dim.name if isinstance(node.dim, N.Ident) \
            else DEFAULT_DIMENSION
        idx = self._index(ctx.tag(dim, 0))
        if idx < 0:
            return BOD
        if idx >= len(node.items):
            return EOD
        return self.eval(node.items[idx], ctx, frame)

    # -- identifiers and navigation -------------------------------------------

    def _e_Ident(self, node, ctx, frame):
        bound = frame.lookup(node.name)
        if bound is not None:
            if bound.has_value:
                return bound.value
            return self.eval(bound.expr, ctx, bound.frame)
        defn = self.env.get(node.name)
        if defn is None:
            raise EvaluationError("'%s' has no value here" % node.name)
        if defn.kind in ("var", "obs", "os", "es"):
            return self.demand(node.name, ctx, frame)
        if defn.kind == "dim":
            return self._dim_tags(node.name)
        if defn.kind == "func":
            return FunctionHandle(name=defn.unique, params=defn.params)
        raise EvaluationError(
            "%s '%s' is used outside its function" % (defn.kind, defn.source))

    def _dim_tags(self, name: str) -> TagSet:
        if name not in self._dims:
            self._dims[name] = self.eval(self.env[name].node, EMPTY_CONTEXT,
                                         _ROOT)
        return self._dims[name]

    def _e_DimDecl(self, node, ctx, frame):
        """The tag set of the dimensions node declares."""
        if node.tags is not None:
            v = self.eval(node.tags, ctx, frame)
            return v if isinstance(v, TagSet) else TagSet(tuple(v))
        if node.value is None:
            return TagSet.naturals()
        v = self.eval(node.value, ctx, frame)
        if not isinstance(v, TagSet):
            raise EvaluationError("dimension '%s' must be defined by a tag "
                                  "set" % self.env[node.names[0]].source)
        return v

    def _e_HashExpr(self, node, ctx, frame):
        target = node.target
        if target is None:
            return ctx
        if isinstance(target, N.Ident):
            defn = self.env.get(target.name)
            if defn is None or defn.kind in ("dim", "dimformal"):
                bound = frame.lookup(target.name) if defn else None
                if bound is None:
                    return ctx.tag(target.name, 0)
        return _hash_view(self.eval(target, ctx, frame))

    def _e_AtExpr(self, node, ctx, frame):
        if node.dim is not None:
            idx = self.eval(node.right, ctx, frame)
            if _is_sentinel(idx):
                return idx
            return self.eval(node.left, ctx.with_pair(node.dim, idx), frame)
        place = self.eval(node.right, ctx, frame)
        if _is_sentinel(place):
            return place
        if isinstance(place, SimpleContext):
            return self.eval(node.left, calculus.override(ctx, place), frame)
        if isinstance(place, ContextSet):
            return self._at_each(node.left, ctx, frame, place)
        if isinstance(place, tuple) and place and \
                all(isinstance(m, SimpleContext) for m in place):
            return self._at_each(node.left, ctx, frame, ContextSet(place))
        if isinstance(place, Observation):
            if place.w < self.threshold:
                return EOD                     # not credible enough to enter
            inner = ctx
            if isinstance(place.property, SimpleContext):
                inner = calculus.override(inner, place.property)
            return self.eval(node.left,
                             inner.with_pair(CURRENT_OBSERVATION, place),
                             frame)
        if isinstance(place, ObservationSequence):
            return self.eval(node.left,
                             ctx.with_pair(CURRENT_SEQUENCE, place), frame)
        if isinstance(place, EvidentialStatement):
            return self.eval(node.left,
                             ctx.with_pair(CURRENT_STATEMENT, place), frame)
        if isinstance(place, int) and not isinstance(place, bool):
            return self.eval(node.left,
                             ctx.with_pair(DEFAULT_DIMENSION, place), frame)
        raise EvaluationError(
            "navigation target must be a context or forensic value, "
            "got %s" % kind_of(place))

    def _at_each(self, left, ctx, frame, members):
        return tuple(self.eval(left, calculus.override(ctx, m), frame)
                     for m in members)

    def _e_Dot(self, node, ctx, frame):
        base = self.eval(node.base, ctx, frame)
        if _is_sentinel(base):
            return base
        member = node.member
        if isinstance(member, N.HashExpr):
            return _hash_view(base)
        name = member.name
        if isinstance(base, Observation):
            if name in ("property", "min", "max", "w", "t"):
                return getattr(base, name)
            raise EvaluationError(
                "an observation has no member '%s'" % name)
        if isinstance(base, EvidentialStatement):
            for os in base.sequences:
                if os.name == name:
                    return os
            raise EvaluationError(
                "statement has no sequence named '%s'" % name)
        if isinstance(base, SimpleContext):
            if base.has(name):
                return base.tag(name)
            raise EvaluationError("context has no dimension '%s'" % name)
        if isinstance(base, tuple) and len(base) == 5:
            fields = ("property", "min", "max", "w", "t")
            if name in fields:
                return base[fields.index(name)]
        raise EvaluationError(
            "%s has no member '%s'" % (kind_of(base), name))

    # -- conditionals and operators -------------------------------------------

    def _e_IfExpr(self, node, ctx, frame):
        cond = self.eval(node.cond, ctx, frame)
        if _is_sentinel(cond):
            return cond
        if _truthy(cond):
            return self.eval(node.then_branch, ctx, frame)
        return self.eval(node.else_branch, ctx, frame)

    def _e_UnaryOp(self, node, ctx, frame):
        v = self.eval(node.operand, ctx, frame)
        if _is_sentinel(v):
            return v
        op = node.op
        if op in ("-", "neg", "+"):
            self._need_number(v, op)
            return v if op == "+" else -v
        if op in ("!", "not"):
            return not _truthy(v)
        if op == "~":
            if not isinstance(v, int) or isinstance(v, bool):
                raise EvaluationError("~ needs an integer")
            return ~v
        raise AssertionError(op)

    def _need_number(self, v, op):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise EvaluationError(
                "'%s' is not defined on %s" % (op, kind_of(v)))

    def _e_BinOp(self, node, ctx, frame):
        op = node.op
        a = self.eval(node.left, ctx, frame)
        if _is_sentinel(a):
            return a
        if op in _LOGIC and _truthy(a) is _LOGIC[op]:
            return _LOGIC[op]
        b = self.eval(node.right, ctx, frame)
        if _is_sentinel(b):
            return b
        if op in _LOGIC:
            return _truthy(b)
        return self._scalar_op(op, a, b)

    def _scalar_op(self, op, a, b):
        if op == "==":
            return a == b
        if op == "!=":
            return not (a == b)
        if op in _ORDER:
            try:
                return _ORDER[op](a, b)
            except TypeError:
                raise EvaluationError(
                    "'%s' is not defined between %s and %s"
                    % (op, kind_of(a), kind_of(b)))
        if op == "+" and isinstance(a, str) and isinstance(b, str):
            return a + b
        if op in _BITWISE:
            for v in (a, b):
                if isinstance(v, bool) or not isinstance(v, int):
                    raise EvaluationError(
                        "'%s' needs integers, got %s" % (op, kind_of(v)))
            return _BITWISE[op](a, b)
        if op in ("+", "-", "*", "/", "%"):
            self._need_number(a, op)
            self._need_number(b, op)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                if b == 0:
                    raise EvaluationError("division by zero")
                out = a / b
                if isinstance(a, int) and isinstance(b, int) \
                        and a % b == 0:
                    return a // b
                return out
            if b == 0:
                raise EvaluationError("modulo by zero")
            return a % b
        raise EvaluationError("operator '%s' is not defined" % op)

    def _e_CtxBin(self, node, ctx, frame):
        op = node.op
        if op in ("projection", "hiding"):
            target = self.eval(node.left, ctx, frame)
            return calculus.filter(op, target,
                                   self._selector(node.right, ctx, frame))
        a = self.eval(node.left, ctx, frame)
        b = self.eval(node.right, ctx, frame)
        if _is_sentinel(a):
            return a
        if _is_sentinel(b):
            return b
        if op in ("in", "isSubContext"):
            return calculus.membership(op, a, b)
        return _CTX_OPS[op](a, b)

    def _selector(self, node, ctx, frame):
        # {d, e} selects the dimensions themselves, not their tag sets
        if isinstance(node, N.BraceLit) and node.items and all(
                isinstance(i, N.Ident) and
                self.env.get(i.name) is not None and
                self.env[i.name].kind == "dim"
                for i in node.items):
            return tuple(i.name for i in node.items)
        return self.eval(node, ctx, frame)

    # -- stream operators ------------------------------------------------------

    def _elem(self, operand, ctx, frame, dim, index):
        if index < 0:
            return BOD
        return self.eval(operand, ctx.with_pair(dim, index), frame)

    def _index(self, v) -> int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise EvaluationError(
                "a stream index must be an integer, got %s" % kind_of(v))
        return v

    def _e_StreamUnary(self, node, ctx, frame):
        op = node.op
        dim = node.dim or DEFAULT_DIMENSION
        x = node.operand
        if op == "iseod":
            return self.eval(x, ctx, frame) is EOD
        if op == "isbod":
            return self.eval(x, ctx, frame) is BOD
        if op in ("neg", "not"):
            return self._e_UnaryOp(node, ctx, frame)
        if op == "first":
            return self._elem(x, ctx, frame, dim, 0)
        if op == "second":
            return self._elem(x, ctx, frame, dim, 1)
        cur = self._index(ctx.tag(dim, 0))
        if op == "next":
            return self._elem(x, ctx, frame, dim, cur + 1)
        if op == "prev":
            return self._elem(x, ctx, frame, dim, cur - 1)
        raise AssertionError(op)

    def _e_StreamBin(self, node, ctx, frame):
        if node.annotation is not None:
            return self._hypothesis(node, ctx, frame)
        op = node.op
        dim = node.dim or DEFAULT_DIMENSION
        x, y = node.left, node.right
        if op == "fby":
            return self._fby(x, y, ctx, frame, dim)
        if op == "pby":
            return self._pby(x, y, ctx, frame, dim)
        if op in _BITWISE:
            return self._e_BinOp(node, ctx, frame)
        if op == "combine":
            return self._combine(self.eval(x, ctx, frame),
                                 self.eval(y, ctx, frame))
        if op == "product":
            return self._product(self.eval(x, ctx, frame),
                                 self.eval(y, ctx, frame))
        raise AssertionError(op)

    def _fby(self, x, y, ctx, frame, dim):
        i = self._index(ctx.tag(dim, 0))
        if i < 0:
            return BOD
        if i == 0:
            lv = self.eval(x, ctx, frame)
            if is_forensic(lv):
                rv = self.eval(y, ctx, frame)
                return self._prepend(lv, rv)
            return lv
        return self.eval(y, ctx.with_pair(dim, i - 1), frame)

    def _prepend(self, lv, rv):
        head = self._sequence_value(lv, None).observations
        tail = self._sequence_value(rv, None).observations
        name = rv.name if isinstance(rv, ObservationSequence) else None
        return ObservationSequence(head + tail, name=name)

    def _pby(self, x, y, ctx, frame, dim):
        i = self._index(ctx.tag(dim, 0))
        yv = self._elem(y, ctx, frame, dim, i)
        if yv is not EOD:
            return yv
        before = self._elem(y, ctx, frame, dim, i - 1)
        if before is EOD:
            return EOD
        return self._elem(x, ctx, frame, dim, 0)

    # -- calls, functions, claims ----------------------------------------------

    def _e_Call(self, node, ctx, frame):
        func = node.func
        dim_nodes: Tuple[N.Node, ...] = ()
        if isinstance(func, N.Subscript):
            dim_nodes = func.indices
            func = func.base
        if isinstance(func, N.Ident):
            name = func.name
            if name not in self.env:
                if name in ("bel", "pl"):
                    return dstme.credibility(
                        name, self.eval(node.args[0], ctx, frame))
                if name == "combine":
                    return self._combine(
                        self.eval(node.args[0], ctx, frame),
                        self.eval(node.args[1], ctx, frame))
                if name == "product":
                    return self._product(
                        self.eval(node.args[0], ctx, frame),
                        self.eval(node.args[1], ctx, frame))
                raise EvaluationError("'%s' has no value here" % name)
            defn = self.env[name]
            if defn.kind == "func":
                return self._call(defn, dim_nodes, node.args, ctx, frame)
        handle = self.eval(func, ctx, frame)
        if isinstance(handle, FunctionHandle):
            return self._call(self.env[handle.name], dim_nodes, node.args,
                              ctx, frame)
        raise EvaluationError("%s is not callable" % kind_of(handle))

    def _call(self, defn, dim_nodes, arg_nodes, ctx, frame):
        if len(arg_nodes) != len(defn.params) or \
                len(dim_nodes) != len(defn.dim_params):
            raise EvaluationError(
                "'%s' takes [%d](%d) arguments" % (
                    defn.source, len(defn.dim_params), len(defn.params)))
        argv = None
        if len(defn.params) == 1 and defn.dim_params:
            # a claim when the argument here is a statement or sequence;
            # any other argument, or one that fails here, binds lazily
            try:
                argv = self.eval(arg_nodes[0], ctx, frame)
            except FlucidError:
                pass
        if isinstance(argv, (EvidentialStatement, ObservationSequence)):
            bindings = {defn.params[0]: _Thunk.of_value(argv)}
        else:
            bindings = {p: _Thunk(expr=a, frame=frame)
                        for p, a in zip(defn.params, arg_nodes)}
        for p, a in zip(defn.dim_params, dim_nodes):
            bindings[p] = _Thunk(expr=a, frame=frame)
        site = (defn.unique, id(arg_nodes), id(dim_nodes), ctx)
        value = self.eval(defn.node.body, ctx,
                          self._frame(site, frame, bindings))
        if isinstance(argv, (EvidentialStatement, ObservationSequence)):
            return self._claim(defn, dim_nodes, argv, value, ctx, frame)
        return value

    def _frame(self, site, parent: _Frame, bindings) -> _Frame:
        """The frame a call site makes under parent, the same one each
        time, so that a retry (see run) finds the demands stored in it."""
        return self._frames.setdefault((site, parent.id), _Frame(
            len(self._frames) + 1, parent, bindings))

    # claim evaluation

    def _claim(self, defn, dim_nodes, claim_value, body_value, ctx, frame):
        """Settle a claim against the machine (kept, and built before any
        pair is asked) of each other function with two formals, dimension
        formals and a body that names its events, by unique name, until
        one evaluates at every pair the claim asks.  A list of hypotheses
        from the claim's body is validated hop by hop against it; any
        other value leaves the claim to reconstruction."""
        es = self._statement_value(claim_value, None)
        dim_values = tuple(self.eval(d, ctx, frame) for d in dim_nodes)
        dims = tuple(repr(v) for v in dim_values)       # as _machines keys
        declared = isinstance(body_value, tuple) and body_value and all(
            isinstance(h, _Hypothesis) for h in body_value)
        errors: List[str] = []
        for cand in sorted((d for d in self.env.values() if d.kind == "func"
                            and len(d.params) == 2 and d.dim_params
                            and d.unique != defn.unique),
                           key=lambda d: d.unique):
            try:     # an EvaluationError here is the candidate's
                if (cand.unique, dims) not in self._machines:
                    events = _event_literals(cand.node.body,
                                             self.env[cand.params[0]])
                    if not events:
                        continue
                    self._machines[cand.unique, dims] = self._tabulate(
                        cand, events, dims, dim_values, frame)
                fsm = self._machines[cand.unique, dims]
                if not declared:
                    return era.check_claim(fsm, es, horizon=self.horizon)
                validated = [steps for steps in (
                    _validate_hypothesis(fsm, h) for h in body_value)
                    if steps is not None]
            except EvaluationError as exc:
                errors.append("%s: %s" % (cand.source, exc))
                continue
            return era.ClaimResult(
                consistent=bool(validated), explanations=tuple(
                    era.MSPR(((len(c),),), frozenset({c})) for c in validated),
                backtraces=tuple(validated), horizon_warning=False,
                horizon=max(map(len, validated), default=0), route="declared")
        raise EvaluationError(
            "no transition function could be tabulated into a state "
            "machine (%s)" % ("; ".join(errors) or "none declared"))

    def _tabulate(self, cand, events, dims, dim_values, frame):
        """The machine of transition function cand, whose psi evaluates
        cand at a pair the first time it is asked and keeps the successor
        read off the result, which must be a state; a failure, or a _Cut,
        keeps nothing, so that a retry asks again.  A pair asked outside
        eval is evaluated through _resume.  As in any `if` chain, the first
        guard that holds decides, and an end marker, or a result equal to
        the state, is no transition.  When the body names (label, counter)
        pairs, those are the states, each passed as a value, and the
        result at d = 0 must be one of them.  Otherwise a state is a pair
        of cells, passed as a two-element stream, and the successor is
        read off the result's first two elements."""
        body = cand.node.body
        labelled = {pair: _label_state(*pair) for pair in _named_pairs(body)}
        if labelled:
            states = labelled
        else:
            cells = list(dict.fromkeys(itertools.chain(
                *(ts.tags for ts in dim_values
                  if isinstance(ts, TagSet) and ts.tags),
                (lit for lit in _string_literals(body) if lit not in events))))
            states = {pair: _pair_state(pair)
                      for pair in itertools.product(cells, repeat=2)}
        pair_of = {source: pair for pair, source in states.items()}
        dim_bindings = {p: _Thunk.of_value(v)
                        for p, v in zip(cand.dim_params, dim_values)}
        at0 = SimpleContext({DEFAULT_DIMENSION: 0})
        at1 = SimpleContext({DEFAULT_DIMENSION: 1})

        def fire(event, source):
            pair = pair_of[source]
            bindings = dict(dim_bindings)
            bindings[cand.params[0]] = _Thunk.of_value(event)
            bindings[cand.params[1]] = _Thunk.of_value(pair) if labelled \
                else _Thunk(expr=N.AngleTuple(
                    N.Ident(DEFAULT_DIMENSION),
                    (N.StringLit(pair[0]), N.StringLit(pair[1]))),
                    frame=_ROOT)
            call_frame = self._frame(
                (cand.unique, dims, event, pair), frame, bindings)
            evaluate = self.eval if self._depth else self._resume
            try:
                got = evaluate(body, at0, call_frame)
                if not labelled:
                    got = (got, evaluate(body, at1, call_frame))
            except (ValidationError, era.ReconstructionError) as exc:
                raise EvaluationError(str(exc)) from None   # see _claim
            if _is_sentinel(got) if labelled else any(map(_is_sentinel, got)):
                return None
            target = labelled.get(got) if labelled else _pair_state(got)
            if target not in pair_of:
                raise EvaluationError(
                    "event %s in state %s gives %s, which is not one of the "
                    "%s" % (_show(event), source, _show(got),
                            "(label, counter) pairs the function names"
                            if labelled else "states its cells make"))
            return None if target == source else target

        targets = dict.fromkeys(itertools.product(events, pair_of), _MISS)

        def psi(pair):
            target = targets.get(pair)
            if target is _MISS:
                target = targets[pair] = fire(*pair)
            return target

        members: Dict[str, set] = {}     # a label's states, or a cell's
        for pair, state in states.items():
            if labelled or pair[0] == pair[1]:
                members.setdefault("(" + state.split(",", 1)[1] if labelled
                                   else pair[0], set()).add(state)
        return era.StateMachine(
            states=tuple(pair_of), events=tuple(events),
            psi=psi,
            properties={name: era.Property(name=name, states=frozenset(m))
                        for name, m in members.items()})

    def _hypothesis(self, node, ctx, frame) -> _Hypothesis:
        """An annotated hop: its left value with the annotation's event,
        followed by the run its right operand evaluates to, or by that
        value alone when it is not a hypothesis (the oldest element)."""
        head = (self.eval(node.left, ctx, frame),
                _annotation_event(node.annotation))
        rest = self.eval(node.right, ctx, frame)
        tail = rest.items if isinstance(rest, _Hypothesis) else ((rest, None),)
        return _Hypothesis((head,) + tail)

    # -- forensic operators ------------------------------------------------------

    def _combine(self, a, b):
        return calculus.union(lift(a), lift(b))

    def _product(self, a, b):
        a = self._sequence_value(a, None)
        b = self._sequence_value(b, None)
        return EvidentialStatement(tuple(
            ObservationSequence((oa, ob))
            for oa in a.observations for ob in b.observations))

    # -- remaining expression forms ------------------------------------------------

    def _e_Select(self, node, ctx, frame):
        idx = self.eval(node.index, ctx, frame)
        if _is_sentinel(idx):
            return idx
        dim = DEFAULT_DIMENSION
        if isinstance(node.source, N.AngleTuple) and \
                isinstance(node.source.dim, N.Ident):
            dim = node.source.dim.name
        return self.eval(node.source,
                         ctx.with_pair(dim, self._index(idx)), frame)

    def _e_BoxExpr(self, node, ctx, frame):
        names = []
        for d in node.dims:
            if not isinstance(d, N.Ident):
                raise EvaluationError("Box needs dimension names")
            names.append(d.name)
        axes = []
        for name in names:
            tags = self._dim_tags(name) if name in self.env else None
            if tags is None or not tags.is_finite():
                raise EvaluationError(
                    "Box needs finite declared dimensions; '%s' is not" % name)
            axes.append(tags.tags)
        members = []
        for combo in itertools.product(*axes):
            inner = ctx
            for name, tag in zip(names, combo):
                inner = inner.with_pair(name, tag)
            ok = self.eval(node.predicate, inner, frame)
            if not _is_sentinel(ok) and _truthy(ok):
                members.append(SimpleContext(zip(names, combo)))
        return ContextSet(members)

    def _e_Subscript(self, node, ctx, frame):
        raise EvaluationError(
            "a dimensional subscript is only meaningful in a call")

    def _e_WhereExpr(self, node, ctx, frame):
        # declarations were flattened into the environment by analysis
        return self.eval(node.body, ctx, frame)

    # -- forensic value coercions -----------------------------------------------

    def _observation_value(self, value_node, ctx, frame):
        if value_node is None:
            return no_observation()
        if isinstance(value_node, N.TupleLit):
            parts = []
            description = None
            for pos, item in enumerate(value_node.items):
                if pos == 0 and isinstance(item, N.Described):
                    description = item.text
                    parts.append(self.eval(item.expr, ctx, frame))
                else:
                    parts.append(self.eval(item, ctx, frame))
            if len(parts) > 5:
                raise EvaluationError(
                    "an observation takes at most five components")
            return make_observation(*parts, description=description)
        v = self.eval(value_node, ctx, frame)
        if isinstance(v, Observation):
            return v
        if isinstance(v, tuple) and 1 <= len(v) <= 5:
            return make_observation(*v)
        return make_observation(v)

    def _sequence_value(self, v, name) -> ObservationSequence:
        v = lift(v)
        if isinstance(v, Observation):
            return ObservationSequence((v,), name=name)
        if isinstance(v, EvidentialStatement):
            raise EvaluationError(
                "cannot use %s as an observation sequence" % kind_of(v))
        if name is not None and v.name != name:
            return ObservationSequence(v.observations, name=name)
        return v

    def _statement_value(self, v, name) -> EvidentialStatement:
        if isinstance(v, tuple):
            v = EvidentialStatement(
                tuple(self._sequence_value(m, None) for m in v))
        elif not isinstance(v, EvidentialStatement):
            v = EvidentialStatement((self._sequence_value(v, None),))
        if name is not None and v.name != name:
            return EvidentialStatement(v.sequences, name=name)
        return v

    # dispatch table (filled in below)
    _dispatch: Dict[type, Callable] = {}


Evaluator._dispatch = {
    getattr(N, attr): getattr(Evaluator, "_e_" + attr)
    for attr in dir(N)
    if isinstance(getattr(N, attr), type)
    and issubclass(getattr(N, attr), N.Node)
    and hasattr(Evaluator, "_e_" + attr)
}


# --- helpers shared with the claim machinery ---------------------------------


def _hash_view(v: Any) -> Any:
    if isinstance(v, EvidentialStatement):
        return v.sequences
    if isinstance(v, ObservationSequence):
        return v.observations
    if isinstance(v, Observation):
        return (v.property, v.min, v.max, v.w, v.t)
    return v


def _show(v: Any) -> str:
    """v's source form, or the name of its kind when it has none."""
    try:
        return to_source(v)
    except ValidationError:
        return "<%s>" % kind_of(v)


def _annotation_event(annotation: N.BracketLit) -> str:
    event = None
    for entry in annotation.entries:
        if entry.key is not None and isinstance(entry.value, N.StringLit):
            event = entry.value.value
    if event is None:
        raise EvaluationError("a hop annotation must name its event")
    return event


def _pair_state(pair: Sequence[Any]) -> str:
    return "(%s,%s)" % (pair[0], pair[1])


def _label_state(label: str, counter: int) -> str:
    inner = label[1:-1] if label.startswith("(") and label.endswith(")") \
        else label
    return "(%d,%s)" % (counter, inner)


def _event_literals(body: N.Node, formal: Definition) -> List[str]:
    """String literals compared for equality against the event formal.
    The events are read off these comparisons, so the formal may occur
    nowhere else: an event another use tells apart would go unseen."""
    found = {id(a): b.value for n in N.walk(body)
             if isinstance(n, N.BinOp) and n.op == "=="
             for a, b in ((n.left, n.right), (n.right, n.left))
             if isinstance(a, N.Ident) and a.name == formal.unique
             and isinstance(b, N.StringLit)}
    for n in N.walk(body):
        if isinstance(n, N.Ident) and n.name == formal.unique \
                and id(n) not in found:
            raise EvaluationError(
                "the event formal '%s' at %d:%d must be one side of == with "
                "a string literal" % (formal.source, n.span.line, n.span.col))
    return list(dict.fromkeys(found.values()))


def _string_literals(body: N.Node) -> List[str]:
    return list(dict.fromkeys(
        n.value for n in N.walk(body) if isinstance(n, N.StringLit)))


def _named_pairs(body: N.Node) -> List[Tuple[str, int]]:
    """(label, counter) pair literals, in the order the body names them."""
    return list(dict.fromkeys(
        (n.items[0].value, n.items[1].value) for n in N.walk(body)
        if isinstance(n, N.TupleLit) and len(n.items) == 2
        and isinstance(n.items[0], N.StringLit)
        and isinstance(n.items[1], N.IntLit)))


def _validate_hypothesis(fsm: era.StateMachine,
                         hyp: _Hypothesis) -> Optional[era.Computation]:
    """Check a declared run against the tabulated transitions.

    Items are newest first; each item's event links its (older)
    successor item to it.  The oldest item names the starting state;
    intermediate items name states; the newest is the observation whose
    property must hold in the state the final event reaches.  Steps come
    back oldest first in the engine's convention: (event, the state the
    event occurs in), closed by a wildcard step in the terminal state,
    so the states of the steps spell out the whole run.
    """
    items = hyp.items               # two or more: _hypothesis makes a hop
    state = _hypothesis_state(fsm, items[-1][0])
    if state is None:
        return None
    steps: List[Tuple[str, str]] = []
    for pos in range(len(items) - 2, -1, -1):
        value, event = items[pos]
        reached = fsm.target(event, state)
        if reached is None:
            return None
        steps.append((event, state))
        if pos == 0 and isinstance(value, Observation):
            prop = era.resolve_property(fsm, value.property)
            if not prop.step_ok(era.WILDCARD, reached):
                return None
        elif _hypothesis_state(fsm, value) != reached:
            return None
        state = reached
    steps.append((era.WILDCARD, state))
    return tuple(steps)


def _hypothesis_state(fsm: era.StateMachine, value) -> Optional[str]:
    if isinstance(value, tuple) and len(value) == 2 and \
            isinstance(value[1], int):
        name = _label_state(str(value[0]), value[1])
    elif isinstance(value, str):
        name = value
    else:
        return None
    return name if name in fsm.states else None


# --- module-level convenience --------------------------------------------------


def evaluate(program, *, context: Optional[SimpleContext] = None,
             threshold: float = DEFAULT_THRESHOLD,
             horizon: Optional[int] = None,
             trace: Optional[Callable[[str], None]] = None,
             max_depth: int = MAX_DEPTH) -> Any:
    """Parse/analyze as needed, then evaluate the program's head."""
    check_type(program, (str, N.Node, Analysis),
               "evaluate takes text, a syntax tree or an Analysis")
    if isinstance(program, str):
        program = parse(program)
    if isinstance(program, N.Node):
        program = analyze(program)
    ev = Evaluator(program, threshold=threshold, horizon=horizon,
                   trace=trace, max_depth=max_depth)
    return ev.run(context)
