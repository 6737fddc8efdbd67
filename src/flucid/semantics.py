"""Static analysis and the core-reduction rewriter.

analyze() validates declarations and references, gives every declared
name a program-wide unique identity, and collects machine-readable
diagnostics instead of failing on the first problem.  The evaluator
consumes the flattened definition environment produced here, so scope
handling (shadowing, function formals, mutual recursion inside a where
clause) is resolved once, in this pass.

rewrite_to_core() reduces the derived stream operators to context
navigation, index queries, and conditionals.  It is a pure syntax
transform used to cross-check the evaluator's direct operator
implementations; evaluation itself does not depend on it.

promote_generic() expands observations that admit a variable number of
steps into the finite family of fixed-width alternatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .values import (
    EvidentialStatement,
    FlucidError,
    Observation,
    ObservationSequence,
    PLUS_INF,
)
from . import era
from .syntax import nodes as N
from .syntax.lexer import Span
from .syntax.nodes import DUMMY_SPAN

# Callable names that exist in every scope.
BUILTINS = ("bel", "pl", "combine", "product")
_BUILTIN_ARITY = {"bel": 1, "pl": 1, "combine": 2, "product": 2}

# Stream operators with no defined meaning; they parse and analyze but
# the evaluator rejects them, and the rewriter leaves them alone.
UNDEFINED_OPS = frozenset(["nfby", "npby", "nnext", "nprev"])


@dataclass(frozen=True)
class ErrorRecord:
    severity: str               # "error" | "warning"
    code: str
    message: str
    span: Span

    def to_dict(self) -> dict:
        return {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
            "line": self.span.line,
            "col": self.span.col,
        }

    def render(self) -> str:
        return "%s:%d:%d: %s: %s" % (
            self.severity, self.span.line, self.span.col,
            self.code, self.message)


class FlucidSemanticError(FlucidError):
    def __init__(self, records):
        self.records: Tuple[ErrorRecord, ...] = tuple(records)
        first = self.records[0] if self.records else None
        head = first.render() if first else "analysis failed"
        extra = len(self.records) - 1
        if extra > 0:
            head += " (+%d more)" % extra
        super().__init__(head)


@dataclass(frozen=True)
class Definition:
    """One named thing, under its program-wide unique name."""
    unique: str
    source: str
    kind: str                   # dim var obs os es func formal dimformal
    node: Optional[N.Node]      # renamed declaration, None for formals
    flags: Tuple[str, ...] = ()
    owner: Optional[str] = None         # formals: the owning function
    dim_params: Tuple[str, ...] = ()    # funcs: renamed formal names
    params: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Analysis:
    tree: N.Node
    env: Dict[str, Definition]
    errors: Tuple[ErrorRecord, ...]     # warnings that did not abort


class _Scope:
    __slots__ = ("parent", "names")

    def __init__(self, parent: Optional["_Scope"]):
        self.parent = parent
        self.names: Dict[str, Tuple[str, str]] = {}  # source -> (unique, kind)

    def lookup(self, name: str) -> Optional[Tuple[str, str]]:
        scope: Optional[_Scope] = self
        while scope is not None:
            hit = scope.names.get(name)
            if hit is not None:
                return hit
            scope = scope.parent
        return None

    def lookup_dim(self, name: str) -> Optional[str]:
        """Resolve in the dimension namespace only.

        Context keys and operator suffixes name dimensions; a variable
        with the same name does not shadow them.
        """
        scope: Optional[_Scope] = self
        while scope is not None:
            hit = scope.names.get(name)
            if hit is not None and hit[1] in ("dim", "dimformal"):
                return hit[0]
            scope = scope.parent
        return None


_DECL_KINDS = {
    N.ObsDecl: "obs",
    N.OsDecl: "os",
    N.EsDecl: "es",
    N.VarDecl: "var",
    N.FuncDecl: "func",
}


class _Analyzer:
    def __init__(self) -> None:
        self.env: Dict[str, Definition] = {}
        self.records: List[ErrorRecord] = []
        self._counts: Dict[str, int] = {}

    # -- bookkeeping -----------------------------------------------------

    def error(self, code: str, message: str, span: Span) -> None:
        self.records.append(ErrorRecord("error", code, message, span))

    def fresh(self, source: str) -> str:
        n = self._counts.get(source, 0) + 1
        self._counts[source] = n
        return source if n == 1 else "%s#%d" % (source, n)

    def bind(self, scope: _Scope, source: str, kind: str,
             span: Span) -> str:
        if source in scope.names:
            self.error("duplicate-declaration",
                       "'%s' is declared twice in the same scope" % source,
                       span)
            return scope.names[source][0]
        unique = self.fresh(source)
        scope.names[source] = (unique, kind)
        return unique

    # -- expression walk ---------------------------------------------------

    def expr(self, node: N.Node, scope: _Scope) -> N.Node:
        method = getattr(self, "_x_" + type(node).__name__, None)
        if method is None:
            raise AssertionError("no analyzer case for %r" % type(node))
        return method(node, scope)

    def _x_Ident(self, node: N.Ident, scope: _Scope) -> N.Node:
        hit = scope.lookup(node.name)
        if hit is None:
            self.error("undefined-identifier",
                       "'%s' is not declared" % node.name, node.span)
            return node
        return N.Ident(hit[0], span=node.span)

    def _dim_name(self, name: Optional[str], scope: _Scope) -> Optional[str]:
        # Operator suffixes and context keys may name dimensions that
        # were never declared; those stay under their source name.
        if name is None:
            return None
        return scope.lookup_dim(name) or name

    def _x_IntLit(self, node, scope):
        return node

    _x_RealLit = _x_IntLit
    _x_StringLit = _x_IntLit
    _x_BoolLit = _x_IntLit
    _x_SentinelLit = _x_IntLit
    _x_NoObsLit = _x_IntLit

    def _x_ZeroObs(self, node: N.ZeroObs, scope: _Scope) -> N.Node:
        return N.ZeroObs(self.expr(node.prop, scope), span=node.span)

    def _x_Described(self, node: N.Described, scope: _Scope) -> N.Node:
        return N.Described(self.expr(node.expr, scope), node.text,
                           span=node.span)

    def _x_TupleLit(self, node: N.TupleLit, scope: _Scope) -> N.Node:
        return N.TupleLit(tuple(self.expr(i, scope) for i in node.items),
                          span=node.span)

    def _x_BracketEntry(self, node: N.BracketEntry,
                        scope: _Scope) -> N.Node:
        key = node.key
        if isinstance(key, N.Ident):
            key = N.Ident(self._dim_name(key.name, scope), span=key.span)
        elif key is not None:
            key = self.expr(key, scope)
        return N.BracketEntry(key, self.expr(node.value, scope),
                              span=node.span)

    def _x_BracketLit(self, node: N.BracketLit, scope: _Scope) -> N.Node:
        return N.BracketLit(
            tuple(self._x_BracketEntry(e, scope) for e in node.entries),
            span=node.span)

    def _x_BraceLit(self, node: N.BraceLit, scope: _Scope) -> N.Node:
        return N.BraceLit(tuple(self.expr(i, scope) for i in node.items),
                          span=node.span)

    def _x_RangeLit(self, node: N.RangeLit, scope: _Scope) -> N.Node:
        step = self.expr(node.step, scope) if node.step is not None else None
        return N.RangeLit(self.expr(node.lo, scope),
                          self.expr(node.hi, scope), step, span=node.span)

    def _x_AngleTuple(self, node: N.AngleTuple, scope: _Scope) -> N.Node:
        dim = node.dim
        if isinstance(dim, N.Ident):
            dim = N.Ident(self._dim_name(dim.name, scope), span=dim.span)
        else:
            dim = self.expr(dim, scope)
        return N.AngleTuple(dim,
                            tuple(self.expr(i, scope) for i in node.items),
                            span=node.span)

    def _x_IfExpr(self, node: N.IfExpr, scope: _Scope) -> N.Node:
        return N.IfExpr(self.expr(node.cond, scope),
                        self.expr(node.then_branch, scope),
                        self.expr(node.else_branch, scope), span=node.span)

    def _x_HashExpr(self, node: N.HashExpr, scope: _Scope) -> N.Node:
        target = node.target
        if isinstance(target, N.Ident):
            hit = scope.lookup(target.name)
            if hit is not None:
                target = N.Ident(hit[0], span=target.span)
            # otherwise: a query against an implicit dimension
        elif target is not None:
            target = self.expr(target, scope)
        return N.HashExpr(target, span=node.span)

    def _x_AtExpr(self, node: N.AtExpr, scope: _Scope) -> N.Node:
        return N.AtExpr(self.expr(node.left, scope),
                        self.expr(node.right, scope),
                        self._dim_name(node.dim, scope), span=node.span)

    def _x_UnaryOp(self, node: N.UnaryOp, scope: _Scope) -> N.Node:
        return N.UnaryOp(node.op, self.expr(node.operand, scope),
                         span=node.span)

    def _x_StreamUnary(self, node: N.StreamUnary, scope: _Scope) -> N.Node:
        return N.StreamUnary(node.op, self.expr(node.operand, scope),
                             self._dim_name(node.dim, scope), span=node.span)

    def _x_BinOp(self, node: N.BinOp, scope: _Scope) -> N.Node:
        return N.BinOp(node.op, self.expr(node.left, scope),
                       self.expr(node.right, scope), span=node.span)

    def _x_StreamBin(self, node: N.StreamBin, scope: _Scope) -> N.Node:
        # Hop annotations are provenance notes, consumed verbatim by the
        # claim validator; their contents are not name-resolved.
        return N.StreamBin(node.op, self.expr(node.left, scope),
                           self.expr(node.right, scope),
                           self._dim_name(node.dim, scope), node.annotation,
                           span=node.span)

    def _x_CtxBin(self, node: N.CtxBin, scope: _Scope) -> N.Node:
        return N.CtxBin(node.op, self.expr(node.left, scope),
                        self.expr(node.right, scope), span=node.span)

    def _x_Call(self, node: N.Call, scope: _Scope) -> N.Node:
        func = self.expr(node.func, scope)
        args = tuple(self.expr(a, scope) for a in node.args)
        self._check_arity(func, len(args), node.span)
        return N.Call(func, args, span=node.span)

    def _check_arity(self, func: N.Node, nargs: int, span: Span) -> None:
        dim_args = 0
        if isinstance(func, N.Subscript):
            dim_args = len(func.indices)
            func = func.base
        if not isinstance(func, N.Ident):
            return
        expected = _BUILTIN_ARITY.get(func.name)
        if expected is not None and dim_args == 0:
            if nargs != expected:
                self.error("arity-mismatch",
                           "'%s' takes %d argument(s), got %d"
                           % (func.name, expected, nargs), span)
            return
        defn = self.env.get(func.name)
        if defn is None or defn.kind != "func":
            return
        if nargs != len(defn.params) or dim_args != len(defn.dim_params):
            self.error("arity-mismatch",
                       "'%s' takes [%d](%d) arguments, got [%d](%d)"
                       % (defn.source, len(defn.dim_params),
                          len(defn.params), dim_args, nargs), span)

    def _x_Subscript(self, node: N.Subscript, scope: _Scope) -> N.Node:
        return N.Subscript(self.expr(node.base, scope),
                           tuple(self.expr(i, scope) for i in node.indices),
                           span=node.span)

    def _x_Dot(self, node: N.Dot, scope: _Scope) -> N.Node:
        # The member is a navigation step resolved against the value.
        return N.Dot(self.expr(node.base, scope), node.member,
                     span=node.span)

    def _x_Select(self, node: N.Select, scope: _Scope) -> N.Node:
        return N.Select(self.expr(node.index, scope),
                        self.expr(node.source, scope), span=node.span)

    def _x_BoxExpr(self, node: N.BoxExpr, scope: _Scope) -> N.Node:
        dims = []
        for d in node.dims:
            if isinstance(d, N.Ident):
                dims.append(N.Ident(self._dim_name(d.name, scope),
                                    span=d.span))
            else:
                dims.append(self.expr(d, scope))
        return N.BoxExpr(tuple(dims), self.expr(node.predicate, scope),
                         span=node.span)

    def _x_Embed(self, node: N.Embed, scope: _Scope) -> N.Node:
        return N.Embed(tuple(self.expr(a, scope) for a in node.args),
                       span=node.span)

    # -- where clauses and declarations ------------------------------------

    def _x_WhereExpr(self, node: N.WhereExpr, scope: _Scope) -> N.Node:
        inner = _Scope(scope)
        uniques: Dict[int, object] = {}
        for idx, decl in enumerate(node.decls):
            if isinstance(decl, N.DimDecl):
                uniques[idx] = tuple(
                    self.bind(inner, name, "dim", decl.span)
                    for name in decl.names)
            elif isinstance(decl, N.MemberAssign):
                self.error(
                    "unsupported-member-assignment",
                    "assignment to a member is not a supported "
                    "declaration form", decl.span)
            else:
                kind = _DECL_KINDS[type(decl)]
                uniques[idx] = self.bind(inner, decl.name, kind, decl.span)

        new_decls = []
        for idx, decl in enumerate(node.decls):
            renamed = self._declaration(decl, uniques.get(idx), inner)
            if renamed is not None:
                new_decls.append(renamed)
        body = self.expr(node.body, inner)
        return N.WhereExpr(body, tuple(new_decls), span=node.span)

    def _declaration(self, decl: N.Node, unique, scope: _Scope):
        if isinstance(decl, N.DimDecl):
            tags = self.expr(decl.tags, scope) if decl.tags is not None \
                else None
            value = self.expr(decl.value, scope) if decl.value is not None \
                else None
            renamed = N.DimDecl(tuple(unique), decl.flags, tags, value,
                                span=decl.span)
            for pos, name in enumerate(unique):
                self.env[name] = Definition(
                    name, decl.names[pos], "dim", renamed, decl.flags)
            return renamed
        if isinstance(decl, N.MemberAssign):
            return None
        if isinstance(decl, N.FuncDecl):
            return self._function(decl, unique, scope)

        kind = _DECL_KINDS[type(decl)]
        value = decl.value if not isinstance(decl, N.VarDecl) else decl.expr
        renamed_value = self.expr(value, scope) if value is not None else None
        if isinstance(decl, N.ObsDecl):
            self._check_observation(renamed_value)
            renamed = N.ObsDecl(unique, renamed_value, span=decl.span)
        elif isinstance(decl, N.OsDecl):
            renamed = N.OsDecl(unique, decl.flags, renamed_value,
                               span=decl.span)
        elif isinstance(decl, N.EsDecl):
            renamed = N.EsDecl(unique, decl.flags, renamed_value,
                               span=decl.span)
        else:
            renamed = N.VarDecl(unique, renamed_value, span=decl.span)
        flags = getattr(decl, "flags", ())
        self.env[unique] = Definition(unique, decl.name, kind, renamed,
                                      tuple(flags))
        return renamed

    def _check_observation(self, value: Optional[N.Node]) -> None:
        if isinstance(value, N.TupleLit) and len(value.items) > 5:
            self.error("observation-arity",
                       "an observation takes at most five components "
                       "(property, min, max, weight, timestamp)",
                       value.span)

    def _function(self, decl: N.FuncDecl, unique: str,
                  scope: _Scope) -> N.Node:
        fn_scope = _Scope(scope)
        dim_params = tuple(self.bind(fn_scope, p, "dimformal", decl.span)
                           for p in decl.dim_params)
        params = tuple(self.bind(fn_scope, p, "formal", decl.span)
                       for p in decl.params)
        body = self.expr(decl.body, fn_scope)
        renamed = N.FuncDecl(unique, dim_params, params, body,
                             span=decl.span)
        self.env[unique] = Definition(unique, decl.name, "func", renamed,
                                      dim_params=dim_params, params=params)
        for src, uniq in zip(decl.dim_params, dim_params):
            self.env[uniq] = Definition(uniq, src, "dimformal", None,
                                        owner=unique)
        for src, uniq in zip(decl.params, params):
            self.env[uniq] = Definition(uniq, src, "formal", None,
                                        owner=unique)
        return renamed


def analyze(tree: N.Node) -> Analysis:
    """Resolve names and collect diagnostics for a whole program.

    Deterministic and idempotent: analyzing an already-renamed tree is
    the identity.  Raises FlucidSemanticError when any error-severity
    record was produced; warnings ride along on the result.
    """
    analyzer = _Analyzer()
    root = _Scope(None)
    for name in BUILTINS:
        root.names[name] = (name, "builtin")
    renamed = analyzer.expr(tree, root)
    errors = [r for r in analyzer.records if r.severity == "error"]
    if errors:
        raise FlucidSemanticError(analyzer.records)
    return Analysis(renamed, analyzer.env, tuple(analyzer.records))


# --- generic-width expansion -------------------------------------------------


def promote_generic(value, horizon: Optional[int] = None):
    """Expand zero-or-more observation widths into fixed alternatives.

    An observation (P, min, max) with max > 0 stands for any width in
    min..min+max; the promotion enumerates them.  Sequences expand to
    the cross product of their members' alternatives, statements to the
    cross product of their sequences'.  Unbounded widths need an
    explicit horizon.
    """
    if isinstance(value, Observation):
        seqs = era.expand_generic(
            ObservationSequence((value,), name=None),
            _pick_horizon((value,), horizon))
        return tuple(seq.observations[0] for seq in seqs)
    if isinstance(value, ObservationSequence):
        return era.expand_generic(
            value, _pick_horizon(value.observations, horizon))
    if isinstance(value, EvidentialStatement):
        per_seq = [promote_generic(seq, horizon)
                   for seq in value.sequences]
        return tuple(
            EvidentialStatement(combo, name=value.name)
            for combo in itertools.product(*per_seq))
    raise TypeError("promote_generic needs an observation, a sequence, "
                    "or a statement, not %r" % type(value).__name__)


def _pick_horizon(observations, horizon: Optional[int]) -> int:
    if horizon is not None:
        return horizon
    total = 0
    for obs in observations:
        if obs.max is PLUS_INF:
            raise FlucidError(
                "unbounded observation width needs an explicit horizon")
        total += int(obs.min) + int(obs.max)
    return max(total, 1)


# --- reduction of derived operators to the core ------------------------------

DEFAULT_DIMENSION = "d"

# Derived operators the rewriter eliminates.  Bitwise words, the
# forensic operators, and the four undefined n-ops stay as they are;
# iseod/isbod are themselves core.
REWRITTEN_UNARY = frozenset(
    ["first", "next", "prev", "second", "prelast", "last", "neg", "not"])
REWRITTEN_BIN = frozenset("""
    fby pby wvr rwvr nwvr nrwvr asa nasa ala nala
    upon rupon nupon nrupon and or xor nand nor nxor
""".split())


class _Names:
    """Fresh-name supply that avoids every identifier in the tree."""

    def __init__(self, tree: N.Node):
        self.used = set()
        _collect_names(tree, self.used)
        self.counter = 0

    def fresh(self, base: str) -> str:
        while True:
            self.counter += 1
            name = "_%s%d" % (base, self.counter)
            if name not in self.used:
                self.used.add(name)
                return name


def _collect_names(node, used) -> None:
    if isinstance(node, N.Ident):
        used.add(node.name)
    if isinstance(node, N.Node):
        for value in vars(node).values():
            _collect_names(value, used)
    elif type(node) is tuple:     # not a Span, which has no children
        for item in node:
            _collect_names(item, used)


def _ident(name: str) -> N.Ident:
    return N.Ident(name)


def _int(value: int) -> N.IntLit:
    return N.IntLit(value)


def _hash(dim: str) -> N.HashExpr:
    return N.HashExpr(_ident(dim))


def _at(expr: N.Node, index: N.Node, dim: str) -> N.AtExpr:
    return N.AtExpr(expr, index, dim)


def _add(a: N.Node, b: N.Node) -> N.BinOp:
    return N.BinOp("+", a, b)


def _sub(a: N.Node, b: N.Node) -> N.BinOp:
    return N.BinOp("-", a, b)


def _eq(a: N.Node, b: N.Node) -> N.BinOp:
    return N.BinOp("==", a, b)


def _iseod(expr: N.Node) -> N.StreamUnary:
    return N.StreamUnary("iseod", expr)


def _if(cond: N.Node, then_branch: N.Node, else_branch: N.Node) -> N.IfExpr:
    return N.IfExpr(cond, then_branch, else_branch)


def _where(body: N.Node, decls) -> N.WhereExpr:
    return N.WhereExpr(body, tuple(decls))


def _var(name: str, expr: N.Node) -> N.VarDecl:
    return N.VarDecl(name, expr)


def _truth_table(cond: N.Node) -> N.IfExpr:
    return _if(cond, _int(1), _int(0))


def rewrite_to_core(tree: N.Node) -> N.Node:
    """Eliminate derived stream operators from a syntax tree.

    The result evaluates identically but uses only navigation (@),
    index queries (#), conditionals, where clauses, the end-of-stream
    predicates, and plain arithmetic.  Deterministic, and the identity
    on trees that are already core.
    """
    names = _Names(tree)
    return _rw(tree, names)


def _rw(node, names: _Names):
    if not isinstance(node, N.Node):
        if isinstance(node, tuple):
            return tuple(_rw(item, names) for item in node)
        return node
    changes = {}
    for key, value in vars(node).items():
        if key == "span":
            continue
        new = _rw(value, names)
        if new is not value:
            changes[key] = new
    if changes:
        fields = dict(vars(node))
        fields.update(changes)
        node = type(node)(**fields)

    if isinstance(node, N.StreamUnary) and node.op in REWRITTEN_UNARY:
        return _expand_unary(node, names)
    if (isinstance(node, N.StreamBin) and node.op in REWRITTEN_BIN
            and node.annotation is None):
        # Annotated hops carry evidence structure, never stream flow.
        return _expand_bin(node, names)
    return node


def _expand_unary(node: N.StreamUnary, names: _Names):
    dim = node.dim or DEFAULT_DIMENSION
    x = node.operand
    if node.op == "first":
        return _at(x, _int(0), dim)
    if node.op == "next":
        return _at(x, _add(_hash(dim), _int(1)), dim)
    if node.op == "prev":
        return _at(x, _sub(_hash(dim), _int(1)), dim)
    if node.op == "neg":
        return N.UnaryOp("-", x, span=node.span)
    if node.op == "not":
        return N.UnaryOp("!", x, span=node.span)
    if node.op == "second":
        return _rw(N.StreamUnary(
            "first", N.StreamUnary("next", x, dim), dim), names)
    if node.op == "prelast":
        xn = names.fresh("x")
        body = N.StreamUnary(
            "first",
            N.StreamUnary("next", _reverse(_ident(xn), dim, names), dim),
            dim)
        return _rw(_where(body, [_var(xn, x)]), names)
    if node.op == "last":
        xn = names.fresh("x")
        body = N.StreamUnary(
            "first",
            N.StreamBin("wvr", _ident(xn),
                        _iseod(N.StreamUnary("next", _ident(xn), dim)),
                        dim),
            dim)
        return _rw(_where(body, [_var(xn, x)]), names)
    raise AssertionError(node.op)


def _expand_bin(node: N.StreamBin, names: _Names):
    dim = node.dim or DEFAULT_DIMENSION
    op, x, y = node.op, node.left, node.right

    if op == "fby":
        return _if(_eq(_hash(dim), _int(0)), x,
                   _at(y, _sub(_hash(dim), _int(1)), dim))
    if op == "pby":
        yn = names.fresh("y")
        body = _if(
            _iseod(_ident(yn)),
            _if(_iseod(N.StreamUnary("prev", _ident(yn), dim)),
                N.SentinelLit("eod"),
                N.StreamUnary("first", x, dim)),
            _ident(yn))
        return _rw(_where(body, [_var(yn, y)]), names)

    if op in ("wvr", "nwvr"):
        return _rw(_filter_template(x, y, dim, names, op == "nwvr"), names)
    if op in ("upon", "nupon"):
        return _rw(_advance_template(x, y, dim, names, op == "nupon"),
                   names)
    if op in ("asa", "nasa"):
        inner = N.StreamBin("wvr" if op == "asa" else "nwvr", x, y, dim)
        return _rw(N.StreamUnary("first", inner, dim), names)
    if op in ("ala", "nala"):
        inner = N.StreamBin("wvr" if op == "ala" else "nwvr", x, y, dim)
        return _rw(N.StreamUnary("last", inner, dim), names)
    if op in ("rwvr", "nrwvr", "rupon", "nrupon"):
        return _rw(_reversed_template(x, y, dim, names, op), names)

    if op in ("and", "or", "xor", "nand", "nor", "nxor"):
        return _rw(_logic_template(x, y, names, op), names)
    raise AssertionError(op)


def _filter_template(x, y, dim, names: _Names, negate: bool) -> N.Node:
    """X wvr Y: X at the indices where Y holds, packed left."""
    xn, yn = names.fresh("x"), names.fresh("y")
    un, tn = names.fresh("u"), names.fresh("t")
    cond = N.UnaryOp("!", _ident(yn)) if negate else _ident(yn)
    u = _var(un, _if(cond, _hash(dim),
                     N.StreamUnary("next", _ident(un), dim)))
    t = _var(tn, N.StreamBin(
        "fby", _ident(un),
        _at(_ident(un), _add(_ident(tn), _int(1)), dim), dim))
    return _where(_at(_ident(xn), _ident(tn), dim),
                  [_var(xn, x), _var(yn, y), u, t])


def _advance_template(x, y, dim, names: _Names, negate: bool) -> N.Node:
    """X upon Y: X advances one step each time Y holds."""
    xn, yn, wn = names.fresh("x"), names.fresh("y"), names.fresh("w")
    cond = N.UnaryOp("!", _ident(yn)) if negate else _ident(yn)
    w = _var(wn, N.StreamBin(
        "fby", _int(0),
        _if(cond, _add(_ident(wn), _int(1)), _ident(wn)), dim))
    return _where(_at(_ident(xn), _ident(wn), dim),
                  [_var(xn, x), _var(yn, y), w])


def _reversed_template(x, y, dim, names: _Names, op: str) -> N.Node:
    """Reverse-direction filters: run forward over the reversed
    streams, then exhaust with bod instead of eod."""
    forward = {"rwvr": "wvr", "nrwvr": "nwvr",
               "rupon": "upon", "nrupon": "nupon"}[op]
    xn, yn, zn = names.fresh("x"), names.fresh("y"), names.fresh("z")
    inner = N.StreamBin(forward,
                        _reverse(_ident(xn), dim, names),
                        _reverse(_ident(yn), dim, names), dim)
    body = _if(_iseod(_ident(zn)), N.SentinelLit("bod"), _ident(zn))
    return _where(body, [_var(xn, x), _var(yn, y), _var(zn, inner)])


def _reverse(source: N.Node, dim: str, names: _Names) -> N.Node:
    """Index mirror: element i of the result is element N-1-i of the
    source, where N is the source's length.  Diverges on unbounded
    streams, which is what makes reverse operators demand bounded
    input."""
    sn, nn = names.fresh("s"), names.fresh("n")
    n = _var(nn, _if(_iseod(_ident(sn)), _hash(dim),
                     N.StreamUnary("next", _ident(nn), dim)))
    body = _at(_ident(sn),
               _sub(_sub(_ident(nn), _int(1)), _hash(dim)), dim)
    return _where(body, [_var(sn, source), n])


def _logic_template(x, y, names: _Names, op: str) -> N.Node:
    if op == "and":
        return _truth_table(N.BinOp("&&", x, y))
    if op == "or":
        return _truth_table(N.BinOp("||", x, y))
    if op == "nand":
        return _if(N.BinOp("&&", x, y), _int(0), _int(1))
    if op == "nor":
        return _if(N.BinOp("||", x, y), _int(0), _int(1))
    xn, yn = names.fresh("x"), names.fresh("y")
    one_true = N.BinOp(
        "||",
        N.BinOp("&&", _ident(xn), N.UnaryOp("!", _ident(yn))),
        N.BinOp("&&", N.UnaryOp("!", _ident(xn)), _ident(yn)))
    if op == "xor":
        body = _truth_table(one_true)
    else:
        body = _if(one_true, _int(0), _int(1))
    return _where(body, [_var(xn, x), _var(yn, y)])
