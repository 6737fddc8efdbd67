"""Static analysis and the core-reduction rewriter.

analyze() validates declarations and references, gives every declared
name a program-wide unique identity, and collects machine-readable
diagnostics instead of failing on the first problem.  The evaluator
consumes the flattened definition environment produced here, so scope
handling (shadowing, function formals, mutual recursion inside a where
clause) is resolved once, in this pass.  The pass is one nodes.fold:
only the nodes that open a scope, bind or resolve a name, or check a
call's arity have cases, every other node is rebuilt from its renamed
children, and a subtree with nothing renamed comes back as the same
object.  Declarations are bound when their where clause is entered and
visited before its body.

rewrite_to_core() reduces the derived stream operators to context
navigation, index queries, and conditionals, bottom-up in the same
fold.  Its templates are the one implementation of the operators in
EXPANDED (the stream filters, last, prelast and the truth-value words):
analyze() expands those of a program that has any, so that a program
means what its core rewrite means.  first, next, prev, second, fby and
pby, which the case programs and the benchmark run, and neg and not,
whose errors name them, stay for the evaluator.  Each template reads a
stream as the evaluator does, with bod at every negative index: next,
prev and pby guard the index they read, and the filters their
position.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from .values import FlucidError, ValidationError, check_type
from .syntax import nodes as N
from .syntax.lexer import Span

# Callable names that exist in every scope.
BUILTINS = ("bel", "pl", "combine", "product")
_BUILTIN_ARITY = {"bel": 1, "pl": 1, "combine": 2, "product": 2}


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
    owner: Optional[str] = None         # formals: the owning function
    dim_params: Tuple[str, ...] = ()    # funcs: renamed formal names
    params: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Analysis:
    tree: N.Node
    env: Dict[str, Definition]


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


_LITERALS = frozenset([N.IntLit, N.RealLit, N.StringLit, N.BoolLit,
                       N.SentinelLit, N.NoObsLit])

_DECL_KINDS = {
    N.ObsDecl: "obs",
    N.OsDecl: "os",
    N.EsDecl: "es",
    N.VarDecl: "var",
    N.FuncDecl: "func",
}
_DECLARATIONS = frozenset([*_DECL_KINDS, N.DimDecl])


class _Analyzer:
    """One fold over the tree.  Only the nodes that open a scope, bind or
    resolve a name, or check a call have cases; every other node keeps
    its kind and gets its renamed children, and comes back as the same
    object when none was renamed.
    """

    def __init__(self) -> None:
        self.env: Dict[str, Definition] = {}
        self.records: List[ErrorRecord] = []
        self._counts: Dict[str, int] = {}
        self._placed: Dict[int, _Scope] = {}    # declaration id -> its scope
        self.scope = _Scope(None)
        self.expands = False        # an operator of EXPANDED was seen
        for name in BUILTINS:
            self.scope.names[name] = (name, "builtin")

    # -- bookkeeping -----------------------------------------------------

    def error(self, code: str, message: str, span: Span) -> None:
        self.records.append(ErrorRecord("error", code, message, span))

    def fresh(self, source: str) -> str:
        n = self._counts.get(source, 0) + 1
        self._counts[source] = n
        return source if n == 1 else "%s#%d" % (source, n)

    def bind(self, scope: _Scope, source: str, kind: str,
             span: Span) -> None:
        if source in scope.names:
            self.error("duplicate-declaration",
                       "'%s' is declared twice in the same scope" % source,
                       span)
        else:
            scope.names[source] = (self.fresh(source), kind)

    def _dim_name(self, name: Optional[str]) -> Optional[str]:
        # Operator suffixes and context keys may name dimensions that
        # were never declared; those stay under their source name.
        if name is None:
            return None
        return self.scope.lookup_dim(name) or name

    def _dim_ident(self, node: N.Ident) -> N.Ident:
        return _renamed(node, self._dim_name(node.name))

    def _unique(self, name: str) -> str:
        # a declaration's where clause bound it before the walk got here
        return self.scope.names[name][0]

    # -- the way down: scopes, and positions that hold no reference ------

    def kids(self, node) -> Optional[list]:
        cls = type(node)
        if cls in _LITERALS:
            return None         # nothing to resolve: the node stays as it is
        if cls is N.Ident:
            return []           # resolved on the way up
        if cls in _DECLARATIONS and \
                self._placed.pop(id(node), None) is not self.scope:
            raise ValidationError("%s outside the declarations of a where "
                                  "clause" % cls.__name__)
        case = self._KIDS.get(cls)
        return N.children(node) if case is None else case(self, node)

    def _k_WhereExpr(self, node: N.WhereExpr) -> list:
        inner = _Scope(self.scope)
        for decl in node.decls:
            if isinstance(decl, N.DimDecl):
                for name in decl.names:
                    self.bind(inner, name, "dim", decl.span)
            elif type(decl) in _DECL_KINDS:
                self.bind(inner, decl.name, _DECL_KINDS[type(decl)],
                          decl.span)
            else:
                raise ValidationError("%s is not a declaration"
                                      % type(decl).__name__)
        self.scope = inner
        self._placed.update((id(d), inner) for d in node.decls)
        # declarations first, so that calls in the body see their arity
        return [*node.decls, node.body]

    def _k_FuncDecl(self, node: N.FuncDecl) -> list:
        self.scope = _Scope(self.scope)
        for p in node.dim_params:
            self.bind(self.scope, p, "dimformal", node.span)
        for p in node.params:
            self.bind(self.scope, p, "formal", node.span)
        return [node.body]

    def _k_BracketEntry(self, node: N.BracketEntry) -> list:
        return [node.value] if isinstance(node.key, N.Ident) \
            else N.children(node)

    def _k_AngleTuple(self, node: N.AngleTuple) -> list:
        return node.items if isinstance(node.dim, N.Ident) \
            else N.children(node)

    def _k_BoxExpr(self, node: N.BoxExpr) -> list:
        return [d for d in node.dims if not isinstance(d, N.Ident)] + [
            node.predicate]

    def _k_HashExpr(self, node: N.HashExpr) -> list:
        return [] if isinstance(node.target, N.Ident) else N.children(node)

    def _k_stream_op(self, node) -> list:
        # StreamUnary and StreamBin.  Hop annotations are provenance
        # notes, consumed verbatim by the claim validator; their contents
        # are not name-resolved.
        if getattr(node, "annotation", None) is not None:
            return [node.left, node.right]
        self.expands |= node.op in EXPANDED
        return N.children(node)

    def _k_Dot(self, node: N.Dot) -> list:
        # The member is a navigation step resolved against the value.
        return [node.base]

    # -- the way up: renamed nodes ------------------------------------------

    def leave(self, node, done: list):
        case = self._LEAVE.get(type(node))
        return N.with_children(node, done) if case is None \
            else case(self, node, done)

    def _l_Ident(self, node: N.Ident, done) -> N.Node:
        hit = self.scope.lookup(node.name)
        if hit is None:
            self.error("undefined-identifier",
                       "'%s' is not declared" % node.name, node.span)
            return node
        return _renamed(node, hit[0])

    def _l_HashExpr(self, node: N.HashExpr, done) -> N.Node:
        target = node.target
        if isinstance(target, N.Ident):
            # unresolved, it queries an implicit dimension
            hit = self.scope.lookup(target.name)
            done = [target if hit is None else _renamed(target, hit[0])]
        return N.with_children(node, done)

    def _l_BracketEntry(self, node: N.BracketEntry, done) -> N.Node:
        if not isinstance(node.key, N.Ident):
            return N.with_children(node, done)
        key = self._dim_ident(node.key)
        if key is node.key and done[0] is node.value:
            return node         # the common case in encoded evidence
        return N.BracketEntry(key, done[0], span=node.span)

    def _l_AngleTuple(self, node: N.AngleTuple, done) -> N.Node:
        if isinstance(node.dim, N.Ident):
            done = [self._dim_ident(node.dim)] + done
        return N.with_children(node, done)

    def _l_BoxExpr(self, node: N.BoxExpr, done) -> N.Node:
        rest = iter(done)
        dims = [self._dim_ident(d) if isinstance(d, N.Ident) else next(rest)
                for d in node.dims]
        return N.with_children(node, dims + list(rest))

    def _l_dim_op(self, node, done) -> N.Node:
        # AtExpr, StreamUnary and StreamBin: the .d rider names a dimension
        if getattr(node, "annotation", None) is not None:
            done.append(node.annotation)
        node = N.with_children(node, done)
        dim = self._dim_name(node.dim)
        return node if dim == node.dim else replace(node, dim=dim)

    def _l_Dot(self, node: N.Dot, done) -> N.Node:
        return N.with_children(node, done + [node.member])

    def _l_Call(self, node: N.Call, done) -> N.Node:
        node = N.with_children(node, done)
        self._check_arity(node.func, len(node.args), node.span)
        return node

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

    # -- where clauses and declarations ------------------------------------

    def _l_WhereExpr(self, node: N.WhereExpr, done) -> N.Node:
        self.scope = self.scope.parent
        return N.with_children(node, [done[-1], *done[:-1]])

    def _l_DimDecl(self, node: N.DimDecl, done) -> N.Node:
        unique = tuple(self._unique(name) for name in node.names)
        renamed = N.with_children(node, done)
        if unique != node.names:
            renamed = replace(renamed, names=unique)
        for name, source in zip(unique, node.names):
            self.env[name] = Definition(name, source, "dim", renamed)
        return renamed

    def _l_decl(self, node, done) -> N.Node:
        # ObsDecl, OsDecl, EsDecl and VarDecl
        unique = self._unique(node.name)
        renamed = N.with_children(node, done)
        if isinstance(node, N.ObsDecl):
            self._check_observation(renamed.value)
        if unique != node.name:
            renamed = replace(renamed, name=unique)
        self.env[unique] = Definition(unique, node.name,
                                      _DECL_KINDS[type(node)], renamed)
        return renamed

    def _check_observation(self, value: Optional[N.Node]) -> None:
        if isinstance(value, N.TupleLit) and len(value.items) > 5:
            self.error("observation-arity",
                       "an observation takes at most five components "
                       "(property, min, max, weight, timestamp)",
                       value.span)

    def _l_FuncDecl(self, node: N.FuncDecl, done) -> N.Node:
        fn_scope, self.scope = self.scope, self.scope.parent
        unique = self._unique(node.name)
        dim_params = tuple(fn_scope.names[p][0] for p in node.dim_params)
        params = tuple(fn_scope.names[p][0] for p in node.params)
        renamed = replace(N.with_children(node, done), name=unique,
                          dim_params=dim_params, params=params)
        self.env[unique] = Definition(unique, node.name, "func", renamed,
                                      dim_params=dim_params, params=params)
        for src, uniq in zip(node.dim_params, dim_params):
            self.env[uniq] = Definition(uniq, src, "dimformal", None,
                                        owner=unique)
        for src, uniq in zip(node.params, params):
            self.env[uniq] = Definition(uniq, src, "formal", None,
                                        owner=unique)
        return renamed

    _KIDS = {
        N.WhereExpr: _k_WhereExpr, N.FuncDecl: _k_FuncDecl,
        N.BracketEntry: _k_BracketEntry, N.AngleTuple: _k_AngleTuple,
        N.BoxExpr: _k_BoxExpr, N.HashExpr: _k_HashExpr,
        N.StreamUnary: _k_stream_op, N.StreamBin: _k_stream_op,
        N.Dot: _k_Dot,
    }
    _LEAVE = {
        N.Ident: _l_Ident, N.HashExpr: _l_HashExpr,
        N.BracketEntry: _l_BracketEntry, N.AngleTuple: _l_AngleTuple,
        N.BoxExpr: _l_BoxExpr, N.AtExpr: _l_dim_op,
        N.StreamUnary: _l_dim_op, N.StreamBin: _l_dim_op, N.Dot: _l_Dot,
        N.Call: _l_Call, N.WhereExpr: _l_WhereExpr, N.DimDecl: _l_DimDecl,
        N.ObsDecl: _l_decl, N.OsDecl: _l_decl, N.EsDecl: _l_decl,
        N.VarDecl: _l_decl, N.FuncDecl: _l_FuncDecl,
    }


def _renamed(node: N.Ident, unique: str) -> N.Ident:
    return node if unique == node.name else N.Ident(unique, span=node.span)


def analyze(tree: N.Node) -> Analysis:
    """Resolve names and collect diagnostics for a whole program.

    Deterministic and idempotent: analyzing an already-renamed tree is
    the identity.  Raises FlucidSemanticError when any record was
    produced.  A program with an operator of EXPANDED comes back with
    those operators expanded to their core templates.
    """
    check_type(tree, N.Node, "analyze takes a syntax tree")
    while True:
        analyzer = _Analyzer()
        renamed = N.fold(tree, analyzer.leave, analyzer.kids)
        if analyzer.records:
            raise FlucidSemanticError(analyzer.records)
        if not analyzer.expands:
            return Analysis(renamed, analyzer.env)
        tree = _rewrite(renamed, EXPANDED)


# --- reduction of derived operators to the core ------------------------------

DEFAULT_DIMENSION = "d"

# Derived operators the rewriter eliminates.  fby, the bitwise words
# and the forensic operators stay as they are; iseod/isbod are
# themselves core.
REWRITTEN_UNARY = frozenset(
    ["first", "next", "prev", "second", "prelast", "last", "neg", "not"])
REWRITTEN_BIN = frozenset("""
    pby wvr rwvr nwvr nrwvr asa nasa ala nala
    upon rupon nupon nrupon and or xor nand nor nxor
""".split())
# The operators analyze() expands for evaluation.
EXPANDED = frozenset("""
    wvr rwvr nwvr nrwvr asa nasa ala nala upon rupon nupon nrupon
    last prelast and or xor nand nor nxor
""".split())


class _Names:
    """The operators a rewrite expands, and a fresh-name supply that
    avoids every identifier in the tree."""

    def __init__(self, tree: N.Node, ops: frozenset):
        self.ops = ops
        self.used = {n.name for n in N.walk(tree) if isinstance(n, N.Ident)}
        self.counter = 0

    def fresh(self, base: str) -> str:
        while True:
            self.counter += 1
            name = "_%s%d" % (base, self.counter)
            if name not in self.used:
                self.used.add(name)
                return name


def _hash(dim: str) -> N.HashExpr:
    return N.HashExpr(N.Ident(dim))


def _at(expr: N.Node, index: N.Node, dim: str) -> N.AtExpr:
    return N.AtExpr(expr, index, dim)


def _add(a: N.Node, b: N.Node) -> N.BinOp:
    return N.BinOp("+", a, b)


def _sub(a: N.Node, b: N.Node) -> N.BinOp:
    return N.BinOp("-", a, b)


def _iseod(expr: N.Node) -> N.StreamUnary:
    return N.StreamUnary("iseod", expr)


def _where(body: N.Node, decls) -> N.WhereExpr:
    return N.WhereExpr(body, tuple(decls))


def _truth_table(cond: N.Node) -> N.IfExpr:
    return N.IfExpr(cond, N.IntLit(1), N.IntLit(0))


def rewrite_to_core(tree: N.Node) -> N.Node:
    """Eliminate derived stream operators from a syntax tree.

    The result evaluates identically but uses only navigation (@),
    index queries (#), conditionals, where clauses, the end-of-stream
    predicates, plain arithmetic, and fby: over a forensic left operand
    fby prepends its observations to the sequence on its right, which
    no index template can do.  Deterministic, and the identity on trees
    that are already core.
    """
    check_type(tree, N.Node, "rewrite_to_core takes a syntax tree")
    return _rewrite(tree, REWRITTEN_UNARY | REWRITTEN_BIN)


def _rewrite(tree: N.Node, ops: frozenset) -> N.Node:
    return _rw(tree, _Names(tree, ops))


def _rw(tree: N.Node, names: _Names):
    return N.fold(tree, lambda node, done: _core(
        N.with_children(node, done), names))


def _core(node, names: _Names):
    if isinstance(node, N.StreamUnary) and node.op in names.ops:
        return _expand_unary(node, names)
    if (isinstance(node, N.StreamBin) and node.op in names.ops
            and node.annotation is None):
        # Annotated hops carry evidence structure, never stream flow.
        # The expansion keeps the operator's position for its errors.
        return replace(_expand_bin(node, names), span=node.span)
    return node


def _expand_unary(node: N.StreamUnary, names: _Names):
    dim = node.dim or DEFAULT_DIMENSION
    x = node.operand
    if node.op == "first":
        return _at(x, N.IntLit(0), dim)
    if node.op == "second":
        return _at(x, N.IntLit(1), dim)
    if node.op == "next":
        return _at(_from_zero(x, dim), _add(_hash(dim), N.IntLit(1)), dim)
    if node.op == "prev":
        return _at(_from_zero(x, dim), _sub(_hash(dim), N.IntLit(1)), dim)
    if node.op == "neg":
        return N.UnaryOp("-", x, span=node.span)
    if node.op == "not":
        return N.UnaryOp("!", x, span=node.span)
    if node.op == "prelast":
        xn = names.fresh("x")
        body = N.StreamUnary(
            "first",
            N.StreamUnary("next", _reverse(N.Ident(xn), dim, names), dim),
            dim)
        return _rw(_where(body, [N.VarDecl(xn, x)]), names)
    if node.op == "last":
        xn = names.fresh("x")
        body = N.StreamUnary(
            "first",
            N.StreamBin("wvr", N.Ident(xn),
                        _iseod(N.StreamUnary("next", N.Ident(xn), dim)),
                        dim),
            dim)
        return _rw(_where(body, [N.VarDecl(xn, x)]), names)
    raise AssertionError(node.op)


def _expand_bin(node: N.StreamBin, names: _Names):
    dim = node.dim or DEFAULT_DIMENSION
    op, x, y = node.op, node.left, node.right

    if op == "pby":
        yn = names.fresh("y")
        body = N.IfExpr(
            _iseod(N.Ident(yn)),
            N.IfExpr(_iseod(N.StreamUnary("prev", N.Ident(yn), dim)),
                     N.SentinelLit("eod"),
                     N.StreamUnary("first", x, dim)),
            N.Ident(yn))
        return _rw(_where(_from_zero(body, dim), [N.VarDecl(yn, y)]), names)

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
    cond = N.UnaryOp("!", N.Ident(yn)) if negate else N.Ident(yn)
    u = N.VarDecl(un, N.IfExpr(cond, _hash(dim),
                               N.StreamUnary("next", N.Ident(un), dim)))
    t = N.VarDecl(tn, N.StreamBin(
        "fby", N.Ident(un),
        _at(N.Ident(un), _add(N.Ident(tn), N.IntLit(1)), dim), dim))
    return _where(_from_zero(_at(N.Ident(xn), N.Ident(tn), dim), dim),
                  [N.VarDecl(xn, x), N.VarDecl(yn, y), u, t])


def _advance_template(x, y, dim, names: _Names, negate: bool) -> N.Node:
    """X upon Y: X advances one step each time Y holds."""
    xn, yn, wn = names.fresh("x"), names.fresh("y"), names.fresh("w")
    cond = N.UnaryOp("!", N.Ident(yn)) if negate else N.Ident(yn)
    w = N.VarDecl(wn, N.StreamBin(
        "fby", N.IntLit(0),
        N.IfExpr(cond, _add(N.Ident(wn), N.IntLit(1)), N.Ident(wn)), dim))
    return _where(_from_zero(_at(N.Ident(xn), N.Ident(wn), dim), dim),
                  [N.VarDecl(xn, x), N.VarDecl(yn, y), w])


def _from_zero(body: N.Node, dim: str) -> N.IfExpr:
    """body at the natural indices, bod below them, as the evaluator
    reads every stream: next, prev and pby guard the index they read,
    and a filter's position counter, read below zero, would recurse
    without end."""
    return N.IfExpr(N.BinOp("<", _hash(dim), N.IntLit(0)),
                    N.SentinelLit("bod"), body)


def _reversed_template(x, y, dim, names: _Names, op: str) -> N.Node:
    """Reverse-direction filters: run forward over the reversed
    streams, then exhaust with bod instead of eod."""
    forward = {"rwvr": "wvr", "nrwvr": "nwvr",
               "rupon": "upon", "nrupon": "nupon"}[op]
    xn, yn, zn = names.fresh("x"), names.fresh("y"), names.fresh("z")
    inner = N.StreamBin(forward,
                        _reverse(N.Ident(xn), dim, names),
                        _reverse(N.Ident(yn), dim, names), dim)
    body = N.IfExpr(_iseod(N.Ident(zn)), N.SentinelLit("bod"), N.Ident(zn))
    return _where(body, [N.VarDecl(xn, x), N.VarDecl(yn, y),
                         N.VarDecl(zn, inner)])


def _reverse(source: N.Node, dim: str, names: _Names) -> N.Node:
    """Index mirror: element i of the result is element N-1-i of the
    source, where N is the source's length.  Diverges on unbounded
    streams, which is what makes reverse operators demand bounded
    input."""
    sn, nn = names.fresh("s"), names.fresh("n")
    n = N.VarDecl(nn, N.IfExpr(_iseod(N.Ident(sn)), _hash(dim),
                               N.StreamUnary("next", N.Ident(nn), dim)))
    body = _at(N.Ident(sn),
               _sub(_sub(N.Ident(nn), N.IntLit(1)), _hash(dim)), dim)
    return _where(body, [N.VarDecl(sn, source), n])


def _logic_template(x, y, names: _Names, op: str) -> N.Node:
    if op == "and":
        return _truth_table(N.BinOp("&&", x, y))
    if op == "or":
        return _truth_table(N.BinOp("||", x, y))
    if op == "nand":
        return N.IfExpr(N.BinOp("&&", x, y), N.IntLit(0), N.IntLit(1))
    if op == "nor":
        return N.IfExpr(N.BinOp("||", x, y), N.IntLit(0), N.IntLit(1))
    xn, yn = names.fresh("x"), names.fresh("y")
    one_true = N.BinOp(
        "||",
        N.BinOp("&&", N.Ident(xn), N.UnaryOp("!", N.Ident(yn))),
        N.BinOp("&&", N.UnaryOp("!", N.Ident(xn)), N.Ident(yn)))
    if op == "xor":
        body = _truth_table(one_true)
    else:
        body = N.IfExpr(one_true, N.IntLit(0), N.IntLit(1))
    return _where(body, [N.VarDecl(xn, x), N.VarDecl(yn, y)])
