"""Deterministic source renderer.

parse(pretty_print(t)) is structurally equal to t.  Output is
normalized: bracket pairs print with ':' (the => pair spelling collapses
to it), where-blocks are indented two spaces per level, and every
declaration ends in a semicolon.

The tree is rendered bottom-up in one nodes.fold: each node becomes its
text and its tier, and a parent parenthesizes a child whose tier is
looser than the child's position admits.  A where-block is rendered at
column 0 and indented by the enclosing block, which prefixes each line
of its declarations; no rendered literal holds a newline, since the
lexer rejects raw newlines inside strings.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..values import ValidationError, to_source
from . import nodes as N
from .lexer import CONTEXT_OPS
from .parser import (ADD, AT, ATOM, BINDING_POWER, CTX, POSTFIX,
                     PREFIX_SYMBOLS, STREAM, STREAM_BIN_OPS, STREAM_UNARY_OPS,
                     UNARY, WHERE)

# tiers of the node kinds other than BinOp, whose tier its operator names;
# declarations and bracket entries are not expressions and have none
_TIER = {
    N.WhereExpr: WHERE, N.CtxBin: CTX, N.StreamBin: STREAM, N.AtExpr: AT,
    N.UnaryOp: UNARY, N.StreamUnary: UNARY,
    N.Call: POSTFIX, N.Subscript: POSTFIX, N.Dot: POSTFIX,
    N.AngleTuple: POSTFIX, N.HashExpr: POSTFIX,
    N.BracketEntry: None, N.DimDecl: None, N.ObsDecl: None, N.OsDecl: None,
    N.EsDecl: None, N.VarDecl: None, N.FuncDecl: None,
}

# the operators the grammar reads for each operator node; a built tree
# with another one would print text that does not parse back
_OPS = {N.BinOp: BINDING_POWER, N.UnaryOp: PREFIX_SYMBOLS,
        N.StreamUnary: STREAM_UNARY_OPS, N.StreamBin: STREAM_BIN_OPS,
        N.CtxBin: CONTEXT_OPS}

Text = Tuple[str, Optional[int]]     # rendered text, tier


def _w(kid: Text, min_prec: int) -> str:
    """A child's text, parenthesized when its tier is below min_prec."""
    text, prec = kid
    if prec is None:
        raise ValidationError("a declaration or bracket entry cannot be "
                              "printed as an expression")
    return "(%s)" % text if prec < min_prec else text


def _join(kids: List[Text], min_prec: int) -> str:
    return ", ".join(_w(k, min_prec) for k in kids)


def _op(n) -> str:
    return n.op if n.dim is None else "%s.%s" % (n.op, n.dim)


def _r_bracket_entry(n, k):
    if n.key is None:
        return _w(k[0], WHERE)
    return "%s:%s" % (_w(k[0], CTX), _w(k[1], CTX))


def _r_range(n, k):
    text = "{%s to %s" % (_w(k[0], CTX), _w(k[1], CTX))
    if n.step is not None:
        text += " step " + _w(k[2], CTX)
    return text + "}"


def _r_stream_bin(n, k):
    op = _op(n)
    if n.annotation is not None:
        op += " " + _w(k[2], ATOM)
    return "%s %s %s" % (_w(k[0], STREAM + 1), op, _w(k[1], STREAM))


def _r_where(n, k):
    if not n.decls:
        raise ValidationError("a where clause needs at least one declaration")
    lines = [_w(k[0], CTX), "where"]
    for decl, (text, _) in zip(n.decls, k[1:]):
        if _TIER.get(type(decl), ATOM) is not None:
            raise ValidationError("not a declaration: %s" % type(decl).__name__)
        lines.append("  " + text.replace("\n", "\n  "))
    lines.append("end")
    return "\n".join(lines)


# -- declarations --


def _r_dim_decl(n, k):
    head = "dimension " + ", ".join(n.names)
    if n.flags or n.tags is not None:
        parts = list(n.flags)
        if n.tags is not None:
            parts.append(_w(k[0], ATOM))
        return head + " : " + " ".join(parts) + ";"
    if n.value is not None:
        return head + " = " + _w(k[-1], WHERE) + ";"
    return head + ";"


def _r_seq_decl(keyword):
    def render(n, k):
        head = keyword
        if n.flags:
            head += " " + " ".join(n.flags)
        head += " " + n.name
        if n.value is None:
            return head + ";"
        return head + " = " + _w(k[0], WHERE) + ";"
    return render


def _r_func_decl(n, k):
    head = n.name
    if n.dim_params:
        head += "[%s]" % ", ".join(n.dim_params)
    head += "(%s)" % ", ".join(n.params)
    return "%s = %s;" % (head, _w(k[0], WHERE))


_RENDERERS: Dict[type, Callable] = {
    N.Ident: lambda n, k: n.name,
    N.IntLit: lambda n, k: repr(n.value),
    N.RealLit: lambda n, k: repr(n.value),
    N.StringLit: lambda n, k: to_source(n.value),
    N.BoolLit: lambda n, k: "true" if n.value else "false",
    N.SentinelLit: lambda n, k: n.name,
    N.NoObsLit: lambda n, k: "$",
    N.ZeroObs: lambda n, k: "\\0(%s)" % _w(k[0], WHERE),
    N.Described: lambda n, k: "%s => %s" % (_w(k[0], CTX),
                                            to_source(n.text)),
    N.TupleLit: lambda n, k: "(%s)" % _join(k, WHERE),
    N.BracketEntry: _r_bracket_entry,
    N.BracketLit: lambda n, k: "[%s]" % ", ".join(text for text, _ in k),
    N.BraceLit: lambda n, k: "{%s}" % _join(k, WHERE),
    N.RangeLit: _r_range,
    N.AngleTuple: lambda n, k: "%s<%s>" % (_w(k[0], POSTFIX),
                                           _join(k[1:], ADD)),
    N.IfExpr: lambda n, k: "if %s then %s else %s fi" % (
        _w(k[0], CTX), _w(k[1], CTX), _w(k[2], CTX)),
    N.HashExpr: lambda n, k: "#" + _w(k[0], POSTFIX) if k else "#",
    N.AtExpr: lambda n, k: "%s %s %s" % (
        _w(k[0], AT), "@" if n.dim is None else "@." + n.dim,
        _w(k[1], AT + 1)),
    N.UnaryOp: lambda n, k: n.op + _w(k[0], UNARY),
    N.StreamUnary: lambda n, k: "%s %s" % (_op(n), _w(k[0], UNARY)),
    N.BinOp: lambda n, k: "%s %s %s" % (
        _w(k[0], BINDING_POWER[n.op]), n.op,
        _w(k[1], BINDING_POWER[n.op] + 1)),
    N.StreamBin: _r_stream_bin,
    N.CtxBin: lambda n, k: "%s \\%s %s" % (_w(k[0], CTX), n.op,
                                           _w(k[1], CTX + 1)),
    N.Call: lambda n, k: "%s(%s)" % (_w(k[0], POSTFIX), _join(k[1:], WHERE)),
    N.Subscript: lambda n, k: "%s[%s]" % (_w(k[0], POSTFIX),
                                          _join(k[1:], WHERE)),
    N.Dot: lambda n, k: "%s.%s" % (
        _w(k[0], POSTFIX),
        "#" if isinstance(n.member, N.HashExpr) else n.member.name),
    N.Select: lambda n, k: "select(%s, %s)" % (_w(k[0], WHERE),
                                               _w(k[1], WHERE)),
    N.BoxExpr: lambda n, k: "Box [%s \\ %s]" % (_join(k[:-1], CTX),
                                                _w(k[-1], CTX)),
    N.WhereExpr: _r_where,
    N.DimDecl: _r_dim_decl,
    N.ObsDecl: lambda n, k: "observation %s%s;" % (
        n.name, "" if n.value is None else " = " + _w(k[0], WHERE)),
    N.OsDecl: _r_seq_decl("observation sequence"),
    N.EsDecl: _r_seq_decl("evidential statement"),
    N.VarDecl: lambda n, k: "%s = %s;" % (n.name, _w(k[0], WHERE)),
    N.FuncDecl: _r_func_decl,
}


def _render(node, kids: List[Text]) -> Text:
    fn = _RENDERERS.get(type(node))
    if fn is None:
        raise ValidationError("cannot print node of type %s" % type(node).__name__)
    ops = _OPS.get(type(node))
    if ops is not None and not (isinstance(node.op, str) and node.op in ops):
        raise ValidationError("cannot print operator %r" % (node.op,))
    if type(node) is N.BinOp:
        return fn(node, kids), BINDING_POWER[node.op]
    return fn(node, kids), _TIER.get(type(node), ATOM)


def pretty_print(tree: N.Node) -> str:
    """Render a tree back to concrete syntax (ends with a newline)."""
    return _w(N.fold(tree, _render), WHERE) + "\n"
