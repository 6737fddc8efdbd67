"""Deterministic source renderer.

parse(pretty_print(t)) is structurally equal to t.  Output is
normalized: bracket pairs print with ':' (the => pair spelling collapses
to it), where-blocks are indented two spaces per level, and every
declaration ends in a semicolon.
"""

from __future__ import annotations

from typing import Callable, Dict

from . import nodes as N
from .parser import (ADD, AT, ATOM, BINDING_POWER, CTX, POSTFIX, STREAM,
                     UNARY, WHERE)

# tiers of the node kinds other than BinOp, whose tier its operator names
_TIER = {
    N.WhereExpr: WHERE, N.CtxBin: CTX, N.StreamBin: STREAM, N.AtExpr: AT,
    N.UnaryOp: UNARY, N.StreamUnary: UNARY,
    N.Call: POSTFIX, N.Subscript: POSTFIX, N.Dot: POSTFIX,
    N.AngleTuple: POSTFIX, N.HashExpr: POSTFIX,
}


def _prec(node: N.Node) -> int:
    if isinstance(node, N.BinOp):
        return BINDING_POWER[node.op]
    return _TIER.get(type(node), ATOM)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _num(value) -> str:
    return repr(value)


class _Printer:
    def render(self, node: N.Node, min_prec: int, indent: str) -> str:
        text = self._dispatch(node, indent)
        if _prec(node) < min_prec:
            return "(%s)" % text
        return text

    def _dispatch(self, node: N.Node, indent: str) -> str:
        fn = _RENDERERS.get(type(node))
        if fn is None:
            raise ValueError("cannot print node of type %s" % type(node).__name__)
        return fn(self, node, indent)

    # each declaration renders to one (possibly multi-line) string
    # without its trailing newline
    def render_decl(self, decl: N.Node, indent: str) -> str:
        if isinstance(decl, N.DimDecl):
            head = "dimension " + ", ".join(decl.names)
            if decl.flags or decl.tags is not None:
                parts = list(decl.flags)
                if decl.tags is not None:
                    parts.append(self.render(decl.tags, ATOM, indent))
                return head + " : " + " ".join(parts) + ";"
            if decl.value is not None:
                return head + " = " + self.render(decl.value, WHERE, indent) + ";"
            return head + ";"
        if isinstance(decl, N.ObsDecl):
            if decl.value is None:
                return "observation %s;" % decl.name
            return "observation %s = %s;" % (
                decl.name, self.render(decl.value, WHERE, indent))
        if isinstance(decl, N.OsDecl):
            return self._seq_decl("observation sequence", decl.flags,
                                  decl.name, decl.value, indent)
        if isinstance(decl, N.EsDecl):
            return self._seq_decl("evidential statement", decl.flags,
                                  decl.name, decl.value, indent)
        if isinstance(decl, N.VarDecl):
            return "%s = %s;" % (decl.name,
                                 self.render(decl.expr, WHERE, indent))
        if isinstance(decl, N.FuncDecl):
            head = decl.name
            if decl.dim_params:
                head += "[%s]" % ", ".join(decl.dim_params)
            head += "(%s)" % ", ".join(decl.params)
            return "%s = %s;" % (head, self.render(decl.body, WHERE, indent))
        if isinstance(decl, N.MemberAssign):
            return "%s.%s = %s;" % (self.render(decl.base, POSTFIX, indent),
                                    decl.member,
                                    self.render(decl.expr, WHERE, indent))
        raise ValueError("not a declaration: %s" % type(decl).__name__)

    def _seq_decl(self, keyword, flags, name, value, indent) -> str:
        head = keyword
        if flags:
            head += " " + " ".join(flags)
        head += " " + name
        if value is None:
            return head + ";"
        return head + " = " + self.render(value, WHERE, indent) + ";"


def _r_ident(p, n, indent):
    return n.name


def _r_int(p, n, indent):
    return _num(n.value)


def _r_real(p, n, indent):
    return _num(n.value)


def _r_string(p, n, indent):
    return '"%s"' % _escape(n.value)


def _r_bool(p, n, indent):
    return "true" if n.value else "false"


def _r_sentinel(p, n, indent):
    return n.name


def _r_noobs(p, n, indent):
    return "$"


def _r_zero(p, n, indent):
    return "\\0(%s)" % p.render(n.prop, WHERE, indent)


def _r_described(p, n, indent):
    return '%s => "%s"' % (p.render(n.expr, CTX, indent), _escape(n.text))


def _r_tuple(p, n, indent):
    return "(%s)" % ", ".join(p.render(i, WHERE, indent) for i in n.items)


def _r_bracket(p, n, indent):
    parts = []
    for e in n.entries:
        if e.key is None:
            parts.append(p.render(e.value, WHERE, indent))
        else:
            parts.append("%s:%s" % (p.render(e.key, CTX, indent),
                                    p.render(e.value, CTX, indent)))
    return "[%s]" % ", ".join(parts)


def _r_brace(p, n, indent):
    return "{%s}" % ", ".join(p.render(i, WHERE, indent) for i in n.items)


def _r_range(p, n, indent):
    text = "{%s to %s" % (p.render(n.lo, CTX, indent),
                          p.render(n.hi, CTX, indent))
    if n.step is not None:
        text += " step " + p.render(n.step, CTX, indent)
    return text + "}"


def _r_angle(p, n, indent):
    return "%s<%s>" % (p.render(n.dim, POSTFIX, indent),
                       ", ".join(p.render(i, ADD, indent) for i in n.items))


def _r_if(p, n, indent):
    return "if %s then %s else %s fi" % (
        p.render(n.cond, CTX, indent),
        p.render(n.then_branch, CTX, indent),
        p.render(n.else_branch, CTX, indent))


def _r_hash(p, n, indent):
    if n.target is None:
        return "#"
    return "#" + p.render(n.target, POSTFIX, indent)


def _r_at(p, n, indent):
    op = "@" if n.dim is None else "@.%s" % n.dim
    return "%s %s %s" % (p.render(n.left, AT, indent), op,
                         p.render(n.right, AT + 1, indent))


def _r_unary(p, n, indent):
    return n.op + p.render(n.operand, UNARY, indent)


def _r_stream_unary(p, n, indent):
    op = n.op if n.dim is None else "%s.%s" % (n.op, n.dim)
    return "%s %s" % (op, p.render(n.operand, UNARY, indent))


def _r_binop(p, n, indent):
    prec = BINDING_POWER[n.op]
    return "%s %s %s" % (p.render(n.left, prec, indent), n.op,
                         p.render(n.right, prec + 1, indent))


def _r_stream_bin(p, n, indent):
    op = n.op if n.dim is None else "%s.%s" % (n.op, n.dim)
    if n.annotation is not None:
        op += " " + p.render(n.annotation, ATOM, indent)
    return "%s %s %s" % (p.render(n.left, STREAM + 1, indent), op,
                         p.render(n.right, STREAM, indent))


def _r_ctx_bin(p, n, indent):
    return "%s \\%s %s" % (p.render(n.left, CTX, indent), n.op,
                           p.render(n.right, CTX + 1, indent))


def _r_call(p, n, indent):
    return "%s(%s)" % (p.render(n.func, POSTFIX, indent),
                       ", ".join(p.render(a, WHERE, indent) for a in n.args))


def _r_subscript(p, n, indent):
    return "%s[%s]" % (p.render(n.base, POSTFIX, indent),
                       ", ".join(p.render(i, WHERE, indent) for i in n.indices))


def _r_dot(p, n, indent):
    member = "#" if isinstance(n.member, N.HashExpr) else n.member.name
    return "%s.%s" % (p.render(n.base, POSTFIX, indent), member)


def _r_select(p, n, indent):
    return "select(%s, %s)" % (p.render(n.index, WHERE, indent),
                               p.render(n.source, WHERE, indent))


def _r_box(p, n, indent):
    return "Box [%s \\ %s]" % (
        ", ".join(p.render(d, CTX, indent) for d in n.dims),
        p.render(n.predicate, CTX, indent))


def _r_embed(p, n, indent):
    return "embed(%s)" % ", ".join(p.render(a, WHERE, indent) for a in n.args)


def _r_where(p, n, indent):
    if not n.decls:
        raise ValueError("a where clause needs at least one declaration")
    inner = indent + "  "
    lines = [p.render(n.body, CTX, indent), indent + "where"]
    for decl in n.decls:
        lines.append(inner + p.render_decl(decl, inner))
    lines.append(indent + "end")
    return "\n".join(lines)


_RENDERERS: Dict[type, Callable] = {
    N.Ident: _r_ident, N.IntLit: _r_int, N.RealLit: _r_real,
    N.StringLit: _r_string, N.BoolLit: _r_bool, N.SentinelLit: _r_sentinel,
    N.NoObsLit: _r_noobs, N.ZeroObs: _r_zero, N.Described: _r_described,
    N.TupleLit: _r_tuple, N.BracketLit: _r_bracket, N.BraceLit: _r_brace,
    N.RangeLit: _r_range, N.AngleTuple: _r_angle, N.IfExpr: _r_if,
    N.HashExpr: _r_hash, N.AtExpr: _r_at, N.UnaryOp: _r_unary,
    N.StreamUnary: _r_stream_unary, N.BinOp: _r_binop,
    N.StreamBin: _r_stream_bin, N.CtxBin: _r_ctx_bin, N.Call: _r_call,
    N.Subscript: _r_subscript, N.Dot: _r_dot, N.Select: _r_select,
    N.BoxExpr: _r_box, N.Embed: _r_embed, N.WhereExpr: _r_where,
}


def pretty_print(tree: N.Node) -> str:
    """Render a tree back to concrete syntax (ends with a newline)."""
    return _Printer().render(tree, WHERE, "") + "\n"
