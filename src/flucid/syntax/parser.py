"""Precedence-climbing parser (Pratt, "Top Down Operator Precedence").

One loop, _Parser.expr, reads every binary operator, driven by one
binding-power table, BINDING_POWER.  The pretty-printer reads the same
table, so precedence is decided here alone.  Tiers, loosest first:

  WHERE    where ... end                 repeats: X where .. end where .. end
  CTX      backslash context operators   left-assoc
  STREAM   fby family, logical words,    right-assoc
           combine, product
  AT       @                             left-assoc, the tighter half of
                                         the intensional tier
  LOGICAL  && || & !! !&                 left-assoc
  REL      < > <= >= == != in            left-assoc
  ADD      + - ^                         left-assoc
  MUL      * / %                         left-assoc
  UNARY    prefix + - ! ~, the unary stream operators, #
  POSTFIX  call, subscript, dot, adjacent angle tuple

Quirks the grammar keeps:

  - @ and the stream operators take a dimension rider (fby.d, @.d);
  - a stream operator followed by [...] and then the start of an
    expression reads the bracket as a hop annotation; otherwise the
    bracket (with its postfix tail) is the right operand, and ends the
    chain;
  - after a stream chain or a where clause only looser operators follow,
    as after any operator node: its right operand took everything
    tighter;
  - d<1, 2> is an angle tuple only when < touches d; its items sit at
    ADD so that > closes it, and a failed attempt backtracks to the
    relational reading;
  - if branches are parsed at CTX, so a where inside one needs
    parentheses.

Chains of operators and prefixes are read by iteration; only bracketing
constructs recurse.  MAX_NESTING bounds that recursion, so that deep
input raises FlucidSyntaxError rather than RecursionError.  Syntax errors
carry the offending span and the expected-token set.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from ..values import FlucidError
from .lexer import CONTEXT_OPS, Span, Token, tokenize
from . import nodes as N

WHERE, CTX, STREAM, AT, LOGICAL, REL, ADD, MUL, UNARY, POSTFIX, ATOM = range(11)

STREAM_BIN_OPS = frozenset("""
    fby pby wvr rwvr nwvr nrwvr asa nasa ala nala
    upon rupon nupon nrupon nfby npby
    and or xor nand nor nxor band bor bxor combine product
""".split())

STREAM_UNARY_OPS = frozenset("""
    first next prev last second prelast nnext nprev iseod isbod neg not
""".split())

BINDING_POWER: Dict[str, int] = {
    "where": WHERE,
    **{"\\" + op: CTX for op in CONTEXT_OPS},
    **{op: STREAM for op in STREAM_BIN_OPS},
    "@": AT,
    "&&": LOGICAL, "||": LOGICAL, "&": LOGICAL, "!!": LOGICAL, "!&": LOGICAL,
    "<": REL, ">": REL, "<=": REL, ">=": REL, "==": REL, "!=": REL, "in": REL,
    "+": ADD, "-": ADD, "^": ADD,
    "*": MUL, "/": MUL, "%": MUL,
}

# Each nesting level costs the recursion at most five Python frames
# (a where clause inside a function head's argument list), so this
# bound stays well inside the default recursion limit of 1000.
MAX_NESTING = 128

FORENSIC_CALLS = frozenset(["bel", "pl", "combine", "product"])

DIM_FLAGS = ("ordered", "unordered", "finite", "infinite",
             "periodic", "nonperiodic")

_PREFIX_OPS = frozenset(["+", "-", "!", "~"]) | STREAM_UNARY_OPS
_LEAVES = {"IDENT": N.Ident, "INT": N.IntLit, "REAL": N.RealLit,
           "STRING": N.StringLit}

_EXPR_START_SYMS = frozenset(
    ["(", "[", "{", "#", "$", "\\0", "-", "+", "!", "~", "INF+", "INF-"])
_EXPR_START_KWS = frozenset(
    ["if", "select", "Box", "embed", "true", "false", "eod", "bod"]
) | STREAM_UNARY_OPS | FORENSIC_CALLS


class FlucidSyntaxError(FlucidError):
    def __init__(self, message: str, span: Span,
                 expected: Iterable[str] = ()):
        super().__init__("%s at line %d, column %d"
                         % (message, span.line, span.col))
        self.span = span
        self.expected: FrozenSet[str] = frozenset(expected)


class _Parser:
    # A token's value alone can look like an operator or a keyword only
    # when the token is a STRING, so value tests check the kind after.

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.tok = tokens[0]
        self.depth = 0

    # --- token plumbing ----------------------------------------------------

    def advance(self) -> Token:
        tok = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def at_sym(self, sym: str) -> bool:
        return self.tok.value == sym and self.tok.kind == "SYM"

    def at_kw(self, word: str) -> bool:
        return self.tok.value == word and self.tok.kind == "KW"

    def fail(self, expected: Iterable[str]) -> FlucidSyntaxError:
        tok = self.tok
        got = tok.raw if tok.kind != "EOF" else "end of input"
        exp = sorted(expected)
        if len(exp) == 1:
            msg = "expected %s, found %r" % (exp[0], got)
        else:
            msg = "expected one of %s, found %r" % (", ".join(exp), got)
        return FlucidSyntaxError(msg, tok.span, exp)

    def expect_sym(self, sym: str) -> Token:
        if not self.at_sym(sym):
            raise self.fail([sym])
        return self.advance()

    def expect_kw(self, word: str) -> Token:
        if not self.at_kw(word):
            raise self.fail([word])
        return self.advance()

    def expect_ident(self) -> Token:
        if self.tok.kind != "IDENT":
            raise self.fail(["identifier"])
        return self.advance()

    def _op_dim_suffix(self) -> Optional[str]:
        # fby.d / @.d : a dimension rider on an intensional operator
        if self.at_sym(".") and self.tokens[self.pos + 1].kind == "IDENT":
            self.advance()
            return self.advance().value
        return None

    def _starts_expression(self) -> bool:
        tok = self.tok
        if tok.kind in ("IDENT", "INT", "REAL", "STRING"):
            return True
        if tok.kind == "KW":
            return tok.value in _EXPR_START_KWS
        if tok.kind == "SYM":
            return tok.value in _EXPR_START_SYMS
        return False

    # --- expressions ----------------------------------------------------------

    def expr(self, min_bp: int = WHERE) -> N.Node:
        """An expression whose binary operators bind at least min_bp."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FlucidSyntaxError("expression nested deeper than %d levels"
                                    % MAX_NESTING, self.tok.span)
        left = self.operand()
        max_bp = ATOM
        while True:
            tok = self.tok
            bp = BINDING_POWER.get(tok.value)
            if bp is None or not min_bp <= bp <= max_bp or tok.kind == "STRING":
                break
            self.advance()
            op = tok.value
            if bp == WHERE:
                decls = self.parse_declarations()
                end = self.expect_kw("end")
                left = N.WhereExpr(left, tuple(decls),
                                   span=left.span.merge(end.span))
            elif bp == STREAM:
                left = self._stream_chain(left, op)
            else:
                dim = self._op_dim_suffix() if bp == AT else None
                right = self.expr(bp + 1)
                span = left.span.merge(right.span)
                if bp == AT:
                    left = N.AtExpr(left, right, dim, span=span)
                elif bp == CTX:
                    left = N.CtxBin(op[1:], left, right, span=span)
                else:
                    left = N.BinOp(op, left, right, span=span)
            # the right operand took every tighter operator; a stream
            # chain, being right-associative, took its own tier as well
            max_bp = bp - 1 if bp == STREAM else bp
        self.depth -= 1
        return left

    def _stream_chain(self, left: N.Node, op: str) -> N.Node:
        # a fby b pby c ... is read left to right and folded to the right
        links = []
        while True:
            dim = self._op_dim_suffix()
            annotation = None
            if self.at_sym("["):
                bracket = self.parse_bracket()
                if not self._starts_expression():
                    links.append((left, op, dim, None))
                    left = self.postfix(bracket)
                    break
                annotation = bracket
            links.append((left, op, dim, annotation))
            left = self.expr(AT)
            tok = self.tok
            if tok.value not in STREAM_BIN_OPS or tok.kind != "KW":
                break
            op = self.advance().value
        for first, op, dim, annotation in reversed(links):
            left = N.StreamBin(op, first, left, dim, annotation,
                               span=first.span.merge(left.span))
        return left

    def operand(self) -> N.Node:
        """Prefix operators, then a primary and its postfix tail."""
        prefixes = []
        tok = self.tok
        while tok.value in _PREFIX_OPS and tok.kind != "STRING":
            self.advance()
            dim = self._op_dim_suffix() if tok.kind == "KW" else None
            prefixes.append((tok, dim))
            tok = self.tok
        node = self.postfix(self.primary())
        for tok, dim in reversed(prefixes):
            span = tok.span.merge(node.span)
            if tok.kind == "SYM":
                node = N.UnaryOp(tok.value, node, span=span)
            else:
                node = N.StreamUnary(tok.value, node, dim, span=span)
        return node

    def postfix(self, base: N.Node) -> N.Node:
        while True:
            tok = self.tok
            if tok.kind != "SYM":
                return base
            if tok.value == "(":
                self.advance()
                args = self._comma_exprs(")")
                close = self.expect_sym(")")
                base = N.Call(base, tuple(args), span=base.span.merge(close.span))
            elif tok.value == "[":
                self.advance()
                indices = self._comma_exprs("]")
                close = self.expect_sym("]")
                if not indices:
                    raise FlucidSyntaxError("empty subscript", tok.span,
                                            ["expression"])
                base = N.Subscript(base, tuple(indices),
                                   span=base.span.merge(close.span))
            elif tok.value == "." and (
                    self.tokens[self.pos + 1].kind == "IDENT"
                    or self.tokens[self.pos + 1][:2] == ("SYM", "#")):
                self.advance()
                tok = self.advance()
                if tok.kind == "SYM":
                    member: N.Node = N.HashExpr(None, span=tok.span)
                else:
                    member = N.Ident(tok.value, span=tok.span)
                base = N.Dot(base, member, span=base.span.merge(tok.span))
            elif tok.value == "<" and tok.span.offset == base.span.end:
                tup = self._try_angle_tuple(base)
                if tup is None:
                    return base
                base = tup
            else:
                return base

    def _try_angle_tuple(self, base: N.Node) -> Optional[N.Node]:
        saved = self.pos, self.depth
        try:
            self.advance()
            # items sit below the relational level so > stays the closer
            items = [self.expr(ADD)]
            while self.at_sym(","):
                self.advance()
                items.append(self.expr(ADD))
            close = self.expect_sym(">")
            return N.AngleTuple(base, tuple(items),
                                span=base.span.merge(close.span))
        except FlucidSyntaxError:
            self.pos, self.depth = saved
            self.tok = self.tokens[self.pos]
            return None

    def _comma_exprs(self, closer: str) -> List[N.Node]:
        items: List[N.Node] = []
        if self.at_sym(closer):
            return items
        items.append(self.expr())
        while self.at_sym(","):
            self.advance()
            items.append(self.expr())
        return items

    # --- primaries -----------------------------------------------------------

    def primary(self) -> N.Node:
        tok = self.tok
        leaf = _LEAVES.get(tok.kind)
        if leaf is not None:
            self.advance()
            return leaf(tok.value, span=tok.span)
        if tok.kind == "SYM":
            if tok.value == "(":
                return self._parse_paren(tok)
            if tok.value == "[":
                return self.parse_bracket()
            if tok.value == "$":
                self.advance()
                return N.NoObsLit(span=tok.span)
            if tok.value in ("INF+", "INF-"):
                self.advance()
                return N.SentinelLit(tok.value, span=tok.span)
            if tok.value == "\\0":
                self.advance()
                self.expect_sym("(")
                prop = self.expr()
                close = self.expect_sym(")")
                return N.ZeroObs(prop, span=tok.span.merge(close.span))
            if tok.value == "#":
                self.advance()
                if self.tok.kind == "IDENT" or self.at_sym("("):
                    target = self.postfix(self.primary())
                    return N.HashExpr(target, span=tok.span.merge(target.span))
                return N.HashExpr(None, span=tok.span)
            if tok.value == "{":
                return self._parse_brace(tok)
        if tok.kind == "KW":
            if tok.value in ("true", "false"):
                self.advance()
                return N.BoolLit(tok.value == "true", span=tok.span)
            if tok.value in ("eod", "bod"):
                self.advance()
                return N.SentinelLit(tok.value, span=tok.span)
            if tok.value == "if":
                return self._parse_if(tok)
            if tok.value == "select":
                self.advance()
                self.expect_sym("(")
                index = self.expr()
                self.expect_sym(",")
                source = self.expr()
                close = self.expect_sym(")")
                return N.Select(index, source, span=tok.span.merge(close.span))
            if tok.value == "Box":
                return self._parse_box(tok)
            if tok.value == "embed":
                self.advance()
                self.expect_sym("(")
                args = self._comma_exprs(")")
                close = self.expect_sym(")")
                if not args:
                    raise FlucidSyntaxError("embed needs a URI argument",
                                            close.span, ["expression"])
                return N.Embed(tuple(args), span=tok.span.merge(close.span))
            if tok.value in FORENSIC_CALLS \
                    and self.tokens[self.pos + 1][:2] == ("SYM", "("):
                self.advance()
                self.advance()
                args = self._comma_exprs(")")
                close = self.expect_sym(")")
                return N.Call(N.Ident(tok.value, span=tok.span), tuple(args),
                              span=tok.span.merge(close.span))
        raise self.fail(["expression"])

    def _parse_paren(self, open_tok: Token) -> N.Node:
        self.advance()
        items: List[N.Node] = []
        described = False
        while True:
            item = self.expr()
            if self.at_sym("=>"):
                self.advance()
                if self.tok.kind != "STRING":
                    raise self.fail(["string"])
                text = self.advance()
                item = N.Described(item, text.value,
                                   span=item.span.merge(text.span))
                described = True
            items.append(item)
            if self.at_sym(","):
                self.advance()
                continue
            break
        close = self.expect_sym(")")
        if len(items) == 1 and not described:
            return items[0]
        return N.TupleLit(tuple(items), span=open_tok.span.merge(close.span))

    def parse_bracket(self) -> N.Node:
        open_tok = self.expect_sym("[")
        entries: List[N.BracketEntry] = []
        while not self.at_sym("]"):
            first = self.expr()
            if self.tok.value in (":", "=>") and self.tok.kind == "SYM":
                self.advance()
                value = self.expr()
                entries.append(N.BracketEntry(first, value,
                                              span=first.span.merge(value.span)))
            else:
                entries.append(N.BracketEntry(None, first, span=first.span))
            if self.at_sym(","):
                self.advance()
                continue
            break
        close = self.expect_sym("]")
        return N.BracketLit(tuple(entries), span=open_tok.span.merge(close.span))

    def _parse_brace(self, open_tok: Token) -> N.Node:
        self.advance()
        if self.at_sym("}"):
            close = self.advance()
            return N.BraceLit((), span=open_tok.span.merge(close.span))
        first = self.expr()
        if self.at_kw("to"):
            self.advance()
            hi = self.expr()
            step = None
            if self.at_kw("step"):
                self.advance()
                step = self.expr()
            close = self.expect_sym("}")
            return N.RangeLit(first, hi, step,
                              span=open_tok.span.merge(close.span))
        items = [first]
        while self.at_sym(","):
            self.advance()
            items.append(self.expr())
        close = self.expect_sym("}")
        return N.BraceLit(tuple(items), span=open_tok.span.merge(close.span))

    def _parse_if(self, tok: Token) -> N.Node:
        self.advance()
        cond = self.expr(CTX)
        self.expect_kw("then")
        then_branch = self.expr(CTX)
        self.expect_kw("else")
        else_branch = self.expr(CTX)
        close = self.expect_kw("fi")
        return N.IfExpr(cond, then_branch, else_branch,
                        span=tok.span.merge(close.span))

    def _parse_box(self, tok: Token) -> N.Node:
        self.advance()
        self.expect_sym("[")
        dims = [self.expr()]
        while self.at_sym(","):
            self.advance()
            dims.append(self.expr())
        self.expect_sym("\\")
        predicate = self.expr()
        close = self.expect_sym("]")
        return N.BoxExpr(tuple(dims), predicate,
                         span=tok.span.merge(close.span))

    # --- declarations ---------------------------------------------------------

    def parse_declarations(self) -> List[N.Node]:
        decls: List[N.Node] = []
        if self.at_kw("end"):
            raise FlucidSyntaxError("a where clause needs at least one declaration",
                                    self.tok.span, ["declaration"])
        while not self.at_kw("end"):
            if self.at_kw("dimension"):
                decls.append(self._parse_dim_decl())
            elif self.at_kw("observation"):
                decls.append(self._parse_observation_decl())
            elif self.at_kw("evidential"):
                decls.append(self._parse_es_decl())
            elif self.tok.kind == "IDENT":
                decls.append(self._parse_assignment())
            elif self.tok.kind == "EOF":
                raise self.fail(["end"])
            else:
                raise self.fail(["dimension", "observation",
                                 "evidential statement", "identifier"])
        return decls

    def _parse_dim_decl(self) -> N.Node:
        kw = self.advance()
        names = [self.expect_ident().value]
        while self.at_sym(","):
            self.advance()
            names.append(self.expect_ident().value)
        flags: Tuple[str, ...] = ()
        tags = None
        value = None
        if self.at_sym(":"):
            self.advance()
            flags = self._decl_flags()
            if self.at_sym("{"):
                tags = self._parse_brace(self.tok)
            elif not flags:
                raise self.fail(["tag set", "ordering flag"])
        elif self.at_sym("="):
            self.advance()
            value = self.expr()
        semi = self.expect_sym(";")
        return N.DimDecl(tuple(names), flags, tags, value,
                         span=kw.span.merge(semi.span))

    def _parse_observation_decl(self) -> N.Node:
        kw = self.advance()
        if self.at_kw("sequence"):
            self.advance()
            flags = self._decl_flags()
            name, value, semi = self._named_value()
            return N.OsDecl(name, flags, value, span=kw.span.merge(semi.span))
        name, value, semi = self._named_value()
        return N.ObsDecl(name, value, span=kw.span.merge(semi.span))

    def _parse_es_decl(self) -> N.Node:
        kw = self.advance()
        self.expect_kw("statement")
        flags = self._decl_flags()
        name, value, semi = self._named_value()
        return N.EsDecl(name, flags, value, span=kw.span.merge(semi.span))

    def _named_value(self) -> Tuple[str, Optional[N.Node], Token]:
        # name [= expr] ;
        name = self.expect_ident().value
        value = None
        if self.at_sym("="):
            self.advance()
            value = self.expr()
        return name, value, self.expect_sym(";")

    def _decl_flags(self) -> Tuple[str, ...]:
        flags: List[str] = []
        while self.tok.kind == "KW" and self.tok.value in DIM_FLAGS:
            flags.append(self.advance().value)
        return tuple(flags)

    def _parse_assignment(self) -> N.Node:
        lhs = self.postfix(self.primary())
        self.expect_sym("=")
        rhs = self.expr()
        semi = self.expect_sym(";")
        span = lhs.span.merge(semi.span)
        if isinstance(lhs, N.Ident):
            return N.VarDecl(lhs.name, rhs, span=span)
        if isinstance(lhs, N.Dot) and isinstance(lhs.member, N.Ident):
            return N.MemberAssign(lhs.base, lhs.member.name, rhs, span=span)
        if isinstance(lhs, N.Call):
            params = _ident_names(lhs.args)
            target = lhs.func
            if params is not None and isinstance(target, N.Ident):
                return N.FuncDecl(target.name, (), params, rhs, span=span)
            if params is not None and isinstance(target, N.Subscript) \
                    and isinstance(target.base, N.Ident):
                dims = _ident_names(target.indices)
                if dims is not None:
                    return N.FuncDecl(target.base.name, dims, params, rhs,
                                      span=span)
        raise FlucidSyntaxError("declaration target must be an identifier, "
                                "a function head, or a member", lhs.span,
                                ["identifier"])


def _ident_names(exprs: Sequence[N.Node]) -> Optional[Tuple[str, ...]]:
    names: List[str] = []
    for e in exprs:
        if not isinstance(e, N.Ident):
            return None
        names.append(e.name)
    return tuple(names)


def parse(source: Union[str, Sequence[Token]]) -> N.Node:
    """Parse a whole program (one expression, usually with a where)."""
    tokens = tokenize(source) if isinstance(source, str) else list(source)
    if not tokens or tokens[-1].kind != "EOF":
        # a token list cut before its EOF token ends where its last token does
        last = tokens[-1].span if tokens else Span(1, 1, 0, 0)
        col = last.col + last.end - last.offset
        tokens.append(Token("EOF", "", Span(last.line, col, last.end, last.end)))
    p = _Parser(tokens)
    tree = p.expr()
    if p.at_sym(";"):
        p.advance()
    if p.tok.kind != "EOF":
        raise p.fail(["end of input"])
    return tree
