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
  LOGICAL  && ||                         left-assoc
  REL      < > <= >= == !=               left-assoc
  ADD      + -                           left-assoc
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

The parser reads the lists of tokenize's stream by index; spans are
built for nodes and errors only, from token offsets.
An atom before a closer (, ) ] ; } :) skips the operand and postfix steps.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from ..values import FlucidError, check_type
from .lexer import CONTEXT_OPS, Span, TokenStream, tokenize
from . import nodes as N

WHERE, CTX, STREAM, AT, LOGICAL, REL, ADD, MUL, UNARY, POSTFIX, ATOM = range(11)

STREAM_BIN_OPS = frozenset("""
    fby pby wvr rwvr nwvr nrwvr asa nasa ala nala
    upon rupon nupon nrupon
    and or xor nand nor nxor band bor bxor combine product
""".split())

STREAM_UNARY_OPS = frozenset("""
    first next prev last second prelast iseod isbod neg not
""".split())

BINDING_POWER: Dict[str, int] = {
    "where": WHERE,
    **{"\\" + op: CTX for op in CONTEXT_OPS},
    **{op: STREAM for op in STREAM_BIN_OPS},
    "@": AT,
    "&&": LOGICAL, "||": LOGICAL,
    "<": REL, ">": REL, "<=": REL, ">=": REL, "==": REL, "!=": REL,
    "+": ADD, "-": ADD,
    "*": MUL, "/": MUL, "%": MUL,
}

# Each nesting level costs the recursion at most five Python frames
# (a where clause inside a function head's argument list), so this
# bound stays well inside the default recursion limit of 1000.
MAX_NESTING = 128

FORENSIC_CALLS = frozenset(["bel", "pl", "combine", "product"])

DIM_FLAGS = ("ordered", "unordered", "finite", "infinite",
             "periodic", "nonperiodic")

PREFIX_SYMBOLS = frozenset(["+", "-", "!", "~"])
_PREFIX_OPS = PREFIX_SYMBOLS | STREAM_UNARY_OPS
_LEAVES = {"IDENT": N.Ident, "INT": N.IntLit, "REAL": N.RealLit,
           "STRING": N.StringLit}

# an atom followed by one of these is a whole expression
_CLOSERS = frozenset([",", ")", "]", ";", "}", ":"])
_EXPR_START_SYMS = frozenset(
    ["(", "[", "{", "#", "$", "\\0", "-", "+", "!", "~", "INF+", "INF-"])
_EXPR_START_KWS = frozenset(
    ["if", "select", "Box", "true", "false", "eod", "bod"]
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
    # A token is its index; kind and value are those of the one at pos.

    def __init__(self, tokens: TokenStream):
        self.kinds, self.values = tokens.kinds, tokens.values
        self.starts, self.span = tokens.starts, tokens.span
        self.pos = 0
        self.kind, self.value = self.kinds[0], self.values[0]
        self.depth = 0

    # --- token plumbing ----------------------------------------------------

    def advance(self) -> int:
        pos = self.pos
        self.pos = pos + 1
        self.kind = self.kinds[pos + 1]
        self.value = self.values[pos + 1]
        return pos

    def at_sym(self, sym: str) -> bool:
        return self.value == sym and self.kind == "SYM"

    def at_kw(self, word: str) -> bool:
        return self.value == word and self.kind == "KW"

    def at_next_sym(self, sym: str) -> bool:
        pos = self.pos + 1
        return self.values[pos] == sym and self.kinds[pos] == "SYM"

    def fail(self, expected: Iterable[str]) -> FlucidSyntaxError:
        got = str(self.value) if self.kind != "EOF" else "end of input"
        exp = sorted(expected)
        if len(exp) == 1:
            msg = "expected %s, found %r" % (exp[0], got)
        else:
            msg = "expected one of %s, found %r" % (", ".join(exp), got)
        return FlucidSyntaxError(msg, self.span(self.pos, self.pos), exp)

    def expect_sym(self, sym: str) -> int:
        if not self.at_sym(sym):
            raise self.fail([sym])
        return self.advance()

    def expect_kw(self, word: str) -> int:
        if not self.at_kw(word):
            raise self.fail([word])
        return self.advance()

    def expect_ident(self) -> str:
        if self.kind != "IDENT":
            raise self.fail(["identifier"])
        return self.values[self.advance()]

    def _op_dim_suffix(self) -> Optional[str]:
        # fby.d / @.d : a dimension rider on an intensional operator
        if self.at_sym(".") and self.kinds[self.pos + 1] == "IDENT":
            self.advance()
            return self.values[self.advance()]
        return None

    def _starts_expression(self) -> bool:
        if self.kind == "KW":
            return self.value in _EXPR_START_KWS
        if self.kind == "SYM":
            return self.value in _EXPR_START_SYMS
        return self.kind in _LEAVES

    # --- expressions ----------------------------------------------------------

    def expr(self, min_bp: int = WHERE) -> N.Node:
        """An expression whose binary operators bind at least min_bp."""
        leaf = _LEAVES.get(self.kind)
        if leaf is not None and self.depth < MAX_NESTING:
            # no operator or postfix follows an atom before a closer
            pos = self.pos
            closer = self.values[pos + 1]
            if closer in _CLOSERS and self.kinds[pos + 1] == "SYM":
                node = leaf(self.value, span=self.span(pos, pos))
                self.pos, self.kind, self.value = pos + 1, "SYM", closer
                return node
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FlucidSyntaxError("expression nested deeper than %d levels"
                                    % MAX_NESTING,
                                    self.span(self.pos, self.pos))
        left = self.operand()
        max_bp = ATOM
        while True:
            op = self.value
            bp = BINDING_POWER.get(op)
            if bp is None or not min_bp <= bp <= max_bp or self.kind == "STRING":
                break
            self.advance()
            if bp == WHERE:
                decls = self.parse_declarations()
                end = self.expect_kw("end")
                left = N.WhereExpr(left, tuple(decls),
                                   span=left.span.merge(self.span(end, end)))
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
            if self.value not in STREAM_BIN_OPS or self.kind != "KW":
                break
            op = self.values[self.advance()]
        for first, op, dim, annotation in reversed(links):
            left = N.StreamBin(op, first, left, dim, annotation,
                               span=first.span.merge(left.span))
        return left

    def operand(self) -> N.Node:
        """Prefix operators, then a primary and its postfix tail."""
        prefixes = []
        while self.value in _PREFIX_OPS and self.kind != "STRING":
            keyword = self.kind == "KW"
            tok = self.advance()
            prefixes.append((tok, self._op_dim_suffix() if keyword else None))
        node = self.postfix(self.primary())
        for tok, dim in reversed(prefixes):
            span = self.span(tok, tok).merge(node.span)
            if self.kinds[tok] == "SYM":
                node = N.UnaryOp(self.values[tok], node, span=span)
            else:
                node = N.StreamUnary(self.values[tok], node, dim, span=span)
        return node

    def postfix(self, base: N.Node) -> N.Node:
        while self.kind == "SYM":
            value = self.value
            if value == "(":
                self.advance()
                args = self._comma_exprs(")")
                close = self.expect_sym(")")
                base = N.Call(base, tuple(args),
                              span=base.span.merge(self.span(close, close)))
            elif value == "[":
                tok = self.advance()
                indices = self._comma_exprs("]")
                close = self.expect_sym("]")
                if not indices:
                    raise FlucidSyntaxError(
                        "empty subscript", self.span(tok, tok), ["expression"])
                base = N.Subscript(base, tuple(indices),
                                   span=base.span.merge(self.span(close, close)))
            elif value == "." and (self.kinds[self.pos + 1] == "IDENT"
                                   or self.at_next_sym("#")):
                self.advance()
                tok = self.advance()
                span = self.span(tok, tok)
                if self.kinds[tok] == "SYM":
                    member: N.Node = N.HashExpr(None, span=span)
                else:
                    member = N.Ident(self.values[tok], span=span)
                base = N.Dot(base, member, span=base.span.merge(span))
            elif value == "<" and self.starts[self.pos] == base.span.end:
                tup = self._try_angle_tuple(base)
                if tup is None:
                    return base
                base = tup
            else:
                return base
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
                                span=base.span.merge(self.span(close, close)))
        except FlucidSyntaxError:
            self.pos, self.depth = saved
            self.kind, self.value = self.kinds[self.pos], self.values[self.pos]
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
        tok, kind, value = self.pos, self.kind, self.value
        leaf = _LEAVES.get(kind)
        if leaf is not None:
            self.advance()
            return leaf(value, span=self.span(tok, tok))
        if kind == "SYM":
            if value == "(":
                return self._parse_paren(tok)
            if value == "[":
                return self.parse_bracket()
            if value == "$":
                self.advance()
                return N.NoObsLit(span=self.span(tok, tok))
            if value in ("INF+", "INF-"):
                self.advance()
                return N.SentinelLit(value, span=self.span(tok, tok))
            if value == "\\0":
                self.advance()
                self.expect_sym("(")
                prop = self.expr()
                close = self.expect_sym(")")
                return N.ZeroObs(prop, span=self.span(tok, close))
            if value == "#":
                self.advance()
                if self.kind == "IDENT" or self.at_sym("("):
                    target = self.postfix(self.primary())
                    return N.HashExpr(target, span=self.span(tok, tok).merge(
                        target.span))
                return N.HashExpr(None, span=self.span(tok, tok))
            if value == "{":
                return self._parse_brace(tok)
        if kind == "KW":
            if value in ("true", "false"):
                self.advance()
                return N.BoolLit(value == "true", span=self.span(tok, tok))
            if value in ("eod", "bod"):
                self.advance()
                return N.SentinelLit(value, span=self.span(tok, tok))
            if value == "if":
                return self._parse_if(tok)
            if value == "select":
                self.advance()
                self.expect_sym("(")
                index = self.expr()
                self.expect_sym(",")
                source = self.expr()
                close = self.expect_sym(")")
                return N.Select(index, source, span=self.span(tok, close))
            if value == "Box":
                return self._parse_box(tok)
            if value in FORENSIC_CALLS and self.at_next_sym("("):
                self.advance()
                self.advance()
                args = self._comma_exprs(")")
                close = self.expect_sym(")")
                return N.Call(N.Ident(value, span=self.span(tok, tok)),
                              tuple(args), span=self.span(tok, close))
        raise self.fail(["expression"])

    def _parse_paren(self, open_tok: int) -> N.Node:
        self.advance()
        items: List[N.Node] = []
        described = False
        while True:
            item = self.expr()
            if self.at_sym("=>"):
                self.advance()
                if self.kind != "STRING":
                    raise self.fail(["string"])
                text = self.advance()
                item = N.Described(item, self.values[text],
                                   span=item.span.merge(self.span(text, text)))
                described = True
            items.append(item)
            if self.at_sym(","):
                self.advance()
                continue
            break
        close = self.expect_sym(")")
        if len(items) == 1 and not described:
            return items[0]
        return N.TupleLit(tuple(items), span=self.span(open_tok, close))

    def parse_bracket(self) -> N.Node:
        open_tok = self.expect_sym("[")
        entries: List[N.BracketEntry] = []
        while not self.at_sym("]"):
            first = self.expr()
            if self.value in (":", "=>") and self.kind == "SYM":
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
        return N.BracketLit(tuple(entries), span=self.span(open_tok, close))

    def _parse_brace(self, open_tok: int) -> N.Node:
        self.advance()
        if self.at_sym("}"):
            close = self.advance()
            return N.BraceLit((), span=self.span(open_tok, close))
        first = self.expr()
        if self.at_kw("to"):
            self.advance()
            hi = self.expr()
            step = None
            if self.at_kw("step"):
                self.advance()
                step = self.expr()
            close = self.expect_sym("}")
            return N.RangeLit(first, hi, step, span=self.span(open_tok, close))
        items = [first]
        while self.at_sym(","):
            self.advance()
            items.append(self.expr())
        close = self.expect_sym("}")
        return N.BraceLit(tuple(items), span=self.span(open_tok, close))

    def _parse_if(self, tok: int) -> N.Node:
        self.advance()
        cond = self.expr(CTX)
        self.expect_kw("then")
        then_branch = self.expr(CTX)
        self.expect_kw("else")
        else_branch = self.expr(CTX)
        close = self.expect_kw("fi")
        return N.IfExpr(cond, then_branch, else_branch,
                        span=self.span(tok, close))

    def _parse_box(self, tok: int) -> N.Node:
        self.advance()
        self.expect_sym("[")
        dims = [self.expr()]
        while self.at_sym(","):
            self.advance()
            dims.append(self.expr())
        self.expect_sym("\\")
        predicate = self.expr()
        close = self.expect_sym("]")
        return N.BoxExpr(tuple(dims), predicate, span=self.span(tok, close))

    # --- declarations ---------------------------------------------------------

    def parse_declarations(self) -> List[N.Node]:
        decls: List[N.Node] = []
        if self.at_kw("end"):
            raise FlucidSyntaxError("a where clause needs at least one declaration",
                                    self.span(self.pos, self.pos),
                                    ["declaration"])
        while not self.at_kw("end"):
            if self.at_kw("dimension"):
                decls.append(self._parse_dim_decl())
            elif self.at_kw("observation"):
                decls.append(self._parse_observation_decl())
            elif self.at_kw("evidential"):
                decls.append(self._parse_es_decl())
            elif self.kind == "IDENT":
                decls.append(self._parse_assignment())
            elif self.kind == "EOF":
                raise self.fail(["end"])
            else:
                raise self.fail(["dimension", "observation",
                                 "evidential statement", "identifier"])
        return decls

    def _parse_dim_decl(self) -> N.Node:
        kw = self.advance()
        names = [self.expect_ident()]
        while self.at_sym(","):
            self.advance()
            names.append(self.expect_ident())
        flags: Tuple[str, ...] = ()
        tags = None
        value = None
        if self.at_sym(":"):
            self.advance()
            flags = self._decl_flags()
            if self.at_sym("{"):
                tags = self._parse_brace(self.pos)
            elif not flags:
                raise self.fail(["tag set", "ordering flag"])
        elif self.at_sym("="):
            self.advance()
            value = self.expr()
        semi = self.expect_sym(";")
        return N.DimDecl(tuple(names), flags, tags, value,
                         span=self.span(kw, semi))

    def _parse_observation_decl(self) -> N.Node:
        kw = self.advance()
        if self.at_kw("sequence"):
            self.advance()
            flags = self._decl_flags()
            name, value, semi = self._named_value()
            return N.OsDecl(name, flags, value, span=self.span(kw, semi))
        name, value, semi = self._named_value()
        return N.ObsDecl(name, value, span=self.span(kw, semi))

    def _parse_es_decl(self) -> N.Node:
        kw = self.advance()
        self.expect_kw("statement")
        flags = self._decl_flags()
        name, value, semi = self._named_value()
        return N.EsDecl(name, flags, value, span=self.span(kw, semi))

    def _named_value(self) -> Tuple[str, Optional[N.Node], int]:
        # name [= expr] ;
        name = self.expect_ident()
        value = None
        if self.at_sym("="):
            self.advance()
            value = self.expr()
        return name, value, self.expect_sym(";")

    def _decl_flags(self) -> Tuple[str, ...]:
        flags: List[str] = []
        while self.kind == "KW" and self.value in DIM_FLAGS:
            flags.append(self.values[self.advance()])
        return tuple(flags)

    def _parse_assignment(self) -> N.Node:
        lhs = self.postfix(self.primary())
        self.expect_sym("=")
        rhs = self.expr()
        semi = self.expect_sym(";")
        span = lhs.span.merge(self.span(semi, semi))
        if isinstance(lhs, N.Ident):
            return N.VarDecl(lhs.name, rhs, span=span)
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
        raise FlucidSyntaxError("declaration target must be an identifier "
                                "or a function head", lhs.span,
                                ["identifier"])


def _ident_names(exprs: Sequence[N.Node]) -> Optional[Tuple[str, ...]]:
    names: List[str] = []
    for e in exprs:
        if not isinstance(e, N.Ident):
            return None
        names.append(e.name)
    return tuple(names)


def parse(source: Union[str, TokenStream]) -> N.Node:
    """Parse a whole program (one expression, usually with a where).

    source is text or the stream that tokenize made of it.
    """
    check_type(source, (str, TokenStream), "parse takes text or a TokenStream")
    p = _Parser(tokenize(source) if isinstance(source, str) else source)
    tree = p.expr()
    if p.at_sym(";"):
        p.advance()
    if p.kind != "EOF":
        raise p.fail(["end of input"])
    return tree
