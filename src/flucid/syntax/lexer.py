"""Tokenizer for the case-specification language.

tokenize returns a TokenStream, the one token representation: parallel
lists of kind, value, start and end offset, and the source's newline
offsets.  TokenStream.span builds a Span on request, whose line and
column are derived when read.  Every lexical error carries the span of
the offending text.  Notable lexemes:

  - hyphenated identifiers (flow-start, port-state): a hyphen is absorbed
    only directly between identifier characters when a letter or
    underscore follows, so spaced subtraction is unaffected;
  - INF+/INF- and the +INF/-INF spellings collapse to one sentinel each;
    a bare INF, at the end of input too, is an identifier;
  - \\0 (and the typeset variant \\O before a parenthesis) starts a
    zero-observation; other backslash words are context operators;
  - #JAVA, #CPP and the other hybrid-language segment markers are
    rejected rather than read as # applied to a name;
  - numbers are ASCII digits only; any other digit character is an
    error, as is an integer literal too long to convert;
  - two-word keywords (observation sequence, evidential statement) come
    out as two keyword tokens and are joined by the parser.

One compiled pattern, tried at each position, finds the next lexeme
together with the whitespace and comments before it.  Words that are
not pure ASCII, and characters the pattern does not match, take a short
character-level path (_odd_lexeme), since Python's \\w has no
"letter" class to tell an identifier start from a digit such as "²".
"""

from __future__ import annotations

import re
from bisect import bisect_left
from operator import itemgetter
from typing import Any, List, Tuple

from ..values import FlucidError, check_type


class LexicalError(FlucidError):
    def __init__(self, message: str, span: "Span"):
        super().__init__("%s at line %d, column %d" % (message, span.line, span.col))
        self.span = span


class Span(tuple):
    """A source range held as (offset, end, the newline offsets of its
    source): line and col are derived when read.  Span() is the empty
    range of a node that no source text spelled."""

    __slots__ = ()
    offset = property(itemgetter(0))
    end = property(itemgetter(1))
    line = property(lambda self: bisect_left(self[2], self[0]) + 1)

    def __new__(cls, offset: int = 0, end: int = 0, newlines=()) -> Span:
        return _new(cls, (offset, end, newlines))

    def __getnewargs__(self) -> Tuple[Any, ...]:    # for copy and pickle
        return tuple(self)

    @property
    def col(self) -> int:
        line = bisect_left(self[2], self[0])
        return self[0] - (self[2][line - 1] if line else -1)

    def merge(self, other: Span) -> Span:
        if other[0] < self[0]:
            return other.merge(self)
        return _new(Span, (self[0], max(self[1], other[1]), self[2]))

    def __repr__(self) -> str:
        return "Span(line=%r, col=%r, offset=%r, end=%r)" % (
            self.line, self.col, self[0], self[1])


_new = tuple.__new__


class TokenStream:
    """tokenize's result: parallel lists of each token's kind, value,
    start and end offset, and the offsets of the source's newlines."""

    __slots__ = ("kinds", "values", "starts", "ends", "newlines")

    def __init__(self, kinds: List[str], values: List[Any], starts: List[int],
                 ends: List[int], newlines: Tuple[int, ...]):
        self.kinds, self.values = kinds, values
        self.starts, self.ends = starts, ends
        self.newlines = newlines

    def span(self, first: int, last: int) -> Span:
        """From the start of token first to the end of token last."""
        return _new(Span, (self.starts[first], self.ends[last], self.newlines))

    def __len__(self) -> int:
        return len(self.kinds)


# "in" is reserved with no production: a bare membership test has no
# evaluation rule, and \in is the context operator
KEYWORDS = frozenset("""
    where end dimension observation sequence evidential statement
    ordered unordered finite infinite periodic nonperiodic
    if then else fi select Box true false in to step
    fby pby wvr rwvr nwvr nrwvr asa nasa ala nala
    upon rupon nupon nrupon
    first next prev last second prelast iseod isbod
    neg not and or xor nand nor nxor band bor bxor
    combine product bel pl eod bod
""".split())

CONTEXT_OPS = frozenset([
    "isSubContext", "difference", "intersection", "projection",
    "hiding", "override", "union", "in",
])

# raised as unsupported, not silently mis-lexed as # applied to a name
HYBRID_SEGMENTS = frozenset(["JAVA", "CPP", "FORTRAN", "PERL", "PHP", "PYTHON"])

# Group names are token kinds, or lower-case for the lexemes that
# tokenize() and _odd_lexeme handle apart.  Order matters where two
# alternatives share a first character.  [^\W\d] is a superset of the
# identifier-start characters that is exact on ASCII.
_LEXEME = re.compile(r"""[ \t\r\n]*(?:
    (?P<comment> //[^\n]* | /\*[\s\S]*?\*/ )
  | (?P<open_comment> /\* )
  | (?P<STRING> "[^"\\\n]*(?:\\.[^"\\\n]*)*" )
  | (?P<REAL> [0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+) )
  | (?P<INT> [0-9]+ )
  | (?P<signed_inf> [+-]INF(?!\w) )
  | (?P<hybrid> \#(?:%s)(?!\w) )
  | (?P<SYM> INF(?:\+|-(?![^\W\d]))
      | \\(?:0|(?:%s)(?!\w)|(?![^\W\d]))
      | => | == | != | <= | >= | && | \|\|
      | [-@\#$()\[\]{}<>,;:.=+*/%%!~] )
  | (?P<IDENT> [^\W\d]\w*(?:-[^\W\d]\w*)* )
  | (?P<typeset_zero> \\O(?=\() )
  | (?P<EOF> \Z )
  | (?P<odd> [\s\S] )
)""" % ("|".join(sorted(HYBRID_SEGMENTS)), "|".join(sorted(CONTEXT_OPS))),
    re.VERBOSE)
_WORD_CHARS = re.compile(r"\w*")
_STRING_HEAD = re.compile(r'"(?:[^"\\\n]|\\[^\n]?)*')
_ESCAPE = re.compile(r'\\(["\\])')


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def tokenize(text: str) -> TokenStream:
    """Scan text into a token stream ending with an EOF token."""
    check_type(text, str, "tokenize takes text")
    # one flat list of (kind, value, start, end) runs, split at the end
    flat: List[Any] = []
    add = flat.extend
    newlines = tuple(m.start() for m in re.finditer("\n", text))
    match = _LEXEME.match
    pos = 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        if kind == "SYM":
            value: Any = text[start:pos]
        elif kind == "IDENT":
            value = text[start:pos]
            if value in KEYWORDS:
                kind = "KW"
            elif not value.isascii():
                kind, value, pos = _odd_lexeme(text, start, newlines)
        elif kind == "INT":
            try:
                value = int(text[start:pos])
            except ValueError:
                raise LexicalError("integer literal too long",
                                   _new(Span, (start, pos, newlines)))
        elif kind == "STRING":
            value = text[start + 1:pos - 1]
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
        elif kind == "REAL":
            value = float(text[start:pos])
        elif kind == "comment":
            continue
        elif kind == "EOF":
            break
        elif kind == "signed_inf":
            kind, value = "SYM", "INF" + text[start]
        elif kind == "typeset_zero":
            kind, value = "SYM", "\\0"
        else:
            kind, value, pos = _odd_lexeme(text, start, newlines)
        add((kind, value, start, pos))
    add(("EOF", "", start, start))
    return TokenStream(flat[::4], flat[1::4], flat[2::4], flat[3::4], newlines)


def _odd_lexeme(text: str, start: int,
                newlines: Tuple[int, ...]) -> Tuple[str, Any, int]:
    """(kind, value, end) of the lexeme at start, for the cases the
    pattern leaves to code; raises LexicalError for the errors."""

    def error(message: str, end: int) -> LexicalError:
        return LexicalError(message, _new(Span, (start, end, newlines)))

    c = text[start]
    if text.startswith("/*", start):
        raise error("unterminated block comment", len(text))
    if text.startswith("#", start):
        end = _WORD_CHARS.match(text, start + 1).end()
        raise error("hybrid segments unsupported", end)
    if c == '"':
        end = _STRING_HEAD.match(text, start).end()
        if end == len(text):
            raise error("unterminated string", end)
        raise error("newline inside string", end)
    if c == "\\":
        if not _is_ident_start(text[start + 1:start + 2]):
            return "SYM", "\\", start + 1
        end = _WORD_CHARS.match(text, start + 1).end()
        raise error("unknown context operator %s" % text[start:end], end)
    if _is_ident_start(c):
        end = _WORD_CHARS.match(text, start).end()
        while text.startswith("-", end) and _is_ident_start(text[end + 1:end + 2]):
            end = _WORD_CHARS.match(text, end + 1).end()
        word = text[start:end]
        if word == "INF" and text[end:end + 1] in ("+", "-"):
            return "SYM", "INF" + text[end], end + 1
        return ("KW" if word in KEYWORDS else "IDENT"), word, end
    if c.isdigit():
        raise error("illegal digit %r" % c, start + 1)
    raise error("illegal character %r" % c, start + 1)
