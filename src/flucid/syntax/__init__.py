"""Concrete syntax: lexer, parser, position-annotated trees, pretty-printer.

parse(pretty_print(t)) is structurally t (spans aside); parse accepts
raw text or the TokenStream of tokenize, whose parallel lists of kind,
value and offsets the parser reads by index.  Tokens (TokenStream.span),
nodes and errors carry one kind of Span, its line and column derived
from the source's newline offsets when read; Span() is the empty range
of a node that no source text spelled.
"""

from .lexer import LexicalError, Span, TokenStream, tokenize
from .nodes import (
    AngleTuple,
    AtExpr,
    BinOp,
    BoolLit,
    BoxExpr,
    BraceLit,
    BracketEntry,
    BracketLit,
    Call,
    CtxBin,
    Described,
    DimDecl,
    Dot,
    EsDecl,
    FuncDecl,
    HashExpr,
    Ident,
    IfExpr,
    IntLit,
    Node,
    NoObsLit,
    ObsDecl,
    OsDecl,
    RangeLit,
    RealLit,
    Select,
    SentinelLit,
    StreamBin,
    StreamUnary,
    StringLit,
    Subscript,
    TupleLit,
    UnaryOp,
    VarDecl,
    WhereExpr,
    ZeroObs,
)
from .parser import FlucidSyntaxError, parse
from .pretty import pretty_print

__all__ = [
    "AngleTuple", "AtExpr", "BinOp", "BoolLit", "BoxExpr", "BraceLit",
    "BracketEntry", "BracketLit", "Call", "CtxBin", "Described", "DimDecl",
    "Dot", "EsDecl", "FlucidSyntaxError", "FuncDecl", "HashExpr",
    "Ident", "IfExpr", "IntLit", "LexicalError", "Node",
    "NoObsLit", "ObsDecl", "OsDecl", "RangeLit", "RealLit", "Select",
    "SentinelLit", "Span", "StreamBin", "StreamUnary", "StringLit",
    "Subscript", "TokenStream", "TupleLit", "UnaryOp", "VarDecl",
    "WhereExpr", "ZeroObs", "parse", "pretty_print", "tokenize",
]
