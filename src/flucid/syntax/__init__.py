"""Concrete syntax: lexer, parser, position-annotated trees, pretty-printer.

parse(pretty_print(t)) is structurally t (spans aside); parse accepts
either raw text or the TokenStream of tokenize.  A stream keeps its
tokens as parallel lists of kind, value and offsets, which the parser
reads by index; a Token is built only when the stream is indexed.
Tree nodes and errors carry Spans whose line and column are derived
from the source's newline offsets when read.
"""

from .lexer import LexicalError, Span, Token, TokenStream, tokenize
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
    Embed,
    EsDecl,
    FuncDecl,
    HashExpr,
    Ident,
    IfExpr,
    IntLit,
    MemberAssign,
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
    "Dot", "Embed", "EsDecl", "FlucidSyntaxError", "FuncDecl", "HashExpr",
    "Ident", "IfExpr", "IntLit", "LexicalError", "MemberAssign", "Node",
    "NoObsLit", "ObsDecl", "OsDecl", "RangeLit", "RealLit", "Select",
    "SentinelLit", "Span", "StreamBin", "StreamUnary", "StringLit",
    "Subscript", "Token", "TokenStream", "TupleLit", "UnaryOp", "VarDecl",
    "WhereExpr", "ZeroObs", "parse", "pretty_print", "tokenize",
]
