"""Syntax-tree nodes.

Every node carries a source span, a keyword-only field of Node that is
excluded from equality, so that the pretty-print round trip can compare
trees structurally.  Expression and declaration kinds mirror the
concrete grammar one to one; bracket, brace, and parenthesis literals
stay generic here, and the evaluator gives them their forensic meaning
(observation, sequence, statement, context) when it evaluates them.

Every tree walker goes through the three functions at the end: children()
lists a node's child nodes, walk() visits a tree in pre-order, and fold()
computes bottom-up.  None of them recurses, so tree depth is bounded by
memory, not by the interpreter's stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache
from operator import is_
from typing import (Callable, Iterator, List, Optional, Sequence, Tuple,
                    TypeVar, Union, get_args, get_origin, get_type_hints)

from .lexer import Span


@dataclass(eq=True)
class Node:
    span: Span = field(default=Span(), compare=False, repr=False,
                       kw_only=True)


# --- expressions -----------------------------------------------------------


@dataclass(eq=True)
class Ident(Node):
    name: str


@dataclass(eq=True)
class IntLit(Node):
    value: int


@dataclass(eq=True)
class RealLit(Node):
    value: float


@dataclass(eq=True)
class StringLit(Node):
    value: str


@dataclass(eq=True)
class BoolLit(Node):
    value: bool


@dataclass(eq=True)
class SentinelLit(Node):
    name: str                   # eod | bod | INF+ | INF-


@dataclass(eq=True)
class NoObsLit(Node):
    pass


@dataclass(eq=True)
class ZeroObs(Node):
    prop: Node


@dataclass(eq=True)
class Described(Node):
    """E => "free text": a human-readable annotation on a property."""
    expr: Node
    text: str


@dataclass(eq=True)
class TupleLit(Node):
    """Parenthesized comma list; arity 1..5 may mean an observation."""
    items: Tuple[Node, ...]


@dataclass(eq=True)
class BracketEntry(Node):
    key: Optional[Node]         # None for a bare array element
    value: Node


@dataclass(eq=True)
class BracketLit(Node):
    entries: Tuple[BracketEntry, ...]


@dataclass(eq=True)
class BraceLit(Node):
    items: Tuple[Node, ...]


@dataclass(eq=True)
class RangeLit(Node):
    """{lo to hi [step s]} inside a dimension declaration."""
    lo: Node
    hi: Node
    step: Optional[Node]


@dataclass(eq=True)
class AngleTuple(Node):
    """dim<E, ..., E>: a finite stream along the named dimension."""
    dim: Node
    items: Tuple[Node, ...]


@dataclass(eq=True)
class IfExpr(Node):
    cond: Node
    then_branch: Node
    else_branch: Node


@dataclass(eq=True)
class HashExpr(Node):
    target: Optional[Node]      # None: the whole current context


@dataclass(eq=True)
class AtExpr(Node):
    left: Node
    right: Node
    dim: Optional[str] = None   # @.d navigates one named dimension


@dataclass(eq=True)
class UnaryOp(Node):
    op: str                     # + - ! ~
    operand: Node


@dataclass(eq=True)
class StreamUnary(Node):
    op: str                     # first next prev last second prelast
    operand: Node               # iseod isbod neg not
    dim: Optional[str] = None


@dataclass(eq=True)
class BinOp(Node):
    op: str                     # arithmetic, relational, && ||
    left: Node
    right: Node


@dataclass(eq=True)
class StreamBin(Node):
    op: str                     # fby-family, logical words, combine, product
    left: Node
    right: Node
    dim: Optional[str] = None
    annotation: Optional[Node] = None   # pby [es.#, I:"..."] hop context


@dataclass(eq=True)
class CtxBin(Node):
    op: str                     # isSubContext difference intersection
    left: Node                  # projection hiding override union in
    right: Node


@dataclass(eq=True)
class Call(Node):
    func: Node
    args: Tuple[Node, ...]


@dataclass(eq=True)
class Subscript(Node):
    base: Node
    indices: Tuple[Node, ...]


@dataclass(eq=True)
class Dot(Node):
    base: Node
    member: Node                # Ident or bare HashExpr


@dataclass(eq=True)
class Select(Node):
    index: Node
    source: Node


@dataclass(eq=True)
class BoxExpr(Node):
    dims: Tuple[Node, ...]
    predicate: Node


@dataclass(eq=True)
class WhereExpr(Node):
    body: Node
    decls: Tuple[Node, ...]


# --- declarations ----------------------------------------------------------


@dataclass(eq=True)
class DimDecl(Node):
    names: Tuple[str, ...]
    flags: Tuple[str, ...] = ()          # ordered/unordered finite/infinite ...
    tags: Optional[Node] = None          # BraceLit of tag exprs or RangeLit
    value: Optional[Node] = None         # dimension d = E


@dataclass(eq=True)
class ObsDecl(Node):
    name: str
    value: Optional[Node] = None


@dataclass(eq=True)
class OsDecl(Node):
    name: str
    flags: Tuple[str, ...] = ()
    value: Optional[Node] = None


@dataclass(eq=True)
class EsDecl(Node):
    name: str
    flags: Tuple[str, ...] = ()
    value: Optional[Node] = None


@dataclass(eq=True)
class VarDecl(Node):
    name: str
    expr: Node


@dataclass(eq=True)
class FuncDecl(Node):
    name: str
    dim_params: Tuple[str, ...]
    params: Tuple[str, ...]
    body: Node


# --- the generic walk ----------------------------------------------------------


@cache
def _child_fields(cls: type) -> Tuple[Tuple[str, bool], ...]:
    """(name, holds a tuple) for each field of cls typed as a node, an
    optional node or a tuple of nodes, in declaration order."""
    if not (is_dataclass(cls) and issubclass(cls, Node)):
        return ()
    hints = get_type_hints(cls)
    table = []
    for f in fields(cls):
        hint = hints[f.name]
        origin = get_origin(hint)
        if origin in (tuple, Union):
            hint = get_args(hint)[0]
        if isinstance(hint, type) and issubclass(hint, Node):
            table.append((f.name, origin is tuple))
    return tuple(table)


def children(node) -> List[Node]:
    """The child nodes of node in field order; none for a non-node."""
    kids: List[Node] = []
    for name, many in _child_fields(type(node)):
        value = getattr(node, name)
        if many:
            kids += value
        elif value is not None:
            kids.append(value)
    return kids


def with_children(node: Node, new: Sequence) -> Node:
    """node with its children, in children() order, replaced by new.

    Returns node itself when every new child is the old one.
    """
    if not new or all(map(is_, children(node), new)):
        return node
    old, node = node, object.__new__(type(node))
    node.__dict__.update(old.__dict__)      # a copy, spans included
    pos = 0
    for name, many in _child_fields(type(node)):
        value = getattr(node, name)
        if many:
            setattr(node, name, tuple(new[pos:pos + len(value)]))
            pos += len(value)
        elif value is not None:
            setattr(node, name, new[pos])
            pos += 1
    return node


def walk(tree) -> Iterator:
    """Every node of tree in pre-order, children in field order."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack += reversed(children(node))


R = TypeVar("R")


def fold(tree, leave: Callable[[object, Sequence[R]], R],
         kids: Callable[[object], Sequence] = children) -> R:
    """Compute bottom-up over tree without recursion.

    kids(node) is called once per node, in pre-order, and names the
    children to visit, in visiting order; leave(node, results) is called
    once per node, in post-order, with a new list of the results for
    those children.  A caller that needs to act on the way down (opening
    a scope, say) does it in its own kids.  When kids(node) returns None,
    leave is not called and the node is its own result.
    """
    todo = kids(tree)
    if todo is None:
        return tree
    stack = [(tree, iter(todo), [])]
    while True:
        node, todo, done = stack[-1]
        for child in todo:
            grandkids = kids(child)
            if grandkids:
                stack.append((child, iter(grandkids), []))
                break
            done.append(child if grandkids is None else leave(child, []))
        else:
            stack.pop()
            result = leave(node, done)
            if not stack:
                return result
            stack[-1][2].append(result)
