"""Spans around flucid's public entry points, recorded from outside.

install() replaces each entry point at the module attribute its callers
resolve, so one wrapper sees both the benchmark's own call and the
program's nested one: `syntax.parse` and `semantics.analyze` as called by
encode_log's round-trip gate, `syntax.parser.tokenize` inside a parse of
raw text, and `era.check_claim` inside the evaluator's claim dispatch.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from flucid import encoders, era, evaluator, semantics, syntax
from flucid.syntax import parser

from inputs import BACKTRACE_CAP

# (module or class, attribute, span name)
TARGETS = (
    (encoders, "encode_log", "encoders.encode_log"),
    (syntax, "tokenize", "syntax.tokenize"),
    (parser, "tokenize", "syntax.tokenize"),
    (syntax, "parse", "syntax.parse"),
    (semantics, "analyze", "semantics.analyze"),
    (semantics, "rewrite_to_core", "semantics.rewrite_to_core"),
    (evaluator.Evaluator, "run", "evaluator.run"),
    (era, "load_fsm", "era.load_fsm"),
    (era, "load_es", "era.load_es"),
    (era, "check_claim", "era.check_claim"),
)
LAYER_OF = {"encoders.encode_log": "encoders", "syntax.tokenize": "syntax",
            "syntax.parse": "syntax", "semantics.analyze": "semantics",
            "semantics.rewrite_to_core": "semantics",
            "evaluator.run": "evaluator", "era.load_fsm": "era",
            "era.load_es": "era", "era.check_claim": "era"}


class Tracer:
    """Span recorder: each span is [name, start, end, parent, op]."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def _count(self, name: str, args: tuple, result: Any,
               exc: Optional[Exception]) -> None:
        c = self.counts
        if name == "evaluator.run":
            c["evaluator.warehouse_entries"] += len(args[0].warehouse)
            c["evaluator.depth_failures"] += exc is not None and (
                isinstance(exc, RecursionError)
                or "demand depth exceeded" in str(exc))
        elif exc is not None:
            return
        elif name == "syntax.tokenize":
            c["syntax.tokens"] += len(result)
            c["syntax.chars"] += len(args[0])
        elif name == "semantics.analyze":
            c["semantics.definitions"] += len(result.env)
        elif name == "encoders.encode_log":
            c["encoders.records"] += len(args[0])
            c["encoders.bytes_out"] += len(result.encode("utf-8"))
        elif name == "era.check_claim":
            c["era.claims"] += 1
            c["era.states"] += len(args[0].states)
            c["era.backtraces"] += len(result.backtraces)
            c["era.truncated_claims"] += \
                len(result.backtraces) == BACKTRACE_CAP
            c["era.consistent"] += bool(result.consistent)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, now = self.spans, self._stack, time.perf_counter

        def traced(*args, **kw):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = now()
            try:
                result = fn(*args, **kw)
            except Exception as exc:
                span[2] = now()
                stack.pop()
                self._count(name, args, None, exc)
                raise
            span[2] = now()
            stack.pop()
            self._count(name, args, result, None)
            return result

        return traced

    def _count_demands(self, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kw):
            counts["evaluator.demands"] += 1
            return fn(*args, **kw)

        return counted

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            self._replace(owner, attr, self._wrap(name, owner.__dict__[attr]))
        # every demand, warehouse hit or not, passes through this method;
        # a counter and no span, since it is the evaluator's hottest call
        self._replace(evaluator.Evaluator, "demand", self._count_demands(
            evaluator.Evaluator.__dict__["demand"]))

    def _replace(self, owner: Any, attr: str, new: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: List[List[Any]]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _n, start, end, _p, _o in spans]
    for _n, start, end, parent, _o in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans: List[List[Any]]) -> Dict[str, float]:
    """Seconds per span name ("<name>") and self seconds per span name
    ("<name>.self") and per layer ("<layer>.self")."""
    out: Dict[str, float] = Counter()
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        out[name] += span[2] - span[1]
        out[name + ".self"] += own
        out[LAYER_OF[name] + ".self"] += own
    return out


def root_time_by_op(spans: List[List[Any]]) -> Dict[int, float]:
    """Per op, the time covered by spans with no parent."""
    out: Dict[int, float] = Counter()
    for _n, start, end, parent, op in spans:
        if parent < 0:
            out[op] += end - start
    return out
