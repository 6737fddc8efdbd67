"""The benchmark's calls into flucid, and the checks of their results.

Every call goes through a module attribute (`syntax.parse`, not a name
imported from it), so that the traced run's wrappers on those
attributes see the benchmark's calls as well as the program's own.
"""

from __future__ import annotations

import sys
from typing import Any

from flucid import encoders, era, evaluator, semantics, syntax
from flucid.values import FlucidError

from inputs import (BLACKMAIL_PATHS, ENCODE_NOW, ENCODE_TZ, PARTIAL_W, TESTS,
                    Op)


class Mismatch(Exception):
    """An op's result disagrees with its reference."""


def error_type(exc: Exception) -> str:
    """The exception's type name, marked when it is not a FlucidError:
    every public entry point is meant to raise only FlucidError."""
    name = type(exc).__name__
    return name if isinstance(exc, FlucidError) else name + "(raw)"


def _evaluate(text: str, core: bool) -> Any:
    tree = syntax.parse(syntax.tokenize(text))
    if core:
        tree = semantics.rewrite_to_core(tree)
    analysis = semantics.analyze(tree)
    return evaluator.Evaluator(analysis).run()


def run(op: Op) -> Any:
    """Run one op through the public entry points of each layer."""
    if op.kind == "program":
        text, core = op.payload
        return _evaluate(text, core)
    if op.kind == "claim":
        fsm_text, es_text, horizon = op.payload
        fsm = era.load_fsm(fsm_text)
        es = era.load_es(es_text)
        return fsm, era.check_claim(fsm, es, horizon=horizon)
    records, preset, name = op.payload
    text = encoders.encode_log(records, name, "bench/%s" % preset,
                               encoders.PRESETS[preset], now=ENCODE_NOW,
                               tz=ENCODE_TZ)
    return _evaluate(text, False)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def _require(ok: bool, op: Op, what: str) -> None:
    if not ok:
        raise Mismatch("%s: %s" % (op.cls, what))


def _chained(fsm, backtrace) -> bool:
    return all(fsm.fires(e, s) and fsm.successor(e, s) == s2
               for (e, s), (_e2, s2) in zip(backtrace, backtrace[1:]))


def _check_case(op: Op, name: str, result) -> None:
    if name == "acme":
        _require(not result.consistent and result.explanations == ()
                 and result.backtraces == (), op, "acme must be inconsistent")
    elif name == "acme_no_alice":
        finals = {bt[-1][1].lower() for bt in result.backtraces}
        _require(result.consistent and "(b_deleted,b_deleted)" in finals, op,
                 "acme_no_alice must end in (b_deleted,b_deleted)")
    else:
        def states(backtraces):
            return {tuple(s for _, s in bt) for bt in backtraces}

        want = states(BLACKMAIL_PATHS)
        paths = states(result.backtraces)
        _require(result.consistent and result.route == "declared"
                 and paths == want, op, "blackmail must have its two paths")


def _check_fixture(op: Op, want: dict, fsm, result) -> None:
    _require(result.consistent == want["consistent"], op,
             "verdict %s at horizon %d" % (result.consistent, op.payload[2]))
    _require(all(_chained(fsm, bt) for bt in result.backtraces), op,
             "a backtrace steps through a transition that does not fire")
    if "backtraces" in want:
        _require(set(result.backtraces) == set(want["backtraces"]), op,
                 "backtraces differ at horizon %d" % op.payload[2])
    else:
        first, last = want["contains"]
        _require(any(bt[0][1] == first and bt[-1][1] == last
                     for bt in result.backtraces), op,
                 "no backtrace from %s to %s" % (first, last))


def _check_random(op: Op, want: dict, fsm, result) -> None:
    _require(result.consistent == want["consistent"], op, "planted verdict")
    if len(fsm.states) <= 5 and op.payload[2] <= 4:
        _cross_check_oracle(op, want, fsm)
    if not want["consistent"]:
        _require(result.backtraces == () and result.explanations == (), op,
                 "an inconsistent claim has explanations")
        return
    _require(bool(result.backtraces), op, "a consistent claim has none")
    for bt in result.backtraces:
        _require(bt[0][1] == want["start"] and bt[-1] == ("*", want["target"])
                 and all(e != want["guarded"] for e, _ in bt)
                 and _chained(fsm, bt), op,
                 "backtrace %r breaks the planted claim" % (bt,))


def _cross_check_oracle(op: Op, want: dict, fsm) -> None:
    """Both routes against the brute-force oracle of the test suite."""
    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))
    from oracles import OProp, check_claim_oracle

    start, target = want["start"], want["target"]
    everything = (OProp(anything=True), 0, "INF+")
    oss = [[(OProp(deny=frozenset({want["guarded"]})), 0, "INF+"),
            (OProp(states=frozenset({target})), 1, 0)],
           [everything, (OProp(states=frozenset({target})), 1, 0)],
           [(OProp(states=frozenset({start})), 1, 0), everything]]
    horizon = op.payload[2]
    verdict, runs = check_claim_oracle(want["transitions"], want["states"],
                                       want["events"], oss, horizon)
    es = era.load_es(op.payload[1])
    for route in ("exact", "layered"):
        got = era.check_claim(fsm, es, horizon=horizon, route=route,
                              max_backtraces=100000)
        found = {(sum(m.lens[0]), c)
                 for m in got.explanations for c in m.computations}
        _require(got.consistent == verdict and found == runs, op,
                 "%s route disagrees with the oracle" % route)


def _check_doc(op: Op, want, value) -> None:
    obs = value.observations
    _require(len(obs) == len(want), op,
             "%d observations for %d records" % (len(obs), len(want)))
    for i, (o, (bad, t)) in enumerate(zip(obs, want)):
        _require(o.w == (PARTIAL_W if bad else 1.0) and o.t == t, op,
                 "record %d encodes as w=%r t=%r" % (i + 1, o.w, o.t))


def check(op: Op, result: Any) -> None:
    """Raise Mismatch unless result agrees with op's reference."""
    tag, want = op.expect
    if tag == "case":
        _check_case(op, want, result)
    elif tag == "fixture":
        _check_fixture(op, want, *result)
    elif tag == "random":
        _check_random(op, want, *result)
    elif tag == "doc":
        _check_doc(op, want, result)
    else:
        _require(result == want, op, "value %r, expected %r" % (result, want))
