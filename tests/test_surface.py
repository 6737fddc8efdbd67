"""The wrong-type gate over the public surface.

A name without a leading underscore is public.  The surface is every
public callable that the nine modules below reach, defined in flucid,
exception classes aside: the same names, counted the same way, as the
ROADMAP probe of D17.  Each required argument in turn takes None, 5,
b"x" and [1] while the others take the valid values of VALID below; the
call must return or raise a FlucidError.  A required parameter that
VALID has no entry for fails the gate, so a new public name cannot
skip it.  check_type is the one trusted helper: a caller names its
types, so a wrong-type argument to it is the caller's bug.
"""

import inspect

import pytest

import flucid
from flucid import calculus, dstme, encoders, era, evaluator, semantics, syntax
from flucid import values
from flucid.era import MPR, Property, StateMachine
from flucid.semantics import analyze
from flucid.syntax import nodes as N
from flucid.syntax import parse
from flucid.values import (EvidentialStatement, FlucidError,
                           ObservationSequence, SimpleContext, make_observation)

MODULES = (flucid, values, era, evaluator, semantics, syntax, encoders, dstme,
           calculus)

WRONG = (None, 5, b"x", [1])

TRUSTED = {values.check_type}

_OBS = make_observation("s")
_OS = ObservationSequence((_OBS,), name="a")
_ES = EvidentialStatement((_OS,))
_FSM = StateMachine(("s", "t"), ("e",), {("e", "s"): "t"}.get)
_RUNS = frozenset({(("*", "s"),)})
_NODE = N.IntLit(1)

# valid values by parameter name, or by "callable.parameter" where one
# name means different things; a node's fields take any node or text
VALID = {
    # values
    "property": "s", "observations": (_OBS,), "sequences": (_OS,),
    "name": "x", "v": 1, "min": 1, "max": 0,
    # era
    "fsm": _FSM, "es": _ES, "os": _OS, "horizon": 2,
    "x": MPR((1,), _RUNS), "y": MPR((1,), _RUNS), "computations": _RUNS,
    "meaning_fixed_length.os": ((Property(), 1),),
    "prop": "s", "states": ("s", "t"), "events": ("e",),
    "psi": {("e", "s"): "t"}.get, "lens": (1,), "MSPR.lens": ((1,),),
    "consistent": True, "explanations": (), "backtraces": (),
    "horizon_warning": False, "route": "layered",
    "load_fsm.text": "e s -> t\n",
    "load_es.text": "observation o = (s, 1, 0)\nsequence a = o\n"
                    "statement = a\n",
    # front end and evaluation
    "tokenize.text": "1 + 2", "source": "1 + 2", "program": "1 + 2",
    "tree": parse("1 + 2"), "analysis": analyze(parse("1 + 2")),
    "env": {}, "unique": "x", "kind": "var", "node": _NODE,
    "severity": "error", "code": "E", "message": "m",
    "span": syntax.Span(), "kinds": [], "values": [], "starts": [],
    "ends": [], "newlines": [],
    # syntax nodes
    "op": "+", "left": _NODE, "right": _NODE, "operand": _NODE,
    "value": _NODE, "key": _NODE, "expr": _NODE, "body": _NODE,
    "cond": _NODE, "then_branch": _NODE, "else_branch": _NODE,
    "items": (_NODE,), "entries": (), "args": (), "indices": (_NODE,),
    "decls": (), "dims": (), "names": ("d",), "dim_params": (),
    "params": (), "dim": _NODE, "predicate": _NODE, "func": _NODE,
    "base": _NODE, "member": _NODE, "index": _NODE, "target": _NODE,
    "lo": _NODE, "hi": _NODE, "step": _NODE, "text": "t",
    "Select.source": _NODE,
    # calculus and Dempster-Shafer
    "a": SimpleContext({"d": 1}), "b": SimpleContext({"e": 2}),
    "c": SimpleContext({"d": 1}), "sel": ("d",), "mode": "projection",
    "membership.op": "in", "credibility.kind": "bel", "f": _OBS,
    # encoders
    "lines": [{"ipaddr": "10.0.0.1", "mac": "aa:bb:cc:dd:ee:ff"}],
    "encode_log.name": "log", "case": "case", "name_or_path": "arp",
    "schema": encoders.PRESETS["arp"],
    "parse_schema.text": "field a -> dimension a type text\n",
    "s": "Jan  2 03:04:05", "encode_log.source": "log",
    "encode_to_files.source": "log",
}

_MISSING = object()


def _surface():
    """{callable: qualified name} of the public surface."""
    found = {}
    for module in MODULES:
        for name in dir(module):
            obj = getattr(module, name)
            if name.startswith("_") or not callable(obj) or \
                    not getattr(obj, "__module__", "").startswith("flucid") or \
                    (inspect.isclass(obj) and issubclass(obj, BaseException)):
                continue
            found.setdefault(obj, "%s.%s" % (module.__name__, name))
    return found


SURFACE = _surface()


def _required(entry):
    return [p.name for p in inspect.signature(entry).parameters.values()
            if p.default is p.empty and p.kind in (p.POSITIONAL_OR_KEYWORD,
                                                   p.KEYWORD_ONLY)]


def _valid(entry, param):
    return VALID.get("%s.%s" % (entry.__name__, param),
                     VALID.get(param, _MISSING))


def test_the_surface_is_what_the_underscore_leaves():
    assert len(SURFACE) <= 91
    names = {name.rsplit(".", 1)[1] for name in SURFACE.values()}
    assert not names & {"set_like", "MassAssignment", "belief",
                        "plausibility", "dempster_combine", "normalize_mac",
                        "normalize_hostname", "render_timestamp",
                        "collapse_stutters", "dedupe_wildcard_twins",
                        "default_horizon", "Thunk", "Frame", "Hypothesis",
                        "Schema", "FieldSpec", "Embed", "MemberAssign"}


@pytest.mark.parametrize("entry", sorted(SURFACE, key=SURFACE.get),
                         ids=SURFACE.get)
def test_a_wrong_type_argument_gets_a_flucid_error(entry, tmp_path,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)         # encode_to_files writes to "."
    if entry in TRUSTED:
        return
    required = _required(entry)
    valid = {param: _valid(entry, param) for param in required}
    assert _MISSING not in valid.values(), \
        "no valid value for %s" % [p for p, v in valid.items() if v is _MISSING]
    if required:
        entry(**valid)                  # the table's values are valid
    for param in required:
        for wrong in WRONG:
            try:
                entry(**{**valid, param: wrong})
            except FlucidError:
                pass
            except Exception as exc:
                pytest.fail("%s(%s=%r) raised %r" % (
                    SURFACE[entry], param, wrong, exc))


# wrong-typed members of a valid argument, which the gate above does not
# reach: (the call, what its message names)
_BAD_MEMBERS = {
    "Analysis.tree": (
        lambda: evaluator.Evaluator(semantics.Analysis(5, {})).run(), "tree"),
    "meaning_fixed_length.os": (
        lambda: era.meaning_fixed_length(_FSM, [(1, 1)]), "Property"),
    "expand_generic.os": (
        lambda: era.expand_generic(ObservationSequence((1,)), 2),
        "item 1 is 1"),
    "StateMachine.psi": (
        lambda: StateMachine(("s",), ("e",), {5: "s"}), "psi: a function"),
    "StateMachine.fires": (lambda: _FSM.fires([1], "s"), r"\(\[1\], 's'\)"),
    "StateMachine.successor": (
        lambda: _FSM.successor("e", [1]), r"\('e', \[1\]\)"),
    "StateMachine.target": (
        lambda: StateMachine(("s",), ("e",), {("e", "s"): [1]}.get).target(
            "e", "s"), r"-> \[1\]"),
    "TagSet.tags": (lambda: values.TagSet(tags=5), "tags"),
    "EvidentialStatement.sequences": (
        lambda: EvidentialStatement((_OBS,)), "sequence 1 is"),
    "Property.states": (lambda: Property(states="s"), "states"),
    "Observation.min": (lambda: values.Observation("s", min=[1]), "^min "),
    "Observation.max": (lambda: values.Observation("s", max=[1]), "^max "),
    "Observation.w": (lambda: values.Observation("s", w=[1]), "^w "),
    "Observation.t": (lambda: values.Observation("s", t=[1]), "^t "),
}


@pytest.mark.parametrize("member", sorted(_BAD_MEMBERS))
def test_a_wrong_type_member_gets_a_validation_error(member):
    call, named = _BAD_MEMBERS[member]
    with pytest.raises(values.ValidationError, match=named):
        call()
