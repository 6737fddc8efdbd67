"""Design guards: properties of the package's source, not of its output."""

import ast
import importlib
import inspect
import pathlib
import sys

import pytest

import flucid

PACKAGE = pathlib.Path(flucid.__file__).parent
PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def _imported_modules(path):
    """Absolute names of the modules and members a source file imports."""
    package = ["flucid"] + list(path.relative_to(PACKAGE).parent.parts)
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) + 1 - node.level] if node.level else []
            module = ".".join(base + [node.module or ""]).rstrip(".")
            yield module
            yield from (module + "." + alias.name for alias in node.names)


def test_no_module_imports_threads():
    # evaluation is sequential: under the GIL a pool only slows it down
    for path in sorted(PACKAGE.rglob("*.py")):
        for name in _imported_modules(path):
            assert name.split(".")[0] not in ("threading", "concurrent"), \
                "%s imports %s" % (path.relative_to(PACKAGE), name)


def test_no_module_imports_another_modules_private_name():
    # the underscore marks what only its own module calls
    for path in sorted(PACKAGE.rglob("*.py")):
        for name in _imported_modules(path):
            parts = name.split(".")
            assert parts[0] != "flucid" or not any(
                part.startswith("_") for part in parts[1:]), \
                "%s imports %s" % (path.relative_to(PACKAGE), name)


def test_front_end_does_not_import_the_reconstruction_engine():
    # era sits downstream of syntax and semantics in the pipeline
    front = [PACKAGE / "semantics.py"]
    front += sorted((PACKAGE / "syntax").rglob("*.py"))
    for path in front:
        for name in _imported_modules(path):
            assert name.split(".")[:2] != ["flucid", "era"], \
                "%s imports %s" % (path.relative_to(PACKAGE), name)


def test_encoder_writes_text_without_the_front_end():
    # encode_log renders values with values.to_source: it builds no node,
    # prints no tree and analyzes nothing
    path = PACKAGE / "encoders.py"
    for name in _imported_modules(path):
        assert not name.startswith(("flucid.syntax.nodes",
                                    "flucid.syntax.pretty",
                                    "flucid.semantics")), \
            "encoders.py imports %s" % name


def test_one_token_representation_and_one_span_class():
    # a stream is its parallel lists, read by index; every source range,
    # of a token, a node or an error, is a lexer.Span
    from collections.abc import Sequence

    from flucid import syntax
    from flucid.syntax import (FlucidSyntaxError, LexicalError, Span,
                               TokenStream, parse, tokenize)
    from flucid.syntax.nodes import walk

    assert not hasattr(syntax, "Token") and "Token" not in syntax.__all__
    assert not issubclass(TokenStream, Sequence)
    spans = []
    for path in sorted((pathlib.Path(__file__).parent / "cases").iterdir()):
        text = path.read_text(encoding="utf-8")
        toks = tokenize(text)
        spans += [toks.span(i, i) for i in range(len(toks))]
        spans += [node.span for node in walk(parse(toks))]
    for bad, error in (("x = \x00 1", LexicalError),
                       ("x = (1 +", FlucidSyntaxError)):
        with pytest.raises(error) as err:
            parse(bad)
        spans.append(err.value.span)
    assert len(spans) > 1000 and {type(span) for span in spans} == {Span}


def test_evaluation_errors_get_their_position_from_eval():
    # Evaluator.eval sets the span of the innermost source node, so a
    # raise site passes only its message
    path = PACKAGE / "evaluator.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) == "EvaluationError":
            assert len(node.args) == 1 and not node.keywords, \
                "evaluator.py:%d passes more than a message" % node.lineno


def test_psi_is_read_only_through_state_machine_target():
    # one psi interface: StateMachine.target calls psi and checks what it
    # gives, so no other code reads a machine's psi, and no reader tells
    # one kind of psi from another by a marker attribute
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        where = {}                  # id(node) -> enclosing class.function
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    for node in ast.walk(fn):
                        where[id(node)] = "%s.%s" % (
                            cls.name, getattr(fn, "name", ""))
        for node in ast.walk(tree):
            at = "%s:%d" % (path.relative_to(PACKAGE),
                            getattr(node, "lineno", 0))
            if isinstance(node, ast.Attribute) and node.attr == "psi":
                assert where.get(id(node), "").startswith("StateMachine."), \
                    "%s reads psi outside StateMachine" % at
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "attr", None) == "psi":
                assert where.get(id(node)) == "StateMachine.target", \
                    "%s calls psi outside StateMachine.target" % at
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) in ("getattr", "hasattr"):
                named = [a.value for a in node.args
                         if isinstance(a, ast.Constant)]
            else:
                named = [getattr(node, "attr", None)]
            assert "lazy" not in named, "%s sniffs an attribute `lazy`" % at


def test_no_module_changes_the_recursion_limit():
    # the limit is process-global: the caller owns it
    for path in sorted(PACKAGE.rglob("*.py")):
        assert "setrecursionlimit" not in path.read_text(), \
            "%s changes the recursion limit" % path.relative_to(PACKAGE)


def test_evaluation_runs_within_the_callers_recursion_limit():
    from flucid.evaluator import evaluate

    limit = sys.getrecursionlimit()
    seen = set()
    src = "N @.d 3000 where N = 42 fby.d (N + 1); end"
    assert evaluate(src, trace=lambda line: seen.add(
        sys.getrecursionlimit())) == 3042
    assert seen == {limit}


def test_programs_are_read_only_by_evaluation():
    # a guard's meaning is what _e_IfExpr gives it, and a claim's
    # hypotheses are what its body evaluates to; a second, syntactic
    # reader of guard chains, `where` bodies or hop chains would
    # disagree on every other spelling
    path = PACKAGE / "evaluator.py"
    banned = {"IfExpr", "WhereExpr", "StreamBin"}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        assert not (isinstance(node, ast.Attribute) and node.attr in banned), \
            "evaluator.py:%d matches on N.%s" % (node.lineno, node.attr)


def test_expanded_operators_have_one_implementation():
    # an operator analyze expands means its core template; evaluator.py
    # neither names it nor keeps a bound of its own for it
    from flucid.evaluator import Evaluator, evaluate
    from flucid.semantics import EXPANDED

    path = PACKAGE / "evaluator.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        assert not (isinstance(node, ast.Constant) and
                    node.value in EXPANDED), \
            "evaluator.py:%d names %r" % (node.lineno, node.value)
    for entry in (Evaluator, evaluate):
        assert "max_scan" not in inspect.signature(entry).parameters


def test_every_operator_the_grammar_reads_evaluates():
    # a construct the front end accepts has an evaluation rule: each
    # binary and prefix operator evaluates in a small well-typed program
    from flucid.evaluator import evaluate
    from flucid.syntax import parser as P

    streams = " where X = d<1, 2>; Y = d<1, 0>; end"
    contexts = " where dimension d; end"
    programs = []
    for op, power in P.BINDING_POWER.items():
        if op in ("\\projection", "\\hiding"):
            programs.append("[d:1, e:2] %s {d}" % op + contexts)
        elif power == P.CTX:
            programs.append("[d:1, e:2] %s [d:1]" % op + contexts)
        elif power in (P.STREAM, P.AT):
            programs.append("X %s.d Y" % op + streams)
        elif power != P.WHERE:
            programs.append("1 %s 1" % op)
    for op in P._PREFIX_OPS:
        if op in P.STREAM_UNARY_OPS:
            programs.append("%s.d X" % op + streams)
        else:
            programs.append("%s1" % op)
    for program in programs:
        evaluate(program)


def _console_scripts():
    """{name: "module:function"} of pyproject.toml's [project.scripts],
    read line by line: tomllib is 3.11+ and the package supports 3.10."""
    scripts, table = {}, None
    for line in PYPROJECT.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            table = line
        elif table == "[project.scripts]" and "=" in line:
            name, target = (part.strip().strip('"\'') for part in
                            line.split("=", 1))
            scripts[name] = target
    return scripts


def test_every_console_script_imports():
    # an installed package ships each script; one whose target does not
    # import fails on every run
    for name, target in _console_scripts().items():
        module, _, function = target.partition(":")
        assert callable(getattr(importlib.import_module(module), function)), \
            "script %s: %s is not callable" % (name, target)
