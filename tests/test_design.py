"""Design guards: properties of the package's source, not of its output."""

import ast
import inspect
import pathlib
import sys

import flucid

PACKAGE = pathlib.Path(flucid.__file__).parent


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


def test_parse_reads_the_token_lists(monkeypatch):
    # a Token is a view built on indexing a stream; parsing builds none
    from flucid.encoders import PRESETS, encode_log
    from flucid.syntax import lexer, parse, parser

    records = [{"ts": 1_600_000_000 + k, "ipaddr": "10.0.0.%d" % k,
                "mac": "aa:bb:cc:dd:ee:%02x" % k, "hostname": "host-%d" % k}
               for k in range(50)]
    sources = [(pathlib.Path(__file__).parent / "cases" / "acme.ipl")
               .read_text(encoding="utf-8"),
               encode_log(records, "log", "test", PRESETS["dhcp"], tz="UTC")]

    def no_token(*args, **kwargs):
        raise AssertionError("a Token was built")
    monkeypatch.setattr(lexer, "Token", no_token)
    monkeypatch.setattr(parser, "Token", no_token)
    for text in sources:
        parse(text)


def test_evaluation_errors_get_their_position_from_eval():
    # Evaluator.eval sets the span of the innermost source node, so a
    # raise site passes only its message
    path = PACKAGE / "evaluator.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) == "EvaluationError":
            assert len(node.args) == 1 and not node.keywords, \
                "evaluator.py:%d passes more than a message" % node.lineno


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
