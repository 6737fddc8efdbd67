"""Design guards: properties of the package's source, not of its output."""

import ast
import pathlib

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
