"""Design guards: properties of the package's source, not of its output."""

import ast
import pathlib

import flucid

PACKAGE = pathlib.Path(flucid.__file__).parent


def test_no_module_imports_threads():
    # evaluation is sequential: under the GIL a pool only slows it down
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("threading", "concurrent"), \
                    "%s imports %s" % (path.relative_to(PACKAGE), name)
