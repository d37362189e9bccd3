"""Every top-level import of an enfnet module or of a test file is used in it (the
package's ``__init__`` re-exports, so it is left out)."""

import ast
from pathlib import Path

import pytest

import enfnet

_PACKAGE, _TESTS = Path(enfnet.__file__).parent, Path(__file__).parent
# each file named by its path under its directory: "cli.py", "golden/rewrite_manifest.py"
_FILES = [pytest.param(p, id=p.relative_to(root).as_posix())
          for root, pattern in ((_PACKAGE, "*.py"), (_TESTS, "*.py"), (_TESTS, "golden/*.py"))
          for p in sorted(root.glob(pattern)) if p != _PACKAGE / "__init__.py"]


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", _FILES)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    assert _unused_imports("import os\nimport json\nfrom a import b as c\njson.dumps(c)\n") == [
        (1, "os")]
