"""Every import in the package and its tests is used.

No linter runs on this repository, so an AST scan stands in for one:
a name bound by an import must be read somewhere in the same module.
Package ``__init__.py`` files are skipped, since their imports are the
public re-exports.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    paths = [path for top in ("src", "tests") for path in sorted((ROOT / top).rglob("*.py"))
             if path.name != "__init__.py"]
    assert len(paths) > 20
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in paths for line, name in unused_imports(path)]
    assert found == []
