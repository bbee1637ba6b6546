"""Every name a module of the package imports is read in that module.

A name left behind by a deleted caller (an import that only a removed
branch used) fails here.  ``__init__.py`` is left out: its imports are the
package's public names.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eqdescent"


def unused_imports(source):
    """(line, name) of each name ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    source = "from math import gcd, lcm\nimport os.path\nimport json as j\nprint(gcd, os)\n"
    assert unused_imports(source) == [(1, "lcm"), (3, "j")]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    unused = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path.read_text())
    ]
    assert not unused, unused
