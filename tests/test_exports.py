"""Every name the package exports has a caller in the library or the demos.

A name that only tests read makes the API bigger without showing anything,
so an export must be referenced in ``src/eesampler/*.py`` or ``demos/*.py``
outside ``__init__.py`` and outside its own ``def``/``class`` line."""

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "eesampler"


def exported_names() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def caller_lines() -> list:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((REPO_ROOT / "demos").glob("*.py"))
    return [line for path in files for line in path.read_text().splitlines()]


def test_every_export_is_referenced_outside_its_definition():
    lines = caller_lines()
    names = exported_names()
    assert "run_sampler" in names  # the parse found the export list
    unused = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    assert unused == []
