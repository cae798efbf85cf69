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


def module_level_definitions(tree) -> list:
    """(name, first line, last line) of each function, class and assigned
    name at the top level of a parsed module."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found.extend((name, node.lineno, node.end_lineno) for name in names)
    return found


def test_every_module_level_name_is_used_outside_its_definition():
    """A helper, class or constant that nothing in the library or the demos
    reads is dead code: an import of it, a docstring or a test does not count
    as a use, and neither does a use inside its own definition."""
    files = sorted(PACKAGE.glob("*.py")) + sorted((REPO_ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    uses = {}  # name -> [(file, line)]
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path, node.lineno))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in module_level_definitions(trees[path]):
            if name != "__version__" and not any(
                    p != path or not first <= line <= last for p, line in uses.get(name, [])):
                unused.append(f"{path.name}:{first} {name}")
    assert "run_sampler" in {d[0] for d in module_level_definitions(trees[PACKAGE / "ladder.py"])}
    assert unused == []


# the single-replication path behind ``run_sampler``, which alone reaches it
INTERNAL_RUN_PATH = (
    "Variates", "rwm_step", "ee_adaptive_step", "ir_adaptive_step", "limit_ee_step",
    "limit_ir_step", "run_ladder", "run_single", "ladder_step", "init_ladder_state",
    "level_variates", "level_rng", "Reservoir", "EmptyReservoirError",
)


def test_run_sampler_is_the_only_exported_run_entry():
    names = exported_names()
    assert "run_sampler" in names and "NonFiniteWeightError" in names
    assert [name for name in names if name.startswith("run_")] == ["run_sampler"]
    assert sorted(set(INTERNAL_RUN_PATH) & set(names)) == []
