"""The package's own import graph: every import of one package module by
another sits at module level, and those imports form no cycle, so no
module needs a function-level import to break one."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "multitopic"


def package_imports(tree: ast.Module) -> list[tuple[ast.ImportFrom, list[str]]]:
    """Each relative import in `tree` with the package modules it names:
    `from .x import y` names x, `from . import x, y` names x and y."""
    return [
        (node, [node.module] if node.module else [alias.name for alias in node.names])
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]


def test_package_imports_are_module_level_and_acyclic():
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = package_imports(tree)
        nested = [node.lineno for node, _ in imports if node not in tree.body]
        assert not nested, f"{path.name}: package import below module level at lines {nested}"
        graph[path.stem] = {name for _, names in imports for name in names}
    assert graph["models"] >= {"schedule", "corpus"}
    TopologicalSorter(graph).prepare()  # raises CycleError naming the cycle, if any
