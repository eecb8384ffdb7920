"""Module layering of the package: relative imports form an acyclic graph,
all of them at module level, and the package exports what its modules declare."""

import ast
import importlib
from pathlib import Path

import vceo

PACKAGE = Path(vceo.__file__).resolve().parent


def _imported_modules(node: ast.ImportFrom) -> set[str]:
    """Sibling modules named by a relative ``from`` import."""
    if node.module:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names}


def _is_type_checking_block(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and (
        (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING")
        or (isinstance(node.test, ast.Attribute) and node.test.attr == "TYPE_CHECKING")
    )


class _ImportCollector(ast.NodeVisitor):
    def __init__(self) -> None:
        self.module_level: set[str] = set()
        self.local: set[str] = set()  # names of functions holding relative imports
        self._functions: list[str] = []

    def visit_If(self, node: ast.If) -> None:
        if not _is_type_checking_block(node):
            self.generic_visit(node)

    def _visit_function(self, node) -> None:
        self._functions.append(node.name)
        self.generic_visit(node)
        self._functions.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0:
            return
        if self._functions:
            self.local.add(".".join(self._functions))
        else:
            self.module_level |= _imported_modules(node)


def _collect() -> dict[str, _ImportCollector]:
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        collector = _ImportCollector()
        collector.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        out[path.stem] = collector
    return out


def test_module_level_imports_are_acyclic():
    graph = {name: c.module_level for name, c in _collect().items()}
    assert "equivalence" not in graph["bound"]
    # Kahn's algorithm: every module must drain once its imports have.
    remaining = dict(graph)
    while remaining:
        ready = [m for m, deps in remaining.items() if not deps & remaining.keys()]
        assert ready, f"import cycle among {sorted(remaining)}"
        for module in ready:
            del remaining[module]


def test_errors_is_the_bottom_layer():
    # Every layer calls its validators, so it may import no sibling module.
    assert _collect()["errors"].module_level == set()


def test_no_function_local_relative_imports():
    local = {(name, fn) for name, c in _collect().items() for fn in c.local}
    assert not local, f"relative imports inside functions: {sorted(local)}"


def test_package_exports_the_union_of_the_module_lists():
    # Each public name is declared once, in its module's __all__; the CLI is
    # reached as vceo.cli and declares nothing at the top level.
    names = []
    for stem in sorted(_collect().keys() - {"__init__", "__main__", "cli"}):
        module = importlib.import_module(f"vceo.{stem}")
        assert hasattr(module, "__all__"), f"vceo.{stem} declares no __all__"
        for name in module.__all__:
            assert getattr(vceo, name) is getattr(module, name)
        names += module.__all__
    assert len(names) == len(set(names)), "a public name is declared twice"
    assert sorted(vceo.__all__) == sorted(names)
