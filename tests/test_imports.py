"""Import hygiene, checked on the syntax tree of each module: no top-level
import goes unused, and no function imports from a module that its file
already imports at top level (a local import is kept only to break an
import cycle)."""

import ast
from pathlib import Path

TESTS = Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "transword"
FILES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
FILES += sorted(TESTS.glob("*.py"))


def _modules(path: Path, node) -> list[str]:
    """The absolute names of the modules an import statement reads from."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    package = ["transword"] if path.parent == PACKAGE else []
    parts = package[: len(package) + 1 - node.level] if node.level else []
    return [".".join(parts + ([node.module] if node.module else []))]


def _bound(alias: ast.alias, node) -> str:
    if alias.asname:
        return alias.asname
    return alias.name.split(".")[0] if isinstance(node, ast.Import) else alias.name


def _used_names(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _top_imports(tree: ast.Module):
    return [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]


def _local_imports(tree: ast.Module):
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield fn.name, node


def _name(path: Path) -> str:
    return str(path.relative_to(TESTS.parent))


def test_no_unused_top_level_import():
    unused = []
    for path in FILES:
        tree = ast.parse(path.read_text())
        used = _used_names(tree)
        unused += [
            f"{_name(path)}: {_bound(alias, node)}"
            for node in _top_imports(tree)
            if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            if _bound(alias, node) not in used
        ]
    assert not unused, f"unused imports: {unused}"


def test_no_local_import_of_a_top_level_module():
    repeated = []
    for path in FILES:
        tree = ast.parse(path.read_text())
        top = set()
        for node in _top_imports(tree):
            top |= set(_modules(path, node))
            if isinstance(node, ast.ImportFrom):
                # `from package import module` imports the module too
                (module,) = _modules(path, node)
                top |= {f"{module}.{alias.name}" for alias in node.names}
        repeated += [
            f"{_name(path)}: {fn} imports {module}"
            for fn, node in _local_imports(tree)
            for module in _modules(path, node)
            if module in top
        ]
    assert not repeated, f"local imports of top-level modules: {repeated}"
