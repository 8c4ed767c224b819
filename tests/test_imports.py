"""Import hygiene, checked on the syntax tree of each module: no top-level
import goes unused, no function imports from a module that its file
already imports at top level (a local import is kept only to break an
import cycle), and no top-level definition of the package goes unnamed.
Count gates go through the `counting` fixture: no other test replaces a
library name by hand unless it is named below with its reason."""

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


# ROADMAP item 9: these have callers only in tests/ and perfbench/, and
# move out of the library with that item
TEST_ONLY = {
    "randwords.random_word",  # item 9
    "randwords.shuffle_presentation",  # item 9
    "schema.poly_shift_match",  # item 9
}


def test_no_dead_top_level_definition():
    # every top-level function or class of the package is exported by
    # `__init__.py` or named somewhere in the package's source
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    exported = _top_imports(trees["__init__"])
    named = {alias.name for node in exported for alias in node.names}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                named.add(n.id)
            elif isinstance(n, ast.Attribute):
                named.add(n.attr)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    dead = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, kinds) and node.name not in named
    }
    assert dead == TEST_ONLY


# tests that replace a library name with `monkeypatch.setattr` outside
# `tests/conftest.py` and `tests/test_counts.py`, none to count calls
SETATTR_ALLOWED = {
    "tests/test_cli.py::test_demo_separation_refuses_large_k": "a refused K builds no family",
    "tests/test_cli.py::test_family_arg_refuses_large_k": "a refused K builds no family",
    "tests/test_cli.py::test_demo_abelian_refuses_large_k": "a refused K builds no matrix",
    "tests/test_cli.py::test_project_refuses_large_level": "a refused N builds no letter set",
    "tests/test_cli.py::test_embedding_check_refuses_large_sizes": "a refused size parses no map",
    "tests/test_cli.py::test_cap_exit_code": "a small rewrite cap, to reach it",
    "tests/test_words.py::test_cap_sites_raise_cap_error": "a small rewrite cap, to reach it",
    "tests/test_words.py::test_pass_keeps_every_block_reduced": "checks each block a move builds",
}


def test_count_gates_use_the_counting_fixture():
    # a hand-built counting wrapper is a row of tests/test_counts.py instead
    found = {
        f"{_name(path)}::{getattr(node, 'name', '<module>')}"
        for path in TESTS.glob("*.py")
        if path.name not in ("conftest.py", "test_counts.py")
        for node in ast.parse(path.read_text()).body
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "monkeypatch.setattr"
    }
    assert found == set(SETATTR_ALLOWED)


def test_endo_imports_nothing_to_draw_with():
    # embedding_check is exhaustive, so endo.py draws no word: it imports
    # neither `random` nor the word generators, under any name
    path = PACKAGE / "endo.py"
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for module in _modules(path, node):
                read |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    assert not read & {"random", "transword.randwords"}, sorted(read)
