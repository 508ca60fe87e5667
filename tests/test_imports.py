"""Every name a module of the package imports is used in that module, every
private module-level name the package defines is used in the package,
every public one is used in the package or named in the README, and
numpy's eigensolver is called only by the checked eigensolve (and by the
one function named below).

``__init__.py`` is exempt from the first and third rules: it imports names
to re-export them.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "helmat"
README = PACKAGE.parents[1] / "README.md"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    assert sorted(_imported_names(tree) - _used_names(tree)) == []


def _definitions(node: ast.stmt) -> set[str]:
    """Names a module-level statement defines: a function, a class or
    assigned names, dunders excepted."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = {node.name}
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = {t.id for t in targets if isinstance(t, ast.Name)}
    else:
        names = set()
    return {n for n in names if not n.startswith("__")}


def _references(tree: ast.AST) -> set[str]:
    """Names read in a module or statement, bare or as an attribute."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


TREES = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def test_every_private_name_is_used_in_the_package():
    used = set().union(*(_references(tree) for tree in TREES.values()))
    unused = sorted(f"{module}:{name}" for module, tree in TREES.items()
                    for node in tree.body for name in _definitions(node) - used
                    if name.startswith("_"))
    assert unused == []


def _readme_names() -> set[str]:
    """Identifiers inside the README's code blocks and inline code spans."""
    fence = r"```.*?```"
    text = README.read_text()
    spans = re.findall(fence, text, flags=re.S) + re.findall(
        r"`([^`]+)`", re.sub(fence, "", text, flags=re.S))
    return {name for span in spans for name in re.findall(r"\w+", span)}


def test_every_public_name_is_used_in_the_package_or_named_in_the_readme():
    # a name counts as used when a statement other than its own definition
    # reads it
    readers = Counter(name for tree in TREES.values() for node in tree.body
                      for name in _references(node))
    named = _readme_names()
    unused = sorted(f"{module}:{name}" for module, tree in TREES.items()
                    if module != "__init__.py" for node in tree.body
                    for name in _definitions(node)
                    if not name.startswith("_") and name not in named
                    and readers[name] == (name in _references(node)))
    assert unused == []


#: The (module, function) pairs that call ``np.linalg.eigh`` or
#: ``eigvalsh``: the checked eigensolve, and ``fidelity``, whose unchecked
#: spectrum stays until ROADMAP item 2 moves it (moving it changes the last
#: bits of d2 in two pinned reports).
RAW_EIGENSOLVE_OWNERS = {("linalg.py", "_checked_eigh"), ("means.py", "fidelity")}


def _raw_eigensolve_owners(node: ast.AST, owner: str = "") -> set[str]:
    """The innermost function around each ``np.linalg.eigh`` or
    ``eigvalsh`` under ``node``, ``owner`` at the top."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    found = {owner} if isinstance(node, ast.Attribute) and ast.unparse(node) in (
        "np.linalg.eigh", "np.linalg.eigvalsh") else set()
    return found.union(*(_raw_eigensolve_owners(child, owner)
                         for child in ast.iter_child_nodes(node)))


def test_every_eigensolve_is_the_checked_one():
    owners = {(module, owner) for module, tree in TREES.items()
              for owner in _raw_eigensolve_owners(tree)}
    assert owners == RAW_EIGENSOLVE_OWNERS
