"""List the statements of ``src/helmat`` that no test and no benchmark
workload runs.

Usage::

    python3 tools/uncovered.py

runs the tier-1 suite (``tests/``) in this process, then one full-size
round of each workload of ``perfbench/workloads.py`` at seed 2000 (the file
is imported by path and not changed), all under ``sys.settrace``.  It then
prints ``<file>:<line>  <first source line>`` for each statement that
neither run reached, and their count.  Docstrings are not statements here,
as in ``tools/code_lines.py``.  A statement counts as reached when any line
it spans, outside the statements nested in it, fired a line event; so an
``if`` is reached when its test ran, whichever branch was taken.  The exit
status is that of the test run.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "helmat"
SEED = 2000


def _load(name: str, path: Path):
    """Import the file at ``path`` as the module ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


_docstring_lines = _load("code_lines", ROOT / "tools" / "code_lines.py")._docstring_lines


def _span(node: ast.stmt) -> set[int]:
    """The lines of a statement, its decorators included."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    return set(range(first, node.end_lineno + 1))


def statements(source: str) -> list[tuple[int, set[int]]]:
    """Each statement of ``source`` but the docstrings, as its first line
    and its own lines: those it spans less those of the statements nested
    in it (its first line, if that leaves none)."""
    tree = ast.parse(source)
    docstrings = _docstring_lines(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or (
                isinstance(node, ast.Expr) and node.lineno in docstrings):
            continue
        own = _span(node)
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, ast.stmt):
                own -= _span(inner)
        found.append((min(_span(node)), own or {node.lineno}))
    return sorted(found, key=lambda item: item[0])


def unreached(source: str, lines: set[int]) -> list[int]:
    """First lines of the statements of ``source`` none of whose own lines
    is in ``lines``."""
    return [first for first, own in statements(source) if not own & lines]


@contextlib.contextmanager
def recording(root: Path):
    """Record the line events of the code in files under ``root`` while the
    block runs; yields ``{resolved file path: line numbers}``, filled as the
    events fire.  The trace function in place before is restored on exit."""
    prefix = os.path.join(os.path.realpath(root), "")
    hits: dict[str, set[int]] = {}
    lines_of: dict[str, set[int] | None] = {}  # by code file name, None outside root

    def on_line(frame, event, arg):
        if event == "line":
            lines_of[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            path = os.path.realpath(name)
            lines_of[name] = hits.setdefault(path, set()) if path.startswith(prefix) else None
        return None if lines_of[name] is None else on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        yield hits
    finally:
        sys.settrace(previous)


def main() -> int:
    os.chdir(ROOT)  # cli-files names its matrix files relative to the working directory
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    with recording(PACKAGE) as hits:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
        workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        for workload_class in workloads.WORKLOADS.values():
            workload = workload_class(SEED, False, workdir)
            try:
                for op in workload.round:
                    op()
            finally:
                workload.close()
    count = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        for line in unreached(source, hits.get(str(path.resolve()), set())):
            print(f"{path.relative_to(ROOT)}:{line}  {source.splitlines()[line - 1].strip()}")
            count += 1
    print(f"{count} unreached statements")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
