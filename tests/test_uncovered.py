import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "uncovered.py"
_spec = importlib.util.spec_from_file_location("uncovered", TOOL)
uncovered = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(uncovered)

TOY = '''"""A toy module with two branches."""


def sign(x):
    """Sign of a nonzero number."""
    if x > 0:
        return 1
    return (
        -1
    )
'''


def _unreached_after(tmp_path, *arguments):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    spec = importlib.util.spec_from_file_location("toy", path)
    toy = importlib.util.module_from_spec(spec)
    with uncovered.recording(tmp_path) as hits:
        spec.loader.exec_module(toy)
        for x in arguments:
            toy.sign(x)
    return uncovered.unreached(TOY, hits.get(str(path.resolve()), set()))


def test_statements_skip_docstrings_and_nested_lines():
    # def (its own line 4), if (line 6) and the two returns
    assert [first for first, _ in uncovered.statements(TOY)] == [4, 6, 7, 8]
    assert dict(uncovered.statements(TOY))[4] == {4}


def test_lists_the_branch_no_run_reaches(tmp_path):
    assert _unreached_after(tmp_path) == [6, 7, 8]
    assert _unreached_after(tmp_path, 1.0) == [8]
    assert _unreached_after(tmp_path, -1.0) == [7]
    assert _unreached_after(tmp_path, 1.0, -1.0) == []
