"""No correctness check in the package may rely on ``assert``: ``python -O``
strips them.  Checks raise an exception instead."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "widthspan"


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements: " + ", ".join(found)
