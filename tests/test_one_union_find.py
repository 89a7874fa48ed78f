"""The kernel's union-find is the package's one union-find: outside
``kernel.py`` and the oracle, which is kept apart as the independent check,
no module may climb a parent list with ``while p[x] != x``."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "widthspan"
ALLOWED = {"kernel.py", "oracle.py"}


def _climbs_to_a_root(node: ast.AST) -> bool:
    """``while p[x] != x``: a find loop, whatever the names."""
    if not isinstance(node, ast.While):
        return False
    test = node.test
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.NotEq)
        and isinstance(test.left, ast.Subscript)
        and ast.dump(test.left.slice) == ast.dump(test.comparators[0])
    )


def test_only_the_kernel_has_a_union_find():
    sources = sorted(p for p in PACKAGE.rglob("*.py") if p.relative_to(PACKAGE).as_posix() not in ALLOWED)
    assert sources, f"no sources under {PACKAGE}"
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if _climbs_to_a_root(node)
    ]
    assert not found, "union-find loops outside the kernel: " + ", ".join(found)
