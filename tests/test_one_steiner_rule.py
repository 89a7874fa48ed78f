"""The Steiner tag rule is read in one place: ``_steiner_tag`` has one
caller in the package, ``_above`` in the exact DP, and its error message is
written once, so no second reading of the rule can drift from it."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "widthspan"
MESSAGE = "Steiner vertex with mixed realized/promised edges"


def _calls_by_function(tree: ast.AST, name: str) -> list[str]:
    """The name of the innermost function around each call of ``name``,
    whether called bare or as an attribute."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == name) or (
                isinstance(func, ast.Attribute) and func.attr == name
            ):
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_the_steiner_tag_rule_is_read_in_one_place():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    callers, messages = [], []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        where = path.relative_to(PACKAGE).as_posix()
        callers += [f"{where}:{fn}" for fn in _calls_by_function(tree, "_steiner_tag")]
        messages += [
            f"{where}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value == MESSAGE
        ]
    assert callers == ["twdp/solver.py:_above"]
    assert len(messages) == 1, messages
