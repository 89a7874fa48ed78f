"""``widthspan._Record`` is the package's one immutability and equality
rule: outside ``__init__.py``, no module may define ``__setattr__`` or an
``__eq__`` that compares ``vars(self) == vars(other)``."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "widthspan"


def _is_vars_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars"


def _compares_vars(node: ast.AST) -> bool:
    """``vars(a) == vars(b)``, whatever the names."""
    return (
        isinstance(node, ast.Compare)
        and len(node.ops) == 1
        and isinstance(node.ops[0], ast.Eq)
        and _is_vars_call(node.left)
        and _is_vars_call(node.comparators[0])
    )


def _is_record_method(node: ast.AST) -> bool:
    if not isinstance(node, ast.FunctionDef):
        return False
    if node.name == "__setattr__":
        return True
    return node.name == "__eq__" and any(_compares_vars(inner) for inner in ast.walk(node))


def test_only_the_record_base_refuses_assignment_and_compares_fields():
    sources = sorted(p for p in PACKAGE.rglob("*.py") if p.relative_to(PACKAGE).as_posix() != "__init__.py")
    assert sources, f"no sources under {PACKAGE}"
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if _is_record_method(node)
    ]
    assert not found, "record methods outside widthspan._Record: " + ", ".join(found)
