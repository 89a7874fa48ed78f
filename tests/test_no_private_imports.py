"""A module's underscore names are its own: no module of the package may
``from <sibling> import _name``, save the record base ``_Record`` from the
package root.  Dunder names such as ``__version__`` are public."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "widthspan"
ALLOWED = {("widthspan", "_Record")}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _source_module(path: Path, node: ast.ImportFrom) -> str | None:
    """The dotted name ``node`` imports from, or None outside the package."""
    if not node.level:
        return node.module if node.module and node.module.split(".")[0] == PACKAGE.name else None
    package = [PACKAGE.name, *path.relative_to(PACKAGE).parent.parts]
    base = package[: len(package) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def test_no_module_imports_a_siblings_private_name():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno} imports {alias.name} from {module}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.ImportFrom) and (module := _source_module(path, node)) is not None
        for alias in node.names
        if _is_private(alias.name) and (module, alias.name) not in ALLOWED
    ]
    assert not found, "private names imported across modules: " + ", ".join(found)
