"""Kernel selection: the compiled extension when it imports, else its pure-Python
twin.  ``IMPLEMENTATION`` names the one in use."""
from __future__ import annotations

try:
    from . import _kernel as _impl  # type: ignore[attr-defined]
except ImportError:
    from . import _kernel_py as _impl

IMPLEMENTATION: str = _impl.IMPLEMENTATION
tree_stretch = _impl.tree_stretch
distances_in_tree = _impl.distances_in_tree
