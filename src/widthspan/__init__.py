"""widthspan: low-stretch spanning trees from bounded-width linear
arrangements and tree decompositions.

Modules: ``graph`` and ``arrangement`` (I/O, generators, widths, the
arrangement tree), ``lowstretch`` (the arrangement-tree MST with exact
stretch accounting), ``distribution`` (the shifted-padding tree
distribution, sampled or explicit, and the cutwidth variant), ``kernel``
(Kruskal and stretch queries), ``twdp`` (the exact treewidth DP), ``oracle``
(brute-force checks) and ``cli``.

Every record class (graphs, arrangements, reports, decompositions, nice
nodes and DP results) subclasses ``_Record``: immutable, and equal to a
record of its own class with equal fields.
"""

__version__ = "0.1.0"


class _Record:
    """A record's constructor sets its fields with ``vars(self).update(...)``;
    any later assignment raises ``AttributeError``.  Records compare by
    value, so none is hashable."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)
