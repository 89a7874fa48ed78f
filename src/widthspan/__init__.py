"""widthspan: low-stretch spanning trees from bounded-width linear
arrangements and tree decompositions.

Modules: ``graph`` and ``arrangement`` (I/O, generators, widths, the
arrangement tree), ``lowstretch`` (the arrangement-tree MST with exact
stretch accounting), ``distribution`` (the shifted-padding tree
distribution, sampled or explicit, and the cutwidth variant), ``kernel``
(Kruskal and stretch queries), ``twdp`` (the exact treewidth DP), ``oracle``
(brute-force checks) and ``cli``.
"""

__version__ = "0.1.0"
