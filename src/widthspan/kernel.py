"""The hot loop: greedy spanning tree (union-find Kruskal) and tree-path
stretch queries (Tarjan's offline LCA), both O(n + m) memory.

This is the package's one union-find and one tree rooting (the oracle keeps
its own, as the independent check): other modules merge with
``kruskal_step``, take roots with ``find`` and root a tree with
``root_tree``.  ``load_graph``'s two connectivity checks and
``charge_diagnostics`` merge with ``kruskal_step``, the per-edge
connectivity check, ``charge_diagnostics`` and the DP's join blocks take
roots with ``find``, and
``fundamental_cycle_spans`` walks the parents and depths of ``root_tree``;
``tests/test_one_union_find.py`` keeps it so.  ``kruskal_step`` and
``_stretches`` inline their finds, because they are the hot loops.

The edges come as ``Graph.edges`` holds them, one tuple of (u, v) pairs, and
callers pass that tuple as it is; an edge's index in it is its ID less one.
Vertices are the graph's own labels 1..n, so every per-vertex list has n + 1
slots, slot 0 unused.
It is plain Python and the package's only kernel; ``IMPLEMENTATION`` names
it in run records.
"""
from __future__ import annotations

IMPLEMENTATION = "python"


def find(parent: list[int], x: int) -> int:
    """The root of x in the union-find ``parent``, with path halving."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def root_tree(n: int, edges, in_tree):
    """Root the spanning tree of the edges marked in ``in_tree`` at vertex 1.

    One iterative DFS gives ``(parent, depth, rank, preorder)``: each
    vertex's tree parent (0 at the root) and depth, its preorder index, and
    the vertices in preorder.  The adjacency lists are freed on return.
    """
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for (u, v), t in zip(edges, in_tree):
        if t:
            adj[u].append(v)
            adj[v].append(u)
    parent = [0] * (n + 1)
    depth = [0] * (n + 1)
    rank = [0] * (n + 1)  # preorder index
    preorder = []
    stack = [1]
    while stack:
        v = stack.pop()
        rank[v] = len(preorder)
        preorder.append(v)
        p, d = parent[v], depth[v] + 1
        for w in adj[v]:
            if w != p:
                parent[w] = v
                depth[w] = d
                stack.append(w)
    return parent, depth, rank, preorder


def _stretches(n: int, edges, in_tree) -> list[int]:
    """Tree-path length between the endpoints of every edge.

    Tarjan's offline LCA over ``root_tree``'s rooting.  Reversed, the
    preorder is a postorder.  Each non-tree edge waits at its endpoint of
    smaller preorder index, which finishes after the other; when it
    finishes, a union-find find on the other endpoint climbs the finished
    vertices (each linked to its tree parent) to the lowest unfinished
    ancestor: the LCA.  The adjacency lists are gone before the query lists
    are made, so memory is O(n + m).
    """
    m = len(edges)
    parent, depth, rank, preorder = root_tree(n, edges, in_tree)
    out = [0] * m
    queries: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(m):
        if in_tree[i]:
            out[i] = 1
        else:
            u, v = edges[i]
            queries[u if rank[u] < rank[v] else v].append(i)
    del rank
    uf = list(range(n + 1))
    for v in reversed(preorder):
        for i in queries[v]:
            a, b = edges[i]
            u = a if b == v else b  # finished earlier
            r = u
            while uf[r] != r:  # find, with path halving
                uf[r] = r = uf[uf[r]]
            out[i] = depth[u] + depth[v] - 2 * depth[r]
        uf[v] = parent[v]
    return out


def kruskal_step(parent: list[int], in_tree, edges, order, wanted: int) -> int:
    """Scan the edge indices in ``order`` and keep each edge that joins two
    components of the union-find ``parent``: link them and mark the edge in
    ``in_tree``.  Stops once ``wanted`` edges are kept; returns how many were."""
    picked = 0
    for i in order:
        ru, rv = edges[i]
        while parent[ru] != ru:  # find, with path halving
            parent[ru] = ru = parent[parent[ru]]
        while parent[rv] != rv:
            parent[rv] = rv = parent[parent[rv]]
        if ru != rv:
            parent[ru] = rv
            in_tree[i] = 1
            picked += 1
            if picked == wanted:
                break
    return picked


def tree_stretch(n: int, edges, height: list[int], spread: list[int]):
    """Greedy spanning tree under (height, spread, edge index) order.

    Returns (in_tree, stretch): a 0/1 list marking tree edges and the exact
    tree-path length between every edge's endpoints.
    """
    # (height, spread, index) order: two stable sorts, minor key first
    order = sorted(range(len(edges)), key=spread.__getitem__)
    order.sort(key=height.__getitem__)
    in_tree = [0] * len(edges)
    if kruskal_step(list(range(n + 1)), in_tree, edges, order, n - 1) != n - 1:
        raise ValueError("graph is not connected")
    del order
    return in_tree, _stretches(n, edges, in_tree)


def distances_in_tree(n: int, edges, in_tree: list[int]):
    """Tree-path length between the endpoints of every edge.

    ``in_tree`` must mark exactly the n-1 edges of a spanning tree.
    """
    marked = [i for i, t in enumerate(in_tree) if t]
    if len(marked) != n - 1:
        raise ValueError("edge set does not have n - 1 tree edges")
    # n - 1 edges are acyclic, so a spanning tree, when the scan keeps them all
    if kruskal_step(list(range(n + 1)), [0] * len(edges), edges, marked, n - 1) != n - 1:
        raise ValueError("edge set contains a cycle")
    return _stretches(n, edges, in_tree)
