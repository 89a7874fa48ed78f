import random

import pytest

from widthspan.kernel import IMPLEMENTATION, distances_in_tree, tree_stretch


def _random_instance(rng, n):
    """Random connected graph in kernel form ((u, v) pairs, labels 1..n)."""
    edges = set()
    for v in range(2, n + 1):
        edges.add((rng.randrange(1, v), v))
    extra = rng.randrange(0, 2 * n)
    for _ in range(extra):
        u = rng.randrange(1, n + 1)
        v = rng.randrange(1, n + 1)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edge_list = tuple(sorted(edges))
    height = [rng.randrange(1, 8) for _ in edge_list]
    spread = [rng.randrange(1, n + 1) for _ in edge_list]
    return edge_list, height, spread


def test_active_implementation_reported():
    assert IMPLEMENTATION == "python"


def test_tiny_example():
    # square with a chord; the path edges win on height, the rest stretch
    edges = ((1, 2), (2, 3), (3, 4), (1, 4), (1, 3))
    height = [1, 1, 1, 2, 3]
    spread = [1, 1, 1, 3, 2]
    in_tree, stretch = tree_stretch(4, edges, height, spread)
    assert in_tree == [1, 1, 1, 0, 0]
    assert stretch == [1, 1, 1, 3, 2]


def test_stretch_matches_bfs_walk():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(3, 25)
        edges, height, spread = _random_instance(rng, n)
        in_tree, stretch = tree_stretch(n, edges, height, spread)
        adj = {v: [] for v in range(1, n + 1)}
        for (u, v), keep in zip(edges, in_tree):
            if keep:
                adj[u].append(v)
                adj[v].append(u)
        for i, (u, v) in enumerate(edges):
            # BFS distance in the tree
            dist = {u: 0}
            frontier = [u]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in adj[x]:
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            assert stretch[i] == dist[v]


def test_label_n_is_a_vertex():
    # the kernel takes the graph's labels 1..n as they are; here every tree
    # edge and the one chord's path run through vertex n = 3
    edges = ((1, 3), (2, 3), (1, 2))
    in_tree, stretch = tree_stretch(3, edges, [1, 1, 2], [2, 1, 1])
    assert in_tree == [1, 1, 0]
    assert stretch == [1, 1, 2]
    assert distances_in_tree(3, edges, in_tree) == [1, 1, 2]


def test_not_connected_raises():
    with pytest.raises(ValueError, match="not connected"):
        tree_stretch(4, ((1, 2), (3, 4)), [1, 1], [1, 1])


def test_distances_in_tree_validation():
    edges = ((1, 2), (2, 3), (1, 3))
    with pytest.raises(ValueError, match="n - 1"):
        distances_in_tree(3, edges, [1, 1, 1])
    with pytest.raises(ValueError, match="cycle"):
        distances_in_tree(4, edges + ((3, 4),), [1, 1, 1, 0])
    assert list(distances_in_tree(3, edges, [1, 1, 0])) == [1, 1, 2]


def _parent_walk_distances(n, edges, in_tree):
    """Reference: root the tree at 1, then walk both endpoints up to meet."""
    adj = [[] for _ in range(n + 1)]
    for (u, v), keep in zip(edges, in_tree):
        if keep:
            adj[u].append(v)
            adj[v].append(u)
    parent = [-1] * (n + 1)
    depth = [0] * (n + 1)
    seen = [False] * (n + 1)
    seen[1] = True
    stack = [1]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                depth[y] = depth[x] + 1
                stack.append(y)
    out = []
    for u, v in edges:
        steps = 0
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            u = parent[u]
            steps += 1
        out.append(steps)
    return out


def _tree_with_chords(rng, tree_edges, n):
    """Kernel-form (u, v) pairs: the given tree edges plus random chords."""
    edges = {(min(u, v), max(u, v)) for u, v in tree_edges}
    tree = set(edges)
    for _ in range(2 * n if n > 2 else 0):
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    edge_list = list(edges)
    rng.shuffle(edge_list)
    return tuple(edge_list), [1 if e in tree else 0 for e in edge_list]


def test_offline_lca_matches_parent_walk():
    rng = random.Random(1979)
    trees = [
        (1, []),
        (2, [(1, 2)]),
        (300, [(v - 1, v) for v in range(2, 301)]),   # path: deepest tree
        (300, [(1, v) for v in range(2, 301)]),       # star: shallowest tree
        (300, [(300, v) for v in range(1, 300)]),     # star rooted away from 1
    ]
    for _ in range(40):
        n = rng.randrange(3, 120)
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        trees.append((n, [(labels[rng.randrange(v)], labels[v]) for v in range(1, n)]))
    for n, tree_edges in trees:
        edges, in_tree = _tree_with_chords(rng, tree_edges, n)
        expected = _parent_walk_distances(n, edges, in_tree)
        assert distances_in_tree(n, edges, in_tree) == expected
