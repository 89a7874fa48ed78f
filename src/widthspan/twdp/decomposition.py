"""Tree decompositions: PACE-format parsing, validation, and nice-ification.

``load_td`` parses a document and checks its header and lines.  ``make_nice``
checks the decomposition against the graph (``_rooted``, which roots the bag
tree at the least non-empty bag id) and builds the nice form from that
rooting: one check per decomposition on its way to the DP.

A nice decomposition is a rooted binary bag tree whose nodes are leaves
(singleton bags), introduce/forget nodes (bag differs from the child by one
vertex), or join nodes (both children carry the parent's bag).  Leaves are
singletons and the root is reduced to a single vertex.  Nodes are numbered
children first, so the root is the last node and a walk in index order
meets every node after its children.
"""
from __future__ import annotations

from .. import _Record
from ..graph import Graph


class TreeDecompositionError(ValueError):
    pass


class TreeDecomposition(_Record):
    """Bags by id and the bag-tree edges; immutable, and equal to another
    with equal bags and edges."""

    def __init__(self, bags: dict[int, frozenset[int]], edges: tuple[tuple[int, int], ...]):
        vars(self).update(bags=bags, edges=edges)


def _rooted(td: TreeDecomposition, g: Graph) -> dict[int, int | None]:
    """Check td against g and return each bag's parent in the bag tree rooted
    at the least non-empty bag id (None at the root)."""
    covered = set()
    for b in td.bags.values():
        covered |= b
    for v in range(1, g.n + 1):
        if v not in covered:
            raise TreeDecompositionError(f"vertex {v} is in no bag")
    for v in covered:
        if not (1 <= v <= g.n):
            raise TreeDecompositionError(f"bag vertex {v} is not a graph vertex")
    adj: dict[int, list[int]] = {i: [] for i in td.bags}
    for i, j in td.edges:
        if i not in adj or j not in adj:
            raise TreeDecompositionError(f"bag-tree edge ({i}, {j}) references unknown bag")
        adj[i].append(j)
        adj[j].append(i)
    # the bag graph must be a tree
    if len(td.edges) != len(td.bags) - 1:
        raise TreeDecompositionError("bag graph is not a tree (wrong edge count)")
    root = min((i for i, b in td.bags.items() if b), default=min(td.bags))
    parent: dict[int, int | None] = {root: None}
    stack = [root]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
    if len(parent) != len(td.bags):
        raise TreeDecompositionError("bag graph is disconnected")
    # property 2: every graph edge inside some bag, looked for among the
    # bags of whichever endpoint is in fewer
    bags_of: dict[int, list[frozenset[int]]] = {v: [] for v in covered}
    for b in td.bags.values():
        for v in b:
            bags_of[v].append(b)
    for u, v in g.edges:
        x, y = (u, v) if len(bags_of[u]) <= len(bags_of[v]) else (v, u)
        if not any(y in b for b in bags_of[x]):
            raise TreeDecompositionError(f"edge ({u}, {v}) is covered by no bag")
    # property 3: the bags holding v form a subtree exactly when one of them
    # is the root or has a parent without v
    tops: dict[int, int] = {}
    for i, b in td.bags.items():
        up = parent[i]
        for v in b if up is None else b - td.bags[up]:
            tops[v] = tops.get(v, 0) + 1
    for v in range(1, g.n + 1):
        if tops[v] != 1:
            raise TreeDecompositionError(f"bags containing vertex {v} are not connected")
    return parent


def load_td(text: str, g: Graph) -> TreeDecomposition:
    """Parse PACE-2017 .td format, a decomposition of g.  Checks the header
    against the bags and its n against g; ``make_nice`` checks the
    decomposition itself."""
    header = None
    header_line = 0
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise TreeDecompositionError(f"line {lineno}: duplicate solution line")
            if len(parts) != 5 or parts[1] != "td":
                raise TreeDecompositionError(f"line {lineno}: expected 's td <#bags> <width+1> <n>'")
            try:
                header = tuple(int(x) for x in parts[2:])
            except ValueError:
                raise TreeDecompositionError(f"line {lineno}: non-integer 's td' fields") from None
            n_bags, width_plus_1, n = header
            header_line = lineno
        elif parts[0] == "b":
            if header is None:
                raise TreeDecompositionError(f"line {lineno}: bag line before solution line")
            if len(parts) < 2:
                raise TreeDecompositionError(f"line {lineno}: bag line must be 'b <id> <vertices...>'")
            try:
                bag_id, *members = (int(x) for x in parts[1:])
            except ValueError:
                raise TreeDecompositionError(f"line {lineno}: non-integer bag id or vertex") from None
            if not 1 <= bag_id <= n_bags:
                raise TreeDecompositionError(f"line {lineno}: bag id {bag_id} is outside 1..{n_bags}")
            if bag_id in bags:
                raise TreeDecompositionError(f"line {lineno}: duplicate bag {bag_id}")
            for v in members:
                if not 1 <= v <= n:
                    raise TreeDecompositionError(f"line {lineno}: bag vertex {v} is outside 1..{n}")
            bags[bag_id] = frozenset(members)
        else:
            try:
                ends = [int(x) for x in parts]
            except ValueError:
                raise TreeDecompositionError(f"line {lineno}: malformed line") from None
            if len(ends) != 2:
                raise TreeDecompositionError(
                    f"line {lineno}: malformed tree edge, expected '<bag> <bag>', got {len(ends)} fields"
                )
            if header is None:
                raise TreeDecompositionError(f"line {lineno}: tree edge before solution line")
            for bag_id in ends:
                if not 1 <= bag_id <= n_bags:
                    raise TreeDecompositionError(f"line {lineno}: bag id {bag_id} is outside 1..{n_bags}")
            edges.append((ends[0], ends[1]))
    if header is None:
        raise TreeDecompositionError("missing 's td' line")
    # A bag without a line is empty.  A tree on n_bags bags has n_bags - 1
    # edges, so a count the edges cannot join is refused before its bags are made.
    if n_bags - 1 > len(edges):
        raise TreeDecompositionError(
            f"line {header_line}: 's td' gives {n_bags} bags, which {len(edges)} "
            f"tree edges cannot join: the bag graph is not a tree"
        )
    for i in range(1, n_bags + 1):
        bags.setdefault(i, frozenset())
    largest = max((len(b) for b in bags.values()), default=0)
    if width_plus_1 != largest:
        raise TreeDecompositionError(
            f"line {header_line}: 's td' gives width+1 = {width_plus_1}, the largest bag has {largest} vertices"
        )
    if n != g.n:
        raise TreeDecompositionError(f"line {header_line}: 's td' gives n = {n}, the graph has {g.n} vertices")
    return TreeDecomposition(bags=bags, edges=tuple(edges))


# ---------------------------------------------------------------------------
# Nice form.
# ---------------------------------------------------------------------------

class NiceNode(_Record):
    """One node of a nice decomposition.

    kind is leaf, introduce, forget or join; vertex is the vertex introduced
    or forgotten.  With D = D(node), the bag plus every vertex of a bag below
    it, size is |D| and inside the number of graph edges with both ends in D.
    """

    def __init__(self, kind: str, bag: frozenset[int], size: int, inside: int,
                 children: tuple[int, ...] = (), vertex: int | None = None):
        vars(self).update(kind=kind, bag=bag, size=size, inside=inside, children=children, vertex=vertex)


def make_nice(td: TreeDecomposition, g: Graph) -> list[NiceNode]:
    """Check td against g and return its nice form, of equal width, as a
    node list.  Empty bags are left out.  Every node comes after its
    children, so the root is the last node."""
    parent = _rooted(td, g)
    nodes: list[NiceNode] = []

    def add(kind: str, bag: frozenset[int], children: tuple[int, ...] = (), vertex: int | None = None) -> int:
        # |D| and e(D) from the children's: v first appears where it is
        # introduced, so its neighbours in D are in the child's bag; a join's
        # children's D meet in its bag, and no edge joins their other vertices
        if kind == "leaf":
            size, inside = 1, 0
        elif kind == "join":
            j, k = (nodes[ch] for ch in children)
            size = j.size + k.size - len(bag)
            inside = j.inside + k.inside - sum(1 for u in bag for w in g.neighbors(u) if u < w and w in bag)
        else:
            child = nodes[children[0]]
            size, inside = child.size, child.inside
            if kind == "introduce":
                size += 1
                inside += sum(1 for u in g.neighbors(vertex) if u in child.bag)
        nodes.append(NiceNode(kind=kind, bag=bag, size=size, inside=inside, children=children, vertex=vertex))
        return len(nodes) - 1

    def morph(node: int, src: frozenset[int], dst: frozenset[int]) -> int:
        """Forget src-only vertices then introduce dst-only ones."""
        current = set(src)
        for v in sorted(src - dst):
            current.remove(v)
            node = add("forget", frozenset(current), (node,), v)
        for v in sorted(dst - src):
            current.add(v)
            node = add("introduce", frozenset(current), (node,), v)
        return node

    # Empty bags (the PACE format allows them) hold no vertex to start or end
    # a chain with.  Drop them: the non-empty bags are the union of the
    # subtrees of bags holding each vertex, and for a connected graph the
    # subtrees of an edge's ends meet, so the union is a subtree.  It holds
    # the root, the least non-empty bag id, so a non-empty bag's parent is
    # non-empty.
    bags = {i: b for i, b in td.bags.items() if b}
    root_bag = min(bags)
    children_of: dict[int, list[int]] = {i: [] for i in bags}
    for x, up in parent.items():
        if x in bags and up in bags:
            children_of[up].append(x)
    for kids in children_of.values():
        kids.sort()

    # Bags in depth-first order, children by id.  A bag's nice node is made
    # once all its children's are: a leaf chain, or the join of the children's
    # nodes morphed to its bag; then it is morphed to its parent's bag at once.
    # A loop, not recursion: a bag tree can be deeper than Python's recursion
    # limit, and a recursive closure is a reference cycle.
    top_of: dict[int, int] = {}
    walk: list[tuple[int, bool]] = [(root_bag, False)]
    while walk:
        bag_id, expanded = walk.pop()
        kids = children_of[bag_id]
        if not expanded:
            walk.append((bag_id, True))
            walk.extend((k, False) for k in reversed(kids))
            continue
        bag = bags[bag_id]
        if kids:
            node = top_of[kids[0]]
            for k in kids[1:]:
                node = add("join", bag, (node, top_of[k]))
        else:
            first = frozenset([min(bag)])
            node = morph(add("leaf", first), first, bag)
        up = parent[bag_id]
        top_of[bag_id] = node if up is None else morph(node, bag, bags[up])

    # reduce the root to a single vertex by forgetting
    morph(top_of[root_bag], bags[root_bag], frozenset([max(bags[root_bag])]))
    return nodes


def min_fill_td(g: Graph) -> TreeDecomposition:
    """Heuristic decomposition from a min-fill elimination ordering.

    Test-corpus plumbing: the width is not guaranteed optimal.
    """
    adj: dict[int, set[int]] = {v: set(g.neighbors(v)) for v in range(1, g.n + 1)}
    remaining = set(adj)
    elim_bags: list[tuple[int, frozenset[int]]] = []
    while remaining:
        best_v = None
        best_fill = None
        for v in sorted(remaining):
            nbrs = adj[v] & remaining
            nl = sorted(nbrs)
            fill = sum(
                1
                for i in range(len(nl))
                for j in range(i + 1, len(nl))
                if nl[j] not in adj[nl[i]]
            )
            if best_fill is None or fill < best_fill:
                best_fill = fill
                best_v = v
        nbrs = adj[best_v] & remaining
        elim_bags.append((best_v, frozenset(nbrs)))
        nl = sorted(nbrs)
        for i in range(len(nl)):
            for j in range(i + 1, len(nl)):
                adj[nl[i]].add(nl[j])
                adj[nl[j]].add(nl[i])
        remaining.remove(best_v)

    elim_pos = {v: i for i, (v, _) in enumerate(elim_bags)}
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    for i, (v, nbrs) in enumerate(elim_bags):
        bags[i + 1] = frozenset({v} | nbrs)
        if nbrs:
            j = min(elim_pos[w] for w in nbrs)
            edges.append((i + 1, j + 1))
    return TreeDecomposition(bags=bags, edges=tuple(edges))
