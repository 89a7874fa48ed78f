"""Exact minimum-stretch spanning tree DP over a nice tree decomposition.

State per bag: a *configuration*, the trace of a candidate spanning tree on
the bag vertices.  The trace is a tree whose nodes are the labeled bag
vertices plus anonymous Steiner vertices (branch points of degree >= 3,
tagged Above or Below the bag), and whose edges carry an integer cost (the
length of the tree path they stand for) plus a realized/promised flag: a
realized edge's internal path runs through already-forgotten vertices, a
promised edge's path runs through vertices still to be introduced.  The
trace is kept in normal form: every degree-2 non-bag vertex is contracted
into its two incident edges, summing costs.

Transitions enumerate every way the new vertex can sit inside the trace
(attach by a graph edge, take the place of an Above vertex, subdivide a
promised edge, or hang off an existing or freshly guessed Above vertex with a
guessed cost), charging each graph edge exactly once -- at the introduce step
where its second endpoint appears -- with its cost-weighted trace distance.
Joins pair complementary tables: every promised block of one child may be the
realized work of the other, and the bag-internal edge charges counted by both
children are subtracted once.

An introduce candidate is priced from its parent trace before it is built:
its charge from the parent's distances to v's bag neighbours, its future
need and its vertex count as changes to the parent's.  Only candidates
within the bound, the future budget and the vertex cap are built and keyed.

A table's key is the one canonical form of a trace, its splits
(``_canon``).  Each trace edge is named by its split, the bag vertices
beyond it as seen from the least bag vertex, as a mask whose bit i stands
for the i-th least bag label.  The key is the (split, cost) pairs in split
order, flattened into one tuple (the trace's shape), and the realized flags
as bits in that order.  It is canonical by Buneman's splits-equivalence
theorem: a tree whose unlabeled vertices all have degree >= 3 is fixed by
its splits.  In normal form every Steiner vertex has degree >= 3 and every
leaf is a bag vertex, so no split is empty and no two edges share one; only
a chain of degree-2 Steiner vertices, which normal form contracts, gives its
edges one split, and ``_canon`` orders those root-down.

Each entry keeps its edges in the split order of its key, so a join needs
no walk.  A trace's splits follow from its edges and the bag alone, so an
introduce or forget step computes them from scratch (``_split_order``) once
per edge set, and the traces of that set share them, whichever parent they
come from.  Introduced edges go in as key and value tuples shared across the
step (``_put``), so that the collector never tracks the edge maps.

A join skips an entry of the first child whose shape, its (split, cost)
pairs, the second child's table lacks.  The partners of any other entry have
its shape, so its edges in one split order, and as realized bits the shared
unit bag edges plus a union of its promised blocks.  So each subset of those
blocks names one key, ``(shape, shared | blocks)``, and the join looks the
subsets up by size and then lexicographically.  A merged trace keeps the
pairs and has the union of both masks, so its key needs no second
canonicalization.  Pricing before building, and looking partners up by key,
give the tables the same entries in the same order as building and looking
up every candidate.

Branch and bound: UB is the least total stretch over the n BFS spanning trees
of the graph, one per root; the same searches give the girth (``_bounds``).
A tree needs no search: UB is its m edges of stretch 1 and its girth 2.
At an introduce or join node with bag B and D = D(node), the unch = m - e(D)
graph edges not inside D are still to be charged, and an entry is dropped
once its cost exceeds the least those charges can add on top of it within UB
(``_limit``, from the |D| and e(D) each nice node carries):

- B separates the vertices of D outside B from the rest of the graph, so
  every component of the tree restricted to D contains a bag vertex, and at
  least |D| - |B| tree edges lie inside D.
- So at most f = (n - 1) - (|D| - |B|) of the uncharged edges are tree
  edges, each of stretch 1; the other unch - f or more are non-tree edges.
- A non-tree edge of stretch s closes a fundamental cycle of length s + 1,
  which is at least the girth, so s >= girth - 1.
- So every completion costs at least unch + (girth - 2) * max(0, unch - f)
  more, and an entry above UB minus that is on no tree within UB.  If g is a
  tree, it has no non-tree edge; ``_bounds`` gives it girth 2, so the term
  vanishes.

Every entry of an optimal tree survives, so the optimum is unchanged.  When
optimal trees tie, the witness is the one whose entries entered the tables
first, and the pruned entries can change that order (they did on 4 of the
995 connected atlas graphs with at most 7 vertices, and on none of the 34
pinned ``dp-min-stretch`` inputs).  The bounds are always on:
``introduce_step`` takes ``future_budget`` and ``limit``, and ``join_step``
``limit``, as required integers, and the DP has no unbounded mode.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .. import _Record, kernel
from ..graph import Graph
from ..lowstretch import stretch_of
from .decomposition import NiceNode, TreeDecomposition, make_nice

ABOVE = "above"
BELOW = "below"

# An edge map: (a, b) with a < b  ->  (cost, realized).  Bag vertices are the
# positive graph labels; Steiner vertices are fresh negative integers.
EdgeMap = dict[tuple[int, int], tuple[int, bool]]


# Practical limits of dp_min_stretch (its tables grow as Theta(n^(k+1))).
MAX_WIDTH = 3
MAX_N = 24


class DPLimitError(RuntimeError):
    """Instance exceeds the practical limits of the table DP."""


def _ekey(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _fresh(edges: EdgeMap) -> int:
    """A Steiner label the trace does not use: one below its least."""
    return min((x for k in edges for x in k if x < 0), default=0) - 1


def _contract(edges: EdgeMap, x: int, arms: list) -> None:
    """Contract x, left with the two realized arms ``arms`` ((key, (cost,
    realized)) pairs): drop them from ``edges`` where they still are and join
    their other ends by one realized edge of their summed cost."""
    (k1, (c1, _)), (k2, (c2, _)) = arms
    edges.pop(k1, None)
    edges.pop(k2, None)
    a = k1[0] if k1[1] == x else k1[1]
    b = k2[0] if k2[1] == x else k2[1]
    edges[_ekey(a, b)] = (c1 + c2, True)


def _adjacency(edges: EdgeMap) -> dict[int, list[tuple[int, int, bool]]]:
    adj: dict[int, list[tuple[int, int, bool]]] = {}
    for (a, b), (cost, realized) in edges.items():
        adj.setdefault(a, []).append((b, cost, realized))
        adj.setdefault(b, []).append((a, cost, realized))
    return adj


def _distances(adj: dict[int, list[tuple[int, int, bool]]], s: int) -> dict[int, int]:
    """Cost-weighted path length from s to every trace vertex it reaches."""
    dist = {s: 0}
    stack = [s]
    while stack:
        x = stack.pop()
        d = dist[x]
        for y, cost, _ in adj.get(x, ()):
            if y not in dist:
                dist[y] = d + cost
                stack.append(y)
    return dist


def _split_order(bag: frozenset[int], adj: dict) -> list[tuple[int, tuple[int, int]]]:
    """The trace's (split, edge) pairs in split order, from scratch.  Rooted
    at the least bag vertex, the split of the edge from a vertex toward the
    root is the mask of the bag vertices in the vertex's subtree, bit i for
    the i-th least bag label; one with no bag bit lies above a non-bag leaf,
    which raises.  Two edges share a split only along a chain of degree-2
    Steiner vertices, which normal form contracts; such edges come
    root-down, as the stable sort keeps breadth-first order.  ``adj`` is
    ``_adjacency(edges)``."""
    labels = sorted(bag)
    root = labels[0]
    up = {root: root}  # each vertex's neighbour toward the root
    down = [root]
    for x in down:
        for y, _, _ in adj.get(x, ()):
            if y not in up:
                up[y] = x
                down.append(y)
    sub = {x: 1 << i for i, x in enumerate(labels)}
    for y in down[:0:-1]:  # children before their parents
        mask = sub.get(y, 0)
        if not mask:
            raise RuntimeError("trace with a non-bag leaf")
        x = up[y]
        sub[x] = sub.get(x, 0) | mask
    return [(sub[y], _ekey(up[y], y)) for y in sorted(down[1:], key=sub.__getitem__)]


def _key(edges: EdgeMap, ranked: list) -> tuple:
    """The table key of a trace whose (split, edge) pairs in split order are
    ``ranked``: its splits and costs, interleaved in that order, and its
    realized flags as bits in that order."""
    shape = []
    realized = 0
    bit = 1
    for split, k in ranked:
        cost, done = edges[k]
        shape.append(split)
        shape.append(cost)
        if done:
            realized |= bit
        bit <<= 1
    return tuple(shape), realized


def _canon(bag: frozenset[int], edges: EdgeMap) -> tuple:
    """The table key of a trace, from scratch: its splits and costs in split
    order, and its realized flags as bits in that order (``_key``).  Edges
    that share a split, along a chain of degree-2 Steiner vertices, come
    root-down; a trace with a non-bag leaf raises (``_split_order``)."""
    return _key(edges, _split_order(bag, _adjacency(edges)))


def _steiner_tag(adj: dict[int, list[tuple[int, int, bool]]], s: int) -> str:
    tags = {realized for _, _, realized in adj[s]}
    if len(tags) != 1:
        raise RuntimeError("Steiner vertex with mixed realized/promised edges")
    return BELOW if tags.pop() else ABOVE


def _above(adj: dict[int, list[tuple[int, int, bool]]]) -> list[int]:
    """The trace's Above Steiner vertices, least label first.  Every Steiner
    vertex (negative label) is tagged here, so a trace with a mixed one
    raises: the one place the Steiner tag rule is read."""
    return [s for s in sorted(x for x in adj if x < 0) if _steiner_tag(adj, s) == ABOVE]


# ---------------------------------------------------------------------------
# DP table machinery.
# ---------------------------------------------------------------------------

class _Entry:
    """A table entry: the least cost of a trace, its edge map, its back
    pointer, and ``order``, its edges in the split order of its key.  Every
    entry carries its order: the step that builds it has the splits at hand,
    and a join reads the order instead of walking the trace."""

    __slots__ = ("cost", "edges", "back", "order")

    def __init__(self, cost: int, edges: EdgeMap, back: tuple, order: tuple):
        self.cost = cost
        self.edges = edges
        self.back = back
        self.order = order


def _merge(table: dict, key: tuple, edges: EdgeMap, cost: int, back: tuple,
           order: tuple) -> None:
    old = table.get(key)
    if old is None or cost < old.cost:
        table[key] = _Entry(cost, edges, back, order)


def _put(out: EdgeMap, shared: tuple[dict, dict], a: int, b: int, cost: int,
         realized: bool) -> None:
    """Add the edge (a, b) of (cost, realized) to ``out`` as the one key
    tuple and value tuple that ``shared`` keeps for an introduce step.  The
    collector untracks a tuple of ints once it has seen it, and a dict that
    holds only untracked objects is never tracked, so the step's edge maps
    are not among the objects every full collection visits."""
    keys, values = shared
    k = (a, b) if a < b else (b, a)
    cv = (cost, realized)
    out[keys.setdefault(k, k)] = values.setdefault(cv, cv)


def _intro_candidates(edges_j: EdgeMap, bag_j: frozenset[int], v: int, nbrs: list[int],
                      max_extra: int, max_charge: int, max_need: int, max_verts: int,
                      shared: tuple[dict, dict]):
    """Every way v can be placed into the trace whose charge, future need and
    vertex count are at most max_charge, max_need and max_verts; nbrs are v's
    graph neighbours in bag_j.

    Candidates are priced from the parent trace and built only when they
    fit.  With S(x) the sum of d(x, u) over u in nbrs, and deg = len(nbrs):

    - v hung off x by a new edge of length L: charge deg * L + S(x), need
      L - 1 more, one vertex more;
    - v in the place of an Above vertex s: charge S(s), need one less, as
      many vertices;
    - v at offset alpha on a promised edge (a, b) of cost T: charge the sum
      of min(alpha + d(a, u), T - alpha + d(b, u)), need one less, one
      vertex more;
    - v hung by an edge of length L off a fresh Above vertex there: that
      charge plus deg * L, need L - 1 more, two vertices more.

    Yields (new_edges, realized_pairs, charge): realized_pairs are the graph
    edges that become tree edges at this step; charge is the sum of the
    trace distances from v to nbrs.  New edges go in by ``_put``, through
    ``shared``, which an introduce step passes to each of its parents.

    The parent's Steiner tags are read once, by one ``_above`` call: its
    Above vertices are the attach points and places listed above, and with
    its promised edges they make its future need.
    """
    adj = _adjacency(edges_j)
    above = _above(adj)
    # the vertices still to be introduced that the trace commits to: the
    # internal vertices of its promised edges and its Above vertices
    need_j = sum(cost - 1 for cost, realized in edges_j.values() if not realized) + len(above)
    dists = [_distances(adj, u) for u in nbrs]
    deg = len(nbrs)
    room_verts = max_verts - len(bag_j | adj.keys())

    def longest(charge: int) -> int:
        """The longest new edge whose charge deg * L + charge and need
        need_j + L - 1 still fit."""
        top = min(max_extra, max_need - need_j + 1)
        if charge > max_charge:
            return 0
        if deg:
            return min(top, (max_charge - charge) // deg)
        return top

    # attach v by a single new edge to a bag vertex or an Above vertex
    if room_verts >= 1:
        for x in above + sorted(bag_j):
            base = sum(d[x] for d in dists)
            if x in bag_j:
                if x in nbrs and deg + base <= max_charge and need_j <= max_need:
                    out = dict(edges_j)
                    _put(out, shared, v, x, 1, True)
                    yield out, ((v, x),), deg + base
                first = 2
            else:
                first = 1
            for length in range(first, longest(base) + 1):
                out = dict(edges_j)
                _put(out, shared, v, x, length, False)
                yield out, (), deg * length + base

    # v takes the place of an Above vertex: unit arms to bag vertices become
    # realized graph edges, everything else keeps its cost and stays promised
    if room_verts >= 0 and need_j - 1 <= max_need:
        for s in above:
            arms = adj[s]
            charge = sum(d[s] for d in dists)
            if charge > max_charge:
                continue
            if any(cost == 1 and w in bag_j and w not in nbrs for w, cost, _ in arms):
                continue
            out = {k: cv for k, cv in edges_j.items() if s not in k}
            pairs = []
            for w, cost, _ in arms:
                if cost == 1 and w in bag_j:
                    _put(out, shared, v, w, 1, True)
                    pairs.append((v, w))
                else:
                    _put(out, shared, v, w, cost, False)
            yield out, tuple(pairs), charge

    # the charge of a point at offset alpha on a promised edge (a, b): each
    # u in nbrs lies on a's side of the edge, or on b's
    promised = []
    for (a, b), (total, realized) in edges_j.items():
        if not realized and total >= 2:
            near_a = [d[a] for d in dists if d[a] < d[b]]
            near_b = [d[b] for d in dists if d[a] > d[b]]
            promised.append((a, b, total, len(near_a), len(near_b), sum(near_a) + sum(near_b)))

    # v subdivides a promised edge at every interior offset; a unit side to a
    # bag vertex must be an actual graph edge and becomes realized
    if room_verts >= 1 and need_j - 1 <= max_need:
        for a, b, total, on_a, on_b, base in promised:
            for alpha in range(1, total):
                charge = base + on_a * alpha + on_b * (total - alpha)
                if charge > max_charge:
                    continue
                sides = []
                ok = True
                for endpoint, cost in ((a, alpha), (b, total - alpha)):
                    if cost == 1 and endpoint in bag_j:
                        if endpoint not in nbrs:
                            ok = False
                            break
                        sides.append((endpoint, cost, True))
                    else:
                        sides.append((endpoint, cost, False))
                if not ok:
                    continue
                out = dict(edges_j)
                del out[_ekey(a, b)]
                pairs = []
                for endpoint, cost, realized in sides:
                    _put(out, shared, v, endpoint, cost, realized)
                    if realized:
                        pairs.append((v, endpoint))
                yield out, tuple(pairs), charge

    # a fresh Above vertex subdivides a promised edge and v hangs off it
    if room_verts >= 2:
        fresh = _fresh(edges_j)
        for a, b, total, on_a, on_b, base in promised:
            for alpha in range(1, total):
                charge = base + on_a * alpha + on_b * (total - alpha)
                for length in range(1, longest(charge) + 1):
                    out = dict(edges_j)
                    del out[_ekey(a, b)]
                    _put(out, shared, fresh, a, alpha, False)
                    _put(out, shared, fresh, b, total - alpha, False)
                    _put(out, shared, fresh, v, length, False)
                    yield out, (), deg * length + charge


def introduce_step(
    table_j: dict,
    v: int,
    bag_j: frozenset[int],
    g: Graph,
    *,
    future_budget: int,
    limit: int,
) -> dict:
    """All parent entries for introducing v above bag_j; charges each graph
    edge between v and the bag with its trace distance.  Entries that cost
    more than ``limit``, and traces that commit to more than
    ``future_budget`` vertices still to be introduced, are dropped.  A
    trace's splits follow from its edges and the bag alone, and the Steiner
    tag check (``_above``) reads only its edges and their flags, so
    candidates with one edge set share their splits, and those with one
    edge set and realized mask one check, whichever parent they come from.
    The check comes before the splits, so a mixed trace raises the Steiner
    message even where it also has a non-bag leaf.  Each entry carries its
    edges in the split order of its key."""
    bag_i = bag_j | {v}
    cap = 2 * len(bag_i)  # Steiner vertices have degree >= 3: fewer than |bag| of them
    n = g.n
    nbrs = [u for u in g.neighbors(v) if u in bag_j]
    table_i: dict = {}
    shared: tuple[dict, dict] = ({}, {})
    # per edge set: its (split, edge) pairs, its edges in split order, and
    # the realized masks whose traces passed the tag check
    groups: dict = {}
    for key_j, entry in table_j.items():
        max_extra = (n - 1) - sum(cost for cost, _ in entry.edges.values())
        for edges_i, pairs, charge in _intro_candidates(
            entry.edges, bag_j, v, nbrs, max_extra, limit - entry.cost, future_budget, cap, shared
        ):
            names = tuple(edges_i)
            group = groups.get(names)
            if group is None:
                adj = _adjacency(edges_i)
                _above(adj)
                ranked = _split_order(bag_i, adj)
                key = _key(edges_i, ranked)
                group = groups[names] = ranked, tuple(k for _, k in ranked), {key[1]}
            else:
                key = _key(edges_i, group[0])
                if key[1] not in group[2]:
                    _above(_adjacency(edges_i))
                    group[2].add(key[1])
            _merge(table_i, key, edges_i, entry.cost + charge, ("intro", key_j, pairs), group[1])
    return table_i


def forget_step(table_j: dict, v: int, bag_i: frozenset[int]) -> dict:
    """Drop v from the trace: a vertex with promised edges cannot be
    forgotten (its future arms could never be realized); a realized leaf arm
    is removed, a degree-2 vertex is contracted, and a branch vertex becomes
    an anonymous Below Steiner vertex.  A trace's splits follow from its
    edges and the bag alone, so traces with one edge set share them."""
    table_i: dict = {}
    orders: dict = {}  # per edge set: its (split, edge) pairs and its edges in split order
    for key_j, entry in table_j.items():
        incident = [(k, cv) for k, cv in entry.edges.items() if v in k]
        if any(not realized for _, (_, realized) in incident):
            continue
        edges = {k: cv for k, cv in entry.edges.items() if v not in k}
        if len(incident) == 1:
            (k, _), = incident
            x = k[0] if k[1] == v else k[1]
            if x < 0:  # the Steiner vertex v's leaf arm hung from
                rest = [(kk, cv) for kk, cv in edges.items() if x in kk]
                if len(rest) == 2:
                    _contract(edges, x, rest)
        elif len(incident) == 2:
            _contract(edges, v, incident)
        elif len(incident) >= 3:
            fresh = _fresh(edges)
            for k, cv in incident:
                x = k[0] if k[1] == v else k[1]
                edges[_ekey(fresh, x)] = cv
        else:  # isolated v: impossible, the trace is connected and spans the bag
            raise RuntimeError("forgetting an isolated vertex")
        names = tuple(edges)
        known = orders.get(names)
        if known is None:
            ranked = _split_order(bag_i, _adjacency(edges))
            known = orders[names] = ranked, tuple(k for _, k in ranked)
        _merge(table_i, _key(edges, known[0]), edges, entry.cost, ("forget", key_j), known[1])
    return table_i


def _shared(k: tuple[int, int], cost: int) -> bool:
    """A unit edge between two bag vertices: realized on both sides of a
    join."""
    return k[0] > 0 and k[1] > 0 and cost == 1


def _blocks(edges: EdgeMap) -> list[tuple[frozenset, bool]]:
    """Partition of the trace edges into flip units for the join: Steiner
    components as wholes, long bag-to-bag edges individually; unit bag edges
    are shared (realized on both sides) and belong to no block."""
    keys = [k for k, (cost, _) in edges.items() if not _shared(k, cost)]
    index = {k: i for i, k in enumerate(keys)}
    parent = list(range(len(keys)))
    by_steiner: dict[int, list[int]] = {}
    for k in keys:
        for x in k:
            if x < 0:
                by_steiner.setdefault(x, []).append(index[k])
    for members in by_steiner.values():
        for i in members[1:]:
            parent[kernel.find(parent, members[0])] = kernel.find(parent, i)

    groups: dict[int, list] = {}
    for k in keys:
        groups.setdefault(kernel.find(parent, index[k]), []).append(k)
    out = []
    for members in groups.values():
        tags = {edges[k][1] for k in members}
        if len(tags) != 1:
            raise RuntimeError("join block with mixed realized/promised edges")
        out.append((frozenset(members), tags.pop()))
    return out


def join_step(table_j: dict, table_k: dict, bag: frozenset[int], g: Graph,
              *, limit: int) -> dict:
    """Combine complementary children: each block realized below exactly one
    child (or promised in both), bag-internal charges subtracted once.
    Entries that cost more than ``limit`` are dropped.

    A partner of an entry has its shape, so its edges in the same split
    order, and as realized bits the shared unit bag edges plus a union of
    the entry's promised blocks: each subset of those blocks names one key,
    looked up by the number of blocks and then lexicographically in
    ``_blocks`` order.  The merged trace keeps the entry's edges, in their
    order, each realized when either child realizes it."""
    # the bag-internal graph edges, grouped by their lesser endpoint
    bag_pairs = []
    for u in bag:
        ws = [w for w in g.neighbors(u) if u < w and w in bag]
        if ws:
            bag_pairs.append((u, ws))
    shapes = {shape for shape, _ in table_k}
    table_i: dict = {}
    for key_j, entry_j in table_j.items():
        shape, realized_j = key_j
        if shape not in shapes:
            continue  # no entry of its shape, so no partner
        edges_j = entry_j.edges
        order = entry_j.order
        pos = {k: i for i, k in enumerate(order)}
        shared = 0
        for k, (cost, _) in edges_j.items():
            if _shared(k, cost):
                shared |= 1 << pos[k]
        masks = [sum(1 << pos[k] for k in ks) for ks, realized in _blocks(edges_j) if not realized]
        dup = None
        for r in range(len(masks) + 1):
            for chosen in combinations(masks, r):
                key_k = (shape, shared | sum(chosen))
                entry_k = table_k.get(key_k)
                if entry_k is None:
                    continue
                if dup is None:
                    # the charges both children made for bag-internal edges;
                    # every merged trace has entry_j's edges and costs, so it
                    # has the same distances
                    dup = 0
                    adj_j = _adjacency(edges_j)
                    for u, ws in bag_pairs:
                        dist = _distances(adj_j, u)
                        dup += sum(dist[w] for w in ws)
                cost_i = entry_j.cost + entry_k.cost - dup
                if cost_i > limit:
                    continue
                # parent tag: realized below either child, so the union of
                # both masks, read at each edge's position in split order
                realized = realized_j | key_k[1]
                merged: EdgeMap = {k: (cost, realized >> pos[k] & 1 == 1)
                                   for k, (cost, _) in edges_j.items()}
                _merge(table_i, (shape, realized), merged, cost_i, ("join", key_j, key_k), order)
    return table_i


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def _bounds(g: Graph) -> tuple[int, int]:
    """(UB, girth) by one BFS per root.  UB is the least total stretch of the
    BFS trees, each the edges that first reach its vertices: the cost of a
    known spanning tree, so no less than the optimum.  The girth is the length
    of the shortest cycle; g is connected, so unless it is a tree, m >= n and
    the first search meets a cycle.  A tree is its own only spanning tree,
    each edge of stretch 1: no search, and girth 2, so that ``_limit``'s term
    vanishes."""
    n = g.n
    if g.m == n - 1:
        return g.m, 2
    upper = girth = None
    for root in range(1, n + 1):
        depth = [-1] * (n + 1)
        via = [0] * (n + 1)  # the edge ID that first reached each vertex
        in_tree = bytearray(g.m)
        depth[root] = 0
        queue = [root]
        for x in queue:
            dx = depth[x]
            for eid in g.incident[x]:
                if eid == via[x]:
                    continue
                a, b = g.edges[eid - 1]
                y = b if a == x else a
                if depth[y] < 0:
                    depth[y] = dx + 1
                    via[y] = eid
                    in_tree[eid - 1] = 1
                    queue.append(y)
                elif girth is None or dx + depth[y] + 1 < girth:
                    girth = dx + depth[y] + 1
        total = sum(kernel._stretches(n, g.edges, in_tree))
        if upper is None or total < upper:
            upper = total
    return upper, girth


def _limit(g: Graph, upper: int, girth: int, nd: NiceNode) -> int:
    """The most an entry of the introduce or join node ``nd`` may cost:
    ``upper`` less the least the uncharged edges can still add, one per edge
    plus girth - 2 per edge that must be a non-tree edge."""
    unch = g.m - nd.inside
    free = (g.n - 1) - (nd.size - len(nd.bag))
    return upper - unch - (girth - 2) * max(0, unch - free)


class DPResult(_Record):
    """The DP's optimum, a witness tree, the width, and the tables and nice
    nodes themselves (the witness walk reads every table, so they are all
    alive until the DP returns)."""

    def __init__(self, min_total_stretch: int, min_avg_stretch: Fraction, tree_edges: frozenset[int],
                 width: int, tables: list[dict], nodes: list[NiceNode]):
        vars(self).update(min_total_stretch=min_total_stretch, min_avg_stretch=min_avg_stretch,
                          tree_edges=tree_edges, width=width, tables=tables, nodes=nodes)

    @property
    def table_sizes(self) -> tuple[int, ...]:
        """The number of entries of each node's table, in node order."""
        return tuple(len(t) for t in self.tables)


def dp_min_stretch(
    g: Graph,
    decomposition: TreeDecomposition,
    *,
    enforce_limits: bool = True,
) -> DPResult:
    """Leaf-to-root DP over the nice form of ``decomposition``, a tree
    decomposition of g that ``make_nice`` checks; returns the exact optimum
    and a witness tree.  The nice nodes come children first, so the DP walks
    them in index order.

    The table at a bag indexes every contracted trace a spanning tree can
    leave on it; the stored cost is the minimum total stretch of graph edges
    already fully introduced.  The limits MAX_WIDTH and MAX_N guard the
    Theta(n^(k+1)) table growth; enforce_limits=False lifts them.  Every
    run checks the optimum against the stretch of the witness it rebuilds.
    """
    nodes = make_nice(decomposition, g)
    width = max(len(nd.bag) for nd in nodes) - 1
    if enforce_limits:
        if width > MAX_WIDTH:
            raise DPLimitError(
                f"decomposition width {width} exceeds limit {MAX_WIDTH}: "
                "the table grows as n^(k+1)"
            )
        if g.n > MAX_N:
            raise DPLimitError(
                f"graph has {g.n} vertices, limit {MAX_N}: "
                "the table grows as n^(k+1)"
            )

    n = g.n
    upper, girth = _bounds(g)
    tables: list[dict | None] = [None] * len(nodes)
    for node_id, nd in enumerate(nodes):
        if nd.kind == "leaf":
            tables[node_id] = {_canon(nd.bag, {}): _Entry(0, {}, ("leaf",), ())}
        elif nd.kind == "forget":
            tables[node_id] = forget_step(tables[nd.children[0]], nd.vertex, nd.bag)
        else:
            limit = _limit(g, upper, girth, nd)
            if nd.kind == "introduce":
                child = nd.children[0]
                tables[node_id] = introduce_step(
                    tables[child], nd.vertex, nodes[child].bag, g,
                    future_budget=n - nd.size, limit=limit,
                )
            else:
                j, k = nd.children
                tables[node_id] = join_step(tables[j], tables[k], nd.bag, g, limit=limit)
        if not tables[node_id]:
            raise RuntimeError(
                f"empty DP table at node {node_id} ({nd.kind}); this is a bug: "
                f"every connected graph has a spanning tree"
            )

    root = len(nodes) - 1
    root_bag = nodes[root].bag
    answer_key = _canon(root_bag, {})
    entry = tables[root].get(answer_key)
    if entry is None:
        raise RuntimeError("no complete configuration at the root; this is a bug")

    pairs: set[tuple[int, int]] = set()
    stack = [(root, answer_key)]
    while stack:
        node_id, key = stack.pop()
        back = tables[node_id][key].back
        if back[0] == "intro":
            pairs.update(_ekey(a, b) for a, b in back[2])
        stack.extend(zip(nodes[node_id].children, back[1:]))
    if len(pairs) != n - 1:
        raise RuntimeError(f"witness has {len(pairs)} edges, expected {n - 1}; this is a bug")
    by_pair = {edge: eid for eid, edge in enumerate(g.edges, start=1)}
    tree_ids = frozenset(by_pair[p] for p in pairs)
    check = stretch_of(g, tree_ids)
    if check.total_stretch != entry.cost:
        raise RuntimeError(
            f"witness stretch {check.total_stretch} disagrees with DP optimum {entry.cost}; this is a bug"
        )
    return DPResult(
        min_total_stretch=entry.cost,
        min_avg_stretch=check.avg_stretch,
        tree_edges=tree_ids,
        width=width,
        tables=tables,
        nodes=nodes,
    )
