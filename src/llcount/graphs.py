"""Finite simple graphs plus the enumeration, coloring and product primitives
that the polymer-model machinery is built on.

Vertices are dense integer indices 0..n-1.
"""

from __future__ import annotations

from itertools import repeat
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence


class DependencyGraph:
    """Immutable simple undirected graph.

    Adjacency is stored as sorted duplicate-free tuples and is validated to be
    symmetric and loop-free on construction; the maximum degree is computed
    once, there.
    """

    __slots__ = ("vertex_count", "_adj", "_max_degree")

    def __init__(self, vertex_count: int, adjacency: Sequence[Iterable[int]]):
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        rows = [tuple(sorted(row)) for row in adjacency]
        if len(rows) != vertex_count:
            raise ValueError("adjacency length does not match vertex_count")
        for v, row in enumerate(rows):
            # whole-row tests, in the order a scan of the sorted row meets the
            # faults: a negative neighbour lies before v, one past the end
            # after it
            if not row:
                continue
            if row[0] < 0:
                raise ValueError(f"neighbor {row[0]} of vertex {v} out of range")
            if v in row:
                raise ValueError(f"self-loop at vertex {v}")
            if row[-1] >= vertex_count:
                w = next(w for w in row if w >= vertex_count)
                raise ValueError(f"neighbor {w} of vertex {v} out of range")
            if len(set(row)) != len(row):
                raise ValueError(f"duplicate neighbor in adjacency of vertex {v}")
        # the vertices that look for themselves in a row come in ascending
        # order, so each search of a row goes on from where the last ended
        start = [0] * vertex_count
        for v, row in enumerate(rows):
            for w in row:
                back, i = rows[w], start[w]
                while i < len(back) and back[i] < v:
                    i += 1
                if i == len(back) or back[i] != v:
                    raise ValueError(f"asymmetric adjacency between {v} and {w}")
                start[w] = i + 1
        self._set_rows(rows)

    @classmethod
    def from_sorted_rows(cls, rows: Sequence[tuple[int, ...]]
                         ) -> DependencyGraph:
        """The graph with these neighbour rows, taken as they are: each
        row sorted, duplicate-free and loop-free, and the rows symmetric.
        For graph constructions whose rows are so by design; it skips the O(E)
        validation of ``__init__``."""
        g = object.__new__(cls)
        g._set_rows(rows)
        return g

    def _set_rows(self, rows: Sequence[tuple[int, ...]]) -> None:
        self.vertex_count = len(rows)
        self._adj = tuple(rows)
        self._max_degree = max(map(len, rows), default=0)

    def vertices(self) -> range:
        return range(self.vertex_count)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def max_degree(self) -> int:
        return self._max_degree

    def edge_count(self) -> int:
        return sum(len(row) for row in self._adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.vertex_count):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def __repr__(self) -> str:
        return f"DependencyGraph(n={self.vertex_count}, m={self.edge_count()})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> DependencyGraph:
    """Build a graph from an edge list, deduplicating repeated edges.

    Raises ValueError for out-of-range endpoints or self-loops.
    """
    adj = [set() for _ in range(n)]
    for u, v in edges:
        check_edge(n, u, v)
        adj[u].add(v)
        adj[v].add(u)
    return DependencyGraph.from_sorted_rows(
        [tuple(sorted(row)) for row in adj])


def check_edge(n: int, u: int, v: int) -> None:
    """Raise ValueError unless (u, v) joins two distinct vertices of 0..n-1."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) has an endpoint out of range [0, {n})")
    if u == v:
        raise ValueError(f"self-loop ({u}, {v})")


def support_dependency_graph(ps) -> DependencyGraph:
    """One vertex per projector of the ProjectorSet ``ps``; an edge iff the
    supports intersect.  It lives here, with no numpy import, so that the
    CLI can bind it without loading the projector stack."""
    return intersection_graph([p.support for p in ps.projectors])


def intersection_graph(sets: Iterable[Iterable[Hashable]]) -> DependencyGraph:
    """One vertex per set; an edge iff two sets share an element.

    Built from an element -> holders inverted index, so the cost is the total
    set size plus the edges found, not all pairs of sets.  Elements held by
    the same sets form one holder group, which updates the adjacency once.
    """
    # each element's holders, ascending, as one small tuple
    holders: dict[Hashable, tuple[int, ...]] = {}
    get = holders.get
    v = -1
    for v, elements in enumerate(sets):
        one = (v,)
        for x in elements:
            holders[x] = get(x, ()) + one
    adj: list[set[int]] = [set() for _ in range(v + 1)]
    for vs in set(holders.values()):
        if len(vs) == 2:
            u, w = vs
            if u != w:  # an element repeated within one set
                adj[u].add(w)
                adj[w].add(u)
        elif len(vs) > 2:
            for v in vs:
                row = adj[v]
                row.update(vs)
                row.discard(v)
    # symmetric, loop-free and duplicate-free by construction
    return DependencyGraph.from_sorted_rows(
        [tuple(sorted(row)) for row in adj])


class Coloring(NamedTuple):
    """A proper coloring: class_of[v] is the color index of vertex v."""

    class_of: tuple[int, ...]
    num_colors: int

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_colors)]
        for v, c in enumerate(self.class_of):
            out[c].append(v)
        return out

    def assert_proper(self, g: DependencyGraph) -> None:
        if len(self.class_of) != g.vertex_count:
            raise ValueError("coloring size does not match graph order")
        for u, v in g.edges():
            if self.class_of[u] == self.class_of[v]:
                raise ValueError(f"improper coloring: edge ({u}, {v}) is monochromatic")


def greedy_coloring(g: DependencyGraph) -> Coloring:
    """Greedy proper coloring in ascending vertex order, smallest available color.

    Uses at most max_degree + 1 colors and is deterministic.
    """
    class_of = [-1] * g.vertex_count
    for v in g.vertices():
        taken = {class_of[w] for w in g.neighbors(v) if class_of[w] >= 0}
        c = 0
        while c in taken:
            c += 1
        class_of[v] = c
    num_colors = max(class_of) + 1 if class_of else 0
    return Coloring(tuple(class_of), num_colors)


def strong_product_with_complete(g: DependencyGraph, t: int) -> DependencyGraph:
    """Strong product of g with the complete graph on t vertices.

    Vertex (v, tau) maps to index v*t + tau.  If g has max degree D and a
    vertex attaining it, the product has max degree t*(D+1) - 1.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    adj = []
    for v in g.vertices():
        for tau in range(t):
            row = [v * t + s for s in range(t) if s != tau]
            for u in g.neighbors(v):
                row.extend(u * t + s for s in range(t))
            adj.append(tuple(sorted(row)))
    # symmetric, loop-free and duplicate-free because g is
    return DependencyGraph.from_sorted_rows(adj)


def enumerate_connected_subgraphs(g: DependencyGraph, m: int
                                  ) -> Iterator[tuple[int, ...]]:
    """Yield every connected induced subgraph of order 1..m exactly once.

    Subgraphs are identified by their sorted vertex tuple.  Enumeration grows
    rooted sets from each vertex, with vertices below the root forbidden so
    each set is emitted only from its smallest vertex.  The order of emission
    is deterministic (DFS, ascending extensions), root by root.  The cost
    per root is its ball plus the sets it emits.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    for root in g.vertices():
        ball, masks, _ = keyed_ball(g, root, m)
        yield from ball_sets(ball, masks, m)


def ball_sets(ball: Sequence[int], masks: Sequence[int], m: int
              ) -> Iterator[tuple[int, ...]]:
    """The connected sets of order <= m with smallest vertex ``ball[0]``, as
    sorted tuples grown lazily on bitmasks over the root's ball and its
    adjacency masks (see ``keyed_ball``), in the order of
    ``enumerate_connected_subgraphs``."""
    return (tuple([ball[i] for i in mask_bits(subset)])
            for subset in connected_masks(masks, m, 0))


def keyed_ball(g: DependencyGraph, root: int, m: int,
               labels: tuple[Sequence[Hashable], Sequence[Sequence[Hashable]]]
               | None = None
               ) -> tuple[list[int], tuple[int, ...], Hashable | None]:
    """The ball of ``root``, its adjacency masks and, given ``labels``, its
    key.

    The ball holds the sorted vertices that the connected sets of order <= m
    with smallest vertex ``root`` lie in: the root, and the vertices above
    it within m - 1 steps of it through such vertices.  So G[ball] is
    connected.  Mask i has bit j set iff ball[i] and ball[j] are adjacent.

    ``labels`` is a pair (vertex labels, edge labels): a label per vertex,
    and per vertex v a sequence aligned with ``g.neighbors(v)`` whose items
    at the neighbours above v label those edges.  The key is then (masks,
    the ball's vertex labels in order, then the labels of its edges (i, j),
    i < j, in order); without labels it is None.
    """
    neighbors = g.neighbors
    seen = {root}
    frontier = [root]
    for _ in range(m - 1):
        grown = []
        for v in frontier:
            for w in neighbors(v):
                if w > root and w not in seen:
                    seen.add(w)
                    grown.append(w)
        if not grown:
            break
        frontier = grown
    ball = sorted(seen)
    if labels is None:
        return ball, tuple(induced_masks(g, ball)), None
    vertex_labels, edge_labels = labels
    key = [vertex_labels[v] for v in ball]
    masks = tuple(induced_masks(g, ball, edge_labels, key))
    return ball, masks, (masks, tuple(key))


def induced_masks(g: DependencyGraph, vertices: Sequence[int],
                  edge_labels: Sequence[Sequence[Hashable]] | None = None,
                  out: list | None = None) -> list[int]:
    """Adjacency bitmasks of the induced subgraph G[vertices], with bit i
    standing for vertices[i].

    Given ``edge_labels`` (per vertex v a sequence aligned with
    ``g.neighbors(v)``) and a sorted ``vertices``, the labels of the induced
    edges (v, w), v < w, are appended to ``out`` in order.
    """
    index = {v: i for i, v in enumerate(vertices)}.get
    neighbors = g.neighbors
    unlabelled = repeat(None)
    masks = []
    for v in vertices:
        mask = 0
        for w, label in zip(neighbors(v), unlabelled if edge_labels is None
                            else edge_labels[v]):
            i = index(w)
            if i is not None:
                mask |= 1 << i
                if out is not None and w > v:
                    out.append(label)
        masks.append(mask)
    return masks


def mask_bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def connected_masks(adj: Sequence[int], m: int, root: int) -> Iterator[int]:
    """Bitmasks of the connected vertex sets of order 1..m whose smallest
    vertex is ``root``, on the graph with adjacency bitmasks ``adj``.

    Depth-first with ascending extensions, in the order of
    ``enumerate_connected_subgraphs``: a set's children add one neighbour
    each, and each child bans its elder siblings, so no set repeats.
    """
    # (set, its neighbourhood, banned vertices, order); vertices below the
    # root are banned from the start
    stack = [(1 << root, adj[root], (1 << root) - 1, 1)]
    while stack:
        subset, reach, banned, size = stack.pop()
        yield subset
        if size == m:
            continue
        ext = reach & ~(subset | banned)
        children = []
        while ext:
            low = ext & -ext
            children.append((subset | low, reach | adj[low.bit_length() - 1],
                             banned, size + 1))
            banned |= low
            ext ^= low
        stack.extend(reversed(children))


def induced_components(g: DependencyGraph, vertices: Iterable[int]) -> list[tuple[int, ...]]:
    """Connected components of the subgraph induced by the given vertex set,
    ordered by smallest contained vertex."""
    pool = set(vertices)
    for v in pool:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {v} out of range")
    out = []
    seen: set[int] = set()
    for v in sorted(pool):
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        queue = [v]
        while queue:
            u = queue.pop()
            for w in g.neighbors(u):
                if w in pool and w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        out.append(tuple(sorted(comp)))
    return out
