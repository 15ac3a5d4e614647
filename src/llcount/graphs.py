"""Finite simple graphs plus the enumeration, coloring and product primitives
that the polymer-model machinery is built on.

Vertices are dense integer indices 0..n-1.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence


class DependencyGraph:
    """Immutable simple undirected graph.

    Adjacency is stored as sorted duplicate-free tuples and is validated to be
    symmetric and loop-free on construction.
    """

    __slots__ = ("vertex_count", "_adj")

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
        self.vertex_count = vertex_count
        self._adj = tuple(rows)

    def vertices(self) -> range:
        return range(self.vertex_count)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def max_degree(self) -> int:
        if self.vertex_count == 0:
            return 0
        return max(len(row) for row in self._adj)

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
    return DependencyGraph(n, adj)


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


def intersection_graph(sets: Sequence[Iterable[Hashable]]) -> DependencyGraph:
    """One vertex per set; an edge iff two sets share an element.

    Built from an element -> vertex inverted index, so the cost is the total
    set size plus the edges found, not all pairs of sets.  Elements held by
    the same sets form one holder group, which updates the adjacency once.
    """
    holders: dict[Hashable, list[int]] = {}
    for v, elements in enumerate(sets):
        for x in elements:
            holders.setdefault(x, []).append(v)
    adj: list[set[int]] = [set() for _ in sets]
    for vs in set(map(tuple, holders.values())):
        if len(vs) > 1:
            for v in vs:
                adj[v].update(vs)
    for v, row in enumerate(adj):
        row.discard(v)
    return DependencyGraph(len(adj), adj)


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
    n = g.vertex_count
    adj = []
    for v in range(n):
        for tau in range(t):
            row = [v * t + s for s in range(t) if s != tau]
            for u in g.neighbors(v):
                row.extend(u * t + s for s in range(t))
            adj.append(row)
    return DependencyGraph(n * t, adj)


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
        ball = root_ball(g, root, m)
        yield from ball_sets(ball, induced_masks(g, ball), m)


def ball_sets(ball: Sequence[int], masks: Sequence[int], m: int
              ) -> Iterator[tuple[int, ...]]:
    """The connected sets of order <= m with smallest vertex ``ball[0]``, as
    sorted tuples grown lazily on bitmasks over the root's ``root_ball`` and
    its ``induced_masks``, in the order of ``enumerate_connected_subgraphs``."""
    return (tuple([ball[i] for i in mask_bits(subset)])
            for subset in connected_masks(masks, m, 0))


def root_ball(g: DependencyGraph, root: int, m: int) -> list[int]:
    """The sorted vertices that the connected sets of order <= m with
    smallest vertex ``root`` lie in: the root, and the vertices above it
    within m - 1 steps of it through such vertices."""
    seen = {root}
    frontier = [root]
    for _ in range(m - 1):
        grown = []
        for v in frontier:
            for w in g.neighbors(v):
                if w > root and w not in seen:
                    seen.add(w)
                    grown.append(w)
        if not grown:
            break
        frontier = grown
    return sorted(seen)


def induced_masks(g: DependencyGraph, vertices: Sequence[int]) -> list[int]:
    """Adjacency bitmasks of the induced subgraph G[vertices], with bit i
    standing for vertices[i]."""
    index = {v: i for i, v in enumerate(vertices)}
    out = []
    for v in vertices:
        mask = 0
        for w in g.neighbors(v):
            i = index.get(w)
            if i is not None:
                mask |= 1 << i
        out.append(mask)
    return out


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
