"""Bipartite b-factors by augmenting-path maximum flow.

A b-factor of a bipartite graph is an edge subset F in which every
vertex v meets exactly b(v) edges of F.  ``find_b_factor`` computes one
through a unit-capacity flow network (source -> left -> right -> sink,
vertex capacities b, edge capacities 1); the factor exists exactly when
the maximum flow saturates both sides.  When it does not, the minimum
cut yields a witness set X spanning too few edges for its demand,

    2 |E[X]| < 2 b(X) - b(V),

which certifies nonexistence; ``witness_slack`` evaluates that margin.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


@dataclass(frozen=True)
class BipartiteGraph:
    """Two vertex sides and edges as (left, right) pairs.

    The sides are separate namespaces: the same label may appear on
    both sides and names two different vertices.  Edges are stored
    sorted so every traversal below is deterministic.
    """

    left: tuple[Vertex, ...]
    right: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        left = tuple(self.left)
        right = tuple(self.right)
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise ValueError("duplicate vertex labels within a side")
        edges = tuple(sorted(set(map(tuple, self.edges))))
        ls, rs = set(left), set(right)
        for l, r in edges:
            if l not in ls or r not in rs:
                raise ValueError(f"edge ({l!r}, {r!r}) leaves the vertex sets")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "edges", edges)


@dataclass(frozen=True)
class BFactorResult:
    """Either a factor or a deficiency witness (X = witness_left ∪ witness_right)."""

    factor: frozenset[Edge] | None
    witness_left: frozenset[Vertex]
    witness_right: frozenset[Vertex]

    @property
    def ok(self) -> bool:
        return self.factor is not None


def verify_b_factor(
    graph: BipartiteGraph,
    b_left: Mapping[Vertex, int],
    b_right: Mapping[Vertex, int],
    factor: Iterable[Edge],
) -> bool:
    """True iff the edge set meets every prescribed degree exactly."""
    chosen = set(map(tuple, factor))
    if not chosen <= set(graph.edges):
        return False
    for v in graph.left:
        if sum(1 for l, _ in chosen if l == v) != b_left.get(v, 0):
            return False
    for v in graph.right:
        if sum(1 for _, r in chosen if r == v) != b_right.get(v, 0):
            return False
    return True


def witness_slack(
    graph: BipartiteGraph,
    b_left: Mapping[Vertex, int],
    b_right: Mapping[Vertex, int],
    witness_left: Iterable[Vertex],
    witness_right: Iterable[Vertex],
) -> int:
    """2 b(X) - b(V) - 2 |E[X]| for X the given vertex set.

    Any factor covers X's demand with at most |E[X]| internal edges
    plus one unit per remaining factor edge, so a positive slack proves
    no factor exists.
    """
    wl, wr = set(witness_left), set(witness_right)
    spanned = sum(1 for l, r in graph.edges if l in wl and r in wr)
    bx = sum(b_left.get(v, 0) for v in wl) + sum(b_right.get(v, 0) for v in wr)
    bv = sum(b_left.get(v, 0) for v in graph.left) + sum(
        b_right.get(v, 0) for v in graph.right
    )
    return 2 * bx - bv - 2 * spanned


def find_b_factor(
    graph: BipartiteGraph,
    b_left: Mapping[Vertex, int],
    b_right: Mapping[Vertex, int],
) -> BFactorResult:
    """A b-factor of the graph, or a witness that none exists.

    Runs breadth-first augmenting paths on the unit-capacity network,
    kept as a sparse residual graph: a vertex without demand or edges
    costs nothing.  Degrees missing from the prescriptions default to
    zero.
    """
    bl = {v: int(b_left.get(v, 0)) for v in graph.left}
    br = {v: int(b_right.get(v, 0)) for v in graph.right}
    if any(d < 0 for d in bl.values()) or any(d < 0 for d in br.values()):
        raise ValueError("degree prescriptions must be nonnegative")
    total_l, total_r = sum(bl.values()), sum(br.values())
    if total_l != total_r:
        # the heavier side alone is already a witness: it spans no edges
        if total_l > total_r:
            return BFactorResult(
                factor=None,
                witness_left=frozenset(v for v, d in bl.items() if d > 0),
                witness_right=frozenset(),
            )
        return BFactorResult(
            factor=None,
            witness_left=frozenset(),
            witness_right=frozenset(v for v, d in br.items() if d > 0),
        )

    li = {v: i + 1 for i, v in enumerate(graph.left)}
    ri = {v: len(graph.left) + 1 + i for i, v in enumerate(graph.right)}
    sink = len(graph.left) + len(graph.right) + 1
    size = sink + 1
    # the arcs of positive capacity in row-major order (source arcs, edge
    # arcs, sink arcs); each adj list holds its vertex's arcs and reverse
    # arcs in that order, which fixes the BFS order and so the result
    arcs = [(0, li[v], d) for v, d in bl.items() if d]
    arcs += sorted((li[l], ri[r], 1) for l, r in graph.edges)
    arcs += [(ri[v], sink, d) for v, d in br.items() if d]
    cap: list[dict[int, int]] = [{} for _ in range(size)]
    adj: list[list[int]] = [[] for _ in range(size)]
    for i, j, c in arcs:
        cap[i][j] = c
        cap[j][i] = 0
        adj[i].append(j)
        adj[j].append(i)

    flow = 0
    while True:
        parent = [-1] * size
        parent[0] = 0
        queue = deque([0])
        while queue and parent[sink] == -1:
            u = queue.popleft()
            for w in adj[u]:
                if parent[w] == -1 and cap[u][w] > 0:
                    parent[w] = u
                    queue.append(w)
        if parent[sink] == -1:
            break
        path = []
        node = sink
        while node != 0:
            path.append((parent[node], node))
            node = parent[node]
        bottleneck = min(cap[a][b] for a, b in path)
        for a, b in path:
            cap[a][b] -= bottleneck
            cap[b][a] += bottleneck
        flow += bottleneck

    if flow == total_l:
        factor = frozenset(
            (l, r) for l, r in graph.edges if cap[li[l]][ri[r]] == 0
        )
        return BFactorResult(
            factor=factor, witness_left=frozenset(), witness_right=frozenset()
        )

    # min cut: X = (reachable left) ∪ (unreachable right)
    reach = [False] * size
    reach[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if not reach[w] and cap[u][w] > 0:
                reach[w] = True
                queue.append(w)
    return BFactorResult(
        factor=None,
        witness_left=frozenset(v for v in graph.left if reach[li[v]]),
        witness_right=frozenset(v for v in graph.right if not reach[ri[v]]),
    )
