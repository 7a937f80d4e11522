"""Shared enumeration helpers for the sweep tests, a capped CLI runner,
and the b-factor flow oracle for the rounding's leaf peel."""

from __future__ import annotations

import itertools
import os
import resource
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from pathlib import Path
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from fairsplit.necklace import _out_of_budget
from fairsplit.paths import ColoredPath

SRC = Path(__file__).resolve().parent.parent / "src"


def restricted_growth_strings(n: int, max_labels: int | None = None) -> Iterator[tuple[int, ...]]:
    """All restricted growth strings of length n (equivalently set partitions)."""
    if n == 0:
        return
    cap = n if max_labels is None else max_labels

    def rec(i: int, used: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(prefix)
            return
        for label in range(min(used + 1, cap)):
            prefix.append(label)
            yield from rec(i + 1, max(used, label + 1), prefix)
            prefix.pop()

    yield from rec(0, 0, [])


def set_partitions(n: int, max_classes: int | None = None) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of {1..n} into nonempty classes, ordered by first occurrence."""
    for rgs in restricted_growth_strings(n, max_classes):
        m = max(rgs) + 1
        classes: list[list[int]] = [[] for _ in range(m)]
        for v, label in enumerate(rgs, start=1):
            classes[label].append(v)
        yield tuple(tuple(c) for c in classes)


def iter_colorings(n: int, max_m: int) -> Iterator[ColoredPath]:
    """All paths on n vertices with at most max_m colors, every color used.

    The m^n product twin of ``iter_canonical_colorings``: the oracle for
    it and for ``conjecture-scan``'s exhaustive sweep.
    """
    for m in range(1, min(max_m, n) + 1):
        for colors in itertools.product(range(1, m + 1), repeat=n):
            if len(set(colors)) == m:
                yield ColoredPath(colors)


def canonical_colorings(n: int, max_m: int) -> Iterator[tuple[int, ...]]:
    """Color sequences of length n, at most max_m colors, labeled by first occurrence.

    One sequence per set partition, so sweeps over these are sweeps over
    partitions of the path's vertex set.
    """
    for rgs in restricted_growth_strings(n, max_m):
        yield tuple(label + 1 for label in rgs)


def fraction_allocation_oracle(cont, neck) -> dict[tuple[int, int], Fraction]:
    """(thief, bead) -> amount, by a segment walk in Fractions.

    The reference for ``ContinuousSplitting.allocation``, which computes
    the same map in integer units of 1/d.
    """
    alloc: dict[tuple[int, int], Fraction] = {}
    bounds = (Fraction(0), *cont.cuts, Fraction(neck.n))
    for owner, lo, hi in zip(cont.owners, bounds, bounds[1:]):
        for k in range(floor(lo) + 1, ceil(hi) + 1):
            amt = min(hi, Fraction(k)) - max(lo, Fraction(k - 1))
            if amt > 0:
                key = (owner, k)
                alloc[key] = alloc.get(key, Fraction(0)) + amt
    return alloc


def run_cli_capped(
    argv: list[str], stdin: str | bytes = "", *, memory_mb: int = 512, timeout: float = 30.0
) -> tuple[int, str, str, float]:
    """Run ``python -m fairsplit.cli`` with argv in a capped subprocess.

    The child's address space is limited to memory_mb (RLIMIT_AS), and
    OpenBLAS runs one thread, whose buffers then fit under that cap.
    A str stdin is sent as UTF-8, bytes as they are.
    Returns (exit code, stdout, stderr, seconds elapsed).
    """
    limit = memory_mb * 2**20

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "fairsplit.cli", *argv],
        input=stdin.encode() if isinstance(stdin, str) else stdin,
        capture_output=True, env=env, timeout=timeout, preexec_fn=cap,
    )
    elapsed = time.perf_counter() - start
    return done.returncode, done.stdout.decode(), done.stderr.decode(), elapsed


def first_owner_list_rule(
    beads: Sequence[int],
    target: Sequence[Sequence[int]],
    min_cuts: int,
    max_cuts: int,
    budget: int,
) -> tuple[int, ...] | None:
    """``necklace._first_owner`` with the list twin rule: the oracle for it.

    Here every thief keeps the list of all lower thieves with its target
    row, and a thief holding nothing is pruned when any of them holds
    nothing too; the search itself keeps only the nearest such thief.
    """
    n, q = len(beads), len(target)
    colors = [c - 1 for c in beads]
    totals = [sum(row) for row in target]
    twins = [[s for s in range(t) if target[s] == target[t]] for t in range(q)]
    # orders[p]: the thieves to try after a bead held by p, keeping p
    # first; orders[q] serves the first bead, which has no holder before it
    orders = [[p, *(t for t in range(q) if t != p)] for p in range(q)]
    orders.append(list(range(q)))
    nodes = 0

    for limit in range(min_cuts, max_cuts + 1):
        owed = [list(row) for row in target]
        left = totals[:]
        owing = sum(1 for x in left if x)
        # every owed thief but the first needs a cut; each move below
        # keeps cuts + owing - 1 <= limit, so only switches are checked
        if owing - 1 > limit:
            continue
        # held[d] holds the thief of bead d-1; held[0] is the sentinel q
        held = [q] * (n + 1)
        tried = [0] * (n + 1)
        cuts = d = 0
        while True:
            if d == n:
                return tuple(t + 1 for t in held[1:])
            k = tried[d]
            if k == 0:
                nodes += 1
                if nodes > budget:
                    raise _out_of_budget(budget)
            if k == q:
                if d == 0:
                    break
                d -= 1
                t = held[d + 1]
                if not left[t]:
                    owing += 1
                left[t] += 1
                owed[t][colors[d]] += 1
                if d and held[d] != t:
                    cuts -= 1
                continue
            tried[d] = k + 1
            prev = held[d]
            t = orders[prev][k]
            switch = d > 0 and t != prev
            if switch and cuts + owing > limit:
                tried[d] = q
                continue
            if not owed[t][colors[d]]:
                continue
            if left[t] == totals[t] and any(left[s] == totals[s] for s in twins[t]):
                continue
            owed[t][colors[d]] -= 1
            left[t] -= 1
            if not left[t]:
                owing -= 1
            cuts += switch
            d += 1
            held[d] = t
            tried[d] = 0
    return None


# === bipartite b-factors by augmenting-path maximum flow ===
#
# A b-factor of a bipartite graph is an edge subset F in which every
# vertex v meets exactly b(v) edges of F.  ``find_b_factor`` computes one
# through a unit-capacity flow network (source -> left -> right -> sink,
# vertex capacities b, edge capacities 1); the factor exists exactly when
# the maximum flow saturates both sides.  When it does not, the minimum
# cut yields a witness set X spanning too few edges for its demand,
#
#     2 |E[X]| < 2 b(X) - b(V),
#
# which certifies nonexistence; ``witness_slack`` evaluates that margin.
# It is the oracle for ``fairsplit.rounding.find_b_factor``, which peels
# the leaves of a forest instead.

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
