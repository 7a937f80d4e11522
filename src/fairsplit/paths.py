"""Fair splitting of vertex-colored paths.

The path on vertices 1..n carries a coloring V_1, ..., V_m.  Two kinds
of splits are computed and verified here:

* pair splits: after removing one vertex per color, the survivors fall
  into two disjoint independent sets S_1, S_2 whose sizes differ by at
  most one and which share each color class almost equally
  (|S_i ^ V_j| between |V_j|/2 - 1 and |V_j|/2).  Such a split always
  exists; ``solve_pair_split`` finds one by enumerating removals and
  alternating the survivors.

* q-stable splits: q classes whose members are pairwise at path
  distance >= q, covering all but q-1 vertices per color, with class
  sizes differing by at most one and every class holding at least
  floor((|V_j|+1)/q) - 1 vertices of each color.  Existence for all q
  is open; ``solve_qstable_bruteforce`` searches depth-first,
  ``compose_splits`` lifts solvers for q' and q'' to q'q'', and
  ``solve_qstable_power2`` composes pair splits for q a power of two.

The floor/ceil division identities used by the composition are exposed
as ``floor_ceil_identities`` (floor is toward minus infinity, matching
Python's ``//``).
"""

from __future__ import annotations

import itertools
import logging
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import NODE_BUDGET, BudgetExceededError, InternalInvariantError, PreconditionError
from .errors import SchemaError

logger = logging.getLogger(__name__)

PAIR_BUDGET = 10**7


def check_coloring(colors: Sequence[int]) -> None:
    """Raise SchemaError unless colors are 1..m, for some m >= 1, with every one used.

    Linear in len(colors) whatever the values: the range compared against
    has one entry per distinct color.
    """
    used = set(colors)
    try:
        # no colors, or a maximum that range() cannot read through
        # __index__ (1.0, "a"), fails here
        ok = operator.index(max(used) + 1) == len(used) + 1
    except (TypeError, ValueError):
        ok = False
    if not ok or used != set(range(1, len(used) + 1)):
        raise SchemaError("colors must be 1..m, for some m >= 1, with every color used")


@dataclass(frozen=True)
class ColoredPath:
    """A path on vertices 1..n with colors[i-1] the color of vertex i.

    Colors must be the contiguous range 1..m with every color used.
    """

    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        check_coloring(self.colors)

    @property
    def n(self) -> int:
        return len(self.colors)

    @property
    def m(self) -> int:
        return max(self.colors)

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """classes[j-1] = sorted vertices of color j."""
        out: list[list[int]] = [[] for _ in range(self.m)]
        for v, c in enumerate(self.colors, start=1):
            out[c - 1].append(v)
        return tuple(tuple(cls) for cls in out)

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(cls) for cls in self.classes)


@dataclass(frozen=True)
class PairSplit:
    """Two independent sets plus one removed vertex per color."""

    removed: Mapping[int, int]
    s1: frozenset[int]
    s2: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "removed", dict(self.removed))
        object.__setattr__(self, "s1", frozenset(self.s1))
        object.__setattr__(self, "s2", frozenset(self.s2))


@dataclass(frozen=True)
class StableSplit:
    """q pairwise-distant classes plus q-1 removed vertices per color."""

    q: int
    removed: Mapping[int, frozenset[int]]
    classes: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "removed", {j: frozenset(vs) for j, vs in dict(self.removed).items()}
        )
        object.__setattr__(self, "classes", tuple(frozenset(c) for c in self.classes))
        if len(self.classes) != self.q:
            raise SchemaError("need exactly q classes")


@dataclass(frozen=True)
class CycleSplit:
    """A pair split read cyclically, with the induced cycle-edge counts."""

    split: PairSplit
    induced_edges: tuple[int, int]
    max_extra_edges: int


def solve_pair_split(path: ColoredPath, *, budget: int = PAIR_BUDGET) -> PairSplit:
    """Find a pair split of the colored path.

    Enumerates removal vectors (one vertex per color, in lexicographic
    order over the sorted classes) and returns the first one whose
    survivors, read in path order and dealt alternately to S_1 and S_2
    (the first survivor to S_1), leave each side at most |V_j|/2 of
    every color j.  The alternation makes independence, the size balance
    and the per-color coverage automatic, so that count bound is the
    only thing checked.

    A candidate is tested without building its sides.  Let
    E_j[v] = sum of (-1)^u over the vertices u <= v of color j, sort the
    removals p_1 < ... < p_m and set p_0 = 0, p_{m+1} = n+1.  A survivor
    u between p_k and p_{k+1} is the (u-k)-th survivor and goes to S_1
    iff u-k is odd, so the side difference of color j is

        D_j = |S_1 & V_j| - |S_2 & V_j|
            = -sum_{k=0..m} (-1)^k (E_j[p_{k+1}-1] - E_j[p_k]),

    and since |S_1 & V_j| + |S_2 & V_j| = |V_j| - 1, the count bound
    holds iff |D_j| <= 1.  Only E_j[p-1] is read: E_j[p] differs from
    it at the removal of color j alone, by (-1)^p.  E_j is stored as
    prefix sums over the class V_j and read by bisection, so the tables
    take O(n) memory and a candidate costs O(m log n) per color; colors
    are tested in turn and the first failing one ends the test.  The
    sides are built once, for the winning removal vector.

    Each candidate costs m units of ``budget``, charged before it is
    tested, since its test takes up to m bisections per color; when the
    budget would be passed the search stops with ``BudgetExceededError``,
    naming how many candidates it examined.  A valid split always
    exists, so exhausting the search is an internal error.
    """
    removal = _pair_removal(path.colors, path.m, budget)
    removed = set(removal)
    survivors = [v for v in range(1, path.n + 1) if v not in removed]
    return PairSplit(
        removed={j + 1: v for j, v in enumerate(removal)},
        s1=frozenset(survivors[0::2]),
        s2=frozenset(survivors[1::2]),
    )


def _pair_removal(colors: Sequence[int], m: int, budget: int) -> tuple[int, ...]:
    """The search of ``solve_pair_split`` on a valid coloring with m colors.

    Returns the first winning removal vector: entry j-1 is the removed
    vertex (1-based) of color j.  Builds no path or split object.
    """
    classes: list[list[int]] = [[] for _ in range(m)]
    for v, c in enumerate(colors, start=1):
        classes[c - 1].append(v)
    # per color: its index, its class, acc[i] = E_j at the i-th vertex of
    # the class (acc[0] = 0, so acc[bisect_left(cls, p)] = E_j[p-1]), and
    # the upper end of the k = m term, (-1)^(m+1) E_j[n]
    tables = []
    for j, cls in enumerate(classes):
        acc = [0]
        for u in cls:
            acc.append(acc[-1] + (1 if u % 2 == 0 else -1))
        tables.append((j, cls, acc, acc[-1] if m % 2 else -acc[-1]))
    for examined, removal in enumerate(itertools.product(*classes)):
        if (examined + 1) * m > budget:
            raise BudgetExceededError(
                f"pair-split search examined {examined} removal vectors, "
                f"budget is {budget} units at m={m} per vector"
            )
        order = sorted(removal)
        for j, cls, acc, d in tables:
            # p_k closes run k-1 through E_j[p_k - 1] and opens run k
            # through E_j[p_k], both with sign (-1)^k
            sign = -2
            for p in order:
                d += sign * acc[bisect_left(cls, p)]
                sign = -sign
            own = removal[j]
            d += 1 if (order.index(own) + own) % 2 else -1
            if d > 1 or d < -1:
                break
        else:
            return removal
    raise InternalInvariantError("no pair split found; one must always exist")


# q-stable clause names as the pair-split verifier reports them
_PAIR_CLAUSE = {
    "stability": "independence",
    "lower-bound": "color-balance",
    "upper-bound": "color-balance",
}


def verify_pair_split(path: ColoredPath, cand: PairSplit) -> list[str]:
    """Check a pair split clause by clause; returns violated clause names.

    This is ``verify_qstable_split`` at q=2 with the upper bound, on
    ``pair_split_as_stable(cand)``: distance 2 is independence, and the
    two per-color bounds together are color-balance, 2|S_i & V_j|
    between |V_j| - 2 and |V_j|.
    """
    clauses = verify_qstable_split(
        path, 2, pair_split_as_stable(cand, path), enforce_upper=True
    )
    return list(dict.fromkeys(_PAIR_CLAUSE.get(c, c) for c in clauses))


def solve_cycle_split(path: ColoredPath, *, budget: int = PAIR_BUDGET) -> CycleSplit:
    """Split a colored cycle by cutting the edge {n, 1} and splitting the path.

    One output class is always independent in the cycle and has size
    floor((n-m)/2); the other induces at most one cycle edge when n-m
    is odd and none when n-m is even.  Both facts are asserted.
    ``budget`` bounds the pair-split search as in ``solve_pair_split``.
    """
    if path.n < 3:
        raise PreconditionError("a cycle needs at least three vertices")
    split = solve_pair_split(path, budget=budget)
    induced, bound, violations = _cycle_clauses(path, split)
    if violations:
        raise InternalInvariantError("cycle split guarantee failed")
    return CycleSplit(split=split, induced_edges=induced, max_extra_edges=bound)


def _cycle_clauses(
    path: ColoredPath, split: PairSplit
) -> tuple[tuple[int, int], int, list[str]]:
    """Both sides' induced cycle-edge counts, their bound (n-m) mod 2,
    and the cycle clauses the split violates."""
    sets = (split.s1, split.s2)
    induced = []
    for s in sets:
        ordered = sorted(s)
        within = sum(1 for a, b in zip(ordered, ordered[1:]) if b - a == 1)
        induced.append(within + (path.n >= 3 and 1 in s and path.n in s))
    k = path.n - path.m
    bound = k % 2
    violations: list[str] = []
    if not any(induced[i] == 0 and len(sets[i]) == k // 2 for i in range(2)):
        violations.append("cycle-independence")
    if max(induced) > bound:
        violations.append("cycle-edges")
    return tuple(induced), bound, violations


def verify_cycle_split(path: ColoredPath, cand: CycleSplit) -> list[str]:
    """Check a cycle split clause by clause; returns violated clause names."""
    violations = verify_pair_split(path, cand.split)
    induced, bound, cycle_violations = _cycle_clauses(path, cand.split)
    if induced != cand.induced_edges or cand.max_extra_edges != bound:
        violations.append("edge-counts")
    return violations + cycle_violations


def enumerate_qstable_splits(
    path: ColoredPath,
    q: int,
    *,
    enforce_upper: bool = False,
    budget: int = NODE_BUDGET,
) -> Iterator[StableSplit]:
    """All q-stable splits, in lexicographic order of the assignment vector.

    A depth-first search on an explicit stack gives vertex after vertex
    a value, 0 (discard) first and then classes 1..q.  A move is pruned
    when it breaks stability, the class-size ceiling, the quota of q-1
    discards per color or, with ``enforce_upper``, the per-color upper
    bound; at the last vertex of a color it must also close the color
    with exactly q-1 discards and the per-color lower bound in every
    class.  Every node, leaves included, costs one unit of ``budget``
    before it is expanded; running out raises ``BudgetExceededError``,
    which never means no split exists.
    """
    colors = path.colors
    for assign in _qstable_search(colors, q, enforce_upper, budget):
        yield _snapshot(colors, q, assign)


def _qstable_search(
    colors: Sequence[int], q: int, enforce_upper: bool, budget: int
) -> Iterator[list[int]]:
    """The search of ``enumerate_qstable_splits`` on a valid coloring.

    Yields one list, the assignment vector (per vertex 0 for a discard,
    else its class 1..q), each time it holds a q-stable split; the
    search goes on changing it once the caller asks for the next.
    """
    if q < 1:
        raise PreconditionError("q must be at least 1")
    n = len(colors)
    m = max(colors)
    # one pass from the end: the first sighting of a color is its last
    # vertex, where the search must close it.  Rows are indexed by the
    # colors themselves, 1..m; row 0 is never read.
    sizes = [0] * (m + 1)
    closes = [False] * n
    for d in range(n - 1, -1, -1):
        c = colors[d]
        if not sizes[c]:
            closes[d] = True
        sizes[c] += 1
    _require_q_minus_1(sizes[1:], q)
    # per value (0 = discard, then the classes): the distance it needs
    # from its previous vertex, its size cap and, per color, the bounds
    # on its count.  Discards need no distance or size cap and number
    # exactly q-1 per color; s bounds nothing, as a class never holds
    # all s vertices of a color.
    gap = [0] + [q] * q
    cap = [n] + [-(-(n - (q - 1) * m) // q)] * q
    low = [[q - 1] + [(s + 1) // q - 1] * q for s in sizes]
    high = [[q - 1] + [s // q if enforce_upper else s] * q for s in sizes]
    values = range(q + 1)

    counts = [[0] * (q + 1) for _ in sizes]  # counts[c][a]: color c given value a
    taken = [0] * (q + 1)
    last_pos = [-q] * (q + 1)  # the latest vertex (0-based) given each value
    assign = [0] * n
    saved = [0] * n  # last_pos of the value vertex d took, before it took it
    tried = [0] * (n + 1)  # the next value to try at depth d
    nodes = d = 0
    while True:
        k = tried[d]
        if k == 0:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"q-stable search passed its budget of {budget} nodes; this "
                    "bounds effort, it does not mean no split exists"
                )
            if d == n:
                if max(taken[1:]) - min(taken[1:]) <= 1:
                    yield assign
                k = q + 1
        if k > q:
            if d == 0:
                return
            d -= 1
            a = assign[d]
            counts[colors[d]][a] -= 1
            taken[a] -= 1
            last_pos[a] = saved[d]
            continue
        tried[d] = k + 1
        c = colors[d]
        row = counts[c]
        if d - last_pos[k] < gap[k] or taken[k] >= cap[k] or row[k] >= high[c][k]:
            continue
        if closes[d]:
            short = False
            for a in values:
                if row[a] + (a == k) < low[c][a]:
                    short = True
                    break
            if short:
                continue
        row[k] += 1
        taken[k] += 1
        saved[d] = last_pos[k]
        last_pos[k] = d
        assign[d] = k
        d += 1
        tried[d] = 0


def _snapshot(colors: Sequence[int], q: int, assign: Sequence[int]) -> StableSplit:
    classes: list[list[int]] = [[] for _ in range(q)]
    removed: dict[int, list[int]] = {j: [] for j in range(1, max(colors) + 1)}
    for v, (c, a) in enumerate(zip(colors, assign), start=1):
        if a:
            classes[a - 1].append(v)
        else:
            removed[c].append(v)
    return StableSplit(q=q, removed=removed, classes=tuple(classes))


def _warn_no_split(q: int, colors: Sequence[int]) -> None:
    logger.warning(
        "no q-stable split for q=%d, colors=%s -- this is a conjecture "
        "counterexample candidate",
        q,
        list(colors),
    )


def solve_qstable_bruteforce(
    path: ColoredPath, q: int, enforce_upper: bool = False, *, budget: int = NODE_BUDGET
) -> StableSplit | None:
    """First q-stable split in assignment order, or None if none exists.

    Runs the depth-first search of ``enumerate_qstable_splits`` up to
    its first split; ``budget`` bounds its search nodes, and running out
    raises ``BudgetExceededError`` rather than returning None.  Only a
    finished search returns None, which at any feasible size would
    falsify the splitting conjecture, so it is logged loudly first.
    """
    for assign in _qstable_search(path.colors, q, enforce_upper, budget):
        return _snapshot(path.colors, q, assign)
    _warn_no_split(q, path.colors)
    return None


def qstable_split_exists(
    colors: Sequence[int], q: int, *, budget: int = NODE_BUDGET
) -> bool:
    """Whether ``solve_qstable_bruteforce`` would find a split, without the objects.

    Runs the same search, without the upper bound, up to its first split
    and builds neither a ``ColoredPath`` nor a ``StableSplit``.  Its
    precondition is a valid path coloring: a nonempty sequence of the
    colors 1..m, every one of them used, as restricted growth strings
    are by construction; nothing checks it.  Fewer than q-1 vertices of
    some color raise ``PreconditionError``, and ``budget`` bounds the
    search nodes as in ``solve_qstable_bruteforce``.  False, logged as
    there, comes only from a finished search.
    """
    for _ in _qstable_search(colors, q, False, budget):
        return True
    _warn_no_split(q, colors)
    return False


def verify_qstable_split(
    path: ColoredPath, q: int, cand: StableSplit, enforce_upper: bool = False
) -> list[str]:
    """Check a q-stable split clause by clause; returns violated clauses."""
    violations: list[str] = []
    classes = path.classes
    n, m = path.n, len(classes)

    removed = [cand.removed.get(j, frozenset()) for j in range(1, m + 1)]
    all_sets = [*cand.classes, *removed]
    union = set().union(*all_sets)
    total = sum(map(len, all_sets))
    removed_ok = cand.removed.keys() == set(range(1, m + 1)) and all(
        len(r) == q - 1 and r <= set(cls) for r, cls in zip(removed, classes)
    )
    if not (removed_ok and union == set(range(1, n + 1)) and total == n and cand.q == q):
        violations.append("coverage")

    for s in cand.classes:
        ordered = sorted(s)
        if any(b - a < q for a, b in zip(ordered, ordered[1:])):
            violations.append("stability")
            break

    lens = [len(s) for s in cand.classes]
    if lens and max(lens) - min(lens) > 1:
        violations.append("balance")

    counts = [(len(s.intersection(cls)), len(cls)) for cls in classes for s in cand.classes]
    if any(c < (v + 1) // q - 1 for c, v in counts):
        violations.append("lower-bound")
    if enforce_upper and any(q * c > v for c, v in counts):
        violations.append("upper-bound")

    return violations


def pair_split_as_stable(split: PairSplit, path: ColoredPath) -> StableSplit:
    """View a pair split as a 2-stable split (independence = distance >= 2)."""
    return StableSplit(
        q=2,
        removed={j: frozenset({v}) for j, v in split.removed.items()},
        classes=(split.s1, split.s2),
    )


Subsolver = Callable[[ColoredPath, int], StableSplit]


def compose_splits(
    path: ColoredPath, q1: int, q2: int, subsolver: Subsolver
) -> StableSplit:
    """Compose stable splits at q1 and q2 into one at q = q1*q2.

    The subsolver first splits the whole path into q1 classes; each
    class, read in path order, forms a subpath that the subsolver then
    splits into q2 classes.  Distances multiply (two vertices q2 apart
    in a class are q1*q2 apart on the path) and the per-color counts
    chain through floor(floor(a/b)/c) = floor(a/(bc)), so the composed
    split satisfies the q1*q2 bounds.  Every color must have at least
    q1*q2 - 1 vertices.
    """
    q = q1 * q2
    _require_q_minus_1(path.class_sizes, q)
    outer = subsolver(path, q1)
    if len(outer.classes) != q1:
        raise InternalInvariantError("subsolver returned a wrong class count")
    composed: list[frozenset[int]] = []
    for block in outer.classes:
        vertices = sorted(block)
        sub, back = _induced_subpath(path, vertices)
        inner = subsolver(sub, q2)
        if len(inner.classes) != q2:
            raise InternalInvariantError("subsolver returned a wrong class count")
        for cls in inner.classes:
            composed.append(frozenset(back[v] for v in cls))
    return _composed_split(path.colors, q, composed)


def _require_q_minus_1(sizes: Iterable[int], q: int) -> None:
    if min(sizes) < q - 1:
        raise PreconditionError(f"every color needs at least q-1={q - 1} vertices")


def _composed_split(
    colors: Sequence[int], q: int, classes: Sequence[Iterable[int]]
) -> StableSplit:
    """The split with these classes, the uncovered vertices removed.

    Raises ``InternalInvariantError`` unless exactly q-1 vertices of
    each color are uncovered.
    """
    covered = set().union(*classes)
    removed: dict[int, list[int]] = {j: [] for j in range(1, max(colors) + 1)}
    for v, c in enumerate(colors, start=1):
        if v not in covered:
            removed[c].append(v)
    for j, vs in removed.items():
        if len(vs) != q - 1:
            raise InternalInvariantError(
                f"composition left {len(vs)} vertices of color {j} uncovered, "
                f"expected q-1={q - 1}"
            )
    return StableSplit(q=q, removed=removed, classes=tuple(classes))


def _induced_subpath(
    path: ColoredPath, vertices: Sequence[int]
) -> tuple[ColoredPath, dict[int, int]]:
    """Subpath on the given vertices (in order), colors relabeled contiguous."""
    present = sorted({path.colors[v - 1] for v in vertices})
    relabel = {c: i + 1 for i, c in enumerate(present)}
    colors = tuple(relabel[path.colors[v - 1]] for v in vertices)
    back = {i + 1: v for i, v in enumerate(vertices)}
    return ColoredPath(colors), back


def solve_qstable_power2(
    path: ColoredPath, q: int, *, budget: int = PAIR_BUDGET
) -> StableSplit:
    """Stable split for q a power of two, via repeated pair splitting.

    Gives the split of ``compose_splits(path, 2, q // 2, ...)`` over
    ``pair_split_as_stable(solve_pair_split(...))``, recursively: the
    pair split of the path, then each of its sides, read as a subpath,
    split at q/2, the first side's classes first.  The recursion runs
    the pair-split search on bare vertex and color lists and builds one
    ``StableSplit`` at the end.  Every pair split it runs gets
    ``budget`` units of its own.
    """
    if q < 1 or q & (q - 1):
        raise PreconditionError(f"q={q} is not a power of two")
    _require_q_minus_1(path.class_sizes, q)
    classes: list[list[int]] = []
    _power2_classes(list(range(1, path.n + 1)), path.colors, path.m, q, budget, classes)
    return _composed_split(path.colors, q, classes)


def _power2_classes(
    vertices: list[int],
    colors: Sequence[int],
    m: int,
    q: int,
    budget: int,
    out: list[list[int]],
) -> None:
    """Append the q classes ``solve_qstable_power2`` gives a subpath to out.

    The subpath holds the given vertices, in path order, with colors
    1..m, every one used.
    """
    if q == 1:
        out.append(vertices)
        return
    removal = set(_pair_removal(colors, m, budget))
    kept = [i for i in range(len(colors)) if i + 1 not in removal]
    for side in (kept[0::2], kept[1::2]):
        part = [vertices[i] for i in side]
        if q == 2:
            out.append(part)
            continue
        sub = [colors[i] for i in side]
        # relabel the side's colors to 1..m' as ``compose_splits`` does
        present = sorted(set(sub))
        if len(present) != m:
            rank = {c: r for r, c in enumerate(present, start=1)}
            sub = [rank[c] for c in sub]
        _power2_classes(part, sub, len(present), q // 2, budget, out)


def floor_ceil_identities(a: int, b: int, c: int) -> tuple[bool, bool]:
    """Evaluate floor(floor(a/b)/c) == floor(a/(bc)) and the ceil twin.

    Floor is toward minus infinity (Python's //), so both identities
    hold for every integer a; b and c must be positive.
    """
    if b < 1 or c < 1:
        raise ValueError("b and c must be positive integers")

    def ceildiv(p: int, r: int) -> int:
        return -((-p) // r)

    floor_ok = (a // b) // c == a // (b * c)
    ceil_ok = ceildiv(ceildiv(a, b), c) == ceildiv(a, b * c)
    return floor_ok, ceil_ok


def iter_canonical_colorings(n: int, max_m: int) -> Iterator[tuple[int, ...]]:
    """One coloring per class of color relabelings, as restricted growth strings.

    A coloring is canonical when its colors are numbered by first
    occurrence: each vertex takes a color already used or the next new
    one.  Every class of colorings that differ only by a permutation of
    the colors holds exactly one canonical member, its lexicographically
    smallest, so with exactly m colors there are S(n, m) (Stirling
    numbers of the second kind) of them, each standing for m! colorings.
    As in the product of all m^n colorings, m ascends and each m runs in
    lexicographic order; the colorings come as tuples, so callers build
    no path for those they skip.
    """
    for m in range(1, min(max_m, n) + 1):
        # the smallest string: ones, then each new color once at the end
        colors = [1] * (n - m + 1) + list(range(2, m + 1))
        top = list(itertools.accumulate(colors, max))  # top[i] = max(colors[:i+1])
        while True:
            yield tuple(colors)
            # the rightmost vertex that may take a larger color; the
            # colors after it can then still bring in every unused one
            i = n - 1
            while i > 0 and (colors[i] > top[i - 1] or colors[i] == m):
                i -= 1
            if i == 0:
                break
            colors[i] += 1
            used = max(top[i - 1], colors[i])
            colors[i + 1 :] = [1] * (n - 1 - i - (m - used)) + list(range(used + 1, m + 1))
            for k in range(i, n):
                top[k] = max(top[k - 1], colors[k])
