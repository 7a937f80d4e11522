"""Rounding a continuous fair splitting into a whole-bead one.

For each color j, the beads shared by two or more thieves form a
bipartite graph G_j between thieves and beads, with edge amounts
u_e in (0,1).  Every thief's amounts sum to alpha_tj + r_j/q for a
nonnegative integer alpha_tj, and every shared bead's amounts sum
to 1.  After cancelling cycles in these graphs (a flow operation
that only moves cuts, never adds any), each graph is a forest and
the fractional assignment can be rounded to whole beads by the
b-factor with b(bead) = 1 and b(t) = alpha_tj + [t in A_j].  On a
forest no flow is needed: a leaf's one edge is in the factor exactly
when the leaf's demand is 1, so peeling leaves (``find_b_factor``)
decides every edge in one linear pass, and a peel that stops with
edges left has found a cycle (``is_forest``).

* r_j = 0: A_j is empty, so every thief keeps exactly a_j/q beads.
* r_j = 1: A_j is the chosen thief, who gets the ceiling.
* r_j = q-1: the forest shape forces |B_j| = q-1 and alpha = 0, and
  A_j is every thief but the one left short.

``split_with_advantages`` chains these stages; it realizes any
advantage assignment whose remainders all lie in {0, 1, q-1}.  It runs
on one integer core: one allocation in units of 1/d (d = q for the
search's own split), cycles cancelled in place, and per color an integer
sharing graph (``_IntGraph``) that one routine, ``_round_color``, checks
and rounds with one peel whatever its remainder.  The Fraction-facing
functions (``cancel_cycles``, ``build_flow_graph``, ``flow_equalities_ok``)
are adapters that scale to integers and call the same rule code;
``round_color_r0/r1/rq1`` check their remainder and thief, then call
``_round_color``.
The q=4 scenario with r_j = 2 where this rounding provably cannot
help is packaged as ``demonstrate_r2_failure``.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Mapping

from .errors import NODE_BUDGET, InternalInvariantError, PreconditionError
from .necklace import (
    AdvantageSpec,
    ContinuousSplitting,
    DiscreteSplitting,
    Necklace,
    _discrete_violations,
    _search_allocation,
    _share_violations,
    normalize_advantages,
    remainders,
    search_continuous,  # noqa: F401  not called here; perfbench/tracing.py patches it
    verify_continuous,
    verify_discrete,  # noqa: F401  not called here; perfbench/tracing.py patches it
)


@dataclass(frozen=True)
class ColorFlowGraph:
    """Thief/bead sharing graph of one color, with exact edge amounts."""

    color: int
    q: int
    r: int
    split_beads: tuple[int, ...]
    edges: Mapping[tuple[int, int], Fraction]
    alpha: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "split_beads", tuple(self.split_beads))
        object.__setattr__(
            self,
            "edges",
            {
                (t, k): u if type(u) is Fraction else Fraction(u)
                for (t, k), u in dict(self.edges).items()
            },
        )
        object.__setattr__(self, "alpha", dict(self.alpha))

    def thief_edges(self, t: int) -> list[tuple[int, int]]:
        return [e for e in self.edges if e[0] == t]


# a ColorFlowGraph whose edge amounts are integers in units of 1/d
_IntGraph = namedtuple("_IntGraph", "color q r d split_beads edges alpha")


def _scaled(g: ColorFlowGraph) -> _IntGraph:
    """g in integer units of 1/d, d the lcm of its edge denominators."""
    d = math.lcm(*(u.denominator for u in g.edges.values()))
    edges = {e: u.numerator * (d // u.denominator) for e, u in g.edges.items()}
    return _IntGraph(g.color, g.q, g.r, d, g.split_beads, edges, g.alpha)


def flow_equalities_ok(g: ColorFlowGraph) -> bool:
    """Exact check of the per-thief, per-bead and total amount equalities."""
    return _flow_ok(_scaled(g))


def _flow_ok(g: _IntGraph) -> bool:
    """``flow_equalities_ok`` by one pass summing every bead and thief."""
    bead_sum: dict[int, int] = {}
    thief_sum: dict[int, int] = {}
    for (t, k), amt in g.edges.items():
        bead_sum[k] = bead_sum.get(k, 0) + amt
        thief_sum[t] = thief_sum.get(t, 0) + amt
    if sum(thief_sum.values()) != len(g.split_beads) * g.d:
        return False
    if any(bead_sum.get(k, 0) != g.d for k in g.split_beads):
        return False
    for t in range(1, g.q + 1):
        alpha = g.alpha.get(t, 0)
        if t in thief_sum:
            # thief_sum/d == alpha + r/q, cross-multiplied
            if thief_sum[t] * g.q != (alpha * g.q + g.r) * g.d:
                return False
        elif alpha != 0:
            return False
    return True


def find_b_factor(
    edges: Iterable[tuple[int, int]],
    alpha: Mapping[int, int],
    advantaged: Collection[int],
) -> tuple[dict[int, int], bool, tuple[str, int] | None]:
    """The b-factor with b(t) = alpha_t + [t advantaged] and b(bead) = 1 of
    a thief/bead graph given by its (thief, bead) edges, by peeling leaves.

    A leaf's one edge is in the factor exactly when the leaf's demand is
    1, so on a forest the peel decides every edge.  Returns the factor as
    bead -> thief; whether edges were left once no leaf was, which happens
    exactly on a cycle; and the first vertex, ("thief", t) or ("bead", k),
    whose demand the peel could not meet, or None.  A thief without edges
    is taken to have alpha 0.  Linear in the edges plus the advantaged.
    """
    ends: dict[tuple[str, int], set[tuple[int, int]]] = {}
    for t, k in edges:
        ends.setdefault(("thief", t), set()).add((t, k))
        ends.setdefault(("bead", k), set()).add((t, k))
    need = {
        v: alpha.get(v[1], 0) + (v[1] in advantaged) if v[0] == "thief" else 1
        for v in ends
    }
    stuck = [("thief", t) for t in advantaged if ("thief", t) not in ends]
    leaves = [v for v, es in ends.items() if len(es) == 1]
    owner: dict[int, int] = {}
    while leaves:
        v = leaves.pop()
        if not ends[v]:
            continue  # its last edge went with its neighbor's peel
        t, k = edge = ends[v].pop()
        u = ("bead", k) if v[0] == "thief" else ("thief", t)
        ends[u].remove(edge)
        if need[v] == 1:
            owner[k] = t
            need[u] -= 1
        elif need[v]:
            stuck.append(v)
        need[v] = 0
        if len(ends[u]) == 1:
            leaves.append(u)
        elif not ends[u] and need[u]:
            stuck.append(u)
    return owner, any(ends.values()), stuck[0] if stuck else None


def is_forest(g: ColorFlowGraph | _IntGraph) -> bool:
    """True when the sharing graph is acyclic."""
    return not find_b_factor(g.edges, {}, ())[1]


def build_flow_graph(
    cont: ContinuousSplitting, neck: Necklace, j: int
) -> ColorFlowGraph:
    """The sharing graph G_j of a fair continuous splitting.

    Multiple shares of one bead by the same thief are merged by
    summation, so the graph is simple.  Whole beads are excluded;
    each surviving thief amount must then be alpha + r_j/q for an
    integer alpha >= 0, anything else means the input is not fair.
    """
    if j < 1 or j > neck.m:
        raise PreconditionError(f"color {j} does not exist")
    d, alloc = cont.scaled_allocation(neck)
    g = _color_graph(neck, j, d, _shares_by_color(neck, alloc)[j - 1])
    edges = {e: Fraction(amt, d) for e, amt in g.edges.items()}
    return ColorFlowGraph(j, g.q, g.r, g.split_beads, edges, g.alpha)


def _shares_by_color(
    neck: Necklace, alloc: Mapping[tuple[int, int], int]
) -> list[dict[tuple[int, int], int]]:
    """The allocation split by bead color: entry j-1 holds color j's shares."""
    out: list[dict[tuple[int, int], int]] = [{} for _ in range(neck.m)]
    for (t, k), amt in alloc.items():
        out[neck.beads[k - 1] - 1][(t, k)] = amt
    return out


def _color_graph(
    neck: Necklace, j: int, d: int, shares: Mapping[tuple[int, int], int]
) -> _IntGraph:
    """``build_flow_graph`` from color j's shares, amounts in units of 1/d."""
    q = neck.q
    rj = neck.r[j - 1]
    # one pass for every bead's owners and every thief's whole holding, one
    # for every thief's split-bead total and edge count
    bead_owners: dict[int, list[int]] = {}
    held: dict[int, int] = {}
    for (t, k), amt in shares.items():
        bead_owners.setdefault(k, []).append(t)
        held[t] = held.get(t, 0) + amt
    split_beads = tuple(sorted(k for k, ts in bead_owners.items() if len(ts) >= 2))
    edges = {
        (t, k): shares[(t, k)] for k in split_beads for t in sorted(bead_owners[k])
    }
    shared: dict[int, int] = {}
    degree: dict[int, int] = {}
    for (t, _), amt in edges.items():
        shared[t] = shared.get(t, 0) + amt
        degree[t] = degree.get(t, 0) + 1
    alpha: dict[int, int] = {}
    for t in range(1, q + 1):
        if t in shared:
            # shared/d - r_j/q = alpha, an integer >= 0
            excess = shared[t] * q - rj * d
            if excess < 0 or excess % (d * q):
                raise PreconditionError(
                    f"thief {t} holds {Fraction(shared[t], d)} of the split beads "
                    f"of color {j}; that is not an integer plus {rj}/{q}, so the "
                    "continuous splitting is not fair"
                )
            alpha[t] = excess // (d * q)
            if degree[t] < alpha[t] + 1:
                raise InternalInvariantError(
                    f"thief {t} has {degree[t]} split-bead edges but "
                    f"alpha={alpha[t]}"
                )
        else:
            whole = held.get(t, 0)
            if whole * q != neck.a[j - 1] * d:
                raise PreconditionError(
                    f"thief {t} shares no bead of color {j} yet holds "
                    f"{Fraction(whole, d)} instead of {Fraction(neck.a[j - 1], q)}"
                )
            alpha[t] = 0
    return _IntGraph(j, q, rj, d, split_beads, edges, alpha)


def _find_cycle(
    adj: dict[tuple[str, int], list[tuple[str, int]]],
) -> list[tuple[str, int]] | None:
    """One cycle as an alternating vertex list, or None.

    Deterministic: roots and neighbors are scanned in sorted order and
    the first back edge closes the cycle.  In an undirected DFS every
    visited non-parent neighbor lies on the current path.
    """
    visited: set[tuple[str, int]] = set()
    path: list[tuple[str, int]] = []

    def dfs(
        node: tuple[str, int], par: tuple[str, int] | None
    ) -> list[tuple[str, int]] | None:
        visited.add(node)
        path.append(node)
        for nxt in sorted(adj[node]):
            if nxt == par:
                continue
            if nxt in visited:
                return path[path.index(nxt) :]
            found = dfs(nxt, node)
            if found is not None:
                return found
        path.pop()
        return None

    for root in sorted(adj):
        if root not in visited:
            found = dfs(root, None)
            if found is not None:
                return list(found)
    return None


def _push_around(
    alloc: dict[tuple[int, int], int], cycle: list[tuple[str, int]], unit: int
) -> None:
    """Push flow around one thief/bead cycle until an edge hits 0 or 1.

    Amounts are integers in units of 1/unit, so a whole bead is
    ``unit``.  The cycle is canonicalized to start at its smallest
    thief, heading toward that thief's smaller cycle bead.  Of the two
    push orientations the one saturating an edge sooner (smaller amount
    moved) wins; on a tie the first edge is increased.
    """
    thieves = [v for v in cycle if v[0] == "t"]
    start = min(thieves)
    i = cycle.index(start)
    cycle = cycle[i:] + cycle[:i]
    if cycle[1][1] > cycle[-1][1]:
        cycle = [cycle[0]] + cycle[1:][::-1]

    edges = []
    for i in range(len(cycle)):
        a, b = cycle[i], cycle[(i + 1) % len(cycle)]
        t = a[1] if a[0] == "t" else b[1]
        k = a[1] if a[0] == "k" else b[1]
        edges.append((t, k))

    def limit(first_plus: bool) -> int:
        deltas = []
        for i, e in enumerate(edges):
            plus = (i % 2 == 0) == first_plus
            deltas.append(unit - alloc[e] if plus else alloc[e])
        return min(deltas)

    d_plus, d_minus = limit(True), limit(False)
    first_plus = d_plus <= d_minus
    delta = d_plus if first_plus else d_minus
    if delta <= 0:
        raise InternalInvariantError("cycle with no pushable amount")
    for i, e in enumerate(edges):
        plus = (i % 2 == 0) == first_plus
        alloc[e] = alloc[e] + delta if plus else alloc[e] - delta
        if alloc[e] == 0:
            del alloc[e]


def cancel_cycles(cont: ContinuousSplitting, neck: Necklace) -> ContinuousSplitting:
    """Remove all cycles from every color's sharing graph.

    Pushing flow around a cycle keeps every thief's and every bead's
    totals, so fairness is untouched; each push zeroes at least one
    edge, so the loop terminates with forests.  The splitting is then
    rebuilt from the amounts, laying each bead's surviving owners in
    their original order, which never increases the number of cuts.
    An input without cycles is returned unchanged.  Amounts are
    integers in units of 1/d, d the lcm of the cut denominators: every
    push moves a minimum of such multiples, so d stays a valid unit.
    """
    d, alloc = cont.scaled_allocation(neck)
    runs = _cancel(neck, d, alloc, len(cont.cuts))[1]
    if runs is None:
        return cont
    ends = itertools.accumulate(amt for _, amt in runs[:-1])
    return ContinuousSplitting(
        cuts=tuple(Fraction(e, d) for e in ends), owners=tuple(t for t, _ in runs)
    )


def _cancel(
    neck: Necklace, d: int, alloc: Mapping[tuple[int, int], int], cuts: int
) -> tuple[list[dict[tuple[int, int], int]], list[list[int]] | None]:
    """``cancel_cycles`` on a ``scaled_allocation``-keyed allocation (units
    of 1/d) of a splitting with ``cuts`` cuts: every color's shares, cycles
    cancelled in place, and the checked rebuilt [thief, amount] runs or None."""
    by_color = _shares_by_color(neck, alloc)
    changed = False
    for shares in by_color:
        while True:
            owners: dict[int, list[int]] = {}
            for t, k in shares:
                owners.setdefault(k, []).append(t)
            adj: dict[tuple[str, int], list[tuple[str, int]]] = {}
            for k, ts in owners.items():
                if len(ts) < 2:
                    continue
                for t in ts:
                    adj.setdefault(("t", t), []).append(("k", k))
                    adj.setdefault(("k", k), []).append(("t", t))
            cycle = _find_cycle(adj)
            if cycle is None:
                break
            changed = True
            _push_around(shares, cycle, d)
    if not changed:
        return by_color, None
    runs: list[list[int]] = []
    for t, k in alloc:
        amt = by_color[neck.beads[k - 1] - 1].get((t, k))
        if amt and runs and runs[-1][0] == t:
            runs[-1][1] += amt
        elif amt:
            runs.append([t, amt])
    if len(runs) - 1 > cuts:
        raise InternalInvariantError("cycle cancellation added cuts")
    # no cut bound: the count was just checked against the input's
    bad = _share_violations(
        neck, d, (item for shares in by_color for item in shares.items())
    )
    if bad:
        raise InternalInvariantError(f"cycle cancellation broke fairness: {bad}")
    return by_color, runs


def _round_color(g: _IntGraph, advantaged: Collection[int]) -> dict[int, int]:
    """Bead -> thief by the b-factor b(t) = alpha_t + [t advantaged],
    b(bead) = 1, once g passes the flow equalities, the forest check and
    the shape rule of its remainder case g.r.  One leaf peel
    (``find_b_factor``) finds both the cycle and the factor.

    It is unique: two different b-factors of a forest would differ on a
    nonempty edge set with every degree even, and so on a cycle.
    """
    if not _flow_ok(g):
        raise PreconditionError(
            f"color {g.color}: edge amounts do not satisfy the flow equalities"
        )
    owner, cyclic, stuck = find_b_factor(g.edges, g.alpha, advantaged)
    if cyclic:
        raise PreconditionError(
            f"color {g.color}: sharing graph has a cycle; cancel cycles first"
        )
    thieves = range(1, g.q + 1)
    if g.r == 1:
        total_alpha = sum(g.alpha.get(t, 0) for t in thieves)
        if len(g.split_beads) != total_alpha + 1:
            raise PreconditionError(
                f"color {g.color}: expected |B_j| = sum(alpha)+1 = {total_alpha + 1}, "
                f"got {len(g.split_beads)}"
            )
    elif g.r == g.q - 1:
        # acyclicity plus the flow equalities force this shape
        if len(g.split_beads) != g.q - 1 or any(g.alpha.get(t, 0) for t in thieves):
            raise InternalInvariantError(
                f"color {g.color}: acyclic r=q-1 graph must have q-1 split beads "
                "and zero alpha"
            )
    if stuck is not None:
        raise InternalInvariantError(
            f"no b-factor for color {g.color} with advantaged thieves "
            f"{sorted(advantaged)}: the demand of {stuck[0]} {stuck[1]} "
            "cannot be met"
        )
    return owner


def _checked(
    g: ColorFlowGraph, r: int, thief: int | None = None, who: str = "thief"
) -> _IntGraph:
    """g in integer units, once its remainder is r and ``thief`` lies in 1..q."""
    if g.r != r:
        raise PreconditionError(
            f"this rounding handles r={r}, got r={g.r} for color {g.color}"
        )
    if thief is not None and not 1 <= thief <= g.q:
        raise PreconditionError(f"{who} {thief} not in 1..{g.q}")
    return _scaled(g)


def round_color_r0(g: ColorFlowGraph) -> dict[int, int]:
    """Whole-bead assignment for a color with zero remainder."""
    return _round_color(_checked(g, 0), ())


def round_color_r1(g: ColorFlowGraph, chosen: int) -> dict[int, int]:
    """Whole-bead assignment handing the chosen thief one extra bead."""
    return _round_color(_checked(g, 1, chosen, "chosen thief"), (chosen,))


def round_color_rq1(g: ColorFlowGraph, disadvantaged: int) -> dict[int, int]:
    """Whole-bead assignment leaving only the disadvantaged thief short."""
    others = set(range(1, g.q + 1)) - {disadvantaged}
    return _round_color(_checked(g, g.q - 1, disadvantaged), others)


def split_with_advantages(
    neck: Necklace,
    advantages: AdvantageSpec | None,
    *,
    continuous: ContinuousSplitting | None = None,
    budget: int = NODE_BUDGET,
) -> DiscreteSplitting:
    """Fair whole-bead splitting realizing the given advantage assignment.

    Requires every color's remainder to lie in {0, 1, q-1}.  Pipeline:
    find a continuous fair splitting (or take the one supplied via
    ``continuous``, which also lets sweeps reuse one search across many
    advantage assignments), cancel cycles, round each color by its
    remainder case, and hand every split bead to its matched thief.
    The result is verified and never uses more cuts than the continuous
    splitting did.
    """
    adv = normalize_advantages(neck, advantages)
    q = neck.q
    bad = {j: rj for j, rj in remainders(neck).items() if rj not in (0, 1, q - 1)}
    if bad:
        offending = ", ".join(f"color {j} has r={rj}" for j, rj in sorted(bad.items()))
        raise PreconditionError(
            f"remainders outside {{0, 1, q-1}}: {offending}"
        )
    if continuous is None:
        d = q
        _, switches, alloc = _search_allocation(neck, budget)
        cuts = len(switches)
    elif verify_continuous(neck, continuous):
        raise PreconditionError("the supplied continuous splitting is not fair")
    else:
        cuts = len(continuous.cuts)
        d, alloc = continuous.scaled_allocation(neck)
    by_color, runs = _cancel(neck, d, alloc, cuts)
    if runs is not None:
        cuts = len(runs) - 1

    owner: dict[int, int] = {}
    for j, shares in enumerate(by_color, start=1):
        owner.update((k, t) for (t, k), amt in shares.items() if amt == d)
        owner.update(_round_color(_color_graph(neck, j, d, shares), adv.get(j, ())))

    if sorted(owner) != list(range(1, neck.n + 1)):
        raise InternalInvariantError("rounding left a bead unassigned")
    split = DiscreteSplitting(tuple(owner[k] for k in range(1, neck.n + 1)))
    violations = _discrete_violations(neck, adv, split)
    if violations:
        raise InternalInvariantError(f"pipeline output failed checks: {violations}")
    if split.cuts > cuts:
        raise InternalInvariantError(f"rounding increased cuts: {split.cuts} > {cuts}")
    return split


@dataclass(frozen=True)
class ImpossibilityReport:
    """All whole-bead outcomes reachable from one continuous splitting."""

    beads: tuple[int, ...]
    q: int
    cuts: tuple[Fraction, ...]
    owners: tuple[int, ...]
    outcomes: tuple[tuple[tuple[tuple[int, int], ...], frozenset[int]], ...]
    target: frozenset[int]
    target_reachable: bool

    def reachable(self, advantaged: frozenset[int] | set[int]) -> bool:
        want = frozenset(advantaged)
        return any(adv == want for _, adv in self.outcomes)


def demonstrate_r2_failure() -> ImpossibilityReport:
    """Why the rounding technique stops at r_j = 2 when q = 4.

    Two beads of one color among four thieves: the continuous splitting
    gives each thief half a bead, sharing bead 1 between thieves 1 and
    2 and bead 2 between thieves 3 and 4.  Moving cuts within this
    splitting can only hand each bead to one of its two sharers, so of
    the pairs of thieves that could receive the two whole beads only
    four are reachable, and {1, 2} is not among them: those two thieves
    cannot both be advantaged, no matter how the cuts move.
    """
    neck = Necklace(beads=(1, 1), q=4)
    cont = ContinuousSplitting(
        cuts=(Fraction(1, 2), Fraction(1), Fraction(3, 2)),
        owners=(1, 2, 3, 4),
    )
    if verify_continuous(neck, cont):
        raise InternalInvariantError("the fixed scenario must be fair")
    alloc = cont.allocation(neck)
    sharers = {
        k: sorted(t for (t, kk), amt in alloc.items() if kk == k and 0 < amt < 1)
        for k in (1, 2)
    }
    outcomes = []
    for t1, t2 in itertools.product(sharers[1], sharers[2]):
        assignment = ((1, t1), (2, t2))
        outcomes.append((assignment, frozenset({t1, t2})))
    target = frozenset({1, 2})
    return ImpossibilityReport(
        beads=neck.beads,
        q=neck.q,
        cuts=cont.cuts,
        owners=cont.owners,
        outcomes=tuple(outcomes),
        target=target,
        target_reachable=any(adv == target for _, adv in outcomes),
    )
