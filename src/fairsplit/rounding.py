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
when the leaf's demand is 1, so one linear peel (``_peel``, run by
``find_b_factor``) decides every edge.  The peel is the module's one
graph traversal: it leaves the 2-core, where every cycle lies
(``is_forest``), and cancellation walks that core (``_find_cycle``),
without recursion, to the cycle a sorted depth-first search closes first.

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
``_round_color``.  Fairness is checked once, where a splitting enters
(``_search_allocation``, ``verify_continuous``, ``_fair_allocation``), and
``_cancel`` re-checks what it pushed, so ``_color_graph`` checks none.
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


def _peel(
    edges: Iterable[tuple[int, int]],
    alpha: Mapping[int, int],
    advantaged: Collection[int],
) -> tuple[dict[int, int], list, dict[tuple[str, int], set], dict]:
    """Peel leaves off the graph of the (thief, bead) ``edges``, demands
    b(t) = alpha_t + [t advantaged] (alpha 0 for a thief without edges) and
    b(bead) = 1, in time linear in the edges and the advantaged: a leaf's
    one edge is in the b-factor exactly when the leaf's demand is 1.
    Returns the factor found, bead -> thief; the vertices, ("thief", t) or
    ("bead", k), whose demand was not met, in order; vertex -> its edges
    left, which form the 2-core, where every cycle lies; and, for each
    vertex a leaf was peeled into, the smallest of it and those subtrees.
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
    low: dict[tuple[str, int], tuple[str, int]] = {}
    owner: dict[int, int] = {}
    while leaves:
        v = leaves.pop()
        if not ends[v]:
            continue  # its last edge went with its neighbor's peel
        t, k = edge = ends[v].pop()
        u = ("bead", k) if v[0] == "thief" else ("thief", t)
        ends[u].remove(edge)
        low[u] = min(low.get(u, u), low.get(v, v))
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
    return owner, stuck, ends, low


def find_b_factor(
    edges: Iterable[tuple[int, int]],
    alpha: Mapping[int, int],
    advantaged: Collection[int],
) -> tuple[dict[int, int], bool, tuple[str, int] | None]:
    """The b-factor b(t) = alpha_t + [t advantaged], b(bead) = 1 of the graph
    of the (thief, bead) ``edges`` by one ``_peel``, as bead -> thief; whether
    a cycle kept edges from the peel; and the first unmet vertex, or None.
    """
    owner, stuck, left, _ = _peel(edges, alpha, advantaged)
    return owner, any(left.values()), stuck[0] if stuck else None


def _find_cycle(edges: Collection[tuple[int, int]]) -> list[tuple[str, int]] | None:
    """One cycle of the thief/bead graph of ``edges`` as a closed,
    alternating list of distinct vertices, or None on a forest.

    Walks the 2-core that ``_peel`` leaves, each time along the smallest
    edge it did not arrive by, until a vertex repeats; a core vertex keeps
    two edges or more, so the walk never stalls.  It starts where the tree
    of the smallest vertex of a cyclic component meets the core, so it
    closes the cycle that a depth-first search over sorted vertices and
    neighbors closes first.
    """
    if len(edges) < 4:  # a bipartite cycle has four edges or more
        return None
    _, _, left, low = _peel(edges, {}, ())
    core = [v for v, es in left.items() if es]
    if not core:
        return None
    v, came, walk = min(core, key=lambda v: low.get(v, v)), None, {}  # vertex -> step
    while v not in walk:
        walk[v] = len(walk)
        t, k = came = min(e for e in left[v] if e != came)
        v = ("bead", k) if v[0] == "thief" else ("thief", t)
    return list(walk)[walk[v] :]


def is_forest(g: ColorFlowGraph | _IntGraph) -> bool:
    """True when the sharing graph is acyclic."""
    return not any(_peel(g.edges, {}, ())[2].values())


def build_flow_graph(
    cont: ContinuousSplitting, neck: Necklace, j: int
) -> ColorFlowGraph:
    """The sharing graph G_j of a fair continuous splitting.

    Multiple shares of one bead by the same thief are merged by
    summation, so the graph is simple.  Whole beads are excluded;
    each surviving thief amount is then alpha + r_j/q for an integer
    alpha >= 0.  The splitting must pass ``verify_continuous``'s
    bead-sum and fairness clauses in every color (``_fair_allocation``);
    it may have more cuts than the bound.
    """
    if j < 1 or j > neck.m:
        raise PreconditionError(f"color {j} does not exist")
    d, alloc = _fair_allocation(cont, neck)
    g = _color_graph(neck, j, d, _shares_by_color(neck, alloc)[j - 1])
    edges = {e: Fraction(amt, d) for e, amt in g.edges.items()}
    return ColorFlowGraph(j, g.q, g.r, g.split_beads, edges, g.alpha)


def _fair_allocation(cont: ContinuousSplitting, neck: Necklace) -> tuple[int, dict]:
    """``cont.scaled_allocation(neck)``, once it passes ``verify_continuous``'s
    bead-sum and fairness clauses (not the cut bound)."""
    d, alloc = cont.scaled_allocation(neck)
    if _share_violations(neck, d, alloc.items()):
        raise PreconditionError("the supplied continuous splitting is not fair")
    return d, alloc


def _shares_by_color(
    neck: Necklace, alloc: Mapping[tuple[int, int], int]
) -> list[dict[tuple[int, int], int]]:
    """The allocation split by bead color: entry j-1 holds color j's shares."""
    out: list[dict[tuple[int, int], int]] = [{} for _ in range(neck.m)]
    for (t, k), amt in alloc.items():
        out[neck.beads[k - 1] - 1][(t, k)] = amt
    return out


def _split_edges(shares: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The (thief, bead) keys at beads that two thieves or more share, by
    bead and then by thief: the edges of the sharing graph."""
    owners: dict[int, list[int]] = {}
    for t, k in shares:
        owners.setdefault(k, []).append(t)
    return [
        (t, k) for k in sorted(owners) if len(owners[k]) > 1 for t in sorted(owners[k])
    ]


def _color_graph(
    neck: Necklace, j: int, d: int, shares: Mapping[tuple[int, int], int]
) -> _IntGraph:
    """``build_flow_graph`` from color j's shares, amounts in units of 1/d.
    The shares must be fair, as checked where their splitting entered, so
    each alpha is an exact integer >= 0, and 0 for a thief with no split edge."""
    q = neck.q
    rj = neck.r[j - 1]
    edges = {e: shares[e] for e in _split_edges(shares)}
    split_beads = tuple(dict.fromkeys(k for _, k in edges))
    shared: dict[int, int] = {}
    degree: dict[int, int] = {}
    for (t, _), amt in edges.items():
        shared[t] = shared.get(t, 0) + amt
        degree[t] = degree.get(t, 0) + 1
    alpha = dict.fromkeys(range(1, q + 1), 0)
    for t, total in shared.items():
        # total/d - r_j/q = alpha
        alpha[t] = (total * q - rj * d) // (d * q)
        if degree[t] < alpha[t] + 1:
            raise InternalInvariantError(
                f"thief {t} has {degree[t]} split-bead edges but alpha={alpha[t]}"
            )
    return _IntGraph(j, q, rj, d, split_beads, edges, alpha)


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
    i = cycle.index(min(v for v in cycle if v[0] == "thief"))
    cycle = cycle[i:] + cycle[:i]
    if cycle[1][1] > cycle[-1][1]:
        cycle = [cycle[0]] + cycle[1:][::-1]
    # thieves t_0, t_1, ... and beads k_0, k_1, ... in turn: moving delta
    # onto every (t_i, k_i) and off every (t_{i+1}, k_i) keeps every sum
    ts, ks = [v[1] for v in cycle[0::2]], [v[1] for v in cycle[1::2]]
    up, down = list(zip(ts, ks)), list(zip(ts[1:] + ts[:1], ks))
    d_up = min(min(unit - alloc[e] for e in up), min(alloc[e] for e in down))
    d_down = min(min(alloc[e] for e in up), min(unit - alloc[e] for e in down))
    if d_up > d_down:
        up, down, d_up = down, up, d_down
    if d_up <= 0:
        raise InternalInvariantError("cycle with no pushable amount")
    for e in up:
        alloc[e] += d_up
    for e in down:
        alloc[e] -= d_up
        if not alloc[e]:
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
    The input must pass ``verify_continuous``'s bead-sum and fairness
    clauses (``_fair_allocation``); it may have more cuts than the bound.
    """
    d, alloc = _fair_allocation(cont, neck)
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
        while (cycle := _find_cycle(_split_edges(shares))) is not None:
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
    """g in integer units, once its remainder is r, ``thief`` lies in 1..q
    and every edge joins a thief in 1..q to a split bead."""
    if g.r != r:
        raise PreconditionError(
            f"this rounding handles r={r}, got r={g.r} for color {g.color}"
        )
    if thief is not None and not 1 <= thief <= g.q:
        raise PreconditionError(f"{who} {thief} not in 1..{g.q}")
    beads = set(g.split_beads)
    off = [e for e in g.edges if not 1 <= e[0] <= g.q or e[1] not in beads]
    if off:
        raise PreconditionError(
            f"color {g.color}: edge {off[0]} does not join a thief in 1..{g.q} "
            "to a split bead"
        )
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
