"""Flow graphs, cycle cancellation, and whole-bead rounding.

Goldens are derived by hand from the exact allocations of small
continuous splittings; cancellation is additionally checked to
preserve every thief's per-color totals on a sweep.
"""

import functools
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from fairsplit import rounding
from fairsplit.errors import (
    BudgetExceededError,
    InternalInvariantError,
    PreconditionError,
)
from fairsplit.necklace import (
    ContinuousSplitting,
    Necklace,
    normalize_advantages,
    search_continuous,
    search_discrete,
    verify_continuous,
    verify_discrete,
)
from fairsplit.rounding import (
    ColorFlowGraph,
    build_flow_graph,
    cancel_cycles,
    demonstrate_r2_failure,
    flow_equalities_ok,
    is_forest,
    round_color_r0,
    round_color_r1,
    round_color_rq1,
    split_with_advantages,
)
from helpers import (
    BipartiteGraph,
    canonical_colorings,
    fraction_allocation_oracle,
    find_b_factor as flow_b_factor,
)

F = Fraction


def four_cycle_graph():
    """Hand-built r=0 sharing graph whose two beads form a 4-cycle."""
    return ColorFlowGraph(
        color=1,
        q=2,
        r=0,
        split_beads=(1, 2),
        edges={
            (1, 1): F(1, 2),
            (2, 1): F(1, 2),
            (1, 2): F(1, 2),
            (2, 2): F(1, 2),
        },
        alpha={1: 1, 2: 1},
    )


# === flow graph construction ===

def test_build_flow_graph_golden():
    neck = Necklace((1, 1, 1, 1), 3)
    cont = search_continuous(neck)
    g = build_flow_graph(cont, neck, 1)
    assert g.split_beads == (2, 3)
    assert g.edges == {
        (1, 2): F(1, 3),
        (2, 2): F(2, 3),
        (2, 3): F(2, 3),
        (3, 3): F(1, 3),
    }
    assert g.alpha == {1: 0, 2: 1, 3: 0}
    assert g.r == 1
    assert flow_equalities_ok(g)
    assert is_forest(g)


def test_build_flow_graph_rejects_missing_color():
    neck = Necklace((1, 1), 2)
    with pytest.raises(PreconditionError):
        build_flow_graph(search_continuous(neck), neck, 5)


def test_build_flow_graph_rejects_unfair_amounts():
    # thief 1 holds 1/2 of the split beads: not an integer plus r/q = 0
    neck = Necklace((1, 1), 2)
    cont = ContinuousSplitting(cuts=(F(1, 2), F(1)), owners=(1, 2, 1))
    with pytest.raises(PreconditionError):
        build_flow_graph(cont, neck, 1)


def test_flow_equality_checker_catches_tampering():
    g = four_cycle_graph()
    assert flow_equalities_ok(g)
    bad = ColorFlowGraph(
        color=1,
        q=2,
        r=0,
        split_beads=(1, 2),
        edges={**g.edges, (1, 1): F(1, 3)},
        alpha=g.alpha,
    )
    assert not flow_equalities_ok(bad)


def test_forest_detection():
    assert not is_forest(four_cycle_graph())
    path = ColorFlowGraph(
        color=1,
        q=3,
        r=1,
        split_beads=(2, 3),
        edges={
            (1, 2): F(1, 3),
            (2, 2): F(2, 3),
            (2, 3): F(2, 3),
            (3, 3): F(1, 3),
        },
        alpha={1: 0, 2: 1, 3: 0},
    )
    assert is_forest(path)


# === cycle cancellation ===

def test_cancel_cycles_golden():
    # both beads shared between the same two thieves: one 4-cycle,
    # cancelled by merging each bead into a single owner
    neck = Necklace((1, 1), 2)
    cont = ContinuousSplitting(
        cuts=(F(1, 2), F(1), F(3, 2)), owners=(1, 2, 1, 2)
    )
    # fair, but wasteful: three cuts where one suffices
    assert verify_continuous(neck, cont) == ["cut bound"]
    out = cancel_cycles(cont, neck)
    assert out.cuts == (F(1),)
    assert out.owners == (1, 2)


def test_cancel_cycles_is_identity_on_forests():
    neck = Necklace((1, 1, 1, 1), 3)
    cont = search_continuous(neck)
    assert cancel_cycles(cont, neck) is cont


def test_cancel_cycles_preserves_per_color_totals():
    for n in range(1, 6):
        for colors in canonical_colorings(n, 2):
            for q in (2, 3):
                neck = Necklace(colors, q)
                cont = search_continuous(neck)
                out = cancel_cycles(cont, neck)
                assert verify_continuous(neck, out) == []
                assert len(out.cuts) <= len(cont.cuts)
                for j in range(1, neck.m + 1):
                    g = build_flow_graph(out, neck, j)
                    assert flow_equalities_ok(g)
                    assert is_forest(g)
                before = cont.allocation(neck)
                after = out.allocation(neck)
                for t in range(1, q + 1):
                    for j in range(1, neck.m + 1):
                        tot_b = sum(
                            amt
                            for (tt, k), amt in before.items()
                            if tt == t and colors[k - 1] == j
                        )
                        tot_a = sum(
                            amt
                            for (tt, k), amt in after.items()
                            if tt == t and colors[k - 1] == j
                        )
                        assert tot_b == tot_a


def halves_of_shares(neck, rng):
    """A fair splitting cutting every bead into 2q equal pieces.

    Each thief takes two pieces of every bead, in a seeded per-bead
    order, so cut denominators are 2q, not q, and the sharing graphs are
    full of cycles.
    """
    q = neck.q
    pieces = []
    for _ in range(neck.n):
        row = [t for t in range(1, q + 1) for _ in range(2)]
        rng.shuffle(row)
        pieces += row
    owners = [pieces[0]]
    cuts = []
    for i in range(1, len(pieces)):
        if pieces[i] != owners[-1]:
            cuts.append(F(i, 2 * q))
            owners.append(pieces[i])
    return ContinuousSplitting(cuts=tuple(cuts), owners=tuple(owners))


def thief_color_totals(neck, cont):
    totals = {}
    for (t, k), amt in cont.allocation(neck).items():
        key = (t, neck.beads[k - 1])
        totals[key] = totals.get(key, 0) + amt
    return totals


def test_cancel_cycles_on_pieces_of_one_over_2q():
    rng = random.Random(5)
    for n in range(1, 5):
        for colors in canonical_colorings(n, 2):
            for q in (2, 3):
                neck = Necklace(colors, q)
                cont = halves_of_shares(neck, rng)
                assert verify_continuous(neck, cont) in ([], ["cut bound"])
                out = cancel_cycles(cont, neck)
                assert verify_continuous(neck, out) in ([], ["cut bound"])
                assert len(out.cuts) <= len(cont.cuts)
                assert thief_color_totals(neck, out) == thief_color_totals(neck, cont)
                assert out.allocation(neck) == fraction_allocation_oracle(out, neck)
                for j in range(1, neck.m + 1):
                    g = build_flow_graph(out, neck, j)
                    assert flow_equalities_ok(g), (colors, q, j)
                    assert is_forest(g), (colors, q, j)


# === flow equalities against the per-sum oracle ===

def flow_equalities_oracle(g):
    """The flow equalities by one Fraction sum per bead, per thief and in total."""
    if sum(g.edges.values()) != len(g.split_beads):
        return False
    for k in g.split_beads:
        if sum(u for (t, kk), u in g.edges.items() if kk == k) != 1:
            return False
    for t in range(1, g.q + 1):
        total = sum(u for (tt, k), u in g.edges.items() if tt == t)
        expected = g.alpha.get(t, 0) + Fraction(g.r, g.q)
        if g.thief_edges(t):
            if total != expected:
                return False
        elif total != 0 or g.alpha.get(t, 0) != 0:
            return False
    return True


def tampered_graphs(g):
    """(name, graph, must_fail) for each way of breaking g's equalities."""
    step = F(1, g.q)
    idle = [t for t in range(1, g.q + 1) if not g.thief_edges(t)]
    out = []
    if idle:
        out.append(("idle thief with alpha", replace(g, alpha={**g.alpha, idle[0]: 1}), True))
    if not g.edges:
        return out
    (t, k), u = next(iter(g.edges.items()))
    outside = max(g.split_beads) + 1
    out += [
        ("bead off by 1/q", replace(g, edges={**g.edges, (t, k): u + step}), True),
        ("thief off", replace(g, alpha={**g.alpha, t: g.alpha.get(t, 0) + 1}), True),
        ("bead outside split_beads", replace(g, edges={**g.edges, (t, outside): step}), True),
        ("thief outside 1..q", replace(g, edges={**g.edges, (g.q + 1, k): step}), True),
        # only the total sees an edge that no bead or thief sum covers
        ("edge outside both", replace(g, edges={**g.edges, (g.q + 1, outside): step}), True),
        # a zero amount from a thief past q changes no sum that is checked
        ("zero edge outside 1..q", replace(g, edges={**g.edges, (g.q + 1, k): F(0)}), False),
    ]
    # 1/q moved between two beads of one thief breaks only the bead sums
    for t in range(1, g.q + 1):
        mine = g.thief_edges(t)
        if len(mine) >= 2:
            a, b = mine[:2]
            moved = {**g.edges, a: g.edges[a] + step, b: g.edges[b] - step}
            out.append(("beads off, sums kept", replace(g, edges=moved), True))
            break
    return out


def sweep_sharing_graphs(cancelled_only=False):
    """Every sharing graph of the pipeline sweeps, before and after cancelling
    (only after, with ``cancelled_only``)."""
    rng = random.Random(9)
    for n in range(1, 7):
        for colors in canonical_colorings(n, 3):
            for q in (2, 3, 4):
                neck = Necklace(colors, q)
                conts = [search_continuous(neck)]
                if n <= 4:
                    conts.append(halves_of_shares(neck, rng))
                for cont in conts:
                    cancelled = cancel_cycles(cont, neck)
                    for c in (cancelled,) if cancelled_only else (cont, cancelled):
                        for j in range(1, neck.m + 1):
                            yield build_flow_graph(c, neck, j)


def test_flow_equalities_match_oracle_on_sweep_and_tampering():
    graphs = tampered = 0
    for g in sweep_sharing_graphs():
        assert flow_equalities_ok(g) and flow_equalities_oracle(g), g
        graphs += 1
        for name, bad, must_fail in tampered_graphs(g):
            got = flow_equalities_ok(bad)
            assert got == flow_equalities_oracle(bad), (name, bad)
            assert got != must_fail, (name, bad)
            tampered += 1
    assert graphs > 1000 and tampered > 4 * graphs


# === per-remainder rounding ===

def test_rounders_insist_on_their_remainder_and_on_forests():
    g = four_cycle_graph()
    with pytest.raises(PreconditionError, match="r=1"):
        round_color_r1(g, chosen=1)
    with pytest.raises(PreconditionError, match="cancel cycles"):
        round_color_r0(g)


def b_factors_oracle(g, advantaged):
    """Every b-factor of g with b(t) = alpha_t + [t advantaged], by brute
    force over one sharer per split bead, as bead -> thief."""
    sharers = [[t for t, k in g.edges if k == bead] for bead in g.split_beads]
    want = [g.alpha.get(t, 0) + (t in advantaged) for t in range(1, g.q + 1)]
    return [
        dict(zip(g.split_beads, owners))
        for owners in itertools.product(*sharers)
        if [owners.count(t) for t in range(1, g.q + 1)] == want
    ]


def test_round_color_returns_the_only_b_factor_on_sweep():
    # a forest has one b-factor per advantaged set, so every admissible
    # chosen or disadvantaged thief pins the rounding down completely
    cases = 0
    for g in sweep_sharing_graphs(cancelled_only=True):
        if len(g.edges) > 10:
            continue
        thieves = range(1, g.q + 1)
        roundings = []
        if g.r == 0:
            roundings.append(((), functools.partial(round_color_r0, g)))
        if g.r == 1:
            roundings += [((t,), functools.partial(round_color_r1, g, t)) for t in thieves]
        if g.r == g.q - 1:
            roundings += [
                (set(thieves) - {t}, functools.partial(round_color_rq1, g, t)) for t in thieves
            ]
        for advantaged, rounding in roundings:
            factors = b_factors_oracle(g, advantaged)
            assert len(factors) == 1, (g, advantaged)
            assert rounding() == factors[0], (g, advantaged)
            cases += 1
    assert cases > 1000


def test_round_r0_empty_graph():
    # after cancellation an r=0 sharing graph has no edges left: a leaf
    # thief would hold a single fractional amount, impossible for r=0
    neck = Necklace((1, 2, 1, 2), 2)
    cont = cancel_cycles(search_continuous(neck), neck)
    for j in (1, 2):
        assert round_color_r0(build_flow_graph(cont, neck, j)) == {}


def test_round_r1_goldens():
    neck = Necklace((1, 1, 1, 1), 3)
    cont = search_continuous(neck)
    g = build_flow_graph(cont, neck, 1)
    assert round_color_r1(g, chosen=3) == {2: 2, 3: 3}
    assert round_color_r1(g, chosen=2) == {2: 2, 3: 2}
    assert round_color_r1(g, chosen=1) == {2: 1, 3: 2}
    with pytest.raises(PreconditionError):
        round_color_r1(g, chosen=0)


def test_round_rq1_goldens():
    neck = Necklace((1, 1, 1, 1, 1), 3)
    cont = search_continuous(neck)
    g = build_flow_graph(cont, neck, 1)
    assert g.split_beads == (2, 4)
    assert round_color_rq1(g, disadvantaged=2) == {2: 1, 4: 3}
    assert round_color_rq1(g, disadvantaged=3) == {2: 1, 4: 2}
    assert round_color_rq1(g, disadvantaged=1) == {2: 2, 4: 3}


def r1_path_graph():
    """The r=1, q=3 forest of ``test_build_flow_graph_golden``."""
    neck = Necklace((1, 1, 1, 1), 3)
    return build_flow_graph(search_continuous(neck), neck, 1)


def rq1_path_graph():
    """The r=q-1=2, q=3 forest of ``test_round_rq1_goldens``."""
    neck = Necklace((1, 1, 1, 1, 1), 3)
    return build_flow_graph(search_continuous(neck), neck, 1)


def empty_graph(q, r):
    return ColorFlowGraph(color=1, q=q, r=r, split_beads=(), edges={}, alpha={})


def tampered(g):
    """g with its first edge amount raised by 1/7."""
    e = min(g.edges)
    return replace(g, edges={**g.edges, e: g.edges[e] + F(1, 7)})


def q2_four_cycle_graph():
    """An r=1, q=2 sharing graph with the flow equalities and a 4-cycle."""
    return ColorFlowGraph(
        color=1, q=2, r=1, split_beads=(1, 2),
        edges={(1, 1): F(1, 4), (2, 1): F(3, 4), (1, 2): F(1, 4), (2, 2): F(3, 4)},
        alpha={1: 0, 2: 1},
    )


FLOW = "color 1: edge amounts do not satisfy the flow equalities"
CYCLE = "color 1: sharing graph has a cycle; cancel cycles first"
SIZE_R1 = "color 1: expected |B_j| = sum(alpha)+1 = 1, got 0"
SHAPE_RQ1 = "color 1: acyclic r=q-1 graph must have q-1 split beads and zero alpha"


@pytest.mark.parametrize("rounder, graph, thief, error, message", [
    # the wrong remainder for each rounder
    (round_color_r0, r1_path_graph, None, PreconditionError,
     "this rounding handles r=0, got r=1 for color 1"),
    (round_color_r1, lambda: empty_graph(2, 0), 1, PreconditionError,
     "this rounding handles r=1, got r=0 for color 1"),
    (round_color_rq1, r1_path_graph, 1, PreconditionError,
     "this rounding handles r=2, got r=1 for color 1"),
    # a thief outside 1..q
    (round_color_r1, r1_path_graph, 0, PreconditionError, "chosen thief 0 not in 1..3"),
    (round_color_r1, r1_path_graph, 4, PreconditionError, "chosen thief 4 not in 1..3"),
    (round_color_rq1, rq1_path_graph, 0, PreconditionError, "thief 0 not in 1..3"),
    (round_color_rq1, rq1_path_graph, 4, PreconditionError, "thief 4 not in 1..3"),
    # a tampered flow
    (round_color_r0, lambda: tampered(four_cycle_graph()), None, PreconditionError, FLOW),
    (round_color_r1, lambda: tampered(r1_path_graph()), 1, PreconditionError, FLOW),
    (round_color_rq1, lambda: tampered(rq1_path_graph()), 1, PreconditionError, FLOW),
    # a 4-cycle
    (round_color_r0, four_cycle_graph, None, PreconditionError, CYCLE),
    (round_color_r1, q2_four_cycle_graph, 1, PreconditionError, CYCLE),
    (round_color_rq1, q2_four_cycle_graph, 1, PreconditionError, CYCLE),
    # a forest of the wrong shape; at q=2 the r=1 rule serves r=q-1 too
    (round_color_r1, lambda: empty_graph(3, 1), 1, PreconditionError, SIZE_R1),
    (round_color_rq1, lambda: empty_graph(3, 2), 1, InternalInvariantError, SHAPE_RQ1),
    (round_color_rq1, lambda: empty_graph(2, 1), 1, PreconditionError, SIZE_R1),
], ids=[
    "r0-r", "r1-r", "rq1-r", "r1-thief0", "r1-thief4", "rq1-thief0", "rq1-thief4",
    "r0-flow", "r1-flow", "rq1-flow", "r0-cycle", "r1-cycle", "rq1-cycle",
    "r1-shape", "rq1-shape", "rq1-shape-q2",
])
def test_rounders_report_each_single_fault(rounder, graph, thief, error, message):
    args = (graph(),) if thief is None else (graph(), thief)
    with pytest.raises(error) as caught:
        rounder(*args)
    assert type(caught.value) is error and str(caught.value) == message


# === the leaf peel ===

def random_forest(rng, thieves, beads):
    """(thief, bead) edges of a random bipartite forest: each vertex after
    the first joins a random earlier vertex of the other side, or none."""
    order = [("t", t) for t in range(1, thieves + 1)] + [("k", k) for k in range(1, beads + 1)]
    rng.shuffle(order)
    edges = []
    for i, (side, v) in enumerate(order):
        others = [u for s, u in order[:i] if s != side]
        if others and rng.random() < 0.8:
            u = rng.choice(others)
            edges.append((v, u) if side == "t" else (u, v))
    return edges


def test_peel_matches_the_flow_oracle_on_random_forests():
    # demands count a random choice of one sharer per bead, and one thief's
    # count is then moved by one about half of the time, so many forests
    # have no factor; thieves without edges keep alpha 0, as the flow
    # equalities force, and want a bead only when advantaged
    rng = random.Random(2311)
    seen = {True: 0, False: 0}
    for _ in range(3000):
        q = rng.randint(1, 7)
        edges = random_forest(rng, q, rng.randint(0, 7))
        beads = tuple(sorted({k for _, k in edges}))
        want = dict.fromkeys(range(1, q + 1), 0)
        for k in beads:
            want[rng.choice([t for t, kk in edges if kk == k])] += 1
        if rng.random() < 0.5:
            t = rng.randint(1, q)
            want[t] = max(0, want[t] + rng.choice((-1, 1)))
        used = {t for t, _ in edges}
        advantaged = frozenset(
            t for t, w in want.items() if w and (t not in used or rng.random() < 0.3)
        )
        alpha = {t: want[t] - (t in advantaged) for t in used}
        oracle = flow_b_factor(
            BipartiteGraph(left=tuple(range(1, q + 1)), right=beads, edges=edges),
            want,
            dict.fromkeys(beads, 1),
        )
        owner, cyclic, stuck = rounding.find_b_factor(edges, alpha, advantaged)
        assert not cyclic
        assert (stuck is None) == oracle.ok, (edges, alpha, advantaged)
        if oracle.ok:
            assert owner == {k: t for t, k in oracle.factor}, (edges, alpha, advantaged)
        seen[oracle.ok] += 1
    assert min(seen.values()) > 1000, seen


def union_find_is_forest(edges):
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for t, k in edges:
        a, b = find(("t", t)), find(("k", k))
        if a == b:
            return False
        parent[a] = b
    return True


def test_is_forest_matches_union_find_on_random_graphs():
    rng = random.Random(1123)
    seen = {True: 0, False: 0}
    for _ in range(3000):
        thieves, beads = rng.randint(1, 5), rng.randint(1, 5)
        p = rng.random() * 0.7
        edges = [
            (t, k) for t in range(1, thieves + 1) for k in range(1, beads + 1)
            if rng.random() < p
        ]
        g = ColorFlowGraph(1, thieves, 0, (), dict.fromkeys(edges, F(1, 2)), {})
        expected = union_find_is_forest(edges)
        assert is_forest(g) == expected, edges
        seen[expected] += 1
    assert min(seen.values()) > 500, seen


def test_unmet_demand_names_the_stuck_vertex():
    # thief 1 is advantaged but shares no bead
    with pytest.raises(InternalInvariantError) as caught:
        rounding._round_color(rounding._scaled(empty_graph(2, 0)), (1,))
    assert str(caught.value) == (
        "no b-factor for color 1 with advantaged thieves [1]: "
        "the demand of thief 1 cannot be met"
    )
    # two advantaged thieves on an r=1 path: the peel ends at thief 1
    with pytest.raises(InternalInvariantError, match="demand of thief 1 cannot be met"):
        rounding._round_color(rounding._scaled(r1_path_graph()), (1, 3))
    # a bead that two of its three sharers want
    edges = [(1, 1), (2, 1), (3, 1)]
    assert rounding.find_b_factor(edges, {}, {2, 3}) == ({1: 2}, False, ("bead", 1))


def test_rq1_on_the_fair_2000_bead_split():
    # thief t owns [2000(t-1)/2001, 2000t/2001], so bead k is shared by
    # thieves k and k+1 alone: one path of 4000 edges, each thief short
    # of a whole bead, and its only factor hands every bead before the
    # disadvantaged thief to its left sharer, every other to its right one
    n = 2000
    neck = Necklace((1,) * n, n + 1)
    cont = ContinuousSplitting(
        cuts=tuple(F(n * k, n + 1) for k in range(1, n + 1)), owners=range(1, n + 2)
    )
    g = build_flow_graph(cont, neck, 1)
    assert len(g.edges) == 2 * n
    for short in (1, 700, n + 1):
        assert round_color_rq1(g, short) == {k: k + (k >= short) for k in range(1, n + 1)}


def test_r1_and_rq1_agree_at_q2():
    # at q=2, r=1 is also q-1: the chosen thief is the one not left short
    cases = 0
    for n in range(1, 7):
        for colors in canonical_colorings(n, 3):
            neck = Necklace(colors, 2)
            cont = cancel_cycles(search_continuous(neck), neck)
            for j in range(1, neck.m + 1):
                g = build_flow_graph(cont, neck, j)
                if g.r == 1:
                    for t in (1, 2):
                        assert round_color_r1(g, t) == round_color_rq1(g, 3 - t), (colors, j)
                        cases += 1
    assert cases > 100


# === full pipeline ===

def test_pipeline_goldens():
    split = split_with_advantages(Necklace((1, 1, 1, 1), 3), {1: [3]})
    assert split.owner == (1, 2, 3, 3)

    split = split_with_advantages(Necklace((1, 1, 1, 1, 1), 3), {1: [1, 3]})
    assert split.owner == (1, 1, 2, 3, 3)

    split = split_with_advantages(Necklace((1, 2, 1, 2), 2), None)
    assert split.cuts <= 2


def test_pipeline_accepts_precomputed_continuous():
    neck = Necklace((1, 1, 1, 1), 3)
    cont = search_continuous(neck)
    for chosen in (1, 2, 3):
        split = split_with_advantages(neck, {1: [chosen]}, continuous=cont)
        assert verify_discrete(neck, {1: [chosen]}, split) == []


def test_pipeline_raises_on_a_bad_split(monkeypatch):
    # hand color 1's extra bead to the thief after the chosen one
    original = rounding._round_color
    monkeypatch.setattr(
        rounding, "_round_color", lambda g, adv: original(g, {t % g.q + 1 for t in adv})
    )
    with pytest.raises(InternalInvariantError, match="advantage color 1"):
        split_with_advantages(Necklace((1, 1, 1, 1), 3), {1: [3]})


@pytest.mark.xfail(raises=RecursionError, strict=True)
def test_pipeline_on_a_600_bead_sharing_path():
    # cycle cancellation searches each sharing graph with a recursive DFS,
    # one frame per vertex of the path; 400 beads still fit
    n = 600
    split = split_with_advantages(Necklace((1,) * n, n + 1), {1: range(1, n + 1)})
    assert split.cuts == n - 1


def test_pipeline_rejects_unfair_continuous():
    neck = Necklace((1, 1), 2)
    lopsided = ContinuousSplitting(cuts=(F(1, 2),), owners=(1, 2))
    with pytest.raises(PreconditionError, match="not fair"):
        split_with_advantages(neck, None, continuous=lopsided)


def test_pipeline_rejects_cut_past_the_end():
    neck = Necklace((1, 1, 2, 2), 2)
    past = ContinuousSplitting(cuts=(F(5),), owners=(1, 2))
    with pytest.raises(PreconditionError, match="not fair"):
        split_with_advantages(neck, None, continuous=past)


def test_pipeline_rejects_unroundable_remainder():
    with pytest.raises(PreconditionError, match="color 1 has r=2"):
        split_with_advantages(Necklace((1, 1), 4), {1: [1, 2]})


def test_pipeline_forwards_budget():
    with pytest.raises(BudgetExceededError):
        split_with_advantages(Necklace((1, 1), 2), None, budget=1)


def test_pipeline_matches_search_on_small_sweep():
    for n in range(1, 5):
        for colors in canonical_colorings(n, 2):
            neck = Necklace(colors, 2)
            if any(rj not in (0, 1) for rj in neck.r):
                continue
            live = [j for j in range(1, neck.m + 1) if neck.r[j - 1] == 1]
            specs = [None] if not live else [
                {j: [c] for j, c in zip(live, choice)}
                for choice in itertools.product((1, 2), repeat=len(live))
            ]
            for spec in specs:
                split = split_with_advantages(neck, spec)
                assert verify_discrete(neck, spec, split) == []
                best = search_discrete(neck, spec, max_cuts=neck.m)
                assert best is not None
                assert best.cuts <= split.cuts <= neck.m


def test_pipeline_every_q4_two_color_necklace_of_six_and_seven_beads():
    q = 4
    for n in (6, 7):
        for colors in itertools.product((1, 2), repeat=n):
            if len(set(colors)) < 2:
                continue
            neck = Necklace(colors, q)
            if any(rj not in (0, 1, q - 1) for rj in neck.r):
                continue
            live = [j for j in (1, 2) if neck.r[j - 1]]
            for choice in itertools.product(
                *(itertools.combinations(range(1, q + 1), neck.r[j - 1]) for j in live)
            ):
                spec = {j: list(ts) for j, ts in zip(live, choice)} or None
                split = split_with_advantages(neck, spec)
                assert verify_discrete(neck, spec, split) == [], (colors, spec)


def pipeline_reference(neck, cont):
    """spec -> (owner vector, cut bound) of ``split_with_advantages`` on a
    fair continuous splitting, rebuilt from the public Fraction-facing
    stages; the rounding alone depends on the advantage assignment."""
    cont = cancel_cycles(cont, neck)
    whole = {k: t for (t, k), amt in cont.allocation(neck).items() if amt == 1}
    graphs = [build_flow_graph(cont, neck, j) for j in range(1, neck.m + 1)]

    def owner_and_cuts(spec):
        adv = normalize_advantages(neck, spec)
        owner = dict(whole)
        for j, g in enumerate(graphs, start=1):
            if g.r == 0:
                owner.update(round_color_r0(g))
            elif g.r == 1:
                (chosen,) = adv[j]
                owner.update(round_color_r1(g, chosen))
            else:
                (disadvantaged,) = set(range(1, neck.q + 1)) - adv[j]
                owner.update(round_color_rq1(g, disadvantaged))
        return tuple(owner[k] for k in range(1, neck.n + 1)), len(cont.cuts)

    return owner_and_cuts


def admissible_specs(neck):
    """Every advantage assignment, if every remainder lies in {0, 1, q-1}."""
    if any(rj not in (0, 1, neck.q - 1) for rj in neck.r):
        return
    live = [j for j in range(1, neck.m + 1) if neck.r[j - 1]]
    for choice in itertools.product(
        *(itertools.combinations(range(1, neck.q + 1), neck.r[j - 1]) for j in live)
    ):
        yield {j: list(ts) for j, ts in zip(live, choice)} or None


def traded_cuts(neck, cont):
    """Fair splittings with cont's cut count whose sharing graphs may hold
    cycles: two cuts between the same two thieves, each moved 1/(2q) into
    a bead of one color, so that the thieves trade equal amounts of it."""
    eps = F(1, 2 * neck.q)
    moves = []  # (cut index, shift, color of the bead moved into, gainer, loser)
    for i, c in enumerate(cont.cuts):
        a, b = cont.owners[i], cont.owners[i + 1]
        moves.append((i, -eps, neck.beads[math.ceil(c) - 1], b, a))
        moves.append((i, eps, neck.beads[math.floor(c)], a, b))
    for (i, s, j, gain, lose), (i2, s2, j2, gain2, lose2) in itertools.combinations(moves, 2):
        if i != i2 and j == j2 and (gain, lose) == (lose2, gain2):
            cuts = list(cont.cuts)
            cuts[i] += s
            cuts[i2] += s2
            if all(x < y for x, y in zip(cuts, cuts[1:])):
                yield ContinuousSplitting(cuts=tuple(cuts), owners=cont.owners)


def test_pipeline_matches_public_stages_on_sweep():
    # the integer core against the Fraction-facing stages it replaced: on
    # the search's own splits, on fair splits traded into cycles (so that
    # the core cancels them in place), and on 1/(2q) pieces, which the
    # core must reject exactly when verify_continuous does
    rng = random.Random(11)
    cases = cancelled = rejected = 0
    for n in range(1, 7):
        for colors in canonical_colorings(n, 3):
            for q in (2, 3, 4):
                neck = Necklace(colors, q)
                specs = list(admissible_specs(neck))
                if not specs:
                    continue
                found = search_continuous(neck)
                supplied = [*traded_cuts(neck, found)]
                if n <= 4:
                    supplied.append(halves_of_shares(neck, rng))
                for cont in (None, *supplied):
                    if cont is not None and verify_continuous(neck, cont):
                        with pytest.raises(PreconditionError, match="not fair"):
                            split_with_advantages(neck, specs[0], continuous=cont)
                        rejected += 1
                        continue
                    reference = pipeline_reference(neck, cont or found)
                    for spec in specs:
                        owner, cuts = reference(spec)
                        split = split_with_advantages(neck, spec, continuous=cont)
                        assert split.owner == owner, (colors, q, spec, cont)
                        assert split.cuts <= cuts
                        cases += 1
                    cancelled += cont is not None and cancel_cycles(cont, neck) is not cont
    assert cases > 4000 and cancelled >= 10 and rejected > 40


# === the r=2 wall ===

def test_r2_demo_report():
    report = demonstrate_r2_failure()
    assert report.q == 4 and report.beads == (1, 1)
    assert len(report.outcomes) == 4
    advantaged = {adv for _, adv in report.outcomes}
    assert advantaged == {
        frozenset({1, 3}),
        frozenset({1, 4}),
        frozenset({2, 3}),
        frozenset({2, 4}),
    }
    assert report.target == frozenset({1, 2})
    assert not report.target_reachable
    assert not report.reachable({1, 2})
    assert report.reachable({1, 3}) and report.reachable({2, 4})
