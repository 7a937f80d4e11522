"""Flow graphs, cycle cancellation, and whole-bead rounding.

Goldens are derived by hand from the exact allocations of small
continuous splittings; cancellation is additionally checked to
preserve every thief's per-color totals on a sweep.
"""

import itertools
from fractions import Fraction

import pytest

from fairsplit.errors import (
    BudgetExceededError,
    PreconditionError,
)
from fairsplit.necklace import (
    ContinuousSplitting,
    Necklace,
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
from helpers import canonical_colorings

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


# === per-remainder rounding ===

def test_rounders_insist_on_their_remainder_and_on_forests():
    g = four_cycle_graph()
    with pytest.raises(PreconditionError, match="r=1"):
        round_color_r1(g, chosen=1)
    with pytest.raises(PreconditionError, match="cancel cycles"):
        round_color_r0(g)


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


def test_pipeline_rejects_unfair_continuous():
    neck = Necklace((1, 1), 2)
    lopsided = ContinuousSplitting(cuts=(F(1, 2),), owners=(1, 2))
    with pytest.raises(PreconditionError, match="not fair"):
        split_with_advantages(neck, None, continuous=lopsided)


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
