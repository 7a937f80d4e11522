"""Necklace model, discrete search, and continuous search.

The discrete searcher is checked against a full enumeration of all q^n
owner vectors; the continuous searcher's outputs are re-verified with
exact rational arithmetic and pinned to hand-derived cut positions.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from fairsplit.errors import BudgetExceededError, SchemaError
from fairsplit.necklace import (
    ContinuousSplitting,
    DiscreteSplitting,
    Necklace,
    _continuous_schedule,
    _first_owner,
    normalize_advantages,
    search_continuous,
    search_discrete,
    verify_continuous,
    verify_discrete,
)
from helpers import (
    canonical_colorings,
    first_owner_list_rule,
    fraction_allocation_oracle,
    scaled_fractions,
)

F = Fraction


def discrete_oracle_min_cuts(neck, advantages):
    """Fewest cuts over all q^n owner vectors passing the verifier, or None."""
    best = None
    for owner in itertools.product(range(1, neck.q + 1), repeat=neck.n):
        split = DiscreteSplitting(owner=owner)
        if verify_discrete(neck, advantages, split) == []:
            best = split.cuts if best is None else min(best, split.cuts)
    return best


def advantage_specs(neck):
    """Every advantage assignment for the necklace's nonzero remainders."""
    live = [j for j, rj in enumerate(neck.r, start=1) if rj != 0]
    pools = [
        [frozenset(c) for c in itertools.combinations(range(1, neck.q + 1), neck.r[j - 1])]
        for j in live
    ]
    for choice in itertools.product(*pools):
        yield {j: sorted(ts) for j, ts in zip(live, choice)}


# === model ===

def test_necklace_counts_and_remainders():
    neck = Necklace((1, 1, 1, 1), 3)
    assert neck.a == (4,) and neck.r == (1,)
    assert Necklace((1, 1, 1, 1, 1), 3).r == (2,)
    assert Necklace((1, 2, 1, 2), 2).r == (0, 0)


def test_necklace_validation():
    with pytest.raises(ValueError):
        Necklace((), 2)
    with pytest.raises(ValueError):
        Necklace((1, 3), 2)
    with pytest.raises(ValueError):
        Necklace((1, 1), 1)


def test_normalize_advantages_accepts_and_rejects():
    neck = Necklace((1, 1, 1, 1), 3)
    assert normalize_advantages(neck, {1: [3]}) == {1: frozenset({3})}
    with pytest.raises(SchemaError):
        normalize_advantages(neck, {2: [1]})  # color does not exist
    with pytest.raises(SchemaError):
        normalize_advantages(neck, {1: [1, 2]})  # wrong cardinality
    with pytest.raises(SchemaError):
        normalize_advantages(neck, {1: [4]})  # thief out of range
    with pytest.raises(SchemaError):
        normalize_advantages(neck, None)  # missing required color
    with pytest.raises(SchemaError):
        normalize_advantages(Necklace((1, 2, 1, 2), 2), {1: [1]})  # r=0 color named
    with pytest.raises(SchemaError, match="^duplicate thieves in the advantage list of color 1$"):
        normalize_advantages(Necklace((1,) * 5, 3), {1: [2, 2]})  # r=2, one thief twice


def test_normalize_advantages_range_check_at_huge_q():
    q = 10**9
    neck = Necklace((1, 1), q)
    assert normalize_advantages(neck, {1: [q, 1]}) == {1: frozenset({1, q})}
    for thieves in ([0, 1], [1, q + 1]):
        with pytest.raises(SchemaError, match="must lie in"):
            normalize_advantages(neck, {1: thieves})


def test_normalize_advantages_rejects_non_integers():
    neck = Necklace((1, 1, 1, 1), 3)
    # 1.7 and 2.9 used to be truncated to color 1 and thief 2
    for spec in ({1.7: [2.9]}, {1.0: [2]}, {1: [2.9]}, {1: [F(2)]}, {"x": [2]}, {1: ["t2"]}):
        with pytest.raises(SchemaError, match="must be integers"):
            normalize_advantages(neck, spec)
    assert normalize_advantages(neck, {"1": [2]}) == {1: frozenset({2})}


def test_normalize_advantages_rejects_a_color_named_twice():
    neck = Necklace((1, 1, 1, 1), 3)
    # the second key used to overwrite the first without a word
    for spec in ({1: [1], "1": [2]}, {"1": [2], 1: [2]}, {1: [1], " 1": [1]}):
        with pytest.raises(SchemaError, match="color 1 is named twice"):
            normalize_advantages(neck, spec)


def test_discrete_cut_count_is_adjacency_based():
    assert DiscreteSplitting((1, 1, 2, 2)).cuts == 1
    assert DiscreteSplitting((1, 2, 1, 2)).cuts == 3
    assert DiscreteSplitting((2, 2, 2)).cuts == 0


# === verify_discrete ===

def test_verify_discrete_goldens():
    neck = Necklace((1, 2, 1, 2), 2)
    assert verify_discrete(neck, None, DiscreteSplitting((1, 1, 2, 2))) == []
    report = verify_discrete(neck, None, DiscreteSplitting((1, 1, 1, 2)))
    assert "fairness color 1" in report

    neck = Necklace((1, 1, 1, 1), 3)
    assert verify_discrete(neck, {1: [2]}, DiscreteSplitting((1, 2, 2, 3))) == []


def test_verify_discrete_flags_wrong_advantaged_thief():
    neck = Necklace((1, 1, 1, 1), 3)
    report = verify_discrete(neck, {1: [2]}, DiscreteSplitting((1, 2, 3, 3)))
    assert report == ["advantage color 1"]


def test_verify_discrete_flags_bad_owner_vector():
    neck = Necklace((1, 1), 2)
    assert verify_discrete(neck, None, DiscreteSplitting((1,))) == [
        "owner vector shape"
    ]
    assert verify_discrete(neck, None, DiscreteSplitting((1, 5))) == [
        "owner vector shape"
    ]


# === search_discrete ===

def test_search_discrete_goldens():
    found = search_discrete(Necklace((1, 2, 1, 2), 2), None, max_cuts=2)
    assert found is not None and found.cuts == 1
    assert found.owner == (1, 1, 2, 2)

    found = search_discrete(Necklace((1, 1, 1, 1), 3), {1: [2]}, max_cuts=2)
    assert found is not None and found.owner == (1, 2, 2, 3)

    found = search_discrete(Necklace((1,), 2), {1: [1]}, max_cuts=1)
    assert found is not None and found.owner == (1,) and found.cuts == 0


def test_search_discrete_respects_max_cuts():
    assert search_discrete(Necklace((1, 2, 1, 2), 2), None, max_cuts=0) is None


def test_search_discrete_matches_full_owner_enumeration():
    for n in range(1, 6):
        for colors in canonical_colorings(n, 2):
            neck = Necklace(colors, 2)
            bound = (neck.q - 1) * neck.m
            for spec in advantage_specs(neck):
                oracle = discrete_oracle_min_cuts(neck, spec)
                found = search_discrete(neck, spec, max_cuts=bound)
                if oracle is None:
                    assert found is None, (colors, spec)
                else:
                    assert found is not None, (colors, spec)
                    assert found.cuts == oracle, (colors, spec)
                    assert verify_discrete(neck, spec, found) == []


def test_search_discrete_budget_guard():
    with pytest.raises(BudgetExceededError):
        search_discrete(Necklace((1,) * 6, 2), None, max_cuts=2, budget=1)


def first_owner_outcome(search, *args):
    try:
        return search(*args)
    except BudgetExceededError as exc:
        return str(exc)


def fewest_first(limits, budget):
    """``search_discrete``'s schedule: each cut limit with the whole budget."""
    return [(c, budget) for c in limits]


def test_first_owner_twin_rule_matches_list_rule():
    # the same owner vector, or the same budget stop, as the rule that
    # checks every lower twin; on the necklace's own floor/ceil targets
    # for every advantage assignment, fewest cuts first, and on the
    # q-refined targets under the continuous schedule, whose half-budget
    # bound phase the budget of 25 sometimes stops, so that the fewest-first
    # fallback runs and its outcome is compared too
    cases = stops = fallbacks = 0
    for n in range(1, 7):
        for colors in canonical_colorings(n, 3):
            for q in (2, 3, 4):
                neck = Necklace(colors, q)
                refined = [c for c in colors for _ in range(q)]
                searches = [(
                    refined, [neck.a] * q,
                    functools.partial(_continuous_schedule, len(refined), q, neck.m),
                )]
                limits = range(min((q - 1) * neck.m, n - 1) + 1)
                for spec in advantage_specs(neck):
                    target = [
                        [aj // q + (t in spec.get(j, ())) for j, aj in enumerate(neck.a, 1)]
                        for t in range(1, q + 1)
                    ]
                    searches.append((colors, target, functools.partial(fewest_first, limits)))
                for beads, target, schedule in searches:
                    for budget in (3, 25, 400, 3_000):
                        args = (beads, target, list(schedule(budget)), budget)
                        got = first_owner_outcome(_first_owner, *args)
                        want = first_owner_outcome(first_owner_list_rule, *args)
                        assert got == want, (colors, q, target, budget)
                        cases += 1
                        stops += isinstance(want, str)
                        # the bound phase alone stops short of an answer
                        phase = args[2][:1]
                        fallbacks += (
                            phase[0][1] < budget
                            and _first_owner(beads, target, phase, budget) is None
                        )
    assert cases > 10_000 and 0 < stops < cases and fallbacks > 0


# === continuous splittings ===

def test_allocation_and_owner_sequence():
    neck = Necklace((1, 2, 1), 2)
    cont = ContinuousSplitting(cuts=(F(3, 2),), owners=(1, 2))
    # amounts in halves; keys bead by bead, each bead's owners in
    # left-to-right order
    d, alloc = cont.scaled_allocation(neck)
    assert d == 2
    assert list(alloc.items()) == [((1, 1), 2), ((1, 2), 1), ((2, 2), 1), ((2, 3), 2)]
    assert verify_continuous(neck, cont) == []


def test_allocation_matches_fraction_oracle_on_search_output():
    for n in range(1, 6):
        for colors in canonical_colorings(n, 3):
            for q in (2, 3, 4):
                neck = Necklace(colors, q)
                cont = search_continuous(neck)
                assert scaled_fractions(cont, neck) == fraction_allocation_oracle(
                    cont, neck
                ), (colors, q)


def test_allocation_matches_fraction_oracle_on_mixed_denominators():
    # cuts on grids of 1/2, 1/3, 1/6, 1/10 and whole beads, with repeated
    # owners: d is their lcm, and equal neighbours merge into one holding
    rng = random.Random(9)
    for _ in range(400):
        n, q = rng.randint(1, 7), rng.randint(2, 4)
        labels: dict[int, int] = {}
        colors = [
            labels.setdefault(rng.randint(1, 3), len(labels) + 1) for _ in range(n)
        ]
        neck = Necklace(tuple(colors), q)
        grids = rng.sample((1, 2, 3, 6, 10), rng.randint(1, 3))
        cuts = sorted(
            {
                F(rng.randint(1, n * den - 1), den)
                for den in grids
                for _ in range(3)
                if n * den > 1
            }
        )
        owners = tuple(rng.randint(1, q) for _ in range(len(cuts) + 1))
        cont = ContinuousSplitting(cuts=tuple(cuts), owners=owners)
        assert scaled_fractions(cont, neck) == fraction_allocation_oracle(cont, neck), (
            colors,
            cont,
        )


def test_verify_continuous_reports_cut_past_the_end():
    neck = Necklace((1, 1, 2, 2), 2)
    cont = ContinuousSplitting(cuts=(F(5),), owners=(1, 2))
    assert verify_continuous(neck, cont) == ["shape", "fairness"]


def test_continuous_owner_per_segment_required():
    with pytest.raises(ValueError):
        ContinuousSplitting(cuts=(F(1),), owners=(1,))


def test_verify_continuous_flags_bad_shape():
    neck = Necklace((1, 2, 1), 2)
    cont = ContinuousSplitting(cuts=(F(3, 2), F(1, 2)), owners=(1, 2, 1))
    assert "shape" in verify_continuous(neck, cont)


def test_verify_continuous_flags_cut_bound():
    neck = Necklace((1, 2, 1), 2)
    cont = ContinuousSplitting(
        cuts=(F(1, 2), F(1), F(3, 2)), owners=(1, 2, 1, 2)
    )
    assert "cut bound" in verify_continuous(neck, cont)


def test_verify_continuous_flags_unfairness():
    neck = Necklace((1, 2, 1), 2)
    cont = ContinuousSplitting(cuts=(F(1),), owners=(1, 2))
    assert verify_continuous(neck, cont) == ["fairness"]


# === search_continuous ===

def test_search_continuous_goldens():
    cont = search_continuous(Necklace((1, 2, 1), 2))
    assert cont.cuts == (F(3, 2),) and cont.owners == (1, 2)

    cont = search_continuous(Necklace((1, 1, 1, 1), 3))
    assert cont.cuts == (F(4, 3), F(8, 3)) and cont.owners == (1, 2, 3)

    cont = search_continuous(Necklace((1, 1), 2))
    assert cont.cuts == (F(1),) and cont.owners == (1, 2)

    cont = search_continuous(Necklace((1, 1, 1, 1, 1), 3))
    assert cont.cuts == (F(5, 3), F(10, 3)) and cont.owners == (1, 2, 3)


def test_search_continuous_verified_sweep():
    # at most (q-1)m cuts: the bound searched first, or fewest cuts first
    for n in range(1, 7):
        for colors in canonical_colorings(n, 3):
            for q in (2, 3, 4):
                neck = Necklace(colors, q)
                cont = search_continuous(neck)
                assert verify_continuous(neck, cont) == [], (colors, q)
                assert len(cont.cuts) <= (q - 1) * neck.m
                assert all((c * q).denominator == 1 for c in cont.cuts)


def test_search_continuous_budget_guard():
    with pytest.raises(BudgetExceededError):
        search_continuous(Necklace((1, 1), 2), budget=1)
