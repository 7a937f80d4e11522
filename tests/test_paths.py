"""Path splitting checked against exhaustive oracles.

Two independent oracles guard the pair-split solver: a reimplementation
of its documented search order (lexicographic removals, alternating
phases) and a fully exhaustive enumeration of every valid split.  The
q-stable enumerator is compared item by item against a filter over all
(q+1)^n assignments.
"""

import inspect
import itertools
import random

import numpy as np
import pytest

from fairsplit.errors import (
    NODE_BUDGET,
    BudgetExceededError,
    InternalInvariantError,
    PreconditionError,
    SchemaError,
)
from fairsplit.paths import (
    _pair_as_stable,
    _qstable_search,
    _snapshot,
    ColoredPath,
    CycleSplit,
    PairSplit,
    StableSplit,
    check_coloring,
    compose_splits,
    enumerate_qstable_splits,
    iter_canonical_colorings,
    qstable_split_exists,
    solve_cycle_split,
    solve_pair_split,
    solve_qstable_bruteforce,
    solve_qstable_power2,
    verify_cycle_split,
    verify_pair_split,
    verify_qstable_split,
)
from helpers import canonical_colorings, iter_colorings


# === oracles ===

def documented_search_oracle(colors):
    """First success of the documented strategy: lex removals, phase + then -."""
    path = ColoredPath(colors)
    for removal in itertools.product(*path.classes):
        survivors = [v for v in range(1, path.n + 1) if v not in removal]
        for phase in (1, -1):
            s1 = frozenset(v for k, v in enumerate(survivors) if (-1) ** k * phase > 0)
            s2 = frozenset(survivors) - s1
            ok = True
            for cls in path.classes:
                c1 = sum(1 for u in cls if u in s1)
                c2 = sum(1 for u in cls if u in s2)
                if 2 * max(c1, c2) > len(cls):
                    ok = False
                    break
            if ok:
                removed = {path.colors[v - 1]: v for v in removal}
                return PairSplit(removed=removed, s1=s1, s2=s2)
    return None


def all_pair_splits(colors):
    """Every assignment satisfying the pair-split invariants, by brute force."""
    path = ColoredPath(colors)
    out = []
    for removal in itertools.product(*path.classes):
        survivors = [v for v in range(1, path.n + 1) if v not in removal]
        for bits in itertools.product((0, 1), repeat=len(survivors)):
            s1 = frozenset(v for v, b in zip(survivors, bits) if b == 0)
            s2 = frozenset(v for v, b in zip(survivors, bits) if b == 1)
            removed = {path.colors[v - 1]: v for v in removal}
            cand = PairSplit(removed=removed, s1=s1, s2=s2)
            if not verify_pair_split(path, cand):
                out.append(cand)
    return out


def split_to_assignment(path, split: StableSplit):
    out = []
    for v in range(1, path.n + 1):
        j = path.colors[v - 1]
        if v in split.removed.get(j, frozenset()):
            out.append(0)
        else:
            out.append(next(i for i, c in enumerate(split.classes, 1) if v in c))
    return tuple(out)


def qstable_assignments_oracle(colors, q, enforce_upper=False):
    """All valid q-stable assignments in lexicographic order, by full product."""
    path = ColoredPath(colors)
    n = path.n
    found = []
    for assign in itertools.product(range(q + 1), repeat=n):
        ok = True
        for j, cls in enumerate(path.classes, start=1):
            v = len(cls)
            if sum(1 for u in cls if assign[u - 1] == 0) != q - 1:
                ok = False
                break
            for i in range(1, q + 1):
                c = sum(1 for u in cls if assign[u - 1] == i)
                if c < max(0, (v + 1) // q - 1):
                    ok = False
                if enforce_upper and c * q > v:
                    ok = False
            if not ok:
                break
        if not ok:
            continue
        sizes = []
        for i in range(1, q + 1):
            members = [u for u in range(1, n + 1) if assign[u - 1] == i]
            sizes.append(len(members))
            if any(b - a < q for a, b in zip(members, members[1:])):
                ok = False
                break
        if ok and max(sizes) - min(sizes) <= 1:
            found.append(assign)
    return found


# === colorings ===

def test_check_coloring_accepts_what_the_set_range_rule_accepts():
    # the rule it replaces built the whole range up to the largest color
    def set_range_rule(colors):
        return set(colors) == set(range(1, max(colors) + 1))

    values = (-1, 0, 1, 2, 3, True, 1.0, 1.5, "a", np.int64(2))
    for k in range(5):
        for colors in itertools.product(values, repeat=k):
            try:
                accepted = set_range_rule(colors)
            except (TypeError, ValueError):
                accepted = False
            if accepted:
                check_coloring(colors)
            else:
                with pytest.raises(SchemaError):
                    check_coloring(colors)


# === pair split ===

def test_pair_split_golden_is_first_lexicographic_success():
    colors = (1, 1, 2, 2)
    path = ColoredPath(colors)
    split = solve_pair_split(path)
    assert dict(split.removed) == {1: 1, 2: 3}
    assert split.s1 == frozenset({2})
    assert split.s2 == frozenset({4})
    oracle = documented_search_oracle(colors)
    assert (dict(oracle.removed), oracle.s1, oracle.s2) == (
        dict(split.removed), split.s1, split.s2)
    assert verify_pair_split(path, split) == []


def test_pair_split_tiny_paths():
    split = solve_pair_split(ColoredPath((1,)))
    assert dict(split.removed) == {1: 1}
    assert split.s1 == split.s2 == frozenset()

    split = solve_pair_split(ColoredPath((1, 1)))
    assert dict(split.removed) == {1: 1}
    assert split.s1 == frozenset({2})
    assert split.s2 == frozenset()


def test_pair_split_three_colors_interleaved():
    path = ColoredPath((1, 2, 3, 1, 2, 3))
    split = solve_pair_split(path)
    assert verify_pair_split(path, split) == []
    assert len(split.s1) + len(split.s2) == 3
    assert {len(split.s1), len(split.s2)} == {2, 1}


def test_pair_split_sweep_matches_documented_search():
    for n in range(1, 8):
        for colors in canonical_colorings(n, 3):
            path = ColoredPath(colors)
            split = solve_pair_split(path)
            assert verify_pair_split(path, split) == [], colors
            oracle = documented_search_oracle(colors)
            assert dict(split.removed) == dict(oracle.removed), colors
            assert (split.s1, split.s2) == (oracle.s1, oracle.s2), colors
            # survivors strictly alternate between the two sides
            survivors = sorted(split.s1 | split.s2)
            sides = [1 if v in split.s1 else 2 for v in survivors]
            assert all(a != b for a, b in zip(sides, sides[1:])), colors


def test_pair_split_random_paths_match_documented_search():
    rng = random.Random(2)
    for _ in range(200):
        m = rng.randint(1, 4)
        raw = [rng.randint(1, m) for _ in range(rng.randint(10, 40))]
        relabel = {}
        colors = tuple(relabel.setdefault(c, len(relabel) + 1) for c in raw)
        split = solve_pair_split(ColoredPath(colors))
        oracle = documented_search_oracle(colors)
        assert (dict(split.removed), split.s1, split.s2) == (
            dict(oracle.removed), oracle.s1, oracle.s2), colors


def test_pair_split_thousand_vertices():
    rng = random.Random(7)
    path = ColoredPath(tuple(rng.randint(1, 5) for _ in range(1000)))
    assert path.m == 5
    assert verify_pair_split(path, solve_pair_split(path)) == []


def test_pair_split_budget_counts_removal_vectors():
    # the first two removal vectors fail, the third succeeds; each costs m=2
    path = ColoredPath((1, 1, 2, 2, 1, 2))
    with pytest.raises(BudgetExceededError, match="examined 2 removal vectors"):
        solve_pair_split(path, budget=4)
    assert verify_pair_split(path, solve_pair_split(path, budget=6)) == []


def test_pair_split_output_among_all_valid_splits():
    for n in range(1, 7):
        for colors in canonical_colorings(n, 2):
            path = ColoredPath(colors)
            valid = all_pair_splits(colors)
            assert valid, colors
            split = solve_pair_split(path)
            assert (dict(split.removed), split.s1, split.s2) in [
                (dict(c.removed), c.s1, c.s2) for c in valid
            ], colors


def test_verify_pair_split_flags_adjacent_pair():
    path = ColoredPath((1, 1, 1, 1, 1))
    cand = PairSplit(removed={1: 3}, s1=frozenset({1, 2}), s2=frozenset({4, 5}))
    assert "independence" in verify_pair_split(path, cand)


def test_verify_pair_split_flags_coverage_gap():
    path = ColoredPath((1, 1, 1, 1))
    cand = PairSplit(removed={1: 1}, s1=frozenset({2, 4}), s2=frozenset())
    violations = verify_pair_split(path, cand)
    assert "coverage" in violations and "balance" in violations


def test_verify_pair_split_flags_color_imbalance():
    path = ColoredPath((1, 2, 1, 2, 1, 2))
    cand = PairSplit(removed={1: 5, 2: 6}, s1=frozenset({1, 3}), s2=frozenset({2, 4}))
    assert verify_pair_split(path, cand) == ["color-balance"]
    # one side over half a color while the other keeps its floor: only
    # overlapping parts can do that, so the upper bound is checked alone
    over = PairSplit(removed={1: 3}, s1=frozenset({1, 3, 5}), s2=frozenset({2, 4}))
    assert verify_pair_split(ColoredPath((1,) * 5), over) == ["coverage", "color-balance"]


# === cycle split ===

def test_cycle_split_even_gap_both_independent():
    path = ColoredPath((1, 1, 2, 2))
    result = solve_cycle_split(path)
    assert result.induced_edges == (0, 0)
    assert result.max_extra_edges == 0
    assert verify_cycle_split(path, result) == []


def test_cycle_split_odd_gap_allows_one_edge():
    path = ColoredPath((1, 1, 1, 2, 2))
    result = solve_cycle_split(path)
    assert result.max_extra_edges == 1
    assert max(result.induced_edges) <= 1
    assert verify_cycle_split(path, result) == []


def test_cycle_split_sweep():
    for n in range(3, 8):
        for colors in canonical_colorings(n, 3):
            path = ColoredPath(colors)
            result = solve_cycle_split(path)
            assert verify_cycle_split(path, result) == [], colors


@pytest.mark.parametrize("colors, removed, s1, s2, induced, bound, violations", [
    # the solver's own split of (1, 1, 2, 2), with wrong counts
    ((1, 1, 2, 2), {1: 1, 2: 3}, {2}, {4}, (1, 0), 0, ["edge-counts"]),
    ((1, 1, 2, 2), {1: 1, 2: 3}, {2}, {4}, (0, 0), 1, ["edge-counts"]),
    # a valid pair split whose second side holds both ends of the edge {5, 1}
    ((1,) * 5, {1: 3}, {2, 4}, {1, 5}, (0, 1), 0, ["cycle-edges"]),
    ((1,) * 5, {1: 3}, {2, 4}, {1, 5}, (0, 0), 0, ["edge-counts", "cycle-edges"]),
    # neither side has the floor((n-m)/2) = 2 vertices of an independent one
    ((1,) * 5, {1: 3}, {1}, {5}, (0, 0), 0,
     ["coverage", "color-balance", "cycle-independence"]),
], ids=["induced", "bound", "cycle-edges", "cycle-edges-and-counts", "cycle-independence"])
def test_verify_cycle_split_names_each_broken_clause(
    colors, removed, s1, s2, induced, bound, violations
):
    split = PairSplit(removed=removed, s1=frozenset(s1), s2=frozenset(s2))
    cand = CycleSplit(split, induced, bound)
    assert verify_cycle_split(ColoredPath(colors), cand) == violations


def test_cycle_split_needs_three_vertices():
    with pytest.raises(PreconditionError):
        solve_cycle_split(ColoredPath((1, 1)))


# === q-stable splits ===

def test_enumerate_matches_product_oracle():
    cases = [(n, q) for n in range(1, 7) for q in (2, 3, 4, 5)]
    for n, q in cases:
        for colors in canonical_colorings(n, 3):
            path = ColoredPath(colors)
            if any(len(cls) < q - 1 for cls in path.classes):
                continue
            got = [split_to_assignment(path, s) for s in enumerate_qstable_splits(path, q)]
            assert got == qstable_assignments_oracle(colors, q), (colors, q)


def test_enumerate_rejects_too_small_color_class():
    # discarding q-1 vertices per color needs that many to exist
    with pytest.raises(PreconditionError):
        next(enumerate_qstable_splits(ColoredPath((1,)), 3))


def test_enumerate_rejects_q_below_1():
    with pytest.raises(PreconditionError, match="^q must be at least 1$"):
        next(enumerate_qstable_splits(ColoredPath((1,)), 0))


def test_enumerate_enforce_upper_matches_oracle():
    for colors in canonical_colorings(6, 2):
        path = ColoredPath(colors)
        got = [
            split_to_assignment(path, s)
            for s in enumerate_qstable_splits(path, 2, enforce_upper=True)
        ]
        assert got == qstable_assignments_oracle(colors, 2, enforce_upper=True)


def test_q1_takes_everything():
    path = ColoredPath((1, 2, 1))
    split = solve_qstable_bruteforce(path, 1)
    assert split.classes == (frozenset({1, 2, 3}),)
    assert all(not vs for vs in split.removed.values())


def test_q2_always_found_and_agrees_with_pair_split():
    for n in range(1, 7):
        for colors in canonical_colorings(n, 2):
            path = ColoredPath(colors)
            split = solve_qstable_bruteforce(path, 2)
            assert split is not None, colors
            assert verify_qstable_split(path, 2, split) == [], colors
            as_stable = _pair_as_stable(solve_pair_split(path))
            assert verify_qstable_split(path, 2, as_stable) == [], colors


def test_qstable_distance_is_in_edges():
    # vertices 1 and 4 are at distance 3 = q: allowed together
    path = ColoredPath((1, 1, 1, 1))
    split = solve_qstable_bruteforce(path, 3)
    assert split is not None
    for cls in split.classes:
        members = sorted(cls)
        assert all(b - a >= 3 for a, b in zip(members, members[1:]))


def test_verify_qstable_negatives():
    path = ColoredPath((1, 1, 1, 1, 1))
    q = 2
    bad_distance = StableSplit(
        q=q, removed={1: frozenset({5})},
        classes=(frozenset({1, 2}), frozenset({3, 4})),
    )
    assert "stability" in verify_qstable_split(path, q, bad_distance)
    bad_balance = StableSplit(
        q=q, removed={1: frozenset({2})},
        classes=(frozenset({1, 3, 5}), frozenset({4})),
    )
    assert "balance" in verify_qstable_split(path, q, bad_balance)


def test_conjecture_counterexample_arithmetic_single_color_seven():
    # q=3 on a 7-vertex single color path: the floor bound 1 is achieved,
    # the ceiling-style bound 2 is not; 3 classes of 2 would need
    # |V1| - 2 = 5 >= 6 covered vertices
    path = ColoredPath((1,) * 7)
    q = 3
    splits = list(enumerate_qstable_splits(path, q))
    assert splits
    best_min = max(min(len(c) for c in s.classes) for s in splits)
    assert best_min == 1
    assert (7 + 1) // 3 - 1 == 1  # the floor-style bound, achieved
    assert -(-(7 - 3) // 3) == 2  # ceil(7/3 - 1), out of reach
    assert all(min(len(c) for c in s.classes) < 2 for s in splits)
    assert 7 - 2 == 5 < 3 * 2


def test_a_finished_search_without_a_split_is_logged_as_a_counterexample(monkeypatch, caplog):
    # no small path lacks a split, so the search is stubbed to finish empty
    monkeypatch.setattr("fairsplit.paths._qstable_search", lambda *args: iter(()))
    colors = (1, 1, 2, 2, 1)
    with caplog.at_level("WARNING", logger="fairsplit.paths"):
        assert solve_qstable_bruteforce(ColoredPath(colors), 3) is None
        assert qstable_split_exists(colors, 3) is False
    expected = (
        "no q-stable split for q=3, colors=[1, 1, 2, 2, 1] -- this is a "
        "conjecture counterexample candidate"
    )
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [("WARNING", expected)] * 2


def test_compose_q4_on_sixteen_vertices():
    path = ColoredPath((1,) * 8 + (2,) * 8)

    def subsolver(p, q):
        if q == 2:
            return _pair_as_stable(solve_pair_split(p))
        return solve_qstable_bruteforce(p, q)

    split = compose_splits(path, 2, 2, subsolver)
    assert split.q == 4
    assert verify_qstable_split(path, 4, split, enforce_upper=True) == []
    for j in (1, 2):
        assert len(split.removed[j]) == 3
    for cls in split.classes:
        for j in (1, 2):
            assert sum(1 for v in cls if path.colors[v - 1] == j) >= 9 // 4 - 1


def test_compose_identity_when_both_factors_trivial():
    path = ColoredPath((1, 2, 1))

    def subsolver(p, q):
        return solve_qstable_bruteforce(p, q)

    split = compose_splits(path, 1, 1, subsolver)
    assert split.classes == (frozenset({1, 2, 3}),)


def whole_path_or_two_classes(p, k):
    """A subsolver that answers q=2 with a pair split and any other q
    with two classes, the whole path and nothing."""
    if k == 2:
        return _pair_as_stable(solve_pair_split(p))
    return StableSplit(2, {}, (frozenset(range(1, p.n + 1)), frozenset()))


@pytest.mark.parametrize("q1, q2", [(1, 2), (2, 1)], ids=["outer", "inner"])
def test_compose_rejects_a_subsolver_with_the_wrong_class_count(q1, q2):
    path = ColoredPath((1, 2, 1, 2, 1, 2))
    with pytest.raises(InternalInvariantError, match="^subsolver returned a wrong class count$"):
        compose_splits(path, q1, q2, whole_path_or_two_classes)


@pytest.mark.parametrize("q", [0, 3, 6, 12])
def test_power2_rejects_q_not_a_power_of_two(q):
    with pytest.raises(PreconditionError, match=f"^q={q} is not a power of two$"):
        solve_qstable_power2(ColoredPath((1,) * 20), q)


def test_power2_solver_small():
    for colors in [(1,) * 4, (1,) * 7, (1, 1, 2, 2, 1, 1, 2, 2)]:
        path = ColoredPath(colors)
        split = solve_qstable_power2(path, 2)
        assert verify_qstable_split(path, 2, split) == []
    path = ColoredPath((1,) * 12)
    split = solve_qstable_power2(path, 4)
    assert verify_qstable_split(path, 4, split, enforce_upper=True) == []


def composition_reference(path, q, budget=None):
    """``solve_qstable_power2`` as the generic composition of pair splits."""
    kw = {} if budget is None else {"budget": budget}
    if q == 2:
        return _pair_as_stable(solve_pair_split(path, **kw))
    return compose_splits(
        path, 2, q // 2, lambda sub, k: composition_reference(sub, k, budget)
    )


@pytest.mark.parametrize("q", [2, 4, 8])
def test_power2_matches_composition_on_canonical_colorings(q):
    checked = 0
    for n in range(1, 10):
        for colors in iter_canonical_colorings(n, 3):
            if min(map(colors.count, range(1, max(colors) + 1))) < q - 1:
                continue
            path = ColoredPath(colors)
            # StableSplit equality compares the classes in order
            assert solve_qstable_power2(path, q) == composition_reference(path, q), colors
            checked += 1
    assert checked


def test_power2_matches_composition_on_seeded_paths_with_small_budgets():
    rng = random.Random(15)
    outcomes = set()
    for _ in range(150):
        q = rng.choice([2, 4, 8])
        m = rng.randint(1, 4)
        n = rng.randint((q - 1) * m, 120)
        colors = [j for j in range(1, m + 1) for _ in range(q - 1)]
        colors += [rng.randint(1, m) for _ in range(n - len(colors))]
        rng.shuffle(colors)
        path = ColoredPath(colors)
        budget = rng.randint(1, 40)
        got = verdict(solve_qstable_power2, path, q, budget=budget)
        assert got == verdict(composition_reference, path, q, budget), colors
        outcomes.add(type(got) if isinstance(got, StableSplit) else got[0])
    # both endings occur, so the budget messages were compared too
    assert outcomes == {StableSplit, BudgetExceededError}


def test_power2_checks_class_sizes_before_any_search():
    # one vertex of color 2 is too few for q=4; a budget of 1 would stop
    # the first pair split, so the precondition must come first
    path = ColoredPath((1, 1, 1, 2))
    with pytest.raises(PreconditionError, match="q-1=3"):
        solve_qstable_power2(path, 4, budget=1)


def test_budget_guard_rejects_huge_enumeration():
    # a first split lies n+1 = 15 nodes deep, past a budget of 10
    path = ColoredPath((1,) * 14)
    with pytest.raises(BudgetExceededError):
        next(enumerate_qstable_splits(path, 3, budget=10))


def verdict(decide, *args, **kwargs):
    """What a q-stable decision ends in: its answer or the error it raised."""
    try:
        return decide(*args, **kwargs)
    except (BudgetExceededError, PreconditionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_split_exists_matches_bruteforce_on_canonical_colorings(q):
    for n in range(1, 10):
        for colors in iter_canonical_colorings(n, 3):
            found = verdict(lambda: solve_qstable_bruteforce(ColoredPath(colors), q) is not None)
            assert verdict(qstable_split_exists, colors, q) == found, colors


def random_first_occurrence_path(rng, n, m):
    return first_occurrence(rng.randint(1, m) for _ in range(n))


def test_split_exists_stops_where_bruteforce_stops():
    # seeded paths of about 100 vertices; both wrap one search, so the
    # default budget is checked by signature rather than by a 10^6-node run
    rng = random.Random(12)
    outcomes = set()
    for i in range(40):
        q = (3, 5)[i % 2]
        colors = random_first_occurrence_path(rng, rng.randint(95, 105), rng.randint(1, 3))
        path = ColoredPath(colors)
        for budget in (10, 100, 10**4):
            found = verdict(lambda: solve_qstable_bruteforce(path, q, budget=budget) is not None)
            assert verdict(qstable_split_exists, colors, q, budget=budget) == found, (colors, q, budget)
            outcomes.add(found if isinstance(found, bool) else found[0])
    assert outcomes == {True, BudgetExceededError}
    for solver in (qstable_split_exists, solve_qstable_bruteforce):
        assert inspect.signature(solver).parameters["budget"].default == NODE_BUDGET


def test_first_search_assignment_is_a_verified_split():
    for colors, q in [((1,) * 7, 3), ((1, 2) * 6, 3), ((1, 1, 2, 1, 2, 2, 1, 2) * 2, 5)]:
        path = ColoredPath(colors)
        assign = next(_qstable_search(colors, q, False, 10**6))
        split = _snapshot(colors, q, assign)
        assert verify_qstable_split(path, q, split) == [], colors
        assert split == solve_qstable_bruteforce(path, q)


def stirling2(n, m):
    """Partitions of n items into exactly m nonempty blocks."""
    if n == m:
        return 1
    if m == 0 or m > n:
        return 0
    return m * stirling2(n - 1, m) + stirling2(n - 1, m - 1)


def first_occurrence(colors):
    relabel = {}
    return tuple(relabel.setdefault(c, len(relabel) + 1) for c in colors)


@pytest.mark.parametrize("n", range(1, 9))
def test_canonical_colorings_one_per_relabeling_class(n):
    for max_m in range(1, 5):
        got = list(iter_canonical_colorings(n, max_m))
        for m in range(1, min(max_m, n) + 1):
            assert sum(max(c) == m for c in got) == stirling2(n, m)
        classes = {first_occurrence(p.colors) for p in iter_colorings(n, max_m)}
        assert len(got) == len(classes) and set(got) == classes
        # the order of iter_colorings: m ascending, then lexicographic
        assert got == sorted(got, key=lambda c: (max(c), c))


@pytest.mark.parametrize("n", range(1, 11))
def test_canonical_colorings_with_every_color_used_least_times(n):
    # the helpers' restricted growth strings, filtered by class sizes and
    # put in the order of iter_colorings: m ascending, then lexicographic
    every = sorted(canonical_colorings(n, 4), key=lambda c: (max(c), c))
    for max_m in range(1, 5):
        for least in range(1, 5):
            want = [
                c for c in every
                if max(c) <= max_m and min(map(c.count, set(c))) >= least
            ]
            assert list(iter_canonical_colorings(n, max_m, least)) == want, (max_m, least)
    # every coloring uses each of its colors at least once
    assert list(iter_canonical_colorings(n, 4, 0)) == list(iter_canonical_colorings(n, 4))
