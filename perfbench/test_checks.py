"""Each benchmark checker accepts a correct answer and rejects a broken one.

Run with ``python3 -m pytest perfbench``.  The correct answers are
worked out by hand from the definitions; each broken one changes a
single clause.
"""

from __future__ import annotations

import copy

import checks

# path 1..6 colored 1 1 2 2 1 2; remove vertex 5 (color 1) and 3 (color 2);
# the survivors 1 2 4 6 alternate between the sides
PATH = [1, 1, 2, 2, 1, 2]
PAIR = {"removed": {"1": 5, "2": 3}, "s1": [1, 4], "s2": [2, 6]}


def test_pair_split_accepts_and_rejects() -> None:
    assert checks.check_pair_split(PATH, PAIR) == []

    adjacent = copy.deepcopy(PAIR)
    adjacent["s1"], adjacent["s2"] = [1, 2], [4, 6]
    assert any("independence" in v for v in checks.check_pair_split(PATH, adjacent))

    wrong_color = copy.deepcopy(PAIR)
    wrong_color["removed"]["1"] = 3
    assert any("removal" in v for v in checks.check_pair_split(PATH, wrong_color))

    lost = copy.deepcopy(PAIR)
    lost["s2"] = [2]
    assert any("partition" in v for v in checks.check_pair_split(PATH, lost))


def test_pair_split_rejects_unfair_color_share() -> None:
    # 1 2 2 2 1 without 1 and 3: s1 = {2, 4} is independent but holds two
    # of the three vertices of color 2, one more than floor(3/2)
    answer = {"removed": {"1": 1, "2": 3}, "s1": [2, 4], "s2": [5]}
    found = checks.check_pair_split([1, 2, 2, 2, 1], answer)
    assert "color 2: s1 holds 2, outside [1, 1]" in found
    assert not any("independence" in v or "balance" in v for v in found)


def test_cycle_split_accepts_and_rejects() -> None:
    # n=8, m=2: both sides must be independent in the cycle, of size 3
    colors = [1, 1, 2, 2, 1, 2, 2, 1]
    good = {"split": {"removed": {"1": 5, "2": 6}, "s1": [1, 3, 7], "s2": [2, 4, 8]},
            "induced_edges": [0, 0], "max_extra_edges": 0}
    assert checks.check_cycle_split(colors, good) == []

    # a valid pair split of the path whose side s1 holds both ends of the
    # cycle, so the wrap edge {8, 1} falls inside it
    wrapped = {"split": {"removed": {"1": 5, "2": 6}, "s1": [1, 3, 8], "s2": [2, 4, 7]},
               "induced_edges": [1, 0], "max_extra_edges": 0}
    assert checks.check_pair_split(colors, wrapped["split"]) == []
    assert any(v.startswith("cycle") for v in checks.check_cycle_split(colors, wrapped))

    miscounted = copy.deepcopy(good)
    miscounted["induced_edges"] = [1, 0]
    assert any("induced_edges" in v for v in checks.check_cycle_split(colors, miscounted))


def test_stable_split_accepts_and_rejects() -> None:
    # q=3 on 1 1 1 1 1 1 1 1: discard two, three classes spaced >= 3 apart
    colors = [1] * 8
    good = {"found": True, "q": 3, "removed": {"1": [7, 8]},
            "classes": [[1, 4], [2, 5], [3, 6]]}
    assert checks.check_stable_split(colors, 3, good) == []

    close = copy.deepcopy(good)
    close["classes"] = [[1, 3], [2, 5], [4, 6]]
    assert any("stability" in v for v in checks.check_stable_split(colors, 3, close))

    one_discard = copy.deepcopy(good)
    one_discard["removed"] = {"1": [8]}
    one_discard["classes"] = [[1, 4, 7], [2, 5], [3, 6]]
    assert any("discards" in v for v in checks.check_stable_split(colors, 3, one_discard))

    unbalanced = copy.deepcopy(good)
    unbalanced["removed"] = {"1": [5, 6]}
    unbalanced["classes"] = [[1, 4, 7], [2, 8], [3]]
    found = checks.check_stable_split(colors, 3, unbalanced)
    assert any("balance" in v for v in found)
    assert any(v.startswith("color 1") for v in found)


def test_necklace_accepts_and_rejects() -> None:
    # four beads of color 1, q=3: shares 1 1 2 with thief 3 advantaged
    beads = [1, 1, 1, 1]
    good = {"owner": [1, 2, 3, 3], "cuts": 2}
    assert checks.check_necklace(beads, 3, {1: [3]}, good) == []
    assert any("advantage" in v for v in checks.check_necklace(beads, 3, {1: [1]}, good))

    unfair = {"owner": [1, 3, 3, 3], "cuts": 1}
    assert any("fairness" in v for v in checks.check_necklace(beads, 3, {1: [3]}, unfair))

    miscounted = {"owner": [1, 2, 3, 3], "cuts": 1}
    assert any("reported" in v for v in checks.check_necklace(beads, 3, {1: [3]}, miscounted))

    # 1 1 2 2 1 1 with q=2: thieves alternate fairly (two of color 1 and
    # one of color 2 each) but with 4 cuts, above (q-1)m = 2
    choppy = {"owner": [1, 2, 1, 2, 2, 1], "cuts": 4}
    assert checks.check_necklace([1, 1, 2, 2, 1, 1], 2, {}, choppy) == [
        "cuts: 4 exceeds (q-1)m = 2"
    ]


def test_tucker_report_and_recount() -> None:
    colors = [1, 2, 1, 2]
    t, labels = checks.path_labeling(colors)
    assert checks.complementary_pairs(labels) == 0
    report = {"antipodal": True, "complementary_pairs": 0, "t": t, "s": t + 2, "n": 4, "ok": True}
    assert checks.check_tucker(colors, report) == []

    short = dict(report, t=1, s=3)
    assert any("s=3 < n=4" in v for v in checks.check_tucker(colors, short))
    dirty = dict(report, ok=False, complementary_pairs=2)
    assert len(checks.check_tucker(colors, dirty)) == 2

    # giving a vector the negated label of one of its faces creates a
    # complementary comparable pair
    broken = dict(labels)
    face, vector = (0b0001, 0), (0b0001, 0b0010)
    broken[vector] = -broken[face]
    assert checks.complementary_pairs(broken) > 0


def test_tucker_t_matches_hand_count() -> None:
    # one color on three vertices: J(x) is empty exactly while each side
    # holds at most one vertex, so t = alt(+-0) = 2 and s = t + 1 = 3 = n
    t, _ = checks.path_labeling([1, 1, 1])
    assert t == 2


def test_scan_counts() -> None:
    # q=3, paths of up to 3 vertices with at most 2 colors: 1 + (1 + 2) +
    # (1 + 6) = 11 colorings; only 1 1 and 1 1 1 hold q-1 = 2 vertices of
    # every color, since two colors would need 4 vertices
    good = {"scanned": 2, "found": 2, "skipped": 9, "counterexamples": []}
    assert checks.check_scan(3, 3, 2, None, good) == []
    assert checks.check_scan(3, 3, 2, None, dict(good, skipped=8))
    assert checks.check_scan(3, 3, 2, None, dict(good, scanned=3, found=3, skipped=8))
    assert checks.check_scan(3, 3, 2, None, dict(good, found=1))
    sampled = {"scanned": 40, "found": 40, "skipped": 60, "counterexamples": []}
    assert checks.check_scan(3, 12, 3, 100, sampled) == []
    assert checks.check_scan(3, 12, 3, 100, dict(sampled, skipped=59))
