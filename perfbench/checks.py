"""Independent checkers for fairsplit answers, written from the definitions.

Every checker takes the instance as plain Python data and the answer as
the decoded JSON document the CLI printed, and returns the list of
violated clauses (empty when the answer is correct).  None of this code
imports fairsplit: an answer passes only if it satisfies the paper's
definitions as re-derived here.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Any, Sequence


def _color_classes(colors: Sequence[int]) -> dict[int, list[int]]:
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors, start=1):
        classes.setdefault(c, []).append(v)
    return classes


def _removal_violations(colors: Sequence[int], removed: dict[str, Any]) -> list[str]:
    """One removed vertex per color, of that color."""
    m = max(colors)
    if sorted(removed) != sorted(str(j) for j in range(1, m + 1)):
        return ["removal: not one entry per color"]
    bad = [j for j, v in removed.items()
           if not (isinstance(v, int) and 1 <= v <= len(colors) and colors[v - 1] == int(j))]
    return [f"removal: color {j} removes a vertex of another color" for j in bad]


def check_pair_split(colors: Sequence[int], answer: dict[str, Any]) -> list[str]:
    """Pair split of a colored path (one removal per color, two independent sides)."""
    n = len(colors)
    removed = answer["removed"]
    out = _removal_violations(colors, removed)
    s1, s2 = answer["s1"], answer["s2"]
    survivors = set(range(1, n + 1)) - set(removed.values())
    if len(s1) + len(s2) != len(survivors) or set(s1) | set(s2) != survivors:
        out.append("partition: sides do not partition the survivors")
    for name, side in (("s1", set(s1)), ("s2", set(s2))):
        if any(v + 1 in side for v in side):
            out.append(f"independence: {name} holds two consecutive vertices")
    if abs(len(s1) - len(s2)) > 1:
        out.append("balance: side sizes differ by more than one")
    for j, cls in _color_classes(colors).items():
        v = len(cls)
        lo, hi = -(-v // 2) - 1, v // 2
        for name, side in (("s1", set(s1)), ("s2", set(s2))):
            held = sum(1 for u in cls if u in side)
            if not lo <= held <= hi:
                out.append(f"color {j}: {name} holds {held}, outside [{lo}, {hi}]")
    return out


def _cycle_edges(side: set[int], n: int) -> int:
    edges = sum(1 for v in side if v + 1 in side)
    if n >= 3 and 1 in side and n in side:
        edges += 1
    return edges


def check_cycle_split(colors: Sequence[int], answer: dict[str, Any]) -> list[str]:
    """Cycle split: a pair split where one side is independent in the cycle."""
    n, m = len(colors), max(colors)
    out = check_pair_split(colors, answer["split"])
    sides = [set(answer["split"]["s1"]), set(answer["split"]["s2"])]
    k = n - m
    small, extra = k // 2, -(-k // 2) - k // 2
    edges = [_cycle_edges(s, n) for s in sides]
    if answer["induced_edges"] != edges:
        out.append(f"induced_edges: reported {answer['induced_edges']}, counted {edges}")
    ok = any(edges[i] == 0 and len(sides[i]) == small and edges[1 - i] <= extra
             for i in range(2))
    if not ok:
        out.append(
            f"cycle: no side is cycle-independent of size {small} with the other "
            f"inducing at most {extra} cycle edges (edges {edges})"
        )
    return out


def check_stable_split(colors: Sequence[int], q: int, answer: dict[str, Any]) -> list[str]:
    """q-stable split: q classes at in-class distance >= q, q-1 discards per color."""
    n, m = len(colors), max(colors)
    if not answer.get("found"):
        return ["stable: no split returned"]
    out: list[str] = []
    classes = [list(c) for c in answer["classes"]]
    removed = answer["removed"]
    if answer["q"] != q or len(classes) != q:
        out.append(f"stable: expected {q} classes")
    if sorted(removed) != sorted(str(j) for j in range(1, m + 1)):
        out.append("discards: not one entry per color")
    for j, vs in removed.items():
        if len(vs) != q - 1 or any(colors[v - 1] != int(j) for v in vs if 1 <= v <= n):
            out.append(f"discards: color {j} does not discard q-1 vertices of its own")
    placed = [v for c in classes for v in c] + [v for vs in removed.values() for v in vs]
    if sorted(placed) != list(range(1, n + 1)):
        out.append("partition: classes and discards do not partition the vertices")
    for i, c in enumerate(classes, start=1):
        ordered = sorted(c)
        if any(b - a < q for a, b in zip(ordered, ordered[1:])):
            out.append(f"stability: class {i} holds two vertices closer than {q}")
    sizes = [len(c) for c in classes]
    if sizes and max(sizes) - min(sizes) > 1:
        out.append("balance: class sizes differ by more than one")
    for j, cls in _color_classes(colors).items():
        lo = (len(cls) + 1) // q - 1
        for i, c in enumerate(classes, start=1):
            held = len(set(cls) & set(c))
            if held < lo:
                out.append(f"color {j}: class {i} holds {held} < {lo}")
    return out


def check_necklace(
    beads: Sequence[int], q: int, advantages: dict[int, Sequence[int]], answer: dict[str, Any]
) -> list[str]:
    """Whole-bead split: floor/ceil shares, the named thieves get the ceilings."""
    owner = answer["owner"]
    m = max(beads)
    if len(owner) != len(beads) or any(not 1 <= t <= q for t in owner):
        return ["owner: wrong length or thief out of range"]
    out: list[str] = []
    for j in range(1, m + 1):
        a = beads.count(j)
        lo, hi = a // q, -(-a // q)
        held = {t: sum(1 for b, o in zip(beads, owner) if b == j and o == t)
                for t in range(1, q + 1)}
        if any(not lo <= h <= hi for h in held.values()):
            out.append(f"fairness: color {j} shares {held} outside [{lo}, {hi}]")
            continue
        ceiling = sorted(t for t, h in held.items() if h == hi and lo != hi)
        if ceiling != sorted(advantages.get(j, ())):
            out.append(f"advantage: color {j} ceiling holders {ceiling}, named {sorted(advantages.get(j, ()))}")
    cuts = sum(1 for a, b in zip(owner, owner[1:]) if a != b)
    if answer["cuts"] != cuts:
        out.append(f"cuts: reported {answer['cuts']}, counted {cuts}")
    if cuts > (q - 1) * m:
        out.append(f"cuts: {cuts} exceeds (q-1)m = {(q - 1) * m}")
    return out


def check_tucker(colors: Sequence[int], answer: dict[str, Any]) -> list[str]:
    """Tucker machine-check report: clean labeling with s = t + m >= n."""
    n, m = len(colors), max(colors)
    out: list[str] = []
    if answer["n"] != n:
        out.append(f"tucker: n={answer['n']}, instance has {n}")
    if not answer["ok"]:
        out.append("tucker: labeling not ok")
    if not answer["antipodal"]:
        out.append("tucker: labeling not antipodal")
    if answer["complementary_pairs"] != 0:
        out.append(f"tucker: {answer['complementary_pairs']} complementary pairs")
    if answer["s"] != answer["t"] + m:
        out.append("tucker: s != t + m")
    if answer["s"] < n:
        out.append(f"tucker: s={answer['s']} < n={n}, the lemma rules this out")
    return out


def path_labeling(colors: Sequence[int]) -> tuple[int, dict[tuple[int, int], int]]:
    """(t, labels) of the path labeling, by enumerating {+,-,0}^n.

    A sign vector is a pair of bitmasks (plus, minus) over vertices 1..n.
    Color j is saturated by x when both sides hold exactly half of V_j or
    one side holds more than half.  t is the largest alternation number
    over the unsaturated vectors.  The label of a saturated x is
    +-(t + j') with j' its largest saturated color, signed by the side
    holding more than half of V_j' or, at an exact tie, by the side of
    the first vertex of V_j'; an unsaturated x gets +-alt(x), signed by
    its first nonzero entry.
    """
    n = len(colors)
    classes = [cls for _, cls in sorted(_color_classes(colors).items())]
    masks = [sum(1 << (v - 1) for v in cls) for cls in classes]
    vectors = []
    for digits in itertools.product((0, 1, 2), repeat=n):
        plus = sum(1 << i for i, d in enumerate(digits) if d == 1)
        minus = sum(1 << i for i, d in enumerate(digits) if d == 2)
        if plus or minus:
            vectors.append((plus, minus, digits))

    def alternation(digits: tuple[int, ...]) -> int:
        runs, last = 0, 0
        for d in digits:
            if d and d != last:
                runs, last = runs + 1, d
        return runs

    saturated: dict[tuple[int, int], int] = {}
    t = 0
    for plus, minus, digits in vectors:
        top = 0
        for j, (mask, cls) in enumerate(zip(masks, classes), start=1):
            v = len(cls)
            p, mn = bin(plus & mask).count("1"), bin(minus & mask).count("1")
            if 2 * p == v and 2 * mn == v:
                top = j if plus >> (cls[0] - 1) & 1 else -j
            elif 2 * max(p, mn) > v:
                top = j if 2 * p > v else -j
        if top:
            saturated[(plus, minus)] = top
        else:
            t = max(t, alternation(digits))
    labels: dict[tuple[int, int], int] = {}
    for plus, minus, digits in vectors:
        top = saturated.get((plus, minus))
        if top:
            labels[(plus, minus)] = (t + abs(top)) * (1 if top > 0 else -1)
        else:
            first = next(d for d in digits if d)
            labels[(plus, minus)] = (1 if first == 1 else -1) * alternation(digits)
    return t, labels


def complementary_pairs(labels: dict[tuple[int, int], int]) -> int:
    """Pairs x preceding y (x+ within y+, x- within y-) whose labels sum to 0."""
    pairs = 0
    for (plus, minus), label in labels.items():
        sp = plus
        while True:
            sm = minus
            while True:
                if (sp or sm) and labels[(sp, sm)] == -label:
                    pairs += 1
                if sm == 0:
                    break
                sm = (sm - 1) & minus
            if sp == 0:
                break
            sp = (sp - 1) & plus
    return pairs


@lru_cache(maxsize=None)
def surjective_colorings(n: int, m: int) -> int:
    """Colorings of n vertices using all of m colors: m! S(n, m), by recurrence."""
    if m == 0:
        return 1 if n == 0 else 0
    if n == 0:
        return 0
    return m * (surjective_colorings(n - 1, m) + surjective_colorings(n - 1, m - 1))


@lru_cache(maxsize=None)
def _scannable(n: int, m: int, least: int) -> int:
    """Colorings of n vertices with exactly m colors, each used >= least times."""
    total = 0
    for sizes in itertools.product(range(least, n + 1), repeat=m):
        if sum(sizes) == n:
            total += math.factorial(n) // math.prod(math.factorial(s) for s in sizes)
    return total


def check_scan(
    q: int, max_n: int, max_m: int, samples: int | None, answer: dict[str, Any]
) -> list[str]:
    """conjecture-scan block: the counts add up to the colorings covered."""
    out: list[str] = []
    scanned, skipped, found = answer["scanned"], answer["skipped"], answer["found"]
    if found + len(answer["counterexamples"]) != scanned:
        out.append("scan: found + counterexamples != scanned")
    if samples is not None:
        if scanned + skipped != samples:
            out.append(f"scan: scanned + skipped = {scanned + skipped}, sampled {samples}")
        return out
    covered = sum(surjective_colorings(n, m)
                  for n in range(1, max_n + 1) for m in range(1, min(max_m, n) + 1))
    if scanned + skipped != covered:
        out.append(f"scan: scanned + skipped = {scanned + skipped}, covered {covered}")
    least = max(1, q - 1)
    expect = sum(_scannable(n, m, least)
                 for n in range(1, max_n + 1) for m in range(1, min(max_m, n) + 1))
    if scanned != expect:
        out.append(f"scan: scanned {scanned}, {expect} colorings have q-1 of every color")
    return out
