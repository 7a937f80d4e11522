"""Necklaces of colored beads and fair division among q thieves.

An open necklace has beads 1..n, bead k occupying the interval
(k-1, k] and carrying a color in 1..m.  A discrete splitting assigns
each bead to a thief; it is fair when every thief holds floor(a_j/q)
or ceil(a_j/q) beads of each color j, where a_j counts the beads of
color j.  The thieves holding the ceiling are the advantaged ones; an
advantage assignment picks, for every color with a_j mod q != 0,
exactly (a_j mod q) advantaged thieves.

A continuous splitting instead cuts the necklace at rational positions
and gives every thief exactly a_j/q of each color.  Both searches run
one left-to-right depth-first search over owner vectors, fewest cuts
first.  ``search_discrete`` runs it on the necklace itself with the
floor/ceil targets of an advantage assignment.  ``search_continuous``
runs it on the q-refined necklace, where every bead is cut into q
sub-beads: color j then has q*a_j sub-beads, and by Alon (1987,
*Splitting necklaces*) a split giving every thief a_j of them with at
most (q-1)m cuts exists.  Its cuts sit at multiples of 1/q, so it is
an exact continuous splitting without any linear solve.  Every search
node costs one unit of budget; running out is reported as such, never
as nonexistence.  All continuous arithmetic is exact, in integers: an
allocation counts units of 1/d, d the lcm of the cut denominators.  The
search's own split is built and checked once, as its owner vector and
an allocation in units of 1/q (``_search_allocation``), which both
``search_continuous`` and the rounding pipeline use; fractions.Fraction
appears only at the public boundary (cuts and ``allocation``).
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import NODE_BUDGET, BudgetExceededError, InternalInvariantError, SchemaError
from .paths import check_coloring

# not called here; kept because perfbench/tracing.py patches this name
from .linsolve import find_rational_point  # noqa: F401


@dataclass(frozen=True)
class Necklace:
    """Bead colors in necklace order plus the thief count q >= 2."""

    beads: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "beads", tuple(self.beads))
        check_coloring(self.beads)
        if self.q < 2:
            raise SchemaError("need at least two thieves")

    @property
    def n(self) -> int:
        return len(self.beads)

    @cached_property
    def m(self) -> int:
        return max(self.beads)

    @cached_property
    def a(self) -> tuple[int, ...]:
        """a[j-1] = number of beads of color j."""
        counts = [0] * self.m
        for c in self.beads:
            counts[c - 1] += 1
        return tuple(counts)

    @cached_property
    def r(self) -> tuple[int, ...]:
        return tuple(aj % self.q for aj in self.a)


def remainders(neck: Necklace) -> dict[int, int]:
    """Per color, the remainder of a_j divided by q."""
    return {j + 1: rj for j, rj in enumerate(neck.r)}


AdvantageSpec = Mapping[int, Iterable[int]]


def _index(value: object, what: str) -> int:
    """value as an int: an integral number, or a string that int() reads."""
    try:
        return int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise SchemaError(f"{what} must be integers, got {value!r}") from None


def normalize_advantages(
    neck: Necklace, advantages: AdvantageSpec | None
) -> dict[int, frozenset[int]]:
    """Validate an advantage assignment against the necklace remainders.

    Colors with r_j = 0 must be absent; every color with r_j != 0 must
    name exactly r_j distinct thieves in 1..q.  Colors and thieves are
    integers (a color key may be a string like "1"), each color named once.
    """
    given = {} if advantages is None else dict(advantages)
    r = remainders(neck)
    out: dict[int, frozenset[int]] = {}
    for key, thieves in given.items():
        j = _index(key, "advantage colors")
        if j in out:
            raise SchemaError(f"color {j} is named twice in the advantages")
        if j not in r:
            raise SchemaError(f"color {j} does not exist")
        if r[j] == 0:
            raise SchemaError(
                f"color {j} has remainder 0 and admits no advantaged thieves"
            )
        listed = [_index(t, f"advantaged thieves of color {j}") for t in thieves]
        ts = frozenset(listed)
        if len(ts) != len(listed):
            raise SchemaError(f"duplicate thieves in the advantage list of color {j}")
        if not all(1 <= t <= neck.q for t in ts):
            raise SchemaError(f"advantaged thieves of color {j} must lie in 1..{neck.q}")
        if len(ts) != r[j]:
            raise SchemaError(
                f"color {j} needs exactly r_j={r[j]} advantaged thieves, got {len(ts)}"
            )
        out[j] = ts
    missing = [j for j, rj in r.items() if rj != 0 and j not in out]
    if missing:
        raise SchemaError(f"missing advantaged thieves for colors {missing}")
    return out


@dataclass(frozen=True)
class DiscreteSplitting:
    """owner[k-1] = thief receiving bead k."""

    owner: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "owner", tuple(self.owner))

    @property
    def cuts(self) -> int:
        """Adjacent differently-owned pairs, i.e. physical cuts."""
        return sum(1 for a, b in zip(self.owner, self.owner[1:]) if a != b)

    def counts(self, neck: Necklace) -> dict[int, tuple[int, ...]]:
        """Thief -> per-color bead counts."""
        out = {t: [0] * neck.m for t in range(1, neck.q + 1)}
        for k, t in enumerate(self.owner):
            out[t][neck.beads[k] - 1] += 1
        return {t: tuple(v) for t, v in out.items()}


def verify_discrete(
    neck: Necklace, advantages: AdvantageSpec | None, split: DiscreteSplitting
) -> list[str]:
    """Check a discrete splitting clause by clause; returns violations."""
    return _discrete_violations(neck, normalize_advantages(neck, advantages), split)


def _discrete_violations(
    neck: Necklace, adv: Mapping[int, frozenset[int]], split: DiscreteSplitting
) -> list[str]:
    """``verify_discrete`` on an advantage assignment already normalized."""
    if len(split.owner) != neck.n or any(
        t < 1 or t > neck.q for t in split.owner
    ):
        return ["owner vector shape"]
    violations: list[str] = []
    counts = split.counts(neck)
    for j in range(1, neck.m + 1):
        lo = neck.a[j - 1] // neck.q
        hi = lo + (1 if neck.r[j - 1] else 0)
        held = {t: counts[t][j - 1] for t in counts}
        if any(c < lo or c > hi for c in held.values()):
            violations.append(f"fairness color {j}")
            continue
        if neck.r[j - 1]:
            ceil_holders = frozenset(t for t, c in held.items() if c == hi)
            if ceil_holders != adv[j]:
                violations.append(f"advantage color {j}")
    if split.cuts > (neck.q - 1) * neck.m:
        violations.append("cut bound")
    return violations


def _out_of_budget(budget: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"necklace search passed {budget} candidates (search nodes) without "
        "finishing; this bounds effort, it does not mean no splitting exists"
    )


def _first_owner(
    beads: Sequence[int],
    target: Sequence[Sequence[int]],
    min_cuts: int,
    max_cuts: int,
    budget: int,
) -> tuple[int, ...] | None:
    """First owner vector meeting the targets exactly, fewest cuts first.

    Thief t must receive exactly target[t-1][j-1] beads of color j, and
    the rows must add up to the bead counts of each color.  Returns the
    thief (1..q) of every bead, or None when no owner vector with at
    most max_cuts cuts exists.  Cut limits run from min_cuts up; under
    each limit the search gives bead after bead first to the thief
    holding the previous bead, then to the other thieves in ascending
    order.  It prunes a thief taking more than its target of a color,
    a cut count that leaves too few cuts for every thief other than the
    current one who is still owed beads, and a thief holding nothing
    whose target row equals that of a lower-numbered thief also holding
    nothing (swapping the two gives an earlier owner vector, so no
    first solution is lost); as twins thus start in index order, only the
    nearest lower twin is checked.  Every node costs one unit of ``budget``
    before it is expanded; the stack is explicit and nothing is
    memoized.
    """
    n, q = len(beads), len(target)
    colors = [c - 1 for c in beads]
    totals = [sum(row) for row in target]
    # twin[t]: the nearest lower thief with t's target row, or -1
    twin: list[int] = []
    latest: dict[tuple[int, ...], int] = {}
    for t, row in enumerate(map(tuple, target)):
        twin.append(latest.get(row, -1))
        latest[row] = t
    nodes = 0

    for limit in range(min_cuts, max_cuts + 1):
        owed = [list(row) for row in target]
        left = totals[:]
        owing = sum(1 for x in left if x)
        # every owed thief but the first needs a cut; each move below
        # keeps cuts + owing - 1 <= limit, so only switches are checked
        if owing - 1 > limit:
            continue
        # held[d] holds the thief of bead d-1; held[0] is the sentinel 0,
        # so the first bead tries the thieves in ascending order
        held = [0] * (n + 1)
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
            # the k-th thief to try after a bead held by prev: prev first,
            # then the others ascending
            prev = held[d]
            t = k - (k <= prev) if k else prev
            switch = d > 0 and t != prev
            if switch and cuts + owing > limit:
                tried[d] = q
                continue
            if not owed[t][colors[d]]:
                continue
            s = twin[t]
            if left[t] == totals[t] and s >= 0 and left[s] == totals[s]:
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


def search_discrete(
    neck: Necklace,
    advantages: AdvantageSpec | None,
    max_cuts: int,
    budget: int = NODE_BUDGET,
) -> DiscreteSplitting | None:
    """First fair whole-bead splitting with at most max_cuts cuts, or None.

    Thief t gets exactly floor(a_j/q) beads of color j, plus one when t
    is advantaged for j.  The depth-first search of ``_first_owner``
    tries cut counts ascending, so the result has the fewest cuts
    possible; within a count, every bead goes first to the thief
    holding the bead before it, then to the others in ascending order.
    ``budget`` bounds the search nodes across all cut counts.  Serves
    as the independent oracle against which the continuous-rounding
    pipeline is checked.
    """
    adv = normalize_advantages(neck, advantages)
    q = neck.q
    target = [
        [aj // q + (t in adv.get(j, ())) for j, aj in enumerate(neck.a, start=1)]
        for t in range(1, q + 1)
    ]
    owner = _first_owner(neck.beads, target, 0, min(max_cuts, neck.n - 1), budget)
    if owner is None:
        return None
    found = DiscreteSplitting(owner)
    if _discrete_violations(neck, adv, found):
        raise InternalInvariantError("discrete search accepted an unfair candidate")
    return found


@dataclass(frozen=True)
class ContinuousSplitting:
    """Cut positions (exact rationals) and the thief owning each segment."""

    cuts: tuple[Fraction, ...]
    owners: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cuts", tuple(Fraction(c) for c in self.cuts))
        object.__setattr__(self, "owners", tuple(self.owners))
        if len(self.owners) != len(self.cuts) + 1:
            raise SchemaError("need exactly one owner per segment")

    def scaled_allocation(
        self, neck: Necklace
    ) -> tuple[int, dict[tuple[int, int], int]]:
        """(d, (thief, bead) -> amount the thief receives, in units of 1/d).

        d is the lcm of the cut denominators.  Only beads 1..n are
        counted, so a cut outside (0, n) moves no amount off the
        necklace.  The keys run bead by bead, each bead's thieves in the
        order they first hold a piece of it.
        """
        d = lcm(*(c.denominator for c in self.cuts))
        n = neck.n
        bounds = (0, *(c.numerator * (d // c.denominator) for c in self.cuts), n * d)
        alloc: dict[tuple[int, int], int] = {}
        for owner, lo, hi in zip(self.owners, bounds, bounds[1:]):
            for k in range(max(lo // d, 0) + 1, min(-(-hi // d), n) + 1):
                amt = min(hi, k * d) - max(lo, k * d - d)
                if amt > 0:
                    alloc[(owner, k)] = alloc.get((owner, k), 0) + amt
        return d, alloc

    def allocation(self, neck: Necklace) -> dict[tuple[int, int], Fraction]:
        """(thief, bead) -> amount of the bead the thief receives."""
        d, alloc = self.scaled_allocation(neck)
        return {key: Fraction(amt, d) for key, amt in alloc.items()}


def verify_continuous(neck: Necklace, cont: ContinuousSplitting) -> list[str]:
    """Exact check of a continuous splitting; returns violated clauses."""
    violations: list[str] = []
    cuts, owners = cont.cuts, cont.owners
    shape_ok = (
        all(0 < c < neck.n for c in cuts)
        and all(a < b for a, b in zip(cuts, cuts[1:]))
        and all(1 <= t <= neck.q for t in owners)
        and all(a != b for a, b in zip(owners, owners[1:]))
    )
    if not shape_ok:
        violations.append("shape")
    if len(cuts) > (neck.q - 1) * neck.m:
        violations.append("cut bound")
    d, alloc = cont.scaled_allocation(neck)
    return violations + _share_violations(neck, d, alloc.items())


def _share_violations(
    neck: Necklace, d: int, shares: Iterable[tuple[tuple[int, int], int]]
) -> list[str]:
    """``verify_continuous``'s bead-sum and fairness clauses, amounts in 1/d."""
    totals: dict[tuple[int, int], int] = {}
    bead_sum = [0] * neck.n
    for (t, k), amt in shares:
        j = neck.beads[k - 1]
        totals[(t, j)] = totals.get((t, j), 0) + amt
        bead_sum[k - 1] += amt
    violations = ["bead sums"] if any(s != d for s in bead_sum) else []
    # thief t holds totals/d of color j, which must equal a_j/q
    fair = all(
        totals.get((t, j), 0) * neck.q == neck.a[j - 1] * d
        for t in range(1, neck.q + 1)
        for j in range(1, neck.m + 1)
    )
    return violations if fair else violations + ["fairness"]


def _search_allocation(
    neck: Necklace, budget: int
) -> tuple[tuple[int, ...], list[int], dict[tuple[int, int], int]]:
    """``search_continuous``'s q-refined owner vector, the sub-beads after
    which it switches thief, and its allocation (thief, bead) -> sub-beads,
    keyed as by ``scaled_allocation``; checked by ``verify_continuous``'s
    clauses but shape, which holds by construction."""
    q = neck.q
    # each node on the way to a split is one sub-bead deeper, so with more
    # sub-beads than budget the search cannot finish: stop before building them
    if neck.n * q > budget:
        raise _out_of_budget(budget)
    refined = [c for c in neck.beads for _ in range(q)]
    owner = _first_owner(refined, [neck.a] * q, q - 1, (q - 1) * neck.m, budget)
    if owner is None:
        raise InternalInvariantError(
            "continuous search exhausted its enumeration; a fair splitting "
            "always exists"
        )
    alloc = Counter((t, i // q + 1) for i, t in enumerate(owner))
    switches = [i for i in range(1, len(owner)) if owner[i - 1] != owner[i]]
    bad = ["cut bound"] if len(switches) > (q - 1) * neck.m else []
    bad += _share_violations(neck, q, alloc.items())
    if bad:
        raise InternalInvariantError(f"continuous candidate failed verification: {bad}")
    return owner, switches, alloc


def search_continuous(
    neck: Necklace, budget: int = NODE_BUDGET
) -> ContinuousSplitting:
    """Continuous fair splitting with at most (q-1)m cuts.

    Cuts every bead into q sub-beads and asks ``_first_owner`` for a
    whole-sub-bead split of this q-refined necklace that gives every
    thief a_j sub-beads of color j, trying q-1 cuts up to (q-1)m.  By
    Alon (1987) such a split exists, since every color count is now a
    multiple of q.  A cut after sub-bead i becomes the cut at i/q.
    Existence is guaranteed, so exhausting the search or failing the
    checks of ``_search_allocation`` signals a defect; running past
    ``budget`` search nodes is reported as such, never as nonexistence.
    """
    owner, switches, _ = _search_allocation(neck, budget)
    return ContinuousSplitting(
        cuts=tuple(Fraction(i, neck.q) for i in switches),
        owners=(owner[0], *(owner[i] for i in switches)),
    )
