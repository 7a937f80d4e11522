"""Shared enumeration helpers for the sweep tests, and a capped CLI runner."""

from __future__ import annotations

import itertools
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from math import ceil, floor
from pathlib import Path
from typing import Iterator, Sequence

from fairsplit.necklace import _out_of_budget
from fairsplit.paths import ColoredPath

SRC = Path(__file__).resolve().parent.parent / "src"


def restricted_growth_strings(n: int, max_labels: int | None = None) -> Iterator[tuple[int, ...]]:
    """All restricted growth strings of length n (equivalently set partitions)."""
    if n == 0:
        return
    cap = n if max_labels is None else max_labels

    def rec(i: int, used: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(prefix)
            return
        for label in range(min(used + 1, cap)):
            prefix.append(label)
            yield from rec(i + 1, max(used, label + 1), prefix)
            prefix.pop()

    yield from rec(0, 0, [])


def set_partitions(n: int, max_classes: int | None = None) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of {1..n} into nonempty classes, ordered by first occurrence."""
    for rgs in restricted_growth_strings(n, max_classes):
        m = max(rgs) + 1
        classes: list[list[int]] = [[] for _ in range(m)]
        for v, label in enumerate(rgs, start=1):
            classes[label].append(v)
        yield tuple(tuple(c) for c in classes)


def iter_colorings(n: int, max_m: int) -> Iterator[ColoredPath]:
    """All paths on n vertices with at most max_m colors, every color used.

    The m^n product twin of ``iter_canonical_colorings``: the oracle for
    it and for ``conjecture-scan``'s exhaustive sweep.
    """
    for m in range(1, min(max_m, n) + 1):
        for colors in itertools.product(range(1, m + 1), repeat=n):
            if len(set(colors)) == m:
                yield ColoredPath(colors)


def canonical_colorings(n: int, max_m: int) -> Iterator[tuple[int, ...]]:
    """Color sequences of length n, at most max_m colors, labeled by first occurrence.

    One sequence per set partition, so sweeps over these are sweeps over
    partitions of the path's vertex set.
    """
    for rgs in restricted_growth_strings(n, max_m):
        yield tuple(label + 1 for label in rgs)


def fraction_allocation_oracle(cont, neck) -> dict[tuple[int, int], Fraction]:
    """(thief, bead) -> amount, by a segment walk in Fractions.

    The reference for ``ContinuousSplitting.allocation``, which computes
    the same map in integer units of 1/d.
    """
    alloc: dict[tuple[int, int], Fraction] = {}
    bounds = (Fraction(0), *cont.cuts, Fraction(neck.n))
    for owner, lo, hi in zip(cont.owners, bounds, bounds[1:]):
        for k in range(floor(lo) + 1, ceil(hi) + 1):
            amt = min(hi, Fraction(k)) - max(lo, Fraction(k - 1))
            if amt > 0:
                key = (owner, k)
                alloc[key] = alloc.get(key, Fraction(0)) + amt
    return alloc


def run_cli_capped(
    argv: list[str], stdin: str | bytes = "", *, memory_mb: int = 512, timeout: float = 30.0
) -> tuple[int, str, str, float]:
    """Run ``python -m fairsplit.cli`` with argv in a capped subprocess.

    The child's address space is limited to memory_mb (RLIMIT_AS), and
    OpenBLAS runs one thread, whose buffers then fit under that cap.
    A str stdin is sent as UTF-8, bytes as they are.
    Returns (exit code, stdout, stderr, seconds elapsed).
    """
    limit = memory_mb * 2**20

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "fairsplit.cli", *argv],
        input=stdin.encode() if isinstance(stdin, str) else stdin,
        capture_output=True, env=env, timeout=timeout, preexec_fn=cap,
    )
    elapsed = time.perf_counter() - start
    return done.returncode, done.stdout.decode(), done.stderr.decode(), elapsed


def first_owner_list_rule(
    beads: Sequence[int],
    target: Sequence[Sequence[int]],
    min_cuts: int,
    max_cuts: int,
    budget: int,
) -> tuple[int, ...] | None:
    """``necklace._first_owner`` with the list twin rule: the oracle for it.

    Here every thief keeps the list of all lower thieves with its target
    row, and a thief holding nothing is pruned when any of them holds
    nothing too; the search itself keeps only the nearest such thief.
    """
    n, q = len(beads), len(target)
    colors = [c - 1 for c in beads]
    totals = [sum(row) for row in target]
    twins = [[s for s in range(t) if target[s] == target[t]] for t in range(q)]
    # orders[p]: the thieves to try after a bead held by p, keeping p
    # first; orders[q] serves the first bead, which has no holder before it
    orders = [[p, *(t for t in range(q) if t != p)] for p in range(q)]
    orders.append(list(range(q)))
    nodes = 0

    for limit in range(min_cuts, max_cuts + 1):
        owed = [list(row) for row in target]
        left = totals[:]
        owing = sum(1 for x in left if x)
        # every owed thief but the first needs a cut; each move below
        # keeps cuts + owing - 1 <= limit, so only switches are checked
        if owing - 1 > limit:
            continue
        # held[d] holds the thief of bead d-1; held[0] is the sentinel q
        held = [q] * (n + 1)
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
            prev = held[d]
            t = orders[prev][k]
            switch = d > 0 and t != prev
            if switch and cuts + owing > limit:
                tried[d] = q
                continue
            if not owed[t][colors[d]]:
                continue
            if left[t] == totals[t] and any(left[s] == totals[s] for s in twins[t]):
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
