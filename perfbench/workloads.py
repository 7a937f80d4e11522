"""Seeded instance generators for the four benchmark workloads.

A workload is a stream of rounds; a round is a short fixed list of CLI
requests, each carrying its instance, its extra flags, its checker and
the number of instances it answers.  Rounds are drawn from a
``random.Random`` seeded by the workload name and the run seed, so the
same seed always yields the same requests.  Each round has the same
make-up (the same commands and size slots), which keeps the spread of a
run's totals small even though single instances vary a lot in cost.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable

import checks

# conjecture-scan and brute-force split-stable refuse by the worst case
# (q+1)^n; the scan blocks below clear their ranges in milliseconds.
SCAN_BUDGET = 10**18


@dataclass
class Request:
    """One ``fairsplit`` CLI call and how to judge its answer."""

    command: str
    instance: dict[str, Any] | None
    flags: list[str]
    check: Callable[[dict[str, Any]], list[str]]
    count: Callable[[dict[str, Any]], int] = lambda answer: 1


def _coloring(rng: random.Random, n: int, m: int, least: int = 1) -> list[int]:
    """n colors over 1..m, every color used at least ``least`` times."""
    colors = [j for j in range(1, m + 1) for _ in range(least)]
    colors += [rng.randint(1, m) for _ in range(n - least * m)]
    rng.shuffle(colors)
    return colors


# ---------------------------------------------------------------------------
# paths: split-path, split-cycle, split-stable --q 4 and --q 8
#
# The lex-product pair-split search costs about (n/m)^m removal vectors
# in the worst case, so the larger m gets the shorter paths.  The four
# commands rotate over the four m slots from round to round.

PATH_SLOTS = {2: (60, 300), 3: (40, 120), 4: (30, 64), 5: (35, 45)}


def paths_round(rng: random.Random, index: int) -> list[Request]:
    out = []
    for i, (command, least, flags) in enumerate((
        ("split-path", 1, []),
        ("split-cycle", 1, []),
        ("split-stable", 3, ["--q", "4"]),
        ("split-stable", 7, ["--q", "8"]),
    )):
        m = 2 + (index + i) % 4
        lo, hi = PATH_SLOTS[m]
        colors = _coloring(rng, rng.randint(lo, hi), m, least)
        if command == "split-path":
            check = lambda a, c=colors: checks.check_pair_split(c, a)
        elif command == "split-cycle":
            check = lambda a, c=colors: checks.check_cycle_split(c, a)
        else:
            check = lambda a, c=colors, q=int(flags[1]): checks.check_stable_split(c, q, a)
        kind = "cycle" if command == "split-cycle" else "path"
        out.append(Request(command, {"kind": kind, "colors": colors}, flags, check))
    return out


# ---------------------------------------------------------------------------
# necklace: split-necklace with a seeded advantage assignment
#
# Slots stay below the sizes where search_continuous exceeds its default
# budget: every slot was checked against it, exhaustively for q=3 with
# m=3 up to 7 beads and q=4 with m=2 up to 5 beads (it fails on every
# such necklace of 6 beads).  Every color's remainder lies in
# {0, 1, q-1}, so every assignment is admissible.

NECKLACE_SLOTS = (
    # (q, m range, n range)
    (2, (1, 4), (4, 12)),
    (2, (3, 4), (8, 12)),
    (3, (1, 2), (3, 12)),
    (3, (3, 3), (3, 7)),
    (4, (1, 1), (3, 12)),
)

# The costliest slot, q=4 with m=2, admits only 18 necklaces of 4 or 5
# beads.  Rounds take them in turn, so every run holds the same mix and
# the 90th-percentile latency, which falls inside this slot, does not
# jump between their cost levels from seed to seed.
Q4_M2_NECKLACES = [
    list(beads) for n in (4, 5) for beads in itertools.product((1, 2), repeat=n)
    if set(beads) == {1, 2} and all(beads.count(j) % 4 in (0, 1, 3) for j in (1, 2))
]


def _necklace(rng: random.Random, q: int, m: int, n_lo: int, n_hi: int) -> list[int]:
    while True:
        beads = _coloring(rng, rng.randint(max(n_lo, m), n_hi), m)
        if all(beads.count(j) % q in (0, 1, q - 1) for j in range(1, m + 1)):
            return beads


def necklace_round(rng: random.Random, index: int) -> list[Request]:
    necklaces = [(q, _necklace(rng, q, rng.randint(*m_range), *n_range))
                 for q, m_range, n_range in NECKLACE_SLOTS]
    necklaces.append((4, Q4_M2_NECKLACES[index % len(Q4_M2_NECKLACES)]))
    out = []
    for q, beads in necklaces:
        m = max(beads)
        advantages = {}
        for j in range(1, m + 1):
            r = beads.count(j) % q
            if r:
                advantages[j] = sorted(rng.sample(range(1, q + 1), r))
        inst = {"kind": "necklace", "colors": beads, "q": q,
                "advantages": {str(j): ts for j, ts in advantages.items()}}
        check = lambda a, b=beads, q=q, adv=advantages: checks.check_necklace(b, q, adv, a)
        out.append(Request("split-necklace", inst, [], check))
    return out


# ---------------------------------------------------------------------------
# tucker: tucker-check at n = 6, 7, 8 with m drawn from 1..n
#
# Every eighth round also recounts t and the complementary pairs of one
# of its instances by pure enumeration.

def tucker_round(rng: random.Random, index: int) -> list[Request]:
    recount_n = rng.choice((6, 7, 8)) if index % 8 == 0 else None
    out = []
    for n in (6, 7, 8):
        colors = _coloring(rng, n, rng.randint(1, n))
        if n == recount_n:
            check = lambda a, c=colors: checks.check_tucker(c, a) + _recount(c, a)
        else:
            check = lambda a, c=colors: checks.check_tucker(c, a)
        out.append(Request("tucker-check", {"kind": "path", "colors": colors}, [], check))
    return out


def _recount(colors: list[int], answer: dict[str, Any]) -> list[str]:
    t, labels = checks.path_labeling(colors)
    pairs = checks.complementary_pairs(labels)
    out = []
    if t != answer["t"]:
        out.append(f"tucker recount: t={t}, reported {answer['t']}")
    if pairs != answer["complementary_pairs"]:
        out.append(f"tucker recount: {pairs} complementary pairs, reported "
                   f"{answer['complementary_pairs']}")
    return out


# ---------------------------------------------------------------------------
# scan: conjecture-scan blocks at q = 3 and 5, plus split-stable spot checks
#
# Each round runs one exhaustive block and one sampled block at the same
# q, then SCAN_SPOT_CHECKS split-stable requests on seeded colorings
# drawn from the exhaustive block's range (n <= max-n vertices, every one
# of m <= max-m colors used q-1 times or more), so each spot-checked path
# is one the block scanned; their answers are checked with the q-stable
# checker.  The exhaustive blocks take their ranges in turn, so every run
# holds the same mix of them.  Spot checks cost less than any block; with
# two of them per round the median latency fell in the gap between the
# two cost levels and spread by 9% between runs, so there are three.

SCAN_EXHAUSTIVE = {3: ((6, 2), (7, 2), (5, 3), (6, 3)), 5: ((8, 2), (9, 2))}
SCAN_SAMPLED = {3: (12, 3), 5: (12, 2)}
SCAN_SAMPLES = 100
SCAN_SPOT_CHECKS = 3


def scan_round(rng: random.Random, index: int) -> list[Request]:
    q = (3, 5)[index % 2]
    blocks = SCAN_EXHAUSTIVE[q]
    max_n, max_m = blocks[index // 2 % len(blocks)]
    out = [Request(
        "conjecture-scan", None,
        ["--q", str(q), "--max-n", str(max_n), "--max-m", str(max_m),
         "--budget", str(SCAN_BUDGET)],
        lambda a, q=q, n=max_n, m=max_m: checks.check_scan(q, n, m, None, a),
        lambda a: a["scanned"],
    )]
    spots = []
    for _ in range(SCAN_SPOT_CHECKS):
        m = rng.randint(1, min(max_m, max_n // (q - 1)))
        colors = _coloring(rng, rng.randint((q - 1) * m, max_n), m, q - 1)
        spots.append(Request(
            "split-stable", {"kind": "path", "colors": colors},
            ["--q", str(q), "--budget", str(SCAN_BUDGET)],
            lambda a, c=colors, q=q: checks.check_stable_split(c, q, a),
        ))
    max_n, max_m = SCAN_SAMPLED[q]
    out.append(Request(
        "conjecture-scan", None,
        ["--q", str(q), "--max-n", str(max_n), "--max-m", str(max_m),
         "--samples", str(SCAN_SAMPLES), "--seed", str(rng.randrange(2**31)),
         "--budget", str(SCAN_BUDGET)],
        lambda a, q=q, n=max_n, m=max_m: checks.check_scan(q, n, m, SCAN_SAMPLES, a),
        lambda a: a["scanned"],
    ))
    return out + spots


WORKLOADS: dict[str, Callable[[random.Random, int], list[Request]]] = {
    "paths": paths_round,
    "necklace": necklace_round,
    "tucker": tucker_round,
    "scan": scan_round,
}

# Rounds run before timing starts, so that tables the program caches per
# size (cut cells, sign-vector tables) are built during set-up.
WARMUP_ROUNDS = {"paths": 2, "necklace": 4, "tucker": 1, "scan": 2}

# A fixed amount of work (about 6 s each today): a traced run runs this
# many rounds, so that per-layer totals and counts compare across
# versions, and an untraced run reads its peak memory after this many.
# The program caches tables per distinct necklace without bound, so
# memory read at the end of a timed run would grow with the machine's
# speed.
FIXED_ROUNDS = {"paths": 300, "necklace": 60, "tucker": 250, "scan": 200}


def rounds(workload: str, seed: int):
    """Endless seeded stream of rounds for the workload."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        yield make(rng, index)
        index += 1


def warmup_rounds(workload: str) -> list[list[Request]]:
    """The warm-up rounds, the same for every seed so set-up time is too."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:warm-up")
    return [make(rng, index) for index in range(WARMUP_ROUNDS[workload])]
