"""Acceptance gate: ten criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
Each criterion sweeps its stated range exhaustively (plus seeded random
instances where called for) at zero tolerance: any violation is
collected and fails the criterion with the offending instance named.
"""

import itertools
import random
import time

from fairsplit.necklace import (
    Necklace,
    search_continuous,
    search_discrete,
    verify_discrete,
)
from fairsplit.paths import (
    ColoredPath,
    compose_splits,
    enumerate_qstable_splits,
    solve_cycle_split,
    solve_pair_split,
    solve_qstable_power2,
    verify_cycle_split,
    verify_pair_split,
    verify_qstable_split,
)
from fairsplit.rounding import (
    build_flow_graph,
    cancel_cycles,
    demonstrate_r2_failure,
    split_with_advantages,
)
from helpers import (
    BipartiteGraph,
    canonical_colorings,
    find_b_factor,
    flow_equalities_oracle,
    iter_colorings,
    union_find_is_forest,
    verify_b_factor,
)


def _verdict(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:2d}: {status}  {desc}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def _random_paths(seed, count, max_n):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        cap = rng.randint(1, n)
        relabel = {}
        out.append(
            ColoredPath(
                tuple(
                    relabel.setdefault(rng.randint(1, cap), len(relabel) + 1)
                    for _ in range(n)
                )
            )
        )
    return out


def _advantage_specs(neck):
    live = [j for j, rj in enumerate(neck.r, start=1) if rj != 0]
    pools = [
        list(itertools.combinations(range(1, neck.q + 1), neck.r[j - 1]))
        for j in live
    ]
    for choice in itertools.product(*pools):
        yield {j: list(ts) for j, ts in zip(live, choice)}


_continuous_cache = {}


def _continuous_for(colors, q):
    key = (colors, q)
    if key not in _continuous_cache:
        _continuous_cache[key] = search_continuous(Necklace(colors, q))
    return _continuous_cache[key]


def test_criterion_01_pair_split_sweep():
    start = time.perf_counter()
    failures = []
    paths = [
        ColoredPath(colors)
        for n in range(1, 10)
        for colors in canonical_colorings(n, 3)
    ]
    paths += _random_paths(seed=20260818, count=1000, max_n=30)
    for path in paths:
        split = solve_pair_split(path)
        bad = verify_pair_split(path, split)
        for j, cls in enumerate(path.classes, start=1):
            for side in (split.s1, split.s2):
                if 2 * sum(1 for v in cls if v in side) > len(cls):
                    bad.append(f"upper bound color {j}")
        if bad:
            failures.append((path.colors, bad))
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"pair split sweep took {elapsed:.0f}s"
    _verdict(
        1,
        "pair splits verified on every partition (n<=9, m<=3) "
        "plus 1000 random paths (n<=30), per-color bound included",
        failures,
    )


def test_criterion_02_labeling_passes_tucker_check():
    from fairsplit.signvectors import lambda_table, tucker_verify

    start = time.perf_counter()
    failures = []
    count = 0
    for n in range(1, 9):
        for colors in canonical_colorings(n, n):
            path = ColoredPath(colors)
            labels, t = lambda_table(path.classes)
            rep = tucker_verify(labels, n, t + path.m)
            if not rep.ok or t + path.m < n:
                failures.append((colors, rep))
            count += 1
    assert count == 5295
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"labeling sweep took {elapsed:.0f}s"
    _verdict(
        2,
        "path labeling is antipodal with no complementary comparable "
        "pair on all 5295 partitions (n<=8), and t+m >= n",
        failures,
    )


def test_criterion_03_cycle_sweep():
    failures = []
    for n in range(3, 10):
        for colors in canonical_colorings(n, 3):
            path = ColoredPath(colors)
            cand = solve_cycle_split(path)
            bad = verify_cycle_split(path, cand)
            k = path.n - path.m
            bound = -(-k // 2) - k // 2
            small = [
                s
                for i, s in enumerate((cand.split.s1, cand.split.s2))
                if cand.induced_edges[i] == 0 and len(s) == k // 2
            ]
            if not small:
                bad.append("no cycle-independent set of the promised size")
            if max(cand.induced_edges) > bound:
                bad.append("edge bound")
            if bad:
                failures.append((colors, bad))
    _verdict(
        3,
        "cycle splits: one side cycle-independent of size floor((n-m)/2), "
        "the other within ceil((n-m)/2) - floor((n-m)/2) cycle edges",
        failures,
    )


def test_criterion_04_floor_ceil_identities():
    failures = []
    cases = 0
    for a in range(-100, 101):
        for b in range(1, 13):
            for c in range(1, 13):
                # floor(floor(a/b)/c) = floor(a/(bc)) and the ceiling twin,
                # with // flooring toward minus infinity and ceil(p/r) = -(-p // r)
                floor_ok = (a // b) // c == a // (b * c)
                ceil_ok = -((-a // b) // c) == -(-a // (b * c))
                if not (floor_ok and ceil_ok):
                    failures.append((a, b, c))
                cases += 1
    assert cases == 201 * 144
    _verdict(
        4,
        "nested floor and ceiling division identities hold exactly "
        "for a in [-100,100], b,c in [1,12]",
        failures,
    )


def test_criterion_05_composed_q4_splits():
    failures = []
    for n in range(1, 13):
        for colors in canonical_colorings(n, 2):
            path = ColoredPath(colors)
            if any(len(cls) < 3 for cls in path.classes):
                continue
            split = compose_splits(path, 2, 2, solve_qstable_power2)
            bad = verify_qstable_split(path, 4, split, enforce_upper=True)
            if bad:
                failures.append((colors, bad))
    _verdict(
        5,
        "composed q=4 stable splits pass verification with the upper "
        "bound on every partition n<=12, m<=2, |V_j| >= 3",
        failures,
    )


def test_criterion_06_q3_seven_vertex_counterexample():
    failures = []
    path = ColoredPath((1,) * 7)
    # a min class of 2 would need 3*2 = 6 survivors, but only 7-2 = 5 remain
    assert -(-(7 - 3) // 3) == 2
    assert 7 - 2 == 5 and 5 < 6
    best = -1
    for split in enumerate_qstable_splits(path, 3):
        low = min(len(cls) for cls in split.classes)
        if low >= 2:
            failures.append(("min 2 reached", split))
        best = max(best, low)
    if best != (7 + 1) // 3 - 1:
        failures.append(("best min", best))
    _verdict(
        6,
        "q=3, one color, 7 vertices: no split reaches min class size 2, "
        "while the floor((v+1)/q)-1 = 1 bound is achieved",
        failures,
    )


def test_criterion_07_advantage_pipeline_sweep():
    start = time.perf_counter()
    failures = []
    for n in range(1, 10):
        for path in iter_colorings(n, 2):
            for q in (2, 3):
                neck = Necklace(path.colors, q)
                if any(rj not in (0, 1, q - 1) for rj in neck.r):
                    continue
                bound = (q - 1) * neck.m
                cont = _continuous_for(path.colors, q)
                for spec in _advantage_specs(neck):
                    split = split_with_advantages(neck, spec, continuous=cont)
                    bad = verify_discrete(neck, spec, split)
                    if split.cuts > bound:
                        bad.append("cut bound")
                    if search_discrete(neck, spec, max_cuts=bound) is None:
                        bad.append("search found nothing")
                    if bad:
                        failures.append((path.colors, q, spec, bad))
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"pipeline sweep took {elapsed:.0f}s"
    _verdict(
        7,
        "advantage rounding verifies and the discrete search confirms "
        "existence on all necklaces n<=9, m<=2, q in {2,3}",
        failures,
    )


def test_criterion_08_flow_invariants():
    failures = []
    for n in range(1, 10):
        for path in iter_colorings(n, 2):
            for q in (2, 3):
                neck = Necklace(path.colors, q)
                cont = _continuous_for(path.colors, q)
                cancelled = cancel_cycles(cont, neck)
                for j in range(1, neck.m + 1):
                    if not flow_equalities_oracle(build_flow_graph(cont, neck, j)):
                        failures.append((path.colors, q, j, "pre"))
                    g = build_flow_graph(cancelled, neck, j)
                    if not flow_equalities_oracle(g):
                        failures.append((path.colors, q, j, "post"))
                    if not union_find_is_forest(g.edges):
                        failures.append((path.colors, q, j, "cycle"))
    _verdict(
        8,
        "flow equalities hold exactly before and after cycle "
        "cancellation, and every sharing graph ends up a forest",
        failures,
    )


def _b_factor_backtrack(nl, nr, edges, b_left, b_right):
    """Pruned backtracking over each left vertex's edge choices."""
    if sum(b_left.values()) != sum(b_right.values()):
        return False
    adj = {l: sorted(r for ll, r in edges if ll == l) for l in range(1, nl + 1)}
    suffix = [{r: 0 for r in range(1, nr + 1)} for _ in range(nl + 2)]
    for i in range(nl, 0, -1):
        for r in range(1, nr + 1):
            suffix[i][r] = suffix[i + 1][r] + (1 if r in adj[i] else 0)
    rem = dict(b_right)

    def rec(i):
        if i > nl:
            return all(v == 0 for v in rem.values())
        if any(rem[r] > suffix[i][r] for r in range(1, nr + 1)):
            return False
        open_edges = [r for r in adj[i] if rem[r] > 0]
        if b_left[i] > len(open_edges):
            return False
        for combo in itertools.combinations(open_edges, b_left[i]):
            for r in combo:
                rem[r] -= 1
            hit = rec(i + 1)
            for r in combo:
                rem[r] += 1
            if hit:
                return True
        return False

    return rec(1)


def test_criterion_09_b_factor_vs_enumeration():
    rng = random.Random(424242)
    failures = []
    for case in range(500):
        nl = rng.randint(1, 6)
        nr = rng.randint(1, min(6, 12 - nl))
        edges = [
            (l, r)
            for l in range(1, nl + 1)
            for r in range(1, nr + 1)
            if rng.random() < 0.5
        ]
        b_left = {l: rng.randint(0, 2) for l in range(1, nl + 1)}
        b_right = {r: rng.randint(0, 2) for r in range(1, nr + 1)}
        graph = BipartiteGraph(
            left=tuple(range(1, nl + 1)), right=tuple(range(1, nr + 1)), edges=edges
        )
        result = find_b_factor(graph, b_left, b_right)
        expected = _b_factor_backtrack(nl, nr, edges, b_left, b_right)
        if (result.factor is not None) != expected:
            failures.append((case, "existence", expected))
            continue
        if result.factor is not None:
            for l in range(1, nl + 1):
                if sum(1 for e in result.factor if e[0] == l) != b_left[l]:
                    failures.append((case, "left degree", l))
            for r in range(1, nr + 1):
                if sum(1 for e in result.factor if e[1] == r) != b_right[r]:
                    failures.append((case, "right degree", r))
            if not verify_b_factor(graph, b_left, b_right, result.factor):
                failures.append((case, "verifier"))
    _verdict(
        9,
        "degree-prescribed subgraph search agrees with backtracking "
        "enumeration on 500 seeded random graphs (<=12 vertices)",
        failures,
    )


def test_criterion_10_r2_impossibility():
    failures = []
    report = demonstrate_r2_failure()
    if len(report.outcomes) != 4:
        failures.append(("outcome count", len(report.outcomes)))
    if report.target != frozenset({1, 2}):
        failures.append(("target", report.target))
    if report.target_reachable or any(adv == report.target for _, adv in report.outcomes):
        failures.append("target pair reachable")
    if not all(len(adv) == 2 for _, adv in report.outcomes):
        failures.append("an outcome does not advantage exactly two thieves")
    _verdict(
        10,
        "q=4 with a remainder-2 color: exactly 4 reachable whole-bead "
        "outcomes and the designated pair is not among them",
        failures,
    )
