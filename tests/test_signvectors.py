"""Sign-vector algebra checked against brute-force oracles.

The oracles below recompute alt, J, and t straight from their
definitions (subsequence enumeration, counting, full vector scans) so
the closed-form implementations are never trusted on their own word.
``saturation_oracle`` is the per-column saturation pass that the
broadcast verdict tables of ``_saturation`` replaced.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from fairsplit.errors import InstanceTooLargeError
from fairsplit.signvectors import (
    T_ENUMERATION_CAP,
    SignVector,
    _negation_table,
    _runs,
    _saturation,
    _zeta_up,
    alt,
    compute_J,
    compute_t,
    enumerate_sign_vectors,
    lambda_map,
    lambda_table,
    precedes,
    tucker_verify,
    vector_code,
    vector_from_code,
)
from helpers import set_partitions


# === definition-level oracles ===

def alt_oracle(entries) -> int:
    """Longest alternating subsequence of the nonzero entries, by enumeration."""
    nonzero = [e for e in entries if e != 0]
    best = 0
    for size in range(len(nonzero), 0, -1):
        for sub in itertools.combinations(nonzero, size):
            if all(a != b for a, b in zip(sub, sub[1:])):
                return size
    return best


def J_oracle(x: SignVector, classes) -> frozenset:
    out = set()
    for j, cls in enumerate(classes, start=1):
        p = sum(1 for i in cls if i in x.plus)
        mn = sum(1 for i in cls if i in x.minus)
        v = len(cls)
        if (2 * p == v and 2 * mn == v) or 2 * max(p, mn) > v:
            out.add(j)
    return frozenset(out)


def t_oracle(classes) -> int:
    n = sum(len(c) for c in classes)
    best = 0
    for entries in itertools.product((1, -1, 0), repeat=n):
        x = SignVector.from_entries(entries)
        if not J_oracle(x, classes):
            best = max(best, alt_oracle(entries))
    return best


def entry_table(n):
    """(n, 3^n) array: row i-1 holds entry i (0, +1 or -1) of every code.

    Read off each code's base-3 digits, a layout of the oracles' own
    rather than the library's code tensor; n = 0 gives no rows.
    """
    digits = np.arange(3**n) // 3 ** np.arange(n)[:, None] % 3
    return np.where(digits == 2, -1, digits).astype(np.int8)


def alt_and_first_sign(n):
    """alt and the first nonzero entry's sign of every code, one column at a time."""
    runs = np.zeros(3**n, dtype=np.int32)
    last = np.zeros(3**n, dtype=np.int8)
    first = np.zeros(3**n, dtype=np.int8)
    for col in entry_table(n):
        nz = col != 0
        runs += nz & (col != last)
        last = np.where(nz, col, last)
        first = np.where(first == 0, col, first)
    return runs, first


def saturation_oracle(classes, n):
    """(j', sign) for all 3^n codes, one vectorized pass per class column.

    Each class accumulates its + and - counts and the sign of its first
    nonzero entry, and a later saturated color overrides an earlier one.
    """
    entries = entry_table(n)
    jprime = np.zeros(3**n, dtype=np.int32)
    sign = np.zeros(3**n, dtype=np.int8)
    for j, cls in enumerate(classes, start=1):
        v = len(cls)
        p = np.zeros(3**n, dtype=np.int8)
        mn = np.zeros(3**n, dtype=np.int8)
        first = np.zeros(3**n, dtype=np.int8)
        for i in sorted(cls):
            col = entries[i - 1]
            p += col > 0
            mn += col < 0
            first = np.where(first == 0, col, first)
        # balanced rows have p = mn = v/2 >= 1, so first is +-1 there
        balanced = (2 * p == v) & (2 * mn == v)
        saturated = balanced | (2 * np.maximum(p, mn) > v)
        np.copyto(jprime, j, where=saturated)
        np.copyto(sign, np.where(balanced, first, np.where(2 * p > v, 1, -1)), where=saturated)
    return jprime, sign


def labels_from_saturation(jprime, sign, n):
    """(labels, t) from the output of ``saturation_oracle``, as ``lambda_table`` gives them."""
    has_j = jprime > 0
    alt_t, first = alt_and_first_sign(n)
    t = int(alt_t[~has_j].max())
    labels = np.where(has_j, sign * (t + jprime), first.astype(np.int32) * alt_t)
    labels[0] = 0
    return labels.astype(np.int32), t


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def precedes_oracle(x: SignVector, y: SignVector) -> bool:
    return x.plus <= y.plus and x.minus <= y.minus


def all_vectors(n):
    return [
        SignVector.from_entries(entries)
        for entries in itertools.product((1, -1, 0), repeat=n)
    ]


# === alt ===

def test_alt_goldens():
    assert alt(SignVector.from_string("000")) == 0
    assert alt(SignVector.from_string("+-+")) == 3
    assert alt(SignVector.from_string("+0+-")) == 2


def test_alt_matches_bruteforce_up_to_n5():
    for n in range(1, 6):
        for x in all_vectors(n):
            assert alt(x) == alt_oracle(x.entries), str(x)


def test_alt_bounded_by_support_with_equality_iff_alternating():
    for x in all_vectors(4):
        nonzero = [e for e in x.entries if e]
        assert alt(x) <= len(nonzero)
        strictly_alternating = all(a != b for a, b in zip(nonzero, nonzero[1:]))
        assert (alt(x) == len(nonzero)) == strictly_alternating


def test_runs_match_scalar_alt_and_first_sign_up_to_n6():
    for n in range(7):
        runs, signed = _runs(n)
        assert runs.dtype == np.int16 and signed.dtype == np.int32
        assert runs.shape == signed.shape == (3**n,)
        for code in range(3**n):
            x = vector_from_code(code, n)
            assert runs[code] == alt(x), str(x)
            assert signed[code] == x.first_sign() * alt(x), str(x)


def test_negation_table_negates_every_code_up_to_n6():
    for n in range(7):
        neg = _negation_table(n)
        assert neg.dtype == np.int64 and neg.shape == (3**n,)
        for code in range(3**n):
            assert neg[code] == vector_code(-vector_from_code(code, n)), (n, code)


# === precedes ===

def test_precedes_goldens():
    zero = SignVector.from_string("00")
    assert precedes(zero, SignVector.from_string("+-"))
    assert not precedes(SignVector.from_string("+0"), SignVector.from_string("-+"))
    x = SignVector.from_string("+-0")
    assert precedes(x, x)


def test_precedes_matches_subset_definition():
    vecs = all_vectors(3)
    for x in vecs:
        for y in vecs:
            assert precedes(x, y) == precedes_oracle(x, y)


def test_precedes_is_a_partial_order():
    vecs = all_vectors(3)
    for x in vecs:
        for y in vecs:
            if precedes(x, y) and precedes(y, x):
                assert x == y
            for z in vecs:
                if precedes(x, y) and precedes(y, z):
                    assert precedes(x, z)


def test_precedes_monotone_in_alt():
    vecs = all_vectors(4)
    for x in vecs:
        for y in vecs:
            if precedes(x, y):
                assert alt(x) <= alt(y)


def test_precedes_rejects_length_mismatch():
    with pytest.raises(ValueError):
        precedes(SignVector.from_string("+"), SignVector.from_string("+-"))


# === J ===

def test_compute_J_goldens():
    part = ((1, 2), (3, 4))
    assert compute_J(SignVector.from_string("+-00"), part) == frozenset({1})
    assert compute_J(SignVector.from_string("0000"), part) == frozenset()
    assert compute_J(SignVector.from_string("++00"), part) == frozenset({1})


def test_compute_J_matches_oracle_and_negation_invariant():
    for classes in set_partitions(4):
        for x in all_vectors(4):
            J = compute_J(x, classes)
            assert J == J_oracle(x, classes)
            assert compute_J(-x, classes) == J


def test_J_empty_is_downward_closed():
    # x precedes y and J(y) empty forces J(x) empty
    for classes in set_partitions(4):
        vecs = all_vectors(4)
        empty = {x: not compute_J(x, classes) for x in vecs}
        for x in vecs:
            for y in vecs:
                if precedes(x, y) and empty[y]:
                    assert empty[x]


# === t ===

def test_compute_t_goldens():
    assert compute_t(((1,),)) == 0
    assert compute_t(((1, 2),)) == 1
    assert compute_t(((1, 2), (3, 4))) == 2


def test_compute_t_matches_oracle():
    for n in range(1, 5):
        for classes in set_partitions(n):
            assert compute_t(classes) == t_oracle(classes), classes


def test_compute_t_rejects_oversize():
    with pytest.raises(InstanceTooLargeError):
        compute_t(tuple((i,) for i in range(1, 14)))


# === lambda ===

def test_lambda_goldens():
    part = ((1, 2), (3, 4))
    t = compute_t(part)
    assert t == 2
    assert lambda_map(SignVector.from_string("+-00"), part, t) == 3
    assert lambda_map(SignVector.from_string("-000"), part, t) == -1


def test_lambda_rejects_zero_vector():
    with pytest.raises(ValueError):
        lambda_map(SignVector.from_string("000"), ((1, 2, 3),), 1)


def test_lambda_antipodal_and_table_agreement():
    parts = [p for n in range(1, 5) for p in set_partitions(n)]
    parts += [((1, 2, 3), (4, 5)), ((1, 3, 5), (2, 4))]
    for classes in parts:
        n = sum(len(c) for c in classes)
        labels, t = lambda_table(classes)
        assert t == compute_t(classes)
        for x in enumerate_sign_vectors(n):
            lam = lambda_map(x, classes, t)
            assert lambda_map(-x, classes, t) == -lam
            assert labels[vector_code(x)] == lam


def test_lambda_labels_within_t_plus_m():
    for classes in set_partitions(4):
        m = len(classes)
        labels, t = lambda_table(classes)
        body = labels[1:]
        assert (body != 0).all()
        assert (np.abs(body) <= t + m).all()


# === broadcast saturation against the per-column oracle ===

def assert_matches_saturation_oracle(classes, n):
    want_j, want_sign = saturation_oracle(classes, n)
    got_j, got_sign = _saturation(classes, n)
    assert_same_array(got_j, want_j)
    assert_same_array(got_sign, want_sign)
    want_labels, want_t = labels_from_saturation(want_j, want_sign, n)
    labels, t = lambda_table(classes)
    assert_same_array(labels, want_labels)
    assert t == want_t == compute_t(classes)
    return labels


def test_saturation_matches_oracle_on_every_partition_up_to_n8():
    count = 0
    for n in range(1, 9):
        for classes in set_partitions(n):
            assert_matches_saturation_oracle(classes, n)
            count += 1
    assert count == 5295


@pytest.mark.parametrize(
    "classes",
    [
        tuple(tuple(range(c, 13, 3)) for c in (1, 2, 3)),  # colors [1,2,3]*4
        (tuple(range(1, 13)),),
        tuple((i,) for i in range(1, 13)),
    ],
    ids=["three-colors", "one-class", "singletons"],
)
def test_saturation_matches_oracle_at_n12(classes):
    assert_matches_saturation_oracle(classes, 12)


def test_saturation_of_empty_partition():
    labels = assert_matches_saturation_oracle((), 0)
    assert labels.tolist() == [0]


ORDER_VARIANTS = [((1, 3), (2,)), ((3, 1), (2,)), ({1, 3}, [2]), ((2,), (1, 3)), ((2,), [3, 1])]
ORDER_VARIANTS_4 = [((1, 3), (2, 4)), ({2, 4}, [3, 1]), ([4, 2], (1, 3)), ((3, 1), {4, 2})]


@pytest.mark.parametrize("classes", ORDER_VARIANTS + ORDER_VARIANTS_4, ids=str)
def test_labels_ignore_vertex_order_inside_a_class(classes):
    n = sum(len(c) for c in classes)
    labels = assert_matches_saturation_oracle(classes, n)
    sorted_labels, _ = lambda_table(tuple(tuple(sorted(c)) for c in classes))
    assert np.array_equal(labels, sorted_labels)
    t = compute_t(classes)
    for x in enumerate_sign_vectors(n):
        assert labels[vector_code(x)] == lambda_map(x, classes, t), (classes, str(x))


def test_class_order_decides_the_color_index():
    # j' = max J(x) follows the class order, so swapping classes moves labels
    a, _ = lambda_table(((1, 3), (2,)))
    b, _ = lambda_table(((2,), (1, 3)))
    assert not np.array_equal(a, b)


def test_labels_ignore_vertex_order_on_seeded_partitions():
    rng = np.random.default_rng(10)
    for n in (5, 7, 9):
        for _ in range(10):
            rgs = rng.integers(0, rng.integers(1, n + 1), size=n)
            classes = [
                [i + 1 for i in range(n) if rgs[i] == c] for c in np.unique(rgs)
            ]
            shuffled = [list(rng.permutation(c)) for c in classes]
            labels = assert_matches_saturation_oracle(shuffled, n)
            assert np.array_equal(labels, lambda_table(classes)[0])


# === tucker_verify ===

def complementary_pairs_oracle(labeling, n) -> int:
    vecs = [x for x in all_vectors(n) if not x.is_zero]
    return sum(
        1
        for x in vecs
        for y in vecs
        if precedes(x, y) and labeling[x] + labeling[y] == 0
    )


def pair_scan_oracle(labels, n) -> set:
    """Codes (x, y) of every complementary pair x precedes y, both nonzero.

    Scans all 5^n comparable pairs: per coordinate the pair of digits is
    one of (0,0), (0,+), (+,+), (0,-), (-,-), so the base-5 codes
    enumerate exactly the comparable pairs.
    """
    cases_x = np.array([0, 0, 1, 0, 2], dtype=np.int64)
    cases_y = np.array([0, 1, 1, 2, 2], dtype=np.int64)
    codes5 = np.arange(5**n, dtype=np.int64)
    x = np.zeros(5**n, dtype=np.int64)
    y = np.zeros(5**n, dtype=np.int64)
    for i in range(n):
        d = (codes5 // 5**i) % 5
        x += cases_x[d] * 3**i
        y += cases_y[d] * 3**i
    comp = (x != 0) & (y != 0) & (labels[x] + labels[y] == 0)
    return set(zip(x[comp].tolist(), y[comp].tolist()))


def negation_codes(n) -> np.ndarray:
    return np.array([vector_code(-vector_from_code(c, n)) for c in range(3**n)])


def assert_matches_pair_scan(labels, n, s):
    rep = tucker_verify(labels, n, s)
    pairs = pair_scan_oracle(labels, n)
    assert rep.complementary_pairs == len(pairs)
    if pairs:
        x, y = rep.complementary_pair
        assert precedes(x, y)
        assert labels[vector_code(x)] + labels[vector_code(y)] == 0
        assert (vector_code(x), vector_code(y)) in pairs
    else:
        assert rep.complementary_pair is None
    assert rep.ok == (rep.antipodal and not pairs)
    return rep


def random_labeling(rng, n, s, antipodal):
    """Seeded labeling with one planted complementary pair x < y."""
    labels = rng.integers(1, s + 1, size=3**n) * rng.choice([-1, 1], size=3**n)
    neg = negation_codes(n)
    y = vector_from_code(int(rng.integers(1, 3**n)), n)
    while len(y.support) < 2:
        y = vector_from_code(int(rng.integers(1, 3**n)), n)
    i = min(y.support)
    x, y = vector_code(SignVector(n, y.plus - {i}, y.minus - {i})), vector_code(y)
    labels[x] = -labels[y]
    if antipodal:
        # keep the planted pair: each {z, -z} takes the label of one of them
        keep = np.minimum(np.arange(3**n), neg)
        keep[[x, neg[x], y, neg[y]]] = [x, x, y, y]
        labels = np.where(keep == np.arange(3**n), labels, -labels[keep])
    labels[0] = 0
    return labels


def test_tucker_matches_pair_scan_on_path_labelings():
    for n in range(1, 7):
        for classes in set_partitions(n):
            labels, t = lambda_table(classes)
            rep = assert_matches_pair_scan(labels, n, t + len(classes))
            assert rep.ok and rep.antipodal


@pytest.mark.parametrize("n, trials", [(2, 20), (3, 20), (4, 20), (5, 10), (6, 10), (7, 3), (8, 2)])
def test_tucker_matches_pair_scan_on_random_labelings(n, trials):
    rng = np.random.default_rng(n)
    for trial in range(trials):
        # magnitudes past 32 need more than one 64-bit mask round
        s = [1, 2, n, 2 * n, 40, 100][trial % 6]
        labels = random_labeling(rng, n, s, antipodal=trial % 2 == 0)
        rep = assert_matches_pair_scan(labels, n, s)
        assert rep.complementary_pairs > 0 and not rep.ok
        if trial % 2 == 0:
            assert rep.antipodal


def test_tucker_reports_first_antipodality_violation():
    for classes in (((1, 2, 3), (4, 5)), ((1, 3, 5), (2, 4, 6))):
        n = sum(len(c) for c in classes)
        labels, t = lambda_table(classes)
        code = vector_code(SignVector.from_string("0+-" + "0" * (n - 3)))
        labels = labels.copy()
        labels[code] = -labels[code]
        rep = assert_matches_pair_scan(labels, n, t + len(classes))
        assert not rep.antipodal and not rep.ok
        # the lower code of the broken pair {x, -x} is reported
        neg = vector_code(-vector_from_code(code, n))
        assert rep.antipodal_violation == vector_from_code(min(code, neg), n)


def first_sign_pairs(n) -> int:
    """Complementary pairs of the first-sign labeling, in closed form.

    A pair x < y has y's first nonzero entry at f, x's at some j > f
    where y holds the opposite sign; entries between are free, and each
    later coordinate is 0 in y or nonzero in y and either 0 or equal in x.
    """
    return sum(
        2 * 3 ** (j - f - 1) * 5 ** (n - j)
        for f in range(1, n + 1)
        for j in range(f + 1, n + 1)
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 12])
def test_tucker_first_sign_labeling_count_and_witness(n):
    # every label is +-1, so at n=12 there are tens of millions of pairs
    codes = np.arange(3**n)
    labels = np.zeros(3**n, dtype=np.int64)
    for i in reversed(range(n)):
        digit = codes // 3**i % 3
        labels = np.where(digit == 1, 1, np.where(digit == 2, -1, labels))
    start = time.perf_counter()
    rep = tucker_verify(labels, n, 1)
    assert time.perf_counter() - start < 1.0
    assert rep.antipodal and not rep.ok
    assert rep.complementary_pairs == first_sign_pairs(n)
    if n <= 6:
        assert rep.complementary_pairs == len(pair_scan_oracle(labels, n))
    x, y = rep.complementary_pair
    assert precedes(x, y) and x.first_sign() == -y.first_sign()


def test_tucker_single_coordinate_ok():
    labels = np.zeros(3, dtype=np.int64)
    labels[vector_code(SignVector.from_string("+"))] = 1
    labels[vector_code(SignVector.from_string("-"))] = -1
    rep = tucker_verify(labels, n=1, s=1)
    assert rep.ok and rep.antipodal
    assert rep.complementary_pairs == 0
    assert not rep.lemma_contradiction


def test_tucker_finds_complementary_pair_in_first_sign_labeling():
    # n=2 with s=1 must fail: the lemma needs s >= n
    labeling = {x: x.first_sign() for x in all_vectors(2) if not x.is_zero}
    labels = np.zeros(9, dtype=np.int64)
    for x, label in labeling.items():
        labels[vector_code(x)] = label
    rep = tucker_verify(labels, n=2, s=1)
    assert rep.antipodal
    assert not rep.ok
    assert rep.complementary_pairs == complementary_pairs_oracle(labeling, 2) > 0
    x, y = rep.complementary_pair
    assert precedes(x, y) and labeling[x] + labeling[y] == 0
    assert not rep.lemma_contradiction


def test_tucker_detects_antipodality_violation():
    rep = tucker_verify(np.array([0, 1, 1]), n=1, s=1)
    assert not rep.antipodal
    assert rep.antipodal_violation is not None
    assert not rep.ok


def test_tucker_path_labeling_ok_small():
    for n in range(1, 6):
        for classes in set_partitions(n):
            labels, t = lambda_table(classes)
            s = t + len(classes)
            rep = tucker_verify(labels, n, s)
            assert rep.ok, (classes, rep)
            assert s >= n
            assert not rep.lemma_contradiction


def test_tucker_rejects_bad_labelings():
    with pytest.raises(ValueError, match="shape"):
        tucker_verify({SignVector.from_string("+"): 1}, n=1, s=1)  # not an array
    with pytest.raises(ValueError, match="shape"):
        tucker_verify(np.array([0, 1]), n=1, s=1)
    with pytest.raises(ValueError, match="zero"):
        tucker_verify(np.array([0, 0, 0]), n=1, s=1)
    with pytest.raises(ValueError, match="exceeds"):
        tucker_verify(np.array([0, 5, -5]), n=1, s=1)


@pytest.mark.parametrize("labels, s, message", [
    # 1.7 would truncate to 1 and pass
    pytest.param(np.array([0, 1.7, -1.7]), 1, "integers", id="float-1.7"),
    # 2^64 - 1 would wrap to -1 and pass
    pytest.param(np.array([0, 1, 2**64 - 1], dtype=np.uint64), 1, "exceeds", id="uint64-max"),
    # np.abs(-2^63) overflows to -2^63, below any s
    pytest.param(np.array([0, 1, -(2**63)], dtype=np.int64), 1, "exceeds", id="int64-min"),
    # 1e30 would cast to -2^63
    pytest.param(np.array([0, 1e30, -1e30]), 1, "integers", id="float-1e30"),
    pytest.param(np.array([False, True, True]), 1, "integers", id="bool"),
    pytest.param(np.array([0, 1, -1], dtype=object), 1, "integers", id="object"),
    # s allows it, but twice such a label leaves int64
    pytest.param(np.array([0, 1, -(2**63)], dtype=np.int64), 2**64, "2\\^62", id="int64-min-large-s"),
])
def test_tucker_rejects_labels_that_would_wrap_or_truncate(labels, s, message):
    with pytest.raises(ValueError, match=message):
        tucker_verify(labels, n=1, s=s)


def zeta_reference(table, n, ufunc):
    """One pass per digit over explicit codes: each code with digit i = 0
    is folded into the codes with digit i = + and digit i = -."""
    out = table.copy()
    codes = np.arange(3**n)
    for i in range(n):
        base = codes[codes // 3**i % 3 == 0]
        for digit in (1, 2):
            above = base + digit * 3**i
            out[above] = ufunc(out[above], out[base])
    return out


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("ufunc, dtype", [
    (np.bitwise_or, np.uint8), (np.bitwise_or, np.uint16),
    (np.bitwise_or, np.uint64), (np.add, np.int64),
])
def test_zeta_up_matches_per_digit_reference(n, ufunc, dtype):
    # n < 3 has fewer than three low digits to transpose; n = 3 has no rest
    rng = np.random.default_rng(n)
    if ufunc is np.add:
        table = rng.integers(0, 4, size=3**n).astype(dtype)
    else:
        table = (np.uint64(1) << rng.integers(0, 8 * np.dtype(dtype).itemsize,
                                             size=3**n).astype(np.uint64)).astype(dtype)
    expected = zeta_reference(table, n, ufunc)
    assert np.array_equal(_zeta_up(table.copy(), n, ufunc), expected)
    if n <= 4:
        # the definition: the reduction over every face, y itself included
        vecs = list(all_vectors(n))
        for y in vecs:
            faces = [table[vector_code(x)] for x in vecs if precedes(x, y)]
            assert expected[vector_code(y)] == ufunc.reduce(np.array(faces, dtype=dtype))


@pytest.mark.parametrize("s", [4, 8, 9, 16, 17, 32, 33])
def test_tucker_matches_pair_scan_on_mask_width_edges(s):
    # the largest magnitude sets the mask width: 2s bits fill uint8/16/32/64
    # at s = 4, 8, 16, 32 and spill into the next width (or window) past them
    rng = np.random.default_rng(s)
    for antipodal in (True, False):
        labels = random_labeling(rng, 5, s, antipodal)
        assert np.abs(labels).max() == s
        rep = assert_matches_pair_scan(labels, 5, s)
        assert rep.antipodal == antipodal and not rep.ok


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint8])
def test_tucker_on_narrow_integer_dtypes(dtype):
    classes = ((1, 2, 3), (4, 5))
    labels, t = lambda_table(classes)
    s = t + len(classes)
    first_sign = np.sign(labels)
    signed = np.issubdtype(dtype, np.signedinteger)
    for case in (labels, first_sign):
        if not signed:
            # every label positive: not antipodal, and no pair sums to zero
            case = np.abs(case)
        rep = tucker_verify(case.astype(dtype), 5, s)
        assert rep == tucker_verify(case.astype(np.int64), 5, s)
        assert rep.antipodal == signed
        assert rep.complementary_pairs == len(pair_scan_oracle(case.astype(np.int64), 5))
    if signed:
        # magnitudes up to the dtype's own maximum
        top = int(np.iinfo(dtype).max)
        rep = tucker_verify((labels * (top // s)).astype(dtype), 5, top)
        assert rep.ok and rep.antipodal


def test_tucker_sparse_huge_labels_take_no_table_sized_by_s():
    # labels +-1 and +-10^9 only: one window for each, none for the gap
    n = 8
    labels, t = lambda_table(((1, 2, 3), (4, 5), (6, 7, 8)))
    small = np.where(np.abs(labels) > 1, 2 * np.sign(labels), labels)
    huge = np.where(np.abs(labels) > 1, 10**9 * np.sign(labels), labels)
    start = time.perf_counter()
    rep = tucker_verify(huge, n, 10**9)
    assert time.perf_counter() - start < 1.0
    # relabeling 2 -> 10^9 keeps every sum's sign, so the reports agree
    assert replace(rep, s=2) == tucker_verify(small, n, 2)
    assert rep.antipodal and rep.complementary_pairs > 0


def test_tucker_rejects_oversize():
    with pytest.raises(InstanceTooLargeError):
        tucker_verify({}, n=T_ENUMERATION_CAP + 1, s=T_ENUMERATION_CAP + 1)
