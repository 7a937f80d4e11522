"""Sign vectors over {+, -, 0} and the octahedral Tucker machinery.

A sign vector encodes a partial two-coloring of the vertices 1..n of a
path: ``+`` and ``-`` are the two sides, ``0`` marks a vertex left out.
x precedes y (x is a face of y) when y agrees with x wherever x is
nonzero.  The labeling that certifies fair path splittings is built
from two quantities of a vector x:

* alt(x), the length of the longest alternating subsequence of the
  nonzero entries (the number of maximal runs once the zeros are
  deleted);
* J(x), the colors x saturates: color j is in J(x) when x splits V_j
  exactly in half (both sides holding |V_j|/2) or when one side holds
  more than half of V_j.

With t = max alt(x) over the x with J(x) empty, a nonzero x with J(x)
nonempty gets the label +-(t + j') for j' = max J(x), signed inside
V_j': by the side holding more than half, or, when V_j' is split
exactly in half, by the side holding its smallest index.  Otherwise
x gets +-alt(x), signed by its first nonzero entry.  The labeling is
antipodal, and the octahedral Tucker lemma says any antipodal labeling
free of complementary comparable pairs needs at least n label
magnitudes, so t + m >= n for a path of n vertices and m colors.

* ``lambda_table`` -- the labels of all 3^n vectors and t, in
  O(m 3^n) for m classes: alt and the first sign come from one cached
  pass over the vertices, and J(x) from one cached verdict table per
  class size, broadcast over the code tensor;
* ``tucker_verify`` -- exhaustive verifier for antipodality and the
  absence of complementary comparable pairs, by zeta transforms over
  the face poset of {+,-,0}^n in O(n 3^n) rather than a scan of all
  5^n comparable pairs.  Each label is one bit of a mask in the
  narrowest unsigned dtype that holds the labels' bits (uint16 for the
  path labeling up to n = 8), and the transform folds one digit per
  broadcast call, with the three low digits transposed to the top so
  that every call runs over long inner runs.

``SignVector`` stores a vector as the two index sets (x+, x-), and
``vector_code`` and ``vector_from_code`` convert it to and from its
base-3 code.  Enumerative sweeps run over the code tensor of shape
(3,)*n, for n <= T_ENUMERATION_CAP: axis n-i holds vertex i's base-3
digit, and every table lives on that tensor, with each vertex's entry
a broadcast view on its own axis.  The test suite checks every table
against definition-level oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InstanceTooLargeError

PLUS, MINUS, ZERO = 1, -1, 0

# Hard cap: lambda_table and tucker_verify enumerate 3^n vectors.
T_ENUMERATION_CAP = 12

_CHAR_TO_SIGN = {"+": PLUS, "-": MINUS, "0": ZERO}
_SIGN_TO_CHAR = {PLUS: "+", MINUS: "-", ZERO: "0"}


@dataclass(frozen=True)
class SignVector:
    """A vector in {+,-,0}^n, kept as the index sets of its + and - entries.

    Indices are 1-based, matching path vertices.
    """

    n: int
    plus: frozenset[int] = field(default_factory=frozenset)
    minus: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "plus", frozenset(self.plus))
        object.__setattr__(self, "minus", frozenset(self.minus))
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.plus & self.minus:
            raise ValueError("an index cannot be both + and -")
        for i in self.plus | self.minus:
            if not 1 <= i <= self.n:
                raise ValueError(f"index {i} out of range 1..{self.n}")

    @classmethod
    def from_entries(cls, entries: Sequence[int]) -> "SignVector":
        plus = frozenset(i + 1 for i, e in enumerate(entries) if e == PLUS)
        minus = frozenset(i + 1 for i, e in enumerate(entries) if e == MINUS)
        if any(e not in (PLUS, MINUS, ZERO) for e in entries):
            raise ValueError("entries must be +1, -1 or 0")
        return cls(len(entries), plus, minus)

    @classmethod
    def from_string(cls, s: str) -> "SignVector":
        try:
            return cls.from_entries([_CHAR_TO_SIGN[c] for c in s])
        except KeyError as exc:
            raise ValueError(f"bad sign character {exc.args[0]!r}") from None

    @property
    def entries(self) -> tuple[int, ...]:
        out = [ZERO] * self.n
        for i in self.plus:
            out[i - 1] = PLUS
        for i in self.minus:
            out[i - 1] = MINUS
        return tuple(out)

    def __str__(self) -> str:
        return "".join(_SIGN_TO_CHAR[e] for e in self.entries)


Partition = Sequence[Sequence[int]]


def check_partition(classes: Partition) -> int:
    """Validate that classes form a partition of 1..n; returns n."""
    seen: set[int] = set()
    total = 0
    for j, cls in enumerate(classes, start=1):
        if len(cls) == 0:
            raise ValueError(f"class {j} is empty")
        seen.update(cls)
        total += len(cls)
    n = total
    if seen != set(range(1, n + 1)):
        raise ValueError("classes do not partition 1..n")
    return n


def vector_code(x: SignVector) -> int:
    """Base-3 code of a vector: digit i-1 is 0/1/2 for entry 0/+/-."""
    code = 0
    for i in x.plus:
        code += 3 ** (i - 1)
    for i in x.minus:
        code += 2 * 3 ** (i - 1)
    return code


def vector_from_code(code: int, n: int) -> SignVector:
    plus, minus = [], []
    for i in range(1, n + 1):
        d = code % 3
        code //= 3
        if d == 1:
            plus.append(i)
        elif d == 2:
            minus.append(i)
    return SignVector(n, frozenset(plus), frozenset(minus))


# ---------------------------------------------------------------------------
# vectorized tables, cached per n


_SIGNS = np.array([0, 1, -1], dtype=np.int8)


def _on_axes(table: np.ndarray, n: int, vertices: Sequence[int]) -> np.ndarray:
    """A view of ``table`` over the code tensor of shape (3,)*n.

    Axis n-i of the tensor holds vertex i's digit.  The view is 3 long on
    the given vertices' axes and 1 elsewhere, so it broadcasts over the
    rest: ``_on_axes(_SIGNS, n, (i,))`` is entry i of every code.
    """
    shape = [1] * n
    for i in vertices:
        shape[n - i] = 3
    return table.reshape(shape)


@lru_cache(maxsize=None)
def _runs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """alt (int16) and first sign * alt (int32) of every code.

    One pass over the vertices from n down to 1: the runs read backwards
    are the same runs, and the last nonzero entry seen is the first sign.
    The signed table is the label of every code with J(x) empty.
    """
    runs = np.zeros((3,) * n, dtype=np.int16)
    last = np.zeros((3,) * n, dtype=np.int8)
    for i in range(n, 0, -1):
        entry = _on_axes(_SIGNS, n, (i,))
        nz = entry != 0
        runs += nz & (entry != last)
        np.copyto(last, entry, where=nz)
    runs = runs.reshape(-1)
    return runs, last.reshape(-1).astype(np.int32) * runs


@lru_cache(maxsize=None)
def _negation_table(n: int) -> np.ndarray:
    """neg[code] = code of the entrywise negation (digits 1 and 2 swapped)."""
    codes = np.arange(3**n, dtype=np.int64).reshape((3,) * n)
    return codes[np.ix_(*[(0, 2, 1)] * n)].reshape(-1)


@lru_cache(maxsize=None)
def _class_verdict(v: int) -> np.ndarray:
    """Saturation verdict of a class of v vertices, over its 3^v codes.

    Entry is 0 where the class is not saturated, else the sign of the
    label: the first nonzero entry's sign when the class is split
    exactly in half, otherwise the side holding more than half.  The
    code's digits are the class's entries in vertex order, least
    significant first.
    """
    entries = [_on_axes(_SIGNS, v, (i,)) for i in range(1, v + 1)]
    p = sum(e > 0 for e in entries).reshape(-1)
    mn = sum(e < 0 for e in entries).reshape(-1)
    # balanced codes have p = mn = v/2 >= 1, so alt >= 1 and the signed
    # alt carries the first sign there
    balanced = (2 * p == v) & (2 * mn == v)
    verdict = np.where(2 * p > v, 1, np.where(2 * mn > v, -1, 0)).astype(np.int8)
    verdict[balanced] = np.sign(_runs(v)[1][balanced])
    return verdict


@lru_cache(maxsize=None)
def _class_key(v: int, j: int) -> np.ndarray:
    """int8 key 2j + (sign < 0) where color j, a class of v vertices, is
    saturated with that label sign, else 0."""
    verdict = _class_verdict(v)
    return np.where(verdict != 0, 2 * j + (verdict < 0), 0).astype(np.int8)


def _saturation(classes: Partition, n: int) -> tuple[np.ndarray, np.ndarray]:
    """j' = max J(x) (0 where J(x) is empty) and the sign of x's label
    +-(t + j'), for all 3^n codes.

    The codes are viewed as a tensor of shape (3,)*n, where axis n-i
    holds vertex i's digit.  Color j's key (``_class_key``) depends only
    on its class's digits, so it is viewed on the class's axes
    (``_on_axes``) and broadcast: ascending axes are descending
    vertices, the key table's own digit order, so no transpose is
    needed.  The key grows with j, so one running maximum, a broadcast
    pass per class, leaves 2j' + (sign < 0) at every code: O(m 3^n).
    """
    key = np.zeros((3,) * n, dtype=np.int8)
    for j, cls in enumerate(classes, start=1):
        np.maximum(key, _on_axes(_class_key(len(cls), j), n, cls), out=key)
    key = key.reshape(-1)
    return (key >> 1).astype(np.int32), (key > 0).view(np.int8) - 2 * (key & 1)


def _check_cap(name: str, n: int) -> None:
    if n > T_ENUMERATION_CAP:
        raise InstanceTooLargeError(
            f"{name} enumerates 3^n vectors; n={n} exceeds cap {T_ENUMERATION_CAP}"
        )


def lambda_table(classes: Partition) -> tuple[np.ndarray, int]:
    """The path labeling of every code, and its t.

    A nonzero x with J(x) nonempty gets +-(t + j') for j' = max J(x),
    signed by the side of x holding more than half of V_j', or, when
    V_j' is split exactly in half, by the side holding its smallest
    index; any other nonzero x gets +-alt(x), signed by its first nonzero
    entry.  t is max alt(x) over the x with J(x) empty, which the zero
    vector always is.  Returns (labels, t) with labels[code] the label of
    ``vector_from_code(code, n)``; labels[0] (the zero vector) is 0 and
    outside the labeling's domain.  The labels start from the cached
    first-sign times alt table and take sign * (t + j') wherever
    ``_saturation`` finds a saturated color.  Capped at
    n <= T_ENUMERATION_CAP.
    """
    n = check_partition(classes)
    _check_cap("lambda_table", n)
    jprime, sign = _saturation(classes, n)
    runs, signed = _runs(n)
    t = int(runs[jprime == 0].max())
    labels = signed.copy()
    np.copyto(labels, sign * (t + jprime), where=jprime > 0)
    labels[0] = 0
    return labels, t


@dataclass(frozen=True)
class TuckerReport:
    """Outcome of tucker_verify.

    ``complementary_pair`` holds some (x, y) with x preceding y and
    labels summing to zero, if any exists; ``complementary_pairs`` is
    the total count of such ordered pairs.  ``lemma_contradiction`` is
    set when the labeling is clean yet s < n, which the octahedral
    Tucker lemma rules out; it must never be True.
    """

    n: int
    s: int
    ok: bool
    antipodal: bool
    antipodal_violation: SignVector | None
    complementary_pair: tuple[SignVector, SignVector] | None
    complementary_pairs: int
    lemma_contradiction: bool


def _zeta_up(table: np.ndarray, n: int, ufunc: np.ufunc) -> np.ndarray:
    """Fold every entry into the entries of the vectors above it, in place.

    Afterwards table[y] is the ufunc-reduction of the old table[x] over
    every x preceding y (y itself and the zero vector included).  The
    face poset is the n-fold product of 0 < +, 0 < -, so one pass per
    coordinate suffices (Yates): the + and - digit each absorb digit 0,
    in one broadcast call per digit.  Digit i's inner runs hold 3^i
    entries, too short for numpy's loops below i = 3, so for n > 3 the
    three low digits are folded after one transpose of the table from
    (3^(n-3), 27) to (27, 3^(n-3)), which puts them on top, and the
    result is transposed back.
    """
    low = 3 if n > 3 else 0
    for i in range(low, n):
        digit = table.reshape(3 ** (n - 1 - i), 3, 3**i)
        ufunc(digit[:, 1:], digit[:, :1], out=digit[:, 1:])
    if low:
        grid = table.reshape(3 ** (n - low), 3**low)
        lifted = grid.T.copy()
        for i in range(low):
            digit = lifted.reshape(3 ** (low - 1 - i), 3, 3**i * grid.shape[0])
            ufunc(digit[:, 1:], digit[:, :1], out=digit[:, 1:])
        grid[...] = lifted.T
    return table


_SIGNED = tuple(np.dtype(d) for d in (np.int8, np.int16, np.int32, np.int64))
_UNSIGNED = tuple(np.dtype(d) for d in (np.uint8, np.uint16, np.uint32, np.uint64))


def _narrowest(dtypes: tuple[np.dtype, ...], bits: int) -> np.dtype:
    """The narrowest of four 8/16/32/64-bit dtypes with at least this many bits."""
    return dtypes[max((bits - 1).bit_length() - 3, 0)]


def _complementary_faces(labels: np.ndarray, n: int, top: int) -> np.ndarray:
    """hit[y]: some x preceding y has label(x) = -label(y).

    labels is a signed array whose dtype holds +-2*top, where top is the
    largest label magnitude, and labels[0] (the zero vector) is 0.  Each
    label becomes one bit of a mask, two bits per magnitude: label l
    takes bit z - 1, where z = max(2l, ~2l) = 2|l| - (l < 0) is its
    zigzag code, so +1, -1, +2, -2 take bits 1, 0, 3, 2 and the
    complementary label sits at bit ^ 1.  An OR zeta transform gathers
    the masks of all faces, and y is hit when the result holds its
    partner mask.  Bits run in windows of at most 64, each in the
    narrowest unsigned dtype that holds its bits: one window of 2*top
    bits when top <= 32.  Larger labels take one more round for each
    window that holds a label, so sparse labels skip the empty ones and
    nothing is sized by top.
    """
    twice = labels + labels
    np.maximum(twice, ~twice, out=twice)
    bit = twice.view(_narrowest(_UNSIGNED, labels.itemsize * 8))
    # the headroom of +-2*top keeps every bit below half the dtype's range,
    # so the zero vector's bit (-1) and the bits below a window wrap to
    # 64 or more past the window, where numpy's shifts give 0
    bit -= 1
    low = 0 if top <= 32 else int(bit[1:].min()) & ~1
    hit = None
    while True:
        end = low + 64
        last = 2 * top <= end
        width = 2 * top - low if last else int(bit[bit < end].max()) - low + 1
        dtype = _narrowest(_UNSIGNED, width)
        # one element, not 0-d: numpy 1.x would demote a 0-d 1 to uint8
        one = np.ones(1, dtype=np.promote_types(dtype, bit.dtype))
        shift = bit - low if low else bit
        masks = (one << shift).astype(dtype, copy=False)
        partner = (one << (shift ^ 1)).astype(dtype, copy=False)
        _zeta_up(masks, n, np.bitwise_or)
        found = (masks & partner) != 0
        hit = found if hit is None else hit | found
        if last:
            return hit
        low = int(bit[bit >= end].min()) & ~1


def _face_codes(code: int, n: int) -> np.ndarray:
    """Codes of all x preceding the vector with this code, 2^|support| of them."""
    faces = np.zeros(1, dtype=np.int64)
    for i in range(n):
        digit = code // 3**i % 3
        if digit:
            faces = np.concatenate([faces, faces + digit * 3**i])
    return faces


def tucker_verify(labels: np.ndarray, n: int, s: int) -> TuckerReport:
    """Exhaustively check a labeling of the nonzero vectors of {+,-,0}^n.

    labels[code] labels ``vector_from_code(code, n)``, in an array of
    shape (3^n,) such as ``lambda_table`` returns.  Verifies (a)
    antipodality, label(-x) = -label(x), and (b) absence of
    complementary comparable pairs: no x preceding y with labels
    summing to zero.  Labels must be nonzero integers of magnitude at
    most s.  A labeling accepted with s < n contradicts the octahedral
    Tucker lemma and is flagged as such.

    Labels must be an integer array; floats, bools and objects are
    rejected rather than truncated, and magnitudes of 2^62 or more are
    out of range.  After the zero and magnitude checks the labels are
    narrowed to the smallest signed dtype holding +-2*max|label|.

    The pair check costs O(n 3^n) while labels stay within magnitude
    32: one OR zeta transform over the face poset, on masks of
    2*max|label| bits, finds every y with a complementary face.  Only if
    there is one does an additive transform per label value involved,
    O(n 3^n) each, count the pairs, and the faces of the first such y
    give the reported pair.  Capped at n <= T_ENUMERATION_CAP.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _check_cap("tucker_verify", n)
    labels = np.asarray(labels)
    if labels.shape != (3**n,):
        raise ValueError(f"label array must have shape (3^{n},)")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    # the zero and magnitude rules run on the input's own dtype, so no
    # label wraps or truncates before it is checked
    body = labels[1:]
    if not body.all():
        code = int(np.flatnonzero(body == 0)[0]) + 1
        raise ValueError(f"label of {vector_from_code(code, n)} is zero")
    low, high = int(body.min()), int(body.max())
    if low < -s or high > s:
        code = int(np.flatnonzero((body < -s) | (body > s))[0]) + 1
        raise ValueError(
            f"label of {vector_from_code(code, n)} exceeds magnitude s={s}"
        )
    top = max(-low, high)
    if top >= 2**62:
        code = int(np.flatnonzero((body <= -(2**62)) | (body >= 2**62))[0]) + 1
        raise ValueError(
            f"label of {vector_from_code(code, n)} has magnitude 2^62 or more"
        )
    labels = labels.astype(_narrowest(_SIGNED, top.bit_length() + 2))
    labels[0] = 0

    # a compare, not a sum: the narrow dtype holds +-top, so -labels is exact
    anti_bad = labels[_negation_table(n)] != -labels
    antipodal = not anti_bad.any()
    antipodal_violation = None
    if not antipodal:
        antipodal_violation = vector_from_code(int(anti_bad.argmax()), n)

    hit = _complementary_faces(labels, n, top)
    count = 0
    pair = None
    if hit.any():
        for value in np.unique(-labels[hit]):
            # a vector has at most 2^n <= 4096 faces, so int16 cannot overflow
            below = _zeta_up((labels == value).astype(np.int16), n, np.add)
            count += int(below[labels == -value].sum())
        y = int(hit.argmax())
        faces = _face_codes(y, n)
        x = int(faces[labels[faces] == -labels[y]].min())
        pair = (vector_from_code(x, n), vector_from_code(y, n))

    ok = antipodal and count == 0
    return TuckerReport(
        n=n,
        s=s,
        ok=ok,
        antipodal=antipodal,
        antipodal_violation=antipodal_violation,
        complementary_pair=pair,
        complementary_pairs=count,
        lemma_contradiction=bool(ok and s < n),
    )
