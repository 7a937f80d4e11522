"""Machine-checking the labeling behind the pair-split theorem.

Every nonzero sign vector in {+,-,0}^n gets a signed label; the
argument needs the labeling to be antipodal and to admit no
complementary comparable pair once the label budget s = t + m is fixed.
This script enumerates all 3^n - 1 vectors for small paths, runs the
check, and prints the label distribution for one tiny case.
"""

from collections import Counter

from fairsplit import ColoredPath, SignVector, lambda_table, tucker_verify
from fairsplit.signvectors import vector_code


def check(colors):
    path = ColoredPath(colors)
    labels, t = lambda_table(path.classes)
    s = t + path.m
    rep = tucker_verify(labels, path.n, s)
    print(f"colors={list(colors)}  n={path.n} m={path.m} t={t} s={s}")
    print(f"  antipodal={rep.antipodal}  complementary_pairs={rep.complementary_pairs}"
          f"  ok={rep.ok}  (s >= n: {s >= path.n})")


if __name__ == "__main__":
    for colors in [(1,), (1, 1), (1, 2, 1), (1, 1, 2, 2), (1, 2, 2, 1, 3)]:
        check(colors)
    print()

    # the full label array for a 3-vertex path, one color; index 0 is
    # the zero vector and carries no label
    path = ColoredPath((1, 1, 1))
    labels, t = lambda_table(path.classes)
    print(f"label values on (1,1,1), t={t}:")
    hist = Counter(abs(int(v)) for v in labels[1:])
    for value in sorted(hist):
        print(f"  |label|={value}: {hist[value]} vectors")
    x = SignVector.from_string("+-+")
    print(f"  example: lambda(+-+) = {int(labels[vector_code(x)])}")
