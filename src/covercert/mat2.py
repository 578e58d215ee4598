"""2x2 matrix helpers over any commutative coefficient ring.

Matrices are plain tuples ((a, b), (c, d)).  Entries only need +, -, *,
so the same functions serve int, Fraction and the quadratic-field elements
of the tests alike.
"""


def mat_mul(A, B):
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    return ((a * e + b * g, a * f + b * h),
            (c * e + d * g, c * f + d * h))


def mat_det(A):
    (a, b), (c, d) = A
    return a * d - b * c


def mat_tr(A):
    return A[0][0] + A[1][1]


def mat_adj(A):
    """Adjugate; equals the inverse whenever det(A) = 1."""
    (a, b), (c, d) = A
    return ((d, -b), (-c, a))
