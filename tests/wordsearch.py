"""The alphabet of the breadth-first elliptic word search, which the tests
keep as an independent cross-check of the trace claim: T, U, h and their
inverses as single-letter words, and the helpers that build and check
words over it."""

from fractions import Fraction

from covercert.fuchsian import WordElement, is_infinite_elliptic_trace, quad
from covercert.mat2 import mat_adj, mat_det, mat_mul, mat_scale, mat_tr


def seed(label: str, matrix) -> WordElement:
    """The single-letter word label spelling matrix."""
    return WordElement((label,), tuple(tuple(row) for row in matrix))


def lift_rational_matrix(rows, d: int):
    """2x2 rational matrix as a matrix over Q(sqrt(d))."""
    return tuple(tuple(quad(d, x) for x in row) for row in rows)


def verify_elliptic(cert, seeds) -> bool:
    """Re-multiply the word from the seed alphabet and re-test every
    exclusion; certificates must survive this from scratch."""
    table = {s.word[0]: s.matrix for s in seeds}
    m = table[cert.word[0]]
    for label in cert.word[1:]:
        m = mat_mul(m, table[label])
    if m != cert.matrix:
        return False
    return mat_det(m) == 1 and is_infinite_elliptic_trace(mat_tr(m))


def word_seeds(h_rows):
    T = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    U = ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)))
    seeds = []
    for label, rows in [("T", T), ("U", U), ("h", h_rows)]:
        inv = mat_scale(Fraction(1) / mat_det(rows), mat_adj(rows))
        seeds.append(seed(label, rows))
        seeds.append(seed(f"{label}^-1", inv))
    return seeds
