"""The alphabet of the breadth-first elliptic word search, which the tests
keep as an independent cross-check of the trace claim: T, U, h and their
inverses as single-letter words."""

from fractions import Fraction

from covercert.fuchsian import WordElement
from covercert.mat2 import mat_adj, mat_det, mat_scale


def word_seeds(h_rows):
    T = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    U = ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)))
    seeds = []
    for label, rows in [("T", T), ("U", U), ("h", h_rows)]:
        inv = mat_scale(Fraction(1) / mat_det(rows), mat_adj(rows))
        seeds.append(WordElement.seed(label, rows))
        seeds.append(WordElement.seed(f"{label}^-1", inv))
    return seeds
