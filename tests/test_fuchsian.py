from fractions import Fraction

import pytest

from covercert.core import load_config, parse_conjugator_spec
from covercert.fuchsian import (INCONCLUSIVE, NO_VIOLATION, NOT_FOUND, VIOLATION,
                                EllipticCertificate, find_infinite_elliptic,
                                is_infinite_elliptic_trace, jorgensen_violation)
from covercert.mat2 import mat_adj, mat_det, mat_mul, mat_tr
from covercert.pipelines.sl2z import _trace_frame, find_nonintegral_trace, is_integral_trace, pair_trace
from covercert.quatalg import QuaternionAlgebra
from covercert.units import enumerate_units

from oracles import Quaternion, conjugated_unit_trace, is_integral_quadratic, quat_mul
from wordsearch import RealQuadElem, lift_rational_matrix, quad, real_embed, seed, verify_elliptic

ALG = QuaternionAlgebra(17, 7)
HALF_SHIFT = [[1, Fraction(-1, 2)], [0, 1]]


def quaternionic_frame(h, d=17):
    """The quaternionic pipeline's trace frame for h at d, with the b that
    find_example_algebra finds."""
    return _trace_frame("quaternionic", load_config(None, [f"d={d}", f"h={h}"]))


def value(t):
    """The trace (p + q sqrt(d)) / D as its two rational coordinates."""
    p, q, D = t
    return Fraction(p, D), Fraction(q, D)


def sl2z_seeds(with_h=True):
    mats = [("T", [[1, 1], [0, 1]]), ("T^-1", [[1, -1], [0, 1]]),
            ("U", [[1, 0], [1, 1]]), ("U^-1", [[1, 0], [-1, 1]])]
    if with_h:
        mats += [("h", [[2, 0], [0, 1]]), ("h^-1", [[Fraction(1, 2), 0], [0, 1]])]
    return [seed(lbl, lift_rational_matrix(rows, 2))
            for lbl, rows in mats]


def test_quad_field_arithmetic():
    r2 = quad(2, 0, 1)
    assert (1 + r2) * (-r2 + 1) == -1
    assert r2 * r2 == 2
    x = quad(17, 1, 1)
    assert x * x.inverse() == 1
    assert x.norm() == -16
    assert x * quad(17, 1, -1) == x.norm()
    with pytest.raises(ValueError):
        quad(4, 1, 1)
    with pytest.raises(ValueError):
        quad(-3, 1, 1)
    with pytest.raises(ValueError):
        quad(2, 1) + quad(3, 1)


def test_quad_field_exact_signs():
    r2 = quad(2, 0, 1)
    assert (r2 - 1).sign() == 1
    assert (-r2 + 1).sign() == -1
    assert (-2 * r2 + 3).sign() == 1  # 9 > 8
    assert (2 * r2 - 3).sign() == -1
    r17 = quad(17, 0, 1)
    assert 4 < r17 < 5
    assert abs(-r17 + 1) == r17 - 1
    assert quad(2, 0, 0).sign() == 0


def test_real_embed_basics():
    assert real_embed(Quaternion(ALG, 1)) == lift_rational_matrix([[1, 0], [0, 1]], 17)
    im_i = real_embed(Quaternion(ALG, 0, 1))
    assert im_i == ((quad(17, 0, 1), quad(17, 0)), (quad(17, 0), quad(17, 0, -1)))
    # det of the image equals the reduced norm, here -17 for i
    assert mat_det(im_i) == Quaternion(ALG, 0, 1).nrd()
    with pytest.raises(ValueError):
        real_embed(Quaternion(QuaternionAlgebra(-1, -1), 0, 1))
    with pytest.raises(ValueError):
        real_embed(Quaternion(QuaternionAlgebra(4, 7), 0, 1))


def test_real_embed_homomorphism():
    q1 = Quaternion(ALG, Fraction(1, 2), 2, -1, 3)
    q2 = Quaternion(ALG, -1, Fraction(2, 3), 5, 0)
    assert real_embed(quat_mul(q1, q2)) == mat_mul(real_embed(q1), real_embed(q2))
    assert mat_det(real_embed(q1)) == q1.nrd()


def test_unit_images_and_trace_invariance():
    units = [Quaternion.over(ALG, x) for x in enumerate_units(ALG, 6).units]
    for u in units[:12]:
        M = mat_det(real_embed(u))
        assert M == 1
    w = real_embed(units[3])
    g = real_embed(units[5])
    conj = mat_mul(mat_mul(w, g), mat_adj(w))  # w has det 1: adj = inverse
    assert mat_tr(conj) == mat_tr(g)


def test_trace_exclusion_list():
    ok = is_infinite_elliptic_trace
    assert ok(quad(2, Fraction(3, 2)))
    assert ok(quad(2, Fraction(1, 2)))
    assert ok(quad(17, Fraction(1, 4), Fraction(1, 4)))  # (1 + sqrt17)/4
    for t in (0, 1, -1, 2, -2, Fraction(5, 2)):
        assert not ok(quad(2, t))
    assert not ok(quad(2, 0, 1))    # sqrt2: order 8
    assert not ok(quad(3, 0, 1))    # sqrt3: order 12
    assert not ok(quad(5, Fraction(1, 2), Fraction(1, 2)))   # golden: order 10
    assert not ok(quad(5, Fraction(-1, 2), Fraction(1, 2)))  # order 5
    assert not ok(quad(2, Fraction(9, 4)))  # hyperbolic


def test_elliptic_witness_found_and_frozen():
    seeds = sl2z_seeds()
    cert = find_infinite_elliptic(seeds, max_len=12)
    assert isinstance(cert, EllipticCertificate)
    assert cert.word == ("T", "h", "U^-1", "h^-1")
    assert cert.trace == Fraction(3, 2)
    assert cert.matrix == lift_rational_matrix(
        [[Fraction(1, 2), 1], [Fraction(-1, 2), 1]], 2)
    assert verify_elliptic(cert, seeds)


def test_elliptic_negative_controls():
    assert find_infinite_elliptic(sl2z_seeds(with_h=False), max_len=6) == NOT_FOUND
    seeds = sl2z_seeds(with_h=False)
    seeds.append(seed("h", lift_rational_matrix([[1, 0], [0, 1]], 2)))
    assert find_infinite_elliptic(seeds, max_len=5) == NOT_FOUND


def test_elliptic_search_validation():
    with pytest.raises(ValueError):
        find_infinite_elliptic([], max_len=4)
    with pytest.raises(ValueError):
        find_infinite_elliptic(sl2z_seeds(), max_len=0)
    two_letter = sl2z_seeds()[0].extend("T", lift_rational_matrix([[1, 1], [0, 1]], 2))
    with pytest.raises(ValueError):
        find_infinite_elliptic([two_letter], max_len=3)
    with pytest.raises(RuntimeError):
        find_infinite_elliptic(sl2z_seeds(with_h=False), max_len=6, state_cap=10)


def test_verify_elliptic_rejects_tampering():
    seeds = sl2z_seeds()
    cert = find_infinite_elliptic(seeds, max_len=12)
    forged = EllipticCertificate(cert.word + ("T",), cert.matrix, cert.trace)
    assert not verify_elliptic(forged, seeds)


def test_jorgensen_requires_det_one():
    h = seed("h", lift_rational_matrix([[2, 0], [0, 1]], 2))
    eye = seed("1", lift_rational_matrix([[1, 0], [0, 1]], 2))
    with pytest.raises(ValueError):
        jorgensen_violation(h, eye)


def test_jorgensen_identity_pair_inconclusive():
    eye = seed("1", lift_rational_matrix([[1, 0], [0, 1]], 2))
    rep = jorgensen_violation(eye, eye)
    assert rep.verdict == INCONCLUSIVE
    assert rep.commutator_trace == 2


def test_jorgensen_quaternionic_violation_frozen():
    A = seed("h", lift_rational_matrix(HALF_SHIFT, 17))
    partner = Quaternion(ALG, -29, -7, -33, -8)
    rep = jorgensen_violation(A, seed("u", real_embed(partner)))
    assert rep.verdict == VIOLATION
    assert "parabolic" in rep.reason
    assert rep.sum_value == RealQuadElem(17, Fraction(106673, 4), -6468)
    assert rep.commutator_trace == RealQuadElem(17, Fraction(106681, 4), -6468)
    assert 0 < rep.sum_value < 1
    assert rep.commutator_trace != 2


def test_jorgensen_pair_and_trace_witness_agree():
    # the half shift violates the inequality with unit 420 of the height-50
    # slice; the trace search certifies the same h at shell 2
    H = lift_rational_matrix(HALF_SHIFT, 17)
    units = enumerate_units(ALG, 50).units
    assert units[420] == (-29, -7, -33, -8)
    rep = jorgensen_violation(seed("h", H), seed("u", real_embed(Quaternion.over(ALG, units[420]))))
    assert rep.verdict == VIOLATION
    frame = quaternionic_frame("1,-1/2,0,1")
    u, v, t = find_nonintegral_trace(frame, units)
    assert u == v == units[2]
    assert t == pair_trace(frame, u, v) and value(t) == (Fraction(343, 4), 0)
    assert not is_integral_trace(17, t)


# d with the b that find_example_algebra finds, a unit height at which each
# h has a witness, and h
@pytest.mark.parametrize("H", [(d, height, h) for d, height in [(17, 6), (33, 10), (41, 10), (681, 150)]
                               for h in ["1,-1/2,0,1", "2,0,0,1", "3,1,1/4,5", "quat:3/2,1/2,0,0", "quat:3/2,1/2,1,0"]])
def test_trace_form_agrees_with_pair_trace(H):
    # the search reads its traces off the form at the basis pairs;
    # pair_trace multiplies each pair out, shell by shell, and the oracle
    # computes each trace again with Fractions.  quat:3/2,1/2,0,0 has nrd
    # (9 - d) / 4 < 0, so det M < 0
    d, height, h = H
    frame = quaternionic_frame(h, d)
    algebra = load_config(None, [f"d={d}"]).algebra

    def integral(x, y):
        t = pair_trace(frame, x, y)
        p, q = conjugated_unit_trace(d, int(algebra.b), parse_conjugator_spec(h), x, y)
        assert value(t) == (p, q) and is_integral_trace(d, t) == is_integral_quadratic(p, q, d)
        return is_integral_trace(d, t)

    units = enumerate_units(algebra, height).units
    u, v, t = find_nonintegral_trace(frame, units)
    i, j = units.index(u), units.index(v)
    assert t == pair_trace(frame, u, v) and not integral(u, v)
    shells = [p for n in range(max(i, j) + 1) for p in [(k, n) for k in range(n + 1)] + [(n, k) for k in range(n)]]
    earlier = shells[: shells.index((i, j))]
    assert all(integral(units[a], units[b]) for a, b in earlier)


def test_algebraic_integer_test():
    assert is_integral_trace(0, (-3, 0, 1)) and not is_integral_trace(0, (5, 0, 2))
    assert is_integral_trace(17, (1, 1, 2))  # (1 + sqrt17)/2: 17 = 1 mod 4
    assert is_integral_trace(17, (3, -2, 1))
    assert not is_integral_trace(17, (1, 0, 2))
    assert not is_integral_trace(17, (0, 1, 2))
    assert not is_integral_trace(2, (1, 1, 2))  # norm -1/4
    assert not is_integral_trace(17, (1, 1, 3))  # 2p not integral


def test_trace_search_controls():
    frame = quaternionic_frame("1,-1/2,0,1")
    # +-1 alone give trace +-2 with any conjugate of +-1
    assert find_nonintegral_trace(frame, enumerate_units(ALG, 1).units) is None
    assert find_nonintegral_trace(frame, ()) is None

    def unread():
        raise AssertionError("a vector was read")
        yield

    # the identity and j (which normalises the order) give an integral trace
    # form, so no vector is read
    for h in ("1,0,0,1", "quat:0,0,1,0"):
        assert find_nonintegral_trace(quaternionic_frame(h), unread()) is None


def test_jorgensen_discrete_pair_control():
    units = [Quaternion.over(ALG, x) for x in enumerate_units(ALG, 20).units if x[1:] != (0, 0, 0)]
    A = seed("a", real_embed(units[0]))
    B = seed("b", real_embed(units[1]))
    rep = jorgensen_violation(A, B)
    assert rep.verdict == NO_VIOLATION
    assert rep.sum_value >= 1


def test_jorgensen_hyperbolic_branches():
    # hyperbolic A with a parabolic partner off its axis: genuine violation
    A = seed("a", lift_rational_matrix(
        [[Fraction(201, 100), 1], [-1, 0]], 2))
    B = seed("b", lift_rational_matrix(
        [[1, 0], [Fraction(1, 10), 1]], 2))
    rep = jorgensen_violation(A, B)
    assert rep.verdict == VIOLATION
    assert "hyperbolic" in rep.reason
    assert rep.sum_value == Fraction(501, 10000)

    # discrete elementary pair: B swaps the axis endpoints of A, the sum is
    # tiny and the commutator trace is not 2, yet no violation may be issued
    lam = Fraction(101, 100)
    A = seed("a", lift_rational_matrix([[lam, 0], [0, 1 / lam]], 2))
    B = seed("b", lift_rational_matrix([[0, 1], [-1, 0]], 2))
    rep = jorgensen_violation(A, B)
    assert rep.sum_value < 1 and rep.commutator_trace != 2
    assert rep.verdict == INCONCLUSIVE
