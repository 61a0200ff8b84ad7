import random
from collections import Counter

import pytest
from dense import window_dims

from spectra_dr import truncation
from spectra_dr.bicomplex import DoubleComplex, total, total_map
from spectra_dr.cochain import CochainComplex, direct_sum
from spectra_dr.errors import NotChainCompatible, PreconditionViolation, WitnessFailure
from spectra_dr.linalg import RatMatrix
from spectra_dr.randgen import random_double_complex
from spectra_dr.spectral import Barcode
from spectra_dr.suites import truncation_suite
from spectra_dr.truncation import (
    connecting_matrix,
    four_term_check,
    frolicher_check,
    frolicher_is_equality,
    hodge_filtration_dims,
    hyper_dims,
    hypercohomology,
    les_check,
    truncate,
    truncated_total,
    window_map,
)


@pytest.fixture
def square():
    # unit square, all four arrows nonzero (d2 out of (1,0) carries the sign)
    dims = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    one = RatMatrix(1, 1, [[1]])
    d1 = {(0, 0): one, (0, 1): one}
    d2 = {(0, 0): one, (1, 0): RatMatrix(1, 1, [[-1]])}
    return DoubleComplex(dims, d1, d2)


@pytest.fixture
def arrow():
    # single horizontal arrow Q -> Q in row 0
    return DoubleComplex({(0, 0): 1, (1, 0): 1}, {(0, 0): RatMatrix(1, 1, [[1]])})


def test_truncate_window(square):
    col0 = truncate(square, (0, 0))
    assert col0.dims() == {(0, 0): 1, (0, 1): 1}
    assert col0.d1(0, 0).is_zero()
    assert col0.d2(0, 0) == RatMatrix(1, 1, [[1]])
    assert truncate(square, (2, 5)).is_zero()
    assert truncate(square, (1, 0)).is_zero()
    assert truncate(square, (-5, 10)) == square


def test_truncate_keeps_d1_strictly_inside(square):
    # window (0, 1) keeps the horizontal arrow, (1, 1) cannot
    assert truncate(square, (0, 1)) == square
    col1 = truncate(square, (1, 1))
    assert col1.d1(1, 0).is_zero()
    assert col1.d2(1, 0) == RatMatrix(1, 1, [[-1]])


def test_hyper_dims_square(square):
    # all four arrows isomorphisms -> totally acyclic in every window size 2
    assert hyper_dims(square, (0, 1)) == {}
    assert hyper_dims(square, (0, 0)) == {}
    assert hyper_dims(square, (1, 1)) == {}


def test_hypercohomology_arrow(arrow):
    assert hypercohomology(arrow, (0, 1), 0) == 0
    assert hypercohomology(arrow, (0, 1), 1) == 0
    assert hypercohomology(arrow, (0, 0), 0) == 1
    # column 1 sits in total degree 1
    assert hypercohomology(arrow, (1, 1), 1) == 1
    assert hypercohomology(arrow, (1, 1), 0) == 0


def test_window_map_shapes(square):
    inc = window_map(square, (1, 1), (0, 1))
    assert inc.mat(1, 0) == RatMatrix.identity(1)
    assert inc.mat(0, 0).shape == (1, 0)
    res = window_map(square, (0, 1), (0, 0))
    assert res.mat(0, 0) == RatMatrix.identity(1)
    assert res.mat(1, 0).shape == (0, 1)


def test_window_map_rejects_left_inclusion(square):
    # identity on column 1 does not commute with the horizontal arrow
    with pytest.raises(NotChainCompatible):
        window_map(square, (0, 1), (1, 1))


def test_four_term_square(square):
    assert four_term_check(square, 0, 1, 1, 1).ok
    assert four_term_check(square, 0, 0, 0, 1).ok
    assert four_term_check(square, 0, 0, 1, 1).ok


def test_four_term_precondition(square):
    with pytest.raises(PreconditionViolation):
        four_term_check(square, 1, 0, 1, 1)


def test_connecting_matrix_arrow(arrow):
    # δ: H^0(col 0) -> H^1(col 1) is the horizontal arrow itself
    assert connecting_matrix(arrow, 0, 1, 1, 0) == RatMatrix(1, 1, [[1]])
    assert les_check(arrow, 0, 1, 1).ok


def test_a_lift_left_in_the_quotient_window_raises(arrow, monkeypatch):
    # the quotient total grown by a degree-1 generator moves the cut,
    # dim T^1(C), past the last row: every row of the lift counts as a
    # quotient row, and the arrow's connecting map is nonzero there
    real = truncation.truncated_total

    def grown(s_cx, s, t):
        tot = real(s_cx, s, t)
        return direct_sum([tot, CochainComplex({1: 1})]) if (s, t) == (0, 0) else tot

    monkeypatch.setattr(truncation, "truncated_total", grown)
    with pytest.raises(WitnessFailure,
                       match="^connecting map left a component in the quotient window$"):
        connecting_matrix(arrow, 0, 1, 1, 0)


def test_les_precondition(arrow):
    with pytest.raises(PreconditionViolation):
        connecting_matrix(arrow, 1, 0, 1, 0)
    with pytest.raises(PreconditionViolation):
        les_check(arrow, 1, 0, 1)


def test_frolicher_arrow(arrow):
    assert frolicher_check(arrow, (0, 1)).ok
    # the two column classes die against the total: strict inequality
    assert not frolicher_is_equality(arrow, (0, 1))
    assert frolicher_is_equality(arrow, (0, 0))
    assert frolicher_is_equality(arrow, (1, 1))


def test_frolicher_square(square):
    assert frolicher_is_equality(square, (0, 1))


def test_hodge_filtration_point():
    point = DoubleComplex({(0, 0): 1})
    assert hodge_filtration_dims(point, 0) == [1, 0]
    assert hodge_filtration_dims(point, 1) == [0, 0]


def test_hodge_filtration_wedge():
    # no differentials: H^1 is two-dimensional, one class from each column
    k = DoubleComplex({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    assert hodge_filtration_dims(k, 1) == [2, 1, 0]
    assert hodge_filtration_dims(k, 0) == [1, 0, 0]


def test_truncated_total_is_cached(arrow):
    assert truncated_total(arrow, 0, 1) is truncated_total(arrow, 0, 1)


def rand_windows(rng, k, count):
    for _ in range(count):
        edges = sorted(rng.randrange(k.p_lo - 1, k.p_hi + 2) for _ in range(2))
        yield tuple(edges)


def test_full_window_is_total():
    rng = random.Random(401)
    for _ in range(10):
        k = random_double_complex(rng, p_span=3, q_span=3, blocks=3)
        betti = window_dims(k, k.p_lo, k.p_hi)
        for deg in total(k).degrees():
            assert hypercohomology(k, (k.p_lo, k.p_hi), deg) == betti.get(deg, 0)


def test_a_dropped_unpaired_element_fails_the_full_window_line(monkeypatch):
    """The truncation suite's full_window line compares the full window's
    barcode with the Betti numbers of the total, so a window barcode that
    drops one unpaired element fails that line itself."""
    assert truncation_suite(0, 10).ok
    real = truncation.window_barcode

    def dropped(s_cx, s, t):
        bar = real(s_cx, s, t)
        unpaired, betti = Counter(bar.unpaired), dict(bar.betti)
        for (p, q), n in sorted(unpaired.items()):
            if n:
                unpaired[p, q] -= 1
                betti[p + q] -= 1
                break
        return Barcode(bar.pairs, unpaired, betti)

    monkeypatch.setattr(truncation, "window_barcode", dropped)
    failed = [line for line in truncation_suite(0, 10).failures()
              if line.check == "full_window"]
    assert len(failed) >= 5
    for line in failed:
        assert sum(line.lhs.values()) == sum(line.rhs.values()) - 1


def test_euler_identity_random():
    # alternating hypercohomology sum equals the alternating cell count
    rng = random.Random(402)
    for _ in range(12):
        k = random_double_complex(rng, p_span=3, q_span=3, blocks=3)
        for s, t in rand_windows(rng, k, 3):
            lhs = sum(
                (-1) ** deg * n for deg, n in hyper_dims(k, (s, t)).items()
            )
            rhs = sum(
                (-1) ** (p + q) * n
                for (p, q), n in k.dims().items()
                if s <= p <= t
            )
            assert lhs == rhs


def test_four_term_random():
    rng = random.Random(403)
    for _ in range(8):
        k = random_double_complex(rng, p_span=4, q_span=3, blocks=3)
        for _ in range(3):
            s, sp, t, tp = sorted(
                rng.randrange(k.p_lo - 1, k.p_hi + 2) for _ in range(4)
            )
            rep = four_term_check(k, s, sp, t, tp)
            assert rep.ok, rep.summary()


def test_les_random():
    rng = random.Random(404)
    for _ in range(8):
        k = random_double_complex(rng, p_span=3, q_span=3, blocks=3)
        for _ in range(2):
            r, s, t = sorted(rng.randrange(k.p_lo, k.p_hi + 1) for _ in range(3))
            rep = les_check(k, r, s, t)
            assert rep.ok, rep.summary()


def test_frolicher_random():
    rng = random.Random(405)
    for _ in range(10):
        k = random_double_complex(rng, p_span=3, q_span=3, blocks=3)
        for s, t in rand_windows(rng, k, 3):
            assert frolicher_check(k, (s, t)).ok


def test_inclusion_then_restriction_vanishes():
    # (s,t) -> (r,t) -> (r,s-1) composes to zero on total complexes
    rng = random.Random(406)
    k = random_double_complex(rng, p_span=3, q_span=2, blocks=3)
    r, s, t = k.p_lo, k.p_lo + 1, k.p_hi
    inc = total_map(window_map(k, (s, t), (r, t)))
    proj = total_map(window_map(k, (r, t), (r, s - 1)))
    for deg in total(truncate(k, (s, t))).degrees():
        assert (proj.mat(deg) @ inc.mat(deg)).is_zero()
