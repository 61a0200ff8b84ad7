import json
import random

import pytest
from dense import M, filtration, window_dims, windows
from ladder import ladder

from spectra_dr import cli, spectral
from spectra_dr.bicomplex import DoubleComplex, identity_bicomplex_map, total
from spectra_dr.cochain import betti_numbers, cohomology_dim
from spectra_dr.randgen import (
    _hseg,
    _staircase,
    _zigzag,
    random_double_complex,
)
from spectra_dr.spectral import (
    clear_page_cache,
    convergence_check,
    degenerates_at,
    degenerates_at_first_page,
    e1_iso_implies_total_iso_check,
    filtration_dims,
    first_page_check,
    first_page_map,
    limit_page,
    page,
    stabilization_bound,
    stabilization_index,
)


def test_zero_differentials_degenerate_immediately():
    k = DoubleComplex({(0, 0): 2, (1, 1): 3, (0, 2): 1})
    p1 = page(k, 1)
    assert p1.dims() == {(0, 0): 2, (1, 1): 3, (0, 2): 1}
    assert p1.diff_ranks() == {}
    assert limit_page(k).dims() == p1.dims()
    assert degenerates_at_first_page(k)
    assert stabilization_index(k) == 1


def test_horizontal_segment_dies_on_page_two():
    k = _hseg(0, 0)
    p1 = page(k, 1)
    assert p1.dims() == {(0, 0): 1, (1, 0): 1}
    assert p1.diff_ranks() == {(0, 0): 1}
    assert page(k, 2).dims() == {}
    assert not degenerates_at_first_page(k)
    assert degenerates_at(k, 2)
    assert not degenerates_at(k, 1)
    assert stabilization_index(k) == 2


def test_staircase_has_higher_differential():
    # ladder with a d_2: E_1 has two surviving corners, page 2 kills both
    k = _staircase(0, 0, 2)
    p1 = page(k, 1)
    assert p1.dims() == {(0, 1): 1, (2, 0): 1}
    assert p1.diff_ranks() == {}
    p2 = page(k, 2)
    assert p2.dims() == {(0, 1): 1, (2, 0): 1}
    assert p2.diff_ranks() == {(0, 1): 1}
    assert page(k, 3).dims() == {}
    assert stabilization_index(k) == 3
    # betti of the total complex is zero, matching the empty limit page
    assert all(v == 0 for v in betti_numbers(total(k)).values())


def test_staircase_depth_three():
    k = _staircase(0, 0, 3)
    assert page(k, 2).diff_ranks() == {}
    assert page(k, 3).diff_ranks() == {(0, 2): 1}
    assert page(k, 4).dims() == {}


def test_zigzag_class_survives():
    k = _zigzag(0, 2, 2)
    p1 = page(k, 1)
    assert p1.dims() == {(0, 2): 1}
    assert limit_page(k).dims() == {(0, 2): 1}
    assert cohomology_dim(total(k), 2) == 1


def test_first_page_is_column_cohomology():
    rng = random.Random(31)
    for _ in range(10):
        k = random_double_complex(rng)
        assert first_page_check(k).ok


def test_convergence_random():
    rng = random.Random(32)
    for _ in range(10):
        k = random_double_complex(rng)
        rep = convergence_check(k)
        assert rep.ok, rep.summary()


def test_limit_sum_equals_total_betti_random():
    rng = random.Random(33)
    for _ in range(10):
        k = random_double_complex(rng)
        limit = limit_page(k)
        t = total(k)
        betti = window_dims(k, k.p_lo, k.p_hi)
        for deg in t.degrees():
            s = sum(limit.dim(p, deg - p) for p in k.p_range())
            assert s == betti.get(deg, 0)


def test_filtration_dims_frozen():
    k = DoubleComplex({(0, 0): 1, (1, -1): 1})
    assert filtration_dims(k, 0) == [2, 1, 0]
    assert filtration_dims(_hseg(0, 0), 0) == [0, 0, 0]
    sq = _staircase(0, 0, 2)
    # H^1(total) = 0 for the ladder
    assert filtration_dims(sq, 1) == [0, 0, 0, 0]


def test_filtration_graded_matches_limit():
    rng = random.Random(34)
    for _ in range(8):
        k = random_double_complex(rng)
        limit = limit_page(k)
        t = total(k)
        for deg in t.degrees():
            fd = filtration_dims(k, deg)
            for i, p in enumerate(k.p_range()):
                assert fd[i] - fd[i + 1] == limit.dim(p, deg - p)


def test_filtration_dims_match_the_subcomplex_oracle():
    """F^p H is the image of the cohomology of the subcomplex of columns
    >= p: dense.filtration reads it by exactness on dense window ranks."""
    rng = random.Random(35)
    checked = 0
    for _ in range(120):
        k = random_double_complex(rng, rng.randint(1, 4), rng.randint(1, 4))
        t = total(k)
        dims = windows(k)
        for deg in range(t.lo - 1, t.hi + 2):
            assert filtration_dims(k, deg) == [filtration(dims, k.p_lo, k.p_hi, deg, p)
                                               for p in range(k.p_lo, k.p_hi + 2)]
            checked += 1
    assert checked > 500


def test_page_requires_positive_r():
    with pytest.raises(ValueError):
        page(DoubleComplex({(0, 0): 1}), 0)


def test_stabilization_bound_and_empty():
    k = DoubleComplex({})
    assert stabilization_bound(k) == 1
    assert limit_page(k).dims() == {}
    s = _staircase(0, 0, 2)
    assert stabilization_bound(s) == 3


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_stabilization_bound_is_tight_on_staircases(r):
    k = _staircase(0, 0, r)
    p_span = k.p_hi - k.p_lo
    assert stabilization_index(k) == stabilization_bound(k) == r + 1 == p_span + 1


def _oracle_complexes():
    rng = random.Random(37)
    for _ in range(1000):
        yield random_double_complex(rng, rng.randint(1, 5), rng.randint(1, 5))
    for r in range(2, 6):
        yield _staircase(0, 0, r)
    for name in ("IW", "T1xIW", "T2xIW"):
        yield ladder()[name].complex


def test_stabilization_index_matches_the_downward_walk():
    """The subquotient page past the bound is the limit; the page at the
    index has the limit's dimensions and the page below it does not.  A
    page is a subquotient of the one before, so its dimensions only fall,
    and every page from the index on keeps the limit's: degenerates_at(k, r)
    holds exactly for r >= index."""
    indices = []
    for k in _oracle_complexes():
        index = stabilization_index(k)
        bound = stabilization_bound(k)
        limit = page(k, bound + 1).dims()
        assert limit_page(k).dims() == page(k, index).dims() == limit
        assert index == 1 or page(k, index - 1).dims() != limit
        for r in range(1, bound + 2):
            assert degenerates_at(k, r) == (r >= index)
        indices.append(index)
        clear_page_cache()
    assert set(indices) >= {1, 2, 3, 4}
    assert indices[-7:] == [3, 4, 5, 6, 2, 2, 2]


def test_degenerates_at_refuses_pages_below_one():
    k = _staircase(0, 0, 2)
    for r in (0, -1):
        with pytest.raises(ValueError, match=f"pages start at r = 1, got {r}"):
            degenerates_at(k, r)


@pytest.mark.parametrize("name", ["T1xIW", "IWxIW"])
def test_stabilization_index_builds_no_page(name, monkeypatch):
    k = ladder()[name].complex
    calls = []
    real = spectral.subquotient

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spectral, "subquotient", counted)
    clear_page_cache()
    assert stabilization_index(k) == 2
    assert page.cache_info().misses == 0 and calls == []
    assert limit_page(k).r == 2
    assert page.cache_info().misses == 1 and calls  # the counter sees page builds
    clear_page_cache()


def test_the_spectral_command_builds_only_the_pages_it_prints(tmp_path, capsys):
    # T1 x IW: the bound is page 5, the sequence stops at page 2
    k = ladder()["T1xIW"].complex
    path = tmp_path / "t1iw.json"
    path.write_text(json.dumps(k.to_json()))
    clear_page_cache()
    assert cli.main(["spectral", str(path), "--format", "json"]) == 0
    stable = json.loads(capsys.readouterr().out)["stable_at"]
    assert stable == 2 < stabilization_bound(k)
    assert page.cache_info().misses == stable
    clear_page_cache()


def test_stabilization_bound_is_sound_random():
    rng = random.Random(36)
    for _ in range(30):
        k = random_double_complex(rng)
        if k.is_zero():
            continue
        # the bound before it dropped the q-span
        wide = (k.p_hi - k.p_lo) + (k.q_hi - k.q_lo) + 2
        assert page(k, stabilization_bound(k)).dims() == page(k, wide).dims()
        assert limit_page(k).dims() == page(k, wide).dims()


def test_first_page_map_identity_and_doubling():
    k = DoubleComplex({(0, 0): 1})
    f = identity_bicomplex_map(k)
    maps = first_page_map(f)
    assert maps[(0, 0)] == M([[1]])
    from spectra_dr.bicomplex import BicomplexMap

    doubling = BicomplexMap(k, k, {(0, 0): M([[2]])})
    assert first_page_map(doubling)[(0, 0)] == M([[2]])
    assert e1_iso_implies_total_iso_check(doubling).ok


def test_e1_iso_check_random():
    rng = random.Random(35)
    for _ in range(6):
        k = random_double_complex(rng)
        rep = e1_iso_implies_total_iso_check(identity_bicomplex_map(k))
        assert rep.ok


def test_page_json():
    s = _staircase(0, 0, 2)
    j = page(s, 2).to_json()
    assert j == {
        "r": 2,
        "terms": {"0,1": 1, "2,0": 1},
        "d_r_ranks": {"0,1": 1},
    }
