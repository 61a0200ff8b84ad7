"""Acceptance gate: eleven checks, each printing one pass/fail line with its
time budget.  Expected numbers are structural identities, model dimensions
recomputed here by independent brute force (binomial counts for the torus,
a from-scratch 64-dimensional exterior-algebra differential for the
nilmanifold), or dense Fraction ranks (dense.py) — nothing is trusted to
the engine under test."""

import math
import random
import time
from itertools import combinations

from dense import betti, rref, sort_sign, windows
from dense import rank as dense_rank

from spectra_dr.bicomplex import total, total_map, verify_total_dual_iso
from spectra_dr.cochain import cohomology_dim, dual, is_cohomology_iso
from spectra_dr.errors import WitnessFailure
from spectra_dr.models import (
    blowup_predict,
    degeneration_equivalence,
    duality_map,
    iwasawa_spec,
    kunneth_predict,
    leray_hirsch_predict,
    lie_model,
    point_model,
    product_model,
    projective_bundle_predict,
    torus_model,
)
from spectra_dr.randgen import random_complex, random_double_complex
from spectra_dr.spectral import convergence_check, degenerates_at_first_page
from spectra_dr.suites import run_suite
from spectra_dr.truncation import (
    column_cohomology_dim,
    four_term_check,
    hodge_filtration_dims,
    hypercohomology,
    les_check,
    truncate,
)

T1 = torus_model(1)
T2 = torus_model(2)
IW = lie_model(iwasawa_spec())
P0 = point_model()


def _finish(num, name, budget, t0, ok, capsys):
    dt = time.perf_counter() - t0
    verdict = "PASS" if (ok and dt < budget) else "FAIL"
    line = f"[criterion {num:02d}] {name}: {verdict} ({dt:.2f}s, budget {budget:g}s)"
    with capsys.disabled():  # the line must reach the terminal either way
        print(line, flush=True)
    assert ok, f"criterion {num} ({name}) failed"
    assert dt < budget, f"criterion {num} ({name}) took {dt:.2f}s > {budget:g}s"


def test_01_duality_laws(capsys):
    t0 = time.perf_counter()
    rng = random.Random(90001)
    ok = True
    for _ in range(200):
        k = random_complex(rng, max_dim=4, span=6)
        dk, want = dual(k), betti(k)
        for deg in range(k.lo - 1, k.hi + 2):
            ok &= cohomology_dim(dk, -deg) == want.get(deg, 0)
    _finish(1, "dual cohomology dimensions", 5, t0, ok, capsys)


def test_02_total_dual_witness(capsys):
    t0 = time.perf_counter()
    rng = random.Random(90002)
    ok = True
    for _ in range(100):
        k = random_double_complex(rng, 4, 4, blocks=rng.randint(2, 3))
        try:
            verify_total_dual_iso(k)
        except WitnessFailure:
            ok = False
    _finish(2, "total-dual commuting bijection", 10, t0, ok, capsys)


def test_03_tensor_suite(capsys):
    t0 = time.perf_counter()
    rep = run_suite("tensor", 90003, 50)
    _finish(3, "tensor identities (7 checks x 50 pairs)", 60, t0, rep.ok, capsys)


def test_04_spectral_convergence(capsys):
    t0 = time.perf_counter()
    rng = random.Random(90004)
    ok = True
    for _ in range(100):
        k = random_double_complex(rng, 4, 4)
        ok &= convergence_check(k).ok
    _finish(4, "spectral convergence + filtration match", 10, t0, ok, capsys)


def test_05_truncation_exactness(capsys):
    t0 = time.perf_counter()
    ok = True
    for r in range(4):
        for s in range(r, 4):
            for t in range(s, 4):
                ok &= four_term_check(IW.complex, r, s, s, t).ok
                ok &= four_term_check(IW.complex, r, s, t, t).ok
                ok &= les_check(IW.complex, r, s, t).ok
    _finish(5, "four-term + long exact sequences (nilmanifold)", 30, t0, ok, capsys)


def test_06_torus_numbers(capsys):
    t0 = time.perf_counter()
    ok = all(
        T2.dim(p, q) == math.comb(2, p) * math.comb(2, q)
        for p in range(3)
        for q in range(3)
    )
    # oracle: zero differentials, so every window dimension is a direct-sum
    # binomial count
    for s in range(3):
        for t in range(s, 3):
            for c in range(5):
                want = sum(
                    math.comb(2, p) * math.comb(2, c - p)
                    for p in range(s, t + 1)
                    if 0 <= c - p <= 2
                )
                ok &= hypercohomology(T2.complex, (s, t), c) == want
            ok &= degenerates_at_first_page(truncate(T2.complex, (s, t)))
    ok &= hypercohomology(T2.complex, (1, 2), 2) == 5
    ok &= hodge_filtration_dims(T2.complex, 2) == [6, 5, 1, 0]
    _finish(6, "torus dimension table", 5, t0, ok, capsys)


# -- independent nilmanifold oracle: 6 generators, d w3 = -w1 w2 plus the
# conjugate, extended as a derivation over Fraction arithmetic --------------

_D_GEN = {2: ((0, 1), -1), 5: ((3, 4), -1)}


def _d_mono(mono):
    out = {}
    for i, g in enumerate(mono):
        if g not in _D_GEN:
            continue
        (a, b), c = _D_GEN[g]
        # the inserted 2-form commutes past the prefix for free
        sgn, srt = sort_sign((a, b) + mono[:i] + mono[i + 1:])
        if sgn:
            out[srt] = out.get(srt, 0) + c * (-1) ** i * sgn
    return {m: v for m, v in out.items() if v}


def _oracle_rank(srcs, dsts):
    idx = {m: i for i, m in enumerate(dsts)}
    rows = []
    for m in srcs:
        row = [0] * len(dsts)
        for mm, c in _d_mono(m).items():
            if mm in idx:
                row[idx[mm]] = c
        rows.append(row)
    return len(rref(rows, len(dsts))[0])


def test_07_iwasawa_numbers(capsys):
    t0 = time.perf_counter()
    # oracle self-check: the derivation squares to zero on all 64 monomials
    ok = True
    for k in range(7):
        for mono in combinations(range(6), k):
            dd = {}
            for mm, c in _d_mono(mono).items():
                for mmm, cc in _d_mono(mm).items():
                    dd[mmm] = dd.get(mmm, 0) + c * cc
            ok &= all(v == 0 for v in dd.values())

    bidegree = lambda m: (sum(1 for g in m if g < 3), sum(1 for g in m if g >= 3))
    monos = lambda p, q: [
        m for m in combinations(range(6), p + q) if bidegree(m) == (p, q)
    ]
    # h^{p,q} = ker of the row-raising component - image from below
    h10 = len(monos(1, 0)) - _oracle_rank(monos(1, 0), monos(1, 1))
    h01 = len(monos(0, 1)) - _oracle_rank(monos(0, 1), monos(0, 2))
    deg = lambda k: list(combinations(range(6), k))
    b1 = 6 - _oracle_rank(deg(1), deg(2)) - _oracle_rank(deg(0), deg(1))
    ok &= (h10, h01, b1) == (3, 2, 4)

    ok &= column_cohomology_dim(IW.complex, 1, 0) == h10 == 3
    ok &= column_cohomology_dim(IW.complex, 0, 1) == h01 == 2
    tot = total(IW.complex)
    ok &= cohomology_dim(tot, 1) == b1 == 4
    e1 = sum(column_cohomology_dim(IW.complex, p, 1 - p) for p in range(2))
    ok &= b1 < e1 == 5
    ok &= not degenerates_at_first_page(IW.complex)
    _finish(7, "nilmanifold vs brute-force oracle", 10, t0, ok, capsys)


def test_08_kunneth(capsys):
    t0 = time.perf_counter()
    prod = product_model(T1, T1)
    torus = windows(T2.complex)
    ok = True
    for s in range(3):
        for t in range(s, 3):
            for c in range(5):
                ok &= hypercohomology(prod.complex, (s, t), c) == torus(s, t).get(c, 0)
    mixed = product_model(T1, IW)
    built = windows(mixed.complex)
    ok &= mixed.n == 4
    for s in range(5):
        for t in range(s, 5):
            for c in range(9):
                ok &= kunneth_predict(T1, IW, (s, t), c) == built(s, t).get(c, 0)
    _finish(8, "product factorization", 60, t0, ok, capsys)


def test_09_serre_duality(capsys):
    t0 = time.perf_counter()
    ok = True
    for model in (T1, T2, IW):
        n, dims = model.n, windows(model.complex)
        for s in range(n + 1):
            for t in range(s, n + 1):
                f = duality_map(model, (s, t))
                for (p, q), d in f.source.dims().items():
                    m = f.mat(p, q)
                    ok &= m.rows == m.cols == d and dense_rank(m) == d
                ok &= is_cohomology_iso(total_map(f))
                for k in range(2 * n + 1):
                    ok &= hypercohomology(model.complex, (s, t), k) == dims(n - t, n - s).get(2 * n - k, 0)
    _finish(9, "wedge-pairing duality bijections", 60, t0, ok, capsys)


def test_10_predictor_identities(capsys):
    t0 = time.perf_counter()
    ok = True
    for x, y, r in ((IW, T1, 2), (IW, P0, 3), (T2, P0, 2)):
        xdims, ydims = windows(x.complex), windows(y.complex)
        for s in range(x.n + 1):
            for t in range(s, x.n + 1):
                for k in range(2 * x.n + 1):
                    lhs = blowup_predict(x, y, (s, t), k, r)
                    rhs = (
                        xdims(s, t).get(k, 0)
                        + projective_bundle_predict(y, (s, t), k, r)
                        - ydims(s, t).get(k, 0)
                    )
                    ok &= lhs == rhs
    for x in (T2, IW):
        for r in (1, 2, 3):
            classes = [(i, i) for i in range(r)]
            for s in range(x.n + 1):
                for t in range(s, x.n + 1):
                    for k in range(2 * x.n + 1):
                        ok &= leray_hirsch_predict(
                            x, (s, t), k, classes
                        ) == projective_bundle_predict(x, (s, t), k, r)
    _finish(10, "blowup / hyperplane-class identities", 5, t0, ok, capsys)


def test_11_degeneration_equivalence(capsys):
    t0 = time.perf_counter()
    eq_t = degeneration_equivalence(T2, 2)
    ok = eq_t["base_all"] and eq_t["bundle_all"] and eq_t["equivalent"]
    eq_i = degeneration_equivalence(IW, 2)
    ok &= eq_i["base_windows"][(0, 3)] is False
    ok &= eq_i["bundle_windows"][(0, 4)] is False
    ok &= eq_i["base_all"] is False and eq_i["bundle_all"] is False
    ok &= eq_i["equivalent"] is True
    _finish(11, "bundle degeneration tracks the base", 5, t0, ok, capsys)
