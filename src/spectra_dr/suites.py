"""Randomized verification suites.

Each suite draws seeded random objects, runs a fixed battery of identity
checks against them, and returns a Report whose lines carry the compared
values.  The CLI `verify` command and the acceptance battery both run these;
tune `runs` for more or less hammering.  Failures never raise out of a
suite — witness-style exceptions are converted into failing lines so a
report always comes back whole.
"""

from __future__ import annotations

import random

from .bicomplex import (
    direct_sum2,
    shift2,
    total,
    total_map,
    transpose2,
    verify_total_dual_iso,
)
from .cochain import (
    betti_numbers,
    cohomology_dim,
    dual,
    euler_characteristic,
    is_cohomology_iso,
    shift,
)
from .errors import EngineError
from .models import (
    bott_chern_dim,
    duality_map,
    iwasawa_spec,
    kunneth_predict,
    leray_hirsch_predict,
    lie_model,
    product_model,
    projective_bundle_predict,
    torus_model,
)
from .randgen import random_complex, random_double_complex
from .report import Report
from .spectral import (
    convergence_check,
    degenerates_at_first_page,
    filtration_dims,
    first_page_check,
    limit_page,
    page,
)
from .tensorops import (
    collapse_rows_check,
    collapse_total_check,
    kunneth_check,
    kunneth_double_check,
    parity_iso,
    slice_check,
    tensor,
)
from .truncation import (
    column_cohomology_dim,
    four_term_check,
    frolicher_check,
    frolicher_is_equality,
    hodge_filtration_dims,
    hyper_dims,
    hypercohomology,
    les_check,
)


def _guard(rep: Report, check: str, tag, fn) -> None:
    """Run fn; a truthy result passes, an exception fails the line."""
    try:
        out = fn()
    except EngineError as exc:
        rep.add(check, tag, f"{type(exc).__name__}: {exc}", "ok")
        return
    rep.add(check, tag, bool(out), True)


def cochain_suite(seed: int, runs: int) -> Report:
    rng = random.Random(seed)
    rep = Report("cochain")
    for i in range(runs):
        k = random_complex(rng, span=rng.randint(1, 4), max_dim=rng.randint(1, 5))
        dk = dual(k)
        lhs = {-j: cohomology_dim(dk, -j) for j in k.degrees()}
        rhs = {-j: cohomology_dim(k, j) for j in k.degrees()}
        rep.add("dual_dims", i, lhs, rhs)
        ddk = dual(dk)
        flip = all(ddk.diff(j) == -k.diff(j) for j in k.degrees())
        rep.add("double_dual_negates", i, flip and ddk.dims() == k.dims(), True)
        alt = sum((-1) ** j * k.dim(j) for j in k.degrees())
        rep.add("euler", i, euler_characteristic(k), alt)
        m = rng.choice((-2, -1, 1, 2))
        sb = betti_numbers(shift(k, m))
        rep.add(
            "shift_betti", i,
            {j - m: d for j, d in betti_numbers(k).items()},
            sb,
        )
    return rep


def bicomplex_suite(seed: int, runs: int) -> Report:
    rng = random.Random(seed)
    rep = Report("bicomplex")
    for i in range(runs):
        k = random_double_complex(rng, p_span=3, q_span=3, blocks=rng.randint(2, 4))
        _guard(rep, "total_dual_witness", i, lambda k=k: verify_total_dual_iso(k))
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        rep.add(
            "total_of_shift", i,
            total(shift2(k, a, b)) == shift(total(k), a + b), True,
        )
        rep.add("transpose_involution", i, transpose2(transpose2(k)) == k, True)
        l = random_double_complex(rng, p_span=2, q_span=2, blocks=2)
        s = direct_sum2([k, l])
        rep.add(
            "sum_dims", i,
            s.total_dim(), k.total_dim() + l.total_dim(),
        )
    return rep


def tensor_suite(seed: int, runs: int) -> Report:
    rng = random.Random(seed)
    rep = Report("tensor")
    for i in range(runs):
        ck = random_complex(rng, span=2, max_dim=3)
        cl = random_complex(rng, span=2, max_dim=3)
        t = tensor(ck, cl, 0)
        dim_ok = all(
            t.dim(p, q) == ck.dim(p) * cl.dim(q)
            for p in ck.degrees()
            for q in cl.degrees()
        )
        rep.add("tensor_dims", i, dim_ok, True)
        rep.add("kunneth", i, kunneth_check(ck, cl).ok, True)
        _guard(rep, "parity_witness", i, lambda ck=ck, cl=cl: parity_iso(ck, cl))
        k = random_double_complex(rng, p_span=2, q_span=2, blocks=2)
        l = random_double_complex(rng, p_span=2, q_span=2, blocks=2)
        rep.add("slices", i, slice_check(k, l).ok, True)
        rep.add("collapse_rows", i, collapse_rows_check(k, l).ok, True)
        _guard(rep, "collapse_total", i, lambda k=k, l=l: collapse_total_check(k, l))
        rep.add("kunneth_double", i, kunneth_double_check(k, l).ok, True)
    return rep


def spectral_suite(seed: int, runs: int) -> Report:
    rng = random.Random(seed)
    rep = Report("spectral")
    for i in range(runs):
        k = random_double_complex(rng, p_span=4, q_span=3, blocks=rng.randint(2, 4))
        rep.add("convergence", i, convergence_check(k).ok, True)
        rep.add("first_page", i, first_page_check(k).ok, True)
        lim = limit_page(k)
        e1 = page(k, 1)
        flag = degenerates_at_first_page(k)
        same = all(
            e1.dim(p, q) == lim.dim(p, q)
            for p in k.p_range()
            for q in k.q_range()
        )
        rep.add("degeneration_flag", i, flag, same)
        t = total(k)
        for deg in t.degrees():
            dims = filtration_dims(k, deg)
            rep.add(
                "filtration_monotone", (i, deg),
                all(a >= b for a, b in zip(dims, dims[1:])), True,
            )
    return rep


def truncation_suite(seed: int, runs: int) -> Report:
    rng = random.Random(seed)
    rep = Report("truncation")
    for i in range(runs):
        k = random_double_complex(rng, p_span=4, q_span=3, blocks=rng.randint(2, 3))
        edges = sorted(rng.randrange(k.p_lo - 1, k.p_hi + 2) for _ in range(4))
        s, sp, t, tp = edges
        rep.add("four_term", i, four_term_check(k, s, sp, t, tp).ok, True)
        r3 = sorted(rng.randrange(k.p_lo, k.p_hi + 1) for _ in range(3))
        rep.add("les", i, les_check(k, *r3).ok, True)
        win = (edges[1], edges[2])
        rep.add("frolicher", i, frolicher_check(k, win).ok, True)
        lhs = sum((-1) ** d * n for d, n in hyper_dims(k, win).items())
        rhs = sum(
            (-1) ** (p + q) * n
            for (p, q), n in k.dims().items()
            if win[0] <= p <= win[1]
        )
        rep.add("window_euler", i, lhs, rhs)
        full = (k.p_lo, k.p_hi)
        rep.add("full_window", i, {d: hypercohomology(k, full, d) for d in total(k).degrees()},
                betti_numbers(total(k)))
    return rep


def models_suite(seed: int, runs: int) -> Report:
    rng = random.Random(seed)
    rep = Report("models")
    t1 = torus_model(1)
    t2 = torus_model(2)
    iw = lie_model(iwasawa_spec())

    rep.add("torus_betti", None, betti_numbers(total(t2.complex)),
            {0: 1, 1: 4, 2: 6, 3: 4, 4: 1})
    rep.add("torus_window", None, hypercohomology(t2.complex, (1, 2), 2), 5)
    rep.add("torus_hodge", None, hodge_filtration_dims(t2.complex, 1, 2),
            [4, 2, 0, 0])
    rep.add("iwasawa_h10", None, column_cohomology_dim(iw.complex, 1, 0), 3)
    rep.add("iwasawa_h01", None, column_cohomology_dim(iw.complex, 0, 1), 2)
    rep.add("iwasawa_b1", None, cohomology_dim(total(iw.complex), 1), 4)
    rep.add("iwasawa_strict", None, frolicher_is_equality(iw.complex, (0, 3)),
            False)
    rep.add("iwasawa_bott_chern", None, bott_chern_dim(iw.complex, 1, 1), 4)

    prod = product_model(t1, iw)
    for c in range(0, 9):
        rep.add("kunneth_product", c, hypercohomology(prod.complex, (0, 2), c),
                kunneth_predict(t1, iw, (0, 2), c))

    for _ in range(runs):
        s = rng.randint(0, 3)
        t = rng.randint(s, 3)
        _guard(
            rep, "duality_witness", (s, t),
            lambda s=s, t=t: is_cohomology_iso(total_map(duality_map(iw, (s, t)))),
        )
        k = rng.randint(0, 6)
        rep.add("duality_dims", (s, t, k), hypercohomology(iw.complex, (s, t), k),
                hypercohomology(iw.complex, (3 - t, 3 - s), 6 - k))
        rep.add(
            "projective_vs_classes", (s, t, k),
            projective_bundle_predict(iw, (s, t), k, 2),
            leray_hirsch_predict(iw, (s, t), k, [(0, 0), (1, 1)]),
        )
    tw = torus_model(2, 2)
    rep.add("twist_scaling", None, hypercohomology(tw.complex, (0, 2), 2),
            2 * hypercohomology(t2.complex, (0, 2), 2))
    return rep


SUITES = {
    "cochain": cochain_suite,
    "bicomplex": bicomplex_suite,
    "tensor": tensor_suite,
    "spectral": spectral_suite,
    "truncation": truncation_suite,
    "models": models_suite,
}


def run_suite(name: str, seed: int, runs: int) -> Report:
    return SUITES[name](seed, runs)
