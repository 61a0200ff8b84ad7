"""The exact-sequence checks and the two block-permutation witnesses against
the bodies they replaced.  window_map is now the identity on the pieces two
truncations share, four_term_check and les_check truncate each window once,
and verify_total_dual_iso and collapse_total_check state only their block
offsets, certified by one routine in bicomplex.  Each must give the same
report, the same witness map and the same failure as the old body."""

import random
import re
from itertools import combinations_with_replacement

import pytest

from spectra_dr import bicomplex, tensorops, truncation
from spectra_dr.bicomplex import (
    BicomplexMap,
    block_offsets,
    dual2,
    total,
    total_map,
    truncate,
    verify_total_dual_iso,
)
from spectra_dr.cochain import (
    ChainMap,
    CochainComplex,
    cohomology_dim,
    cohomology_map,
    direct_sum,
    dual,
)
from spectra_dr.errors import NotChainCompatible, PreconditionViolation, WitnessFailure
from spectra_dr.linalg import RatMatrix, rank
from spectra_dr.models import iwasawa_spec, lie_model, product_model, torus_model
from spectra_dr.randgen import random_double_complex
from spectra_dr.report import Report
from spectra_dr.tensorops import collapse_total_check, quad_tensor, ss_collapse, tensor
from spectra_dr.truncation import connecting_matrix, four_term_check, les_check, window_map

# -- the former bodies, kept as oracles -------------------------------------


def old_window_map(s_cx, win_from, win_to):
    src = truncate(s_cx, win_from)
    tgt = truncate(s_cx, win_to)
    lo = max(win_from[0], win_to[0])
    hi = min(win_from[1], win_to[1])
    mats = {}
    for (p, q), n in src.dims().items():
        if lo <= p <= hi and tgt.dim(p, q) == n:
            mats[(p, q)] = RatMatrix.identity(n)
    return BicomplexMap(src, tgt, mats)


def old_four_term_check(s_cx, s, s_prime, t, t_prime):
    if not (s <= s_prime <= t <= t_prime):
        raise PreconditionViolation(
            f"need s <= s' <= t <= t', got {s}, {s_prime}, {t}, {t_prime}"
        )
    k1 = truncate(s_cx, (t + 1, t_prime))
    k2 = truncate(s_cx, (s_prime, t_prime))
    k3 = truncate(s_cx, (s, t))
    k4 = truncate(s_cx, (s, s_prime - 1))
    f1 = old_window_map(s_cx, (t + 1, t_prime), (s_prime, t_prime))
    f2 = old_window_map(s_cx, (s_prime, t_prime), (s, t))
    f3 = old_window_map(s_cx, (s, t), (s, s_prime - 1))
    rep = Report("four_term")
    p_lo = min(k.p_lo for k in (k1, k2, k3, k4))
    p_hi = max(k.p_hi for k in (k1, k2, k3, k4))
    q_lo = min(k.q_lo for k in (k1, k2, k3, k4))
    q_hi = max(k.q_hi for k in (k1, k2, k3, k4))
    for p in range(p_lo, p_hi + 1):
        for q in range(q_lo, q_hi + 1):
            n1, n2 = k1.dim(p, q), k2.dim(p, q)
            n3, n4 = k3.dim(p, q), k4.dim(p, q)
            if not (n1 or n2 or n3 or n4):
                continue
            m1, m2, m3 = f1.mat(p, q), f2.mat(p, q), f3.mat(p, q)
            r1, r2, r3 = rank(m1), rank(m2), rank(m3)
            rep.add("injective", (p, q), r1, n1)
            rep.add("boundary_composition_zero", (p, q),
                    (m2 @ m1).is_zero() and (m3 @ m2).is_zero(), True)
            rep.add("exact_mid_left", (p, q), r1 + r2, n2)
            rep.add("exact_mid_right", (p, q), r2 + r3, n3)
            rep.add("surjective", (p, q), r3, n4)
    return rep


def old_les_check(s_cx, r, s, t):
    if not (r <= s <= t):
        raise PreconditionViolation(f"need r <= s <= t, got {r}, {s}, {t}")
    a = truncate(s_cx, (s, t))
    b = truncate(s_cx, (r, t))
    c = truncate(s_cx, (r, s - 1))
    inc = total_map(old_window_map(s_cx, (s, t), (r, t)))
    proj = total_map(old_window_map(s_cx, (r, t), (r, s - 1)))
    ta, tb, tc = total(a), total(b), total(c)
    lo = min(ta.lo, tb.lo, tc.lo) - 1
    hi = max(ta.hi, tb.hi, tc.hi) + 1
    rep = Report("les")
    i_mat = {}
    p_mat = {}
    d_mat = {}
    for k in range(lo, hi + 1):
        i_mat[k] = cohomology_map(inc, k)
        p_mat[k] = cohomology_map(proj, k)
        d_mat[k] = connecting_matrix(s_cx, r, s, t, k)
    for k in range(lo, hi + 1):
        dims = {
            "A": cohomology_dim(ta, k),
            "B": cohomology_dim(tb, k),
            "C": cohomology_dim(tc, k),
        }
        triples = (
            ("A", d_mat.get(k - 1), i_mat[k]),
            ("B", i_mat[k], p_mat[k]),
            ("C", p_mat[k], d_mat[k]),
        )
        for node, inc_m, out_m in triples:
            n = dims[node]
            if inc_m is None:
                inc_m = RatMatrix.zeros(n, 0)
            comp_zero = (out_m @ inc_m).is_zero()
            rep.add("les_composition_zero", (node, k), comp_zero, True)
            rep.add("les_exactness", (node, k), rank(inc_m) + rank(out_m), n)
    return rep


def old_verify_total_dual_iso(k):
    a = dual(total(k))
    b = total(dual2(k))
    mats = {}
    for deg in range(min(a.lo, b.lo), max(a.hi, b.hi) + 1):
        na, nb = a.dim(deg), b.dim(deg)
        if na != nb:
            raise WitnessFailure(
                f"degree {deg}: dual-of-total dim {na} != total-of-dual dim {nb}"
            )
        if na == 0:
            continue
        blocks = []
        roff = 0
        for (_p, _q, aoff, n) in reversed(block_offsets(k, -deg)):
            blocks.append((roff, aoff, RatMatrix.identity(n)))
            roff += n
        mats[deg] = RatMatrix.from_blocks(nb, na, blocks)
    try:
        witness = ChainMap(a, b, mats)
    except NotChainCompatible as exc:
        raise WitnessFailure(f"comparison map is not a chain map: {exc}") from None
    for deg in range(min(a.lo, b.lo), max(a.hi, b.hi) + 1):
        n = a.dim(deg)
        if n and rank(witness.mat(deg)) != n:
            raise WitnessFailure(f"comparison map not bijective in degree {deg}")
    return witness


def old_collapse_total_check(k, l):
    a = quad_tensor(k, l)
    ss = ss_collapse(a)
    src = total(ss)
    tk = total(k)
    tl = total(l)
    big = tensor(tk, tl, 0)
    tgt = total(big)
    lok = min(src.lo, tgt.lo)
    hik = max(src.hi, tgt.hi)
    mats = {}
    for n in range(lok, hik + 1):
        ns, nt = src.dim(n), tgt.dim(n)
        if ns != nt:
            raise WitnessFailure(f"degree {n}: collapse dim {ns} != tensor dim {nt}")
        if ns == 0:
            continue
        src_pos = {cell: (off + coff, size) for kl, off, _sz in ss._layout().get(n, ())
                   for cell, coff, size in a._layout()[kl]}
        blocks = []
        for (aa, bb, toff, _sz) in block_offsets(big, n):
            k_cells = block_offsets(k, aa)
            l_cells = block_offsets(l, bb)
            l_total = sum(c[3] for c in l_cells)
            for (p, r, koff, ksz) in k_cells:
                for (q, s, loff, lsz) in l_cells:
                    base = toff + koff * l_total
                    spos, ssz = src_pos[(p, q, r, s)]
                    if ssz != ksz * lsz:
                        raise WitnessFailure(
                            f"cell ({p},{q},{r},{s}) size mismatch {ssz} vs {ksz * lsz}"
                        )
                    eye = RatMatrix.identity(lsz)
                    blocks.extend(
                        (base + i * l_total + loff, spos + i * lsz, eye)
                        for i in range(ksz)
                    )
        mats[n] = RatMatrix.from_blocks(nt, ns, blocks)
    try:
        witness = ChainMap(src, tgt, mats)
    except NotChainCompatible as exc:
        raise WitnessFailure(f"collapse comparison is not a chain map: {exc}") from None
    for n in range(lok, hik + 1):
        if src.dim(n) and rank(witness.mat(n)) != src.dim(n):
            raise WitnessFailure(f"collapse comparison not bijective in degree {n}")
    return witness


# -- equality on seeded complexes and on the models -------------------------

T1, T2 = torus_model(1), torus_model(2)
IW = lie_model(iwasawa_spec())
MODELS = [T1.complex, T2.complex, IW.complex, product_model(T1, IW).complex]


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def _same_map(got, want):
    assert type(got) is type(want)
    assert got == want
    assert list(got._mats) == list(want._mats)


def _seeded(count, seed):
    rng = random.Random(seed)
    return [random_double_complex(rng, p_span=rng.randint(1, 4), q_span=rng.randint(1, 4))
            for _ in range(count)]


def _ends(k):
    return range(k.p_lo - 1, k.p_hi + 2)


def test_window_sequences_match_the_old_bodies():
    checked = 0
    for k in _seeded(200, 1800) + MODELS:
        for r, s, t in combinations_with_replacement(_ends(k), 3):
            # an inclusion, a restriction, and a pair that is neither
            for src, tgt in (((s, t), (r, t)), ((r, t), (r, s - 1)), ((r, s), (s, t))):
                got = _outcome(window_map, k, src, tgt)
                want = _outcome(old_window_map, k, src, tgt)
                if isinstance(want, BicomplexMap):
                    _same_map(got, want)
                else:
                    assert got == want
            assert les_check(k, r, s, t).to_json() == old_les_check(k, r, s, t).to_json()
            checked += 1
        for quad in combinations_with_replacement(_ends(k), 4):
            got, want = four_term_check(k, *quad), old_four_term_check(k, *quad)
            assert got.to_json() == want.to_json()
            checked += 1
    assert checked > 15000


def test_window_sequence_preconditions_keep_their_messages():
    k = IW.complex
    for fn, old_fn, args in ((les_check, old_les_check, (2, 1, 3)),
                             (four_term_check, old_four_term_check, (0, 2, 1, 3))):
        assert _outcome(fn, k, *args) == _outcome(old_fn, k, *args)
        assert _outcome(fn, k, *args)[0] is PreconditionViolation
    assert _outcome(window_map, k, (1, 3), (2, 3)) == (
        NotChainCompatible, "bicomplex map square (d1) at (1,0) does not commute")
    assert _outcome(old_window_map, k, (1, 3), (2, 3)) == _outcome(window_map, k, (1, 3), (2, 3))


def test_block_permutation_witnesses_match_the_old_bodies():
    for k in _seeded(200, 1801) + MODELS:
        _same_map(verify_total_dual_iso(k), old_verify_total_dual_iso(k))
    rng = random.Random(1802)
    pairs = [(T1.complex, IW.complex), (IW.complex, T1.complex), (T2.complex, T1.complex)]
    pairs += [tuple(random_double_complex(rng, p_span=rng.randint(1, 3),
                                          q_span=rng.randint(1, 3), blocks=2)
                    for _ in range(2)) for _ in range(30)]
    for k, l in pairs:
        _same_map(collapse_total_check(k, l), old_collapse_total_check(k, l))


# -- planted faults in the shared certification routine ---------------------


def _swap_targets(placed, at):
    (t0, s0, n0), (t1, s1, n1) = placed[at][:2]
    assert n0 == n1, "planted where the first two blocks have one size"
    placed[at][:2] = [(t1, s0, n0), (t0, s1, n1)]


def _drop_block(placed, at):
    placed[at].pop()


def _one_degree_off(placed, at):
    placed[at + 1].append(placed[at].pop(0))


def _planted(fault, at):
    """The certification routine, handed the blocks with one fault planted
    at degree at above the source's lowest."""
    real = bicomplex._certified_permutation

    def certify(src, tgt, blocks, names, noun):
        placed = {d: list(blocks(d)) for d in range(src.lo, src.hi + 1)}
        fault(placed, src.lo + at)
        return real(src, tgt, lambda d: placed.get(d, ()), names, noun)

    return certify


WITNESSES = {
    "dual": (lambda: verify_total_dual_iso(IW.complex), "comparison map"),
    "collapse": (lambda: collapse_total_check(T1.complex, IW.complex), "collapse comparison"),
}


@pytest.mark.parametrize("witness", sorted(WITNESSES))
@pytest.mark.parametrize("fault,at", [(_swap_targets, 1), (_drop_block, 1),
                                      (_drop_block, 3), (_one_degree_off, 0),
                                      (_one_degree_off, 2)])
def test_planted_faults_raise_the_witness_message(monkeypatch, witness, fault, at):
    build, noun = WITNESSES[witness]
    build()  # the sound witness certifies
    certify = _planted(fault, at)
    monkeypatch.setattr(bicomplex, "_certified_permutation", certify)
    monkeypatch.setattr(tensorops, "_certified_permutation", certify)
    with pytest.raises(WitnessFailure) as exc:
        build()
    assert re.fullmatch(f"{noun} (is not a chain map: .+|not bijective in degree -?\\d+)",
                        str(exc.value))


@pytest.mark.parametrize("witness,message", [
    ("dual", "degree -6: dual-of-total dim 1 != total-of-dual dim 2"),
    ("collapse", "degree 0: collapse dim 1 != tensor dim 2"),
])
def test_a_target_of_another_dimension_names_both_sides(monkeypatch, witness, message):
    real = bicomplex._certified_permutation

    def certify(src, tgt, blocks, names, noun):
        grown = direct_sum([tgt, CochainComplex({src.lo: 1})])
        return real(src, grown, blocks, names, noun)

    monkeypatch.setattr(bicomplex, "_certified_permutation", certify)
    monkeypatch.setattr(tensorops, "_certified_permutation", certify)
    with pytest.raises(WitnessFailure) as exc:
        WITNESSES[witness][0]()
    assert str(exc.value) == message


# -- each window is truncated once ------------------------------------------


def test_each_window_is_truncated_once(monkeypatch):
    calls = []

    def counted(s_cx, window):
        calls.append(window)
        return truncate(s_cx, window)

    monkeypatch.setattr(truncation, "truncate", counted)
    les_check(IW.complex, 0, 1, 3)
    assert calls == [(1, 3), (0, 3), (0, 0)]
    calls.clear()
    four_term_check(IW.complex, 0, 1, 2, 3)
    assert calls == [(3, 3), (1, 3), (0, 2), (0, 0)]
