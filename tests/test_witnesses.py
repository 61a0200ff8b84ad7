"""The exact-sequence checks and the two block-permutation witnesses against
oracles that share no elimination with them.  An exact-sequence report must
pass, have the expected (node, degree) lines, and give node dimensions equal
to dense window ranks (dense.window_dims); a window map is the identity on
the pieces two truncations share, and it is refused exactly when a d1 square
of the parent fails; a block-permutation witness is a permutation matrix in
every degree that carries each entry of the source's differential to the
permuted entry of the target's.  Planted faults in the one certification
routine must raise the witness's own message."""

import hashlib
import json
import random
import re
from functools import cache
from itertools import combinations_with_replacement

import pytest
from dense import connecting_ranks, dense, right, up, windows
from ladder import ladder

from spectra_dr import bicomplex, tensorops, truncation
from spectra_dr.bicomplex import BicomplexMap, total, truncate, verify_total_dual_iso
from spectra_dr.cochain import ChainMap, CochainComplex, direct_sum, dual
from spectra_dr.errors import NotChainCompatible, PreconditionViolation, WitnessFailure
from spectra_dr.linalg import RatMatrix, clear_caches
from spectra_dr.randgen import random_double_complex
from spectra_dr.tensorops import collapse_total_check, quad_tensor, ss_collapse, tensor
from spectra_dr.truncation import connecting_matrix, four_term_check, les_check, window_map

T1, T2, IW = (ladder()[name] for name in ("T1", "T2", "IW"))
MODELS = [ladder()[name].complex for name in ("T1", "T2", "IW", "T1xIW")]


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def _seeded(count, seed):
    rng = random.Random(seed)
    return [random_double_complex(rng, p_span=rng.randint(1, 4), q_span=rng.randint(1, 4))
            for _ in range(count)]


def _ends(k):
    return range(k.p_lo - 1, k.p_hi + 2)


# -- the oracles ------------------------------------------------------------


def _window(k, a, b):
    """The column window (a, b) of k by the placement rule: the pieces in
    columns a..b, and each parent block whose source and target are both
    kept."""
    dims = {key: n for key, n in k.dims().items() if a <= key[0] <= b}
    return dims, [{key: m for key, m in d.items() if key in dims and step(key) in dims}
                  for d, step in ((k._d1, right), (k._d2, up))]


def _failing_squares(k, src, tgt):
    """The d1 squares at which the identity on the overlap of the windows
    src and tgt does not commute: at a stored block from column p, the
    target side keeps it when p is in the overlap and p, p+1 in tgt, the
    source side when p+1 is in the overlap and p, p+1 in src.  The d2
    squares stay in one column, so both sides always agree there."""
    (a, b), (c, d) = src, tgt
    lo, hi = max(a, c), min(b, d)
    return {f"({p},{q})" for (p, q) in k._d1
            if (lo <= p <= hi and c <= p < d) != (lo <= p + 1 <= hi and a <= p < b)}


def _check_window_map(k, src, tgt, window):
    """window_map against the rule; window(a, b) is _window(k, a, b)."""
    got = _outcome(window_map, k, src, tgt)
    failing = _failing_squares(k, src, tgt)
    if failing:
        assert isinstance(got, tuple), f"{src} -> {tgt} should be refused at {failing}"
        kind, message = got
        at = re.fullmatch(r"bicomplex map square \(d1\) at (\(-?\d+,-?\d+\)) does not commute",
                          message)
        assert kind is NotChainCompatible and at and at.group(1) in failing
        return
    assert type(got) is BicomplexMap
    lo, hi = max(src[0], tgt[0]), min(src[1], tgt[1])
    for part, (a, b) in ((got.source, src), (got.target, tgt)):
        dims, diffs = window(a, b)
        assert part._dims == dims and list(part._diffs) == diffs
    assert got._mats == {key: RatMatrix.identity(n) for key, n in k.dims().items()
                         if lo <= key[0] <= hi}


def _les_degrees(k, r, s, t):
    """The degrees les_check ranges over: from one below the lowest total
    degree of the three windows to one above the highest."""
    degrees = [[p + q for (p, q) in k.dims() if a <= p <= b]
               for a, b in ((s, t), (r, t), (r, s - 1))]
    lo = min(min(d, default=0) for d in degrees)
    hi = max(max(d, default=-1) for d in degrees)
    return range(lo - 1, hi + 2)


def _les_lines(k, dims, r, s, t):
    """The (check, (node, degree), rhs) lines of a passing les_check, over
    _les_degrees, and the number of degrees whose connecting map is
    nonzero, by the ranks exactness fixes from the dimensions."""
    nodes = [(node, dims(*w)) for node, w in zip("ABC", ((s, t), (r, t), (r, s - 1)))]
    lines = [line for deg in _les_degrees(k, r, s, t) for node, h in nodes
             for line in (("les_composition_zero", (node, deg), True),
                          ("les_exactness", (node, deg), h.get(deg, 0)))]
    return lines, sum(n > 0 for n in connecting_ranks(*(h for _node, h in nodes)).values())


def _four_term_lines(k, s, s_prime, t, t_prime):
    """The (check, (p, q), rhs) lines of a passing four_term_check: at each
    piece in columns s..t', the piece dimension in each window that keeps it."""
    lines = []
    for (p, q), n in sorted(k.dims().items()):
        if s <= p <= t_prime:
            n1, n2, n3, n4 = (n if lo <= p <= hi else 0 for lo, hi in
                              ((t + 1, t_prime), (s_prime, t_prime), (s, t), (s, s_prime - 1)))
            lines += [("injective", (p, q), n1), ("boundary_composition_zero", (p, q), True),
                      ("exact_mid_left", (p, q), n2), ("exact_mid_right", (p, q), n3),
                      ("surjective", (p, q), n4)]
    return lines


def _lines(rep):
    assert rep.ok, rep.summary()
    return [(line.check, line.degree, line.rhs) for line in rep.lines]


# -- the window sequences ---------------------------------------------------


def test_window_sequences_match_the_old_bodies():
    checked = nonzero = 0
    for k in _seeded(200, 1800) + MODELS:
        # each window's oracles are computed once per complex
        dims = windows(k)
        window = cache(lambda a, b: _window(k, a, b))
        for r, s, t in combinations_with_replacement(_ends(k), 3):
            # an inclusion, a restriction, and a pair that is neither
            for src, tgt in (((s, t), (r, t)), ((r, t), (r, s - 1)), ((r, s), (s, t))):
                _check_window_map(k, src, tgt, window)
            want, conn = _les_lines(k, dims, r, s, t)
            assert _lines(les_check(k, r, s, t)) == want
            nonzero += conn > 0
            checked += 1
        for quad in combinations_with_replacement(_ends(k), 4):
            assert _lines(four_term_check(k, *quad)) == _four_term_lines(k, *quad)
            checked += 1
    assert checked > 15000
    assert nonzero > 800


# sha256 of the JSON of [r, s, t, deg, connecting_matrix(k, r, s, t, deg)]
# over the first 60 complexes of _seeded(200, 1800), every window triple of
# _ends and every degree of _les_degrees: 9 449 matrices, 326 of them
# nonzero.  Pinned from the construction that reduced the lifted
# representatives in the subcomplex's own coordinates.
CONNECTING_DIGEST = "f2ac8bd1ce09c11d41d4f10f208d0e747079a2a034809cd3325a15e1bdd05fac"


def test_connecting_matrices_keep_their_digest():
    digest = hashlib.sha256()
    count = nonzero = 0
    for k in _seeded(60, 1800):
        for r, s, t in combinations_with_replacement(_ends(k), 3):
            for deg in _les_degrees(k, r, s, t):
                m = connecting_matrix(k, r, s, t, deg)
                digest.update(json.dumps([r, s, t, deg, m.to_json()]).encode())
                count += 1
                nonzero += not m.is_zero()
    assert (count, nonzero, digest.hexdigest()) == (9449, 326, CONNECTING_DIGEST)


def test_window_sequence_preconditions_keep_their_messages():
    k = IW.complex
    assert _outcome(les_check, k, 2, 1, 3) == (
        PreconditionViolation, "need r <= s <= t, got 2, 1, 3")
    assert _outcome(four_term_check, k, 0, 2, 1, 3) == (
        PreconditionViolation, "need s <= s' <= t <= t', got 0, 2, 1, 3")
    assert _outcome(window_map, k, (1, 3), (2, 3)) == (
        NotChainCompatible, "bicomplex map square (d1) at (1,0) does not commute")
    assert "(1,0)" in _failing_squares(k, (1, 3), (2, 3))


# -- the block-permutation witnesses ----------------------------------------


def _check_permutation_witness(w, source, target):
    """w is a map source -> target whose every degree is a permutation
    matrix, and it commutes with the differentials: the entry (i, j) of the
    source's differential sits at the permuted (i, j) of the target's."""
    assert type(w) is ChainMap and w.source == source and w.target == target
    perms = {}
    for deg in source.degrees():
        n = source.dim(deg)
        assert target.dim(deg) == n
        m = dense(w.mat(deg))
        assert all(sorted(row) == [0] * (n - 1) + [1] for row in m)
        assert all(sorted(col) == [0] * (n - 1) + [1] for col in zip(*m))
        perms[deg] = [col.index(1) for col in zip(*m)]
    for deg in source.degrees():
        if source.dim(deg) and source.dim(deg + 1):
            here, up, tgt = perms[deg], perms[deg + 1], dense(target.diff(deg))
            assert all(tgt[up[i]][here[j]] == x for i, row in enumerate(dense(source.diff(deg)))
                       for j, x in enumerate(row))


def test_block_permutation_witnesses_match_the_old_bodies():
    for k in _seeded(200, 1801) + MODELS:
        _check_permutation_witness(verify_total_dual_iso(k), dual(total(k)), total(dual(k)))
    rng = random.Random(1802)
    pairs = [(T1.complex, IW.complex), (IW.complex, T1.complex), (T2.complex, T1.complex)]
    pairs += [tuple(random_double_complex(rng, p_span=rng.randint(1, 3),
                                          q_span=rng.randint(1, 3), blocks=2)
                    for _ in range(2)) for _ in range(30)]
    for k, l in pairs:
        _check_permutation_witness(collapse_total_check(k, l),
                                   total(ss_collapse(quad_tensor(k, l))),
                                   total(tensor(total(k), total(l), 0)))


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
    clear_caches()
    les_check(IW.complex, 0, 1, 3)
    assert calls == [(1, 3), (0, 3), (0, 0)]
    # the window totals are filed under the complex: reading them again
    # truncates nothing
    calls.clear()
    les_check(IW.complex, 0, 1, 3)
    for deg in range(-1, 8):  # IW's total degrees 0..6, padded
        connecting_matrix(IW.complex, 0, 1, 3, deg)
    assert calls == []
    four_term_check(IW.complex, 0, 1, 2, 3)
    assert calls == [(3, 3), (1, 3), (0, 2), (0, 0)]
