"""Finite exterior-algebra Dolbeault models and closed-form predictors.

A model is the bigraded exterior algebra on n holomorphic generators w^1..w^n
and their conjugates wb^1..wb^n, with a differential determined by structure
constants: d(w^i) is a rational combination of two-generator wedges with no
wb-wb component, d(wb^i) is its conjugate, and d^2 = 0 on generators (the
Jacobi identity) makes the bidegree pieces of d a valid double complex with
d1 raising the holomorphic degree and d2 the antiholomorphic one.  A twist of
rank m is the direct sum of m copies of the model.

Concrete builders: torus_model (all structure constants zero), lie_model
(from a LieModelSpec, e.g. the built-in Iwasawa one with d w^3 = -w^1 w^2)
and point_model are one exterior-model builder given no generator images or
a spec's; product_model assembles the model of a product by collapsing the
fourfold tensor grading and keeping track of how the sorted product
monomials differ by sign from the tensor basis.  Every label-indexed matrix
is built from its nonzero entries by RatMatrix.from_entries.

Each basis vector carries a label (copy, sign, I, J): the vector equals
sign * (copy, w^I wb^J).  An exterior model builds its labels with its
differentials; a twist or a product builds them on first read of labels,
since windows, Betti numbers, pages, the predictors and the model CLI's
JSON never read them.  Labels drive the multiplicative structure — the
matrix of a right wedge (behind both wedge and the cup maps), integration
against the top monomial (one top-bidegree row, read by integral and by the
duality map's Stokes check), and the duality pairing into the shifted
bigraded dual of the complementary window.
The duality map is handed to the double-complex machinery unmodified; that
its squares anticommute correctly is re-verified on every construction.
Closedness of a cup class and the Stokes check are zero tests of products,
made by linalg.products_vanish without building the product.

The predictors at the bottom are Leray-Hirsch sums of shifted windows:
Kunneth over the E_1 classes of the first factor, which must degenerate at
E_1 (kunneth_predict refuses any other), a projective bundle over the powers
of the hyperplane class, and a blowup is the ambient model plus that sum
over the center.  They are tested against actual product models.
"""

from __future__ import annotations

import warnings
from collections import Counter
from functools import cache
from itertools import combinations
from math import comb

from .bicomplex import BicomplexMap, DoubleComplex, direct_sum2, shift2
from .cochain import dual
from .errors import (
    IntegralNotClosed,
    JacobiViolation,
    NotClosed,
    ParseError,
    PreconditionViolation,
    ValidationError,
)
from .linalg import (
    RatMatrix,
    check_piece_dims,
    kernel_basis,
    products_vanish,
    rat_from,
    subquotient,
)
from .spectral import barcode, stabilization_index
from .tensorops import quad_tensor, ss_collapse
from .truncation import (
    frolicher_is_equality,
    hodge_filtration_dims,
    hypercohomology,
    truncate,
)


# -- monomial combinatorics ----------------------------------------------


def _sort_sign(seq):
    """(sign of the sorting permutation, sorted tuple); sign 0 on repeats."""
    seq = list(seq)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and seq[j - 1] == seq[j]:
            return 0, ()
    return sign, tuple(seq)


def wedge_monomials(i1, j1, i2, j2):
    """(sign, I, J) of (w^I1 wb^J1) ^ (w^I2 wb^J2); sign 0 if it vanishes."""
    s1, ii = _sort_sign((*i1, *i2))
    if not s1:
        return 0, (), ()
    s2, jj = _sort_sign((*j1, *j2))
    if not s2:
        return 0, (), ()
    sign = s1 * s2
    if (len(j1) * len(i2)) % 2:
        sign = -sign
    return sign, ii, jj


# -- structure constants --------------------------------------------------


def _token_index(tok: int, n: int) -> int:
    """Generator token to internal index: k > 0 is w^k, k < 0 is wb^{-k}."""
    if not isinstance(tok, int) or tok == 0 or abs(tok) > n:
        raise ValidationError(f"generator token {tok!r} out of range for n={n}")
    return tok - 1 if tok > 0 else n - tok - 1


class LieModelSpec:
    """Structure constants of a model: n generators plus, for each
    holomorphic generator g, the terms of d(w^g) as (token, token, coeff)
    wedges.  Conjugate images are implied and never written down.

    Any constants that pass the token checks here, and d^2 = 0 on the
    generators in lie_model, are accepted: the algebra need not be
    nilpotent, nor unimodular.  The model is then the complex of invariant
    forms of that Lie algebra, and every number is a number of that complex.
    It is a Dolbeault model of a compact quotient only where one exists and
    the invariant forms compute its cohomology, as for the nilmanifolds.  A
    non-unimodular algebra has no compact quotient: its top-degree integral
    does not vanish on every exact form, so duality_map raises
    IntegralNotClosed (the affine algebra {2: [(1, 2, 1)]} at n=2 does)."""

    __slots__ = ("n", "twist_rank", "images")

    def __init__(self, n: int, d=None, twist_rank: int = 1):
        _check_counts(n, twist_rank)
        images = {}
        for g, terms in (d or {}).items():
            g = int(g)
            if not 1 <= g <= n:
                raise ValidationError(f"no holomorphic generator {g} for n={n}")
            norm = []
            for ta, tb, coeff in terms:
                _token_index(ta, n)
                _token_index(tb, n)
                if ta == tb:
                    raise ValidationError(f"repeated factor {ta} in d(w^{g})")
                if ta < 0 and tb < 0:
                    raise ValidationError(
                        f"d(w^{g}) has a wb-wb component; not a valid model"
                    )
                c = rat_from(coeff)
                if c:
                    norm.append((ta, tb, c))
            if norm:
                images[g] = tuple(norm)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "twist_rank", twist_rank)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("LieModelSpec is immutable")

    @staticmethod
    def from_json(obj) -> "LieModelSpec":
        if not isinstance(obj, dict) or "n" not in obj:
            raise ParseError("model spec must be an object with an 'n' field")
        n, twist = obj["n"], obj.get("twist_rank", 1)
        for field, value in (("n", n), ("twist_rank", twist)):
            if type(value) is not int:  # not a float, not a bool
                raise ParseError(f"model spec field {field!r} must be an integer, got {value!r}")
        raw = obj.get("d") or {}
        if not isinstance(raw, dict):
            raise ParseError(f"model spec field 'd' must be an object, got {raw!r}")
        d = {}
        for g, terms in raw.items():
            try:
                gi = int(g)
            except (TypeError, ValueError):
                raise ParseError(f"bad generator key {g!r}") from None
            if not isinstance(terms, list):
                raise ParseError(f"d({g}) must be a list of terms, got {terms!r}")
            parsed = []
            for term in terms:
                if not isinstance(term, dict) or "wedge" not in term:
                    raise ParseError(f"bad term {term!r} in d({g})")
                wedge_toks = term["wedge"]
                if not isinstance(wedge_toks, (list, tuple)) or len(wedge_toks) != 2:
                    raise ParseError(f"wedge of d({g}) must list two generators")
                if any(type(tok) is not int for tok in wedge_toks):
                    raise ParseError(
                        f"wedge of d({g}) must list integer generators, got {wedge_toks!r}")
                parsed.append((*wedge_toks, term.get("coeff", 1)))
            d[gi] = parsed
        return LieModelSpec(n, d, twist)


def iwasawa_spec(twist_rank: int = 1) -> LieModelSpec:
    """n = 3 with d w^3 = -w^1 w^2: the standard nilmanifold example whose
    window hypercohomology is not what the column cohomology predicts."""
    return LieModelSpec(3, {3: [(1, 2, "-1")]}, twist_rank)


BUILTIN_SPECS = {"iwasawa": iwasawa_spec}


# -- the model container --------------------------------------------------


class ModelDoubleComplex:
    """A double complex together with monomial labels for its basis.

    labels[(p, q)][i] = (copy, sign, I, J) meaning basis vector i equals
    sign * w^I wb^J in copy `copy` of the twist; every nonzero piece has one
    label per basis vector.  A labels dict is checked at construction.  A
    twist or a product is handed a builder instead, which the first read of
    labels runs and checks, and whose dict is then kept.  Only the label
    calculus below reads labels (cup_map, wedge, integral, duality_map);
    windows, Betti numbers, pages, the predictors and the model CLI's JSON
    never do.  base is the rank-1 sibling used to rebuild the model at a
    different twist rank (with_twist_rank, and the untwisted cup class of
    cup_map and wedge).
    """

    __slots__ = ("n", "twist_rank", "complex", "_labels", "_base", "_lookup")

    def __init__(self, n, twist_rank, cx, labels, base=None):
        self.n = n
        self.twist_rank = twist_rank
        self.complex = cx
        # a dict, or the builder the first read of labels runs
        self._labels = labels
        # None stands for self, so a rank-1 model holds no reference cycle
        # and is freed by reference counting alone
        self._base = base
        self._lookup = {}
        if not callable(labels):
            _check_labels(cx, labels)

    @property
    def labels(self) -> dict:
        labels = self._labels
        if callable(labels):
            labels = labels()
            _check_labels(self.complex, labels)
            self._labels = labels
        return labels

    @property
    def base(self) -> "ModelDoubleComplex":
        return self if self._base is None else self._base

    def dim(self, p: int, q: int) -> int:
        return self.complex.dim(p, q)

    def lookup(self, p: int, q: int) -> dict:
        """(copy, I, J) -> (position, sign) for bidegree (p, q)."""
        key = (p, q)
        if key not in self._lookup:
            self._lookup[key] = {
                (c, i, j): (pos, s)
                for pos, (c, s, i, j) in enumerate(self.labels.get(key, ()))
            }
        return self._lookup[key]

    def with_twist_rank(self, m: int) -> "ModelDoubleComplex":
        return _twist(self.base, m)


def _check_labels(cx: DoubleComplex, labels: dict) -> None:
    """Refuse labels that do not give each nonzero piece of cx exactly one
    label per basis vector, naming the first bidegree that is off."""
    dims = cx.dims()
    for p, q in sorted(dims.keys() | labels.keys()):
        n, got = dims.get((p, q), 0), len(labels.get((p, q), ()))
        if got != n:
            raise ValidationError(
                f"label count mismatch at ({p},{q}): {got} labels for dim {n}")


def _read(source) -> dict:
    """The labels of a model's label source (its _labels): the dict itself,
    or what the builder returns.  A builder holds sources, never a model, so
    it keeps no factor and none of its memo entries alive; it keeps its
    result, so a source read by its model and by a twist or a product of it
    is built once."""
    return source() if callable(source) else source


def _check_counts(n: int, m: int) -> None:
    """Refuse a generator count n that is not an int >= 0, or a twist rank m
    that is not an int >= 1."""
    if not isinstance(n, int) or n < 0:
        raise ValidationError(f"bad generator count {n!r}")
    if not isinstance(m, int) or m < 1:
        raise ValidationError(f"bad twist rank {m!r}")


def _check_model_size(what: str, n: int, m: int) -> None:
    """Refuse bad counts and a model on n generators with twist rank m whose
    largest piece, (n//2, n//2) of dim C(n, n//2)^2 * m, exceeds the matrix
    cap, before any label or matrix is built.  what names the input."""
    _check_counts(n, m)
    if m != 1:
        what = f"{what} twist_rank={m}"
    h = n // 2
    check_piece_dims({(h, h): comb(n, h) ** 2 * m}, f"{what}: ")


def _exterior_labels(n: int) -> dict:
    return {(p, q): tuple((0, 1, i, j) for i in combinations(range(n), p)
                          for j in combinations(range(n), q))
            for p in range(n + 1) for q in range(n + 1)}


def _twist(base: ModelDoubleComplex, m: int) -> ModelDoubleComplex:
    _check_model_size(f"twist n={base.n}", base.n, m)
    if m == 1:
        return base
    source = base._labels

    @cache
    def labels():  # each piece's labels copy by copy
        return {key: tuple((c, s, i, j) for c in range(m) for (_c, s, i, j) in labs)
                for key, labs in _read(source).items()}

    return ModelDoubleComplex(base.n, m, direct_sum2([base.complex] * m), labels, base)


# -- builders -------------------------------------------------------------


def torus_model(n: int, twist_rank: int = 1) -> ModelDoubleComplex:
    """All structure constants zero: dims C(n,p)C(n,q), no differentials."""
    return _exterior_model(f"torus n={n}", n, twist_rank)


def point_model(twist_rank: int = 1) -> ModelDoubleComplex:
    return torus_model(0, twist_rank)


def _generator_images(spec: LieModelSpec) -> dict:
    """Full-index images: gen index -> ((sorted pair, coeff), ...), with the
    conjugate generators filled in by negating every token."""
    n = spec.n
    gen_d = {}
    for g, terms in spec.images.items():
        for off, flip in ((0, 1), (n, -1)):
            out = gen_d[off + g - 1] = []
            for ta, tb, c in terms:
                sg, pair = _sort_sign((_token_index(flip * ta, n), _token_index(flip * tb, n)))
                out.append((pair, c * sg))
    return gen_d


def _d_monomial(gen_d: dict, mono: tuple) -> dict:
    """Derivation on a sorted monomial: d(x_1...x_k) expanded, as a map
    sorted-monomial -> nonzero coefficient.  The inserted two-form commutes
    past everything, so only the Leibniz sign (-1)^pos appears."""
    out = {}
    for pos, g in enumerate(mono):
        rest = mono[:pos] + mono[pos + 1:]
        for pair, c in gen_d.get(g, ()):
            sg, merged = _sort_sign(pair + rest)
            if sg:
                out[merged] = out.get(merged, 0) + (c if pos % 2 == 0 else -c) * sg
    return {mono: c for mono, c in out.items() if c}


def _exterior_model(what: str, n: int, twist_rank: int,
                    gen_d=None) -> ModelDoubleComplex:
    """The exterior model on n generators whose differential extends the
    generator images gen_d (as _generator_images gives them; none, and
    every differential is zero), at the given twist rank.  what names the
    input in a refusal, which comes before any label is built."""
    _check_model_size(what, n, twist_rank)
    labels = _exterior_labels(n)
    d1, d2 = {}, {}
    if gen_d:
        index = {key: {lab[2:]: pos for pos, lab in enumerate(labs)}
                 for key, labs in labels.items()}
        for (p, q), labs in labels.items():
            up = {(p + 1, q): [], (p, q + 1): []}  # the d1 and the d2 entries
            for col, (_c, _s, i, j) in enumerate(labs):
                for tm, coeff in _d_monomial(gen_d, i + tuple(n + b for b in j)).items():
                    k = sum(g < n for g in tm)  # sorted: the w^ factors come first
                    tgt = (k, len(tm) - k)
                    up[tgt].append((index[tgt][(tm[:k], tuple(g - n for g in tm[k:]))],
                                    col, coeff))
            for d, (tgt, entries) in zip((d1, d2), up.items()):
                if entries:
                    d[(p, q)] = RatMatrix.from_entries(len(labels[tgt]), len(labs), entries)
    dims = {key: len(labs) for key, labs in labels.items()}
    base = ModelDoubleComplex(n, 1, DoubleComplex(dims, d1, d2), labels)
    return _twist(base, twist_rank)


def lie_model(spec: LieModelSpec) -> ModelDoubleComplex:
    """Model of a rational homotopy / nilmanifold type spec.  Raises
    JacobiViolation when d^2 fails on a generator."""
    n = spec.n
    gen_d = _generator_images(spec)
    for g in range(2 * n):
        dd = {}
        for pair, c in gen_d.get(g, ()):
            for mono, cc in _d_monomial(gen_d, pair).items():
                dd[mono] = dd.get(mono, 0) + c * cc
        if any(dd.values()):
            name = f"w^{g + 1}" if g < n else f"wb^{g - n + 1}"
            raise JacobiViolation(f"d^2 != 0 on generator {name}")
    return _exterior_model(f"lie n={n}", n, spec.twist_rank, gen_d)


def product_model(x: ModelDoubleComplex, y: ModelDoubleComplex) -> ModelDoubleComplex:
    """Model of the product: collapse the fourfold grading of the tensor
    product and relabel by sorted product monomials.

    Product generators: w^1..w^{nx} from x, then w^{nx+1}..w^n from y.  A
    collapsed basis vector at cell (p, q, r, s) is (x part) tensor (y part);
    as a sorted monomial it picks up (-1)^{r q} from moving the y
    holomorphic factors past the x antiholomorphic ones.
    """
    n = x.n + y.n
    m = x.twist_rank * y.twist_rank
    _check_model_size(f"product n={x.n}+{y.n}", n, m)
    quad = quad_tensor(x.complex, y.complex)
    cx = ss_collapse(quad)
    labels = _product_labels(x._labels, y._labels, x.n, y.twist_rank, quad._layout())
    base = None
    if m > 1:
        base = product_model(x.base, y.base)
    return ModelDoubleComplex(n, m, cx, labels, base)


def _product_labels(xsrc, ysrc, nx: int, ym: int, layout: dict):
    """Builder of a product's labels from the label sources of its factors,
    x's generator count nx, y's twist rank ym and the quad tensor's layout.
    Each cell (p, q, r, s) of a piece holds x's labels of (p, r) times y's
    of (q, s), x-major: copy c1 * ym + c2, sign s1 * s2 * (-1)^(r q), y's
    generators shifted past x's.  Cells sit back to back in layout order,
    so a piece's labels are its cells' concatenated, and y's labels are
    shifted once per piece, not once per cell."""

    @cache
    def build():
        xl, yl = _read(xsrc), _read(ysrc)
        shifted = {key: [(c2, s2, tuple(g + nx for g in i2), tuple(g + nx for g in j2))
                         for c2, s2, i2, j2 in labs]
                   for key, labs in yl.items()}
        labels = {}
        for kl, cells in layout.items():
            labs = []
            for (p, q, r, s), _off, _size in cells:
                flip = -1 if (r * q) % 2 else 1
                ylabs = shifted[(q, s)]
                labs += [(c1 * ym + c2, s1 * s2 * flip, i1 + i2, j1 + j2)
                         for c1, s1, i1, j1 in xl[(p, r)]
                         for c2, s2, i2, j2 in ylabs]
            labels[kl] = tuple(labs)
        return labels

    return build


# -- calculus on labels ---------------------------------------------------


def _right_wedge(model: ModelDoubleComplex, bideg, alpha_bideg,
                 alpha: RatMatrix) -> RatMatrix:
    """The matrix of x |-> x ^ alpha from bidegree bideg to bideg +
    alpha_bideg, copy by copy of the twist, for an untwisted alpha."""
    (a, b), (u, v) = bideg, alpha_bideg
    terms = [(alpha[pos, 0], s2, i2, j2)
             for pos, (_c, s2, i2, j2) in enumerate(model.base.labels.get((u, v), ()))
             if alpha[pos, 0]]
    labs = model.labels.get((a, b), ())
    look = model.lookup(a + u, b + v)
    entries = []
    for col, (c1, s1, i1, j1) in enumerate(labs):
        for coeff, s2, i2, j2 in terms:
            ws, ii, jj = wedge_monomials(i1, j1, i2, j2)
            if ws:
                pos, ts = look[(c1, ii, jj)]
                entries.append((pos, col, coeff * (s1 * s2 * ws * ts)))
    return RatMatrix.from_entries(model.dim(a + u, b + v), len(labs), entries)


def wedge(model: ModelDoubleComplex, bideg1, v1: RatMatrix, bideg2,
          v2: RatMatrix) -> RatMatrix:
    """Coordinate vector of the wedge of two untwisted elements."""
    if model.twist_rank != 1:
        raise PreconditionViolation("wedge of two twisted elements is undefined")
    return _right_wedge(model, bideg1, bideg2, v2) @ v1


def _top_row(model: ModelDoubleComplex) -> RatMatrix:
    """The integral as a 1 x dim(n, n) row: the sign of each top-bidegree
    basis vector against the fundamental monomial of its twist copy."""
    n = model.n
    labels = model.labels[(n, n)]
    return RatMatrix.from_entries(
        1, len(labels), ((0, col, s) for col, (_c, s, _i, _j) in enumerate(labels)))


def integral(model: ModelDoubleComplex, v: RatMatrix):
    """Pairing of a top-bidegree element against the fundamental monomial,
    summed over twist copies."""
    n = model.n
    if v.rows != model.dim(n, n):
        raise ValidationError("integral needs an (n, n) coordinate vector")
    return (_top_row(model) @ v)[0, 0]


def cup_map(model: ModelDoubleComplex, window: tuple, alpha_bidegree,
            alpha: RatMatrix) -> BicomplexMap:
    """Right wedge by a closed untwisted form of bidegree (u, v), as a map
    of truncations from window (s, t) to window (s+u, t+u) regraded back.
    Raises NotClosed unless d1 alpha = d2 alpha = 0."""
    u, v = alpha_bidegree
    base = model.base
    if alpha.shape != (base.dim(u, v), 1):
        raise ValidationError("cup class has the wrong shape")
    if not products_vanish((base.complex.d1(u, v), alpha)):
        raise NotClosed("cup class is not d1-closed")
    if not products_vanish((base.complex.d2(u, v), alpha)):
        raise NotClosed("cup class is not d2-closed")
    s, t = window
    src = truncate(model.complex, (s, t))
    tgt = shift2(truncate(model.complex, (s + u, t + u)), u, v)
    mats = {(a, b): _right_wedge(model, (a, b), (u, v), alpha)
            for a, b in src.dims() if model.dim(a + u, b + v)}
    return BicomplexMap(src, tgt, mats)


def duality_map(model: ModelDoubleComplex, window: tuple) -> BicomplexMap:
    """x |-> integral(x ^ -) from the window (s, t) into the regraded
    bigraded dual of the complementary window (n-t, n-s).

    Requires the top-degree Stokes identities (IntegralNotClosed otherwise);
    given those, the pairing matrices commute with the stored dual
    differentials exactly, which the map constructor re-checks.
    """
    n = model.n
    s, t = window
    top = _top_row(model)
    for (a, b), dmat in (((n - 1, n), model.complex.d1(n - 1, n)),
                         ((n, n - 1), model.complex.d2(n, n - 1))):
        if not products_vanish((top, dmat)):
            raise IntegralNotClosed(f"top-degree form with nonzero d-integral at ({a},{b})")
    src = truncate(model.complex, (s, t))
    tgt = shift2(dual(truncate(model.complex, (n - t, n - s))), -n, -n)
    mats = {}
    for (a, b), cols in src.dims().items():
        comp_look = model.lookup(n - a, n - b)
        entries = []
        for col, (c, s1, i1, j1) in enumerate(model.labels[(a, b)]):
            ic = tuple(g for g in range(n) if g not in i1)
            jc = tuple(g for g in range(n) if g not in j1)
            ws, _ii, _jj = wedge_monomials(i1, j1, ic, jc)
            pos, s2 = comp_look[(c, ic, jc)]
            entries.append((pos, col, s1 * s2 * ws))
        mats[(a, b)] = RatMatrix.from_entries(model.dim(n - a, n - b), cols, entries)
    return BicomplexMap(src, tgt, mats)


def bott_chern_dim(k: DoubleComplex, p: int, q: int) -> int:
    """dim (ker d1 cap ker d2) / im d1 d2 at (p, q)."""
    if k.dim(p, q) == 0:
        return 0
    z1 = kernel_basis(k.d1(p, q))  # ker d2 on ker d1: no stacked [d1; d2]
    cycles = z1 @ kernel_basis(k.d2(p, q) @ z1)
    boundaries = k.d1(p - 1, q) @ k.d2(p - 1, q - 1)
    return subquotient(cycles, boundaries).dim


# -- dimension predictors -------------------------------------------------


def kunneth_predict(x: ModelDoubleComplex, y: ModelDoubleComplex,
                    window: tuple, c: int) -> int:
    """Predicted dim H^c of the product in the window: Leray-Hirsch over y
    with x's E_1 classes.  A theorem when x degenerates at E_1
    (stabilization index 1, a torus or the point), as x is then
    E_1-isomorphic to those classes; otherwise raises PreconditionViolation.
    With no pair of positive length, the unpaired elements of x's barcode by
    bidegree are exactly its E_1 classes, so x is read once.  The second
    factor is unconstrained."""
    stable = stabilization_index(x.complex)
    if stable != 1:
        raise PreconditionViolation(
            f"kunneth needs a first factor that degenerates at E_1, but the "
            f"first factor's spectral sequence stabilizes at page {stable}")
    return leray_hirsch_predict(y, window, c, barcode(x.complex).unpaired)


def leray_hirsch_predict(x: ModelDoubleComplex, window: tuple, k: int,
                         classes) -> int:
    """Free-module prediction for a fiber bundle whose fiber cohomology is
    spanned by global classes of bidegrees (u_i, v_i), listed (a repeat is
    read once) or mapped to their multiplicities."""
    s, t = window
    return sum(m * hypercohomology(x.complex, (s - u, t - u), k - u - v)
               for (u, v), m in Counter(classes).items())


def _check_bundle_rank(r: int) -> None:
    if r < 1:
        raise PreconditionViolation(f"bundle rank must be positive, got {r}")


def projective_bundle_predict(x: ModelDoubleComplex, window: tuple, k: int,
                              r: int) -> int:
    """Projectivized rank-r bundle: Leray-Hirsch over the powers h^i,
    i < r, of the hyperplane class, of bidegree (i, i)."""
    _check_bundle_rank(r)
    return leray_hirsch_predict(x, window, k, [(i, i) for i in range(r)])


def blowup_predict(x: ModelDoubleComplex, y: ModelDoubleComplex,
                   window: tuple, k: int, r: int) -> int:
    """Blowup of x along a center modeled by y of codimension r >= 2: x
    plus Leray-Hirsch over y with the classes (i, i), 0 < i < r."""
    if r < 2:
        raise PreconditionViolation(f"codimension must be at least 2, got {r}")
    if y.n + r != x.n:
        warnings.warn(
            f"center dimension {y.n} + codimension {r} != ambient {x.n}",
            stacklevel=2,
        )
    return hypercohomology(x.complex, window, k) + leray_hirsch_predict(
        y, window, k, [(i, i) for i in range(1, r)])


def degeneration_equivalence(x: ModelDoubleComplex, r: int) -> dict:
    """Window degeneration of a projectivized rank-r bundle versus its base.

    The bundle flag of window (s, t) is the conjunction of the base flags of
    the windows (s-i, t-i), i < r, clamped to the base range; the aggregates
    over all windows agree, and the returned dict shows both sides.
    """
    _check_bundle_rank(r)
    n = x.n
    base = {}
    for s in range(n + 1):
        for t in range(s, n + 1):
            base[(s, t)] = frolicher_is_equality(x.complex, (s, t))

    def base_flag(s, t):
        s, t = max(s, 0), min(t, n)
        return base[(s, t)] if s <= t else True

    nb = n + r - 1
    bundle = {}
    for s in range(nb + 1):
        for t in range(s, nb + 1):
            bundle[(s, t)] = all(base_flag(s - i, t - i) for i in range(r))
    base_all = all(base.values())
    bundle_all = all(bundle.values())
    return {
        "base_windows": base,
        "bundle_windows": bundle,
        "base_all": base_all,
        "bundle_all": bundle_all,
        "equivalent": base_all == bundle_all,
    }


def hodge_filtration_projective_predict(x: ModelDoubleComplex, k: int,
                                        r: int) -> list:
    """Filtration image dimensions of a projectivized rank-r bundle, from
    the base filtration with clamped index shifts."""
    _check_bundle_rank(r)
    n = x.n
    nb = n + r - 1
    layers = [hodge_filtration_dims(x.complex, k - 2 * i, n) for i in range(r)]
    out = []
    for p in range(nb + 2):
        out.append(
            sum(layers[i][min(max(p - i, 0), n + 1)] for i in range(r))
        )
    return out
