"""Model witnesses for the bundle and blowup predictors of criterion 10.

Criterion 10 checks the Leray-Hirsch, projective-bundle and blowup formulas
against each other.  These tests check them against complexes:

- positive control: T1 x IW is a trivial T1-bundle over IW, whose fibre
  classes (0,0), (1,0), (0,1), (1,1) extend, and the Leray-Hirsch prediction
  equals the product model on every window;
- negative control: Iwasawa is a T1-bundle over T2 whose fibre class does
  not extend (d w3 = -w1 w2), and the same prediction fails on it, so the
  hypothesis of the theorem is load-bearing;
- blowup bookkeeping: the formal sum A_X + sum_{i=1}^{r-1} A_Z[i,i], built
  with direct_sum2 and shift2, matches blowup_predict on every window.  This
  checks the index bookkeeping (s-i, t-i, k-2i) only; it is not a model of a
  geometric blowup.
"""

from spectra_dr.bicomplex import direct_sum2, shift2
from spectra_dr.models import (
    blowup_predict,
    hyper,
    iwasawa_spec,
    leray_hirsch_predict,
    lie_model,
    point_model,
    product_model,
    torus_model,
)
from spectra_dr.truncation import hypercohomology

T1_CLASSES = [(0, 0), (1, 0), (0, 1), (1, 1)]


def _windows(n):
    """Every (window, degree) pair of an n-dimensional model."""
    return [((s, t), k) for s in range(n + 1) for t in range(s, n + 1)
            for k in range(2 * n + 1)]


def test_leray_hirsch_equals_the_trivial_bundle_model():
    iw = lie_model(iwasawa_spec())
    e = product_model(torus_model(1), iw)
    pairs = _windows(e.n)
    assert len(pairs) == 135
    for w, k in pairs:
        assert hyper(e, w, k) == leray_hirsch_predict(iw, w, k, T1_CLASSES), (w, k)


def test_leray_hirsch_fails_when_the_fibre_class_does_not_extend():
    iw = lie_model(iwasawa_spec())
    t2 = torus_model(2)
    misses = [(w, k, leray_hirsch_predict(t2, w, k, T1_CLASSES), hyper(iw, w, k))
              for w, k in _windows(iw.n)
              if leray_hirsch_predict(t2, w, k, T1_CLASSES) != hyper(iw, w, k)]
    assert len(_windows(iw.n)) == 70
    assert len(misses) == 34
    assert misses[0] == ((0, 0), 1, 3, 2)


def test_blowup_predict_matches_the_formal_sum():
    iw, t1, t2 = lie_model(iwasawa_spec()), torus_model(1), torus_model(2)
    for x, z, r in ((iw, t1, 2), (t2, point_model(), 2), (iw, point_model(), 3)):
        formal = direct_sum2([x.complex] + [shift2(z.complex, -i, -i) for i in range(1, r)])
        for w, k in _windows(x.n):
            assert hypercohomology(formal, w, k) == blowup_predict(x, z, w, k, r), (w, k)
