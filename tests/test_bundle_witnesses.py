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

The window dimensions of the complexes are dense ranks (dense.py).
"""

from dense import windows
from ladder import inner_windows, ladder, ladder_windows

from spectra_dr.bicomplex import direct_sum2, shift2
from spectra_dr.models import blowup_predict, leray_hirsch_predict

T1_CLASSES = [(0, 0), (1, 0), (0, 1), (1, 1)]


def _pairs(n):
    """Every (window, degree) pair of an n-dimensional model."""
    return [(w, k) for w in inner_windows(0, n) for k in range(2 * n + 1)]


def test_leray_hirsch_equals_the_trivial_bundle_model():
    iw, e, dims = ladder()["IW"], ladder()["T1xIW"], ladder_windows("T1xIW")
    pairs = _pairs(e.n)
    assert len(pairs) == 135
    for w, k in pairs:
        assert dims(*w).get(k, 0) == leray_hirsch_predict(iw, w, k, T1_CLASSES), (w, k)


def test_leray_hirsch_fails_when_the_fibre_class_does_not_extend():
    iw, t2, dims = ladder()["IW"], ladder()["T2"], ladder_windows("IW")
    misses = [(w, k, leray_hirsch_predict(t2, w, k, T1_CLASSES), dims(*w).get(k, 0))
              for w, k in _pairs(iw.n)
              if leray_hirsch_predict(t2, w, k, T1_CLASSES) != dims(*w).get(k, 0)]
    assert len(_pairs(iw.n)) == 70
    assert len(misses) == 34
    assert misses[0] == ((0, 0), 1, 3, 2)


def test_blowup_predict_matches_the_formal_sum():
    iw, t1, t2, pt = (ladder()[name] for name in ("IW", "T1", "T2", "pt"))
    for x, z, r in ((iw, t1, 2), (t2, pt, 2), (iw, pt, 3)):
        formal = direct_sum2([x.complex] + [shift2(z.complex, -i, -i) for i in range(1, r)])
        dims = windows(formal)
        for w, k in _pairs(x.n):
            assert dims(*w).get(k, 0) == blowup_predict(x, z, w, k, r), (w, k)
