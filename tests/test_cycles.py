"""Objects the engine builds again and again are freed by reference counting
alone: no model and no command-line parser is left for the cycle collector."""

import argparse
import gc
from weakref import ref

import pytest

from spectra_dr import cli
from spectra_dr.linalg import clear_caches
from spectra_dr.models import iwasawa_spec, lie_model, product_model, torus_model
from spectra_dr.tensorops import quad_tensor, ss_collapse


@pytest.fixture
def no_collector():
    """Collect what is pending, then keep the collector off; collect with
    DEBUG_SAVEALL afterwards to see what only the collector would free."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _build_and_drop():
    torus_model(1)
    lie_model(iwasawa_spec())
    product_model(torus_model(1), lie_model(iwasawa_spec()))


def test_models_hold_no_reference_cycle(no_collector):
    _build_and_drop()
    assert gc.collect() == 0


def test_base_is_the_rank_one_model():
    t = torus_model(1)
    assert t.base is t and t.with_twist_rank(1) is t
    t2 = torus_model(1, 2)
    assert t2.base is not t2 and t2.base.twist_rank == 1
    assert t2.with_twist_rank(2).complex == t2.complex
    p = product_model(t2, torus_model(1))
    assert p.base.twist_rank == 1 and p.base.base is p.base


@pytest.mark.parametrize("factors", [((1, 1), None), ((1, 2), None), (None, (1, 2))],
                         ids=["T1xIW", "T1:2xIW", "IWxT1:2"])
def test_a_product_keeps_no_memo_entry_and_goes_with_its_last_reference(no_collector,
                                                                         factors):
    """The label builder holds label sources and a layout, never a factor:
    while a product of temporary factors (a torus, or IW for None) lives,
    the quad tensors of it and of its base, and their collapses, are filed
    under nothing alive, and once it goes nothing of it is left, with the
    collector off."""
    clear_caches()
    x, y = (lie_model(iwasawa_spec()) if f is None else torus_model(*f) for f in factors)
    prod = product_model(x, y)
    factor_probes = [ref(x.complex), ref(x.base.complex), ref(y.complex), ref(y.base.complex)]
    del x, y
    assert (quad_tensor.cache_info().currsize, ss_collapse.cache_info().currsize) == (0, 0)
    assert [probe() for probe in factor_probes] == [None] * 4
    probes = [ref(prod.complex), ref(prod.base.complex)]
    del prod
    assert [probe() for probe in probes] == [None] * 2
    assert (quad_tensor.cache_info().currsize, ss_collapse.cache_info().currsize) == (0, 0)


def _quiet_main(capsys, *argv):
    try:
        rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_main_leaves_no_argparse_cycle(capsys, no_collector):
    _quiet_main(capsys, "model", "torus", "--n", "1", "--info")
    gc.collect()  # building the parser itself leaves formatter cycles, once
    gc.set_debug(gc.DEBUG_SAVEALL)
    for _ in range(2):
        _quiet_main(capsys, "model", "torus", "--n", "1", "--info")
    gc.collect()
    left = [o for o in gc.garbage if type(o).__module__ == argparse.__name__]
    assert not left
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("spectral",),
    ("spectral", "--help"),
    ("model", "torus"),
    ("predict", "nope", "--x", "torus:1", "--window", "0,1", "--degree", "0"),
    ("verify", "--suite", "nope"),
    ("--version",),
])
def test_usage_and_errors_are_those_of_a_fresh_parser(capsys, argv):
    first = _quiet_main(capsys, *argv)
    second = _quiet_main(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(list(argv))
    out = capsys.readouterr()
    assert first == second == (exc.value.code, out.out, out.err)
    assert first[1] or first[2]
