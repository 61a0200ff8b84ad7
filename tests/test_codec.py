"""The JSON codec of every kind of complex: CochainComplex, DoubleComplex
and QuadComplex write and read through GradedComplex.to_json/from_json and
its one key parser.  What is written is checked against what the complex
holds (the fields of its kind in order, keys ascending), reading inverts
writing, and every malformed input of the per-class bodies the codec
replaced is still a ParseError; the model bytes are pinned by the CLI
digests.  Also the refusals of JSON booleans and floats where an integer is
meant."""

import json
import random
import re

import pytest
from ladder import ladder

from spectra_dr.bicomplex import DoubleComplex, shift2
from spectra_dr.cochain import CochainComplex, shift
from spectra_dr.errors import ParseError, ValidationError
from spectra_dr.linalg import RatMatrix
from spectra_dr.models import LieModelSpec, iwasawa_spec, lie_model, torus_model
from spectra_dr.randgen import random_complex, random_double_complex
from spectra_dr.tensorops import QuadComplex, quad_tensor

# -- what the codec writes ---------------------------------------------------

# the fields each kind writes, in order: its leading fields, the pieces, and
# one field of blocks per differential
FIELDS = {
    CochainComplex: ["lo", "hi", "dims", "diffs"],
    DoubleComplex: ["support", "dims", "d1", "d2"],
    QuadComplex: ["dims", "d1", "d2", "d3", "d4"],
}


def _key(text):
    """A written key read back: the int, or the tuple of ints."""
    parts = tuple(int(x) for x in text.split(","))
    return parts[0] if len(parts) == 1 else parts


def _check_written(x, obj):
    """obj is x's JSON: the fields of its kind in order, the support or the
    degree range first, then every piece and every stored block under its
    key, keys ascending, each block as its matrix's JSON."""
    assert list(obj) == FIELDS[type(x)]
    if type(x) is CochainComplex:
        assert (obj["lo"], obj["hi"]) == (x.lo, x.hi)
    elif type(x) is DoubleComplex:
        assert obj["support"] == [x.p_lo, x.p_hi, x.q_lo, x.q_hi]
    written = [obj["dims"]] + [obj[f] for f in FIELDS[type(x)][-len(x._diffs):]]
    stored = [x._dims] + [{k: m.to_json() for k, m in d.items()} for d in x._diffs]
    for got, want in zip(written, stored):
        keys = [_key(text) for text in got]
        assert keys == sorted(want)
        assert list(got.values()) == [want[k] for k in keys]


# -- the complexes ----------------------------------------------------------


def seeded_complexes():
    rng = random.Random(1500)
    out = [CochainComplex({}), DoubleComplex({}), QuadComplex({})]
    for i in range(300):
        k = random_complex(rng, max_dim=rng.randint(0, 4), span=rng.randint(1, 5))
        out.append(shift(k, rng.randint(-3, 3)) if i % 3 == 0 else k)
        d = random_double_complex(rng, rng.randint(1, 4), rng.randint(1, 4))
        out.append(shift2(d, rng.randint(-2, 2), rng.randint(-2, 2)) if i % 3 == 0 else d)
    for _ in range(16):
        k = random_double_complex(rng, rng.randint(1, 2), rng.randint(1, 2), blocks=2)
        l = random_double_complex(rng, rng.randint(1, 2), rng.randint(1, 2), blocks=2)
        out.append(quad_tensor(k, l))
    return out


def ladder_complexes():
    models = ladder()
    return [models[name].complex for name in ("IW", "T1xIW", "T2xIW", "IWxIW", "IW:2")] + [
        quad_tensor(models["T1"].complex, models["IW"].complex)]


@pytest.fixture(scope="module")
def complexes():
    return seeded_complexes() + ladder_complexes()


def test_the_sample_has_every_kind_negative_keys_and_empty_complexes(complexes):
    kinds = {type(x) for x in complexes}
    assert kinds == {CochainComplex, DoubleComplex, QuadComplex}
    assert sum(isinstance(x, QuadComplex) for x in complexes) >= 17
    assert any(x.is_zero() for x in complexes if type(x) is CochainComplex)
    assert any(x.is_zero() for x in complexes if type(x) is DoubleComplex)
    negative = [x for x in complexes
                if any(min((k,) if type(k) is int else k) < 0 for k in x._dims)]
    assert {type(x) for x in negative} == kinds


def test_to_json_writes_the_former_bytes(complexes):
    for x in complexes:
        # no sort_keys: the field order and the key order are checked too
        _check_written(x, json.loads(json.dumps(x.to_json())))


def test_from_json_inverts_to_json_as_the_former_bodies_did(complexes):
    for x in complexes:
        text = json.dumps(x.to_json())
        back = type(x).from_json(json.loads(text))
        assert back == x
        assert back.dims() == x.dims()
        assert json.dumps(back.to_json()) == text


M1 = {"rows": 1, "cols": 1, "entries": [["1"]]}

MALFORMED = {
    CochainComplex: [
        [], "x", {"lo": 0}, {"dims": []}, {"dims": {"x": 1}}, {"dims": {"1.5": 1}},
        {"dims": {"0,1": 1}}, {"dims": {(0,): 1}}, {"dims": {"0": 1}, "diffs": []},
        {"dims": {"0": 1}, "diffs": None}, {"dims": {"0": 1, "1": 1}, "diffs": {"0": "nope"}},
        {"dims": {"0": 1, "1": 1}, "diffs": {"a": M1}},
        {"dims": {"0": 1, "1": 1}, "diffs": {"0": {"rows": 1}}},
    ],
    DoubleComplex: [
        [], 7, {"support": [0, 0, 0, 0]}, {"dims": []}, {"dims": {"nope": 1}},
        {"dims": {"0,0,0": 1}}, {"dims": {"0": 1}}, {"dims": {"a,b": 1}},
        {"dims": {(0, 0): 1}}, {"dims": {"0,0": 1}, "d1": []}, {"dims": {"0,0": 1}, "d2": None},
        {"dims": {"0,0": 1, "1,0": 1}, "d1": {"0,0": {"rows": 1}}},
        {"dims": {"0,0": 1, "1,0": 1}, "d1": {"0;0": M1}},
    ],
    QuadComplex: [
        3, {"d1": {}}, {"dims": []}, {"dims": {"0,0,0": 1}}, {"dims": {"0,0,0,x": 1}},
        {"dims": {"0,0,0,0,0": 1}}, {"dims": {"0,0,0,0": 1}, "d3": 5},
        {"dims": {"0,0,0,0": 1, "1,0,0,0": 1}, "d1": {"0,0,0": M1}},
    ],
}


@pytest.mark.parametrize("cls,obj", [(cls, obj) for cls, objs in MALFORMED.items()
                                     for obj in objs])
def test_every_former_parse_error_is_still_a_parse_error(cls, obj):
    with pytest.raises(ParseError):
        cls.from_json(obj)


def test_key_errors_name_the_kind():
    with pytest.raises(ParseError, match=re.escape("bad double complex key 'a,b'")):
        DoubleComplex.from_json({"dims": {"a,b": 1}})
    with pytest.raises(ParseError, match=re.escape("quad complex key '0,0,0' has 3 components, expected 4")):
        QuadComplex.from_json({"dims": {"0,0,0": 1}})
    with pytest.raises(ParseError, match=re.escape("cochain key '0,1' has 2 components, expected 1")):
        CochainComplex.from_json({"dims": {"0,1": 1}})
    with pytest.raises(ParseError, match=re.escape("double complex JSON must be an object with a 'dims' key")):
        DoubleComplex.from_json({"support": [0, 0, 0, 0]})


def test_the_double_complex_codec_is_bound_on_the_class_itself():
    """benchmarks/tracing.py wraps DoubleComplex.from_json (a staticmethod)
    and DoubleComplex.to_json through DoubleComplex.__dict__, and puts the
    originals back."""
    own = DoubleComplex.__dict__
    assert isinstance(own["from_json"], staticmethod)
    assert callable(own["to_json"])
    calls = []

    def wrap(fn):
        def wrapper(*args):
            calls.append(fn)
            return fn(*args)
        return wrapper

    k = torus_model(1).complex
    from_json, to_json = own["from_json"], own["to_json"]
    DoubleComplex.from_json = staticmethod(wrap(from_json.__func__))
    DoubleComplex.to_json = wrap(to_json)
    try:
        assert DoubleComplex.from_json(k.to_json()) == k
    finally:
        DoubleComplex.from_json, DoubleComplex.to_json = from_json, to_json
    assert calls == [to_json, from_json.__func__]
    assert DoubleComplex.__dict__["from_json"] is from_json
    # the other kinds keep the core's codec
    assert "from_json" not in CochainComplex.__dict__
    assert "from_json" not in QuadComplex.__dict__


# -- booleans and floats where an integer is meant --------------------------


def test_a_boolean_piece_dimension_is_refused():
    with pytest.raises(ValidationError, match=re.escape("bad dimension at (0,0): True")):
        DoubleComplex.from_json({"dims": {"0,0": True, "1,0": 1}})
    with pytest.raises(ValidationError, match=re.escape("bad dimension at degree 1: False")):
        CochainComplex.from_json({"dims": {"0": 1, "1": False}})
    with pytest.raises(ValidationError, match=re.escape("bad dimension at (0, 0, 0, 0): True")):
        QuadComplex({(0, 0, 0, 0): True})
    with pytest.raises(ValidationError, match="bad dimension"):
        CochainComplex({0: 1.0})


@pytest.mark.parametrize("obj", [
    {"rows": True, "cols": True, "entries": [["3"]]},
    {"rows": 1, "cols": True, "entries": [["3"]]},
    {"rows": False, "cols": 0, "entries": []},
    {"rows": 1.0, "cols": 1, "entries": [["3"]]},
])
def test_a_boolean_or_float_matrix_shape_is_refused(obj):
    with pytest.raises(ParseError, match="matrix rows/cols must be integers"):
        RatMatrix.from_json(obj)


@pytest.mark.parametrize("cls,obj,kind,message", [
    (CochainComplex, {"dims": {"0": 1}, "diffs": None}, ParseError,
     "bad cochain JSON: field 'diffs' must be an object, got None"),
    (DoubleComplex, {"dims": [], "d1": {}}, ParseError,
     "bad double complex JSON: field 'dims' must be an object, got []"),
    (QuadComplex, {"dims": {}, "d3": "x"}, ParseError,
     "bad quad complex JSON: field 'd3' must be an object, got 'x'"),
    (CochainComplex, {"dims": {"0": 1}, "diffs": {"0": {"rows": 1, "cols": 1}}}, ParseError,
     "bad cochain JSON: diffs at degree 0: matrix JSON missing key 'entries'"),
    (DoubleComplex, {"dims": {}, "d2": {"1,-1": {"rows": 1, "cols": 2, "entries": [["1"]]}}},
     ValidationError, "bad double complex JSON: d2 at (1,-1): ragged rows in matrix literal"),
])
def test_a_parse_error_names_the_field_and_the_block(cls, obj, kind, message):
    with pytest.raises(kind) as info:
        cls.from_json(obj)
    assert type(info.value) is kind and str(info.value) == message


IW_TERM = {"wedge": [1, 2], "coeff": "-1"}


@pytest.mark.parametrize("obj,field", [
    ({"n": 3.9, "d": {"3": [IW_TERM]}}, "'n'"),
    ({"n": True, "d": {}}, "'n'"),
    ({"n": "3", "d": {"3": [IW_TERM]}}, "'n'"),
    ({"n": 3, "twist_rank": True, "d": {"3": [IW_TERM]}}, "'twist_rank'"),
    ({"n": 3, "twist_rank": 2.0, "d": {"3": [IW_TERM]}}, "'twist_rank'"),
    ({"n": 3, "d": {"3": [{"wedge": [1.7, 2], "coeff": "-1"}]}}, "wedge of d(3)"),
    ({"n": 3, "d": {"3": [{"wedge": [True, 2], "coeff": "-1"}]}}, "wedge of d(3)"),
    ({"n": 3, "d": {"3": [{"wedge": ["1", 2], "coeff": "-1"}]}}, "wedge of d(3)"),
])
def test_spec_integers_must_be_json_integers(obj, field):
    with pytest.raises(ParseError, match=re.escape(field)):
        LieModelSpec.from_json(obj)


def test_a_spec_of_json_integers_still_reads():
    spec = LieModelSpec.from_json({"n": 3, "twist_rank": 2, "d": {"3": [IW_TERM]}})
    assert (spec.n, spec.twist_rank, spec.images) == (3, 2, iwasawa_spec(2).images)
    assert lie_model(spec).complex == lie_model(iwasawa_spec(2)).complex
