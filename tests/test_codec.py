"""The JSON codec of every kind of complex against the per-class bodies it
replaced: CochainComplex, DoubleComplex and QuadComplex write and read
through GradedComplex.to_json/from_json and its one key parser, and must
give the bytes, the complexes and the ParseErrors the hand-written bodies
gave.  Also the refusals of JSON booleans and floats where an integer is
meant."""

import json
import random
import re

import pytest

from spectra_dr.bicomplex import BicomplexMap, DoubleComplex, identity_bicomplex_map, shift2
from spectra_dr.cochain import ChainMap, CochainComplex, identity_chain_map, shift
from spectra_dr.errors import ParseError, ValidationError
from spectra_dr.linalg import RatMatrix
from spectra_dr.models import LieModelSpec, iwasawa_spec, lie_model, product_model, torus_model
from spectra_dr.randgen import random_complex, random_double_complex
from spectra_dr.tensorops import QuadComplex, quad_tensor

# -- the hand-written bodies, kept as oracles -------------------------------


def old_blocks_json(blocks, key_str):
    return {key_str(k): m.to_json() for k, m in sorted(blocks.items())}


def pair_str(key):
    return ",".join(map(str, key))


def old_cochain_to_json(k):
    return {
        "lo": k.lo,
        "hi": k.hi,
        "dims": {str(d): n for d, n in sorted(k._dims.items())},
        "diffs": old_blocks_json(k._diffs[0], str),
    }


def old_double_to_json(k):
    return {
        "support": [k.p_lo, k.p_hi, k.q_lo, k.q_hi],
        "dims": {f"{p},{q}": n for (p, q), n in sorted(k._dims.items())},
        "d1": old_blocks_json(k._diffs[0], pair_str),
        "d2": old_blocks_json(k._diffs[1], pair_str),
    }


def old_quad_to_json(a):
    out = {"dims": {pair_str(key): n for key, n in sorted(a._dims.items())}}
    for name, d in zip(("d1", "d2", "d3", "d4"), a._diffs):
        out[name] = old_blocks_json(d, pair_str)
    return out


def old_cochain_from_json(obj):
    if not isinstance(obj, dict) or "dims" not in obj:
        raise ParseError("cochain JSON must be an object with a 'dims' key")
    try:
        dims = {int(k): v for k, v in obj["dims"].items()}
        diffs = {int(k): RatMatrix.from_json(v) for k, v in obj.get("diffs", {}).items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"bad cochain JSON: {exc}") from None
    return CochainComplex(dims, diffs)


def old_pq_key(s):
    try:
        p, q = s.split(",")
        return (int(p), int(q))
    except (ValueError, AttributeError) as exc:
        raise ParseError(f"bad bidegree key {s!r}: {exc}") from None


def old_double_from_json(obj):
    if not isinstance(obj, dict) or "dims" not in obj:
        raise ParseError("double complex JSON must be an object with 'dims'")
    try:
        dims = {old_pq_key(k): v for k, v in obj["dims"].items()}
        d1 = {old_pq_key(k): RatMatrix.from_json(v) for k, v in obj.get("d1", {}).items()}
        d2 = {old_pq_key(k): RatMatrix.from_json(v) for k, v in obj.get("d2", {}).items()}
    except AttributeError as exc:
        raise ParseError(f"bad double complex JSON: {exc}") from None
    return DoubleComplex(dims, d1, d2)


def old_pqrs_key(s):
    try:
        parts = [int(x) for x in s.split(",")]
    except (ValueError, AttributeError) as exc:
        raise ParseError(f"bad quad key {s!r}: {exc}") from None
    if len(parts) != 4:
        raise ParseError(f"quad key needs 4 components, got {s!r}")
    return tuple(parts)


def old_quad_from_json(obj):
    if not isinstance(obj, dict) or "dims" not in obj:
        raise ParseError("quad complex JSON must be an object with 'dims'")
    try:
        dims = {old_pqrs_key(k): v for k, v in obj["dims"].items()}
        ds = [{old_pqrs_key(k): RatMatrix.from_json(v) for k, v in obj.get(f"d{i}", {}).items()}
              for i in range(1, 5)]
    except AttributeError as exc:
        raise ParseError(f"bad quad complex JSON: {exc}") from None
    return QuadComplex(dims, *ds)


OLD = {
    CochainComplex: (old_cochain_to_json, old_cochain_from_json),
    DoubleComplex: (old_double_to_json, old_double_from_json),
    QuadComplex: (old_quad_to_json, old_quad_from_json),
}

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
    t1, t2, iw = torus_model(1), torus_model(2), lie_model(iwasawa_spec())
    return [iw.complex, product_model(t1, iw).complex, product_model(t2, iw).complex,
            product_model(iw, iw).complex, lie_model(iwasawa_spec(2)).complex,
            quad_tensor(t1.complex, iw.complex)]


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
        old_to_json, _ = OLD[type(x)]
        # no sort_keys: the field order and the key order are compared too
        assert json.dumps(x.to_json()) == json.dumps(old_to_json(x))


def test_from_json_inverts_to_json_as_the_former_bodies_did(complexes):
    for x in complexes:
        _, old_from_json = OLD[type(x)]
        obj = json.loads(json.dumps(x.to_json()))
        back = type(x).from_json(obj)
        assert back == x == old_from_json(obj)
        assert back.dims() == x.dims()
        assert json.dumps(back.to_json()) == json.dumps(x.to_json())


def test_maps_round_trip_through_the_key_parser():
    k = random_complex(random.Random(3), span=4)
    f = identity_chain_map(shift(k, -2))
    assert ChainMap.from_json(json.loads(json.dumps(f.to_json()))) == f
    d = shift2(random_double_complex(random.Random(4)), -3, 1)
    g = identity_bicomplex_map(d)
    assert BicomplexMap.from_json(json.loads(json.dumps(g.to_json()))) == g


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
    _, old_from_json = OLD[cls]
    with pytest.raises(ParseError):
        old_from_json(obj)
    with pytest.raises(ParseError):
        cls.from_json(obj)


@pytest.mark.parametrize("cls,space,key", [
    (ChainMap, CochainComplex({0: 1}), "x"), (ChainMap, CochainComplex({0: 1}), "0,0"),
    (BicomplexMap, DoubleComplex({(0, 0): 1}), "0"),
    (BicomplexMap, DoubleComplex({(0, 0): 1}), "0,q"),
])
def test_map_keys_go_through_the_same_parser(cls, space, key):
    with pytest.raises(ParseError):
        cls.from_json({"source": space.to_json(), "target": space.to_json(), "mats": {key: M1}})


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
