"""The elementary shapes of randgen: their pieces, in the order that decides
the base-change draws of random_double_complex, and their unit arrows."""

import hashlib
import json
import random

import pytest

from spectra_dr.randgen import (
    _dot,
    _hseg,
    _square,
    _staircase,
    _vseg,
    _zigzag,
    random_double_complex,
)


def arrows(stored: dict) -> list:
    return [(key, m.shape, m[0, 0]) for key, m in stored.items()]


@pytest.mark.parametrize("shape, pieces, d1, d2", [
    (_dot(0, 0), [(0, 0)], {}, {}),
    (_hseg(0, 0), [(0, 0), (1, 0)], {(0, 0): 1}, {}),
    (_vseg(0, 0), [(0, 0), (0, 1)], {}, {(0, 0): 1}),
    # the square anticommutes through its one -1 arrow, d2 out of (1,0)
    (_square(0, 0), [(0, 0), (1, 0), (0, 1), (1, 1)],
     {(0, 0): 1, (0, 1): 1}, {(0, 0): 1, (1, 0): -1}),
    # sources (0,2), (1,1), (2,0), then the sinks (1,2), (2,1)
    (_zigzag(0, 2, 2), [(0, 2), (1, 1), (2, 0), (1, 2), (2, 1)],
     {(0, 2): 1, (1, 1): 1}, {(1, 1): 1, (2, 0): 1}),
    # x, w, then each m_i above its v_i
    (_staircase(0, 0, 3), [(0, 2), (3, 0), (1, 2), (1, 1), (2, 1), (2, 0)],
     {(0, 2): 1, (1, 1): 1, (2, 0): 1}, {(1, 1): 1, (2, 0): 1}),
], ids=["dot", "hseg", "vseg", "square", "zigzag", "staircase"])
def test_shapes_keep_their_piece_order_and_arrows(shape, pieces, d1, d2):
    # lists, not dicts: the order of the pieces decides every later draw
    assert list(shape.dims().items()) == [(key, 1) for key in pieces]
    assert arrows(shape._d1) == [(key, (1, 1), sign) for key, sign in d1.items()]
    assert arrows(shape._d2) == [(key, (1, 1), sign) for key, sign in d2.items()]


def test_seeded_draws_are_frozen():
    """200 draws and the draw after each, against the digest the former
    per-shape constructors gave: a change of piece order moves it."""
    h = hashlib.sha256()
    for seed in range(200):
        rng = random.Random(seed)
        k = random_double_complex(rng, 4, 4)
        h.update(json.dumps(k.to_json(), sort_keys=True).encode())
        h.update(repr(rng.random()).encode())
    assert h.hexdigest() == "0217aec1d799947c92c32f07e0c043a6b2d19c679336ab432fed2cc3093a11c3"
