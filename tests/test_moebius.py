import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import (
    INFINITY,
    Fp,
    InvalidArgument,
    ModulusMismatch,
    MoebiusMap,
    compose,
    embed_translate,
    evaluate,
    invert,
    pair_quotient,
)
from hyperlab.moebius import _mod, product_key_entries

F7 = Fp(7)
F101 = Fp(101)

translates = st.tuples(st.integers(0, 100), st.integers(0, 100))


def all_points(p):
    return list(range(p)) + [INFINITY]


def test_singular_rejected():
    with pytest.raises(InvalidArgument):
        MoebiusMap(7, 1, 2, 2, 4)


def test_entries_normalized():
    m = MoebiusMap(7, -1, 8, 14, 3)
    assert m.entries == (6, 1, 0, 3)
    assert m.det == (6 * 3 - 1 * 0) % 7


def test_embed_pins():
    assert embed_translate(F7, (0, 0)).entries == (0, 1, 6, 0)
    assert embed_translate(F7, (1, 2)).entries == (6, 3, 6, 2)


def test_embed_determinant_one_exhaustive_small():
    for p in (3, 5, 7):
        F = Fp(p)
        for a in range(p):
            for b in range(p):
                assert embed_translate(F, (a, b)).det == 1


def test_pair_quotient_pin():
    assert pair_quotient(F7, (1, 2), (3, 5)).entries == (5, 0, 4, 3)


@given(translates, translates)
@settings(max_examples=300, deadline=None)
def test_pair_quotient_matches_chain(h1, h2):
    lhs = pair_quotient(F101, h1, h2)
    rhs = compose(embed_translate(F101, h1), invert(embed_translate(F101, h2)))
    assert lhs.entries == rhs.entries


@pytest.mark.parametrize("p", [1009, 2097169, (1 << 61) - 1])
def test_product_key_entries_match_compose(p):
    """The key (a p + c) p + z of u v, written in place, holds the entries
    (a, c, then d, or b where c = 0) of the generic compose, over broadcast
    columns and elementwise, on int64 columns below 2^21 and Python ints
    above; u v9..v11 lie in the Borel group (c = 0)."""
    rng = random.Random(p)

    def sl2():
        a, b, c = rng.randrange(1, p), rng.randrange(p), rng.randrange(p)
        return MoebiusMap(p, a, b, c, (1 + b * c) * pow(a, -1, p))

    def borel(x):
        return MoebiusMap(p, x, rng.randrange(p), 0, pow(x, -1, p))

    us = [sl2() for _ in range(12)]
    vs = [sl2() for _ in range(9)] + [compose(invert(u), borel(x)) for u, x in zip(us, (1, 5, p - 1))]
    dtype = np.int64 if p < 1 << 21 else object

    def columns(maps):
        return [np.array(col, dtype=dtype) for col in zip(*(m.entries for m in maps))]

    def want(g, h):
        a, b, c, d = compose(g, h).entries
        return a, c, d if c else b

    def key(*entries):  # written in place into a fresh array, read back as its entries
        shape = np.broadcast_shapes(*(np.shape(e) for e in entries))
        out = product_key_entries(p, np.empty(shape, dtype), np.empty((2, *shape), dtype), *entries)
        return [(k // p**2, k // p % p, k % p) for k in out.reshape(-1).tolist()]

    u, v = columns(us), columns(vs)
    grid = key(*(e[:, None] for e in u), *v)
    assert grid == [want(g, h) for g in us for h in vs]
    assert sum(want(g, h)[1] == 0 for g in us for h in vs) >= 3
    pairs = key(*columns(us[:3]), *columns(vs[9:]))
    assert pairs == [want(g, h) for g, h in zip(us, vs[9:])]
    assert [c for _, c, _ in pairs] == [0, 0, 0]


def test_compose_requires_same_modulus():
    with pytest.raises(ModulusMismatch):
        compose(MoebiusMap(7, 1, 0, 0, 1), MoebiusMap(101, 1, 0, 0, 1))


def test_invert_roundtrip():
    m = MoebiusMap(101, 3, 5, 7, 11)
    # the adjugate inverts up to the det scalar: m m^-1 = det I, entry-exact
    assert compose(m, invert(m)).entries == (m.det, 0, 0, m.det)


def test_evaluate_charts():
    m = embed_translate(F7, (0, 0))  # x -> -1/x
    assert evaluate(m, 0) is INFINITY
    assert evaluate(m, 1) == 6
    assert evaluate(m, INFINITY) == 0
    upper = MoebiusMap(7, 2, 3, 0, 1)
    assert evaluate(upper, INFINITY) is INFINITY


def test_action_homomorphism_exhaustive_p7():
    F = Fp(7)
    maps = [embed_translate(F, (a, b)) for a in range(7) for b in range(7)]
    for g in maps[:10]:
        for h in maps:
            gh = compose(g, h)
            for x in all_points(7):
                assert evaluate(gh, x) == evaluate(g, evaluate(h, x))


def test_repr_format():
    assert repr(MoebiusMap(101, 3, 5, 7, 11)) == "[[3,5],[7,11]] mod 101"
    assert repr(MoebiusMap(7, -1, 8, 14, 3)) == "[[6,1],[0,3]] mod 7"


P61 = (1 << 61) - 1


@given(st.integers(), st.integers(1, 1 << 70))
@settings(max_examples=300, deadline=None)
def test_mod_matches_python_ints(x, p):
    got = _mod(x, p)
    assert type(got) is int and got == x % p


@st.composite
def int64_intermediates(draw):
    """p up to 2^21 and int64 values over [-3 p^2, 3 p^2], the closed forms'
    intermediate range, both ends included."""
    p = draw(st.integers(1, 1 << 21))
    lo, hi = -3 * p * p, 3 * p * p
    xs = draw(st.lists(st.integers(lo, hi), max_size=50))
    return p, np.array([lo, hi, *xs], dtype=np.int64)


@given(int64_intermediates())
@settings(max_examples=300, deadline=None)
def test_mod_matches_int64_arrays(case):
    p, x = case
    before = x.copy()
    got = _mod(x, p)
    assert got.dtype == np.int64 and np.array_equal(got, before % p)
    assert np.array_equal(x, before)  # reduced in a new array, not in x


@given(st.lists(st.integers(-3 * P61 * P61, 3 * P61 * P61), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_mod_matches_object_arrays_at_p61(xs):
    x = np.array(xs, dtype=object)
    got = _mod(x, P61)
    assert got.dtype == object and got.tolist() == [v % P61 for v in xs]
