import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import (
    INFINITY,
    Fp,
    InvalidArgument,
    InvalidSpec,
    ModulusMismatch,
    MoebiusMap,
    apply_translate,
    canonicalize,
    compose,
    coset_label,
    embed_translate,
    evaluate,
    identity_map,
    invert,
    is_borel,
    pair_quotient,
    parse_map,
    render_map,
    triple_product,
)

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


@given(translates, translates, translates)
@settings(max_examples=300, deadline=None)
def test_triple_product_matches_chain(h1, h2, h3):
    lhs = triple_product(F101, h1, h2, h3)
    rhs = compose(pair_quotient(F101, h1, h2), embed_translate(F101, h3))
    assert lhs.entries == rhs.entries


def test_compose_requires_same_modulus():
    with pytest.raises(ModulusMismatch):
        compose(identity_map(F7), identity_map(F101))


def test_invert_roundtrip():
    m = MoebiusMap(101, 3, 5, 7, 11)
    assert compose(m, invert(m)).entries[0] == compose(m, invert(m)).entries[3]
    assert canonicalize(compose(m, invert(m))).entries == (1, 0, 0, 1)


def test_canonicalize_pin_and_idempotence():
    m = MoebiusMap(7, 0, 3, 5, 1)
    c = canonicalize(m)
    assert c.entries == (0, 1, 4, 5)
    assert canonicalize(c).entries == c.entries


@given(st.integers(1, 100), translates)
@settings(max_examples=200, deadline=None)
def test_canonicalize_folds_scalar_multiples(s, h):
    m = embed_translate(F101, h)
    a, b, c, d = m.entries
    scaled = MoebiusMap(101, a * s, b * s, c * s, d * s)
    assert canonicalize(scaled).entries == canonicalize(m).entries


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


def test_apply_translate_matches_embedding():
    for a in range(7):
        for b in range(7):
            m = embed_translate(F7, (a, b))
            for x in all_points(7):
                assert apply_translate(F7, (a, b), x) == evaluate(m, x)


def test_apply_translate_other_curve_parameter():
    # y = a + 2/(b - x) at x = b - 1
    assert apply_translate(F7, (3, 5), 4, lam_prime=2) == 5
    with pytest.raises(InvalidArgument):
        apply_translate(F7, (3, 5), 4, lam_prime=7)


def test_borel_and_coset_label():
    upper = MoebiusMap(7, 2, 3, 0, 1)
    assert is_borel(upper)
    assert coset_label(upper) is INFINITY
    m = embed_translate(F7, (3, 5))
    assert not is_borel(m)
    assert coset_label(m) == 3  # a/c = (-3)/(-1)


def test_render_parse_roundtrip():
    m = MoebiusMap(101, 3, 5, 7, 11)
    assert render_map(m) == "[[3,5],[7,11]] mod 101"
    assert parse_map(render_map(m)).entries == m.entries
    with pytest.raises(InvalidSpec):
        parse_map("[[3,5],[7]] mod 101")
