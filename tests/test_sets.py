import random

import pytest

from hyperlab import (
    EmptyInput,
    Fp,
    InvalidSpec,
    ModulusMismatch,
    ScalarSet,
    TranslateSet,
    difference_set,
    gen_cartesian,
    max_line_multiplicity,
    parse_setspec,
    read_scalar_file,
    read_translate_file,
    sumset,
)
from hyperlab.sets import random_translates

F7 = Fp(7)
F101 = Fp(101)


def test_scalar_set_dedups_and_sorts():
    s = ScalarSet(7, (8, 1, -6, 3))
    assert tuple(s) == (1, 3)
    assert 1 in s and 2 not in s
    assert len(s) == 2


def test_ap_pin():
    assert tuple(parse_setspec("ap:1,1,3", F7)) == (1, 2, 3)
    assert tuple(parse_setspec("ap:5,3,4", F7)) == (0, 1, 4, 5)  # 5,1,4,0 sorted


def test_gp_pin():
    assert tuple(parse_setspec("gp:1,3,4", F7)) == (1, 2, 3, 6)  # 1,3,2,6


def test_list_and_negatives():
    assert tuple(parse_setspec("list:-1,0,8", F7)) == (0, 1, 6)


def test_invunion_pin():
    assert tuple(parse_setspec("invunion:ap:1,1,2", F7)) == (1, 2, 4)
    # 0 has no inverse and contributes only itself
    assert tuple(parse_setspec("invunion:list:0,2", F7)) == (0, 2, 4)


def test_random_seed_determinism():
    a = parse_setspec("random:5,42", F101)
    b = parse_setspec("random:5,42", F101)
    c = parse_setspec("random:5,43", F101)
    assert tuple(a) == tuple(b)
    assert tuple(a) != tuple(c)
    assert len(a) == 5
    # default_seed fills the omitted seed
    d = parse_setspec("random:5", F101, default_seed=42)
    assert tuple(d) == tuple(a)


def test_random_translates():
    h = parse_setspec("randomh:6,1", F101)
    assert isinstance(h, TranslateSet) and len(h) == 6
    assert tuple(h) == tuple(parse_setspec("randomh:6,1", F101))


@pytest.mark.parametrize("p", [7, 1009, 2147483647])
def test_random_translates_draw_one_sample(p):
    # wherever range(p^2) has a length, the draw is one rng.sample of the
    # indices a p + b, so recorded randomh: sets and verify cases stay put
    # (at p = 7, 40 of 49 indices, sample draws from a pool, not by randrange)
    flat = random.Random(5).sample(range(p * p), 40)
    drawn = TranslateSet(p, tuple(divmod(v, p) for v in flat))
    assert random_translates(random.Random(5), p, 40) == drawn
    assert parse_setspec("randomh:40,5", Fp(p)) == drawn


def test_random_translates_above_sys_maxsize():
    p = (1 << 61) - 1  # p^2 > sys.maxsize: range(p^2) has no len()
    drawn = random_translates(random.Random(5), p, 40)
    assert len(drawn) == 40 and all(0 <= a < p and 0 <= b < p for a, b in drawn)
    assert drawn == random_translates(random.Random(5), p, 40)
    assert drawn != random_translates(random.Random(6), p, 40)
    assert parse_setspec("randomh:40,5", Fp(p)) == drawn


def test_cart_and_listh():
    h = parse_setspec("cart:list:1,2;list:0,3", F7)
    assert tuple(h) == ((1, 0), (1, 3), (2, 0), (2, 3))
    assert tuple(parse_setspec("listh:1,2;3,-1", F7)) == ((1, 2), (3, 6))


@pytest.mark.parametrize(
    "bad",
    [
        "ap:1,1",          # missing count
        "ap:1,0,3",        # zero step
        "gp:1,8,3",        # ratio 1 mod 7... 8 = 1 is fine; use 7
        "gp:1,7,3",        # zero ratio
        "ap:1,1,0",        # count < 1
        "random:9",        # count exceeds field
        "list:",           # empty literal list
        "ap:1,1,3x",       # trailing characters
        "nosuch:1",        # unknown prefix is rejected
        "cart:ap:1,1,2",   # missing second factor
        "listh:1",         # pair needs two coordinates
    ],
)
def test_grammar_rejections(bad):
    if bad == "gp:1,8,3":
        # ratio 8 = 1 mod 7 is legal; spelled here only to document the contrast
        assert tuple(parse_setspec(bad, F7)) == (1,)
        return
    with pytest.raises(InvalidSpec):
        parse_setspec(bad, F7)


def test_rejection_reports_position():
    with pytest.raises(InvalidSpec) as err:
        parse_setspec("ap:1,0,3", F7)
    assert "position" in str(err.value)


def test_scalar_file_reader(tmp_path):
    f = tmp_path / "a.txt"
    f.write_text("1\n-1\n\n9\n")
    s = read_scalar_file(str(f), F7)
    assert tuple(s) == (1, 2, 6)
    f.write_text("1\nbogus\n")
    with pytest.raises(InvalidSpec) as err:
        read_scalar_file(str(f), F7)
    assert ":2:" in str(err.value)  # carries the offending line number
    f.write_text("")
    with pytest.raises(InvalidSpec):
        read_scalar_file(str(f), F7)


def test_translate_file_reader(tmp_path):
    f = tmp_path / "h.txt"
    f.write_text("0,0\n1,-1\n")
    h = read_translate_file(str(f), F7)
    assert tuple(h) == ((0, 0), (1, 6))


def test_gen_cartesian():
    B = ScalarSet(7, (0, 1))
    C = ScalarSet(7, (2,))
    assert tuple(gen_cartesian(B, C)) == ((0, 2), (1, 2))
    with pytest.raises(ModulusMismatch):
        gen_cartesian(B, ScalarSet(11, (1,)))


def test_max_line_multiplicity():
    H = TranslateSet(7, ((0, 0), (0, 1), (0, 2), (5, 2)))
    assert max_line_multiplicity(H) == 3  # the a = 0 row
    with pytest.raises(EmptyInput):
        max_line_multiplicity(TranslateSet(7, ()))


def test_sumset_difference_set():
    A = ScalarSet(7, (0, 1, 3))
    assert tuple(sumset(A, A)) == (0, 1, 2, 3, 4, 6)
    assert tuple(difference_set(A, A)) == (0, 1, 2, 3, 4, 5, 6)
