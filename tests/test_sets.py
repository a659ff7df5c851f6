import random
import re
import tracemalloc

import pytest

import hyperlab.sets as sets
from hyperlab import (
    EmptyInput,
    Fp,
    InvalidSpec,
    ModulusMismatch,
    NotAPrime,
    ResourceLimit,
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
from hyperlab.errors import _OVERHEAD
from hyperlab.sets import random_translates

F7 = Fp(7)
F101 = Fp(101)


def test_scalar_set_dedups_and_sorts():
    s = ScalarSet(7, (8, 1, -6, 3))
    assert tuple(s) == (1, 3)
    assert 1 in s and 2 not in s
    assert len(s) == 2


@pytest.mark.parametrize("p", [2, 9])
def test_sets_take_odd_prime_moduli_only(p):
    # the kernels assume an odd prime: at 2 the inverse table finds no
    # primitive root, and at 9 the counts would be quietly wrong
    with pytest.raises(NotAPrime):
        ScalarSet(p, (0, 1))
    with pytest.raises(NotAPrime):
        TranslateSet(p, ((0, 0), (1, 1)))


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


@pytest.mark.parametrize("spec, position", [("list:\u00b2", 5), ("ap:1,1,\u00b3", 7), ("list:\u0663", 5),
                                            ("list:1\u00b2", 6), ("listh:1,\uff12", 8)])
def test_integers_are_ascii_digits(spec, position):
    # str.isdigit accepts superscripts and other scripts' digits, which int()
    # rejects or reads; a spec takes 0-9 only and rejects the rest in place
    with pytest.raises(InvalidSpec) as err:
        parse_setspec(spec, F7)
    assert err.value.position == position


def test_progressions_stop_where_they_repeat():
    # past its period a progression repeats, so the set is the period's
    assert tuple(parse_setspec("ap:1,1,1000000000000", F7)) == tuple(range(7))
    assert tuple(parse_setspec("ap:5,3,10", F7)) == tuple(range(7))
    assert tuple(parse_setspec("gp:2,2,1000000000000", F7)) == (1, 2, 4)
    assert tuple(parse_setspec("gp:1,6,10", F7)) == (1, 6)
    assert tuple(parse_setspec("gp:0,3,10", F7)) == (0,)
    assert tuple(parse_setspec("gp:3,3,1000000000000", F7)) == (1, 2, 3, 4, 5, 6)


P61 = (1 << 61) - 1


@pytest.mark.parametrize(
    "spec",
    ["ap:1,1,100000000000", "gp:3,5,100000000000", "random:1000000000", "randomh:100000000,1",
     "cart:random:100000;random:100000", "cart:ap:1,1,2;random:1000000000", "invunion:ap:0,1,100000000000"],
)
def test_oversized_specs_refused_before_they_generate(spec):
    with pytest.raises(ResourceLimit, match="set spec"):
        parse_setspec(spec, Fp(P61))


def test_spec_budget_from_env(monkeypatch):
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "1")
    with pytest.raises(ResourceLimit) as err:
        parse_setspec("ap:1,1,10000", Fp(65537))
    assert (err.value.required, err.value.budget) == (sets._RESIDUE_BYTES * 10000 + _OVERHEAD, 1 << 20)
    assert len(parse_setspec("ap:1,1,3000", Fp(65537))) == 3000
    assert len(parse_setspec("ap:1,1,10000", F101)) == 101  # the period, not the count, is reserved


# each generating spec, most at a size where a set's hash table has just
# grown (the largest peak per element), ap: past its period, and
# random.sample on both of its routes: a set of drawn indices (p far above
# the count) and a copy of the population as a list (p near it)
_SPEC_PEAK_CASES = {
    "ap": (1000003, "ap:1,7,20000"),
    "ap-period": (65537, "ap:1,1,1000000"),
    "gp": (1000003, "gp:3,3,22000"),
    "random-set": (P61, "random:20000,1"),
    "random-list": (65537, "random:20000,1"),
    "randomh-set": (P61, "randomh:20000,1"),
    "randomh-list": (509, "randomh:22000,1"),
    "cart": (65537, "cart:random:140,1;random:140,2"),
    # the inverses join the inner set: Python ints at 2^61 - 1
    "invunion": (P61, "invunion:random:20000,1"),
}


@pytest.mark.parametrize("p, spec", _SPEC_PEAK_CASES.values(), ids=_SPEC_PEAK_CASES.keys())
def test_spec_reserve_bounds_the_peak(monkeypatch, p, spec):
    """The reserved bytes are at least tracemalloc's peak of the parse and at
    most 4 peaks + 1 MiB, as for the counting kernels."""
    F = Fp(p)
    reserved = []
    real = sets._reserve
    monkeypatch.setattr(sets, "_reserve", lambda what, nbytes: (reserved.append(nbytes), real(what, nbytes)))
    tracemalloc.start()
    try:
        parse_setspec(spec, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = max(reserved) + _OVERHEAD
    assert peak <= estimate <= 4 * peak + (1 << 20)


def test_scalar_file_reader(tmp_path):
    f = tmp_path / "a.txt"
    f.write_text("1\n-1\n\n9\n")
    s = read_scalar_file(str(f), F7)
    assert tuple(s) == (1, 2, 6)
    f.write_text(" 1 \n\t-1\n+9\n")  # blanks around a field are allowed
    assert tuple(read_scalar_file(str(f), F7)) == (1, 2, 6)
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
    f.write_text(" 0 , 0\n1,\t-1 \n")
    assert tuple(read_translate_file(str(f), F7)) == ((0, 0), (1, 6))


@pytest.mark.parametrize("reader, line", [
    (read_scalar_file, "\u0663"), (read_scalar_file, "1_000"), (read_scalar_file, "\u00b2"),
    (read_scalar_file, "1 2"), (read_translate_file, "0,\u0663"), (read_translate_file, "1_0,0"),
    (read_translate_file, "0,0,0"), (read_translate_file, "0"),
])
def test_file_integers_read_as_spec_integers(tmp_path, reader, line):
    # int() reads other scripts' digits and '_' separators, which a spec
    # literal rejects: a file's integers take the spec's ASCII decimals only
    f = tmp_path / "set.txt"
    f.write_text(("1,1" if reader is read_translate_file else "1") + f"\n{line}\n", encoding="utf-8")
    with pytest.raises(InvalidSpec, match=f"^{re.escape(str(f))}:2: "):
        reader(str(f), F7)


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


P61 = (1 << 61) - 1

# (p, |A|, |B|) with 0 and p - 1 joined to each set of more than one
# element; the keyed pass counts by index where p <= |A||B|, else it sorts
_GROWTH_CASES = {
    "index": [(7, 3, 3), (7, 7, 1), (1009, 40, 30), (1009, 512, 512), (1000003, 1001, 1000)],
    "sorted": [(7, 1, 1), (7, 2, 3), (1009, 1, 1), (1009, 30, 20), (1000003, 300, 200),
               (2097169, 64, 48), (P61, 1, 1), (P61, 64, 48)],
}


def _growth_set(p, n, seed):
    if n == 1:
        return ScalarSet(p, (random.Random(seed).randrange(p),))
    return ScalarSet(p, (0, p - 1, *random.Random(seed).sample(range(1, p - 1), n - 2)))


@pytest.mark.parametrize("route, p, na, nb", [(r, *c) for r, cases in _GROWTH_CASES.items() for c in cases])
def test_sumset_difference_set_against_the_set_comprehension(route, p, na, nb):
    """Both growth sets equal the pure-Python set over all |A||B| pairs, on
    both routes of the keyed pass, for A != B and for A = B, as Python ints."""
    A, B = _growth_set(p, na, 1), _growth_set(p, nb, 2)
    assert (p <= len(A) * len(B)) == (route == "index")
    for X, Y in ((A, B), (A, A)):
        for got, want in ((sumset(X, Y), {(x + y) % p for x in X for y in Y}),
                          (difference_set(X, Y), {(x - y) % p for x in X for y in Y})):
            assert got.elements == tuple(sorted(want)) and all(type(v) is int for v in got)


def test_growth_sets_refuse_before_they_grow(monkeypatch):
    """The growth sets reserve their keys' bytes first: over budget they
    raise ResourceLimit with the estimate instead of growing a set."""
    A = _growth_set(P61, 600, 1)  # 360000 int64 keys: 2.9 MB
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "1")
    with pytest.raises(ResourceLimit, match="sumset"):
        sumset(A, A)
    with pytest.raises(ResourceLimit, match="difference set"):
        difference_set(A, A)
    with pytest.raises(ModulusMismatch):
        sumset(A, ScalarSet(7, (1,)))
