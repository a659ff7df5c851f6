import hashlib
import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperlab.counts as counts
import hyperlab.oracle as oracle
from hyperlab import (
    EmptyInput,
    INFINITY,
    Fp,
    InvalidArgument,
    ModulusMismatch,
    MoebiusMap,
    ResourceLimit,
    ScalarSet,
    TranslateSet,
    additive_energy,
    borel_coset_mass,
    borel_t3_mass,
    compose,
    cs_chain_report,
    d_histogram,
    difference_set,
    embed_translate,
    evaluate,
    gen_cartesian,
    invert,
    minkowski_grid,
    minkowski_realisations,
    parse_setspec,
    product_rep_energy,
    product_rep_histogram,
    q_rect,
    quotient_histogram,
    rich_hyperbolae,
    rich_lines,
    sigma,
    sigma_rect,
    sumprod_quadruples,
    sumset,
    t_k,
)
from hyperlab.field import check_prime, is_prime
from hyperlab.moebius import pair_quotient_entries

A16 = ScalarSet(7, (1, 6))
H00 = TranslateSet(7, ((0, 0),))
H2 = TranslateSet(7, ((1, 0), (2, 0)))
HD = TranslateSet(7, ((0, 0), (1, 1)))
B01 = ScalarSet(7, (0, 1))


def rand_translates(rng, p, n):
    return TranslateSet(p, tuple(divmod(v, p) for v in rng.sample(range(p * p), n)))


def _t3_by_fill(H):
    """t_k(H, 3) on the fill arm, whatever the quotient support."""
    return counts._sorted_square_sum(counts._t3_keys(H))


def _t3_by_quotients(H):
    """t_k(H, 3) on the quotient arm, whatever the quotient support."""
    return counts._t3_quotients(H, counts._quotient_histogram(H))


def _entries(hist):
    """entry tuple -> r(u) of a quotient histogram."""
    return dict(zip(zip(*(c.tolist() for c in hist.columns)), hist.counts.tolist()))


def _table(hist):
    """value -> count of a histogram's (values, counts) arrays, which are
    int64 and strictly ascending."""
    values, weights = hist
    assert values.dtype == weights.dtype == np.int64 and np.all(values[1:] > values[:-1])
    return dict(zip(values.tolist(), weights.tolist()))


def _cosets(H):
    """(label -> coset mass, X_B) of borel_coset_mass(H), INFINITY for its label p."""
    labels, masses, max_nb = borel_coset_mass(H)
    assert type(max_nb) is int
    return {INFINITY if k == H.p else k: v for k, v in _table((labels, masses)).items()}, max_nb


# ------------------------------------------------------------ sigma

def test_sigma_pin():
    assert sigma(A16, H00) == 2


def test_sigma_rect_asymmetric():
    B = ScalarSet(7, (1,))
    C = ScalarSet(7, (6,))
    # y = -1/x maps 1 to 6
    assert sigma_rect(B, C, H00) == 1
    assert sigma_rect(C, B, H00) == 1
    assert sigma_rect(B, B, H00) == 0


def test_sigma_rect_across_blocks():
    # |B| = 900 makes chunks of 36 maps, so 300 translates take nine
    p, lam = 1009, 5
    rng = random.Random(3)
    B, C = ScalarSet(p, tuple(rng.sample(range(p), 900))), ScalarSet(p, tuple(rng.sample(range(p), 500)))
    H = rand_translates(rng, p, 300)
    assert len(H) > counts._HIT_CELLS // len(B)
    members = set(C)
    want = sum((a + lam * pow(x - b, -1, p)) % p in members for a, b in H for x in B if x != b)
    assert sigma_rect(B, C, H, lam) == want


def test_sigma_other_lambda():
    # (x-0)(y-0) = 1: x=1,y=1 and x=6,y=6
    assert sigma(A16, H00, lam=1) == 2
    assert sigma(ScalarSet(7, (1, 2)), H00, lam=2) == 2  # 1*2 = 2*1 = 2


def test_sigma_rejects_mismatch_and_zero_lambda():
    with pytest.raises(ModulusMismatch):
        sigma(ScalarSet(11, (1,)), H00)
    with pytest.raises(InvalidArgument):
        sigma(A16, H00, lam=0)
    with pytest.raises(InvalidArgument):
        sigma(A16, H00, lam=7)


def test_sigma_brute_force_small():
    rng = random.Random(5)
    for _ in range(20):
        A = ScalarSet(11, tuple(rng.sample(range(11), rng.randint(1, 6))))
        H = rand_translates(rng, 11, rng.randint(1, 8))
        lam = rng.randrange(1, 11)
        expected = 0
        for a, b in H:
            for x in A:
                for y in A:
                    if (x - b) * (y - a) % 11 == lam:
                        expected += 1
        assert sigma(A, H, lam) == expected


# ------------------------------------------------------------ energies

def test_quotient_histogram_pin():
    hist = quotient_histogram(H2)
    assert _entries(hist) == {(1, 0, 0, 1): 2, (1, 6, 0, 1): 1, (1, 1, 0, 1): 1}
    assert len(hist) == 3


@pytest.mark.parametrize("p", [3, 5, 7])
def test_quotient_key_exhaustive(p):
    """Over all ordered pairs of the p^2 translates, pairs share a quotient key
    exactly when they share a quotient, and the key decodes to its entries."""
    H = TranslateSet(p, tuple(divmod(v, p) for v in range(p * p)))
    hist = quotient_histogram(H)
    want = Counter(pair_quotient_entries(p, *h1, *h2) for h1 in H for h2 in H)
    assert len(hist) == len(want) and _entries(hist) == want


def test_t2_pin():
    assert t_k(H2, 2) == 6


def test_t3_pin():
    for p in (7, 101, 499):
        H = TranslateSet(p, ((0, 0), (1, 1)))
        assert t_k(H, 3) == 20


def test_t4_brute_force_tiny():
    # T4 via explicit quadruple loop over the embedded group elements
    from hyperlab import compose, embed_translate, invert

    F = Fp(7)
    hh = list(HD)
    mats = [embed_translate(F, h) for h in hh]
    inv = [invert(m) for m in mats]
    from collections import Counter

    prod = Counter()
    for m1 in mats:
        for m2 in inv:
            for m3 in mats:
                for m4 in inv:
                    prod[compose(compose(compose(m1, m2), m3), m4).entries] += 1
    expected = sum(v * v for v in prod.values())
    assert t_k(HD, 4) == expected


# |H| = 24 is past the T_3 oracle's |H| <= 10 cap, and p = 65537 is the
# largest prime of the sl2-energy benchmark jobs
P_BIG = 65537


@pytest.mark.parametrize(
    "H",
    [
        rand_translates(random.Random(5), P_BIG, 24),
        gen_cartesian(
            ScalarSet(P_BIG, tuple(40_503 * i % P_BIG for i in range(4))),
            ScalarSet(P_BIG, tuple(P_BIG - 1 - 9_001 * i for i in range(6))),
        ),
    ],
    ids=["random", "grid"],
)
def test_group_histograms_match_generic_chain(H):
    F = Fp(P_BIG)
    mats = [embed_translate(F, h) for h in H]
    quotients = [compose(m1, invert(m2)) for m1 in mats for m2 in mats]
    assert _entries(quotient_histogram(H)) == Counter(u.entries for u in quotients)
    triples = Counter(compose(u, m3).entries for u in quotients for m3 in mats)
    assert t_k(H, 3) == sum(v * v for v in triples.values())


def _generic_group_counts(H):
    """quotient, T_3 and T_4 histograms by the generic compose/invert chain."""
    F = Fp(H.p)
    mats = [embed_translate(F, h) for h in H]
    quotients = [compose(m1, invert(m2)) for m1 in mats for m2 in mats]
    triples = [compose(u, m3) for u in quotients for m3 in mats]
    fours = Counter(compose(g, invert(m4)).entries for g in triples for m4 in mats)
    return Counter(u.entries for u in quotients), Counter(g.entries for g in triples), fours


def _scalar_cs_chain(A, H):
    """cs_chain_report's fields, with sigma_u by a scalar evaluate loop."""
    sig = sigma(A, H)
    members = set(A)
    rs = []
    for entries, r in _generic_group_counts(H)[0].items():
        u = MoebiusMap(H.p, *entries)
        rs.append((r, sum(1 for x in A if evaluate(u, x) in members)))
    total = sum(r * su for r, su in rs)
    delta = Fraction(sig * sig, 3 * len(A) * len(H) ** 2)
    omega = [(r, su) for r, su in rs if su >= delta]
    share = Fraction(sum(r * su for r, su in omega), total) if total else Fraction(1)
    return (sig, sig * sig, len(A) * total, delta, len(omega), share)


def _check_group_kernels(A, H):
    """Every group kernel against the generic chain and scalar evaluate, and
    every value it returns a Python int (or Fraction), every histogram int64."""
    q2, q3, q4 = _generic_group_counts(H)
    assert _entries(quotient_histogram(H)) == q2
    values = [t_k(H, k) for k in (2, 3, 4)]
    assert values == [sum(v * v for v in q.values()) for q in (q2, q3, q4)]
    yb = borel_t3_mass(H)
    assert yb == sum(v * v for key, v in q3.items() if key[2] == 0)
    rep = cs_chain_report(A, H)
    fields = (rep.sigma, rep.lhs_sq, rep.rhs_cs, rep.delta, rep.omega_size, rep.omega_incidence_share)
    assert fields == _scalar_cs_chain(A, H)
    # the coset label of u = (a b; c d) is u(oo) = a/c, or oo where c = 0
    want = Counter()
    for (a, _, c, _), r in q2.items():
        want[a * pow(c, -1, H.p) % H.p if c else INFINITY] += r * r
    table, max_nb = _cosets(H)
    assert table == want
    values += [yb, max_nb]
    values += [rep.sigma, rep.lhs_sq, rep.rhs_cs, rep.omega_size]
    assert all(type(v) is int for v in values)
    for frac in (rep.delta, rep.omega_incidence_share):
        assert type(frac) is Fraction
        assert type(frac.numerator) is int and type(frac.denominator) is int


@pytest.mark.parametrize(
    "p, wide",
    [(1000003, False), (2097143, False), (2097169, True), ((1 << 31) - 1, True), ((1 << 61) - 1, True)],
)
def test_group_kernels_at_large_primes(p, wide):
    # above 2^18 no inverse table exists, so sigma_u and the coset labels
    # invert per element; 2097143 < 2^21 < 2097169 straddle the switch from
    # int64 to Python ints, where keys (< p^3) stop fitting int64
    assert p > counts._INV_TABLE_MAX
    assert (counts._array(TranslateSet(p, ((0, 0),))).dtype == object) is wide
    rng = random.Random(p)
    # (0,0), (5,1), (p-1,7) give Borel triples, as (b1 - b2)(a3 - a2) = -1
    # there; A holds incidences of (0,0), which maps 1 -> -1 and -1 -> 1.
    # (1,1) and (5,1) share b, so their quotients are translations by -+4,
    # and (1,1), (0,0), (p-1,7) give quotients with a1, a2 in A (w != 0),
    # whose point a2 maps to a1
    H = TranslateSet(
        p, ((0, 0), (1, 1), (5, 1), (p - 1, 7), *((rng.randrange(p), rng.randrange(p)) for _ in range(3)))
    )
    A = ScalarSet(p, (0, 1, 2, 4, 5, p - 4, p - 1, *rng.sample(range(p), 4)))
    _check_group_kernels(A, H)


def test_key_injective_on_sl2():
    for p in (3, 5, 7):
        elems = [
            (a, b, c, d)
            for a in range(p) for b in range(p) for c in range(p) for d in range(p)
            if (a * d - b * c) % p == 1
        ]
        assert len(elems) == p**3 - p
        a, b, c, d = (np.array(col, dtype=np.int64) for col in zip(*elems))
        keys = counts._key(p, a, b, c, d).tolist()
        assert len(set(keys)) == len(elems)
        for key, (a, b, c, d) in zip(keys, elems):
            assert 0 <= key < p**3
            assert (key // p**2, key // p % p, key % p) == (a, b, c if a else d)


def test_chunk_boundaries_leave_counts_unchanged(monkeypatch):
    # a grid has long runs of equal products, so runs straddle block ends
    H = gen_cartesian(ScalarSet(101, (1, 2, 3, 4)), ScalarSet(101, (1, 2, 3, 4, 5, 6)))
    A = ScalarSet(101, (1, 2, 3, 50, 100))
    assert len(H) == 24

    def all_counts():
        return (t_k(H, 3), _t3_by_fill(H), _t3_by_quotients(H), borel_t3_mass(H), cs_chain_report(A, H), sigma(A, H, 3),
                sumprod_quadruples(A, 2), _table(d_histogram(H)), additive_energy(A), _table(product_rep_histogram(A)))

    want = all_counts()
    assert want[0] == want[1] == want[2] and want[3] > 0
    # |H|^2 = 576 keys per h1 row: 2900 fills five rows a chunk, four in the
    # last; the quotient arm fills one (7), four (100) or 120 (2900)
    # quotients of 24 products a chunk.  The pair histograms merge several
    # blocks at 7 (d_histogram and product_rep_histogram at 100 too) and
    # count by index at 2900, as at
    # the default chunk (additive_energy's 25 keys, fewer than p, sort in one
    # block).  The Moebius hits take one map (7), 20 maps (100)
    # or all (2900) per chunk of 5 points; one (7), two (100) or all (2900)
    # of the 40-byte pole rows per block, and one (7, 100) or all five
    # (2900) of the 303-byte membership rows of A's a values and the
    # translations per table block; the poles of sigma (24 maps x 5 points)
    # and sumprod (25 x 5) are reduced to their distinct values at 7 and 100
    for chunk in (7, 100, 2900):
        for name in ("_CHUNK", "_HIT_CELLS", "_HIT_ROW_BYTES", "_FEW_CELLS"):
            monkeypatch.setattr(counts, name, chunk)
        assert all_counts() == want


def test_pair_histogram_routes_agree(monkeypatch):
    """Each pair histogram gives the same arrays counted by index (a block
    holds at least p keys, as at the default chunk) and sorted (at 100)."""
    p = 1009
    A, H = _rand_a(p, 40), _rand_h(p, 40)  # 1600 keys each; 805 differences
    tallies = []
    real = counts._tally
    monkeypatch.setattr(counts, "_tally", lambda *args: tallies.append(1) or real(*args))

    def histograms():
        d, r = counts._differences(A)
        assert np.all(d[1:] > d[:-1]) and d.dtype == r.dtype == np.int64
        return d.tolist(), r.tolist(), _table(product_rep_histogram(A)), _table(d_histogram(H))

    want = histograms()
    assert tallies == []  # every block indexed
    monkeypatch.setattr(counts, "_CHUNK", 100)  # blocks of 80 or 805 keys, fewer than p
    assert histograms() == want
    assert len(tallies) > 3


def test_t3_fill_chunks_at_p61(monkeypatch):
    # above 2^21 the pair-quotient entries of each fill chunk are object
    # arrays, broadcast against the embedded h3; at 7 and 100 every h1 row is
    # a chunk of its own and at 2900 five rows are, as in the test above
    p = (1 << 61) - 1
    H = gen_cartesian(ScalarSet(p, (1, 2, 3, 4)), ScalarSet(p, (1, 2, 3, 4, 5, 6)))
    mats = [embed_translate(Fp(p), h) for h in H]
    triples = Counter(compose(compose(m1, invert(m2)), m3).entries for m1 in mats for m2 in mats for m3 in mats)
    want = (sum(v * v for v in triples.values()), sum(v * v for key, v in triples.items() if key[2] == 0))
    assert want[1] > 0
    for chunk in (7, 100, 2900, counts._CHUNK):
        monkeypatch.setattr(counts, "_CHUNK", chunk)
        assert (t_k(H, 3), borel_t3_mass(H)) == want
        assert _t3_by_fill(H) == _t3_by_quotients(H) == want[0]


def test_t_k_domain():
    assert t_k(TranslateSet(7, ()), 2) == 0
    with pytest.raises(InvalidArgument):
        t_k(HD, 5)
    with pytest.raises(InvalidArgument):
        t_k(HD, 1)


class _Admitted(Exception):
    pass


def test_t3_budget_gate(monkeypatch):
    rng = random.Random(0)
    H, big = rand_translates(rng, 101, 40), rand_translates(rng, 101, 150)
    grid = parse_setspec("cart:ap:1,1,10;ap:1,1,10", Fp(1009))
    want = t_k(H, 3), borel_t3_mass(big), t_k(grid, 3)
    # 40^3 keys and a chunk: 4.6 MB; 150^2 pairs and about 150^3 / 101 Borel
    # triples: 6.7 MB; the grid's 1819 quotients times 100 translates: 22 MB
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "1")
    with pytest.raises(ResourceLimit, match="T3 key array"):
        t_k(H, 3)
    with pytest.raises(ResourceLimit, match="Borel T3 join"):
        borel_t3_mass(big)
    with pytest.raises(ResourceLimit, match="T3 quotient keys"):
        t_k(grid, 3)
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "24")
    assert (t_k(H, 3), borel_t3_mass(big), t_k(grid, 3)) == want
    # the default budget admits the fill at |H| = 512 (8 * 512^3 B of keys
    # and a chunk), past the support histogram that chose it; an admitted
    # fill stops before it allocates
    monkeypatch.delenv("HYPERLAB_BUDGET_MB")
    real = counts._reserve

    def reserve(what, nbytes):
        real(what, nbytes)
        if what == "T3 key array":
            raise _Admitted(what)

    monkeypatch.setattr(counts, "_reserve", reserve)
    with pytest.raises(_Admitted):
        t_k(rand_translates(rng, 1009, 512), 3)
    with pytest.raises(ResourceLimit, match="T3 key array"):
        t_k(rand_translates(rng, 1009, 600), 3)


def test_t3_arm_follows_the_support(monkeypatch):
    """t_k(H, 3) sums over the quotient support where it is small against
    |H|^2 (a grid), fills where it is not (random translates) and where
    |H|^3 is at most _T3_FEW, with no support histogram built there."""
    arms = []
    for name in ("_t3_keys", "_t3_quotients", "_quotient_histogram"):
        real = getattr(counts, name)
        monkeypatch.setattr(counts, name, lambda *args, real=real, name=name: arms.append(name) or real(*args))
    F = Fp(1009)
    for spec, want in (
        ("cart:ap:1,1,10;ap:1,1,10", ["_quotient_histogram", "_t3_quotients"]),
        ("randomh:64,1", ["_quotient_histogram", "_t3_keys"]),
        ("cart:ap:1,1,4;ap:1,1,4", ["_t3_keys"]),
    ):
        arms.clear()
        t_k(parse_setspec(spec, F), 3)
        assert arms == want, spec


@pytest.mark.parametrize(
    "p, spec",
    [
        (1009, "randomh:128,1"),
        (1009, "cart:random:16,1;random:8,2"),
        (1009, "cart:ap:1,1,16;ap:1,1,16"),
        (2097169, "randomh:128,1"),
        (2097169, "cart:ap:1,1,16;ap:1,1,8"),
    ],
)
def test_t3_arms_agree(p, spec):
    """The fill and the quotient arm, each forced, agree at |H| >= 128 on both
    sides of 2^21."""
    H = parse_setspec(spec, Fp(p))
    assert len(H) >= 128
    assert _t3_by_quotients(H) == _t3_by_fill(H)


@pytest.mark.parametrize(
    "p, spec",
    [
        (1009, "randomh:64,1"),
        (1009, "cart:ap:1,1,8;ap:1,1,8"),
        (101, "cart:random:6,3;random:6,4"),
        (2097169, "randomh:24,1"),
        (2097169, "cart:ap:1,1,6;ap:1,1,4"),
    ],
)
def test_borel_join_is_the_borel_part_of_the_fill(p, spec):
    """The joined Borel triples' keys are the fill's keys with c = 0 (and
    so a != 0: the key ends in c and is at least p^2).  (0, 0), (5, 1) and
    (p - 1, 7) give Borel triples, as (b1 - b2)(a3 - a2) = -1 there."""
    H = TranslateSet(p, (*parse_setspec(spec, Fp(p)), (0, 0), (5, 1), (p - 1, 7)))
    keys = counts._t3_keys(H)
    want = keys[(keys % p == 0) & (keys >= p * p)]
    assert len(want) > 0
    assert np.sort(counts._borel_keys(H)).tolist() == want.tolist()


def test_hits_reserve_one_block_of_pole_rows(monkeypatch):
    # 19.3k distinct b of H against 5000 points, and about 195k values
    # a2 - a4 against 600 points: GBs of rows at once, so they are formed
    # a block at a time and the default budget admits both
    F = Fp(262139)
    reserved = []
    real = counts._reserve

    def reserve(what, nbytes):
        real(what, nbytes)
        if what == "Moebius hits":
            reserved.append(nbytes)
            raise _Admitted(what)

    monkeypatch.setattr(counts, "_reserve", reserve)
    with pytest.raises(_Admitted):
        sigma(parse_setspec("random:5000,1", F), parse_setspec("randomh:20000,1", F))
    with pytest.raises(_Admitted):
        sumprod_quadruples(parse_setspec("random:600,1", F), 2)
    assert max(reserved) < 100 << 20


def test_t4_budget_gate(monkeypatch):
    rng = random.Random(0)
    H = rand_translates(rng, 101, 30)
    want = t_k(H, 4)
    # the quotient histogram (94 kB) fits, the support^2 convolution (55 MB) does not
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "1")
    with pytest.raises(ResourceLimit, match="T4 self-convolution"):
        t_k(H, 4)
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "64")
    assert t_k(H, 4) == want


def test_budget_from_env(monkeypatch):
    H = rand_translates(random.Random(0), 101, 170)
    with pytest.raises(ResourceLimit) as e:
        counts._reserve("table", 1536 << 20)
    assert e.value.budget == 1536 << 20  # the default, in bytes
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "1")
    with pytest.raises(ResourceLimit) as e:
        quotient_histogram(H)
    assert (e.value.required, e.value.budget) == (40 * 170**2 + counts._OVERHEAD, 1 << 20)
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "2")
    assert len(quotient_histogram(H)) > 0
    for bad in ("lots", "", "0", "-3", "1.5"):
        monkeypatch.setenv("HYPERLAB_BUDGET_MB", bad)
        with pytest.raises(InvalidArgument, match="HYPERLAB_BUDGET_MB"):
            t_k(H, 2)


def _rand_h(p, n):
    rng = random.Random(n)
    return TranslateSet(p, tuple((rng.randrange(p), rng.randrange(p)) for _ in range(n)))


def _rand_a(p, n):
    return ScalarSet(p, tuple(random.Random(n).sample(range(p), n)))


P61 = (1 << 61) - 1

# each table-building kernel at two small sizes; p >= 2097169 runs on Python ints
_PEAK_CASES = {
    "quotient-64": lambda: (quotient_histogram, _rand_h(1009, 64)),
    "quotient-256": lambda: (quotient_histogram, _rand_h(1009, 256)),
    "quotient-2097169": lambda: (quotient_histogram, _rand_h(2097169, 64)),
    "quotient-p61": lambda: (quotient_histogram, _rand_h(P61, 64)),
    "t3-24": lambda: (t_k, _rand_h(1009, 24), 3),
    "t3-80": lambda: (t_k, _rand_h(1009, 80), 3),
    # the coset labels on top of the quotient histogram: a table read, a
    # cold table build, and a Python int per inverse above 2^18
    "borel-256": lambda: (borel_coset_mass, _rand_h(1009, 256)),
    "borel-262139": lambda: (borel_coset_mass, _rand_h(262139, 256)),
    "borel-1000003": lambda: (borel_coset_mass, _rand_h(1000003, 256)),
    "borel-p61": lambda: (borel_coset_mass, _rand_h(P61, 64)),
    # the T_3 quotient arm (forced on the random set) and the Borel join
    "t3-quotient-cart": lambda: (t_k, parse_setspec("cart:ap:1,1,10;ap:1,1,10", Fp(1009)), 3),
    "t3-quotient-random": lambda: (_t3_by_quotients, _rand_h(1009, 48)),
    "t3-quotient-2097169": lambda: (t_k, parse_setspec("cart:ap:1,1,8;ap:1,1,4", Fp(2097169)), 3),
    "borel-t3-cart": lambda: (borel_t3_mass, parse_setspec("cart:ap:1,1,12;ap:1,1,12", Fp(1009))),
    "borel-t3-random": lambda: (borel_t3_mass, _rand_h(1009, 128)),
    "borel-t3-2097169": lambda: (borel_t3_mass, _rand_h(2097169, 24)),
    "borel-t3-p61": lambda: (borel_t3_mass, _rand_h(P61, 16)),
    "t4-12": lambda: (t_k, _rand_h(1009, 12), 4),
    "t4-24": lambda: (t_k, _rand_h(1009, 24), 4),
    "t4-p61": lambda: (t_k, _rand_h(P61, 10), 4),
    # m_k at k = 2, where every translate found is counted: the column
    # (exhaustive) arm where p <= |A|^2, the pair arm elsewhere
    "mk-exhaustive-61": lambda: (rich_hyperbolae, _rand_a(61, 8), 2),
    "mk-exhaustive-101": lambda: (rich_hyperbolae, _rand_a(101, 12), 2),
    "mk-columns-40": lambda: (rich_hyperbolae, _rand_a(1009, 40), 2),
    "mk-pairs-10": lambda: (rich_hyperbolae, _rand_a(1009, 10), 2),
    "mk-pairs-12": lambda: (rich_hyperbolae, _rand_a(1009, 12), 2),
    "mk-pairs-p61": lambda: (rich_hyperbolae, _rand_a(P61, 6), 2),
    "lk-8": lambda: (rich_lines, _rand_a(65537, 8), _rand_a(65537, 8), 2),
    "lk-12": lambda: (rich_lines, _rand_a(65537, 12), _rand_a(65537, 12), 2),
    "lk-p61": lambda: (rich_lines, _rand_a(P61, 8), _rand_a(P61, 8), 2),
    "sigma-40": lambda: (sigma, _rand_a(1009, 40), _rand_h(1009, 40)),
    "sigma-300": lambda: (sigma, _rand_a(1009, 300), _rand_h(1009, 2000)),
    "sigma-p61": lambda: (sigma, _rand_a(P61, 20), _rand_h(P61, 30)),
    # one point and 200 000 maps: the per-map columns, not the block, dominate
    "sigma-maps": lambda: (sigma_rect, _rand_a(1009, 1), _rand_a(1009, 1009), _rand_h(1009, 200000)),
    "sumprod-20": lambda: (sumprod_quadruples, _rand_a(1009, 20), 2),
    "sumprod-64": lambda: (sumprod_quadruples, _rand_a(1009, 64), 4),
    "sumprod-p61": lambda: (sumprod_quadruples, _rand_a(P61, 12), 3),
    "cschain-1000": lambda: (cs_chain_report, parse_setspec("ap:1,1,1000", Fp(1009)), _rand_h(1009, 40)),
    "cschain-262139": lambda: (cs_chain_report, _rand_a(262139, 20), _rand_h(262139, 12)),
    "cschain-p61": lambda: (cs_chain_report, _rand_a(P61, 20), _rand_h(P61, 12)),
    # more distinct poles than a block of rows holds: sigma's b, sumprod's
    # a2 - a4 and the a of H (whose rows are also cs_chain's target rows)
    "sigma-poles": lambda: (sigma, _rand_a(65537, 2000), _rand_h(65537, 3000)),
    "sumprod-poles": lambda: (sumprod_quadruples, _rand_a(65537, 200), 2),
    "cschain-poles": lambda: (cs_chain_report, _rand_a(65537, 20000), _rand_h(65537, 40)),
    # the pair histograms: about n^2 distinct differences (or n^2 / 2 distinct
    # D values) of a random set while n^2 < p, and p of them above; the -600
    # cases sort and merge several blocks; the -dense, -index and -40 cases
    # hold p or fewer cells against a block's keys, so they count by index
    # (product-rep-40 over 10 blocks), and the weighted blocks of
    # product-rep-dense set its peak
    "eplus-300": lambda: (additive_energy, _rand_a(1000003, 300)),
    "eplus-dense": lambda: (additive_energy, _rand_a(4099, 400)),
    "eplus-index": lambda: (additive_energy, _rand_a(4099, 2000)),
    "eplus-p61": lambda: (additive_energy, _rand_a(P61, 100)),
    "eplus-600": lambda: (additive_energy, _rand_a(1000003, 600)),
    "product-rep-16": lambda: (product_rep_histogram, _rand_a(65537, 16)),
    "product-rep-40": lambda: (product_rep_histogram, _rand_a(65537, 40)),
    "product-rep-dense": lambda: (product_rep_histogram, _rand_a(1009, 40)),
    "product-rep-p61": lambda: (product_rep_histogram, _rand_a(P61, 12)),
    "minkowski-200": lambda: (minkowski_realisations, _rand_a(65537, 200), 5),
    "minkowski-index": lambda: (minkowski_realisations, _rand_a(1009, 512), 5),
    "minkowski-cold-262139": lambda: (minkowski_realisations, _rand_a(262139, 8), 5),
    "minkowski-p61": lambda: (minkowski_realisations, _rand_a(P61, 40), 5),
    "d-hist-300": lambda: (d_histogram, _rand_h(1000003, 300)),
    "d-hist-600": lambda: (d_histogram, _rand_h(1000003, 600)),
    "d-hist-index": lambda: (d_histogram, _rand_h(65537, 300)),
    "q-p61": lambda: (q_rect, _rand_h(P61, 60)),
}


def _peak_and_estimate(monkeypatch, case):
    """tracemalloc's peak of a cold call and the largest estimate it reserved."""
    fn, *args = case()  # the inputs, built before the measured call
    reserved = []
    real = counts._reserve
    monkeypatch.setattr(counts, "_reserve", lambda what, nbytes: (reserved.append(nbytes), real(what, nbytes)))
    for table in (counts._inv_vec, counts._sqrt_vec):
        table.cache_clear()  # the call builds its lookup tables cold
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, max(reserved) + counts._OVERHEAD


@pytest.mark.parametrize("case", _PEAK_CASES.values(), ids=_PEAK_CASES.keys())
def test_reserved_bytes_bound_the_peak(monkeypatch, case):
    """Each kernel's estimate is at least tracemalloc's peak of the call, and
    at most 4 peaks + 1 MiB (a gate that is not vacuous)."""
    peak, estimate = _peak_and_estimate(monkeypatch, case)
    assert peak <= estimate <= 4 * peak + (1 << 20)


# the histograms and their readers: the coset labels (whose arguments and
# labels are Python ints below p at 2^61 - 1), the pair histograms and Q and
# the Minkowski count on top of them
_HISTOGRAM_CASES = [
    *(f"borel-{p}" for p in ("256", "262139", "1000003", "p61")),
    *(f"eplus-{s}" for s in ("300", "dense", "index", "p61", "600")),
    *(f"product-rep-{s}" for s in ("16", "40", "dense", "p61")),
    *(f"minkowski-{s}" for s in ("200", "index", "cold-262139", "p61")),
    *(f"d-hist-{s}" for s in ("300", "600", "index")),
    "q-p61",
]


@pytest.mark.parametrize("name", _HISTOGRAM_CASES)
def test_histogram_estimates_within_two_peaks(monkeypatch, name):
    """The histogram kernels return arrays, so they reserve within 2 peaks + 1 MiB."""
    peak, estimate = _peak_and_estimate(monkeypatch, _PEAK_CASES[name])
    assert peak <= estimate <= 2 * peak + (1 << 20)


# the Moebius hit kernel's callers, whose bytes per (pole, point) and per
# map are measured
_HIT_CASES = [name for name in _PEAK_CASES if name.split("-")[0] in ("sigma", "sumprod", "cschain")]


@pytest.mark.parametrize("name", _HIT_CASES)
def test_hit_estimates_within_two_peaks(monkeypatch, name):
    peak, estimate = _peak_and_estimate(monkeypatch, _PEAK_CASES[name])
    assert peak <= estimate <= 2 * peak + (1 << 20)


def test_inv_vec_built_once_per_prime():
    p = 65537
    inv = counts._inv_vec(p)
    x = np.arange(1, p)
    assert np.all(x * inv(x) % p == 1) and inv(np.array([0]))[0] == 0
    tracemalloc.start()
    try:
        assert counts._inv_vec(p) is inv
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * p  # no new int64 table


def test_sqrt_vec_built_once_per_prime():
    p = 65537
    sqrt = counts._sqrt_vec(p)
    x = np.arange(p)
    s = sqrt(x)
    residue = s >= 0
    assert np.all(s[residue] * s[residue] % p == x[residue])
    assert residue.sum() == (p + 1) // 2 and np.all(s[~residue] == -1)
    tracemalloc.start()
    try:
        assert counts._sqrt_vec(p) is sqrt
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * p  # no new int64 table


_LARGEST_TABLE_PRIME = next(q for q in range(counts._INV_TABLE_MAX, 2, -1) if is_prime(q))


@pytest.mark.parametrize("p", [3, 5, 61, 1009, 4099, 65537, _LARGEST_TABLE_PRIME])
def test_inv_table_every_residue(p):
    F = check_prime(p)
    x = np.arange(p)
    inv = counts._inv_vec(p)(x)
    assert inv.dtype == np.int64 and inv[0] == 0
    assert np.all(x[1:] * inv[1:] % p == 1)
    assert inv[1:].tolist() == [F.inv(i) for i in range(1, p)]


# ------------------------------------------------------------ rectangular quadruples

def test_d_histogram_and_q_pin():
    hist = _table(d_histogram(HD))
    assert hist == {0: 2, 1: 2}  # no pair at any other value
    assert sum(hist.values()) == len(HD) ** 2
    assert q_rect(HD) == 8


# ------------------------------------------------------------ minkowski

def test_minkowski_grid_pin():
    assert tuple(minkowski_grid(B01)) == ((0, 0), (1, 1), (1, 6), (2, 0))


def test_minkowski_realisations_pin():
    assert minkowski_realisations(B01, 1) == 4
    with pytest.raises(InvalidArgument):
        minkowski_realisations(B01, 0)


def test_minkowski_brute_force_small():
    rng = random.Random(3)
    for _ in range(20):
        p = 13
        A = ScalarSet(p, tuple(rng.sample(range(p), rng.randint(1, 6))))
        lam = rng.randrange(1, p)
        expected = 0
        for x1 in A:
            for y1 in A:
                for x2 in A:
                    for y2 in A:
                        if ((x1 - x2) ** 2 - (y1 - y2) ** 2) % p == lam:
                            expected += 1
        assert minkowski_realisations(A, lam) == expected
        # the 45-degree image turns Minkowski distance into D
        assert _table(d_histogram(minkowski_grid(A))).get(lam, 0) == expected


@pytest.mark.parametrize("p", [(1 << 31) - 1, P61])
def test_minkowski_at_word_size_primes(p):
    # squares of differences past int64 at 2^61 - 1; lam = d^2 for a
    # difference d brings in S(0) = |A|, the pairs at dy = 0
    A = parse_setspec("random:12,1", Fp(p))
    d = (A.elements[3] - A.elements[7]) % p
    grid = _table(d_histogram(minkowski_grid(A)))
    for lam in (1, 5, p - 1, d * d % p, random.Random(p).randrange(1, p)):
        assert minkowski_realisations(A, lam) == grid.get(lam, 0)
    assert grid[d * d % p] > 0


def test_minkowski_takes_no_square_root(monkeypatch):
    def no_root(p):
        raise AssertionError("square root taken")

    monkeypatch.setattr(counts, "_sqrt_vec", no_root)
    for p in (1009, 1000003, P61):
        A = parse_setspec("random:20,1", Fp(p))
        assert minkowski_realisations(A, 5) == _table(d_histogram(minkowski_grid(A))).get(5, 0)


def test_minkowski_rect_cover_is_one_sided():
    # the rectangle reformulation over A+A and A-A covers every
    # realisation pair but can strictly overcount
    A = ScalarSet(101, (20, 38, 53, 95))
    lam = 73
    direct = minkowski_realisations(A, lam)
    swapped = TranslateSet(101, tuple(((x - y) % 101, (x + y) % 101) for x in A for y in A))
    srect = sigma_rect(sumset(A, A), difference_set(A, A), swapped, lam)
    assert direct == 0
    assert srect == 25
    assert direct < srect


# ------------------------------------------------------------ rich curves

def _mk_witnesses(A, k, lam=-1):
    """The translates (a, b) counted by m_k, in order, read off the richness map."""
    arm = counts._mk_columns if A.p <= min(len(A) ** 2, counts._INT64_P) else counts._mk_pairs
    keys, rich = arm(A, lam % A.p)
    return tuple(divmod(key, A.p) for key in keys[rich >= k].tolist())


def _lk_witnesses(B, C, k):
    """The lines counted by l_k, in order: ("s", m, c) for y = m x + c off the
    line map, then ("v", x) for each vertical line."""
    keys, hits = counts._lines(B, C)
    slopes = tuple(("s", *divmod(key, B.p)) for key in keys[hits >= k * (k - 1) // 2].tolist())
    return slopes + tuple(("v", x) for x in (B.elements if len(C) >= k else ()))


def test_rich_hyperbolae_pins():
    assert rich_hyperbolae(A16, 2) == 3
    assert _mk_witnesses(A16, 2) == ((0, 0), (3, 4), (4, 3))
    assert rich_hyperbolae(A16, 3) == 0


def test_rich_hyperbolae_ap_pin():
    # p = 61 <= 8^2 runs the column arm; the pair arm gives the same map
    A = ScalarSet(61, tuple(range(1, 9)))
    keys, rich = counts._mk_pairs(A, 60)
    for k, expected in ((2, 1140), (3, 320), (4, 42)):
        assert rich_hyperbolae(A, k) == expected
        assert np.count_nonzero(rich >= k) == expected


@pytest.mark.parametrize(
    "p, spec",
    [(1009, "random:40,1"), (1009, "ap:1,1,32"), (65537, "random:8,1"), (65537, "gp:3,5,8"),
     (61, "random:8,1"), (61, "ap:1,1,8"), (61, "gp:2,3,8"), (101, "random:12,1"), (101, "ap:3,5,11"),
     (101, "gp:2,3,11"), (1009, "gp:3,5,32")],
)
def test_mk_arms_agree(p, spec):
    """The column and pair arms give the same translate -> richness map, the
    column arm counting by index where p <= |A|^2 and sorting above."""
    A = parse_setspec(spec, Fp(p))
    for lam in (-1, 5):
        lam %= p
        ck, cr = counts._mk_columns(A, lam)
        pk, pr = counts._mk_pairs(A, lam)
        assert len(ck) > 0
        assert np.array_equal(ck, pk) and np.array_equal(cr, pr)
        assert np.all(ck[1:] > ck[:-1]) and np.all(cr >= 2)


def test_rich_hyperbolae_arm_selection(monkeypatch):
    """The column arm runs when p <= |A|^2 and p <= 2^21, the pair arm otherwise."""
    ran = []
    for name in ("_mk_columns", "_mk_pairs"):
        monkeypatch.setattr(
            counts, name, lambda A, lam, name=name: ran.append(name) or (np.zeros(0, np.int64),) * 2
        )
    for p, n, arm in (
        (1009, 32, "_mk_columns"),  # 1009 <= 1024
        (1009, 31, "_mk_pairs"),  # 1009 > 961
        (65537, 257, "_mk_columns"),  # 65537 <= 66049
        (65537, 256, "_mk_pairs"),  # 65537 > 65536
        (2097143, 1449, "_mk_columns"),  # the largest prime below 2^21
        (2097169, 1449, "_mk_pairs"),  # above 2^21 the pair arm runs at any size
    ):
        ran.clear()
        assert rich_hyperbolae(ScalarSet(p, tuple(range(n))), 3) == 0
        assert ran == [arm], (p, n)


def _digest(witnesses) -> str:
    return hashlib.sha256(repr(witnesses).encode()).hexdigest()[:16]


# recorded from the per-translate and Counter loops that the arms replaced
_LARGE_P_RICH = {
    2097169: {
        ("mk", 2): (2478, "9820cdd7e42115b9"),
        ("mk", 3): (15, "0c6392b0896b8772"),
        ("mk", 4): (1, "5a86e376cdc22fce"),
        ("lk", 3): (98, "aafa72c45cca7f43"),
        ("lk", 4): (23, "e456fb865b70eb74"),
    },
    P61: {
        ("mk", 2): (1858, "4181e6aa0ede9412"),
        ("mk", 3): (15, "57ef59f24b2de25f"),
        ("mk", 4): (1, "5a86e376cdc22fce"),
        ("lk", 3): (98, "1883b80333cb4e60"),
        ("lk", 4): (23, "f9ae619c4cc51471"),
    },
}


@pytest.mark.parametrize("p", _LARGE_P_RICH)
def test_rich_counts_at_large_primes(p):
    # x and -1/x for x = 1..4: the translate (0, 0) holds all 8 points
    A = ScalarSet(p, tuple({x for x in range(1, 5)} | {-pow(x, -1, p) % p for x in range(1, 5)}))
    for (quantity, k), (count, digest) in _LARGE_P_RICH[p].items():
        found = rich_hyperbolae(A, k) if quantity == "mk" else rich_lines(A, A, k)
        wits = _mk_witnesses(A, k) if quantity == "mk" else _lk_witnesses(A, A, k)
        assert (found, len(wits), _digest(wits)) == (count, count, digest), (quantity, k)
        assert type(found) is int
    assert _mk_witnesses(A, 8) == ((0, 0),) and rich_hyperbolae(A, 8) == 1


def test_rich_hyperbolae_domain(monkeypatch):
    with pytest.raises(InvalidArgument, match="k must be >= 2"):
        rich_hyperbolae(A16, 1)
    with pytest.raises(InvalidArgument, match="lambda"):
        rich_hyperbolae(A16, 2, 7)
    assert rich_hyperbolae(ScalarSet(7, ()), 2) == 0
    assert rich_hyperbolae(ScalarSet(7, (3,)), 2) == 0
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "1")
    with pytest.raises(ResourceLimit, match="m_k column pass"):
        rich_hyperbolae(_rand_a(1009, 40), 3)
    with pytest.raises(ResourceLimit, match="m_k pair pass"):
        rich_hyperbolae(_rand_a(65537, 30), 3)
    assert rich_hyperbolae(_rand_a(1009, 10), 3) >= 0


@pytest.mark.parametrize(
    "p, spec",
    [(1009, "ap:1,1,16"), (1009, "gp:3,5,16"), (1009, "random:16,1"), (65537, "random:24,2"), (7, "ap:0,1,7"),
     (13, "ap:0,1,13")],
)
def test_mk_is_at_most_four_times_its_bound(p, spec):
    """A t-rich translate holds C(t, 2) pairs of points with distinct
    coordinates, and such a pair lies on at most 2 translates, so
    m_k <= 2|A|^4 / (k(k-1)): at most 4 times either branch of eval_mk_bb,
    min(|A|^7/k^5, p|A|^4/k^3), for every 2 <= k <= |A| (A = F_p included)."""
    A = parse_setspec(spec, Fp(p))
    n = len(A)
    found = [rich_hyperbolae(A, k) for k in range(2, n + 1)]
    assert found[0] > 0
    for k, m in enumerate(found, start=2):
        assert m * k**5 <= 4 * n**7 and m * k**3 <= 4 * p * n**4, k


def test_rich_lines_pins():
    assert rich_lines(B01, B01, 2) == 6
    lines = (("s", 0, 0), ("s", 0, 1), ("s", 1, 0), ("s", 6, 1), ("v", 0), ("v", 1))
    assert _lk_witnesses(B01, B01, 2) == lines
    assert rich_lines(B01, B01, 3) == 0
    assert rich_lines(B01, ScalarSet(7, (0, 1, 2)), 3) == 2
    assert _lk_witnesses(B01, ScalarSet(7, (0, 1, 2)), 3) == (("v", 0), ("v", 1))
    with pytest.raises(InvalidArgument):
        rich_lines(B01, B01, 1)


def test_rich_lines_brute_force_small():
    # all lines through >= 2 grid points, counted by point-pair closure
    p = 11
    rng = random.Random(9)
    B = ScalarSet(p, tuple(rng.sample(range(p), 4)))
    C = ScalarSet(p, tuple(rng.sample(range(p), 4)))
    pts = [(x, y) for x in B for y in C]
    lines = set()
    for i, (x1, y1) in enumerate(pts):
        for x2, y2 in pts[i + 1 :]:
            if x1 == x2:
                lines.add(("v", x1))
            else:
                m = (y1 - y2) * pow(x1 - x2, p - 2, p) % p
                c = (y1 - m * x1) % p
                lines.add(("s", m, c))
    k = 3
    expected = 0
    for line in lines:
        if line[0] == "v":
            on = sum(1 for x, y in pts if x == line[1])
        else:
            on = sum(1 for x, y in pts if (line[1] * x + line[2]) % p == y)
        if on >= k:
            expected += 1
    assert rich_lines(B, C, k) == expected


# ------------------------------------------------------------ scalar-set counts

def test_additive_energy_pins():
    assert additive_energy(B01) == 6
    assert additive_energy(ScalarSet(7, (2,))) == 1


def test_product_rep_energy_pin():
    assert product_rep_energy(B01) == 152


@pytest.mark.parametrize("p, n", [(65537, 40), (P61, 12)])
def test_d_histogram_of_a_square_is_the_product_histogram(p, n):
    # D((a, b), (a', b')) = (a - a')(b - b'): over B x B the D values are the
    # products of two differences of B; at p = 65537 both kernels merge
    # several blocks (2 560 000 pairs of H, 1541^2 pairs of differences)
    B = _rand_a(p, n)
    hist = _table(d_histogram(gen_cartesian(B, B)))
    assert hist == _table(product_rep_histogram(B))
    assert sum(hist.values()) == n**4


@pytest.mark.parametrize("p", [4099, P61])
def test_additive_energy_against_a_pair_loop(p):
    B = _rand_a(p, 600)  # 360 000 differences: two blocks
    r = Counter((x - y) % p for x in B for y in B)
    energy = additive_energy(B)
    assert energy == sum(v * v for v in r.values()) and type(energy) is int


@pytest.mark.parametrize("p", [1009, P61])
def test_histograms_of_empty_sets(p):
    empty = ScalarSet(p, ())
    assert additive_energy(empty) == product_rep_energy(empty) == minkowski_realisations(empty, 3) == 0
    assert _table(product_rep_histogram(empty)) == {} == _table(d_histogram(TranslateSet(p, ())))
    assert q_rect(TranslateSet(p, ())) == 0


def test_sumprod_pins():
    A = ScalarSet(5, (0, 1))
    assert sumprod_quadruples(A, 1) == 4
    assert sumprod_quadruples(ScalarSet(5, (1,)), 1) == 0
    for variant in (2, 3, 4):
        assert sumprod_quadruples(A, variant) >= 0
    with pytest.raises(InvalidArgument):
        sumprod_quadruples(A, 5)


def test_sumprod_brute_force_variant2():
    # (a1 + a2 - a4)(a3 + a2 + a4) = 1 by full quadruple scan
    p = 11
    A = ScalarSet(p, (1, 3, 4, 9))
    expected = 0
    for a1 in A:
        for a2 in A:
            for a3 in A:
                for a4 in A:
                    if (a1 + a2 - a4) * (a3 + a2 + a4) % p == 1:
                        expected += 1
    assert sumprod_quadruples(A, 2) == expected


# the four sumprod equations, each = 1, written out for a quadruple scan
_SUMPROD_EQUATIONS = {
    1: lambda a1, a2, a3, a4: (a1 + a2) * (a3 + a4),
    2: lambda a1, a2, a3, a4: (a1 + a2 - a4) * (a3 + a2 + a4),
    3: lambda a1, a2, a3, a4: (a1 + a2) * (a3 + a2 * a4),
    4: lambda a1, a2, a3, a4: (a1 + a2 + a4) * (a3 + a2 * a4),
}


@pytest.mark.parametrize("p", [1000003, 2097169, P61])
def test_incidence_kernels_at_large_primes(p):
    # no inverse table above 2^18: 1000003 inverts by pow(x, -1, p) on int64
    # arrays, 2097169 and 2^61 - 1 on arrays of Python ints
    assert p > counts._INV_TABLE_MAX
    rng = random.Random(p)
    lam = rng.randrange(1, p - 1)  # not -1
    A = ScalarSet(p, (0, 1, 2, (p + 1) // 2, p - 1, *rng.sample(range(p), 3)))
    xs = A.elements
    # translates through points of A x A, one with its pole at 0 in A, and random ones
    through = [(x, y, rng.randrange(p)) for x, y in zip(rng.choices(xs, k=6), rng.choices(xs, k=6))]
    H = TranslateSet(
        p,
        (
            *(((y - lam * pow(x - b, -1, p)) % p, b) for x, y, b in through if x != b),
            (1, 0),
            *((rng.randrange(p), rng.randrange(p)) for _ in range(4)),
        ),
    )
    got = sigma_rect(A, A, H, lam)
    assert type(got) is int and got == oracle.sigma_naive(A, H, lam) >= 6
    for variant, form in _SUMPROD_EQUATIONS.items():
        got = sumprod_quadruples(A, variant)
        want = sum(form(*q) % p == 1 for q in itertools.product(xs, repeat=4))
        assert type(got) is int and got == want > 0


@pytest.mark.parametrize("lam", [1, -1, 5, -2])  # -2 is p - 2
@pytest.mark.parametrize("p", [1009, 262147, 2097169, P61])
def test_sigma_divides_lambda_out(p, lam):
    # sigma_rect tests a/lam + inv(x - b) against C/lam: the shifts and
    # targets are divided by lambda as int64 columns up to 2^21 and as
    # Python-int columns above
    rng = random.Random(p + lam)
    A = ScalarSet(p, (0, 1, p - 1, *rng.sample(range(2, p - 1), 9)))
    xs = A.elements
    through = [(x, y, rng.randrange(p)) for x, y in zip(rng.choices(xs, k=8), rng.choices(xs, k=8))]
    H = TranslateSet(
        p,
        (
            *(((y - lam * pow(x - b, -1, p)) % p, b) for x, y, b in through if x != b),
            *((rng.randrange(p), rng.randrange(p)) for _ in range(4)),
        ),
    )
    got = sigma(A, H, lam)
    assert type(got) is int and got == oracle.sigma_naive(A, H, lam) >= 6


@pytest.mark.parametrize("p", [262139, 262147])
def test_hits_membership_routes(monkeypatch, p):
    # 262139 <= 2^18 < 262147: a boolean table of the targets up to
    # _INV_TABLE_MAX, np.isin above it
    table = p <= counts._INV_TABLE_MAX
    assert table is (p == 262139)
    isin_calls = []
    real_isin = np.isin
    monkeypatch.setattr(np, "isin", lambda *args, **kw: (isin_calls.append(1), real_isin(*args, **kw))[1])
    rng = random.Random(p)
    A = ScalarSet(p, (0, 1, 2, p - 1, *rng.sample(range(p), 8)))
    xs = A.elements
    # translates through points of A x A on the curve (x - b)(y - a) = -1,
    # (0,0), (1,0), (2,0) (translations by differences of A as quotients),
    # (p-1,3) (with them, quotients with a1, a2 in A and w != 0), and random ones
    through = [(x, y, rng.randrange(p)) for x, y in zip(rng.choices(xs, k=6), rng.choices(xs, k=6))]
    H = TranslateSet(
        p,
        (
            *(((y + pow(x - b, -1, p)) % p, b) for x, y, b in through if x != b),
            (0, 0),
            (1, 0),
            (2, 0),
            (p - 1, 3),
            *((rng.randrange(p), rng.randrange(p)) for _ in range(4)),
        ),
    )
    want = _scalar_cs_chain(A, H)
    # by default every row fits in one block; at 200 bytes a block holds the
    # rows of two poles (and one target row of the table), and every pole
    # array is reduced to its distinct values
    for row_bytes, few_cells in ((counts._HIT_ROW_BYTES, counts._FEW_CELLS), (200, 0)):
        monkeypatch.setattr(counts, "_HIT_ROW_BYTES", row_bytes)
        monkeypatch.setattr(counts, "_FEW_CELLS", few_cells)
        got = sigma(A, H)
        assert type(got) is int and got == oracle.sigma_naive(A, H) >= 6
        rep = cs_chain_report(A, H)
        fields = (rep.sigma, rep.lhs_sq, rep.rhs_cs, rep.delta, rep.omega_size, rep.omega_incidence_share)
        assert fields == want
    assert bool(isin_calls) is not table


def _preimage_square_sum(A, H):
    """sum over z in P^1 of c(z)^2, c(z) the number of (h, x) in H x A with
    h^-1(x) = z: h^-1(x) = b - 1/(x - a), and oo where x = a."""
    p = A.p
    c = Counter((b - pow(x - a, -1, p)) % p if x != a else INFINITY for a, b in H for x in A)
    return sum(v * v for v in c.values())


@pytest.mark.parametrize(
    "p, a_spec, h_spec",
    [
        (1009, "ap:1,1,64", "randomh:512,1"),  # the benchmark's cschain job
        (1009, "random:40,2", "cart:ap:1,1,20;gp:1,3,20"),
        (65537, "random:50,3", "randomh:300,3"),
        (2097169, "random:20,4", "randomh:120,4"),
        # a grid shares each a among several translates and holds A's points;
        # small residues in target rows past the first, whose keys k 3p + t
        # stay in int64 at this p only within a block of one row
        (P61, "ap:0,1,8", "cart:ap:0,1,6;ap:1,1,4"),
        (P61, "list:1", "listh:1,1"),
        (P61, "list:1,2,3", "listh:1,1;2,1;5,7;3,2"),
    ],
)
def test_cs_chain_sum_is_a_preimage_square_sum(p, a_spec, h_spec):
    # sum_u r(u) sigma_u counts (h1, h2, x, y) in H^2 x A^2 with
    # h1 h2^-1 x = y, that is h2^-1 x = h1^-1 y on P^1: a sum of squared
    # preimage counts, far past the reach of the scalar evaluate loop
    F = Fp(p)
    A, H = parse_setspec(a_spec, F), parse_setspec(h_spec, F)
    rep = cs_chain_report(A, H)
    assert rep.rhs_cs == len(A) * _preimage_square_sum(A, H)


def test_cs_chain_inverts_once_per_pole_and_point(monkeypatch):
    # above 2^18 each inverse is an Fp.inv call: one per distinct pole (a b of
    # H for sigma, an a of H for sigma_u) and point, not one per quotient and point
    p = 1000003
    F = Fp(p)
    A, H = parse_setspec("random:12,1", F), parse_setspec("randomh:100,1", F)
    calls = []
    real = Fp.inv
    monkeypatch.setattr(Fp, "inv", lambda self, x: (calls.append(x), real(self, x))[1])
    counts._inv_vec.cache_clear()
    rep = cs_chain_report(A, H)
    assert 0 < len(calls) <= (len({a for a, _ in H}) + len({b for _, b in H})) * len(A)
    assert rep.rhs_cs == len(A) * _preimage_square_sum(A, H)


def test_dot_exact_on_both_sides_of_int64():
    top = np.full(4, 1 << 31, dtype=np.int64)
    assert counts._dot(top, top) == 1 << 64  # its partial sums leave int64
    assert counts._dot(top[:1], top[:1]) == 1 << 62
    edge = np.array([3037000499], dtype=np.int64)  # the largest square below 2^63
    assert counts._dot(edge, edge) == 3037000499**2
    one = np.array([1 << 31, 0, 0, 0], dtype=np.int64)
    assert counts._dot(one, top) == 1 << 62  # the bound fails, the sum fits
    big = np.array([(1 << 62) + 1, 3], dtype=np.int64)
    assert counts._dot(big, np.array([4, 5], dtype=np.int64)) == (1 << 64) + 19
    empty = np.zeros(0, dtype=np.int64)
    for u, v in ((top, top), (edge, edge), (one, top), (empty, empty)):
        assert type(counts._dot(u, v)) is int
    assert counts._dot(empty, empty) == 0


def test_square_sums_past_int64():
    # H = {(a, 0): 1 <= a <= 600}: every quotient is the translation by a
    # difference, so T_4 counts pairs of differences by their sum mod p, a
    # cyclic convolution of the difference histogram; 600^7 > 2^63 > T_4
    p = 65537
    H = parse_setspec("cart:ap:1,1,600;ap:0,1,1", Fp(p))
    r = Counter((a1 - a2) % p for a1, _ in H for a2, _ in H)
    r4 = Counter()
    for d1, r1 in r.items():
        for d2, r2 in r.items():
            r4[(d1 + d2) % p] += r1 * r2
    want4 = sum(v * v for v in r4.values())
    assert want4 == 13419171565747885800 > 1 << 63
    assert t_k(H, 4) == want4
    assert t_k(H, 2) == sum(v * v for v in r.values())
    # a product u h3 of a translation u by d with h3 = (a3, 0) is fixed by
    # d + a3, so T_3 counts a1 - a2 + a3 = s; the 1199 quotients take the
    # quotient arm, where the fill would need 1.75 GB
    ones = np.ones(600, dtype=np.int64)
    r3 = np.convolve(np.convolve(ones, ones), ones)
    assert t_k(H, 3) == int(np.dot(r3, r3)) == 42768054000120


@pytest.mark.parametrize(
    "top_key, top_weight, packs",
    [
        (2**31 - 1, 2**32 - 1, True),
        (2**31 - 1, 2**32, False),
        (2**62 - 1, 1, True),
        (2**62, 1, False),
        (1, 2**62 - 1, True),
    ],
)
def test_packed_and_argsort_tallies_agree(top_key, top_weight, packs):
    """Weighted int64 keys pack, sort and unpack in place where (max key + 1)
    (max weight + 1) <= 2^63 and go by argsort past it, as Python-int keys
    always do; either way each key's weights sum exactly."""
    rng = random.Random(top_key ^ top_weight)
    pool = [top_key, 0, *rng.sample(range(top_key), 1)]
    keys = np.array([rng.choice(pool) for _ in range(200)] + [top_key], dtype=np.int64)
    weights = np.array([rng.randint(1, top_weight) for _ in range(200)] + [top_weight], dtype=np.int64)
    want = Counter()
    for k, w in zip(keys.tolist(), weights.tolist()):
        want[k] += w
    given = keys.copy()
    values, sums = counts._tally(given, weights)
    assert dict(zip(values.tolist(), sums.tolist())) == want and values.tolist() == sorted(want)
    assert (given.tolist() != keys.tolist()) is packs  # packing overwrote the keys
    wide = counts._tally(keys.astype(object), weights)
    assert [v.tolist() for v in wide] == [values.tolist(), sums.tolist()]


def test_tally_sums_past_int64():
    # len(weights) max(weight) >= 2^63: the sums are Python ints, after an
    # argsort ((7 + 1)(2^62 + 1) > 2^63) and after a packed sort
    # ((1 + 1)(2^61 + 1) <= 2^63, which overwrites the keys)
    for keys, weights, packs in (
        ([5, 5, 5, 7], [1 << 62, 1 << 62, (1 << 62) - 1, 3], False),
        ([1, 1, 1, 1, 1, 0], [1 << 61] * 5 + [3], True),
    ):
        keys, weights = np.array(keys, dtype=np.int64), np.array(weights, dtype=np.int64)
        given = keys.copy()
        values, sums = counts._tally(given, weights)
        assert (given.tolist() != keys.tolist()) is packs
        want = Counter()
        for k, w in zip(keys.tolist(), weights.tolist()):
            want[k] += w
        assert dict(zip(values.tolist(), sums.tolist())) == want
        assert max(want.values()) > 1 << 63 and all(type(v) is int for v in sums)
    # one short of the bound stays int64: 2 (2^62 - 1) < 2^63, packed at
    # (1 + 1)(2^62 - 1 + 1) = 2^63 exactly
    values, sums = counts._tally(np.array([1, 1], dtype=np.int64), np.full(2, (1 << 62) - 1, dtype=np.int64))
    assert sums.dtype == np.int64 and sums.tolist() == [(1 << 63) - 2]


# ------------------------------------------------------------ borel structure

def test_borel_masses_pin():
    labels, masses, max_nb = borel_coset_mass(H2)
    assert max_nb == 0
    # every quotient is a translation, so all of E(H) = 6 sits at oo (label p)
    assert (labels.tolist(), masses.tolist()) == ([7], [6])


def test_borel_coset_mass_labels():
    # the label of the left Borel coset of a quotient u is u(oo): a/c, or oo
    # on the Borel subgroup itself (c = 0)
    F = Fp(7)
    assert evaluate(embed_translate(F, (3, 5)), INFINITY) == 3  # a/c = (-3)/(-1)
    H = TranslateSet(7, ((0, 0), (1, 0), (3, 5), (2, 6)))
    mats = [embed_translate(F, h) for h in H]
    r = Counter(compose(m1, invert(m2)).entries for m1 in mats for m2 in mats)
    want = Counter()
    for entries, n in r.items():
        want[evaluate(MoebiusMap(7, *entries), INFINITY)] += n * n
    table, max_nb = _cosets(H)
    assert table == want and len(want) > 1
    assert max_nb == max(v for label, v in want.items() if label is not INFINITY)


def test_borel_masses_generic():
    rng = random.Random(7)
    for _ in range(10):
        H = rand_translates(rng, 13, 9)
        _, masses, max_nb = borel_coset_mass(H)
        assert int(masses.sum()) == t_k(H, 2)
        assert max_nb <= len(H) ** 2
        assert borel_t3_mass(H) <= t_k(H, 3)


# ------------------------------------------------------------ cauchy-schwarz chain

def test_cs_chain_pin():
    rep = cs_chain_report(A16, H00)
    assert rep.sigma == 2
    assert rep.lhs_sq == 4
    assert rep.rhs_cs == 4  # tight: one translate, every mass on it
    assert rep.delta == Fraction(2, 3)
    assert rep.omega_size == 1
    assert rep.omega_incidence_share == 1


def test_cs_chain_inequality_random():
    rng = random.Random(13)
    for _ in range(15):
        A = ScalarSet(101, tuple(rng.sample(range(101), rng.randint(1, 8))))
        H = rand_translates(rng, 101, rng.randint(1, 10))
        rep = cs_chain_report(A, H)
        assert rep.lhs_sq <= rep.rhs_cs
        assert 0 <= rep.omega_incidence_share <= 1
        assert rep.omega_size <= len(quotient_histogram(H))


def test_cs_chain_raises_when_inequality_fails(monkeypatch):
    # an explicit raise, not an assert, so the check survives python -O
    monkeypatch.setattr(counts, "sigma", lambda A, H, lam: 3)
    with pytest.raises(AssertionError, match="Cauchy-Schwarz"):
        cs_chain_report(A16, H00)


def test_cs_chain_domain():
    with pytest.raises(EmptyInput):
        cs_chain_report(ScalarSet(7, ()), H00)


# ------------------------------------------------------------ cartesian identities

def test_cartesian_energy_exact_identity():
    # E(BxB) = 2|B|^2 E+(B) - |B|^4 holds exactly; with B = {0,1} mod 7
    # it gives 32, strictly above |B|^2 E+(B) = 24
    rng = random.Random(17)
    for _ in range(12):
        B = ScalarSet(101, tuple(rng.sample(range(101), rng.randint(1, 6))))
        H = gen_cartesian(B, B)
        e = t_k(H, 2)
        eplus = additive_energy(B)
        assert e == 2 * len(B) ** 2 * eplus - len(B) ** 4
        # the part of E(BxB) off the Borel subgroup
        table, _ = _cosets(H)
        assert e - table[INFINITY] == len(B) ** 2 * (eplus - len(B) ** 2)
    H = gen_cartesian(B01, B01)
    assert t_k(H, 2) == 32
    assert 32 > len(B01) ** 2 * additive_energy(B01)


@given(st.integers(0, 1))
@settings(max_examples=2, deadline=None)
def test_q_of_cartesian_square(flip):
    # D-histogram of B x B factors through the difference set squared
    B = ScalarSet(7, (0, 1, 3) if flip else (2, 5))
    H = gen_cartesian(B, B)
    diff = _table(d_histogram(H))
    r = {}
    for x in B:
        for y in B:
            r[(x - y) % 7] = r.get((x - y) % 7, 0) + 1
    expected = {}
    for da, ca in r.items():
        for db, cb in r.items():
            key = da * db % 7
            expected[key] = expected.get(key, 0) + ca * cb
    assert diff == expected
