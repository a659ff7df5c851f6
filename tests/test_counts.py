import functools
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
from hyperlab.errors import _OVERHEAD
from hyperlab.field import check_prime, is_prime
from hyperlab.moebius import (
    embed_entries,
    inverse_embed_entries,
    pair_quotient_entries,
    product_entries,
    product_key_entries,
)

A16 = ScalarSet(7, (1, 6))
H00 = TranslateSet(7, ((0, 0),))
H2 = TranslateSet(7, ((1, 0), (2, 0)))
HD = TranslateSet(7, ((0, 0), (1, 1)))
B01 = ScalarSet(7, (0, 1))


def rand_translates(rng, p, n):
    return TranslateSet(p, tuple(divmod(v, p) for v in rng.sample(range(p * p), n)))


def _t3_by_fill(H):
    """t_k(H, 3) on the fill arm, whatever the quotient support."""
    return counts._fill(H, 3)


def _t3_by_quotients(H):
    """t_k(H, 3) on the quotient support arm, whatever the support."""
    return counts._support(H, 3, counts._quotient_histogram(H))


def _t4_by_fill(H):
    """t_k(H, 4) on the fill arm, whatever the quotient support."""
    return counts._fill(H, 4)


def _t4_by_quotients(H):
    """t_k(H, 4) on the quotient support arm, whatever the support."""
    return counts._support(H, 4, counts._quotient_histogram(H))


def _fill_keys(monkeypatch, H, k):
    """The sorted keys of the T_k fill of H, as _product_squares sorts them."""
    caught = []
    real = counts._sort
    monkeypatch.setattr(counts, "_sort", lambda keys, weights=None: caught.append(keys) or real(keys, weights))
    counts._fill(H, k)
    monkeypatch.setattr(counts, "_sort", real)
    return caught[0]


def _record_arms(monkeypatch, names):
    """The list the named counts functions append their names to as they are called."""
    arms = []
    for name in names:
        real = getattr(counts, name)
        monkeypatch.setattr(counts, name, lambda *args, real=real, name=name: arms.append(name) or real(*args))
    return arms


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
    assert len(H) > counts._CELLS // len(B)
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


@pytest.mark.parametrize("p", [1009, 1291, 2097169, (1 << 61) - 1])
def test_t2_is_the_square_sum_of_the_counts(p):
    """T_2 off the sorted pair keys equals the counts' square sum and the
    oracle on the int32 (1009), int64 (1291) and Python-int rungs, on a
    random set and on a grid whose translates share b (translations, w = 0);
    the tally drops the keys, and len() is the support still."""
    F = Fp(p)
    for H in (_rand_h(p, 10), parse_setspec("cart:ap:1,1,3;ap:0,1,3", F), parse_setspec("randomh:300,1", F)):
        hist = quotient_histogram(H)
        assert hist.keys.dtype == (np.int32 if p <= 1289 else np.int64 if p <= 1 << 21 else object)
        want = counts._dot(hist.counts, hist.counts)
        assert t_k(H, 2) == want and type(want) is int
        assert hist.keys is None and len(hist) == len(hist.counts)  # the tally drops the keys
        if len(H) <= 10:
            assert want == oracle.energy_naive(H)


def test_t2_and_len_never_tally(monkeypatch):
    """t_k(H, 2) and len() read the held sorted keys without the run reader,
    in one block of runs and in several; args and counts tally on first read."""
    H = _rand_h(1009, 600)  # 360000 keys: six blocks of runs
    want = t_k(H, 2), len(quotient_histogram(H))

    def refuse(*_):
        raise AssertionError("tallied")

    monkeypatch.setattr(counts, "_read_runs", refuse)
    for block in (counts._RUN_BLOCK, 7):
        monkeypatch.setattr(counts, "_RUN_BLOCK", block)
        hist = quotient_histogram(H)
        assert (t_k(H, 2), len(hist)) == want
        with pytest.raises(AssertionError, match="tallied"):
            hist.args


def _closed_form_keys(p, H):
    """The pair keys of H and the keys of the products h3^-1 u and u v of its
    pair quotients, by the scalar closed forms over Python ints, row by row;
    h3^-1 is the adjugate of the embedding."""
    hs, (a, b) = list(H), (np.array(c, dtype=object) for c in zip(*H))
    pair = [((b1 - b2) % p * p + a1) * p + a2 if (b1 - b2) % p else (a1 - a2) % p * p for a1, b1 in hs for a2, b2 in hs]
    u = [pair_quotient_entries(p, *h1, *h2) for h1 in hs for h2 in hs]
    key = lambda e, f: (lambda a, b, c, d: (a * p + c) * p + (d if c else b))(*product_entries(p, *e, *f))  # noqa: E731
    inverted = [(lambda a, b, c, d: (d, -b % p, -c % p, a))(*embed_entries(p, a3, b3)) for a3, b3 in hs]
    return pair, [key(e, f) for e in inverted for f in u], [key(e, f) for e in u for f in u]


@pytest.mark.parametrize("p", [3, 1009, 1291, 65537, 2097169, (1 << 61) - 1])
def test_in_place_keys_match_the_closed_forms(monkeypatch, p):
    """The pair keys and the T_3 and T_4 product keys, written in place in
    blocks of 7 and 30 cells, which split the rows of |H| pair keys and of
    |H|^2 product keys into runs of columns, and of _CELLS, equal the scalar
    closed forms on a grid of translates sharing b (w = 0 pairs, and products
    with c = 0: each translation times a translation, and h3^-1 u with
    w (a3 - a1) = 1)."""
    F = Fp(p)
    H = parse_setspec("cart:ap:0,1,3;ap:0,1,2", F) if p == 3 else TranslateSet(
        p, (*parse_setspec("cart:ap:1,1,4;ap:0,1,2", F), (0, p - 1), (p - 1, 1), (2, p - 1)))
    pair, triple, four = _closed_form_keys(p, H)
    assert pair.count(0) < sum(k < p * p for k in pair)  # translations other than the identity
    assert sum(k // p % p == 0 for k in triple) > len(H) and sum(k // p % p == 0 for k in four) > len(H) ** 2
    a, b = counts._sl2_columns(H)
    u = [e.ravel() for e in pair_quotient_entries(p, a[:, None], b[:, None], a, b)]
    assert 30 < len(u[0]) < counts._CELLS and len(u[0]) % 30 and len(u[0]) % 7
    for cells in (7, 30, counts._CELLS):
        monkeypatch.setattr(counts, "_CELLS", cells)
        got = [counts._write_keys(p, (a, b), (a, b), counts._quotient_key, depth=1),
               counts._write_keys(p, inverse_embed_entries(p, a, b), u), counts._write_keys(p, u, u)]
        assert [k.tolist() for k in got] == [pair, triple, four]


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


def _generic_quotients(H):
    """The embedded translates and their quotients h1 h2^-1 by the generic compose/invert chain."""
    F = Fp(H.p)
    mats = [embed_translate(F, h) for h in H]
    return mats, [compose(m1, invert(m2)) for m1 in mats for m2 in mats]


def _generic_group_counts(H):
    """quotient, T_3 and T_4 histograms by the generic compose/invert chain."""
    mats, quotients = _generic_quotients(H)
    triples = [compose(u, m3) for u in quotients for m3 in mats]
    fours = Counter(compose(g, invert(m4)).entries for g in triples for m4 in mats)
    return Counter(u.entries for u in quotients), Counter(g.entries for g in triples), fours


def _scalar_cs_chain(A, H):
    """cs_chain_report's fields, with sigma_u by a scalar evaluate loop."""
    sig = sigma(A, H)
    members = set(A)
    rs = []
    for entries, r in Counter(u.entries for u in _generic_quotients(H)[1]).items():
        u = MoebiusMap(H.p, *entries)
        rs.append((r, sum(1 for x in A if evaluate(u, x) in members)))
    total = sum(r * su for r, su in rs)
    delta = Fraction(sig * sig, 3 * len(A) * len(H) ** 2)
    omega = [(r, su) for r, su in rs if su >= delta]
    share = Fraction(sum(r * su for r, su in omega), total) if total else Fraction(1)
    return (sig, sig * sig, len(A) * total, delta, len(omega), share)


def _cs_fields(rep):
    """All six fields of a Cauchy-Schwarz report, the Omega pass among them."""
    return (rep.sigma, rep.lhs_sq, rep.rhs_cs, rep.delta, rep.omega_size, rep.omega_incidence_share)


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
    assert _cs_fields(rep) == _scalar_cs_chain(A, H)
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
        # each element times the identity: its own key entries
        out, scratch = np.empty(len(a), np.int64), np.empty((2, len(a)), np.int64)
        keys = product_key_entries(p, out, scratch, a, b, c, d, 1, 0, 0, 1).tolist()
        assert len(set(keys)) == len(elems)
        for key, (a, b, c, d) in zip(keys, elems):
            assert 0 <= key < p**3
            assert (key // p**2, key // p % p, key % p) == (a, c, d if c else b)


def test_chunk_boundaries_leave_counts_unchanged(monkeypatch):
    # a grid has long runs of equal products, so runs straddle block ends
    H = gen_cartesian(ScalarSet(101, (1, 2, 3, 4)), ScalarSet(101, (1, 2, 3, 4, 5, 6)))
    A = ScalarSet(101, (1, 2, 3, 50, 100))
    R = ScalarSet(101, tuple(range(0, 101, 9)))  # 12 elements: 144 keys a row, more than p
    assert len(H) == 24

    def all_counts():
        return (t_k(H, 3), _t3_by_fill(H), _t3_by_quotients(H), borel_t3_mass(H), _cs_fields(cs_chain_report(A, H)),
                sigma(A, H, 3), sumprod_quadruples(A, 2), _table(d_histogram(H)), additive_energy(A),
                _table(product_rep_histogram(A)),
                *(v.tolist() for arm in (counts._mk_columns, counts._mk_pairs) for v in counts._joined(arm(R, 100))),
                rich_lines(R, A, 2), rich_lines(A, R, 3))

    want = all_counts()
    assert want[0] == want[1] == want[2] and want[3] > 0
    assert want[10:12] == want[12:14] and len(want[10]) > 0
    # every keyed pass goes in blocks of at most about _CELLS cells.  The
    # fill keys the 24 inverted h3 against rows of 576 pair quotients: 83
    # (7) or six (100) runs of columns a row, or five rows a block (2900);
    # the quotient histogram keys each h1 against a row of 24: four runs of
    # columns a row (7), four rows (100) or all 24 (2900) a block.  The D
    # histogram's 576 keys count by index (p <= 576) in 24, six or one
    # blocks of whole rows.  The m_k column arm counts R's rows of 144
    # keys by index, one row a block at 7 and 100 and 20 at 2900; the pair
    # arm keys R's 66 x-pairs against its 144 y-pairs in blocks of as many
    # x-pairs, and the lines A's 10 x-pairs against them likewise and R's
    # 66 against A's 25 y-pairs in 66, 17 or one block; the preimage counts
    # key H's 24 translates against A's 5 points in 24, two or one block.
    # Every sorted count reads its runs in blocks of as many keys.
    # The Moebius hits take one map (7), 20 maps (100)
    # or all (2900) per chunk of 5 points; one (7), two (100) or all (2900)
    # of the 40-byte pole rows per block, and one (7, 100) or all five
    # (2900) of the 303-byte membership rows of A's a values and the
    # translations per table block; the poles of sigma (24 maps x 5 points)
    # and sumprod (25 x 5) are reduced to their distinct values at 7 and 100
    for cells in (7, 100, 2900):
        for name in ("_CELLS", "_HIT_ROW_BYTES", "_FEW_CELLS", "_RUN_BLOCK"):
            monkeypatch.setattr(counts, name, cells)
        assert all_counts() == want


def test_pair_histogram_routes_agree(monkeypatch):
    """Each pair histogram equals a Counter over its pairs: added by index
    where p is at most its keys (no _tally), else sorted and counted once."""
    tallies = []
    real = counts._tally
    monkeypatch.setattr(counts, "_tally", lambda *args: tallies.append(1) or real(*args))

    def counted(fn, S):
        tallies.clear()
        return _table(fn(S)), len(tallies)

    # differences: n^2 keys; 1200^2 >= 1000003 > 2^18 is counted by index
    for p, n, sorts in ((1009, 40, 0), (1000003, 1200, 0), (65537, 40, 1), (P61, 30, 1)):
        A = _rand_a(p, n)
        assert counted(counts._differences, A) == (Counter((x - y) % p for x in A for y in A), sorts)
    # D: n^2 keys, formed as Python ints above 2^21 and counted as int64
    for p, n, sorts in ((1009, 40, 0), (1000003, 40, 1), (2097169, 30, 1)):
        H = _rand_h(p, n)
        assert counted(d_histogram, H) == (Counter((a - c) * (b - d) % p for a, b in H for c, d in H), sorts)
    # products of the m distinct differences: m^2 keys weighted by r(d1) r(d2),
    # after the difference histogram's own tally where it sorts
    for p, n, sorts in ((1009, 40, 0), (65537, 16, 2), (P61, 8, 2)):
        A = _rand_a(p, n)
        diffs, want = Counter((x - y) % p for x in A for y in A), Counter()
        for d1, r1 in diffs.items():
            for d2, r2 in diffs.items():
                want[d1 * d2 % p] += r1 * r2
        assert p <= len(diffs) ** 2 if sorts == 0 else p > len(diffs) ** 2
        assert counted(product_rep_histogram, A) == (want, sorts)


def test_t3_fill_chunks_at_p61(monkeypatch):
    # above 2^21 the key entries are object arrays, the inverted h3's
    # broadcast against the pair quotients; at 7, 100 and 2900 runs of 7 or
    # 100 columns and blocks of five rows split the 24 x 576 product grid,
    # as in the test above, and the default block holds it whole
    p = (1 << 61) - 1
    H = gen_cartesian(ScalarSet(p, (1, 2, 3, 4)), ScalarSet(p, (1, 2, 3, 4, 5, 6)))
    mats = [embed_translate(Fp(p), h) for h in H]
    triples = Counter(compose(compose(m1, invert(m2)), m3).entries for m1 in mats for m2 in mats for m3 in mats)
    want = (sum(v * v for v in triples.values()), sum(v * v for key, v in triples.items() if key[2] == 0))
    assert want[1] > 0
    for cells in (7, 100, 2900, counts._CELLS):
        monkeypatch.setattr(counts, "_CELLS", cells)
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
    # 40^3 int32 keys and a key block: 1.3 MB; 150^2 pairs and about
    # 150^3 / 101 Borel triples: 4.6 MB; the grid's 1819 quotients times 100
    # translates: 8.4 MB
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "1")
    with pytest.raises(ResourceLimit, match="T3 fill"):
        _t3_by_fill(H)
    with pytest.raises(ResourceLimit, match="T3 fill"):  # no support arm after the fill
        t_k(H, 3)
    with pytest.raises(ResourceLimit, match="Borel T3 join"):
        borel_t3_mass(big)
    with pytest.raises(ResourceLimit, match="T3 support"):
        _t3_by_quotients(grid)
    with pytest.raises(ResourceLimit, match="T3 fill"):  # the fill, after the support arm
        t_k(grid, 3)
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "24")
    assert (t_k(H, 3), borel_t3_mass(big), t_k(grid, 3)) == want
    # the default budget admits the fill at |H| = 512 and 640 (4 B per int32
    # key of 640^3: 1.05 GB, and a block of runs as they are counted), with
    # the support histogram that chose it dropped, and up to |H| = 736 at
    # p = 1009; an admitted fill stops before it allocates
    monkeypatch.delenv("HYPERLAB_BUDGET_MB")
    real = counts._reserve

    def reserve(what, nbytes):
        real(what, nbytes)
        if what == "T3 fill":
            raise _Admitted(what)

    monkeypatch.setattr(counts, "_reserve", reserve)
    for n in (512, 640, 736):
        with pytest.raises(_Admitted):
            t_k(rand_translates(rng, 1009, n), 3)
    H = rand_translates(rng, 1009, 737)
    with pytest.raises(ResourceLimit, match="T3 fill"):
        _t3_by_fill(H)
    with pytest.raises(ResourceLimit, match="T3 fill"):
        t_k(H, 3)


def test_t3_arm_follows_the_support(monkeypatch):
    """t_k(H, 3) sums over the quotient support where it is small against
    |H|^2 (grids), fills where it is not (random translates), where |H|^3 is
    at most _T3_FEW, with no support histogram built there, and where the
    budget refuses the quotient arm but admits the fill."""
    arms = _record_arms(monkeypatch, ("_fill", "_support", "_quotient_histogram"))
    F = Fp(1009)
    mid = parse_setspec("cart:ap:1,1,32;ap:1,1,4", F)  # |Q| / |H|^2 = 0.38
    for spec, want in (
        ("cart:ap:1,1,10;ap:1,1,10", ["_quotient_histogram", "_support"]),
        ("cart:ap:1,1,32;ap:1,1,4", ["_quotient_histogram", "_support"]),
        ("randomh:64,1", ["_quotient_histogram", "_fill"]),
        ("cart:ap:1,1,4;ap:1,1,4", ["_fill"]),
    ):
        arms.clear()
        t_k(parse_setspec(spec, F), 3)
        assert arms == want, spec
    # the quotient arm reserves 19.5 MiB for mid, the fill 9.2 MiB
    want = _t3_by_fill(mid)
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "16")
    arms.clear()
    assert t_k(mid, 3) == want
    assert arms == ["_quotient_histogram", "_support", "_fill"]


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


def _sl2_counts(H, H4):
    """Every SL2 count and histogram of H (T_4 of the smaller H4), with both
    T_3 arms forced, as plain ints and lists."""
    hist = quotient_histogram(H)
    labels, masses, max_nb = borel_coset_mass(H)
    return (t_k(H, 2), t_k(H, 3), _t3_by_fill(H), _t3_by_quotients(H), t_k(H4, 4), borel_t3_mass(H),
            labels.tolist(), masses.tolist(), max_nb, [v.tolist() for v in (*hist.args, hist.counts)])


@pytest.mark.parametrize("spec", ["randomh:128,1", "cart:ap:1,1,16;random:8,2"])
@pytest.mark.parametrize("p", [1289, 1291])
def test_int32_rung_matches_the_int64_route(monkeypatch, p, spec):
    """At the top of the int32 rung (1289^3 < 2^31) and at the first prime
    above it (1291^3 > 2^31), every SL2 kernel agrees with the int64 route,
    forced by emptying the rung.  The random set fills and the grid takes
    the quotient arm, and each forced arm runs too."""
    H = parse_setspec(spec, Fp(p))
    H4 = TranslateSet(p, H.elements[:24])
    assert len(H) >= 128
    assert quotient_histogram(H).args[0].dtype == (np.int32 if p == 1289 else np.int64)
    got = _sl2_counts(H, H4)
    monkeypatch.setattr(counts, "_INT32_P", 0)
    assert quotient_histogram(H).args[0].dtype == np.int64
    assert got == _sl2_counts(H, H4)


@pytest.mark.parametrize("p", [1289, 1291])
def test_int32_rung_against_the_oracle(p):
    """At |H| <= 10 on both sides of the rung, T_2, T_3 and T_4 equal the
    oracle, and T_4, the Borel part of T_3 and the coset masses equal
    compose loops; (p - 1, p - 1) puts the largest residues into every key,
    and (5, 1) (0, 0) joins (p - 1, 7) and (p - 1, p - 1) as Borel triples."""
    F = Fp(p)
    H = TranslateSet(p, (*rand_translates(random.Random(p), p, 6), (0, 0), (5, 1), (p - 1, 7), (p - 1, p - 1)))
    assert len(H) == 10
    assert t_k(H, 2) == oracle.energy_naive(H)
    assert t_k(H, 3) == oracle.t3_naive(H)
    assert t_k(H, 4) == oracle.t4_naive(H)
    mats = [embed_translate(F, h) for h in H]
    quotients = [compose(m1, invert(m2)) for m1 in mats for m2 in mats]
    triples = [compose(u, m3) for u in quotients for m3 in mats]
    r4 = Counter(compose(u, v).entries for u in quotients for v in quotients)
    rb = Counter(g.entries for g in triples if g.c == 0)
    masses = Counter()
    for entries, n in Counter(u.entries for u in quotients).items():
        masses[evaluate(MoebiusMap(p, *entries), INFINITY)] += n * n
    assert t_k(H, 4) == sum(v * v for v in r4.values())
    assert borel_t3_mass(H) == sum(v * v for v in rb.values()) > 0
    assert _cosets(H)[0] == masses


def test_int32_rung_keys_stay_below_p_cubed(monkeypatch):
    """An overflow sentinel: with (1288, 1288) in H, every T_3 key at
    p = 1289, formed in int32, lies in [0, 1289^3)."""
    p = 1289
    H = TranslateSet(p, (*rand_translates(random.Random(1), p, 63), (p - 1, p - 1), (0, p - 1), (p - 1, 0)))
    keys = _fill_keys(monkeypatch, H, 3)
    assert keys.dtype == np.int32 and len(keys) == len(H) ** 3
    assert 0 <= int(keys.min()) and int(keys.max()) < p**3


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
def test_borel_join_is_the_borel_part_of_the_fill(monkeypatch, p, spec):
    """The joined Borel triples' keys are the fill's keys with c = 0, the
    middle digit of (a p + c) p + z, both keying h3^-1 h1 h2^-1.  (0, 0),
    (5, 1) and (p - 1, 7) give Borel triples, as (b1 - b2)(a3 - a1) = 1
    there."""
    H = TranslateSet(p, (*parse_setspec(spec, Fp(p)), (0, 0), (5, 1), (p - 1, 7)))
    keys = _fill_keys(monkeypatch, H, 3)
    want = keys[keys // p % p == 0]
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
    # the quotient histogram (87 kB) fits, the 30^4 fill keys (3.2 MB) and the
    # support^2 products (31 MB) do not
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "1")
    with pytest.raises(ResourceLimit, match="T4 fill"):
        _t4_by_fill(H)
    with pytest.raises(ResourceLimit, match="T4 fill"):  # no support arm after the fill
        t_k(H, 4)
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "64")
    assert t_k(H, 4) == want


@pytest.mark.parametrize("p", [61, 1009, 1291, 2097169, (1 << 61) - 1])
def test_t4_arms_against_the_oracle(p):
    """Both T_4 arms, each forced, equal the oracle at |H| <= 10, its cap: on
    random sets of 5 and 10, 2 x 3 and 2 x 5 grids, and a set with the
    largest residues (p - 1, p - 1)."""
    for H in (
        _rand_h(p, 5),
        _rand_h(p, 10),
        parse_setspec("cart:ap:1,1,2;ap:0,1,3", Fp(p)),
        parse_setspec("cart:ap:1,1,2;ap:0,1,5", Fp(p)),
        TranslateSet(p, (*_rand_h(p, 4), (0, 0), (p - 1, p - 1))),
    ):
        assert _t4_by_fill(H) == _t4_by_quotients(H) == t_k(H, 4) == oracle.t4_naive(H)


@pytest.mark.parametrize(
    "p, spec",
    [
        (61, "randomh:24,1"),
        (61, "cart:ap:1,1,6;ap:1,1,4"),
        (1009, "randomh:32,1"),
        (1009, "cart:ap:1,1,6;ap:1,1,6"),
        (1009, "cart:gp:3,5,6;gp:3,5,6"),
        (1291, "randomh:24,1"),
        (1291, "cart:gp:3,5,4;ap:1,1,6"),
        (2097169, "randomh:10,1"),
        (2097169, "cart:ap:1,1,3;gp:3,5,3"),
    ],
)
def test_t4_arms_agree(monkeypatch, p, spec):
    """t_k(H, 4) with its arm choice forced each way (the support share above
    which it fills set to 0, then to 1) gives one T_4 on random sets and on
    ap and gp grids: int32 keys at 61 and 1009, int64 at 1291 and Python
    ints at 2097169."""
    H = parse_setspec(spec, Fp(p))
    arms = _record_arms(monkeypatch, ("_fill", "_support"))
    got = []
    for share in (0, 1):
        monkeypatch.setattr(counts, "_QUOTIENT_ARM", share)
        got.append(t_k(H, 4))
    assert arms == ["_fill", "_support"]
    assert got[0] == got[1]


def test_t4_arm_follows_the_support(monkeypatch):
    """t_k(H, 4) fills where the quotient support's |Q|^2 keys are more than
    2/5 of the fill's |H|^4 (random translates), sums over the support where
    they are not (grids), and
    takes the other arm where the budget refuses the one chosen."""
    arms = _record_arms(monkeypatch, ("_fill", "_support"))
    F = Fp(1009)
    for spec, want in (("randomh:32,1", ["_fill"]), ("cart:ap:1,1,6;ap:1,1,6", ["_support"])):
        arms.clear()
        t_k(parse_setspec(spec, F), 4)
        assert arms == want, spec
    # |Q| / |H|^2 = 0.46: the weighted arm reserves 26.7 MiB, the fill 21.3 MiB
    mid = parse_setspec("cart:ap:1,1,16;ap:1,1,3", F)
    want = _t4_by_fill(mid)
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "24")
    arms.clear()
    assert t_k(mid, 4) == want
    assert arms == ["_support", "_fill"]


@pytest.mark.parametrize("k", [3, 4])
def test_refused_fill_tries_no_support_arm(monkeypatch, k):
    """Where the budget refuses the fill that t_k(H, k) chose (random
    translates, whose support is large), t_k raises the fill's refusal: the
    support histogram is dropped before the fill, so no support arm runs."""
    H = _rand_h(1009, 24 if k == 3 else 12)
    real = counts._reserve

    def reserve(what, nbytes):
        if what == f"T{k} fill":
            raise ResourceLimit(what)
        real(what, nbytes)

    monkeypatch.setattr(counts, "_reserve", reserve)
    arms = _record_arms(monkeypatch, ("_fill", "_support"))
    with pytest.raises(ResourceLimit, match=f"T{k} fill"):
        t_k(H, k)
    assert arms == ["_fill"]


def test_refused_fill_writes_no_key(monkeypatch):
    """A T_k fill the budget refuses stops before it writes a key: under
    1 MiB, 30^4 int32 keys (3.2 MB) and 70^3 (1.4 MB) are refused, and t_k
    writes only the quotient histogram's pair keys, a row per translate,
    before the fill it chose refuses."""
    written = []
    real = counts._write_keys

    def write_keys(p, u, v, key=product_key_entries, *args, **kwargs):
        written.append((len(u[0]), key.__name__))
        return real(p, u, v, key, *args, **kwargs)

    monkeypatch.setattr(counts, "_write_keys", write_keys)
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "1")
    for k, n in ((4, 30), (3, 70)):
        H = rand_translates(random.Random(0), 1009, n)
        written.clear()
        with pytest.raises(ResourceLimit, match=f"T{k} fill"):
            counts._fill(H, k)
        with pytest.raises(ResourceLimit, match=f"T{k} fill"):
            t_k(H, k)
        assert written == [(n, "_quotient_key")]


def test_budget_from_env(monkeypatch):
    H = rand_translates(random.Random(0), 101, 300)
    with pytest.raises(ResourceLimit) as e:
        counts._reserve("table", 1536 << 20)
    assert e.value.budget == 1536 << 20  # the default, in bytes
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "1")
    with pytest.raises(ResourceLimit) as e:
        quotient_histogram(H)
    # an int32 key per pair, next to a block of runs
    assert (e.value.required, e.value.budget) == (4 * 300**2 + counts._run_bytes(300**2) + _OVERHEAD, 1 << 20)
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


def _cs_omega(A, H):
    """|Omega| of a fresh Cauchy-Schwarz report: the report and its Omega pass."""
    return cs_chain_report(A, H).omega_size


# each table-building kernel at two small sizes; p >= 2097169 runs on Python
# ints.  The SL2 kernels run on int32 at p = 1009 and on int64 at their 1291 twins
_PEAK_CASES = {
    "quotient-64": lambda: (quotient_histogram, _rand_h(1009, 64)),
    "quotient-256": lambda: (quotient_histogram, _rand_h(1009, 256)),
    # more pairs than a block of runs: the arguments read off the distinct keys peak
    "quotient-600": lambda: (quotient_histogram, _rand_h(1009, 600)),
    "quotient-1291": lambda: (quotient_histogram, _rand_h(1291, 256)),
    "quotient-2097169": lambda: (quotient_histogram, _rand_h(2097169, 64)),
    "quotient-p61": lambda: (quotient_histogram, _rand_h(P61, 64)),
    # T_2 off the sorted keys alone, and a first read of the arguments (the tally)
    "t2-600": lambda: (t_k, _rand_h(1009, 600), 2),
    "t2-p61": lambda: (t_k, _rand_h(P61, 64), 2),
    "quotient-args-600": lambda: (lambda H: quotient_histogram(H).args, _rand_h(1009, 600)),
    "quotient-args-p61": lambda: (lambda H: quotient_histogram(H).args, _rand_h(P61, 64)),
    "t3-24": lambda: (t_k, _rand_h(1009, 24), 3),
    "t3-80": lambda: (t_k, _rand_h(1009, 80), 3),
    "t3-1291": lambda: (t_k, _rand_h(1291, 80), 3),
    # the coset labels on top of the quotient histogram: a table read, a
    # cold table build, and a Python int per inverse above 2^18
    "borel-256": lambda: (borel_coset_mass, _rand_h(1009, 256)),
    "borel-262139": lambda: (borel_coset_mass, _rand_h(262139, 256)),
    "borel-1000003": lambda: (borel_coset_mass, _rand_h(1000003, 256)),
    "borel-p61": lambda: (borel_coset_mass, _rand_h(P61, 64)),
    # the T_3 support arm (forced on the random set) and the Borel join
    "t3-quotient-cart": lambda: (t_k, parse_setspec("cart:ap:1,1,10;ap:1,1,10", Fp(1009)), 3),
    "t3-quotient-random": lambda: (_t3_by_quotients, _rand_h(1009, 48)),
    "t3-quotient-1291": lambda: (t_k, parse_setspec("cart:ap:1,1,10;ap:1,1,10", Fp(1291)), 3),
    "t3-quotient-2097169": lambda: (t_k, parse_setspec("cart:ap:1,1,8;ap:1,1,4", Fp(2097169)), 3),
    "borel-t3-cart": lambda: (borel_t3_mass, parse_setspec("cart:ap:1,1,12;ap:1,1,12", Fp(1009))),
    "borel-t3-random": lambda: (borel_t3_mass, _rand_h(1009, 128)),
    "borel-t3-1291": lambda: (borel_t3_mass, _rand_h(1291, 128)),
    "borel-t3-2097169": lambda: (borel_t3_mass, _rand_h(2097169, 24)),
    "borel-t3-p61": lambda: (borel_t3_mass, _rand_h(P61, 16)),
    # the T_4 fill (random sets): int32 keys at 1009, int64 at 1291 and
    # Python ints at 2^61 - 1 and just above the int64 switch
    "t4-12": lambda: (t_k, _rand_h(1009, 12), 4),
    "t4-24": lambda: (t_k, _rand_h(1009, 24), 4),
    "t4-1291": lambda: (t_k, _rand_h(1291, 24), 4),
    "t4-p61": lambda: (t_k, _rand_h(P61, 10), 4),
    "t4-2097169": lambda: (t_k, _rand_h(2097169, 12), 4),
    # the T_4 support arm: on grids, and forced on random sets
    "t4-quotient-cart": lambda: (t_k, parse_setspec("cart:ap:1,1,6;ap:1,1,6", Fp(1009)), 4),
    "t4-quotient-random": lambda: (_t4_by_quotients, _rand_h(1009, 24)),
    "t4-quotient-1291": lambda: (t_k, parse_setspec("cart:ap:1,1,6;ap:1,1,6", Fp(1291)), 4),
    "t4-quotient-p61": lambda: (_t4_by_quotients, _rand_h(P61, 10)),
    # m_k at k = 2, where every translate found is counted: the column
    # (exhaustive) arm where p <= |A|^2, the pair arm elsewhere
    "mk-exhaustive-61": lambda: (rich_hyperbolae, _rand_a(61, 8), 2),
    "mk-exhaustive-101": lambda: (rich_hyperbolae, _rand_a(101, 12), 2),
    "mk-columns-40": lambda: (rich_hyperbolae, _rand_a(1009, 40), 2),
    # the scan's input: 952,978 translates over 127 blocks of 8 rows
    "mk-columns-ap64": lambda: (rich_hyperbolae, parse_setspec("ap:1,1,64", Fp(1009)), 2),
    "mk-pairs-10": lambda: (rich_hyperbolae, _rand_a(1009, 10), 2),
    "mk-pairs-12": lambda: (rich_hyperbolae, _rand_a(1009, 12), 2),
    "mk-pairs-p61": lambda: (rich_hyperbolae, _rand_a(P61, 6), 2),
    # past the cold table builds (the inverses' 32p, then 16p kept)
    "mk-pairs-65537": lambda: (rich_hyperbolae, _rand_a(65537, 20), 2),
    # a rich grid, whose roots are far fewer than two for every point pair
    "mk-pairs-gp": lambda: (rich_hyperbolae, parse_setspec("gp:3,5,32", Fp(65537)), 2),
    "lk-8": lambda: (rich_lines, _rand_a(65537, 8), _rand_a(65537, 8), 2),
    "lk-12": lambda: (rich_lines, _rand_a(65537, 12), _rand_a(65537, 12), 2),
    "lk-40": lambda: (rich_lines, _rand_a(65537, 40), _rand_a(65537, 40), 2),  # the runs, not the table, dominate
    "lk-p61": lambda: (rich_lines, _rand_a(P61, 8), _rand_a(P61, 8), 2),
    "sigma-40": lambda: (sigma, _rand_a(1009, 40), _rand_h(1009, 40)),
    "sigma-300": lambda: (sigma, _rand_a(1009, 300), _rand_h(1009, 2000)),
    "sigma-p61": lambda: (sigma, _rand_a(P61, 20), _rand_h(P61, 30)),
    # one point and 200 000 maps: the per-map columns, not the block, dominate
    "sigma-maps": lambda: (sigma_rect, _rand_a(1009, 1), _rand_a(1009, 1009), _rand_h(1009, 200000)),
    "sigma-maps-p61": lambda: (sigma_rect, _rand_a(P61, 1), _rand_a(P61, 1009), _rand_h(P61, 10000)),
    "sumprod-20": lambda: (sumprod_quadruples, _rand_a(1009, 20), 2),
    "sumprod-64": lambda: (sumprod_quadruples, _rand_a(1009, 64), 4),
    "sumprod-p61": lambda: (sumprod_quadruples, _rand_a(P61, 12), 3),
    # the Cauchy-Schwarz report with its Omega pass (_hits over the quotients)
    "cschain-1000": lambda: (_cs_omega, parse_setspec("ap:1,1,1000", Fp(1009)), _rand_h(1009, 40)),
    "cschain-262139": lambda: (_cs_omega, _rand_a(262139, 20), _rand_h(262139, 12)),
    "cschain-p61": lambda: (_cs_omega, _rand_a(P61, 20), _rand_h(P61, 12)),
    # the report alone: sigma, the preimage counts (a key block's rows of its
    # distinct a, by index at 1009 and 65537, in 64 blocks of 16 translates at
    # 65537, sorted above 2^21) and the quotient histogram
    "cschain-rhs-job": lambda: (cs_chain_report, parse_setspec("ap:1,1,64", Fp(1009)), _rand_h(1009, 512)),
    "cschain-rhs-65537": lambda: (cs_chain_report,
                                  *(parse_setspec(s, Fp(65537)) for s in ("random:2000,1", "randomh:1024,1"))),
    "cschain-rhs-2097169": lambda: (cs_chain_report, _rand_a(2097169, 300), _rand_h(2097169, 200)),
    # the preimage counts alone above the table range on a grid: 5 key blocks
    # of up to 327 translates, each inverting the rows of its 8 or 9 distinct a
    "preimage-grid-1000003": lambda: (counts._preimage_counts, _rand_a(1000003, 100),
                                      parse_setspec("cart:ap:1,1,40;ap:1,1,40", Fp(1000003))),
    # more distinct poles than a block of rows holds: sigma's b, sumprod's
    # a2 - a4 and the a of H (whose rows are also cs_chain's target rows)
    "sigma-poles": lambda: (sigma, _rand_a(65537, 2000), _rand_h(65537, 3000)),
    "sumprod-poles": lambda: (sumprod_quadruples, _rand_a(65537, 200), 2),
    "cschain-poles": lambda: (_cs_omega, _rand_a(65537, 20000), _rand_h(65537, 40)),
    # one pole block of 41 rows, target blocks of 21 rows: the target rows'
    # keys form for a target block, not for the pole block
    "cschain-wide": lambda: (_cs_omega, *(parse_setspec(s, Fp(65537)) for s in ("random:12000,1", "randomh:40,1"))),
    # the pair histograms: about n^2 distinct differences (or n^2 / 2 distinct
    # D values) of a random set while n^2 < p, and p of them above; where
    # p > n^2 keys (the -300, -600, -16 and -p61 cases) all keys sort in one
    # array, and where p <= n^2 (the -dense, -index and -40 cases) blocks of
    # about _CELLS keys count by index (product-rep-40 over 74 blocks)
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
    # the growth sets of minkowski: the keyed pass, then a Python int per value
    "sumset-index": lambda: (sumset, *[_rand_a(1009, 512)] * 2),
    "difference-set-sorted": lambda: (difference_set, *[_rand_a(1000003, 300)] * 2),
    "q-p61": lambda: (q_rect, _rand_h(P61, 60)),
}


@functools.cache
def _peak_and_estimate(name):
    """tracemalloc's peak of a cold call of a _PEAK_CASES entry and the
    largest estimate it reserved, measured once: every gate below reads the
    same two figures."""
    fn, *args = _PEAK_CASES[name]()  # the inputs, built before the measured call
    reserved = []
    real = counts._reserve
    counts._reserve = lambda what, nbytes: (reserved.append(nbytes), real(what, nbytes))[1]
    for table in (counts._inv_vec, counts._sqrt_vec):
        table.cache_clear()  # the call builds its lookup tables cold
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        counts._reserve = real
    return peak, max(reserved) + _OVERHEAD


@pytest.mark.parametrize("name", _PEAK_CASES)
def test_reserved_bytes_bound_the_peak(name):
    """Each kernel's estimate is at least tracemalloc's peak of the call, and
    at most 2 peaks + 1 MiB (a gate that is not vacuous)."""
    peak, estimate = _peak_and_estimate(name)
    assert peak <= estimate <= 2 * peak + (1 << 20)


# the Moebius hit kernel's callers, whose bytes per (pole, point) and per
# map are measured
_HIT_CASES = [name for name in _PEAK_CASES if name.split("-")[0] in ("sigma", "sumprod", "cschain")]


@pytest.mark.parametrize("name", _HIT_CASES)
def test_hit_estimates_within_two_peaks(name):
    peak, estimate = _peak_and_estimate(name)
    assert peak <= estimate <= 2 * peak + (1 << 20)


# the SL2 energy kernels on the first int64 rung (p = 1291): the T_3 fill and
# quotient arm, the Borel join and T_4, one case each
_SL2_CASES = ["t3-1291", "t3-quotient-1291", "borel-t3-1291", "t4-1291"]


@pytest.mark.parametrize("name", _SL2_CASES)
def test_sl2_estimates_within_two_peaks(name):
    peak, estimate = _peak_and_estimate(name)
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

def _minkowski_grid(A):
    """The 45-degree image {(x+y, x-y): (x,y) in A x A}; D on it is the
    Minkowski distance on A x A."""
    p = A.p
    return TranslateSet(p, tuple(((x + y) % p, (x - y) % p) for x in A for y in A))


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
        assert _table(d_histogram(_minkowski_grid(A))).get(lam, 0) == expected


@pytest.mark.parametrize("p", [(1 << 31) - 1, P61])
def test_minkowski_at_word_size_primes(p):
    # squares of differences past int64 at 2^61 - 1; lam = d^2 for a
    # difference d brings in S(0) = |A|, the pairs at dy = 0
    A = parse_setspec("random:12,1", Fp(p))
    d = (A.elements[3] - A.elements[7]) % p
    grid = _table(d_histogram(_minkowski_grid(A)))
    for lam in (1, 5, p - 1, d * d % p, random.Random(p).randrange(1, p)):
        assert minkowski_realisations(A, lam) == grid.get(lam, 0)
    assert grid[d * d % p] > 0


def test_minkowski_takes_no_square_root(monkeypatch):
    def no_root(p):
        raise AssertionError("square root taken")

    monkeypatch.setattr(counts, "_sqrt_vec", no_root)
    for p in (1009, 1000003, P61):
        A = parse_setspec("random:20,1", Fp(p))
        assert minkowski_realisations(A, 5) == _table(d_histogram(_minkowski_grid(A))).get(5, 0)


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
    """The translates (a, b) counted by m_k, in order, read off the joined richness map."""
    arm = counts._mk_columns if A.p <= min(len(A) ** 2, counts._INT64_P) else counts._mk_pairs
    keys, rich = counts._joined(arm(A, lam % A.p))
    return tuple(divmod(key, A.p) for key in keys[rich >= k].tolist())


def _lk_witnesses(B, C, k):
    """The lines counted by l_k, in order: ("s", m, c) for y = m x + c off the
    joined line map, then ("v", x) for each vertical line."""
    keys, hits = counts._joined(counts._lines(B, C))
    slopes = tuple(("s", *divmod(key, B.p)) for key in keys[hits >= k * (k - 1) // 2].tolist())
    return slopes + tuple(("v", x) for x in (B.elements if len(C) >= k else ()))


def test_rich_hyperbolae_pins():
    assert rich_hyperbolae(A16, 2) == 3
    assert _mk_witnesses(A16, 2) == ((0, 0), (3, 4), (4, 3))
    assert rich_hyperbolae(A16, 3) == 0


def test_rich_hyperbolae_ap_pin():
    # p = 61 <= 8^2 runs the column arm; the pair arm gives the same map
    A = ScalarSet(61, tuple(range(1, 9)))
    keys, rich = counts._joined(counts._mk_pairs(A, 60))
    for k, expected in ((2, 1140), (3, 320), (4, 42)):
        assert rich_hyperbolae(A, k) == expected
        assert np.count_nonzero(rich >= k) == expected


@pytest.mark.parametrize(
    "p, spec",
    [(1009, "random:40,1"), (1009, "ap:1,1,32"), (65521, "random:8,1"), (65521, "gp:3,5,8"), (65537, "random:8,1"),
     (65537, "gp:3,5,8"), (61, "random:8,1"), (61, "ap:1,1,8"), (61, "gp:2,3,8"), (101, "random:12,1"),
     (101, "ap:3,5,11"), (101, "gp:2,3,11"), (1009, "gp:3,5,32")],
)
def test_mk_arms_agree(p, spec):
    """The column and pair arms stream the same translate -> richness map, key
    for key, the column arm counting by index where p <= |A|^2 and sorting above."""
    A = parse_setspec(spec, Fp(p))
    for lam in (-1, 5):
        lam %= p
        ck, cr = counts._joined(counts._mk_columns(A, lam))
        pk, pr = counts._joined(counts._mk_pairs(A, lam))
        assert len(ck) > 0
        assert np.array_equal(ck, pk) and np.array_equal(cr, pr)
        assert np.all(ck[1:] > ck[:-1]) and np.all(cr >= 2)


class _NumpyWithoutJoin:
    """numpy as counts sees it, with np.concatenate refused."""

    def __getattr__(self, name):
        if name == "concatenate":
            raise AssertionError("joined")
        return getattr(np, name)


def test_rich_counts_never_hold_the_map(monkeypatch):
    """m_k on both arms and l_k read their maps a block at a time: with the
    run reader (_read_runs) and np.concatenate refused, they give their
    pinned counts over the scan's 127 row blocks of ap:1,1,64 (column arm),
    the 8 blocks of runs of gp:3,5,32's 484,098 roots (pair arm) and the 20
    of 1,248,000 line keys."""
    ap, gp = parse_setspec("ap:1,1,64", Fp(1009)), parse_setspec("gp:3,5,32", Fp(65537))
    B, C = (parse_setspec(f"random:40,{s}", Fp(65537)) for s in (1, 2))

    def refuse(*_):
        raise AssertionError("tallied")

    monkeypatch.setattr(counts, "_read_runs", refuse)
    monkeypatch.setattr(counts, "np", _NumpyWithoutJoin())
    assert [rich_hyperbolae(ap, k) for k in (2, 3, 8, 9)] == [952978, 810640, 45106, 18576]
    assert [rich_hyperbolae(gp, k) for k in (2, 3, 4)] == [480054, 1992, 20]
    assert [rich_lines(B, C, k) for k in (2, 3, 4)] == [1198956, 8967, 130]
    with pytest.raises(AssertionError, match="joined"):
        counts._joined(counts._lines(B, C))


@pytest.mark.parametrize("p, key", [(65521, np.uint32), (65537, np.int64), (2097169, object)])
def test_richness_maps_at_their_values_width(p, key):
    """A richness map keeps its keys (< p^2) as uint32 while p^2 - 1 < 2^32,
    as int64 up to 2^21 and as Python ints above (the pair arm's route), and
    its richness (at most |A|) or hits (at most C(|B|, 2)) in the smallest
    unsigned dtype that holds them: uint8 for 8 points, uint16 for 300.
    A threshold past that dtype's range counts nothing."""
    A, lam = parse_setspec("random:8,1", Fp(p)), p - 1
    for arm in (counts._mk_pairs, counts._mk_columns)[: 1 + (p <= counts._INT64_P)]:
        keys, rich = counts._joined(arm(A, lam))
        assert (keys.dtype, rich.dtype) == (key, np.uint8) and len(keys) > 0
    keys, hits = counts._joined(counts._lines(A, A))
    assert (keys.dtype, hits.dtype) == (key, np.uint8) and len(keys) > 0  # C(8, 2) = 28
    assert rich_hyperbolae(A, 300) == rich_lines(A, A, 300) == 0
    assert rich_lines(A, A, 2) == len(keys) + len(A)
    wide = parse_setspec("random:300,1", Fp(1009))  # the column arm
    assert counts._joined(counts._mk_columns(wide, 1008))[1].dtype == np.uint16 and rich_hyperbolae(wide, 70000) == 0


def test_rich_hyperbolae_arm_selection(monkeypatch):
    """The column arm runs when p <= |A|^2 and p <= 2^21, the pair arm otherwise."""
    ran = []
    for name in ("_mk_columns", "_mk_pairs"):
        monkeypatch.setattr(counts, name, lambda A, lam, name=name: ran.append(name) or iter(()))  # an empty map
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
        assert _cs_fields(cs_chain_report(A, H)) == want
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
    # above 2^18 each inverse is an Fp.inv call: one per distinct pole and
    # point, a b of H for sigma and an a of H for the preimage counts, not one
    # per translate or quotient and point.  The preimage counts invert the
    # distinct a of each key block, so an a whose translates span two blocks
    # is inverted in each: on the grid, 1600 translates of 40 a in 5 blocks,
    # (40 + 4 + 40) 100 = 8400 calls, where an inverse per cell would make 164 000
    F = Fp(1000003)
    calls = []
    real = Fp.inv
    monkeypatch.setattr(Fp, "inv", lambda self, x: (calls.append(x), real(self, x))[1])
    for a_spec, h_spec in (("random:12,1", "randomh:100,1"), ("random:100,1", "cart:ap:1,1,40;ap:1,1,40")):
        A, H = parse_setspec(a_spec, F), parse_setspec(h_spec, F)
        blocks = -(-len(H) // (counts._CELLS // len(A)))
        calls.clear()
        counts._inv_vec.cache_clear()
        rep = cs_chain_report(A, H)
        assert 0 < len(calls) <= (len({a for a, _ in H}) + blocks - 1 + len({b for _, b in H})) * len(A)
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


@pytest.mark.parametrize(
    "keys",
    [
        [7],
        [3] * 9,
        list(range(11)),
        [0, 0, 0, 1, 2, 2, 3, 5, 5, 5, 5],
        [],
        [P61**3, P61**3, 2**70, 2**70 + 1, 2**70 + 1],
        [0, 0, 1, 2, 3, 3, 3, 4, 5, 6, 7, 8, 8],
        [P61**3] * 4 + [2**70, 2**70 + 1, 2**70 + 1],
    ],
    ids=["one-key", "all-equal", "all-distinct", "runs-at-both-ends", "empty", "object", "few-equal", "object-runs"],
)
def test_equal_neighbour_sum_matches_counter(keys):
    """The sum of squared multiplicities of sorted keys, read off the equal
    neighbours where they are at most half (all-distinct, few-equal, object)
    and off the unequal ones elsewhere; Python ints as object keys."""
    array = np.array(sorted(keys), dtype=object if keys and max(keys) >= 1 << 63 else np.int64)
    assert counts._sorted_square_sum(array) == sum(v * v for v in Counter(keys).values())


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=40), st.sampled_from(["int32", "int64", "object"]), st.data())
def test_run_reader_is_the_definition(keys, dtype, data):
    """_tally, unweighted and weighted, and _sorted_square_sum read the runs
    of sorted keys as np.unique counts them and as the weights of each key
    sum, on int32, int64 and Python-int keys (past 2^64), in blocks of 3 and
    7 keys, where runs straddle block edges, and in one block; also for no
    keys and for one."""
    weights = data.draw(st.lists(st.integers(1, 9), min_size=len(keys), max_size=len(keys)))
    for ks, ws in ((keys, weights), ([], []), (keys[:1], weights[:1])):
        if dtype == "object":
            ks = [k * 2**64 + 2**70 for k in ks]
        array, w = np.array(ks, dtype=dtype), np.array(ws, dtype=np.int64)
        values, multiplicity = np.unique(array, return_counts=True)
        sums = Counter()
        for k, x in zip(ks, ws):
            sums[k] += x
        for block in (3, 7, counts._RUN_BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(counts, "_RUN_BLOCK", block)
                got = counts._tally(array.copy())
                assert [v.tolist() for v in got] == [values.tolist(), multiplicity.tolist()]
                got = counts._tally(array.copy(), w.copy())
                assert [v.tolist() for v in got] == [values.tolist(), [sums[k] for k in values.tolist()]]
                assert counts._sorted_square_sum(np.sort(array)) == sum(m * m for m in multiplicity.tolist())
                assert counts._sorted_square_sum(*counts._sort(array.copy(), w.copy())) == sum(
                    s * s for s in sums.values())


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


def _full_support_sigma_u(A, H):
    """(r(u), sigma_u) for every quotient u of the support, keyed by its
    arguments (w, a1, a2): one _hits call over the whole support, the pass
    that cs_chain_report halves."""
    p = A.p
    hist = quotient_histogram(H)
    w, a1, a2 = (v.astype(np.int64) for v in hist.args)
    xs = counts._array(A, np.int64)
    ha = np.array([*sorted({a for a, _ in H}), p], dtype=np.int64)
    z = w == 0  # translations: the pole oo, whose row is A itself
    pole = np.where(z, len(ha) - 1, np.searchsorted(ha, a2))
    key = np.where(z, len(ha) - 1, np.searchsorted(ha, a1))
    su = counts._hits(p, xs, ha, pole, np.where(z, a1, w), None, key)
    in_a = np.isin(ha, xs)
    su += in_a[pole] & in_a[key]  # x = a2 in A maps to a1
    args = zip(w.tolist(), a1.tolist(), a2.tolist())
    return dict(zip(args, zip(hist.counts.tolist(), su.tolist())))


@pytest.mark.parametrize(
    "p, a_spec, h_spec",
    [
        (3, "list:0,1,2", "randomh:6,1"),
        (3, "list:0,2", "cart:ap:0,1,3;ap:0,1,2"),
        (5, "list:0,1,3", "randomh:12,2"),
        (5, "list:1,2,4", "cart:ap:0,1,5;ap:1,2,3"),
        (1009, "ap:1,1,40", "randomh:80,1"),
        (1009, "ap:1,1,20", "cart:ap:0,1,12;ap:1,1,5"),
        (65537, "random:40,2", "randomh:80,2"),
        (65537, "ap:1,1,20", "cart:ap:0,1,12;ap:1,1,5"),
    ],
)
def test_sigma_u_equals_sigma_of_the_inverse(p, a_spec, h_spec):
    # u^-1 = h2 h1^-1 has the arguments (-w, a2, a1), a translation by t
    # inverts to the one by -t, and r and sigma_u agree on each such pair:
    # what lets cs_chain_report test only the quotients with w <= (p-1)/2
    F = Fp(p)
    A, H = parse_setspec(a_spec, F), parse_setspec(h_spec, F)
    full = _full_support_sigma_u(A, H)
    for (w, a1, a2), rs in full.items():
        assert full[(p - w, a2, a1) if w else (0, -a1 % p, 0)] == rs
    assert any(su for (w, _, _), (_, su) in full.items() if w)  # not only translations hit
    assert sum(r * su for r, su in full.values()) == cs_chain_report(A, H).rhs_cs // len(A)


@pytest.mark.parametrize(
    "p, a_spec, h_spec",
    [
        (3, "list:0,1,2", "cart:ap:0,1,3;ap:0,1,3"),  # every translate: t and -t both present
        (3, "list:1,2", "listh:0,0;2,0;1,2"),
        (5, "list:0,1,3", "cart:ap:0,1,5;list:2,4"),  # five translates share each b
        (5, "list:0,2,3", "cart:list:0,1,3;list:1"),  # all share b: no 0 < w <= (p-1)/2
    ],
)
def test_cs_chain_half_pass_at_the_smallest_primes(p, a_spec, h_spec):
    F = Fp(p)
    A, H = parse_setspec(a_spec, F), parse_setspec(h_spec, F)
    if len({b for _, b in H}) == 1:
        assert not quotient_histogram(H).args[0].any()
    _check_group_kernels(A, H)


@pytest.mark.parametrize(
    "p, a_spec, h_spec",
    [
        (3, "list:0,1,2", "cart:ap:0,1,3;ap:0,1,3"),  # every translate: each a in A
        (1009, "ap:1,1,40", "randomh:80,1"),
        (65537, "ap:0,1,30", "cart:ap:0,1,12;ap:1,1,5"),
        (2097169, "ap:0,1,10", "cart:ap:0,1,8;ap:1,1,6"),
        (P61, "ap:0,1,8", "cart:ap:0,1,6;ap:1,1,4"),
    ],
)
def test_preimage_counts_cross_checks(p, a_spec, h_spec):
    # N(z) counts the (h, x) in H x A with h^-1(x) = z.  Those with z in A
    # are the incidences (h, z), h(z) = x in A; every cell lands once, at oo
    # where x = a; and sum_z N(z)^2 is the quotient route's sum_u r(u) sigma_u
    F = Fp(p)
    A, H = parse_setspec(a_spec, F), parse_setspec(h_spec, F)
    z, n, oo = counts._preimage_counts(A, H)
    assert np.all(np.diff(z) > 0) and np.all(n >= 0)
    assert int(n[np.isin(z, counts._array(A, np.int64))].sum()) == sigma(A, H) > 0
    assert int(n.sum()) + oo == len(H) * len(A)
    assert oo == sum(a in A.elements for a, _ in H) > 0
    full = _full_support_sigma_u(A, H)
    assert cs_chain_report(A, H).rhs_cs == len(A) * sum(r * su for r, su in full.values())


def test_preimage_counts_reserve_one_key_block(monkeypatch):
    # 2 048 000 cells counted by index into one p-long total, a key block of
    # 16 translates at a time: 3.5 MiB reserved, where rows of every distinct
    # a at once took 36.7 MB
    F = Fp(65537)
    A, H = parse_setspec("random:2000,1", F), parse_setspec("randomh:1024,1", F)
    reserved = []
    real = counts._reserve
    monkeypatch.setattr(counts, "_reserve", lambda what, nbytes: (reserved.append(nbytes), real(what, nbytes))[1])
    _, n, oo = counts._preimage_counts(A, H)
    assert int(n.sum()) + oo == len(H) * len(A)
    assert max(reserved) < 4 << 20


def test_omega_is_read_on_demand_and_checked(monkeypatch):
    F = Fp(1009)
    A, H = parse_setspec("ap:1,1,20", F), parse_setspec("cart:ap:1,1,6;ap:1,1,5", F)
    want, calls = _scalar_cs_chain(A, H), []
    real = counts._hits
    monkeypatch.setattr(counts, "_hits", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    rep = cs_chain_report(A, H)
    assert len(calls) == 1  # sigma's: the right-hand side comes from the preimage counts
    assert _cs_fields(rep) == _cs_fields(rep) == want
    assert len(calls) == 2  # one Omega pass, cached
    # the Omega pass checks its sum_u r(u) sigma_u against the preimage pass's
    rep = cs_chain_report(A, H)
    monkeypatch.setattr(counts, "_hits", lambda *args, **kw: real(*args, **kw) + 1)
    with pytest.raises(AssertionError, match="by quotients"):
        rep.omega_size


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
