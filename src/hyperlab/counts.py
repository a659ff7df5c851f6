"""Exact counting kernels: incidences, energies, rectangular quadruples,
Minkowski realisations, rich curves and lines, and the Cauchy-Schwarz chain.

Every count here is an exact integer; no floating point enters.  Group
quantities (anything built from HH^-1 products) exist only for the curve
constant lambda = -1, where translates embed into SL2.  The moebius column
forms, the only copy of each SL2 closed form, give their entries as arrays.
A product is keyed (a p + b) p + (c if a else d), injective on SL2 as det = 1
makes a != 0 fix d and a = 0 force bc = -1 (b fixes c).  A pair quotient
h1 h2^-1 is keyed by the arguments of its closed form, w = b1 - b2, a1 and
a2: (w p + a1) p + a2, or (a1 - a2) p when w = 0.  That key is injective on
quotients, as for w != 0 the entries c = w, a = 1 + a1 w and d = 1 - a2 w
give all three back and for w = 0 the quotient is (1 a1-a2; 0 1).  One
counter, _tally, sorts keys and reads off the runs of equal ones, except
where every key of a block lies in a range no longer than the block: there
one array indexed by key counts them (np.bincount, or np.add.at where the
keys carry weights, as a weighted bincount sums in float64).  Weighted
int64 keys sort packed, key (max weight + 1) + weight, where that fits
int64, and by argsort otherwise; a weight sum is int64 only where
len(weights) max(weight) < 2^63.  Keys stay below p^3: int64 for
p <= 2^21, Python ints above.

T_3 has two arms.  The fill keys all |H|^3 products h1 h2^-1 h3 and sums
the squared run lengths; the quotient arm weighs the |Q| |H| products u h3
of the quotient support by r(u), as T_3 = sum_g (sum_{u h3 = g} r(u))^2.
The quotient arm runs where |Q| <= 2/3 |H|^2 (about where it stops being
the faster, measured) and its bytes are no more than the fill's; up to
|H|^3 = 2^12 the fill runs with no support histogram built.  The Borel
part of T_3 keys only the triples whose product lies in B: u h3 has
c = w (a2 - a3) - 1, so each pair with w != 0 joins the h3 with
a3 = a2 - 1/w, and a pair with w = 0 joins none.

Every table-building kernel checks its estimated peak bytes against
HYPERLAB_BUDGET_MB (_reserve) before it allocates.

The array loops reduce mod p with moebius._mod, x - (x // p) p formed in
place: numpy divides an int64 array by a scalar through libdivide, several
times faster than its x % p (which is slower still on negative x), and the
in-place steps hold no more temporaries than x % p.  Every final count
(a sum of squares or of products of counts) is one _dot: exact, in int64
where a bound read off its arrays allows and over Python ints otherwise.

m_k and l_k are threshold counts over a richness map: the ascending keys of
every translate (or non-vertical line) through two or more points, with
the number of points (or point pairs) on each.

The histograms over element pairs (differences for eplus, minkowski and the
product histogram, D(h, h') for q and t3) form blocks of about _CHUNK int64
residues mod p (_sort_count).  Where p is at most a block's keys, every
block adds into one p-long int64 total by index; otherwise each block is
sorted and counted, and the blocks' runs merge when there are several.
Every histogram leaves the module as arrays, its values ascending.

Incidences between points and Moebius maps (sigma, the sumprod quadruples,
sigma_u of the Cauchy-Schwarz step) are all counted by _hits in translate
form: each map is x -> a + 1/(x - b), its row the bare inverses inv(x - b)
(one per distinct pole and point), tested against a set of targets.
sigma_rect's y = a + lam/(x - b) lies in C exactly when a/lam + 1/(x - b)
lies in C/lam, so it divides lam out of its shifts and targets; a sumprod
map is a = -g, b = -f, and a quotient with w = b1 - b2 != 0 maps x != a2
to a1 + 1/(w + 1/(x - a2)) and a2 to a1, so an x != a2 hits A exactly when
w + inv(x - a2) = inv(y - a1) for a y != a1 in A; a quotient with w = 0
is the translation by a1 - a2, the map with pole oo.  The inverses come
from one array route, _inv_vec: a table read off the powers of a primitive
root for small p, and above it one Fp.inv call (the built-in
pow(x, -1, p)) per element.  The brute-force reference loops in the oracle
module use Fermat powers instead, so the two routes share no arithmetic
shortcuts.
"""

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import _OVERHEAD, EmptyInput, InvalidArgument, ModulusMismatch, _reserve
from .field import check_prime
from .moebius import _mod, embed_entries, pair_quotient_entries, product_entries
from .sets import ScalarSet, TranslateSet

_INV_TABLE_MAX = 1 << 18
_CHUNK = 1 << 18  # array elements per enumeration chunk and per run block
_HIT_CELLS = 1 << 15  # cells per block of _hits (2^14 to 2^16 time alike; 2^18 was slower)
_HIT_ROW_BYTES = 1 << 22  # bytes per block of _hits' int64 pole rows and of its membership rows
_FEW_CELLS = 1 << 11  # cells up to which _hits forms a row per map, not per distinct pole
_T3_FEW = 1 << 12  # |H|^3 up to which T_3 fills with no support histogram first (|H| <= 16)
_T3_QUOTIENTS = 2 / 3  # |Q| / |H|^2 up to which the quotient arm of T_3 takes less time
_INT64_P = 1 << 21  # keys (< p^3) fit int64 up to here; intermediates (< 2 p^2) fit far beyond


def _elementwise(fn):
    """fn over each element of an array, returned in the array's dtype."""
    ufunc = np.frompyfunc(lambda x: fn(int(x)), 1, 1)
    return lambda x: ufunc(x).astype(x.dtype)


@lru_cache(maxsize=8)
def _inv_vec(p: int):
    """Elementwise x^-1 mod p of an array, 0 -> 0, built once per prime.  For
    small p it reads an int64 table: inv[g^i] = g^(p-1-i) over the powers of
    a primitive root g, which doubling fills in O(log p) array passes."""
    if p > _INV_TABLE_MAX:
        inv = check_prime(p).inv
        return _elementwise(lambda x: inv(x) if x else 0)
    m, factors, d = p - 1, set(), 2
    while d * d <= m:  # the prime factors of p - 1; m keeps the largest
        if m % d:
            d += 1
        else:
            factors.add(d)
            m //= d
    factors.add(m)
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))
    powers = np.ones(p - 1, dtype=np.int64)
    n, step = 1, g  # step = g^n
    while n < p - 1:
        powers[n : 2 * n] = powers[: min(n, p - 1 - n)] * step % p
        n, step = 2 * n, step * step % p
    table = np.zeros(p, dtype=np.int64)
    table[powers] = powers[-np.arange(p - 1)]
    return table.__getitem__


_inv_table = _inv_vec  # the name perfbench/worker.py reads cache_info() from


@lru_cache(maxsize=8)
def _sqrt_vec(p: int):
    """Elementwise square root mod p of an array, -1 for non-residues;
    table-backed for small p, built once per prime."""
    if p <= _INV_TABLE_MAX:
        roots = np.arange((p + 1) // 2)  # their squares are distinct
        table = np.full(p, -1)
        table[roots * roots % p] = roots
        return table.__getitem__
    sqrt = check_prime(p).sqrt
    return _elementwise(lambda x: -1 if (s := sqrt(x)) is None else s)


def _table_bytes(p: int, sqrt: bool = False) -> int:
    """Peak bytes of a cold inverse-table build (32 p: the powers, the zeroed
    table, the index and the gather) and, if asked, of a square-root table
    build (20 p); tracemalloc peaks, 0 where no table is built."""
    return (32 + 20 * sqrt) * p if p <= _INV_TABLE_MAX else 0


def _item_bytes(p: int) -> int:
    """Bytes per group-kernel array element: an int64, or above _INT64_P a
    pointer to a Python int no larger than a key (< p^3)."""
    return 8 if p <= _INT64_P else 8 + sys.getsizeof(p**3)


@dataclass(frozen=True)
class QuotientHistogram:
    """The arguments (w, a1, a2) of each distinct quotient u, in ascending
    order of its key (w p + a1) p + a2 (see the module docstring), with
    (0, a1 - a2, 0) for a translation (w = 0), and the counts r(u), as
    arrays of the group kernels' items; len() is the support."""

    p: int
    args: tuple
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def columns(self) -> tuple:
        """The entry columns (a, b, c, d) of the quotients, formed on each read."""
        w, a1, a2 = self.args
        return pair_quotient_entries(self.p, a1, w, a2, 0)


@dataclass(frozen=True)
class CsChainReport:
    sigma: int
    lhs_sq: int
    rhs_cs: int
    delta: Fraction
    omega_size: int
    omega_incidence_share: Fraction


def _check_lambda(p: int, lam: int) -> int:
    lam %= p
    if lam == 0:
        raise InvalidArgument("lambda must be nonzero")
    return lam


def _pole_rows(p: int, poles, xs):
    """rows[i, j] = inv(xs[j] - poles[i]) mod p as int64, one bare inverse per
    (pole, point) (sigma_rect divides lambda out of its input), and 2p where
    xs[j] = poles[i] (the image is oo); the row of the pole oo, written p and
    only as the last pole, is xs itself.  poles and xs are int64."""
    den = _mod(xs - poles[:, None], p)
    oo = len(poles) > 0 and poles[-1] == p
    if oo:
        den[-1] = 0  # takes no inverse
    rows = _inv_vec(p)(den)
    rows[den == 0] = 2 * p
    if oo:
        rows[-1] = xs
    return rows


def _hits(p: int, xs, poles, pole, shift, targets=None, key=None) -> np.ndarray:
    """For each map i, x -> shift[i] + row(x), where row is the row of
    poles[pole[i]] (see _pole_rows), the number of points x of xs whose image
    lies in targets, or where targets is None in the row of poles[key[i]], as
    int64.  xs, shifts and targets are int64 residues, so a cell lies in
    [0, 3p) and 2p never hits.

    The rows are formed for a block of poles within _HIT_ROW_BYTES at a time,
    all at once where they fit; a cell is then a row gather, an add and a
    membership read, in chunks of about _HIT_CELLS cells.  Target rows go in
    blocks k0.. of few enough rows that the keys (k - k0) 3p + t, and t + p
    for the wrap, stay in int64: up to _INV_TABLE_MAX a boolean table over
    those keys within _HIT_ROW_BYTES, cleared by resetting what was set, and
    np.isin above.  The maps are sorted by (target block, pole block) where
    there are several blocks, and where there are several pole blocks each
    pole's row is formed once per target block."""
    width, maps, stride, table = len(xs), len(pole), 3 * p, p <= _INV_TABLE_MAX
    per_pole = max(1, _HIT_ROW_BYTES // (8 * max(1, width)))  # poles per block
    pole_blocks = -(-len(poles) // per_pole)
    per = max(1, (_HIT_ROW_BYTES if table else 1 << 62) // stride)  # target rows per block
    if targets is None:  # target rows formed apart take a pole block's bytes
        per = min(per, per_pole)
    ntargets = len(poles) if targets is None else 1
    groups = -(-ntargets // per) * pole_blocks
    chunk = max(1, _HIT_CELLS // max(1, width))
    # per (pole, point) of a block 17 bytes as its row forms (differences,
    # inverses, zero mask), above the table range a Python int, its pointer
    # and its conversion per inverse, 8 more where the block before lives on
    # as the next forms and 32 more where target rows form (keys and wrap,
    # joined); per map 5 items (a caller's columns: a translate set's,
    # sumprod's factors, a quotient histogram's arguments) and 7 int64
    # (poles, shifts, keys, offsets, output), 6 int64 more as the maps sort;
    # per cell of a chunk 17 bytes reading a membership table (3p bytes per
    # target row) or 72 as np.isin sorts the cells
    row = 17 + (p > _INV_TABLE_MAX) * (16 + sys.getsizeof(p)) + 8 * (pole_blocks > 1) + 32 * (targets is None)
    row *= min(len(poles), per_pole) * width
    member_bytes = min(ntargets, per) * stride * table
    cells = min(maps, chunk) * width * (17 if table else 72)
    maps_bytes = (5 * _item_bytes(p) + 56 + 48 * (groups > 1)) * maps
    _reserve("Moebius hits", row + maps_bytes + cells + member_bytes + _table_bytes(p))
    order, bounds = None, [0, maps]
    if groups > 1:
        group = pole // per_pole
        if key is not None:
            group += key // per * pole_blocks
        order = np.argsort(group, kind="stable")
        pole, shift, key = pole[order], shift[order], None if key is None else key[order]
        bounds = np.searchsorted(group[order], np.arange(groups + 1))
    rows = _pole_rows(p, poles, xs) if pole_blocks == 1 else None
    member = np.zeros(member_bytes, dtype=bool)
    count = np.min_scalar_type(width)  # a count is at most the row width
    out = np.empty(maps, dtype=np.int64)
    k0 = None
    for g in range(groups):
        lo, hi = bounds[g], bounds[g + 1]
        if lo == hi:
            continue
        b0 = g % pole_blocks * per_pole
        if k0 != g // pole_blocks * per:  # the membership of the next target rows
            if table and k0 is not None:
                member[found] = False
            k0 = g // pole_blocks * per
            if targets is not None:
                found = targets
            else:
                t = rows[k0 : k0 + per] if rows is not None else _pole_rows(p, poles[k0 : k0 + per], xs)
                found = (t + np.arange(0, len(t) * stride, stride)[:, None])[t < p]
            found = np.concatenate((found, found + p))
            if table:
                member[found] = True
        block = rows if rows is not None else _pole_rows(p, poles[b0 : b0 + per_pole], xs)
        at = pole[lo:hi] - b0 if b0 else pole[lo:hi]
        off = shift[lo:hi] if key is None else (key[lo:hi] - k0) * stride + shift[lo:hi]
        for i in range(0, hi - lo, chunk):
            j = min(i + chunk, hi - lo)
            cells = block[at[i:j]]
            cells += off[i:j, None]
            if table:
                hit = member[cells]
            else:  # found is unique by construction: isin the distinct cells only
                cells, back = np.unique(cells, return_inverse=True)
                hit = np.isin(cells, found, assume_unique=True)[back.reshape(-1, width)]
            out[lo + i : lo + j] = hit.view(np.uint8).sum(axis=1, dtype=count)
    if order is not None:
        out[order] = out.copy()
    return out


def sigma_rect(B: ScalarSet, C: ScalarSet, H: TranslateSet, lam: int = -1) -> int:
    """Incidences (h, x) with x in B and h(x) in C, poles contributing 0."""
    if not (B.p == C.p == H.p):
        raise ModulusMismatch(f"moduli differ: {B.p}, {C.p}, {H.p}")
    p = H.p
    inv = pow(_check_lambda(p, lam), -1, p)
    if len(B) == 0 or len(C) == 0 or len(H) == 0:
        return 0
    # (x - b)(y - a) = lam: pole b, shift a/lam, targets C/lam
    a, b = _array(H).reshape(-1, 2).T
    poles, pole = _distinct(p, b.astype(np.int64, copy=False), len(B))
    shift, targets = (_mod(v * inv, p).astype(np.int64, copy=False) for v in (a, _array(C)))
    return int(_hits(p, _array(B, np.int64), poles, pole, shift, targets).sum())


def sigma(A: ScalarSet, H: TranslateSet, lam: int = -1) -> int:
    """sigma(A, H) = number of points of A x A on translates in H."""
    return sigma_rect(A, A, H, lam)


def _array(S, dtype=None):
    """The elements of a scalar or translate set as an array: int64 up to
    _INT64_P and Python ints above, unless a dtype is given (residues fit int64)."""
    return np.array(S.elements, dtype=dtype or (np.int64 if S.p <= _INT64_P else object))


def _distinct(p: int, v, width: int):
    """The distinct values of an array of poles and the index of each among
    them, so that _hits forms one row of width cells per distinct pole.
    Where a row per element takes at most _FEW_CELLS cells, each read off
    the inverse table, each element is its own pole: forming the rows then
    costs less than finding the distinct values."""
    if p <= _INV_TABLE_MAX and len(v) * width <= _FEW_CELLS:
        return v, np.arange(len(v))
    return np.unique(v, return_inverse=True)


def _key(p: int, a, b, c, d):
    """Injective packed key of SL2 entry arrays (see the module docstring)."""
    return (a * p + b) * p + np.where(a == 0, d, c)


def _tally(keys, weights=None):
    """Each distinct key, ascending, and its total weight, or its multiplicity
    when no weights are given; keys are nonnegative.  Unweighted, keys are
    sorted in place.  Weighted int64 keys with (max key + 1)(max weight + 1)
    <= 2^63 are overwritten: key (max weight + 1) + weight is sorted in place
    and unpacked, one sort where an argsort and two gathers take about three
    times as long; other keys (Python ints above 2^21 among them) go by
    argsort.  A weight sum is int64 where len(weights) max(weight) < 2^63
    bounds it and a Python int otherwise."""
    top = 0
    if weights is None:
        keys.sort()
    else:
        top = int(weights.max(initial=0))
        span = top + 1  # an int64 scalar; a packed key is below (max key + 1) span
        if keys.dtype == np.int64 and span < 1 << 63 and (int(keys.max(initial=0)) + 1) * span <= 1 << 63:
            keys *= span
            keys += weights
            keys.sort()
            weights = _mod(keys, span)
            keys //= span
        else:
            order = np.argsort(keys)
            keys, weights = keys[order], weights[order]
    # runs start at 0 and where the key changes; the edge at len(keys) closes the last
    edges = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
    edges = np.flatnonzero(edges)
    if weights is None:
        return keys[edges[:-1]], np.diff(edges)
    if len(weights) * top >= 1 << 63:
        weights = weights.astype(object)
    return keys[edges[:-1]], np.add.reduceat(weights, edges[:-1])


def _dot(u, v) -> int:
    """The exact sum of u * v over nonnegative int64 count arrays: in int64 where
    max(u) max(v) len(u) < 2^63 bounds every partial sum, else over Python ints."""
    if int(u.max(initial=0)) * int(v.max(initial=0)) * len(u) < 1 << 63:
        return int(np.dot(u, v))
    return int(np.dot(u.astype(object), v.astype(object)))


def _sorted_square_sum(keys) -> int:
    """Sum of squared run lengths of sorted keys, block by block: the j-th
    key of a run adds 2j + 1."""
    total = start = 0
    for i in range(0, len(keys), _CHUNK):
        block = keys[i : i + _CHUNK]
        idx = np.arange(i, i + len(block))
        new = np.concatenate(([i == 0 or block[0] != keys[i - 1]], block[1:] != block[:-1]))
        starts = np.maximum.accumulate(np.where(new, idx, start))
        start = int(starts[-1])
        total += int((2 * (idx - starts) + 1).sum())  # below 2 _CHUNK len(keys) within a block
    return total


def quotient_histogram(H: TranslateSet) -> QuotientHistogram:
    """u -> r_{HH^-1}(u) over all |H|^2 ordered pairs h1 h2^-1, keyed by the
    arguments of its closed form (see the module docstring)."""
    return _quotient_histogram(H)


def _quotient_histogram(H: TranslateSet) -> QuotientHistogram:
    """quotient_histogram's body, which t_k(H, 3) calls directly: the
    benchmark's trace counts one quotient_histogram call per energy, t4,
    cschain and borel job."""
    p = H.p
    # at most 5 arrays of |H|^2 items at once, as the keys form (33 B a pair
    # at int64 and 233 B at 2^61 - 1, measured)
    _reserve("quotient histogram", 5 * len(H) ** 2 * _item_bytes(p))
    a, b = _array(H).reshape(-1, 2).T
    w = _mod(b[:, None] - b, p)
    keys = np.where(w == 0, _mod(a[:, None] - a, p) * p, (w * p + a[:, None]) * p + a).ravel()
    del w  # the tally peaks without it
    keys, counts = _tally(keys)
    a2 = _mod(keys, p)
    keys //= p  # w p + a1
    a1 = _mod(keys, p)
    keys //= p  # w
    return QuotientHistogram(p, (keys, a1, a2), counts)


def _t3_fill_bytes(p: int, n: int) -> int:
    """The T_3 fill's keys, plus 8 items per element of the larger of a fill
    chunk (49 B at int64, measured) and a _sorted_square_sum block (34 B)."""
    return (n**3 + 8 * max(n * n, min(n**3, _CHUNK))) * _item_bytes(p)


def _t3_keys(H: TranslateSet):
    """Sorted keys of all |H|^3 products h1 h2^-1 h3, filled in chunks over h1
    as the products of the chunk's pair quotients with the embedded h3."""
    p, n = H.p, len(H)
    _reserve("T3 key array", _t3_fill_bytes(p, n))
    a, b = _array(H).reshape(-1, 2).T
    h3 = embed_entries(p, a, b)
    keys = np.empty(n**3, dtype=a.dtype)
    rows = max(1, _CHUNK // (n * n))
    for i in range(0, n, rows):
        h1 = (a[i : i + rows, None, None], b[i : i + rows, None, None])
        u = pair_quotient_entries(p, *h1, a[:, None], b[:, None])
        keys.reshape(n, n, n)[i : i + rows] = _key(p, *product_entries(p, *u, *h3))
    keys.sort()
    return keys


def _t3_quotient_bytes(p: int, n: int, hist: QuotientHistogram) -> int:
    """The quotient arm's |Q| |H| keys as they weigh and tally: per key the
    key, its weight and the unpacked weight, a run edge and at most one run
    (1 item and 41 bytes), where keys (< p^3) and weights (<= max r(u))
    pack, and 2 items more (the order and both gathers) where they sort by
    argsort; 8 items per element of a fill chunk and 8 per quotient (the
    histogram's arguments and counts, and its entry columns)."""
    item, m = _item_bytes(p), len(hist)
    packs = p**3 * (int(hist.counts.max(initial=0)) + 1) <= 1 << 63
    return (item + 41 + 2 * item * (not packs)) * m * n + 8 * item * (min(m, max(1, _CHUNK // n)) * n + m)


def _t3_quotients(H: TranslateSet, hist: QuotientHistogram) -> int:
    """T_3 over the quotient support: the sum over products g of the squared
    number of triples behind g, the sum of r(u) over the |Q| |H| products
    g = u h3 of the support with the embedded h3, filled in chunks of
    quotients."""
    p, n, m = H.p, len(H), len(hist)
    _reserve("T3 quotient keys", _t3_quotient_bytes(p, n, hist))
    a, b = _array(H).reshape(-1, 2).T
    h3 = embed_entries(p, a, b)
    u = hist.columns
    keys = np.empty((m, n), dtype=a.dtype)
    rows = max(1, _CHUNK // n)
    for i in range(0, m, rows):
        keys[i : i + rows] = _key(p, *product_entries(p, *(e[i : i + rows, None] for e in u), *h3))
    del u
    _, sums = _tally(keys.reshape(-1), np.repeat(hist.counts, n))
    return _dot(sums, sums)


def t_k(H: TranslateSet, k: int) -> int:
    """T_k(H) = sum of squared representation counts of alternating
    products h1 h2^-1 h3 ... of length k, at SL2-entry equality."""
    p, n = H.p, len(H)
    if n == 0:
        return 0
    if k == 2:
        r = quotient_histogram(H).counts
        return _dot(r, r)
    if k == 3:
        if n**3 > _T3_FEW:
            hist = _quotient_histogram(H)
            if len(hist) <= _T3_QUOTIENTS * n * n and _t3_quotient_bytes(p, n, hist) <= _t3_fill_bytes(p, n):
                return _t3_quotients(H, hist)
            del hist  # the fill peaks without it
        return _sorted_square_sum(_t3_keys(H))
    if k == 4:
        q2 = quotient_histogram(H)
        # 9 items per product of the support (63 B at int64, measured)
        _reserve("T4 self-convolution", 9 * len(q2) ** 2 * _item_bytes(p))
        columns = q2.columns
        keys = _key(p, *product_entries(p, *(e[:, None] for e in columns), *columns))
        _, sums = _tally(keys.reshape(-1), (q2.counts[:, None] * q2.counts).reshape(-1))
        return _dot(sums, sums)
    raise InvalidArgument(f"k must be 2, 3 or 4, got {k}")


def _sort_count(what: str, p: int, n: int, distinct: int, key, weight=None, item: int = 8, extra: int = 0) -> tuple:
    """(values ascending, total weights) of the at most distinct residues
    key(s) mod p, weighted by weight(s) or 1, over row slices s of an n x n
    outer product, in blocks of about _CHUNK keys cast to int64.  Where p is
    at most a block's keys, every block is added into one p-long int64 total
    by index; otherwise each block is sorted and counted by _tally, and one
    more _tally merges their runs if there are several.  Reserves the extra
    bytes the caller holds too."""
    rows = max(1, _CHUNK // max(1, n))
    blocks = [slice(i, i + rows) for i in range(0, max(1, n), rows)]  # one empty block if n = 0
    keys = min(n, rows) * n  # per block
    index = p <= keys
    # per key of a block 3 items as key(s) forms them and, to weigh, 1 int64
    # more indexed or 4 sorted; indexed, the 8p-byte total and two int64 per
    # value; sorted, 3 int64 per run of a block, 2 more per run of the blocks
    # before it, and, where several blocks merge, 6 int64 per run as the
    # joined runs pack, sort, unpack and sum with no block alive; at most
    # min(p, distinct) runs per block
    cell = 3 * item + (8 if index else 32) * (weight is not None)
    runs = sum(min(p, distinct, n * len(range(n)[s])) for s in blocks)
    if index:
        nbytes = cell * keys + 24 * p
    elif len(blocks) == 1:
        nbytes = cell * keys + 24 * runs
    else:
        nbytes = max(cell * keys + 40 * runs, 48 * runs)
    _reserve(what, nbytes + extra)
    if index:
        total = np.zeros(p, dtype=np.int64)
        for s in blocks:
            w = 1 if weight is None else weight(s).ravel()
            np.add.at(total, key(s).ravel().astype(np.int64, copy=False), w)
        values = np.flatnonzero(total)  # every weight is positive
        return values, total[values]
    runs = [
        _tally(key(s).ravel().astype(np.int64, copy=False), None if weight is None else weight(s).ravel())
        for s in blocks
    ]
    if len(runs) == 1:
        return runs[0]
    values, counts = map(np.concatenate, zip(*runs))
    del runs  # the merge peaks without the blocks' runs
    return _tally(values, counts)


def d_histogram(H: TranslateSet) -> tuple:
    """(d ascending, number of ordered pairs with D(h, h') = (a-a')(b-b') = d)."""
    p, n = H.p, len(H)
    a, b = _array(H).reshape(-1, 2).T
    # D(h, h') = D(h', h) and D(h, h) = 0: at most n (n - 1) / 2 + 1 values
    return _sort_count("D histogram", p, n, n * (n - 1) // 2 + 1,
                       lambda s: _mod((a[s, None] - a) * (b[s, None] - b), p), item=_item_bytes(p))


def q_rect(H: TranslateSet) -> int:
    """Rectangular quadruples Q(H): pairs of pairs at equal D, as squared masses."""
    _, r = d_histogram(H)
    return _dot(r, r)


def _differences(B: ScalarSet, extra: int = 0) -> tuple:
    """(d ascending, number of ordered pairs (x, y) of B x B with x - y = d),
    reserved with the extra bytes its caller holds with it; int64 at every p."""
    p, xs = B.p, np.array(B.elements, dtype=np.int64)
    n = len(xs)  # x - y takes at most n (n - 1) + 1 values
    return _sort_count("difference histogram", p, n, n * (n - 1) + 1, lambda s: _mod(xs[s, None] - xs, p), extra=extra)


def minkowski_grid(A: ScalarSet) -> TranslateSet:
    """The 45-degree image {(x+y, x-y): (x,y) in A x A}; D on it is the
    Minkowski distance on A x A."""
    p = A.p
    return TranslateSet(p, tuple(((x + y) % p, (x - y) % p) for x in A for y in A))


def minkowski_realisations(A: ScalarSet, lam: int) -> int:
    """Ordered pairs of A x A at Minkowski distance (x-x')^2 - (y-y')^2 = lam.

    Computed from the difference histogram r of A, summed over squares:
    with S(s) = sum_{d^2 = s} r(d), the count is sum_s S(s) S(s - lam).
    """
    p, n = A.p, len(A)
    lam = _check_lambda(p, lam)
    # per difference (at most n^2) 5 int64 as its square forms and sorts (36 B
    # measured), or above 2^21 3 items of Python ints (148 B at 2^61 - 1)
    d, r = _differences(A, (40 if p <= _INT64_P else 3 * _item_bytes(p)) * min(p, n * n))
    wide = d if p <= _INT64_P else d.astype(object)
    s, S = _tally(_mod(wide * wide, p).astype(np.int64, copy=False), r)
    t = _mod(s - lam, p)
    i = np.minimum(np.searchsorted(s, t), len(s) - 1)
    return _dot(S, np.where(s[i] == t, S[i], 0))


def _point_pairs(p: int, xs, ys):
    """Each unordered pair of points of xs x ys with distinct x once, in blocks of about _CHUNK
    (one empty if none): (x1, e, y1, f), e = x1 - x2 over (rows, 1), f = y1 - y2 over ys^2."""
    i, j = np.triu_indices(len(xs), 1)
    x1, e = xs[i, None], (xs[i, None] - xs[j, None]) % p
    y1, y2 = np.repeat(ys, len(ys)), np.tile(ys, len(ys))
    rows = max(1, _CHUNK // max(1, len(y1)))
    for r in range(0, max(1, len(e)), rows):
        yield x1[r : r + rows], e[r : r + rows], y1, (y1 - y2) % p


def _mk_columns(A: ScalarSet, lam: int) -> tuple:
    """(keys a p + b ascending, richness) of every translate holding >= 2
    points of A x A, in O(p |A|^2): (x, y) with y != a lies on (a, b)
    exactly when b = x + c mod p, c = -lam/(y - a), so the counts of the
    |A|^2 keys of row a are its translates' richness.  Rows go in blocks of
    ascending a.  Where p <= |A|^2 (the only inputs rich_hyperbolae sends
    here) a block's rows of p cells are no more than its keys: one bincount
    over rows of 2p cells counts x + c < 2p by index, and folding each row's
    upper half onto its lower reduces x + c mod p.  Above that each block is
    sorted and counted by _tally.  Either way the keys come out ascending."""
    p, n = A.p, len(A)
    rows = max(1, _CHUNK // max(1, n * n))
    index = p <= n * n
    # per key of a block 4 int64 items as the keys form and count (9 to
    # sort), two arrays per block, and 4 int64 per translate with >= 2
    # points: at most min(p^2, |A|^2 (|A|-1)^2) (see _mk_pairs) and half
    # the p |A|^2 keys
    translates = min(p * p, n * n * (n - 1) ** 2, p * n * n // 2)
    cells = (32 if index else 72) * min(p, rows) * n * n
    _reserve("m_k column pass", cells + 256 * (p // rows + 1) + 32 * translates + _table_bytes(p))
    xs = _array(A)
    inv = _inv_vec(p)
    keys, rich = [], []
    for a0 in range(0, p, rows):
        a = np.arange(a0, min(p, a0 + rows))[:, None]
        u = _mod(xs - a, p)
        c = _mod(-lam * inv(u), p)  # over (a, y); inv(0) = 0 gives c = 0 where y = a
        if index:
            t = np.bincount(((c + (a - a0) * 2 * p)[:, :, None] + xs).ravel(), minlength=2 * p * len(a))
            t = t.reshape(-1, 2, p)  # (row, x + c >= p, x + c mod p)
            t = (t[:, 0] + t[:, 1]).ravel()
            # y = a put (a, x) on each x of A: take them off
            ya = xs[(xs >= a0) & (xs < a0 + len(a))] - a0
            t[(ya[:, None] * p + xs).ravel()] -= 1
            found = np.flatnonzero(t >= 2)
            t = t[found]
        else:
            found, t = _tally((_mod(c[:, :, None] + xs, p) + (a - a0)[:, :, None] * p)[u != 0].ravel())
            found, t = found[t >= 2], t[t >= 2]
        keys.append(found + a0 * p)
        rich.append(t)
    keys = np.concatenate(keys)  # frees the key blocks before joining the rest
    return keys, np.concatenate(rich)


def _mk_pairs(A: ScalarSet, lam: int) -> tuple:
    """_mk_columns from point pairs: the translates through (x1, y1) and
    (x2, y2), e = x1 - x2 != 0 and f = y1 - y2 != 0, solve
    f u^2 - e f u + lam e = 0 in u = x1 - b (discriminant ef(ef - 4 lam)),
    so a t-rich translate shows up C(t, 2) times.  Any two points of one
    curve differ in both coordinates, so no translate with t >= 2 is missed."""
    p, n = A.p, len(A)
    roots = n * n * (n - 1) ** 2  # at most two for each of n^2 (n-1)^2 / 2 pairs
    # 12 items per element of a block (n^2 y-pairs per x-pair) and 3 per root
    block = min(n**3 * (n - 1) // 2, max(n * n, _CHUNK))
    _reserve("m_k pair pass", _item_bytes(p) * (12 * block + 3 * roots) + _table_bytes(p, sqrt=True))
    xs = _array(A)
    inv, sqrt = _inv_vec(p), _sqrt_vec(p)
    keys = []
    for x1, e, y1, f in _point_pairs(p, xs, xs):
        ef = _mod(e * f, p)
        s = sqrt(_mod(ef * (ef - 4 * lam), p))  # above -4 p^2
        inv2f = inv(_mod(2 * f, p))
        for root, hit in ((s, s >= 0), (-s, s > 0)):  # a double root counts once
            u = _mod((ef + root) * inv2f, p)  # nonzero: the roots multiply to lam e / f
            keys.append((_mod(y1 - lam * inv(u), p) * p + _mod(x1 - u, p))[hit & (f != 0)])
    keys, hits = _tally(np.concatenate(keys))
    # 1 + 8 C(t, 2) = (2t - 1)^2 is an exact square below 2^53, so its float root is exact
    return keys, (1 + np.sqrt(1 + 8 * hits).astype(np.int64)) // 2


def rich_hyperbolae(A: ScalarSet, k: int, lam: int = -1) -> int:
    """m_k: the number of translates (a, b) whose curve (x-b)(y-a) = lam holds
    >= k points of A x A.  Two arms give the same map of every translate's
    richness: the column arm (all p^2 translates, O(p |A|^2)) runs
    when p <= |A|^2 and p <= 2^21, the pair arm (the translates through each
    point pair, O(|A|^4 log |A|)) otherwise."""
    p = A.p
    lam = _check_lambda(p, lam)
    if k < 2:
        raise InvalidArgument(f"k must be >= 2, got {k}")
    arm = _mk_columns if p <= min(len(A) ** 2, _INT64_P) else _mk_pairs
    _, rich = arm(A, lam)
    return int(np.count_nonzero(rich >= k))


def _lines(B: ScalarSet, C: ScalarSet) -> tuple:
    """(keys m p + c ascending, hits) of every line y = m x + c through >= 2
    points of B x C: each point pair with distinct x keys its line, so a
    t-rich line has C(t, 2) hits."""
    p = B.p
    pairs = len(B) * (len(B) - 1) // 2 * len(C) ** 2
    # 5 items per pair of a block (|C|^2 y-pairs per x-pair) and 4 per pair
    block = min(pairs, max(len(C) ** 2, _CHUNK))
    _reserve("rich-line table", _item_bytes(p) * (5 * block + 4 * pairs) + _table_bytes(p))
    inv = _inv_vec(p)
    keys = []
    for x1, e, y1, f in _point_pairs(p, _array(B), _array(C)):
        m = _mod(f * inv(e), p)
        keys.append((m * p + _mod(y1 - m * x1, p)).ravel())
    return _tally(np.concatenate(keys))


def rich_lines(B: ScalarSet, C: ScalarSet, k: int) -> int:
    """l_k: the number of affine lines holding >= k points of B x C; each
    vertical line holds the |C| points of its x."""
    if B.p != C.p:
        raise ModulusMismatch(f"moduli differ: {B.p}, {C.p}")
    if k < 2:
        raise InvalidArgument(f"k must be >= 2, got {k}")
    _, hits = _lines(B, C)
    return int(np.count_nonzero(hits >= k * (k - 1) // 2)) + (len(B) if len(C) >= k else 0)


def additive_energy(B: ScalarSet) -> int:
    """E_+(B): quadruples with b1 - b2 = b3 - b4."""
    _, r = _differences(B)
    return _dot(r, r)


def product_rep_histogram(B: ScalarSet) -> tuple:
    """(x ascending, r_{(B-B)(B-B)}(x)): products of differences with multiplicity."""
    p = B.p
    d, r = _differences(B)
    wide = d if p <= _INT64_P else d.astype(object)
    # at most (m^2 + 3) / 4 products of m = len(d) differences, as (+-x)(+-y)
    # takes two values per pair {x, y}.  As r(d) <= |B|, a weight sum is at
    # most |B|^3 at x != 0 (d2 = x / d1) and 2|B|^3 at 0, below 2^63 while
    # |B| <= 1664510.
    return _sort_count("product histogram", p, len(d), (len(d) ** 2 + 3) // 4,
                       lambda s: _mod(wide[s, None] * wide, p), lambda s: r[s, None] * r, item=_item_bytes(p))


def product_rep_energy(B: ScalarSet) -> int:
    """sum_x r^2_{(B-B)(B-B)}(x)."""
    _, w = product_rep_histogram(B)
    return _dot(w, w)


# the four equations share the shape (a1 + f(a2,a4)) * (a3 + g(a2,a4)) = 1
_SUMPROD_FACTORS = {
    1: lambda a2, a4, p: (a2, a4),
    2: lambda a2, a4, p: ((a2 - a4) % p, (a2 + a4) % p),
    3: lambda a2, a4, p: (a2, a2 * a4 % p),
    4: lambda a2, a4, p: ((a2 + a4) % p, a2 * a4 % p),
}


def sumprod_quadruples(A: ScalarSet, variant: int) -> int:
    """Solutions in A^4 of the selected quadruple equation."""
    if variant not in _SUMPROD_FACTORS:
        raise InvalidArgument(f"variant must be 1..4, got {variant}")
    p = A.p
    xs = _array(A)
    # a3 = 1/(a1 + f) - g: a translate with pole -f and shift -g, one per (a2, a4)
    f, g = _SUMPROD_FACTORS[variant](np.repeat(xs, len(xs)), np.tile(xs, len(xs)), p)
    poles, pole = _distinct(p, ((-f) % p).astype(np.int64, copy=False), len(xs))
    xs = xs.astype(np.int64, copy=False)
    return int(_hits(p, xs, poles, pole, ((-g) % p).astype(np.int64, copy=False), xs).sum())


def borel_coset_mass(H: TranslateSet) -> tuple:
    """Bucket squared quotient masses by left Borel coset.

    Returns (labels ascending, sum of r^2 over each coset, max over finite
    labels).  The int64 label is u(oo), with p for oo (the Borel subgroup).
    """
    p, hist = H.p, quotient_histogram(H)
    w, a1, _ = hist.args
    # per quotient the histogram's 4 columns, and 6 items as the labels form
    # and sort (the inverses, the labels, the weights, their order and both
    # sorted), 8 bytes each; above the table range a Python int below p per
    # inverse (and its pointer as it forms), above 2^21 one per argument and
    # label too
    n, big = len(hist), sys.getsizeof(p)
    per = 80 + (p > _INV_TABLE_MAX) * (8 + big) + (p > _INT64_P) * 4 * big
    _reserve("Borel coset labels", per * n + _table_bytes(p))
    # label a/c = (1 + a1 w)/w = a1 + 1/w, or p for oo where c = w = 0 (which
    # inverts to 0), read off the arguments with no entry columns formed;
    # a mass is <= E(H) <= |H|^3
    labels = np.where(w == 0, p, _mod(a1 + _inv_vec(p)(w), p)).astype(np.int64, copy=False)
    labels, masses = _tally(labels, hist.counts * hist.counts)
    return labels, masses, int(masses[labels != p].max(initial=0))


def _borel_keys(H: TranslateSet):
    """The keys of the products h1 h2^-1 h3 that lie in the Borel group B
    (c = 0), one per such triple.  With w = b1 - b2 the quotient has c = w
    and d = 1 - a2 w, so the product has c = w (a2 - a3) - 1: zero exactly
    when w != 0 and a3 = a2 - 1/w.  So each ordered pair with w != 0 joins
    the h3 of that a, found by binary search in H sorted by a: at most
    |H|^2 M triples, M the most translates sharing an a."""
    p, n = H.p, len(H)
    item = _item_bytes(p)
    # per pair 4 items and 2 int64 as the a3 form and their runs in by_a
    # are found (above 2^18 a Python int and its pointer per inverse); per
    # triple 16 items and 5 int64 as the indices, the entries and the keys
    # form
    pair_bytes = (4 * item + 16 + (p > _INV_TABLE_MAX) * (8 + sys.getsizeof(p))) * n * n
    _reserve("Borel T3 join", pair_bytes + _table_bytes(p))
    a, b = _array(H).reshape(-1, 2).T
    order = np.argsort(a)
    by_a = a[order]
    w = _mod(b[:, None] - b, p).ravel()  # the pair (h1, h2) at index i1 n + i2
    a3 = _mod(np.tile(a, n) - _inv_vec(p)(w), p)
    lo = np.searchsorted(by_a, a3)
    span = np.searchsorted(by_a, a3, side="right") - lo
    span[w == 0] = 0  # inv(0) = 0 would join a3 = a2
    del w, a3
    triples = int(span.sum())
    _reserve("Borel T3 join", pair_bytes + (16 * item + 40) * triples)
    pair = np.repeat(np.arange(n * n), span)
    i3 = order[np.repeat(lo - np.cumsum(span) + span, span) + np.arange(triples)]
    del lo, span
    i1, i2 = np.divmod(pair, n)
    u = pair_quotient_entries(p, a[i1], b[i1], a[i2], b[i2])
    return _key(p, *product_entries(p, *u, *embed_entries(p, a[i3], b[i3])))


def borel_t3_mass(H: TranslateSet) -> int:
    """Y_B: the part of T_3 carried by upper-triangular products."""
    if len(H) == 0:
        return 0
    _, r = _tally(_borel_keys(H))
    return _dot(r, r)


def cs_chain_report(A: ScalarSet, H: TranslateSet) -> CsChainReport:
    """Replay of the first Cauchy-Schwarz step: sigma^2 <= |A| sum_u r(u) sigma_u,
    the pigeonhole level Delta = sigma^2 / (3|A||H|^2), and the share of
    the right-hand side carried by Omega = {u: sigma_u >= Delta}."""
    if A.p != H.p:
        raise ModulusMismatch(f"moduli differ: {A.p}, {H.p}")
    if len(A) == 0 or len(H) == 0:
        raise EmptyInput("cs_chain_report needs nonempty A and H")
    p = A.p
    sig = sigma(A, H, -1)
    hist = quotient_histogram(H)
    w, a1, a2 = (v.astype(np.int64, copy=False) for v in hist.args)
    xs = _array(A, np.int64)
    # u = h1 h2^-1 maps a2 to a1 and x != a2 to a1 + 1/(w + inv(x - a2)), which
    # is y != a1 in A exactly when w + inv(x - a2) = inv(y - a1) (0 is no
    # inverse, so u(x) = oo never counts).  So the rows of inverses of the
    # distinct a of H serve as poles a2 and as target rows a1, and the pole
    # oo (p), whose row is A itself, as pole and target row of the translations
    ha = np.array([*sorted({a for a, _ in H}), p], dtype=np.int64)
    if p <= len(w):  # a's rank by a p-long table, faster than a binary search per quotient
        rank = np.zeros(p, dtype=np.int64)
        rank[ha[:-1]] = np.arange(len(ha) - 1)
        rank = rank.__getitem__
    else:
        rank = lambda v: np.searchsorted(ha, v)  # noqa: E731
    z = w == 0
    pole = np.where(z, len(ha) - 1, rank(a2))
    key = np.where(z, len(ha) - 1, rank(a1))
    su = _hits(p, xs, ha, pole, np.where(z, a1, w), None, key)
    in_a = xs[np.searchsorted(xs[:-1], ha)] == ha  # a pole lies in A (oo does not)
    su += in_a[pole] & in_a[key]  # x = a2 in A maps to a1 (w != 0)
    total_rs = _dot(hist.counts, su)
    rhs = len(A) * total_rs
    if sig * sig > rhs:
        raise AssertionError(f"Cauchy-Schwarz step fails: sigma^2 = {sig * sig} > {rhs}")
    delta = Fraction(sig * sig, 3 * len(A) * len(H) ** 2)
    omega = su >= -(-delta.numerator // delta.denominator)  # sigma_u >= ceil(delta)
    share = Fraction(_dot(hist.counts[omega], su[omega]), total_rs) if total_rs else Fraction(1)
    return CsChainReport(
        sigma=sig,
        lhs_sq=sig * sig,
        rhs_cs=rhs,
        delta=delta,
        omega_size=int(np.count_nonzero(omega)),
        omega_incidence_share=share,
    )
