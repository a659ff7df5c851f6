"""Exact counting kernels: incidences, energies, rectangular quadruples,
Minkowski realisations, rich curves and lines, and the Cauchy-Schwarz chain.

Every count here is an exact integer; no floating point enters.  Group
quantities (anything built from HH^-1 products) exist only for the curve
constant lambda = -1, where translates embed into SL2.  The moebius column
forms, the only copy of each SL2 closed form, give their entries as arrays.
A product is keyed (a p + c) p + z by its key entries, z = d or, where
c = 0, b (moebius.product_key_entries).  A pair quotient h1 h2^-1 is keyed
by the arguments of its closed form, w = b1 - b2, a1 and a2:
(w p + a1) p + a2, or (a1 - a2) p when w = 0.  That key is injective on
quotients, as for w != 0 the entries c = w, a = 1 + a1 w and d = 1 - a2 w
give all three back and for w = 0 the quotient is (1 a1-a2; 0 1).

Every keyed pass forms its keys in blocks of about _CELLS cells, the one
block size: row blocks (_key_blocks; _hits chunks its cells alike), or in
_write_keys, which writes the keys that are kept into one array, whole rows
or, where a row is longer than a block, runs of its columns, the SL2 keys
in place (the rare w = 0 cells found by flat index and fixed up; b taken
for d where c = 0 by masked multiplies).  One counter, _tally, sorts keys
and reads off the runs of equal ones through the one run reader, _runs: a
stream of blocks of runs (_run_blocks) that _read_runs joins and the
richness maps read as it comes; only _run_count and _sorted_square_sum
read the blocks themselves.  Keys that lie in a range no longer than they
are many are counted instead in one array indexed by key (np.add.at per
block, as np.bincount returns an array a call and sums weights in float64;
the m_k column arm bincounts a block of rows).  So the histograms over
element pairs (differences for eplus, minkowski and the product histogram,
D(h, h') for q and t3) and the growth sets A + B and A - B (sets.sumset and
sets.difference_set, which keep the values only), residues mod p of n^2
pairs (_sort_count), add into one p-long int64 total where p <= n^2 and
otherwise sort all n^2 keys as int64: nothing merges, and every histogram
leaves the module as arrays, its values ascending.  Weighted int64 keys
sort packed, key (max weight + 1) + weight, where that fits int64, and by
argsort otherwise; a weight sum is int64 only where len(weights)
max(weight) < 2^63.  Keys stay below p^3: int32 for p <= 1289 (SL2 kernels
only), int64 for p <= 2^21, Python ints above.

T_3 and T_4 come from one pass, _product_squares: the sum over g of
(sum_{u_i v_j = g} w_i w'_j)^2 over the products of two sets of entry
columns, read off their sorted keys.  T_3 keys each triple by its inverse,
(h1 h2^-1 h3)^-1 = h3^-1 (h2 h1^-1): products are equal exactly when their
inverses are, and the quotients h2 h1^-1 over all ordered pairs are those
h1 h2^-1.  So the rows are the |H| inverted embeddings h3^-1 (the adjugate
(b, -(ab + 1), 1, -a)) and the columns quotients, |H|^2 cells a row, which
broadcast faster than short rows.  The fill takes h3^-1 times the |H|^2
pair quotients (k = 3), or the quotients times themselves (k = 4), with
weight 1; the support arm takes h3^-1 times the quotient support Q with
weights (1, r(u)), or Q times itself with (r(u), r(v)), as
T_3 = sum_g (sum_{h3^-1 u = g} r(u))^2 (Q is closed under inversion and
r(u^-1) = r(u)).  One rule serves both k: the support arm where it
writes at most 2/5 as many keys as the fill, |H| |Q| against |H|^3 or
|Q|^2 against |H|^4 (its keys are weighted and cost more: the T_3 arms
break even near |Q| = 0.4 |H|^2, the T_4 arms between 0.6 and 0.68, and
the rule puts them at 0.4 and 0.63), and the fill elsewhere and where the
budget refuses the support, the support histogram dropped first.  Up to
|H|^3 = 2^12 the T_3 fill runs with no support histogram built.  The
Borel part of T_3 keys only the triples whose product lies in B, in the
fill's orientation: h3^-1 u has c = 1 + (a1 - a3) w, so each pair with
w != 0 joins the h3 with a3 = a1 + 1/w, and a pair with w = 0 joins none.
With c = 0 throughout, each product is keyed a p^2 + b off its top row
(moebius.product_row_entries), the fill's key (a p + c) p + b.

Every table-building kernel reserves (_reserve) against HYPERLAB_BUDGET_MB
what its pass keeps plus one block, and what its caller holds (held), before it allocates.

The array loops reduce mod p with moebius._mod, x - (x // p) p formed in
place: numpy divides an int64 array by a scalar through libdivide, several
times faster than its x % p (which is slower still on negative x), and the
in-place steps hold no more temporaries than x % p.  Every final count
(a sum of squares or of products of counts) is one _dot: exact, in int64
where a bound read off its arrays allows and over Python ints otherwise.

m_k and l_k are threshold counts over a richness map: the ascending keys of
every translate (or non-vertical line) through two or more points, with
the number of points on each, its keys (< p^2) as _map_keys has them and
its richness in the narrowest dtype that holds it.  A map is a stream of
disjoint, ascending (keys, richness) blocks and is never held whole: the
m_k column arm yields each block of rows a once counted, and the m_k pair
arm and the lines are one point-pair pass (_pair_map), which writes the
keys of the curves through each point pair into one array, sorts it in
place, streams its runs a block at a time (_runs) and reads the C(t, 2)
pairs of a t-rich curve as t.  One reader, _rich_count, takes the
threshold count off the stream; the checks that compare whole maps join
it (_joined).

Incidences between points and Moebius maps (sigma, the sumprod quadruples,
sigma_u of the Cauchy-Schwarz step) are all counted by _hits in translate
form: each map is x -> a + 1/(x - b), its row the bare inverses inv(x - b)
(one per distinct pole and point), tested against a set of targets.
sigma_rect's y = a + lam/(x - b) lies in C exactly when a/lam + 1/(x - b)
lies in C/lam, so it divides lam out of its shifts and targets; a sumprod
map is a = -g, b = -f, and a quotient with w = b1 - b2 != 0 maps x != a2
to a1 + 1/(w + 1/(x - a2)) and a2 to a1, so an x != a2 hits A exactly when
w + inv(x - a2) = inv(y - a1) for a y != a1 in A; a quotient with w = 0
is the translation by a1 - a2, the map with pole oo.  The Cauchy-Schwarz
step's Omega pass, read on demand, tests the quotients with w <= (p-1)/2,
the translations whole, and weighs the rest twice: u^-1 has the arguments
(-w, a2, a1), the same r and sigma_u, and p is odd, so w and p - w differ;
its sum of r(u) sigma_u is sum_z N(z)^2 over the |H||A| preimages
h^-1(x) = b - inv(x - a), a key block's cells read off the rows of its
distinct a.  Every inverse is formed one way, _inv_vec, and priced one way,
_inv_bytes: a table read off the powers of a primitive root for small p, and
above it one Fp.inv call (the built-in pow(x, -1, p)) per element.  The
brute-force oracle loops use Fermat powers, sharing no arithmetic shortcuts.
"""

import sys
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import EmptyInput, InvalidArgument, ModulusMismatch, ResourceLimit, _reserve
from .field import check_prime
from .moebius import _mod, inverse_embed_entries, pair_quotient_entries, product_key_entries, product_row_entries
from .sets import ScalarSet, TranslateSet, _sorted_set

_INV_TABLE_MAX = 1 << 18
_CELLS = 1 << 15  # cells per block of every keyed pass (2^14 to 2^16 time alike; 2^18 was slower)
_HIT_ROW_BYTES = 1 << 22  # bytes per block of _hits' int64 pole rows and of its membership rows
_RUN_BLOCK = 1 << 16  # sorted keys per block of _run_blocks, a multiple of _CELLS (timed)
_FEW_CELLS = 1 << 11  # cells up to which _hits forms a row per map, not per distinct pole
_T3_FEW = 1 << 12  # |H|^3 up to which T_3 fills with no support histogram first (|H| <= 16)
_QUOTIENT_ARM = 2 / 5  # share of the fill's keys up to which the support arm writes its (weighted) keys
_INT32_P = 1289  # SL2 keys (< p^3) fit int32 up to here (1291^3 > 2^31); intermediates (< 2 p^2) too
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


def _inv_bytes(p: int, n: int) -> int:
    """Peak bytes of n inverses formed at once through _inv_vec (tracemalloc):
    up to _INV_TABLE_MAX a cold table build (32 p: the powers, the zeroed table,
    the index and the gather; 8 p kept, as for a square-root table, whose build,
    20 p, peaks below it), above it a Python int, its pointer and its conversion each."""
    return 32 * p if p <= _INV_TABLE_MAX else (16 + sys.getsizeof(p)) * n


def _item_bytes(p: int, sl2: bool = False, top: int = 0) -> int:
    """Bytes per array element of a key (< p^3), or of a value below top: an
    int64, an int32 in an SL2 kernel up to _INT32_P (_sl2_columns), or above
    _INT64_P a pointer to a Python int."""
    return 4 if sl2 and p <= _INT32_P else 8 if p <= _INT64_P else 8 + sys.getsizeof(top or p**3)


@dataclass(eq=False)
class QuotientHistogram:
    """The |H|^2 pair keys (w p + a1) p + a2 of the quotients u, sorted (T_2 is their
    squared run lengths), read off their runs on first read: the arguments (w, a1, a2)
    of each distinct u by ascending key, (0, a1 - a2, 0) for a translation (w = 0),
    and the counts r(u).  The tally drops the keys (None after it); len() is the
    support, the runs counted once, not tallied."""

    p: int
    keys: np.ndarray | None

    def __len__(self) -> int:
        return self._size

    @cached_property
    def _size(self) -> int:
        return _run_count(self.keys)

    @cached_property
    def _runs(self) -> tuple:
        """(args, counts): next to the keys per run a distinct key, its count and 2 arguments, and a block of runs."""
        p, item, n = self.p, _item_bytes(self.p, sl2=True), len(self.keys)
        _reserve("quotient histogram runs", item * n + (3 * item + 8) * len(self) + _run_bytes(n, item + 8))
        keys, counts = _read_runs(self.keys)
        self.keys = None  # nothing reads the pair keys once they are tallied
        a2 = _mod(keys, p)
        keys //= p  # w p + a1
        a1 = _mod(keys, p)
        keys //= p  # w
        return (keys, a1, a2), counts

    args = property(lambda self: self._runs[0], doc="(w, a1, a2) of each distinct quotient, tallied on first read")
    counts = property(lambda self: self._runs[1], doc="r(u) of each distinct quotient, tallied on first read")

    @property
    def columns(self) -> tuple:
        """The entry columns (a, b, c, d) of the quotients, formed on each read."""
        w, a1, a2 = self.args
        return pair_quotient_entries(self.p, a1, w, a2, 0)


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


def _hits(p: int, xs, poles, pole, shift, targets=None, key=None, held=None) -> np.ndarray:
    """For each map i, x -> shift[i] + row(x), where row is the row of
    poles[pole[i]] (see _pole_rows), the number of points x of xs whose image
    lies in targets, or where targets is None in the row of poles[key[i]], as
    int64.  xs, shifts and targets are int64 residues, so a cell lies in
    [0, 3p) and 2p never hits.  The caller holds held bytes (by default 2
    residues a map: sigma's shifts or sumprod's factors as they form).

    The rows are formed for a block of poles within _HIT_ROW_BYTES at a time,
    all at once where they fit; a cell is then a row gather, an add and a
    membership read, in chunks of about _CELLS cells.  Target rows go in
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
    chunk = max(1, _CELLS // max(1, width))
    # per (pole, point) of a block 17 bytes as its row forms (differences,
    # inverses, zero mask) and its inverse (_inv_bytes), and 32 more per cell
    # of a target block where target rows form (keys and wrap, joined); per
    # map the caller's held bytes and 7 int64 (poles, shifts, keys, offsets,
    # output), 6 int64 more as the maps sort; per cell of a chunk 17 bytes
    # reading a membership table (3p bytes per target row) or 72 as np.isin
    # sorts the cells
    pole_cells = min(len(poles), per_pole) * width
    row = 17 * pole_cells + _inv_bytes(p, pole_cells) + 32 * (targets is None) * min(len(poles), per) * width
    member_bytes = min(ntargets, per) * stride * table
    cells = min(maps, chunk) * width * (17 if table else 72)
    maps_bytes = (56 + 48 * (groups > 1)) * maps + (2 * _item_bytes(p, top=p) * maps if held is None else held)
    _reserve("Moebius hits", row + maps_bytes + cells + member_bytes)
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
        block = None  # the next rows form without the last block
        if k0 != g // pole_blocks * per:  # the membership of the next target rows
            if table and k0 is not None:
                member[found] = False
            found = None  # nor the last target keys
            k0 = g // pole_blocks * per
            if targets is not None:
                found = targets
            else:
                t = rows[k0 : k0 + per] if rows is not None else _pole_rows(p, poles[k0 : k0 + per], xs)
                found = (t + np.arange(0, len(t) * stride, stride)[:, None])[t < p]
                del t  # the pole blocks form without it
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


def _sl2_columns(H: TranslateSet):
    """The columns a, b of a translate set for the SL2 kernels, int32 up to
    _INT32_P, where their keys (< p^3) fit it, and as _array above."""
    return _array(H, np.int32 if H.p <= _INT32_P else None).reshape(-1, 2).T


def _distinct(p: int, v, width: int):
    """The distinct values of an array of poles and the index of each among
    them, so that _hits (and _preimage_counts, on a key block's a) forms one
    row of width cells per distinct pole.  Where a row per element takes at most
    _FEW_CELLS cells, each read off the inverse table, each element is its own
    pole: forming the rows then costs less than finding the distinct values."""
    if p <= _INV_TABLE_MAX and len(v) * width <= _FEW_CELLS:
        return v, np.arange(len(v))
    return np.unique(v, return_inverse=True)


def _key_blocks(p: int, u, v, key):
    """(rows, keys) of each row block of about _CELLS cells: the keys
    key(p, *u_i, *v) of the rows i of the columns u against the columns v."""
    rows = max(1, _CELLS // max(1, len(v[0])))
    for i in range(0, len(u[0]), rows):
        yield slice(i, i + rows), key(p, *(e[i : i + rows, None] for e in u), *v)


def _quotient_key(p: int, out, scratch, a1, b1, a2, b2):
    """The pair key (w p + a1) p + a2 of h1 h2^-1, w = b1 - b2, or (a1 - a2) p
    where w = 0 (fixed up by flat index), written into out with one scratch block."""
    _mod(np.subtract(b1, b2, out=scratch[0]), p, out=out)
    zero = np.flatnonzero(out == 0)
    for x in (a1, a2):
        out *= p
        out += x
    if len(zero):
        i, j = np.unravel_index(zero, out.shape)
        out[i, j] = _mod(a1[i, 0] - a2[j], p) * p  # a1 a column of rows, a2 a row


def _write_keys(p: int, u, v, key=product_key_entries, dtype=None, depth: int = 2):
    """The keys key(p, *u_i, *v) of the rows i of the columns u (a scalar entry
    broadcasts) against the columns v, by default the products', in one flat
    array of u's dtype or of dtype (int64 for residues formed as Python ints or
    int32 blocks), row by row.  Each block of at most _CELLS cells (whole rows,
    as _key_blocks takes them, or where a row is longer a run of its columns,
    so a block is contiguous) is written in place by key(p, out, scratch, *u_i,
    *v_j) with depth scratch blocks."""
    m, n = len(u[0]), len(v[0])
    out = np.empty((m, n), dtype=dtype or u[0].dtype)
    rows, cols = max(1, _CELLS // max(1, n)), max(1, min(n, _CELLS))
    scratch = np.empty((depth, min(m, rows), cols), out.dtype)
    for j in range(0, n, cols):
        vj = [e[j : j + cols] for e in v]
        for i in range(0, m, rows):
            block = out[i : i + rows, j : j + cols]
            key(p, block, scratch[:, : len(block), : block.shape[1]],
                *(e[i : i + rows, None] if np.ndim(e) else e for e in u), *vj)
    return out.reshape(-1)


def _run_blocks(keys):
    """(lo, hi, edges) per block of _RUN_BLOCK sorted keys, hi extended by a
    binary search to the end of the run open at its edge; edges (one buffer)
    marks the run starts among its first m = len(edges) - 1 keys, and m."""
    n, lo, hi = len(keys), 0, -1
    buffer = np.empty(min(n, _RUN_BLOCK) + 1, dtype=bool)
    while hi < n:  # no keys make one block
        top = min(n, lo + _RUN_BLOCK)
        edges = buffer[: top - lo + 1]
        edges[0] = edges[-1] = True
        np.not_equal(keys[lo + 1 : top], keys[lo : top - 1], out=edges[1:-1])
        hi = top if top == n else int(keys.searchsorted(keys[top - 1], "right"))
        yield lo, hi, edges
        lo = hi


def _runs(keys, count=np.int64, weights=None):
    """The run reader: the runs of sorted keys as a stream of blocks (_run_blocks),
    each distinct key of a block and its multiplicity as count, or its weights' sum."""
    for lo, hi, edges in _run_blocks(keys):
        at = edges.nonzero()[0]  # the run starts and the end of the last run
        at[-1] = hi - lo
        yield keys[lo:hi][at[:-1]], (np.add.reduceat(weights[lo:hi], at[:-1]) if weights is not None else
                                     np.subtract(at[1:], at[:-1], out=np.empty(len(at) - 1, count), casting="unsafe"))
        at = None  # the next block's indices form without these


def _sort(keys, weights=None):
    """Sorted keys (nonnegative) and their weights, if any; unweighted in place.
    Weighted keys are int64 (written so on the int32 rung) or Python ints;
    int64 keys with (max key + 1)(max weight + 1) <= 2^63 are overwritten:
    key (max weight + 1) + weight is sorted in place and unpacked, one sort
    where an argsort and two gathers take about three times as long; other
    keys go by argsort.  Weights whose sum could pass 2^63 turn Python ints."""
    if weights is None:
        keys.sort()
        return keys, None
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
    return keys, weights.astype(object) if len(weights) * top >= 1 << 63 else weights


def _tally(keys, weights=None):
    """_read_runs of the keys (and weights) _sort sorts."""
    return _read_runs(*_sort(keys, weights))


def _run_count(keys) -> int:
    """The number of runs of equal sorted keys, counted a block at a time."""
    return sum(int(np.count_nonzero(edges)) - 1 for *_, edges in _run_blocks(keys))


def _read_runs(keys, weights=None):
    """_runs joined: each distinct key of sorted keys and its multiplicity as int64, or
    its total weight; one block as it is, past one copied into arrays sized by _run_count."""
    blocks = _runs(keys, weights=weights)
    if len(keys) <= _RUN_BLOCK:
        return next(blocks)
    runs, r = _run_count(keys), 0
    out = np.empty(runs, keys.dtype), np.empty(runs, np.int64 if weights is None else weights.dtype)
    for block, sums in blocks:
        out[0][r : r + len(sums)], out[1][r : r + len(sums)] = block, sums
        r, block, sums = r + len(sums), None, None  # the next block forms without this one
    return out


def _dot(u, v) -> int:
    """The exact sum of u * v over nonnegative int64 count arrays: in int64 where
    max(u) max(v) len(u) < 2^63 bounds every partial sum, else over Python ints."""
    if int(u.max(initial=0)) * int(v.max(initial=0)) * len(u) < 1 << 63:
        return int(np.dot(u, v))
    return int(np.dot(u.astype(object), v.astype(object)))


def _run_bytes(n: int, run: int) -> int:
    """Peak bytes of a block of runs (_run_blocks) over n sorted keys: per key of a block
    its edge and index, and the run bytes per run (at most one a key) that its reader forms:
    _runs a key and a count or sum (twice where the reader holds a block as the next forms;
    _read_runs does not), _sorted_square_sum a sum, or unweighted 1 B (its run lengths, or
    its stretches of equal neighbours, and its index each cover half a block)."""
    return (9 + run) * min(n, _RUN_BLOCK)


def _sorted_square_sum(keys, weights=None) -> int:
    """Sum of squared run lengths of sorted keys, or of squared weight sums.
    Unweighted, each block (_run_blocks) is read off the indices of the fewer
    of its R run starts and m - R equal neighbours: a run's length is the
    step to the next start, and a stretch of L adjacent equal neighbours lies
    in a run of L + 1 keys, where r^2 = r + (r - 1) r; the last run, to hi,
    starts after a last stretch reaching the m-th key."""
    total = 0
    for lo, hi, edges in _run_blocks(keys):
        m, at, runs = len(edges) - 1, None, None  # the next block's indices form without these
        if weights is not None or 2 * int(np.count_nonzero(edges)) <= m + 2:  # the closing edge starts no run
            at = np.flatnonzero(edges)
            at[-1] = hi - lo
            runs = np.diff(at) if weights is None else np.add.reduceat(weights[lo:hi], at[:-1])  # lengths or sums
            total += int(np.dot(runs, runs)) if weights is None and (hi - lo) ** 2 < 1 << 63 else _dot(runs, runs)
            continue
        at = np.flatnonzero(np.logical_not(edges, out=edges))  # 1 + each equal neighbour
        at = np.concatenate(([-2], at, [m + 1]))  # a stretch ends where the next one is not adjacent
        runs = np.diff(np.flatnonzero(at[1:] - at[:-1] != 1))  # their stretches, each at most m: int64 dots
        tail = int(runs[-1]) if at[-2] == m - 1 else 0  # the last run's equal neighbours
        last = m - 1 - tail
        total += last + len(at) - 2 - tail + int(np.dot(runs, runs)) - tail * tail + (hi - lo - last) ** 2
    return total


def quotient_histogram(H: TranslateSet) -> QuotientHistogram:
    """u -> r_{HH^-1}(u) over all |H|^2 ordered pairs h1 h2^-1, keyed by the
    arguments of its closed form (see the module docstring)."""
    return _quotient_histogram(H)


def _quotient_histogram(H: TranslateSet) -> QuotientHistogram:
    """quotient_histogram's body, which t_k(H, 3) calls directly: the
    benchmark's trace counts one quotient_histogram call per energy, t4,
    cschain and borel job."""
    p, n, item = H.p, len(H), _item_bytes(H.p, sl2=True)
    # per pair its key, next to a key block's scratch (an item and 1 B a cell) or a block of runs
    _reserve("quotient histogram", item * n * n + max((item + 1) * min(n * n, _CELLS), _run_bytes(n * n, 1)))
    a, b = _sl2_columns(H)
    keys = _write_keys(p, (a, b), (a, b), _quotient_key, depth=1)
    keys.sort()
    return QuotientHistogram(p, keys)


def _product_squares(what: str, p: int, u, v, weights=None, held: int = 0) -> int:
    """sum_g (sum_{u_i v_j = g} w_i w'_j)^2 over the products g = u_i v_j of
    the entry columns u and v, weighted by the outer product of the weight
    columns (w, w') or by 1: the keys written (_write_keys; int64 up to
    _INT64_P where weighted, for the packed sort), sorted (_sort) and their
    squared run lengths or weight sums summed (_sorted_square_sum).  The
    caller holds held bytes besides."""
    m, n, weighted = len(u[0]), len(v[0]), weights is not None
    top = int(weights[0].max(initial=0)) * int(weights[1].max(initial=0)) if weighted else 0
    cell, item = _item_bytes(p, sl2=True), _item_bytes(p, sl2=not weighted)
    # per key its item (int64 on the int32 rung where weighted), 4 B more above
    # 2^21 (the addition that forms a Python int allocates a carry digit it
    # may not fill) and, weighted, 16 B (its weight, unpacked) and 2 items
    # more where keys and weights do not pack (argsort); per row of u and of v
    # its 4 entry columns; next to a key block (2 SL2 items and 16 B a cell:
    # the scratch, int64 where weighted, and the c = 0 mask) or a block of runs
    key = item + 4 * (p > _INT64_P) + weighted * (16 + 2 * item * (p**3 * (top + 1) > 1 << 63))
    block = (2 * cell + 16) * min(m * n, _CELLS)
    _reserve(what, held + key * m * n + 4 * cell * (m + n) + max(block, _run_bytes(m * n, 8 if weighted else 1)))
    return _sorted_square_sum(*_sort(_write_keys(p, u, v, dtype=np.int64 if weighted and p <= _INT64_P else None),
                                     (weights[0][:, None] * weights[1]).reshape(-1) if weighted else None))


def _fill(H: TranslateSet, k: int) -> int:
    """T_k(H), k = 3 or 4, over all |H|^k products: the |H| inverted h3 times
    the |H|^2 pair quotients (the inverses h3^-1 h2 h1^-1 of the triples), or
    the quotients times themselves (h1 h2^-1 h3 h4^-1)."""
    p = H.p
    a, b = _sl2_columns(H)
    u = [e.ravel() for e in pair_quotient_entries(p, a[:, None], b[:, None], a, b)]
    return _product_squares(f"T{k} fill", p, inverse_embed_entries(p, a, b) if k == 3 else u, u)


def _support(H: TranslateSet, k: int, hist: QuotientHistogram) -> int:
    """T_k(H), k = 3 or 4, over the quotient support held next to it (its arguments
    and counts; the tally drops the pair keys): the |H| |Q| products h3^-1 u
    weighted by r(u), or the |Q|^2 products u v by r(u) r(v)."""
    p, u, r, item = H.p, hist.columns, hist.counts, _item_bytes(H.p, sl2=True)
    rows, w = (inverse_embed_entries(p, *_sl2_columns(H)), np.ones(len(H), dtype=np.int64)) if k == 3 else (u, r)
    return _product_squares(f"T{k} support", p, rows, u, (w, r), (3 * item + 8) * len(hist))


def t_k(H: TranslateSet, k: int) -> int:
    """T_k(H) = sum of squared representation counts of alternating
    products h1 h2^-1 h3 ... of length k, at SL2-entry equality."""
    n = len(H)
    if n == 0:
        return 0
    if k == 2:
        return _sorted_square_sum(quotient_histogram(H).keys)
    if k not in (3, 4):
        raise InvalidArgument(f"k must be 2, 3 or 4, got {k}")
    if k == 3 and n**3 <= _T3_FEW:
        return _fill(H, 3)
    hist = (_quotient_histogram if k == 3 else quotient_histogram)(H)  # see _quotient_histogram
    if (n if k == 3 else len(hist)) * len(hist) <= _QUOTIENT_ARM * n**k:  # the keys each arm writes
        with suppress(ResourceLimit):  # the fill may fit the budget where the support arm does not
            return _support(H, k, hist)
    del hist  # the fill forms without it
    return _fill(H, k)


def _sort_count(what: str, p: int, u, v, key, distinct: int, weights=None, item: int = 8, held: int = 0) -> tuple:
    """(values ascending, total weights) of the at most distinct residues
    key(p, *u_i, *v) mod p of _key_blocks, weighted by the outer product of
    the weight columns (wu, wv) or by 1: where p is at most the keys, added
    by index into one p-long int64 total, else written as int64 and counted
    by one _tally.  The caller holds held bytes besides."""
    n = len(u[0]) * len(v[0])
    # per cell of a key block 3 items as key() forms them and 1 int64 more
    # to weigh; indexed, the 8p-byte total next to a block or to two int64
    # per value; sorted, the int64 keys (and to weigh the weights and their
    # unpacked copy) next to a block or, as _tally reads the runs, to a block
    # of runs and 2 int64 per run
    weighted, runs = weights is not None, min(p, n, distinct)
    block = min(n, max(len(v[0]), _CELLS)) * (3 * item + 8 * weighted)
    if p <= n:
        _reserve(what, held + 8 * p + max(block, 16 * runs))
        total = np.zeros(p, dtype=np.int64)
        for rows, keys in _key_blocks(p, u, v, key):  # np.add.at takes a slow path on 2-d weights
            np.add.at(total, keys.reshape(-1).astype(np.int64, copy=False),
                      1 if weights is None else (weights[0][rows, None] * weights[1]).reshape(-1))
            del keys  # the next block forms without this one
        values = np.flatnonzero(total)  # every weight is positive
        return values, total[values]
    _reserve(what, held + (8 + 16 * weighted) * n + max(block, _run_bytes(n, 16) + 16 * runs))
    w = None if weights is None else (weights[0][:, None] * weights[1]).reshape(-1)
    return _tally(_write_keys(p, u, v, lambda p, out, scratch, *e: np.copyto(out, key(p, *e), casting="unsafe"),
                              np.int64, 0), w)  # key() returns a block, copied into out


def _residue_set(what: str, A: ScalarSet, B: ScalarSet, key) -> ScalarSet:
    """The set of the residues key(p, a, b) mod p over A x B (sets.sumset and
    sets.difference_set): the values of one _sort_count of int64 keys at
    every p, as a + b < 2^62.  Once their number is known, per value 8 B, a
    list and a tuple pointer and a Python int as the tuple forms (56 B a
    value measured at p = 1000003)."""
    if A.p != B.p:
        raise ModulusMismatch(f"{what} across moduli {A.p} and {B.p}")
    p = A.p
    values = _sort_count(what, p, (_array(A, np.int64),), (_array(B, np.int64),), key, len(A) * len(B))[0]
    _reserve(what, (32 + sys.getsizeof(p)) * len(values))
    return _sorted_set(p, tuple(values.tolist()))


def d_histogram(H: TranslateSet) -> tuple:
    """(d ascending, number of ordered pairs with D(h, h') = (a-a')(b-b') = d)."""
    p, n = H.p, len(H)
    a, b = _array(H).reshape(-1, 2).T
    # D(h, h') = D(h', h) and D(h, h) = 0: at most n (n - 1) / 2 + 1 values
    return _sort_count("D histogram", p, (a, b), (a, b), lambda p, a1, b1, a2, b2: _mod((a1 - a2) * (b1 - b2), p),
                       n * (n - 1) // 2 + 1, item=_item_bytes(p))


def q_rect(H: TranslateSet) -> int:
    """Rectangular quadruples Q(H): pairs of pairs at equal D, as squared masses."""
    _, r = d_histogram(H)
    return _dot(r, r)


def _differences(B: ScalarSet) -> tuple:
    """(d ascending, number of ordered pairs (x, y) of B x B with x - y = d); int64 at every p."""
    p, xs = B.p, np.array(B.elements, dtype=np.int64)
    n = len(xs)  # x - y takes at most n (n - 1) + 1 values
    return _sort_count("difference histogram", p, (xs,), (xs,), lambda p, x, y: _mod(x - y, p), n * (n - 1) + 1)


def minkowski_realisations(A: ScalarSet, lam: int) -> int:
    """Ordered pairs of A x A at Minkowski distance (x-x')^2 - (y-y')^2 = lam.

    Computed from the difference histogram r of A, summed over squares:
    with S(s) = sum_{d^2 = s} r(d), the count is sum_s S(s) S(s - lam).
    """
    p = A.p
    lam = _check_lambda(p, lam)
    d, r = _differences(A)
    # per difference d and r, and 5 int64 as its square forms and sorts (36 B
    # measured), or above 2^21 3 items of Python ints (148 B at 2^61 - 1)
    _reserve("Minkowski squares", (56 if p <= _INT64_P else 16 + 3 * _item_bytes(p)) * len(d))
    wide = d if p <= _INT64_P else d.astype(object)
    s, S = _tally(_mod(wide * wide, p).astype(np.int64, copy=False), r)
    t = _mod(s - lam, p)
    i = np.minimum(np.searchsorted(s, t), len(s) - 1)
    return _dot(S, np.where(s[i] == t, S[i], 0))


def _map_keys(p: int) -> tuple:
    """(dtype, bytes) of a richness map's keys (< p^2): uint32 while p^2 <= 2^32,
    then int64, above _INT64_P Python ints (never uint64, as int64 and uint64 make float64)."""
    if p * p <= 1 << 32:
        return np.uint32, 4
    return np.int64 if p <= _INT64_P else object, _item_bytes(p, top=p * p)


def _rich_count(blocks, k: int) -> int:
    """The number of entries of a richness map stream whose count is at least k,
    read one block at a time: the one reader of m_k and l_k."""
    return sum(int(np.count_nonzero(counts >= k)) for _, counts in blocks)


def _joined(blocks) -> tuple:
    """(keys, counts) of a whole richness map, joined from its stream: one
    copy, for the checks that compare maps entry for entry."""
    keys, counts = zip(*blocks)
    return np.concatenate(keys), np.concatenate(counts)


def _mk_columns(A: ScalarSet, lam: int):
    """The map of every translate holding >= 2 points of A x A as a stream of
    (keys a p + b ascending, richness) blocks, in O(p |A|^2): (x, y) with
    y != a lies on (a, b) exactly when b = x + c mod p, c = -lam/(y - a), so
    the counts of the |A|^2 keys of row a are its translates' richness.  Rows
    go in blocks of ascending a, each yielded once counted, its keys as
    _map_keys has them; a block's u, c and cells c + x are formed in buffers
    kept across blocks.  Where p <= |A|^2 (the only inputs rich_hyperbolae
    sends here) a block's rows of p cells are no more than its keys: one
    bincount over rows of 2p cells counts x + c < 2p by index, and folding
    each row's upper half onto its lower reduces x + c mod p.  Above that
    each block's keys are sorted and their runs read (_runs)."""
    p, n = A.p, len(A)
    rows = min(p, max(1, _CELLS // max(1, n * n)))
    index, (key_type, key), rich_type = p <= n * n, _map_keys(p), np.min_scalar_type(n)  # richness <= n
    # per cell of a block 8 B (the cells buffer), per (row, y) 40 B (u, c,
    # the inverses and the y = a fix-up's gathers) and its inverses; by index
    # per (row, b) the fold (8 B) next to the larger of the bincount's 2p
    # counts a row (16 B), with numpy's buffers for their strided halves
    # (np.getbufsize() int64 each), and the gather of the translates found
    # (a mask, an index and a count, 17 B, then a key and a richness), and
    # the block its reader holds (a key, a richness and a mask); sorted 72 B
    # a cell, its runs included
    block, item, b = 8 * rows * n * n + 40 * rows * n + _inv_bytes(p, rows * n), key + rich_type.itemsize, rows * p
    found = 8 * b + max(16 * b + 16 * min(b, np.getbufsize()), (17 + item) * b) + (item + 1) * b
    _reserve("m_k column pass", block + (found if index else 72 * rows * n * n))
    xs, inv = _array(A), _inv_vec(p)
    u, c = np.empty((2, rows, n), xs.dtype)
    cells = np.empty((rows, n, n), xs.dtype)
    fold = np.empty((rows, p), np.int64) if index else None
    for a0 in range(0, p, rows):
        m = min(rows, p - a0)
        a = np.arange(a0, a0 + m)[:, None]
        _mod(np.subtract(xs, a, out=c[:m]), p, out=u[:m])
        t = inv(u[:m])
        t *= -lam
        _mod(t, p, out=c[:m])  # over (a, y); inv(0) = 0 gives c = 0 where y = a
        if index:
            c[:m] += (a - a0) * (2 * p)  # each row's 2p counts apart
            np.add(c[:m, :, None], xs, out=cells[:m])
            t = np.bincount(cells[:m].reshape(-1), minlength=2 * p * m)
            t = t.reshape(m, 2, p)  # (row, x + c >= p, x + c mod p)
            np.add(t[:, 0], t[:, 1], out=fold[:m])
            t = None  # the gather forms without the counts
            # y = a put (a, x) on each x of A: take them off
            ya = xs[(xs >= a0) & (xs < a0 + m)] - a0
            fold[ya[:, None], xs] -= 1
            found = np.flatnonzero(fold[:m] >= 2)
            t = fold.reshape(-1)[found]
            found += a0 * p
            keys, rich = found.astype(key_type, copy=False), t.astype(rich_type)
            found = t = None  # the next block forms without these
            yield keys, rich
        else:
            np.add(c[:m, :, None], xs, out=cells[:m])
            t = _mod(cells[:m], p)
            t += (a - a0)[:, :, None] * p
            t = t[u[:m] != 0].reshape(-1)
            t.sort()
            for found, rich in _runs(t, rich_type):
                at = rich >= 2
                yield (found[at] + a0 * p).astype(key_type, copy=False), rich[at]


def _pair_map(what: str, B: ScalarSet, C: ScalarSet, curves, per_row: int, cell: int, tables):
    """The map of every curve through >= 2 points of B x C as a stream of
    (keys ascending, richness) blocks, from point pairs: the x-pairs (x1, e),
    e = x1 - x2 over B's pairs of distinct elements, go in row blocks against
    the y-pairs (y1, f), f = y1 - y2 over C x C (_key_blocks), and
    curves(p, x1, e, y1, f) gives the map keys (_map_keys) of the curves
    through each point pair as a list of arrays, at most per_row keys a row,
    with cell bytes a cell as they form; tables are the lookup tables it reads,
    built once the pass is reserved.  A curve holds at most one point per x,
    so each pair of its points keys it once.  The keys are written into one
    array sized for per_row a row, shrunk in place to the keys found, sorted
    and read off its runs (_runs); a table read turns the C(t, 2) hits of a
    t-rich curve into t."""
    p, n = B.p, len(B)
    top = n * (n - 1) // 2
    (key_type, key), rich_type = _map_keys(p), np.min_scalar_type(n)
    size = top * per_row
    # the keys, a key each up to size, next to a key block (a row of y-pairs
    # per x-pair) as curves forms it and its inverses (_inv_bytes: the
    # square-root table's cold build follows the inverses' and peaks below
    # it), or next to a block of runs: a key, its hits, its richness and a
    # mask, read and held
    cells = min(top * len(C) ** 2, max(len(C) ** 2, _CELLS))
    runs = _run_bytes(size, 2 * (key + 8 + rich_type.itemsize + 1))
    _reserve(what, key * size + max(cell * cells + _inv_bytes(p, cells), runs))
    for table in tables:
        table(p)  # built before the keys are
    xs, ys = _array(B), _array(C)
    i, j = np.triu_indices(n, 1)
    y1 = np.repeat(ys, len(ys))
    keys, r = np.empty(size, key_type), 0
    for _, found in _key_blocks(p, (xs[i], _mod(xs[i] - xs[j], p)), (y1, _mod(y1 - np.tile(ys, len(ys)), p)), curves):
        for block in found:
            keys[r : r + len(block)] = block
            r += len(block)
        found = block = None  # the next block forms without these
    keys.resize(r, refcheck=False)  # gives the unwritten tail back
    keys.sort()
    rich, t = np.zeros(top + 1, dtype=rich_type), np.arange(n + 1)
    rich[t * (t - 1) // 2] = t  # a t-rich curve has C(t, 2) hits
    for run, hits in _runs(keys):  # int64 hits index rich with no cast
        hits = rich[hits]  # read as richness: the int64 hits go before the next block forms
        yield run, hits


def _mk_pairs(A: ScalarSet, lam: int):
    """_mk_columns' stream from point pairs (_pair_map): the translates
    through (x1, y1) and (x2, y2), e = x1 - x2 != 0 and f = y1 - y2 != 0,
    solve f u^2 - e f u + lam e = 0 in u = x1 - b (discriminant
    ef(ef - 4 lam)), at most two a point pair.  Any two points of one curve
    differ in both coordinates, so no translate with t >= 2 is missed."""
    p, n = A.p, len(A)

    def translates(p, x1, e, y1, f):
        inv, sqrt = _inv_vec(p), _sqrt_vec(p)
        ef = _mod(e * f, p)
        s = sqrt(_mod(ef * (ef - 4 * lam), p))  # above -4 p^2
        inv2f = inv(_mod(2 * f, p))
        # a double root counts once; each u is nonzero, as the roots multiply to lam e / f
        return [(_mod(y1 - lam * inv(u), p) * p + _mod(x1 - u, p))[hit & (f != 0)]
                for root, hit in ((s, s >= 0), (-s, s > 0)) for u in [_mod((ef + root) * inv2f, p)]]

    # per cell 7 residues and 8 B as the roots form (63 B measured on int64)
    return _pair_map("m_k pair pass", A, A, translates, 2 * n * (n - 1), 7 * _item_bytes(p, top=p) + 8,
                     (_inv_vec, _sqrt_vec))


def rich_hyperbolae(A: ScalarSet, k: int, lam: int = -1) -> int:
    """m_k: the number of translates (a, b) whose curve (x-b)(y-a) = lam holds
    >= k points of A x A.  Two arms stream the same map of every translate's
    richness: the column arm (all p^2 translates, O(p |A|^2)) runs
    when p <= |A|^2 and p <= 2^21, the pair arm (the translates through each
    point pair, O(|A|^4 log |A|)) otherwise."""
    p = A.p
    lam = _check_lambda(p, lam)
    if k < 2:
        raise InvalidArgument(f"k must be >= 2, got {k}")
    arm = _mk_columns if p <= min(len(A) ** 2, _INT64_P) else _mk_pairs
    return _rich_count(arm(A, lam), k)


def _lines(B: ScalarSet, C: ScalarSet):
    """The map of every line y = m x + c through >= 2 points of B x C, keyed
    m p + c (_pair_map): a point pair with distinct x lies on one line, of
    slope m = f / e, the inverses of a row block's e formed once a row."""

    def line(p, x1, e, y1, f):
        m = _mod(f * _inv_vec(p)(e), p)
        return [(m * p + _mod(y1 - m * x1, p)).reshape(-1)]

    # per cell 4 items as the keys form
    return _pair_map("rich-line table", B, C, line, len(C) ** 2, 4 * _item_bytes(B.p), (_inv_vec,))


def rich_lines(B: ScalarSet, C: ScalarSet, k: int) -> int:
    """l_k: the number of affine lines holding >= k points of B x C; each
    vertical line holds the |C| points of its x."""
    if B.p != C.p:
        raise ModulusMismatch(f"moduli differ: {B.p}, {C.p}")
    if k < 2:
        raise InvalidArgument(f"k must be >= 2, got {k}")
    return _rich_count(_lines(B, C), k) + (len(B) if len(C) >= k else 0)


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
    return _sort_count("product histogram", p, (wide,), (wide,), lambda p, x, y: _mod(x * y, p), (len(d) ** 2 + 3) // 4,
                       (r, r), _item_bytes(p))


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
    # per quotient its 3 arguments (SL2 items: int32 up to 1289, Python ints
    # below p above 2^21), its count, 6 int64 as the labels form and sort
    # (the inverses, the labels, the weights, their order and both sorted),
    # its inverse and above 2^21 a label's Python int; the tally dropped the pair keys
    per, n = 3 * _item_bytes(p, sl2=True, top=p) + 56 + (p > _INT64_P) * sys.getsizeof(p), len(hist)
    _reserve("Borel coset labels", per * n + _inv_bytes(p, n))
    # label a/c = (1 + a1 w)/w = a1 + 1/w, or p for oo where c = w = 0 (which
    # inverts to 0), read off the arguments with no entry columns formed;
    # a mass is <= E(H) <= |H|^3
    labels = np.where(w == 0, p, _mod(a1 + _inv_vec(p)(w), p)).astype(np.int64, copy=False)
    labels, masses = _tally(labels, hist.counts * hist.counts)
    return labels, masses, int(masses[labels != p].max(initial=0))


def _borel_keys(H: TranslateSet):
    """The keys of the products h3^-1 h1 h2^-1, as the T_3 fill keys them, that
    lie in the Borel group B (c = 0), one per such triple.  With w = b1 - b2
    the quotient has a = 1 + a1 w and c = w, so the product has
    c = 1 + (a1 - a3) w: zero exactly when w != 0 and a3 = a1 + 1/w.  So each
    ordered pair with w != 0 joins the h3 of that a, found by binary search in
    H sorted by a: at most |H|^2 M triples, M the most translates sharing an a."""
    p, n = H.p, len(H)
    # per pair 4 items and 2 int64 as the a3 form (int64 on the SL2 rung too,
    # off the inverse table) and their runs in by_a are found, and first its
    # inverse (_inv_bytes); per triple 16 SL2 items and 5 int64 as the
    # indices, the entries and the keys form
    pair_bytes = (4 * _item_bytes(p) + 16) * n * n
    _reserve("Borel T3 join", pair_bytes + _inv_bytes(p, n * n))
    a, b = _sl2_columns(H)
    order = np.argsort(a)
    by_a = a[order]
    w = _mod(b[:, None] - b, p).ravel()  # the pair (h1, h2) at index i1 n + i2
    a3 = _mod(np.repeat(a, n) + _inv_vec(p)(w), p)
    lo = np.searchsorted(by_a, a3)
    span = np.searchsorted(by_a, a3, side="right") - lo
    span[w == 0] = 0  # inv(0) = 0 would join a3 = a1
    del w, a3
    triples = int(span.sum())
    _reserve("Borel T3 join", pair_bytes + (16 * _item_bytes(p, sl2=True) + 40) * triples)
    pair = np.repeat(np.arange(n * n), span)
    i3 = order[np.repeat(lo - np.cumsum(span) + span, span) + np.arange(triples)]
    del lo, span
    i1, i2 = np.divmod(pair, n)
    key, z = product_row_entries(p, *inverse_embed_entries(p, a[i3], b[i3])[:2],  # the top row: c = 0
                                 *pair_quotient_entries(p, a[i1], b[i1], a[i2], b[i2]))
    return np.add(np.multiply(key, p * p, out=key), z, out=key)  # (a p + c) p + b, as the fill keys it


def borel_t3_mass(H: TranslateSet) -> int:
    """Y_B: the part of T_3 carried by upper-triangular products."""
    if len(H) == 0:
        return 0
    return _sorted_square_sum(*_sort(_borel_keys(H)))


@dataclass(frozen=True)
class CsChainReport:
    """cs_chain_report's step; |Omega| and its share are computed on first read, and == compares the rest."""

    sigma: int
    lhs_sq: int
    rhs_cs: int
    delta: Fraction
    _inputs: tuple = field(repr=False, compare=False)  # A, H and the quotient histogram of H

    @cached_property
    def _omega(self) -> tuple:
        """(|Omega|, its share) by _hits over the translations (w = 0, first by
        key) and the w <= (p-1)/2 for themselves and their inverses (-w, a2,
        a1), r doubled: u takes the x in A with u(x) in A one to one to the y
        in A with u^-1(y) in A.  Its sum_u r(u) sigma_u must be rhs_cs / |A|."""
        A, H, hist = self._inputs
        p = A.p
        t, m = hist.args[0].searchsorted([1, (p + 1) // 2])
        r, w, a1, a2 = (col[:m].astype(np.int64) for col in (hist.counts, *hist.args))
        r[t:] *= 2
        xs = _array(A, np.int64)
        # u = h1 h2^-1 maps a2 to a1 and x != a2 to a1 + 1/(w + inv(x - a2)), which
        # is y != a1 in A exactly when w + inv(x - a2) = inv(y - a1) (0 is no
        # inverse, so u(x) = oo never counts).  So the rows of inverses of the
        # distinct a of H serve as poles a2 and as target rows a1, and the pole
        # oo (p), whose row is A itself, as pole and target row of the translations
        ha = np.array([*sorted({a for a, _ in H}), p], dtype=np.int64)
        pole, key = ha.searchsorted(a2), ha.searchsorted(a1)  # a's rank among the distinct a
        pole[:t] = key[:t] = len(ha) - 1  # the translations' pole and target row oo
        w[:t] = a1[:t]  # the shift: w, or a translation's a1 - a2 (a2 = 0)
        # held: per map r, a1, a2 (w is the shift), and the report's histogram
        # (per quotient a count and 3 arguments; the tally dropped the pair keys)
        held = (8 + 3 * _item_bytes(p, sl2=True, top=p)) * len(hist)
        su = _hits(p, xs, ha, pole, w, None, key, 24 * m + held)
        in_a = xs[xs[:-1].searchsorted(ha)] == ha  # a pole lies in A (oo does not)
        su += in_a[pole] & in_a[key]  # x = a2 in A maps to a1 (w != 0)
        total_rs = self.rhs_cs // len(A)
        if (rs := _dot(r, su)) != total_rs:
            raise AssertionError(f"sum_u r(u) sigma_u = {rs} by quotients, {total_rs} by preimages")
        omega = su >= -(-self.delta.numerator // self.delta.denominator)  # sigma_u >= ceil(delta)
        share = Fraction(_dot(r[omega], su[omega]), total_rs) if total_rs else Fraction(1)
        return int(np.count_nonzero(omega) + np.count_nonzero(omega[t:])), share

    omega_size = property(lambda self: self._omega[0], doc="|Omega|, computed on first read")
    omega_incidence_share = property(lambda self: self._omega[1], doc="Omega's share of sum_u r(u) sigma_u")


def _preimage_counts(A: ScalarSet, H: TranslateSet) -> tuple:
    """(z ascending, N(z), N(oo)), N(z) the number of (h, x) in H x A with
    h^-1(x) = b - inv(x - a) = z over the cells (a, b) x (x,), oo where x = a.
    A key block of H (sorted by a) forms the rows of its distinct a as _hits does:
    a cell x = a reads 2p, counts at b - 2p = b mod p, then moves, maybe leaving N(z) = 0."""
    p, xs = A.p, _array(A, np.int64)
    a, b = _array(H, np.int64).reshape(-1, 2).T

    def key(p, a, b, x):
        poles, pole = _distinct(p, a.ravel(), len(x))
        return _mod(b - _pole_rows(p, poles, x)[pole], p)

    # per cell of a key block 3 int64 as its key forms next to its pole row
    # (8 B, 17 B as it forms): 3 items of 11 B; and the block's inverses
    z, n = _sort_count("preimage counts", p, (a, b), (xs,), key, len(H) * len(A), item=11,
                       held=_inv_bytes(p, min(len(H) * len(A), max(len(A), _CELLS))))
    at_oo = b[(xs[xs[:-1].searchsorted(a)] == a)]  # the h with a in A: their cell x = a counted at b
    np.subtract.at(n, z.searchsorted(at_oo), 1)
    return z, n, len(at_oo)


def cs_chain_report(A: ScalarSet, H: TranslateSet) -> CsChainReport:
    """Replay of the first Cauchy-Schwarz step: sigma^2 <= |A| sum_u r(u) sigma_u,
    the pigeonhole level Delta = sigma^2 / (3|A||H|^2), and the share of
    the right-hand side carried by Omega = {u: sigma_u >= Delta}, read on
    demand; sum_u r(u) sigma_u counts the (h1, h2, x, y) with h2^-1(x) = h1^-1(y): sum_z N(z)^2."""
    if A.p != H.p:
        raise ModulusMismatch(f"moduli differ: {A.p}, {H.p}")
    if len(A) == 0 or len(H) == 0:
        raise EmptyInput("cs_chain_report needs nonempty A and H")
    sig = sigma(A, H, -1)
    _, n, oo = _preimage_counts(A, H)
    rhs = len(A) * (_dot(n, n) + oo * oo)
    del _, n  # the quotient histogram forms without them
    if sig * sig > rhs:
        raise AssertionError(f"Cauchy-Schwarz step fails: sigma^2 = {sig * sig} > {rhs}")
    delta = Fraction(sig * sig, 3 * len(A) * len(H) ** 2)
    return CsChainReport(sig, sig * sig, rhs, delta, (A, H, quotient_histogram(H)))
