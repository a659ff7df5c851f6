"""Exact counting kernels: incidences, energies, rectangular quadruples,
Minkowski realisations, rich curves and lines, and the Cauchy-Schwarz chain.

Every count here is an exact integer; no floating point enters.  Group
quantities (anything built from HH^-1 products) exist only for the curve
constant lambda = -1, where translates embed into SL2.  The moebius column
forms, the only copy of each SL2 closed form, give their entries as arrays;
sorting the packed keys (a p + b) p + (c if a else d), injective on SL2 as
det = 1 makes a != 0 fix d and a = 0 force bc = -1 (b fixes c), counts them
as runs.  Keys stay below p^3: int64 for p <= 2^21, Python ints above.
Every table-building kernel checks its estimated peak bytes against
HYPERLAB_BUDGET_MB (_reserve) before it allocates.

Inverses come from extended Euclid (or the O(p) table recurrence); the
brute-force reference loops in the oracle module use Fermat powers
instead, so the two routes share no arithmetic shortcuts.
"""

import os
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import EmptyInput, InvalidArgument, ModulusMismatch, ResourceLimit
from .field import check_prime
from .moebius import INFINITY, pair_quotient_entries, product_entries, triple_product_entries
from .sets import ScalarSet, TranslateSet

_INV_TABLE_MAX = 1 << 18
_SQRT_TABLE_MAX = 1 << 16
_CHUNK = 1 << 18  # array elements per enumeration chunk and per run block
_INT64_P = 1 << 21  # largest p whose keys (< p^3) and intermediates (< 3 p^2) fit int64
_OVERHEAD = 1 << 16  # bytes of frames, array headers and small objects per kernel call


@lru_cache(maxsize=8)
def _inv_table(p: int) -> list:
    # inv[i] via the classic recurrence; index 0 unused.
    inv = [0] * p
    inv[1] = 1
    for i in range(2, p):
        inv[i] = (p - p // i) * inv[p % i] % p
    return inv


def _inv_fn(p: int):
    """Callable x -> x^-1 mod p for nonzero x; table-backed for small p."""
    if p <= _INV_TABLE_MAX:
        table = _inv_table(p)
        return table.__getitem__
    return check_prime(p).inv


def _inv_vec(p: int):
    """Elementwise x^-1 mod p of an array, 0 -> 0; table-backed for small p."""
    if p <= _INV_TABLE_MAX:
        return np.array(_inv_table(p)).__getitem__
    inv = check_prime(p).inv
    return np.frompyfunc(lambda x: inv(x) if x else 0, 1, 1)


@lru_cache(maxsize=8)
def _sqrt_table(p: int) -> dict:
    # value -> smaller square root; residues only.
    roots = {}
    for x in range((p - 1) // 2, -1, -1):
        roots[x * x % p] = x
    return roots


def _sqrt_fn(p: int):
    """Callable x -> a square root of x, or None for non-residues."""
    if p <= _SQRT_TABLE_MAX:
        table = _sqrt_table(p)
        return table.get
    return check_prime(p).sqrt


def _reserve(what: str, nbytes: int) -> None:
    """Refuse a table whose estimated peak, nbytes plus a fixed overhead,
    exceeds HYPERLAB_BUDGET_MB MiB (default 1536); call before allocating."""
    raw = os.environ.get("HYPERLAB_BUDGET_MB", "1536")
    try:
        mb = int(raw)
    except ValueError:
        mb = 0
    if mb < 1:
        raise InvalidArgument(f"HYPERLAB_BUDGET_MB must be an integer >= 1, got {raw!r}")
    if nbytes + _OVERHEAD > mb << 20:
        raise ResourceLimit(
            f"{what} in bytes (HYPERLAB_BUDGET_MB={mb})", required=nbytes + _OVERHEAD, budget=mb << 20
        )


def _item_bytes(p: int) -> int:
    """Bytes per group-kernel array element: an int64, or above _INT64_P a
    pointer to a Python int no larger than a key (< p^3)."""
    return 8 if p <= _INT64_P else 8 + sys.getsizeof(p**3)


@dataclass(frozen=True)
class CountHistogram:
    """key -> positive count; total mass equals the number of enumerated tuples."""

    entries: dict

    @property
    def total_mass(self) -> int:
        return sum(self.entries.values())

    def __getitem__(self, key) -> int:
        return self.entries.get(key, 0)

    def __len__(self) -> int:
        return len(self.entries)


class _Sl2Histogram(CountHistogram):
    """Entry columns of each distinct SL2 element, in key order, and their
    counts, as arrays; the entry-tuple dict is built when read."""

    def __init__(self, columns: tuple, counts):
        self.__dict__.update(columns=columns, counts=counts)

    @cached_property
    def entries(self) -> dict:
        return dict(zip(zip(*(c.tolist() for c in self.columns)), self.counts.tolist()))

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class RichCount:
    k: int
    count: int
    witnesses: tuple | None = None


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


def _require_group_lambda(p: int, lam: int):
    if lam % p != p - 1:
        raise InvalidArgument(
            "group-structured counts require lambda = -1 (translates embed into SL2 only there)"
        )


def sigma_rect(B: ScalarSet, C: ScalarSet, H: TranslateSet, lam: int = -1) -> int:
    """Incidences (h, x) with x in B and h(x) in C, poles contributing 0."""
    if not (B.p == C.p == H.p):
        raise ModulusMismatch(f"moduli differ: {B.p}, {C.p}, {H.p}")
    p = H.p
    lam = _check_lambda(p, lam)
    if len(B) == 0 or len(C) == 0 or len(H) == 0:
        return 0
    inv = _inv_fn(p)
    members = C.members
    xs = B.elements
    total = 0
    for a, b in H:
        for x in xs:
            if x == b:
                continue
            # curve form: (x - b)(y - a) = lam
            if (a + lam * inv((x - b) % p)) % p in members:
                total += 1
    return total


def sigma(A: ScalarSet, H: TranslateSet, lam: int = -1) -> int:
    """sigma(A, H) = number of points of A x A on translates in H."""
    return sigma_rect(A, A, H, lam)


def _columns(H: TranslateSet) -> tuple:
    hh = np.array(H.elements, dtype=np.int64 if H.p <= _INT64_P else object).reshape(-1, 2)
    return hh[:, 0], hh[:, 1]


def _key(p: int, a, b, c, d):
    """Injective packed key of SL2 entry arrays (see the module docstring)."""
    return (a * p + b) * p + np.where(a == 0, d, c)


def _tally(keys, weights):
    """(index of one occurrence, total weight) of each distinct key, in key order."""
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.flatnonzero(np.concatenate(([len(keys) > 0], ordered[1:] != ordered[:-1])))
    return order[starts], np.add.reduceat(weights[order], starts)


def _sorted_square_sum(keys, p: int, borel: bool = False) -> int:
    """Sum of squared run lengths of sorted keys, over Borel keys (c = 0)
    only if asked, block by block: the j-th key of a run adds 2j + 1."""
    total = start = 0
    for i in range(0, len(keys), _CHUNK):
        block = keys[i : i + _CHUNK]
        idx = np.arange(i, i + len(block))
        new = np.concatenate(([i == 0 or block[0] != keys[i - 1]], block[1:] != block[:-1]))
        starts = np.maximum.accumulate(np.where(new, idx, start))
        start = int(starts[-1])
        terms = 2 * (idx - starts) + 1
        if borel:  # c = 0 needs a != 0, so the key ends in c
            terms = terms[(block % p == 0) & (block >= p * p)]
        total += int(terms.sum())  # below 2 _CHUNK len(keys) within a block
    return total


def quotient_histogram(H: TranslateSet) -> CountHistogram:
    """u -> r_{HH^-1}(u) over all |H|^2 ordered pairs, keyed by the SL2
    entry tuple of the pair quotient."""
    # 12 arrays of |H|^2 items at the tally (96 B per pair at int64, measured)
    _reserve("quotient histogram", 13 * len(H) ** 2 * _item_bytes(H.p))
    a, b = _columns(H)
    cols = [e.ravel() for e in pair_quotient_entries(H.p, a[:, None], b[:, None], a, b)]
    first, counts = _tally(_key(H.p, *cols), np.ones(len(cols[0]), dtype=np.int64))
    return _Sl2Histogram(tuple(e[first] for e in cols), counts)


def _t3_keys(H: TranslateSet):
    """Sorted keys of all |H|^3 products h1 h2^-1 h3, filled in chunks over h1."""
    n = len(H)
    # the keys, plus 8 items per element of the larger of a fill chunk
    # (57 B at int64, measured) and a _sorted_square_sum block (34 B)
    chunk = max(n * n, min(n**3, _CHUNK))
    _reserve("T3 key array", (n**3 + 8 * chunk) * _item_bytes(H.p))
    a, b = _columns(H)
    keys = np.empty(n**3, dtype=a.dtype)
    rows = max(1, _CHUNK // (n * n))
    for i in range(0, n, rows):
        h1 = (a[i : i + rows, None, None], b[i : i + rows, None, None])
        keys.reshape(n, n, n)[i : i + rows] = _key(
            H.p, *triple_product_entries(H.p, *h1, a[:, None], b[:, None], a, b)
        )
    keys.sort()
    return keys


def t_k(H: TranslateSet, k: int) -> int:
    """T_k(H) = sum of squared representation counts of alternating
    products h1 h2^-1 h3 ... of length k, at SL2-entry equality."""
    if len(H) == 0:
        return 0
    if k == 2:
        return sum(v * v for v in quotient_histogram(H).counts.tolist())
    if k == 3:
        return _sorted_square_sum(_t3_keys(H), H.p)
    if k == 4:
        q2 = quotient_histogram(H)
        # 9 items per product of the support (63 B at int64, measured)
        _reserve("T4 self-convolution", 9 * len(q2) ** 2 * _item_bytes(H.p))
        keys = _key(H.p, *product_entries(H.p, *(e[:, None] for e in q2.columns), *q2.columns))
        # a weight sum is at most |H|^4; r(u) <= |H| makes the support at
        # least |H|, so the reservation admits |H|^4 >= 2^63 only on a budget
        # of 2^31.5 * 72 B (about 204 GiB) or more
        _, sums = _tally(keys.reshape(-1), (q2.counts[:, None] * q2.counts).reshape(-1))
        return sum(v * v for v in sums.tolist())
    raise InvalidArgument(f"k must be 2, 3 or 4, got {k}")


def d_histogram(H: TranslateSet) -> CountHistogram:
    """d -> number of ordered pairs with D(h, h') = (a-a')(b-b') = d."""
    p = H.p
    hh = H.elements
    acc = Counter()
    for a1, b1 in hh:
        for a2, b2 in hh:
            acc[(a1 - a2) * (b1 - b2) % p] += 1
    return CountHistogram(dict(acc))


def q_rect(H: TranslateSet) -> int:
    """Rectangular quadruples Q(H): pairs of pairs at equal D, as squared masses."""
    return sum(v * v for v in d_histogram(H).entries.values())


def minkowski_grid(A: ScalarSet) -> TranslateSet:
    """The 45-degree image {(x+y, x-y): (x,y) in A x A}; D on it is the
    Minkowski distance on A x A."""
    p = A.p
    return TranslateSet(p, tuple(((x + y) % p, (x - y) % p) for x in A for y in A))


def minkowski_realisations(A: ScalarSet, lam: int) -> int:
    """Ordered pairs of A x A at Minkowski distance (x-x')^2 - (y-y')^2 = lam.

    Computed from the difference histogram of A: sum over dx of
    r(dx) * sum_{dy^2 = dx^2 - lam} r(dy).
    """
    p = A.p
    lam = _check_lambda(p, lam)
    r = Counter((x - y) % p for x in A for y in A)
    sqrt = _sqrt_fn(p)
    total = 0
    for dx, cx in r.items():
        t = (dx * dx - lam) % p
        if t == 0:
            total += cx * r.get(0, 0)
            continue
        s = sqrt(t)
        if s is not None:
            total += cx * (r.get(s, 0) + r.get(p - s, 0))
    return total


def rich_hyperbolae(
    A: ScalarSet,
    k: int,
    lam: int = -1,
    mode: str = "pairs",
    within: TranslateSet | None = None,
) -> RichCount:
    """m_k: translates (a, b) whose curve (x-b)(y-a) = lam holds >= k
    points of A x A.

    pairs mode solves, per point pair of A x A with distinct coordinates,
    the quadratic for candidate translates; a t-rich translate then shows
    up exactly C(t,2) times.  exhaustive mode scans all p^2 translates.
    Any two distinct points of one curve differ in both coordinates, so
    the pair enumeration misses nothing with t >= 2.
    """
    p = A.p
    lam = _check_lambda(p, lam)
    if mode == "pairs":
        if k < 2:
            raise InvalidArgument("pairs mode needs k >= 2 (translates are found through point pairs)")
        hits = _pair_hits(A, lam)
        thr = k * (k - 1) // 2
        selected = [key for key, c in hits.items() if c >= thr]
        if within is not None:
            wm = within.members
            selected = [key for key in selected if divmod(key, p) in wm]
        wits = tuple(sorted(divmod(key, p) for key in selected))
        return RichCount(k=k, count=len(selected), witnesses=wits)
    if mode == "exhaustive":
        if k < 1:
            raise InvalidArgument(f"k must be >= 1, got {k}")
        # a witness per cell at most: its tuple, ints and list slots (79 B, measured)
        _reserve("exhaustive translate scan", 128 * (len(within) if within is not None else p * p))
        inv = _inv_fn(p)
        members = A.members
        xs = A.elements
        translates = within.elements if within is not None else (
            (a, b) for a in range(p) for b in range(p)
        )
        wits = []
        for a, b in translates:
            t = 0
            for x in xs:
                if x == b:
                    continue
                if (a + lam * inv((x - b) % p)) % p in members:
                    t += 1
            if t >= k:
                wits.append((a, b))
        return RichCount(k=k, count=len(wits), witnesses=tuple(sorted(wits)))
    raise InvalidArgument(f"mode must be 'pairs' or 'exhaustive', got {mode!r}")


def _pair_hits(A: ScalarSet, lam: int) -> Counter:
    # key a*p + b -> number of unordered curve-point pairs; equals C(t,2)
    # for a t-rich translate.
    p = A.p
    xs = A.elements
    n = len(xs)
    # a dict entry per translate hit, plus its witness tuple in
    # rich_hyperbolae (up to 222 B together, measured); at most n(n-1)/2
    # x-pairs times n(n-1) y-pairs times 2 roots hit
    _reserve("pair-hit table", 256 * min(n * n * (n - 1) ** 2, p * p))
    inv = _inv_fn(p)
    sqrt = _sqrt_fn(p)
    hits = Counter()
    for i in range(n):
        x1 = xs[i]
        for j in range(i + 1, n):
            e = (x1 - xs[j]) % p
            # For P = (x1, y1), Q = (x2, y2) with f = y1 - y2 != 0, the
            # translates through both points solve f*u^2 - ef*u + lam*e = 0
            # in u = x1 - b; discriminant ef(ef - 4 lam).
            cache = {}
            for y1 in xs:
                for y2 in xs:
                    f = (y1 - y2) % p
                    if f == 0:
                        continue
                    roots = cache.get(f)
                    if roots is None:
                        ef = e * f % p
                        disc = ef * (ef - 4 * lam) % p
                        s = sqrt(disc)
                        roots = []
                        if s is not None:
                            inv2f = inv(2 * f % p)
                            for ss in ((s, p - s) if s else (0,)):
                                u = (ef + ss) * inv2f % p
                                # b = x1 - u; a = y1 - lam/u; u != 0 since
                                # the root product lam*e/f is nonzero.
                                roots.append(((x1 - u) % p, lam * inv(u) % p))
                        cache[f] = roots
                    for b, ca in roots:
                        hits[((y1 - ca) % p) * p + b] += 1
    return hits


def rich_lines(
    B: ScalarSet, C: ScalarSet, k: int, include_axis_parallel: bool = True
) -> RichCount:
    """l_k: affine lines (vertical included) holding >= k points of B x C,
    by pair-slope bucketing."""
    if B.p != C.p:
        raise ModulusMismatch(f"moduli differ: {B.p}, {C.p}")
    if k < 2:
        raise InvalidArgument(f"k must be >= 2, got {k}")
    p = B.p
    n = len(B) * len(C)
    # a dict entry per line (up to 193 B with its key tuple, measured) and per point
    _reserve("rich-line table", 256 * (min(n * (n - 1) // 2, p * p + p) + n))
    inv = _inv_fn(p)
    pts = [(x, y) for x in B for y in C]
    hits = Counter()
    for i in range(len(pts)):
        x1, y1 = pts[i]
        for j in range(i + 1, len(pts)):
            x2, y2 = pts[j]
            if x1 == x2:
                hits[("v", x1)] += 1
            else:
                m = (y2 - y1) * inv((x2 - x1) % p) % p
                hits[("s", m, (y1 - m * x1) % p)] += 1
    thr = k * (k - 1) // 2
    selected = [key for key, c in hits.items() if c >= thr]
    if not include_axis_parallel:
        selected = [key for key in selected if key[0] != "v" and key[1] != 0]
    return RichCount(k=k, count=len(selected), witnesses=tuple(sorted(selected)))


def additive_energy(B: ScalarSet) -> int:
    """E_+(B): quadruples with b1 - b2 = b3 - b4."""
    p = B.p
    r = Counter((x - y) % p for x in B for y in B)
    return sum(v * v for v in r.values())


def product_rep_histogram(B: ScalarSet) -> CountHistogram:
    """x -> r_{(B-B)(B-B)}(x), products of differences with multiplicity."""
    p = B.p
    r = Counter((x - y) % p for x in B for y in B)
    items = list(r.items())
    acc = Counter()
    for d1, c1 in items:
        for d2, c2 in items:
            acc[d1 * d2 % p] += c1 * c2
    return CountHistogram(dict(acc))


def product_rep_energy(B: ScalarSet) -> int:
    """sum_x r^2_{(B-B)(B-B)}(x)."""
    return sum(v * v for v in product_rep_histogram(B).entries.values())


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
    shape = _SUMPROD_FACTORS[variant]
    p = A.p
    inv = _inv_fn(p)
    members = A.members
    xs = A.elements
    total = 0
    for a2 in xs:
        for a4 in xs:
            c1, c2 = shape(a2, a4, p)
            for a1 in xs:
                u = (a1 + c1) % p
                if u and (inv(u) - c2) % p in members:
                    total += 1
    return total


def borel_coset_mass(H: TranslateSet) -> tuple[CountHistogram, int]:
    """Bucket squared quotient masses by left Borel coset.

    Returns (label -> sum of r^2 over the coset, max over finite labels).
    The label is u(oo); Borel elements collect under the INFINITY key.
    """
    hist = quotient_histogram(H)
    a, _, c, _ = hist.columns
    # label a/c, or p for oo (c = 0 inverts to 0); a mass is <= E(H) <= |H|^3
    labels = np.where(c == 0, H.p, a * _inv_vec(H.p)(c) % H.p)
    first, mass = _tally(labels, hist.counts * hist.counts)
    masses = {INFINITY if k == H.p else k: v for k, v in zip(labels[first].tolist(), mass.tolist())}
    return CountHistogram(masses), max((v for k, v in masses.items() if k is not INFINITY), default=0)


def borel_t3_mass(H: TranslateSet) -> int:
    """Y_B: the part of T_3 carried by upper-triangular products."""
    if len(H) == 0:
        return 0
    return _sorted_square_sum(_t3_keys(H), H.p, borel=True)


def energy_borel_split(H: TranslateSet) -> tuple[int, int]:
    """E(H) split into (Borel-supported, rest) by quotient key."""
    hist = quotient_histogram(H)
    borel = hist.columns[2] == 0
    return tuple(sum(v * v for v in hist.counts[part].tolist()) for part in (borel, ~borel))


def energy_system_counts(H: TranslateSet) -> tuple[int, int]:
    """Solution counts of the two coordinate systems associated with E(H).

    N1 keys pairs by (a1, a2, b1-b2), N2 by (b1, b2, a1-a2).  Neither is
    asserted equal to E(H); they are reported side by side.
    """
    p = H.p
    hh = H.elements
    n1 = Counter()
    n2 = Counter()
    for a1, b1 in hh:
        for a2, b2 in hh:
            n1[(a1, a2, (b1 - b2) % p)] += 1
            n2[(b1, b2, (a1 - a2) % p)] += 1
    return (sum(v * v for v in n1.values()), sum(v * v for v in n2.values()))


def cs_chain_report(A: ScalarSet, H: TranslateSet, lam: int = -1) -> CsChainReport:
    """Replay of the first Cauchy-Schwarz step: sigma^2 <= |A| sum_u r(u) sigma_u,
    the pigeonhole level Delta = sigma^2 / (3|A||H|^2), and the share of
    the right-hand side carried by Omega = {u: sigma_u >= Delta}."""
    if A.p != H.p:
        raise ModulusMismatch(f"moduli differ: {A.p}, {H.p}")
    if len(A) == 0 or len(H) == 0:
        raise EmptyInput("cs_chain_report needs nonempty A and H")
    p = A.p
    _require_group_lambda(p, lam)
    sig = sigma(A, H, -1)
    hist = quotient_histogram(H)
    a, b, c, d = (col[:, None] for col in hist.columns)
    xs = np.array(A.elements, dtype=a.dtype)
    inv = _inv_vec(p)
    su = np.empty(len(hist), dtype=np.int64)
    rows = max(1, _CHUNK // len(xs))
    for i in range(0, len(su), rows):
        s = slice(i, i + rows)
        den = (c[s] * xs + d[s]) % p
        y = (a[s] * xs + b[s]) % p * inv(den) % p
        # den = 0 puts u(x) at oo, never in A (y reads 0 there)
        su[s] = ((den != 0) & np.isin(y, xs)).sum(axis=1)
    rs = hist.counts * su  # r(u) sigma_u <= |H| |A|
    total_rs = sum(rs.tolist())
    rhs = len(A) * total_rs
    if sig * sig > rhs:
        raise AssertionError(f"Cauchy-Schwarz step fails: sigma^2 = {sig * sig} > {rhs}")
    delta = Fraction(sig * sig, 3 * len(A) * len(H) ** 2)
    omega = su >= -(-delta.numerator // delta.denominator)  # sigma_u >= ceil(delta)
    share = Fraction(sum(rs[omega].tolist()), total_rs) if total_rs else Fraction(1)
    return CsChainReport(
        sigma=sig,
        lhs_sq=sig * sig,
        rhs_cs=rhs,
        delta=delta,
        omega_size=int(np.count_nonzero(omega)),
        omega_incidence_share=share,
    )
