"""Brute-force reference counters used to certify the kernels in counts.

Deliberately naive: inverses are Fermat powers, group elements are built
by generic 2x2 matrix chains (no closed formulas), equal pairs of
products are counted from one sort (no hashing), and membership is a
linear scan.  Shared code with the kernels would defeat the purpose.

Budgets are hard errors, never silent skips.
"""

from functools import reduce
from itertools import groupby, product

from .errors import ResourceLimit
from .sets import ScalarSet, TranslateSet

_ENERGY_MAX_H = 32
_T3_MAX_H = 10  # and for t4_naive
_Q_MAX_H = 32
_MK_MAX_P = 61


def _minv(x: int, p: int) -> int:
    return pow(x, p - 2, p)


def _embed(h, p):
    a, b = h
    return ((-a) % p, (a * b + 1) % p, (-1) % p, b % p)


def _mmul(m, n, p):
    return (
        (m[0] * n[0] + m[1] * n[2]) % p,
        (m[0] * n[1] + m[1] * n[3]) % p,
        (m[2] * n[0] + m[3] * n[2]) % p,
        (m[2] * n[1] + m[3] * n[3]) % p,
    )


def _minvert(m, p):
    # generic inverse: adjugate scaled by det^-1 (Fermat), not assuming det 1
    det = (m[0] * m[3] - m[1] * m[2]) % p
    d = _minv(det, p)
    return (m[3] * d % p, -m[1] * d % p, -m[2] * d % p, m[0] * d % p)


def sigma_naive(A: ScalarSet, H: TranslateSet, lam: int = -1) -> int:
    """Definitional double loop; membership by linear scan over A."""
    p = H.p
    lam = lam % p
    elems = list(A)
    total = 0
    for a, b in H:
        for x in elems:
            if x == b:
                continue
            y = (a + lam * _minv((x - b) % p, p)) % p
            for z in elems:
                if z == y:
                    total += 1
                    break
    return total


def _equal_pairs(items: list) -> int:
    """The ordered pairs (u, v) of items with u == v, counted from one sort
    (< and == only, no hashing) as the squared lengths of its equal runs."""
    return sum(len(list(run)) ** 2 for _, run in groupby(sorted(items)))


def _chain_naive(H: TranslateSet, k: int, cap: int, what: str) -> int:
    """T_k(H): equal pairs of the |H|^k alternating products h1 h2^-1 h3 ...,
    each a chain of k generic matrix products, counted from one sort."""
    n = len(H)
    if n > cap:
        raise ResourceLimit(what, required=n, budget=cap)
    p = H.p
    mats = [_embed(h, p) for h in H]
    factors = [mats, [_minvert(m, p) for m in mats]] * 2
    return _equal_pairs([reduce(lambda m, f: _mmul(m, f, p), chain) for chain in product(*factors[:k])])


def energy_naive(H: TranslateSet) -> int:
    """E(H): equal pairs of the |H|^2 quotient products, from one sort."""
    return _chain_naive(H, 2, _ENERGY_MAX_H, "energy_naive")


def t3_naive(H: TranslateSet) -> int:
    """T_3(H): equal pairs of the |H|^3 triple products, from one sort."""
    return _chain_naive(H, 3, _T3_MAX_H, "t3_naive")


def t4_naive(H: TranslateSet) -> int:
    """T_4(H): equal pairs of the |H|^4 quadruple products, from one sort."""
    return _chain_naive(H, 4, _T3_MAX_H, "t4_naive")


def q_naive(H: TranslateSet) -> int:
    """Q(H): the quadruples with D(h1,h1') = D(h2,h2'), as equal pairs of
    the |H|^2 values D counted from one sort."""
    n = len(H)
    if n > _Q_MAX_H:
        raise ResourceLimit("q_naive", required=n, budget=_Q_MAX_H)
    p = H.p
    return _equal_pairs([(a - a2) * (b - b2) % p for a, b in H for a2, b2 in H])


def mk_exhaustive(A: ScalarSet, k: int, lam: int = -1) -> tuple:
    """The translates (a, b) counted by m_k, in order, by scanning every
    translate of F_p x F_p."""
    p = A.p
    if p > _MK_MAX_P:
        raise ResourceLimit("mk_exhaustive", required=p, budget=_MK_MAX_P)
    lam = lam % p
    elems = list(A)
    wits = []
    for a in range(p):
        for b in range(p):
            t = 0
            for x in elems:
                if x == b:
                    continue
                y = (a + lam * _minv((x - b) % p, p)) % p
                for z in elems:
                    if z == y:
                        t += 1
                        break
            if t >= k:
                wits.append((a, b))
    return tuple(wits)
