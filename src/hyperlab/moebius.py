"""Moebius transformations over F_p and the translate family h(x) = a + 1/(b - x).

Maps are equal here when their SL2 entries are, with no rescaling: the
explicit-constant lemmas are proved at matrix level, so every energy count
keys a product by its exact entries.  Scalar multiples of one matrix are the
same map on the projective line yet count as distinct.  The one projective
notion in use is the left Borel coset of u, labelled u(oo) = a/c (oo when
c = 0), which counts.borel_coset_mass computes on arrays of the pair
quotients' closed-form arguments (a1 + 1/w).

The SL2 closed forms are six column forms: the generic product
(product_entries), built from the product of a row and a matrix
(product_row_entries), and its key (product_key_entries, written in place
into an array), the translate embedding (embed_entries) and its inverse
(inverse_embed_entries), and the pair quotient h1 h2^-1
(pair_quotient_entries).  All but the key take Python ints or broadcast
numpy arrays alike, so the scalar maps here and the array kernels of counts
share one copy of each; the inverse of a triple h1 h2^-1 h3 is the product
of an inverted embedding h3^-1 and a pair quotient h2 h1^-1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, ModulusMismatch
from .field import Fp, check_prime


class _AtInfinity:
    """Unique sentinel for the extra point of the projective line."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "oo"


INFINITY = _AtInfinity()

# A projective value is a canonical residue in [0, p) or the INFINITY sentinel.
ProjectiveValue = int | _AtInfinity

# A translate is the plain pair (a, b) of canonical residues.
Translate = tuple[int, int]


@dataclass(frozen=True)
class MoebiusMap:
    """2x2 matrix (a b; c d) over F_p with nonzero determinant.

    Entries are normalized to canonical residues but never rescaled:
    the object remembers the exact matrix it was built from.
    """

    p: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        p = self.p
        object.__setattr__(self, "a", self.a % p)
        object.__setattr__(self, "b", self.b % p)
        object.__setattr__(self, "c", self.c % p)
        object.__setattr__(self, "d", self.d % p)
        if (self.a * self.d - self.b * self.c) % p == 0:
            raise InvalidArgument(
                f"singular matrix [[{self.a},{self.b}],[{self.c},{self.d}]] mod {p}"
            )

    @property
    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.p

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]] mod {self.p}"


def embed_translate(F: Fp, h: Translate) -> MoebiusMap:
    """SL2 matrix ((-a, ab+1), (-1, b)) acting as x -> a + 1/(b - x)."""
    return MoebiusMap(F.p, *embed_entries(F.p, *h))


def compose(g: MoebiusMap, h: MoebiusMap) -> MoebiusMap:
    """Exact matrix product g*h; applies h first under evaluate."""
    if g.p != h.p:
        raise ModulusMismatch(f"compose across moduli {g.p} and {h.p}")
    return MoebiusMap(g.p, *product_entries(g.p, *g.entries, *h.entries))


def invert(m: MoebiusMap) -> MoebiusMap:
    """Adjugate ((d,-b),(-c,a)): the exact inverse on SL2, and the
    inverse up to the det scalar otherwise."""
    return MoebiusMap(m.p, m.d, -m.b, -m.c, m.a)


def evaluate(m: MoebiusMap, x: ProjectiveValue) -> ProjectiveValue:
    """Action on the projective line, infinity handled by its own chart."""
    F = check_prime(m.p)
    if isinstance(x, _AtInfinity):
        if m.c == 0:
            return INFINITY
        return m.a * F.inv(m.c) % m.p
    x %= m.p
    den = (m.c * x + m.d) % m.p
    if den == 0:
        return INFINITY
    return (m.a * x + m.b) * F.inv(den) % m.p


def _mod(x, p: int, out=None):
    """x mod p in [0, p) for a Python int, an int64 array or an object array,
    into out (an array other than x) where given.

    Written x - (x // p) p in place: numpy's x // p by a scalar divides
    through libdivide, several times cheaper than x % p on int64 (more so
    for negative x), and the in-place steps hold no third temporary."""
    r = x // p if out is None else np.floor_divide(x, p, out=out)
    r *= -p
    r += x
    return r


def product_row_entries(p: int, a1, b1, a2, b2, c2, d2):
    """Entries of the row (a1 b1) times (a2 b2; c2 d2) mod p, in column form:
    only + - * and _mod enter, so the arguments may be Python ints or
    broadcast numpy arrays alike.  From residues, intermediates stay below 2 p^2."""
    return _mod(a1 * a2 + b1 * c2, p), _mod(a1 * b2 + b1 * d2, p)


def product_entries(p: int, a1, b1, c1, d1, a2, b2, c2, d2):
    """Entries of (a1 b1; c1 d1)(a2 b2; c2 d2) mod p, in column form: each
    row by product_row_entries."""
    return (*product_row_entries(p, a1, b1, a2, b2, c2, d2), *product_row_entries(p, c1, d1, a2, b2, c2, d2))


def product_key_entries(p: int, out, scratch, a1, b1, c1, d1, a2, b2, c2, d2):
    """The key (a p + c) p + z of (a1 b1; c1 d1)(a2 b2; c2 d2) mod p, written into
    out in place with two scratch arrays of its shape, and returned: the first
    column, then z = d, or b where c = 0 (its two products written there by
    masked multiplies, no cell index formed).
    Injective on SL2, as det = 1 fixes b from (a, c, d) where c != 0,
    and d = 1/a where c = 0.  Each entry joins the key reduced: it stays below
    p^3 (int32 up to 1289)."""
    s, t = scratch
    for i, (x1, y1, x2, y2) in enumerate(((a1, a2, b1, c2), (c1, a2, d1, c2), (c1, b2, d1, d2))):
        np.multiply(x1, y1, out=s)
        if i < 2:
            s += x2 * y2 if np.broadcast(x2, y2).size < s.size else np.multiply(x2, y2, out=t)  # a row: no block
        else:  # z = b = a1 b2 + b1 d2 where c = 0 (t holds c)
            zero = t == 0
            np.multiply(a1, b2, out=s, where=zero)
            s += np.multiply(b1, d2, out=np.multiply(x2, y2, out=t), where=zero)
        r = _mod(s, p, out=t if i else out)
        if i:
            out *= p
            out += r
    return out


def embed_entries(p: int, a, b):
    """Entries (-a, ab + 1, -1, b) mod p of the translate (a, b), in column
    form; c = p - 1 is a scalar, which broadcasts against the other columns."""
    return _mod(-a, p), _mod(a * b + 1, p), p - 1, _mod(b, p)


def inverse_embed_entries(p: int, a, b):
    """Entries (b, -(ab + 1), 1, -a) mod p of h^-1 for the translate h = (a, b):
    the adjugate of embed_entries, in column form; c = 1 is a scalar."""
    return _mod(b, p), _mod(-1 - a * b, p), 1, _mod(-a, p)


def pair_quotient_entries(p: int, a1, b1, a2, b2):
    """Entries of h1 h2^-1, h1 = (a1, b1) and h2 = (a2, b2), in column form.

    Closed form with w1 = b1 - b2, intermediates below 2 p^2:
    ((1 + a1 w1, a1 - a2 - a1 a2 w1), (w1, 1 - a2 w1)).
    """
    w1 = b1 - b2
    return (
        _mod(1 + a1 * w1, p),
        _mod(a1 - a2 - _mod(a1 * a2, p) * w1, p),
        _mod(w1, p),
        _mod(1 - a2 * w1, p),
    )


def pair_quotient(F: Fp, h1: Translate, h2: Translate) -> MoebiusMap:
    """h1 h2^-1 by the closed form of pair_quotient_entries.

    Entry-exact match with the generic compose/invert chain.
    """
    return MoebiusMap(F.p, *pair_quotient_entries(F.p, *h1, *h2))

