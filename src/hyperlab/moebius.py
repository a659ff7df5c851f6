"""Moebius transformations over F_p and the translate family h(x) = a + 1/(b - x).

Two equality notions coexist on purpose.  Energy counts compare raw SL2
entries (no rescaling), because the explicit-constant lemmas are proved at
matrix level; geometric questions (same map? same Borel coset?) go through
the projective canonical form, which scales the first nonzero entry to 1.
Collapsing the two would silently change every counted quantity.
"""

from dataclasses import dataclass

from .errors import InvalidArgument, InvalidSpec, ModulusMismatch
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
        return render_map(self)


def identity_map(F: Fp) -> MoebiusMap:
    return MoebiusMap(F.p, 1, 0, 0, 1)


def embed_translate(F: Fp, h: Translate) -> MoebiusMap:
    """SL2 matrix ((-a, ab+1), (-1, b)) acting as x -> a + 1/(b - x)."""
    a, b = h
    return MoebiusMap(F.p, -a, a * b + 1, -1, b)


def compose(g: MoebiusMap, h: MoebiusMap) -> MoebiusMap:
    """Exact matrix product g*h; applies h first under evaluate."""
    if g.p != h.p:
        raise ModulusMismatch(f"compose across moduli {g.p} and {h.p}")
    return MoebiusMap(g.p, *product_entries(g.p, *g.entries, *h.entries))


def invert(m: MoebiusMap) -> MoebiusMap:
    """Adjugate ((d,-b),(-c,a)): the exact inverse on SL2, and the
    inverse up to the det scalar otherwise."""
    return MoebiusMap(m.p, m.d, -m.b, -m.c, m.a)


def canonicalize(m: MoebiusMap) -> MoebiusMap:
    """Scale so the first nonzero entry in reading order (a,b,c,d) is 1.

    Entry-equal canonical forms characterize equality as Moebius maps.
    """
    F = check_prime(m.p)
    for e in (m.a, m.b, m.c, m.d):
        if e != 0:
            s = F.inv(e)
            return MoebiusMap(m.p, m.a * s, m.b * s, m.c * s, m.d * s)
    raise AssertionError("unreachable: zero matrix passed determinant check")


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


def apply_translate(F: Fp, h: Translate, x: ProjectiveValue, lam_prime: int = 1) -> ProjectiveValue:
    """Evaluate h(x) = a + lam_prime/(b - x) without the matrix embedding.

    The matrix route only exists for lam_prime = 1 (the SL2 case); this
    scalar route serves any nonzero lam_prime.
    """
    p = F.p
    lam_prime %= p
    if lam_prime == 0:
        raise InvalidArgument("lam_prime must be nonzero")
    a, b = h
    if isinstance(x, _AtInfinity):
        return a % p
    den = (b - x) % p
    if den == 0:
        return INFINITY
    return (a + lam_prime * F.inv(den)) % p


def product_entries(p: int, a1, b1, c1, d1, a2, b2, c2, d2):
    """Entries of (a1 b1; c1 d1)(a2 b2; c2 d2) mod p, in column form: only
    + - * % enter, so the arguments may be Python ints or broadcast numpy
    arrays alike.  From residues, intermediates stay below 2 p^2."""
    return (
        (a1 * a2 + b1 * c2) % p,
        (a1 * b2 + b1 * d2) % p,
        (c1 * a2 + d1 * c2) % p,
        (c1 * b2 + d1 * d2) % p,
    )


def pair_quotient_entries(p: int, a1, b1, a2, b2):
    """Entries of h1 h2^-1, h1 = (a1, b1) and h2 = (a2, b2), in column form.

    Closed form with w1 = b1 - b2, intermediates below 2 p^2:
    ((1 + a1 w1, a1 - a2 - a1 a2 w1), (w1, 1 - a2 w1)).
    """
    w1 = b1 - b2
    return (
        (1 + a1 * w1) % p,
        (a1 - a2 - a1 * a2 % p * w1) % p,
        w1 % p,
        (1 - a2 * w1) % p,
    )


def triple_product_entries(p: int, a1, b1, a2, b2, a3, b3):
    """Entries of h1 h2^-1 h3, in column form.

    Closed form with w1 = b1 - b2, w2 = a3 - a2, ct = 1 + w1 w2:
    ((-a1 ct - w2, 1 + a1 w1 + b3 (w2 + a1 ct)), (-ct, w1 + b3 ct)); ct
    and a1 ct are reduced as they form, keeping intermediates below 3 p^2.
    """
    w1 = b1 - b2
    w2 = a3 - a2
    ct = (1 + w1 * w2) % p
    act = a1 * ct % p
    return (
        (-act - w2) % p,
        (1 + a1 * w1 + b3 * (w2 + act)) % p,
        -ct % p,
        (w1 + b3 * ct) % p,
    )


def pair_quotient(F: Fp, h1: Translate, h2: Translate) -> MoebiusMap:
    """h1 h2^-1 by the closed form of pair_quotient_entries.

    Entry-exact match with the generic compose/invert chain.
    """
    return MoebiusMap(F.p, *pair_quotient_entries(F.p, *h1, *h2))


def triple_product(F: Fp, h1: Translate, h2: Translate, h3: Translate) -> MoebiusMap:
    """h1 h2^-1 h3 by the closed form of triple_product_entries."""
    return MoebiusMap(F.p, *triple_product_entries(F.p, *h1, *h2, *h3))


def is_borel(m: MoebiusMap) -> bool:
    """Upper-triangular in the projective sense; rescaling keeps zeros."""
    return m.c == 0


def coset_label(m: MoebiusMap) -> ProjectiveValue:
    """Label of the left coset m*B of the Borel subgroup, namely m(oo).

    B stabilizes oo, so the label is constant on cosets and distinct
    across them; Borel elements themselves map to oo.
    """
    return evaluate(m, INFINITY)


def render_map(m: MoebiusMap) -> str:
    return f"[[{m.a},{m.b}],[{m.c},{m.d}]] mod {m.p}"


def parse_map(text: str) -> MoebiusMap:
    """Inverse of render_map; raises InvalidSpec on malformed input."""
    s = text.strip()
    try:
        mat, mod = s.split(" mod ")
        p = int(mod)
        inner = mat.strip()
        if not (inner.startswith("[[") and inner.endswith("]]")):
            raise ValueError
        rows = inner[2:-2].split("],[")
        if len(rows) != 2:
            raise ValueError
        a, b = (int(t) for t in rows[0].split(","))
        c, d = (int(t) for t in rows[1].split(","))
    except ValueError:
        raise InvalidSpec(f"expected '[[a,b],[c,d]] mod p', got {text!r}") from None
    check_prime(p)
    return MoebiusMap(p, a, b, c, d)
