"""Exact residue arithmetic in F_p for odd primes up to 2**61 - 1.

Elements are canonical Python ints in [0, p) handled through an Fp context;
Python's arbitrary-precision integers keep every intermediate product exact.
Inverses come from the built-in pow(x, -1, p) and square roots from
Tonelli-Shanks; the brute-force oracle inverts by Fermat powers instead.
"""

from functools import lru_cache

from .errors import DivisionByZero, InvalidArgument, NotAPrime

MAX_MODULUS = (1 << 61) - 1

# Sufficient witness set for deterministic Miller-Rabin below 3.3e24 (> 2**64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all word-size inputs."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """Prime modulus with exact field operations on canonical residues."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise NotAPrime(f"modulus must be an integer, got {type(p).__name__}")
        if p > MAX_MODULUS:
            raise InvalidArgument(f"modulus {p} exceeds 2**61 - 1")
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise NotAPrime(f"modulus must be an odd prime >= 3, got {p}")
        self.p = p

    def __repr__(self) -> str:
        return f"Fp({self.p})"

    def inv(self, x: int) -> int:
        """Inverse by the built-in pow(x, -1, p); x = 0 mod p raises DivisionByZero."""
        x %= self.p
        if x == 0:
            raise DivisionByZero(f"inverse of 0 mod {self.p}")
        return pow(x, -1, self.p)

    def sqrt(self, x: int) -> int | None:
        """A square root of x, or None when x is a non-residue (Tonelli-Shanks)."""
        p = self.p
        x %= p
        if x == 0:
            return 0
        if pow(x, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            return pow(x, (p + 1) // 4, p)
        # Write p - 1 = q * 2^s with q odd.
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(x, q, p), pow(x, (q + 1) // 2, p)
        while t != 1:
            t2, i = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r


@lru_cache(maxsize=None, typed=True)
def check_prime(n: int) -> Fp:
    """Validate n as an odd word-size prime and return its field context.

    Cached: one context per modulus, so callers that only hold p skip
    the primality test on repeat calls.
    """
    return Fp(n)
