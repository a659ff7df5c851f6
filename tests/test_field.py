import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import MAX_MODULUS, DivisionByZero, Fp, InvalidArgument, NotAPrime, check_prime, is_prime

PRIMES = [3, 5, 7, 61, 101, 499, 1009, (1 << 31) - 1, (1 << 61) - 1]


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_word_size():
    assert is_prime((1 << 61) - 1)
    assert not is_prime((1 << 61) - 3)
    # strong pseudoprime to several small bases
    assert not is_prime(3215031751)


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 1_000_000])
def test_rejects_non_odd_primes(bad):
    with pytest.raises(NotAPrime):
        Fp(bad)


def test_rejects_non_integer_and_oversize():
    with pytest.raises(NotAPrime):
        Fp("7")
    with pytest.raises(InvalidArgument):
        Fp(MAX_MODULUS + 2)


def test_check_prime_returns_context():
    F = check_prime(101)
    assert isinstance(F, Fp) and F.p == 101


def test_inverse_pin():
    assert Fp(7).inv(3) == 5
    with pytest.raises(DivisionByZero):
        Fp(7).inv(0)
    with pytest.raises(DivisionByZero):
        Fp(7).inv(14)


@pytest.mark.parametrize("p", [7, 1009, (1 << 61) - 1])
def test_inverse_of_negatives_and_multiples_of_p(p):
    F = Fp(p)
    for x in (-1, -2, -p - 3, 3 - 5 * p):
        assert F.inv(x) == F.inv(x % p) and x * F.inv(x) % p == 1
    assert F.inv(-1) == p - 1
    for x in (p, -p, 7 * p, -(p * p)):
        with pytest.raises(DivisionByZero):
            F.inv(x)


@given(st.sampled_from(PRIMES), st.integers(min_value=1, max_value=1 << 61))
@settings(max_examples=200, deadline=None)
def test_inverse_property(p, x):
    F = Fp(p)
    x %= p
    if x == 0:
        return
    assert x * F.inv(x) % p == 1


def test_square_classification():
    F = Fp(7)
    assert F.sqrt(0) == 0  # 0 = 0^2 counts as a square here
    squares = {x * x % 7 for x in range(7)}
    for x in range(7):
        assert (F.sqrt(x) is not None) == (x in squares)


@given(st.sampled_from(PRIMES), st.integers(min_value=0, max_value=1 << 61))
@settings(max_examples=200, deadline=None)
def test_sqrt_roundtrip(p, x):
    F = Fp(p)
    x %= p
    r = F.sqrt(x)
    if x == 0 or pow(x, (p - 1) // 2, p) == 1:  # Euler's criterion
        assert r is not None and r * r % p == x
    else:
        assert r is None


def test_sqrt_on_mersenne_prime():
    # p = 3 mod 4 branch at word size
    p = (1 << 61) - 1
    F = Fp(p)
    x = 123456789123456789 % p
    sq = x * x % p
    r = F.sqrt(sq)
    assert r in (x, p - x)
