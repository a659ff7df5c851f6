import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperlab.counts as counts
import hyperlab.moebius as moebius
import hyperlab.oracle as oracle
from hyperlab import ResourceLimit, ScalarSet, TranslateSet

HD = TranslateSet(7, ((0, 0), (1, 1)))


def rand_translates(rng, p, n):
    return TranslateSet(p, tuple(divmod(v, p) for v in rng.sample(range(p * p), n)))


def test_sigma_naive_pin():
    assert oracle.sigma_naive(ScalarSet(7, (1, 6)), TranslateSet(7, ((0, 0),))) == 2


def test_energy_naive_pin():
    assert oracle.energy_naive(TranslateSet(7, ((1, 0), (2, 0)))) == 6


def test_t3_naive_pin():
    assert oracle.t3_naive(HD) == 20


def test_t4_naive_pin():
    # the compose loop of test_counts.test_t4_brute_force_tiny over HD
    assert oracle.t4_naive(HD) == 70


def test_q_naive_pin():
    assert oracle.q_naive(HD) == 8


def test_mk_exhaustive_pin():
    wits = oracle.mk_exhaustive(ScalarSet(7, (1, 6)), 2, -1)
    assert len(wits) == 3
    assert sorted(wits) == [(0, 0), (3, 4), (4, 3)]


@given(st.lists(st.integers(0, 3), max_size=40) | st.lists(st.tuples(*[st.integers(0, 1)] * 4), max_size=40))
@example([])
@settings(max_examples=200, deadline=None)
def test_equal_pairs_is_the_definition(items):
    """The one-sort count of equal pairs is the all-pairs count, on small
    ints and on 4-tuples, both heavily repeated."""
    assert oracle._equal_pairs(items) == sum(u == v for u in items for v in items)


def test_hard_budgets():
    rng = random.Random(0)
    big = rand_translates(rng, 101, 33)
    with pytest.raises(ResourceLimit):
        oracle.energy_naive(big)
    with pytest.raises(ResourceLimit):
        oracle.q_naive(big)
    with pytest.raises(ResourceLimit):
        oracle.t3_naive(rand_translates(rng, 101, 11))
    with pytest.raises(ResourceLimit):
        oracle.t4_naive(rand_translates(rng, 101, 11))
    with pytest.raises(ResourceLimit):
        oracle.mk_exhaustive(ScalarSet(67, (1, 2)), 2, -1)


def test_oracle_binds_nothing_from_the_kernels():
    """The oracles certify counts and moebius, so they hold no object of either."""
    for name, value in vars(oracle).items():
        assert value is not counts and value is not moebius, name
        assert getattr(value, "__module__", None) not in (counts.__name__, moebius.__name__), name


def test_oracles_use_fermat_inversion_not_tables():
    # the oracle path must not share the kernel's inversion tables; a quick
    # large-prime call would be impossible with an O(p) table
    p = (1 << 61) - 1
    A = ScalarSet(p, (1, p - 1))
    H = TranslateSet(p, ((0, 0),))
    assert oracle.sigma_naive(A, H) == 2
