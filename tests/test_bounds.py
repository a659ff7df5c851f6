import math

import pytest

from hyperlab import (
    ASYMPTOTIC,
    CSV_HEADER,
    EXACT,
    InvalidArgument,
    eval_charsum,
    eval_fp_extras,
    eval_incidence_hb,
    eval_lines,
    eval_main_theorem,
    eval_mk_bb,
    eval_t3_bounds,
    make_report,
    report_to_csv_row,
    report_to_json_obj,
)
from hyperlab.bounds import charsum_holds


def test_main_theorem_unit_pin():
    ev = eval_main_theorem(1, 1, 1, "sigma1")
    assert ev.value == 2.0
    assert ev.regime == "M1-direct"
    assert ev.applicable is False  # needs |H| > |A|


def test_main_theorem_regime_boundary_inclusive():
    # |H|^2 = |A|^3 exactly: 64^2 = 16^3; the direct branch must fire
    assert eval_main_theorem(16, 64, 3, "sigma1").regime == "M1-direct"
    assert eval_main_theorem(16, 65, 3, "sigma1").regime == "M1-interp"
    # sigma2 splits at |H|^3 = |A|^4: 16^3 = 8^4
    assert eval_main_theorem(8, 16, 3, "sigma2").regime == "M2-direct"
    assert eval_main_theorem(8, 17, 3, "sigma2").regime == "M2-interp"


def test_main_theorem_values():
    # |H| = 8, |A| = 4 sits in both direct branches (512 <= 256 fails for
    # sigma2, so pick |H| = 6 there)
    v = eval_main_theorem(4, 8, 2, "sigma1").value
    assert v == pytest.approx(2 * 8 + 4**1.2 * 8**0.8 * 2**0.1)
    m1 = 9 ** (2 / 11) * 4 ** (8 / 11)
    v = eval_main_theorem(4, 9, 2, "sigma1").value
    assert v == pytest.approx(2 * 9 + 4**1.2 * 9**0.8 * m1**0.1)
    v = eval_main_theorem(4, 6, 2, "sigma2").value
    assert v == pytest.approx(4**0.75 * 6 + 4**1.1 * 6**0.85 * (2**0.1 + 6 ** (1 / 15)))
    v = eval_main_theorem(4, 6, 2, "sigma2_cartesian").value
    assert v == pytest.approx(4**0.75 * 6 + 4**1.1 * 6**0.85 * 6 ** (1 / 16))
    with pytest.raises(InvalidArgument):
        eval_main_theorem(0, 9, 2, "sigma1")
    with pytest.raises(InvalidArgument):
        eval_main_theorem(4, 9, 2, "sigma9")


def test_fp_extras_validity_windows():
    # |A||H|^2 <= p^3 and |A||H|^4 <= p^5, tested at the exact edges
    assert eval_fp_extras(8, 8, 8, "sigma1_ext").applicable  # 8*64 = 512 = 8^3
    assert not eval_fp_extras(9, 8, 8, "sigma1_ext").applicable
    assert eval_fp_extras(2, 4, 4, "sigma2_ext").applicable  # 2*256 <= 1024
    assert not eval_fp_extras(5, 4, 4, "sigma2_ext").applicable
    v = eval_fp_extras(16, 10, 101, "sigma1_ext").value
    assert v == pytest.approx(16**1.25 * 10 / 101**0.25)


def test_incidence_hb_branches():
    # the min picks the smaller term and names it
    small_p = eval_incidence_hb(100, 100, 11)
    assert small_p.regime == "term-p13"
    big_p = eval_incidence_hb(100, 100, 10**9)
    assert big_p.regime == "term-A14"
    v = eval_incidence_hb(4, 9, 101)
    expected = 9 * 16 / 101 + 2 * 9 + min(4**1.4 * 9**0.8, 101 ** (1 / 3) * 4 ** (4 / 3) * 9 ** (2 / 3))
    assert v.value == pytest.approx(expected)


def test_mk_bb():
    ev = eval_mk_bb(8, 5, 1009)
    assert ev.value == pytest.approx(min(8**7 / 5**5, 1009 * 8**4 / 5**3))
    assert ev.regime == "branch-A7k5"
    assert ev.applicable  # 25 > 8
    assert not eval_mk_bb(26, 5, 1009).applicable
    with pytest.raises(InvalidArgument):
        eval_mk_bb(8, 0, 1009)


def test_lines_lk_window():
    ev = eval_lines(10, 5, 101)
    assert ev.value == pytest.approx(min(101 * 100 / 25, 10**5 / 5**4))
    assert ev.applicable  # 1 < 5 <= 10 and 5*101 >= 200
    assert not eval_lines(10, 1, 101).applicable
    assert not eval_lines(10, 11, 101).applicable
    assert not eval_lines(100, 2, 101).applicable  # 2*101 < 2*100^2


def test_t3_bounds_cases():
    # |H|^4 > p^5 : H-large; |H| >= p : H-mid; else H-small
    assert eval_t3_bounds(400, 2, 7, "lemma_t3bd").regime == "H-large"
    assert eval_t3_bounds(8, 2, 7, "lemma_t3bd").regime == "H-mid"
    assert eval_t3_bounds(6, 2, 7, "lemma_t3bd").regime == "H-small"
    ev = eval_t3_bounds(6, 2, 7, "lemma_t3bd")
    assert ev.value == pytest.approx(6**3 * 4 + 6 ** (13 / 3))
    ev = eval_t3_bounds(6, 2, 7, "qstar")
    assert ev.value == pytest.approx(6 ** (10 / 3))
    with pytest.raises(InvalidArgument):
        eval_t3_bounds(6, 2, 7, "bogus")


def test_charsum_value():
    ev = eval_charsum(2, 1, 7)
    assert ev.value == pytest.approx(4 / 7 + 4 * math.sqrt(7))
    assert ev.regime == "char-sum"


def test_make_report_ratio_and_violation():
    r = make_report("t", {"p": 7}, 10, 4.0, EXACT, "x")
    assert r.ratio == pytest.approx(2.5)
    assert r.violated
    r = make_report("t", {"p": 7}, 10, 4.0, ASYMPTOTIC, "x")
    assert not r.violated
    r = make_report("t", {"p": 7}, 0, 0.0, EXACT, "x")
    assert r.ratio == 0.0 and not r.violated
    r = make_report("t", {"p": 7}, 1, 0.0, EXACT, "x")
    assert r.ratio == float("inf") and r.violated


def test_exact_verdicts_in_integers():
    # 2^53 + 1 rounds to 2^53 as a float, so the ratio reads exactly 1.0
    r = make_report("t", {}, (1 << 53) + 1, 1 << 53, EXACT, "x")
    assert r.ratio == 1.0 and r.bound == 2.0**53
    assert r.violated
    assert not make_report("t", {}, 1 << 53, 1 << 53, EXACT, "x").violated
    assert not make_report("t", {}, (1 << 53) + 1, 1 << 53, ASYMPTOTIC, "x").violated


@pytest.mark.parametrize("a, p", [(1, 7), (3, 101), (40, 1009)])
def test_charsum_verdict_at_the_bound(a, p):
    # with |H| = p the bound |A|^2 + 2|A|p is an integer: it holds at the
    # bound and fails one above it
    bound = a * a + 2 * a * p
    assert eval_charsum(a, p, p).value == pytest.approx(bound)
    assert charsum_holds(bound, a, p, p)
    assert not charsum_holds(bound + 1, a, p, p)
    assert charsum_holds(0, a, p, p)
    for s, violated in ((bound, False), (bound + 1, True)):
        r = make_report("sigma", {}, s, bound, EXACT, "char-sum", holds=charsum_holds(s, a, p, p))
        assert r.violated is violated


def test_csv_schema():
    assert CSV_HEADER == "quantity,p,card_A,card_H,M,k,empirical,bound,ratio,regime,exactness"
    r = make_report("sigma", {"p": 7, "card_A": 2, "card_H": 1, "M": 1}, 2, 3.0, EXACT, "tag")
    row = report_to_csv_row(r)
    assert row == "sigma,7,2,1,1,,2,3,0.666666666667,tag,exact-constant"
    assert len(row.split(",")) == len(CSV_HEADER.split(","))


def test_json_object_roundtrip():
    import json

    r = make_report("q", {"p": 7, "card_H": 3}, 9, 27.0, ASYMPTOTIC, "tag")
    obj = json.loads(json.dumps(report_to_json_obj(r)))
    assert obj["quantity"] == "q"
    assert obj["empirical"] == 9
    assert obj["bound"] == 27.0
    assert obj["inputs"]["card_H"] == 3
