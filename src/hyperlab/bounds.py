"""Right-hand-side evaluators for every bound in scope, and BoundReport.

Asymptotic bounds are evaluated with implicit constant 1 and tagged
"asymptotic": their ratios are trend data, never assertions.  Bounds
that hold with explicit numeric constants are tagged "exact-constant",
and a count above such a bound is a hard failure, decided in integers; the
float bound and ratio are only printed.

Regime selection uses exact integer comparisons (|H|^2 <= |A|^3 rather
than floats), so tags flip at precisely the stated thresholds.
"""

from dataclasses import dataclass

from .errors import InvalidArgument

EXACT = "exact-constant"
ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class EvalResult:
    """Evaluator output: the bound value, which case fired, and whether
    the statement's hypotheses hold for these inputs."""

    value: float
    regime: str
    applicable: bool = True


@dataclass(frozen=True)
class BoundReport:
    quantity: str
    inputs: dict
    empirical: int
    bound: float
    ratio: float
    regime: str
    exactness: str
    violated: bool


def make_report(
    quantity: str, inputs: dict, empirical: int, bound: int | float, exactness: str,
    regime: str = "", holds: bool | None = None,
) -> BoundReport:
    """An exact-constant report is violated when empirical exceeds bound,
    compared exactly: pass an int bound, or the verdict as holds where the
    bound is irrational (char-sum)."""
    if holds is None:
        holds = empirical <= bound
    bound = float(bound)
    if bound > 0:
        ratio = empirical / bound
    else:
        ratio = 0.0 if empirical == 0 else float("inf")
    return BoundReport(
        quantity=quantity,
        inputs=dict(inputs),
        empirical=empirical,
        bound=bound,
        ratio=ratio,
        regime=regime,
        exactness=exactness,
        violated=exactness == EXACT and not holds,
    )


def eval_main_theorem(card_a: int, card_h: int, m: int, which: str) -> EvalResult:
    """sigma1 / sigma2 / sigma2_cartesian main estimates.

    sigma1: |A|^{1/2}|H| + |A|^{6/5}|H|^{4/5} M1^{1/10}, M1 = M when
    |H| <= |A|^{3/2} (inclusive) else |H|^{2/11}|A|^{8/11}; sigma2 has the
    |A|^{3/4}|H| + |A|^{11/10}|H|^{17/20}(M2^{1/10} + |H|^{1/15}) shape
    with the M2 split at |H| <= |A|^{4/3}; the Cartesian variant replaces
    the parenthesis by |H|^{1/16}.
    """
    if card_a < 1 or card_h < 1 or m < 1:
        raise InvalidArgument("cardinalities and M must be >= 1")
    applicable = card_h > card_a
    if which == "sigma1":
        if card_h**2 <= card_a**3:
            m1, regime = float(m), "M1-direct"
        else:
            m1, regime = card_h ** (2 / 11) * card_a ** (8 / 11), "M1-interp"
        value = card_a**0.5 * card_h + card_a**1.2 * card_h**0.8 * m1**0.1
        return EvalResult(value, regime, applicable)
    if which in ("sigma2", "sigma2_cartesian"):
        if card_h**3 <= card_a**4:
            m2, regime = float(m), "M2-direct"
        else:
            m2, regime = card_h ** (3 / 22) * card_a ** (9 / 11), "M2-interp"
        if which == "sigma2_cartesian":
            factor, regime = card_h ** (1 / 16), "cartesian"
        else:
            factor = m2**0.1 + card_h ** (1 / 15)
        value = card_a**0.75 * card_h + card_a**1.1 * card_h**0.85 * factor
        return EvalResult(value, regime, applicable)
    raise InvalidArgument(f"unknown main-theorem variant {which!r}")


def eval_fp_extras(card_a: int, card_h: int, p: int, which: str) -> EvalResult:
    """Extra F_p term: |A|^{5/4}|H|/p^{1/4} under |A||H|^2 <= p^3, or
    |A|^{9/8}|H|/p^{1/8} under |A||H|^4 <= p^5."""
    if which == "sigma1_ext":
        valid = card_a * card_h**2 <= p**3
        return EvalResult(card_a**1.25 * card_h / p**0.25, "fp-extra-1", valid)
    if which == "sigma2_ext":
        valid = card_a * card_h**4 <= p**5
        return EvalResult(card_a**1.125 * card_h / p**0.125, "fp-extra-2", valid)
    raise InvalidArgument(f"unknown extra-term variant {which!r}")


def eval_incidence_hb(card_a: int, card_h: int, p: int) -> EvalResult:
    """|H||A|^2/p + |A|^{1/2}|H| + min(|A|^{7/5}|H|^{4/5}, p^{1/3}|A|^{4/3}|H|^{2/3})."""
    first = card_a ** 1.4 * card_h**0.8
    second = p ** (1 / 3) * card_a ** (4 / 3) * card_h ** (2 / 3)
    regime = "term-A14" if first <= second else "term-p13"
    value = card_h * card_a**2 / p + card_a**0.5 * card_h + min(first, second)
    return EvalResult(value, regime, card_h > card_a)


def eval_mk_bb(card_a: int, k: int, p: int) -> EvalResult:
    """min(|A|^7/k^5, p|A|^4/k^3); flagged applicable for k > sqrt(|A|)."""
    if k < 1:
        raise InvalidArgument(f"k must be >= 1, got {k}")
    first = card_a**7 / k**5
    second = p * card_a**4 / k**3
    regime = "branch-A7k5" if first <= second else "branch-pA4k3"
    return EvalResult(min(first, second), regime, k * k > card_a)


def eval_lines(card_a: int, k: int, p: int) -> EvalResult:
    """k-rich lines: min(p|A|^2/k^2, |A|^5/k^4) on the window 2|A|^2/p <= k <= |A|."""
    if k < 1:
        raise InvalidArgument(f"k must be >= 1, got {k}")
    first = p * card_a**2 / k**2
    second = card_a**5 / k**4
    regime = "branch-pA2k2" if first <= second else "branch-A5k4"
    valid = k > 1 and k <= card_a and k * p >= 2 * card_a**2
    return EvalResult(min(first, second), regime, valid)


def eval_t3_bounds(card_h: int, m: int, p: int, which: str) -> EvalResult:
    """lemma_t3bd: |H|^3 M^2 + case term; qstar: the rectangular-quadruple
    moment cases.  Cases split at |H| = p and |H| = p^{5/4} (integer-exact
    as |H|^4 vs p^5)."""
    if card_h**4 > p**5:
        tail, qcase, regime = card_h**5 / p, card_h**4 / p, "H-large"
    elif card_h >= p:
        tail = p ** (2 / 3) * card_h ** (11 / 3)
        qcase = p ** (2 / 3) * card_h ** (8 / 3)
        regime = "H-mid"
    else:
        tail, qcase, regime = card_h ** (13 / 3), card_h ** (10 / 3), "H-small"
    if which == "lemma_t3bd":
        return EvalResult(card_h**3 * m * m + tail, regime)
    if which == "qstar":
        return EvalResult(qcase, regime)
    raise InvalidArgument(f"unknown T3 bound variant {which!r}")


def eval_charsum(card_a: int, card_h: int, p: int) -> EvalResult:
    """|A|^2|H|/p + 2|A| sqrt(p|H|); holds with these exact constants."""
    return EvalResult(card_a**2 * card_h / p + 2 * card_a * (p * card_h) ** 0.5, "char-sum")


def charsum_holds(s: int, card_a: int, card_h: int, p: int) -> bool:
    """s <= |A|^2|H|/p + 2|A| sqrt(p|H|) in integers: with L = s p - |A|^2|H|,
    exactly when L <= 0 or L^2 <= 4 |A|^2 p^3 |H|."""
    excess = s * p - card_a**2 * card_h
    return excess <= 0 or excess * excess <= 4 * card_a**2 * p**3 * card_h


CSV_HEADER = "quantity,p,card_A,card_H,M,k,empirical,bound,ratio,regime,exactness"

_CSV_INPUT_KEYS = ("p", "card_A", "card_H", "M", "k")


def report_to_csv_row(r: BoundReport) -> str:
    cells = [r.quantity]
    for key in _CSV_INPUT_KEYS:
        v = r.inputs.get(key)
        cells.append("" if v is None else str(v))
    cells.append(str(r.empirical))
    cells.append(f"{r.bound:.12g}")
    cells.append(f"{r.ratio:.12g}")
    cells.append(r.regime)
    cells.append(r.exactness)
    return ",".join(cells)


def report_to_json_obj(r: BoundReport) -> dict:
    return {
        "quantity": r.quantity,
        "inputs": dict(r.inputs),
        "empirical": r.empirical,
        "bound": r.bound,
        "ratio": r.ratio,
        "regime": r.regime,
        "exactness": r.exactness,
    }
