"""Experiment runner.

Three subcommands:

  compute <quantity>   one instance, all applicable bounds, CSV/JSON rows
  verify  <suite>      seeded assertion corpus, per-case lines, exit 1 on failure
  scan                 a parameter family, one row per instance, worker pool

Quantities: sigma, energy, t3, t4, q, mk, lk, eplus, sumprod, minkowski,
cschain, borel.  All parameters are long flags, and each subcommand takes
only the flags it reads (any other is a usage error):

  compute       --p --lambda --A --H --k --seed --out --format
  verify        --p --seed --trials --out          (--trials at least 1)
  scan          --family --p --lambda --k --seed --workers --out --format

The set-valued flags --A and --H accept either a set-spec literal or @path
to a file with one literal per line; a path that cannot be read or decoded
as UTF-8 is a spec error.

Scan families (--family):

  ap-main       arithmetic progressions |A| in {8,16,32,64} at p 1009
                (override with --p); per size one k-rich-hyperbola row at
                k = ceil(|A|^{3/4}) and one sigma row against the A x A grid
  demo          a small fast family over p = 61
  file:PATH     whitespace-separated rows "p a_spec [h_spec]"; the scan
                quantity (positional, default sigma) applies to every row

compute and scan resolve and count an instance on one path.  A scan prints
one row per instance, the headline of the rows compute prints for it: for
sigma the sigma1 main estimate, or the Cartesian one when H is a cart: spec;
for every other quantity the first row.  A row whose instance fails (a bad
prime or spec, an unreadable @path, a budget refusal) becomes an
error:<Type> row and the scan continues.

Exit codes: 0 clean, 1 an exact-constant assertion failed, 2 usage,
spec, or budget errors (a kernel whose table would exceed HYPERLAB_BUDGET_MB
MiB, default 1536, refuses before it allocates).
"""

import argparse
import json
import math
import sys
from functools import cache

from . import bounds, counts
from .bounds import ASYMPTOTIC, EXACT, CSV_HEADER, make_report, report_to_csv_row, report_to_json_obj
from .errors import HyperlabError, InvalidArgument, InvalidSpec
from .field import Fp, check_prime
from .sets import (
    ScalarSet,
    TranslateSet,
    _file_int,
    _read_lines,
    difference_set,
    max_line_multiplicity,
    parse_setspec,
    read_scalar_file,
    read_translate_file,
    sumset,
)
from .verify import SUITES

_GROUP_QUANTITIES = {"energy", "t3", "t4", "cschain", "borel"}


def _resolve(spec: str | None, F: Fp | None, seed: int, scalar: bool):
    """The scalar (or translate) set a --A (or --H) value names, a set-spec
    literal or @path; None when the value is not given."""
    if not spec:
        return None
    if F is None:
        raise InvalidArgument("--p is required when set specs are given")
    if spec.startswith("@"):
        return read_scalar_file(spec[1:], F) if scalar else read_translate_file(spec[1:], F)
    s = parse_setspec(spec, F, default_seed=seed)
    if isinstance(s, ScalarSet) != scalar:
        want, got = ("scalar", "translate") if scalar else ("translate", "scalar")
        raise InvalidSpec(f"expected a {want} set spec, got a {got} spec: {spec!r}")
    return s


def _regime(ev: bounds.EvalResult) -> str:
    return ev.regime if ev.applicable else ev.regime + "-na"


# Each _compute_* takes the instance as keywords and returns (rows, headline):
# the report rows in print order and the one row a scan prints.


def _compute_sigma(p, A, H, lam, cart, **_):
    emp = counts.sigma(A, H, lam)
    m = max_line_multiplicity(H)
    inputs = {"p": p, "card_A": len(A), "card_H": len(H), "M": m}
    ev = bounds.eval_charsum(len(A), len(H), p)
    holds = bounds.charsum_holds(emp, len(A), len(H), p)
    rows = [make_report("sigma", inputs, emp, ev.value, EXACT, ev.regime, holds=holds)]
    for which in ("sigma1", "sigma2", "sigma2_cartesian") if cart else ("sigma1", "sigma2"):
        ev = bounds.eval_main_theorem(len(A), len(H), m, which)
        rows.append(make_report("sigma", inputs, emp, ev.value, ASYMPTOTIC, _regime(ev)))
    # the headline main estimate: the Cartesian one on a grid, sigma1 otherwise
    headline = rows[-1] if cart else rows[1]
    for which in ("sigma1_ext", "sigma2_ext"):
        ev = bounds.eval_fp_extras(len(A), len(H), p, which)
        if ev.applicable:
            rows.append(make_report("sigma", inputs, emp, ev.value, ASYMPTOTIC, ev.regime))
    ev = bounds.eval_incidence_hb(len(A), len(H), p)
    rows.append(make_report("sigma", inputs, emp, ev.value, ASYMPTOTIC, _regime(ev)))
    return rows, headline


def _compute_energy(p, H, **_):
    emp = counts.t_k(H, 2)
    m = max_line_multiplicity(H)
    inputs = {"p": p, "card_H": len(H), "M": m}
    rows = [
        make_report("energy", inputs, emp, len(H) ** 3, EXACT, "trivial-cube"),
        make_report("energy", inputs, emp, float(m * len(H) ** 2), ASYMPTOTIC, "line-mult"),
    ]
    return rows, rows[0]


def _compute_t3(p, H, **_):
    emp = counts.t_k(H, 3)
    q = counts.q_rect(H)
    m = max_line_multiplicity(H)
    inputs = {"p": p, "card_H": len(H), "M": m}
    rows = [
        make_report("t3", inputs, emp, 2 * len(H) * q + 2 * len(H) ** 4, EXACT, "quadruple-chain")
    ]
    ev = bounds.eval_t3_bounds(len(H), m, p, "lemma_t3bd")
    rows.append(make_report("t3", inputs, emp, ev.value, ASYMPTOTIC, ev.regime))
    return rows, rows[0]


def _compute_t4(p, H, **_):
    emp = counts.t_k(H, 4)
    t3 = counts.t_k(H, 3)
    inputs = {"p": p, "card_H": len(H)}
    r = make_report("t4", inputs, emp, len(H) ** 2 * t3, EXACT, "t3-chain")
    return [r], r


def _compute_q(p, H, **_):
    emp = counts.q_rect(H)
    m = max_line_multiplicity(H)
    inputs = {"p": p, "card_H": len(H), "M": m}
    ev = bounds.eval_t3_bounds(len(H), m, p, "qstar")
    r = make_report("q", inputs, emp, ev.value, ASYMPTOTIC, ev.regime)
    return [r], r


def _compute_mk(p, A, k, lam, **_):
    emp = counts.rich_hyperbolae(A, k, lam)
    inputs = {"p": p, "card_A": len(A), "k": k}
    ev = bounds.eval_mk_bb(len(A), k, p)
    r = make_report("mk", inputs, emp, ev.value, ASYMPTOTIC, _regime(ev))
    return [r], r


def _compute_lk(p, A, k, **_):
    emp = counts.rich_lines(A, A, k)
    inputs = {"p": p, "card_A": len(A), "k": k}
    ev = bounds.eval_lines(len(A), k, p)
    r = make_report("lk", inputs, emp, ev.value, ASYMPTOTIC, _regime(ev))
    return [r], r


def _compute_eplus(p, A, **_):
    emp = counts.additive_energy(A)
    inputs = {"p": p, "card_A": len(A)}
    r = make_report("eplus", inputs, emp, len(A) ** 3, EXACT, "trivial-cube")
    return [r], r


def _compute_sumprod(p, A, **_):
    inputs = {"p": p, "card_A": len(A)}
    rows = []
    for variant in (1, 2, 3, 4):
        emp = counts.sumprod_quadruples(A, variant)
        rows.append(
            make_report("sumprod", inputs, emp, len(A) ** 2.9, ASYMPTOTIC, f"form-{variant}")
        )
    return rows, rows[0]


def _compute_minkowski(p, A, lam, **_):
    emp = counts.minkowski_realisations(A, lam)
    growth = max(len(sumset(A, A)), len(difference_set(A, A)))
    doubling = growth / len(A)
    valid = growth * growth < p
    inputs = {"p": p, "card_A": len(A)}
    bound = doubling**1.2 * len(A) ** 2.9
    regime = "doubling" if valid else "doubling-na"
    r = make_report("minkowski", inputs, emp, bound, ASYMPTOTIC, regime)
    return [r], r


def _compute_cschain(p, A, H, **_):
    rep = counts.cs_chain_report(A, H)
    inputs = {"p": p, "card_A": len(A), "card_H": len(H)}
    r = make_report("cschain", inputs, rep.lhs_sq, rep.rhs_cs, EXACT, "cauchy-schwarz")
    return [r], r


def _compute_borel(p, H, **_):
    *_, xb = counts.borel_coset_mass(H)
    yb = counts.borel_t3_mass(H)
    inputs = {"p": p, "card_H": len(H)}
    rows = [
        make_report("borel", inputs, xb, len(H) ** 2, EXACT, "coset-mass"),
        make_report("borel", inputs, yb, len(H) ** 4, EXACT, "t3-mass"),
    ]
    return rows, rows[0]


# name -> (_compute_*, the flags the quantity requires besides --p)
_COMPUTE = {
    "sigma": (_compute_sigma, ("--A", "--H")),
    "energy": (_compute_energy, ("--H",)),
    "t3": (_compute_t3, ("--H",)),
    "t4": (_compute_t4, ("--H",)),
    "q": (_compute_q, ("--H",)),
    "mk": (_compute_mk, ("--A", "--k")),
    "lk": (_compute_lk, ("--A", "--k")),
    "eplus": (_compute_eplus, ("--A",)),
    "sumprod": (_compute_sumprod, ("--A",)),
    "minkowski": (_compute_minkowski, ("--A",)),
    "cschain": (_compute_cschain, ("--A", "--H")),
    "borel": (_compute_borel, ("--H",)),
}
QUANTITIES = tuple(_COMPUTE)


def _instance(quantity, p, a_spec, h_spec, k, lam, seed):
    """Resolve and count one instance, for compute and for each scan row:
    (report rows, headline row)."""
    F = None if p is None else check_prime(p)
    given = {
        "--p": p,
        "--A": _resolve(a_spec, F, seed, scalar=True),
        "--H": _resolve(h_spec, F, seed, scalar=False),
        "--k": k,
    }
    if quantity in _GROUP_QUANTITIES and p is not None and lam % p != p - 1:
        raise InvalidArgument(
            "group-structured counts require lambda = -1 (translates embed into SL2 only there)"
        )
    compute, needs = _COMPUTE[quantity]
    missing = [flag for flag in ("--p",) + needs if given[flag] is None]
    if missing:
        raise InvalidArgument(f"{quantity} requires {', '.join(missing)}")
    cart = bool(h_spec) and h_spec.startswith("cart:")
    return compute(p=p, A=given["--A"], H=given["--H"], k=k, lam=lam, cart=cart)


def _emit(rendered: list, fmt: str) -> str:
    """A report: the rendered rows as one JSON list, or under the CSV header."""
    if fmt == "json":
        return json.dumps(rendered, indent=2) + "\n"
    return "\n".join([CSV_HEADER] + rendered) + "\n"


def _write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise HyperlabError(f"cannot write {out}: {e}") from e


def cmd_compute(ns) -> int:
    reports, _ = _instance(ns.quantity, ns.p, ns.A, ns.H, ns.k, ns.lam, ns.seed)
    render = report_to_json_obj if ns.format == "json" else report_to_csv_row
    _write_output(_emit([render(r) for r in reports], ns.format), ns.out)
    bad = [r for r in reports if r.violated]
    for r in bad:
        print(
            f"violation: {r.quantity} empirical {r.empirical} above exact bound {r.bound:.12g}"
            f" ({r.regime})",
            file=sys.stderr,
        )
    return 1 if bad else 0


def cmd_verify(ns) -> int:
    if ns.trials is not None and ns.trials < 1:
        raise InvalidArgument(f"--trials must be >= 1, got {ns.trials}")
    size = {} if ns.trials is None else {"trials": ns.trials}  # unset: the suite's own default
    result = SUITES[ns.suite](seed=ns.seed, p=ns.p, **size)
    lines = list(result.case_lines)
    verdict = "PASS" if result.passed else "FAIL"
    lines.append(f"suite {result.name}: {result.cases} checks, {len(result.failures)} failures -> {verdict}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if ns.out:
        _write_output(text, ns.out)
    return 0 if result.passed else 1


# ---------------------------------------------------------------- scan

def _ap_main(seed):
    for n in (8, 16, 32, 64):
        yield "mk", f"ap:1,1,{n}", None, math.ceil(n**0.75)
        yield "sigma", f"ap:1,1,{n}", f"cart:ap:1,1,{n};ap:1,1,{n}", None


def _demo(seed):
    for n in (4, 6, 8):
        yield "sigma", f"ap:1,1,{n}", f"randomh:{2 * n},{seed + n}", None
        yield "mk", f"random:{n},{seed + n}", None, 3


# The built-in scan families: name -> (default p, the rows of a scan seed),
# each row (quantity, a_spec, h_spec, k).
_FAMILIES = {"ap-main": (1009, _ap_main), "demo": (61, _demo)}


def _scan_descs(ns):
    """Deterministic list of row descriptors for a family: the argument
    tuples of _instance, primitives only, so worker processes can receive
    them unchanged."""
    base = (ns.lam, ns.seed)
    if ns.family in _FAMILIES:
        default_p, rows = _FAMILIES[ns.family]
        p = default_p if ns.p is None else ns.p
        return [(quantity, p, a_spec, h_spec, k) + base for quantity, a_spec, h_spec, k in rows(ns.seed)]
    if not ns.family.startswith("file:"):
        raise InvalidSpec(f"unknown scan family {ns.family!r}; use {', '.join(_FAMILIES)}, or file:PATH")
    path = ns.family[5:]
    descs = []
    for ln, line in _read_lines(path):
        parts = line.split()
        if len(parts) not in (2, 3):
            raise InvalidSpec(f"{path}:{ln}: expected 'p a_spec [h_spec]', got {line!r}")
        try:
            p = _file_int(parts[0])
        except InvalidSpec:
            raise InvalidSpec(f"{path}:{ln}: bad modulus {parts[0]!r}") from None
        h_spec = parts[2] if len(parts) == 3 else None
        descs.append((ns.quantity, p, parts[1], h_spec, ns.k) + base)
    return descs


def _scan_row(desc) -> tuple:
    """The headline row of one instance as (csv_row, json_obj); a package
    error becomes an error row, so the scan continues."""
    try:
        _, r = _instance(*desc)
        return (report_to_csv_row(r), report_to_json_obj(r))
    except HyperlabError as e:
        quantity, p, _, _, k, _, _ = desc
        tag = f"error:{type(e).__name__}"
        csv_cells = [quantity, str(p), "", "", "", "" if k is None else str(k), "", "", "", tag, ""]
        obj = {
            "quantity": quantity, "inputs": {"p": p}, "empirical": None, "bound": None,
            "ratio": None, "regime": tag, "exactness": None, "detail": str(e),
        }
        return (",".join(csv_cells), obj)


def cmd_scan(ns) -> int:
    if ns.workers < 1:
        raise InvalidArgument(f"--workers must be >= 1, got {ns.workers}")
    descs = _scan_descs(ns)
    if ns.workers == 1 or len(descs) <= 1:
        rows = [_scan_row(d) for d in descs]
    else:
        from concurrent.futures import ProcessPoolExecutor  # its import costs every start about 10 ms

        with ProcessPoolExecutor(max_workers=ns.workers) as pool:
            rows = list(pool.map(_scan_row, descs))
    _write_output(_emit([obj if ns.format == "json" else csv for csv, obj in rows], ns.format), ns.out)
    return 0


def _flag_int(text: str) -> int:
    """An integer flag, read as a spec reads one: a usage error otherwise."""
    try:
        return _file_int(text)
    except InvalidSpec:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


_FLAGS = {
    "--p": dict(type=_flag_int, default=None, help="prime modulus"),
    "--lambda": dict(dest="lam", type=_flag_int, default=-1,
                     help="curve parameter in (x-b)(y-a) = lambda (default -1)"),
    "--A": dict(default=None, help="scalar set spec or @file"),
    "--H": dict(default=None, help="translate set spec or @file"),
    "--k": dict(type=_flag_int, default=None, help="richness threshold"),
    "--seed": dict(type=_flag_int, default=0, help="seed for random: specs and suites"),
    "--trials": dict(type=_flag_int, default=None, help="suite corpus size override"),
    "--workers": dict(type=_flag_int, default=1, help="scan worker processes"),
    "--out": dict(default=None, help="write the report here instead of stdout"),
    "--format": dict(choices=("csv", "json"), default="csv"),
}


def _add_flags(sp, *flags):
    for flag in flags:
        sp.add_argument(flag, **_FLAGS[flag])


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a parse keeps no state
    in it."""
    parser = argparse.ArgumentParser(
        prog="hyperlab",
        description="exact counting for points of a Cartesian grid on hyperbola translates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("compute", help="one quantity on one instance")
    sp.add_argument("quantity", choices=QUANTITIES)
    _add_flags(sp, "--p", "--lambda", "--A", "--H", "--k", "--seed", "--out", "--format")
    sp = sub.add_parser("verify", help="run an assertion suite")
    sp.add_argument("suite", choices=sorted(SUITES))
    _add_flags(sp, "--p", "--seed", "--trials", "--out")
    sp = sub.add_parser("scan", help="one report row per family instance")
    sp.add_argument("quantity", nargs="?", default="sigma", choices=QUANTITIES)
    sp.add_argument("--family", required=True, help="ap-main, demo, or file:PATH")
    _add_flags(sp, "--p", "--lambda", "--k", "--seed", "--workers", "--out", "--format")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        if ns.p is not None:
            check_prime(ns.p)  # checks --p for every subcommand
        if ns.command == "compute":
            return cmd_compute(ns)
        if ns.command == "verify":
            return cmd_verify(ns)
        return cmd_scan(ns)
    except HyperlabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
