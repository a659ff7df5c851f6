"""Experiment runner.

Three subcommands:

  compute <quantity>   one instance, all applicable bounds, CSV/JSON rows
  verify  <suite>      seeded assertion corpus, per-case lines, exit 1 on failure
  scan                 a parameter family, one row per instance, worker pool

Quantities: sigma, energy, t3, t4, q, mk, lk, eplus, sumprod, minkowski,
cschain, borel.  All parameters are long flags, and each subcommand takes
only the flags it reads (any other is a usage error):

  compute       --p --lambda --A --H --k --seed --out --format
  verify        --p --seed --trials --out
  scan          --family --p --lambda --k --seed --workers --out --format

The set-valued flags --A and --H accept either a set-spec literal or @path
to a file with one literal per line.

Scan families (--family):

  ap-main       arithmetic progressions |A| in {8,16,32,64} at p 1009
                (override with --p); per size one k-rich-hyperbola row at
                k = ceil(|A|^{3/4}) and one sigma row against the A x A grid
  demo          a small fast family over p = 61
  file:PATH     whitespace-separated rows "p a_spec [h_spec]"; the scan
                quantity (positional, default sigma) applies to every row

Exit codes: 0 clean, 1 an exact-constant assertion failed, 2 usage,
spec, or budget errors (a kernel whose table would exceed HYPERLAB_BUDGET_MB
MiB, default 1536, refuses before it allocates).
"""

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache

from . import bounds, counts
from .bounds import ASYMPTOTIC, EXACT, CSV_HEADER, make_report, report_to_csv_row, report_to_json_obj
from .errors import HyperlabError, InvalidArgument, InvalidSpec
from .field import Fp, check_prime
from .sets import (
    ScalarSet,
    TranslateSet,
    difference_set,
    max_line_multiplicity,
    parse_setspec,
    read_scalar_file,
    read_translate_file,
    sumset,
)
from .verify import SUITES

_GROUP_QUANTITIES = {"energy", "t3", "t4", "cschain", "borel"}


@dataclass
class ExperimentConfig:
    """One compute instance."""

    p: int | None
    lam: int
    A: ScalarSet | None
    H: TranslateSet | None
    h_spec: str | None
    k: int | None


def _resolve_scalar(text: str, F: Fp, seed: int) -> ScalarSet:
    if text.startswith("@"):
        return read_scalar_file(text[1:], F)
    s = parse_setspec(text, F, default_seed=seed)
    if not isinstance(s, ScalarSet):
        raise InvalidSpec(f"expected a scalar set spec, got a translate spec: {text!r}")
    return s


def _resolve_translates(text: str, F: Fp, seed: int) -> TranslateSet:
    if text.startswith("@"):
        return read_translate_file(text[1:], F)
    s = parse_setspec(text, F, default_seed=seed)
    if not isinstance(s, TranslateSet):
        raise InvalidSpec(f"expected a translate set spec, got a scalar spec: {text!r}")
    return s


def _build_config(ns, F: Fp | None) -> ExperimentConfig:
    def need_field():
        if F is None:
            raise InvalidArgument("--p is required when set specs are given")
        return F

    A = _resolve_scalar(ns.A, need_field(), ns.seed) if ns.A else None
    H = _resolve_translates(ns.H, need_field(), ns.seed) if ns.H else None
    return ExperimentConfig(p=ns.p, lam=ns.lam, A=A, H=H, h_spec=ns.H, k=ns.k)


def _need(cfg: ExperimentConfig, quantity: str, **what):
    missing = [flag for flag, value in what.items() if value is None]
    if missing:
        raise InvalidArgument(f"{quantity} requires {', '.join('--' + m for m in missing)}")


def _regime(ev: bounds.EvalResult) -> str:
    return ev.regime if ev.applicable else ev.regime + "-na"


def _compute_sigma(cfg: ExperimentConfig):
    _need(cfg, "sigma", p=cfg.p, A=cfg.A, H=cfg.H)
    A, H, p = cfg.A, cfg.H, cfg.p
    emp = counts.sigma(A, H, cfg.lam)
    m = max_line_multiplicity(H)
    inputs = {"p": p, "card_A": len(A), "card_H": len(H), "M": m}
    rows = []
    ev = bounds.eval_charsum(len(A), len(H), p)
    holds = bounds.charsum_holds(emp, len(A), len(H), p)
    rows.append(make_report("sigma", inputs, emp, ev.value, EXACT, ev.regime, holds=holds))
    for which in ("sigma1", "sigma2"):
        ev = bounds.eval_main_theorem(len(A), len(H), m, which)
        rows.append(make_report("sigma", inputs, emp, ev.value, ASYMPTOTIC, _regime(ev)))
    if cfg.h_spec and cfg.h_spec.startswith("cart:"):
        ev = bounds.eval_main_theorem(len(A), len(H), m, "sigma2_cartesian")
        rows.append(make_report("sigma", inputs, emp, ev.value, ASYMPTOTIC, _regime(ev)))
    for which in ("sigma1_ext", "sigma2_ext"):
        ev = bounds.eval_fp_extras(len(A), len(H), p, which)
        if ev.applicable:
            rows.append(make_report("sigma", inputs, emp, ev.value, ASYMPTOTIC, ev.regime))
    ev = bounds.eval_incidence_hb(len(A), len(H), p)
    rows.append(make_report("sigma", inputs, emp, ev.value, ASYMPTOTIC, _regime(ev)))
    return rows


def _compute_energy(cfg: ExperimentConfig):
    _need(cfg, "energy", p=cfg.p, H=cfg.H)
    H = cfg.H
    emp = counts.t_k(H, 2)
    m = max_line_multiplicity(H)
    inputs = {"p": cfg.p, "card_H": len(H), "M": m}
    return [
        make_report("energy", inputs, emp, len(H) ** 3, EXACT, "trivial-cube"),
        make_report("energy", inputs, emp, float(m * len(H) ** 2), ASYMPTOTIC, "line-mult"),
    ]


def _compute_t3(cfg: ExperimentConfig):
    _need(cfg, "t3", p=cfg.p, H=cfg.H)
    H = cfg.H
    emp = counts.t_k(H, 3)
    q = counts.q_rect(H)
    m = max_line_multiplicity(H)
    inputs = {"p": cfg.p, "card_H": len(H), "M": m}
    rows = [
        make_report("t3", inputs, emp, 2 * len(H) * q + 2 * len(H) ** 4, EXACT, "quadruple-chain")
    ]
    ev = bounds.eval_t3_bounds(len(H), m, cfg.p, "lemma_t3bd")
    rows.append(make_report("t3", inputs, emp, ev.value, ASYMPTOTIC, ev.regime))
    return rows


def _compute_t4(cfg: ExperimentConfig):
    _need(cfg, "t4", p=cfg.p, H=cfg.H)
    H = cfg.H
    emp = counts.t_k(H, 4)
    t3 = counts.t_k(H, 3)
    inputs = {"p": cfg.p, "card_H": len(H)}
    return [make_report("t4", inputs, emp, len(H) ** 2 * t3, EXACT, "t3-chain")]


def _compute_q(cfg: ExperimentConfig):
    _need(cfg, "q", p=cfg.p, H=cfg.H)
    H = cfg.H
    emp = counts.q_rect(H)
    m = max_line_multiplicity(H)
    inputs = {"p": cfg.p, "card_H": len(H), "M": m}
    ev = bounds.eval_t3_bounds(len(H), m, cfg.p, "qstar")
    return [make_report("q", inputs, emp, ev.value, ASYMPTOTIC, ev.regime)]


def _compute_mk(cfg: ExperimentConfig):
    _need(cfg, "mk", p=cfg.p, A=cfg.A, k=cfg.k)
    A, k = cfg.A, cfg.k
    emp = counts.rich_hyperbolae(A, k, cfg.lam)
    inputs = {"p": cfg.p, "card_A": len(A), "k": k}
    ev = bounds.eval_mk_bb(len(A), k, cfg.p)
    return [make_report("mk", inputs, emp, ev.value, ASYMPTOTIC, _regime(ev))]


def _compute_lk(cfg: ExperimentConfig):
    _need(cfg, "lk", p=cfg.p, A=cfg.A, k=cfg.k)
    A, k = cfg.A, cfg.k
    emp = counts.rich_lines(A, A, k)
    inputs = {"p": cfg.p, "card_A": len(A), "k": k}
    ev = bounds.eval_lines(len(A), k, cfg.p, "lk")
    return [make_report("lk", inputs, emp, ev.value, ASYMPTOTIC, _regime(ev))]


def _compute_eplus(cfg: ExperimentConfig):
    _need(cfg, "eplus", p=cfg.p, A=cfg.A)
    A = cfg.A
    emp = counts.additive_energy(A)
    inputs = {"p": cfg.p, "card_A": len(A)}
    return [make_report("eplus", inputs, emp, len(A) ** 3, EXACT, "trivial-cube")]


def _compute_sumprod(cfg: ExperimentConfig):
    _need(cfg, "sumprod", p=cfg.p, A=cfg.A)
    A = cfg.A
    inputs = {"p": cfg.p, "card_A": len(A)}
    rows = []
    for variant in (1, 2, 3, 4):
        emp = counts.sumprod_quadruples(A, variant)
        rows.append(
            make_report("sumprod", inputs, emp, len(A) ** 2.9, ASYMPTOTIC, f"form-{variant}")
        )
    return rows


def _compute_minkowski(cfg: ExperimentConfig):
    _need(cfg, "minkowski", p=cfg.p, A=cfg.A)
    A, p = cfg.A, cfg.p
    emp = counts.minkowski_realisations(A, cfg.lam)
    growth = max(len(sumset(A, A)), len(difference_set(A, A)))
    doubling = growth / len(A)
    valid = growth * growth < p
    inputs = {"p": p, "card_A": len(A)}
    bound = doubling**1.2 * len(A) ** 2.9
    regime = "doubling" if valid else "doubling-na"
    return [make_report("minkowski", inputs, emp, bound, ASYMPTOTIC, regime)]


def _compute_cschain(cfg: ExperimentConfig):
    _need(cfg, "cschain", p=cfg.p, A=cfg.A, H=cfg.H)
    rep = counts.cs_chain_report(cfg.A, cfg.H, cfg.lam)
    inputs = {"p": cfg.p, "card_A": len(cfg.A), "card_H": len(cfg.H)}
    return [make_report("cschain", inputs, rep.lhs_sq, rep.rhs_cs, EXACT, "cauchy-schwarz")]


def _compute_borel(cfg: ExperimentConfig):
    _need(cfg, "borel", p=cfg.p, H=cfg.H)
    H = cfg.H
    _, xb = counts.borel_coset_mass(H)
    yb = counts.borel_t3_mass(H)
    inputs = {"p": cfg.p, "card_H": len(H)}
    return [
        make_report("borel", inputs, xb, len(H) ** 2, EXACT, "coset-mass"),
        make_report("borel", inputs, yb, len(H) ** 4, EXACT, "t3-mass"),
    ]


_COMPUTE = {
    "sigma": _compute_sigma,
    "energy": _compute_energy,
    "t3": _compute_t3,
    "t4": _compute_t4,
    "q": _compute_q,
    "mk": _compute_mk,
    "lk": _compute_lk,
    "eplus": _compute_eplus,
    "sumprod": _compute_sumprod,
    "minkowski": _compute_minkowski,
    "cschain": _compute_cschain,
    "borel": _compute_borel,
}
QUANTITIES = tuple(_COMPUTE)


def _emit_reports(reports, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([report_to_json_obj(r) for r in reports], indent=2) + "\n"
    return "\n".join([CSV_HEADER] + [report_to_csv_row(r) for r in reports]) + "\n"


def _write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise HyperlabError(f"cannot write {out}: {e}") from e


def cmd_compute(ns, F: Fp | None) -> int:
    cfg = _build_config(ns, F)
    quantity = ns.quantity
    if quantity in _GROUP_QUANTITIES and cfg.p is not None:
        counts._require_group_lambda(cfg.p, cfg.lam)
    reports = _COMPUTE[quantity](cfg)
    _write_output(_emit_reports(reports, ns.format), ns.out)
    bad = [r for r in reports if r.violated]
    for r in bad:
        print(
            f"violation: {r.quantity} empirical {r.empirical} above exact bound {r.bound:.12g}"
            f" ({r.regime})",
            file=sys.stderr,
        )
    return 1 if bad else 0


def cmd_verify(ns) -> int:
    result = SUITES[ns.suite](seed=ns.seed, trials=ns.trials, p=ns.p)
    lines = list(result.case_lines)
    verdict = "PASS" if result.passed else "FAIL"
    lines.append(f"suite {result.name}: {result.cases} checks, {len(result.failures)} failures -> {verdict}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if ns.out:
        _write_output(text, ns.out)
    return 0 if result.passed else 1


# ---------------------------------------------------------------- scan

def _scan_descs(ns):
    """Deterministic list of row descriptors for a family.  Each desc is a
    tuple of primitives so worker processes can receive it unchanged."""
    quantity, family = ns.quantity, ns.family
    base = (ns.lam, ns.seed)
    descs = []
    if family == "ap-main":
        p = ns.p if ns.p is not None else 1009
        for n in (8, 16, 32, 64):
            k = math.ceil(n**0.75)
            descs.append(("mk", p, f"ap:1,1,{n}", None, k) + base)
            descs.append(("sigma", p, f"ap:1,1,{n}", f"cart:ap:1,1,{n};ap:1,1,{n}", None) + base)
        return descs
    if family == "demo":
        p = ns.p if ns.p is not None else 61
        for n in (4, 6, 8):
            descs.append(("sigma", p, f"ap:1,1,{n}", f"randomh:{2 * n},{ns.seed + n}", None) + base)
            descs.append(("mk", p, f"random:{n},{ns.seed + n}", None, 3) + base)
        return descs
    if family.startswith("file:"):
        path = family[5:]
        try:
            with open(path) as fh:
                raw = fh.read()
        except OSError as e:
            raise InvalidSpec(f"cannot read family file {path}: {e}") from e
        for ln, line in enumerate(raw.splitlines(), start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) not in (2, 3):
                raise InvalidSpec(f"{path}:{ln}: expected 'p a_spec [h_spec]', got {line!r}")
            try:
                p = int(parts[0])
            except ValueError as e:
                raise InvalidSpec(f"{path}:{ln}: bad modulus {parts[0]!r}") from e
            h_spec = parts[2] if len(parts) == 3 else None
            descs.append((quantity, p, parts[1], h_spec, ns.k) + base)
        return descs
    raise InvalidSpec(f"unknown scan family {family!r}; use ap-main, demo, or file:PATH")


def _scan_row(desc) -> tuple:
    """Compute one scan row; any package error becomes an error row so the
    scan continues.  Returns (csv_row, json_obj)."""
    quantity, p, a_spec, h_spec, k, lam, seed = desc
    try:
        F = check_prime(p)
        A = _resolve_scalar(a_spec, F, seed) if a_spec else None
        H = _resolve_translates(h_spec, F, seed) if h_spec else None
        cfg = ExperimentConfig(p=p, lam=lam, A=A, H=H, h_spec=h_spec, k=k)
        if quantity in _GROUP_QUANTITIES:
            counts._require_group_lambda(p, lam)
        reports = _COMPUTE[quantity](cfg)
        r = reports[0]
        if quantity == "sigma":
            # a scan wants one row per instance: the headline main estimate,
            # which _compute_sigma puts at index 3 (sigma2_cartesian) when H
            # is a grid and at index 1 (sigma1) otherwise
            r = reports[3] if h_spec.startswith("cart:") else reports[1]
        return (report_to_csv_row(r), report_to_json_obj(r))
    except HyperlabError as e:
        inputs = {"p": p}
        tag = f"error:{type(e).__name__}"
        csv_cells = [quantity, str(p), "", "", "", "" if k is None else str(k), "", "", "", tag, ""]
        obj = {
            "quantity": quantity, "inputs": inputs, "empirical": None, "bound": None,
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
        with ProcessPoolExecutor(max_workers=ns.workers) as pool:
            rows = list(pool.map(_scan_row, descs))
    if ns.format == "json":
        text = json.dumps([obj for _, obj in rows], indent=2) + "\n"
    else:
        text = "\n".join([CSV_HEADER] + [c for c, _ in rows]) + "\n"
    _write_output(text, ns.out)
    return 0


_FLAGS = {
    "--p": dict(type=int, default=None, help="prime modulus"),
    "--lambda": dict(dest="lam", type=int, default=-1,
                     help="curve parameter in (x-b)(y-a) = lambda (default -1)"),
    "--A": dict(default=None, help="scalar set spec or @file"),
    "--H": dict(default=None, help="translate set spec or @file"),
    "--k": dict(type=int, default=None, help="richness threshold"),
    "--seed": dict(type=int, default=0, help="seed for random: specs and suites"),
    "--trials": dict(type=int, default=None, help="suite corpus size override"),
    "--workers": dict(type=int, default=1, help="scan worker processes"),
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
        F = check_prime(ns.p) if ns.p is not None else None  # checks --p for every subcommand
        if ns.command == "compute":
            return cmd_compute(ns, F)
        if ns.command == "verify":
            return cmd_verify(ns)
        return cmd_scan(ns)
    except HyperlabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
