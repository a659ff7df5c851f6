"""Exact-counting laboratory for incidences between Cartesian point sets
and translates of a hyperbola over a prime field."""

from .bounds import (
    ASYMPTOTIC,
    CSV_HEADER,
    EXACT,
    BoundReport,
    EvalResult,
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
from .counts import (
    CsChainReport,
    additive_energy,
    borel_coset_mass,
    borel_t3_mass,
    cs_chain_report,
    d_histogram,
    minkowski_realisations,
    product_rep_energy,
    product_rep_histogram,
    q_rect,
    quotient_histogram,
    rich_hyperbolae,
    rich_lines,
    sigma,
    sigma_rect,
    sumprod_quadruples,
    t_k,
)
from .errors import (
    DivisionByZero,
    EmptyInput,
    HyperlabError,
    InvalidArgument,
    InvalidSpec,
    ModulusMismatch,
    NotAPrime,
    ResourceLimit,
)
from .field import MAX_MODULUS, Fp, check_prime, is_prime
from .moebius import (
    INFINITY,
    MoebiusMap,
    compose,
    embed_translate,
    evaluate,
    invert,
    pair_quotient,
)
from .sets import (
    ScalarSet,
    TranslateSet,
    difference_set,
    gen_cartesian,
    max_line_multiplicity,
    parse_setspec,
    read_scalar_file,
    read_translate_file,
    sumset,
)
from .verify import SUITES, SuiteResult

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
