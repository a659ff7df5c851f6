import hyperlab

# Growing the public API is a decision: add a name here along with it.
PUBLIC = [
    "ASYMPTOTIC", "BoundReport", "CSV_HEADER", "CsChainReport", "DivisionByZero", "EXACT",
    "EmptyInput", "EvalResult", "Fp", "HyperlabError", "INFINITY", "InvalidArgument",
    "InvalidSpec", "MAX_MODULUS", "ModulusMismatch", "MoebiusMap", "NotAPrime", "ResourceLimit",
    "SUITES", "ScalarSet", "SuiteResult", "TranslateSet", "additive_energy",
    "borel_coset_mass", "borel_t3_mass", "bounds", "check_prime", "compose", "counts",
    "cs_chain_report", "d_histogram", "difference_set", "embed_translate", "errors",
    "eval_charsum", "eval_fp_extras", "eval_incidence_hb", "eval_lines", "eval_main_theorem",
    "eval_mk_bb", "eval_t3_bounds", "evaluate", "field", "gen_cartesian", "invert", "is_prime",
    "make_report", "max_line_multiplicity", "minkowski_realisations",
    "moebius", "oracle", "pair_quotient", "parse_setspec", "product_rep_energy",
    "product_rep_histogram", "q_rect", "quotient_histogram", "read_scalar_file",
    "read_translate_file", "report_to_csv_row", "report_to_json_obj", "rich_hyperbolae",
    "rich_lines", "sets", "sigma", "sigma_rect", "sumprod_quadruples", "sumset", "t_k",
    "verify",
]


def test_public_api_pinned():
    assert sorted(hyperlab.__all__) == sorted(PUBLIC)
    assert len(PUBLIC) == len(set(PUBLIC)) == 70
