import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hyperlab
from hyperlab import bounds, counts
from hyperlab.bounds import CSV_HEADER
from hyperlab.cli import QUANTITIES, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_sigma_example(capsys):
    code, out, err = run(capsys, "compute", "sigma", "--p", "7", "--A", "list:1,6", "--H", "listh:0,0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    first = lines[1].split(",")
    assert first[0] == "sigma"
    assert first[6] == "2"  # empirical
    assert first[10] == "exact-constant"


def test_compute_single_report_is_two_lines(capsys):
    code, out, _ = run(capsys, "compute", "eplus", "--p", "7", "--A", "list:0,1")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_compute_deterministic(capsys):
    args = ("compute", "energy", "--p", "101", "--H", "randomh:20,42")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_compute_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "compute", "t3", "--p", "7", "--H", "listh:0,0;1,1", "--format", "json"
    )
    assert code == 0
    objs = json.loads(out)
    assert objs[0]["quantity"] == "t3"
    assert objs[0]["empirical"] == 20
    assert objs[0]["exactness"] == "exact-constant"


def test_compute_budget_overflow_exit_2(capsys):
    code, _, err = run(capsys, "compute", "t3", "--p", "101", "--H", "randomh:600,1")
    assert code == 2
    assert "budget" in err


def test_compute_budget_env_moves_cap(capsys, monkeypatch):
    args = ("compute", "t3", "--p", "101", "--H", "randomh:30,1")
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "1")
    code, _, err = run(capsys, *args)
    assert code == 2 and "budget" in err
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "8")
    code, _, _ = run(capsys, *args)
    assert code == 0
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "0")
    code, _, err = run(capsys, *args)
    assert code == 2 and "HYPERLAB_BUDGET_MB must be an integer >= 1" in err


_REFUSAL = re.compile(r"^error: .* in bytes \(HYPERLAB_BUDGET_MB=\d+\): requires (\d+), budget (\d+)$")


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_every_quantity_finishes_or_refuses_at_1_mb(capsys, monkeypatch, quantity):
    monkeypatch.setenv("HYPERLAB_BUDGET_MB", "1")
    code, _, err = run(
        capsys, "compute", quantity, "--p", "101", "--A", "ap:1,1,12", "--H", "randomh:40,1", "--k", "3"
    )
    if code != 2:
        assert code in (0, 1)
        return
    m = _REFUSAL.match(err.strip())
    assert m, err
    required, budget = map(int, m.groups())
    assert budget == 1 << 20 < required


def test_default_budget_refuses_large_energy(capsys):
    # the 8192^2-pair quotient histogram would need about 2.7 GB (40 B per pair)
    code, _, err = run(capsys, "compute", "energy", "--p", "1009", "--H", "randomh:8192,1")
    assert code == 2
    required, budget = map(int, _REFUSAL.match(err.strip()).groups())
    assert budget == 1536 << 20 < 2.5 * 10**9 < required


def test_t4_through_the_quotient_support(capsys):
    # t4's |H|^2 T_3 bound: the T_3 fill of 600^3 keys would reserve 1.75 GB,
    # but 600 translates (a, 0) have 1199 quotients, so T_3 takes the
    # quotient arm (T_3 = 42768054000120, as test_square_sums_past_int64 checks)
    code, out, _ = run(capsys, "compute", "t4", "--p", "65537", "--H", "cart:ap:1,1,600;ap:0,1,1", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["empirical"] == 13419171565747885800
    assert row["bound"] == float(600**2 * 42768054000120)


def test_group_lambda_refused(capsys):
    for quantity, sets in (("energy", ()), ("cschain", ("--A", "list:1,2"))):
        argv = ("compute", quantity, "--p", "101", *sets, "--H", "randomh:5,1", "--lambda", "3")
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "lambda" in err
    # sigma is defined for every nonzero lambda
    code, _, _ = run(
        capsys, "compute", "sigma", "--p", "101", "--A", "list:1,2", "--H", "randomh:5,1", "--lambda", "3"
    )
    assert code == 0


def test_bad_spec_and_bad_prime_exit_2(capsys):
    code, _, err = run(capsys, "compute", "sigma", "--p", "8", "--A", "list:1", "--H", "listh:0,0")
    assert code == 2 and "prime" in err.lower()
    code, _, err = run(capsys, "compute", "sigma", "--p", "7", "--A", "ap:1,0,3", "--H", "listh:0,0")
    assert code == 2 and "position" in err


def test_spec_errors_and_oversized_specs_exit_2(capsys):
    # a non-ASCII digit is a spec error, not a ValueError traceback (exit 1)
    for spec in ("list:\u00b2", "ap:1,1,\u00b3", "list:\u0663"):
        code, out, err = run(capsys, "compute", "eplus", "--p", "7", "--A", spec)
        assert (code, out) == (2, "") and "position" in err
    # an ap: past its period names the period; one past the budget is refused
    code, out, _ = run(capsys, "compute", "eplus", "--p", "7", "--A", "ap:1,1,1000000000000", "--format", "json")
    assert code == 0 and json.loads(out)[0]["inputs"]["card_A"] == 7
    code, out, err = run(capsys, "compute", "eplus", "--p", str((1 << 61) - 1), "--A", "ap:1,1,100000000000")
    assert (code, out) == (2, "") and _REFUSAL.match(err.strip())


_NEEDED = {
    "sigma": "--p, --A, --H", "energy": "--p, --H", "t3": "--p, --H", "t4": "--p, --H", "q": "--p, --H",
    "mk": "--p, --A, --k", "lk": "--p, --A, --k", "eplus": "--p, --A", "sumprod": "--p, --A",
    "minkowski": "--p, --A", "cschain": "--p, --A, --H", "borel": "--p, --H",
}


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_missing_flags_named_in_order(capsys, quantity):
    assert run(capsys, "compute", quantity) == (2, "", f"error: {quantity} requires {_NEEDED[quantity]}\n")


@pytest.mark.parametrize(
    "p, message",
    [
        (1, "modulus must be an odd prime >= 3, got 1"),
        (9, "modulus must be an odd prime >= 3, got 9"),
        (10, "modulus must be an odd prime >= 3, got 10"),
        ((1 << 61) + 1, f"modulus {(1 << 61) + 1} exceeds 2**61 - 1"),
    ],
)
def test_bad_prime_message_every_time(capsys, p, message):
    # the cached prime check refuses a bad --p on every call, not only the first
    for argv in (
        ("compute", "sigma", "--p", str(p), "--A", "list:1", "--H", "listh:0,0"),
        ("verify", "lemma-t3", "--p", str(p), "--trials", "1"),
        ("compute", "sigma", "--p", str(p), "--A", "list:1", "--H", "listh:0,0"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_missing_required_set_exit_2(capsys):
    code, _, err = run(capsys, "compute", "sigma", "--p", "7")
    assert code == 2 and "--A" in err


def test_at_file_ingestion(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("1\n6\n")
    h = tmp_path / "h.txt"
    h.write_text("0,0\n")
    code, out, _ = run(capsys, "compute", "sigma", "--p", "7", "--A", f"@{a}", "--H", f"@{h}")
    assert code == 0
    assert out.splitlines()[1].split(",")[6] == "2"


@pytest.mark.parametrize("flag", ["--A", "--H"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_at_path_exit_2(tmp_path, capsys, kind, flag):
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"1\n\xff\n")
    sets = {"--A": "list:1", "--H": "listh:0,0", flag: f"@{path}"}
    code, out, err = run(capsys, "compute", "sigma", "--p", "7", *(x for kv in sets.items() for x in kv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag, text", [("--A", "1\n\u0663\n"), ("--A", "1\n1_000\n"), ("--H", "0,0\n0,\u0663\n")])
def test_at_path_integers_are_ascii_decimals_exit_2(tmp_path, capsys, flag, text):
    # int() would read the Arabic-Indic digit as 3 and 1_000 as 1000, while
    # the literal list:\u0663 is a spec error: so is the same line of a file
    path = tmp_path / "set.txt"
    path.write_text(text, encoding="utf-8")
    sets = {"--A": "list:1", "--H": "listh:0,0", flag: f"@{path}"}
    code, out, err = run(capsys, "compute", "sigma", "--p", "7", *(x for kv in sets.items() for x in kv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}:2: expected ")


@pytest.mark.parametrize("modulus", ["1_009", "\u0661\u0660\u0660\u0669"])
def test_scan_file_modulus_is_an_ascii_decimal(tmp_path, capsys, modulus):
    fam = tmp_path / "rows.txt"
    fam.write_text(f"7 list:1,6 listh:0,0\n{modulus} list:1,6 listh:0,0\n", encoding="utf-8")
    code, out, err = run(capsys, "scan", "sigma", "--family", f"file:{fam}")
    assert code == 2 and out == ""
    assert err == f"error: {fam}:2: bad modulus {modulus!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "eplus", "--A", "list:1,2", "--p", "\u0661\u0660\u0660\u0669"),
        ("compute", "eplus", "--A", "list:1,2", "--p", "1_009"),
        ("compute", "mk", "--p", "1009", "--A", "list:1,2", "--k", "\u0663"),
        ("compute", "sigma", "--p", "1009", "--A", "list:1,2", "--H", "listh:0,0", "--lambda", "1_0"),
        ("compute", "eplus", "--p", "1009", "--A", "random:2", "--seed", "\u0661"),
        ("verify", "borel", "--trials", "\u0662"),
        ("scan", "--family", "demo", "--workers", "1_0"),
    ],
)
def test_integer_flags_are_ascii_decimals_exit_2(capsys, argv):
    # int() would read each of these values, while a spec literal, an @path
    # file and a scan row reject the same text: so does the flag
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: argument {argv[-2]}: expected an integer, got {argv[-1]!r}\n" in err


def test_integer_flags_take_a_sign():
    ns = build_parser().parse_args(["compute", "sigma", "--p", "+7", "--lambda", "-1", "--seed", "-3"])
    assert (ns.p, ns.lam, ns.seed) == (7, -1, -3)


def test_scan_continues_past_an_unreadable_row(tmp_path, capsys):
    fam = tmp_path / "rows.txt"
    fam.write_text(f"7 @{tmp_path / 'nonexistent'} listh:0,0\n7 list:1,6 listh:0,0\n")
    code, out, _ = run(capsys, "scan", "sigma", "--family", f"file:{fam}")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3 and lines[1].split(",")[9] == "error:InvalidSpec"
    assert lines[2].split(",")[6] == "2"
    code, out, _ = run(capsys, "scan", "sigma", "--family", f"file:{fam}", "--format", "json")
    assert json.loads(out)[0]["detail"].startswith(f"cannot read {tmp_path / 'nonexistent'}: ")


def test_usage_error_exit_2(capsys):
    assert main(["compute", "nosuchquantity", "--p", "7"]) == 2
    assert main([]) == 2


def test_verify_pass_and_fail(capsys):
    code, out, _ = run(capsys, "verify", "lemma-t3", "--p", "101", "--trials", "10", "--seed", "7")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("PASS")
    # the constant-1 cartesian energy claim is false; the suite must say so
    code, out, _ = run(capsys, "verify", "lemma-sh-cartesian", "--trials", "6", "--seed", "0")
    assert code == 1
    assert "FAIL" in out.strip().splitlines()[-1]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_trials_below_one(capsys, trials):
    code, out, err = run(capsys, "verify", "oracle-equivalence", "--trials", trials)
    assert (code, out, err) == (2, "", f"error: --trials must be >= 1, got {trials}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "q", "--p", "2305843009213693951", "--H", "randomh:10,1"),
        ("verify", "t4-chain", "--p", "2305843009213693951", "--trials", "1"),
    ],
)
def test_random_translates_above_sys_maxsize(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and not err


def test_verify_prints_per_case(capsys):
    code, out, _ = run(capsys, "verify", "t4-chain", "--trials", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # four cases + aggregate
    assert all(line.startswith("ok") for line in lines[:-1])


def test_verify_one_trial_samples_every_check(capsys):
    code, out, _ = run(capsys, "verify", "algebraic-identities", "--p", "7", "--trials", "1")
    assert code == 0
    assert out.count(": 1 samples") == 1
    assert not [line for line in out.splitlines() if ": 0 samples" in line]


def test_scan_demo_and_out(tmp_path, capsys):
    out1 = tmp_path / "one.csv"
    code = main(["scan", "--family", "demo", "--out", str(out1)])
    assert code == 0
    text = out1.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 7


def test_scan_worker_determinism(tmp_path):
    f1 = tmp_path / "w1.csv"
    f8 = tmp_path / "w8.csv"
    assert main(["scan", "--family", "demo", "--workers", "1", "--out", str(f1)]) == 0
    assert main(["scan", "--family", "demo", "--workers", "8", "--out", str(f8)]) == 0
    assert f1.read_bytes() == f8.read_bytes()


def test_scan_empty_family_header_only(tmp_path, capsys):
    fam = tmp_path / "empty.txt"
    fam.write_text("")
    code, out, _ = run(capsys, "scan", "--family", f"file:{fam}")
    assert code == 0
    assert out == CSV_HEADER + "\n"


def test_scan_file_family_and_row_errors(tmp_path, capsys):
    fam = tmp_path / "rows.txt"
    fam.write_text(
        "7 list:1,6 listh:0,0\n9 list:1,2 listh:0,0\n101 ap:1,1,6 cart:ap:1,1,6;ap:1,1,6\n"
    )
    code, out, _ = run(capsys, "scan", "sigma", "--family", f"file:{fam}")
    assert code == 0  # the bad row is captured, the scan continues
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[1].split(",")[6] == "2"
    # the headline bound: sigma1 in general, the Cartesian estimate on a grid
    assert lines[1].split(",")[9] == "M1-direct-na"
    assert "error:NotAPrime" in lines[2]
    assert lines[3].split(",")[9] == "cartesian"


_CROSS_ROWS = (
    "101 ap:1,1,6 randomh:12,3",
    "61 random:8,2 cart:ap:1,1,4;ap:1,1,4",
    "1009 gp:3,5,7 listh:1,2;3,4;5,6",
)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("quantity", QUANTITIES)
def test_scan_row_is_the_compute_headline(tmp_path, capsys, quantity, fmt):
    # a scan prints, per instance, the headline of the rows compute prints:
    # for sigma the sigma1 estimate, or the Cartesian one when H is a cart:
    # spec; for every other quantity the first row
    fam = tmp_path / "rows.txt"
    fam.write_text("\n".join(_CROSS_ROWS) + "\n")
    code, out, _ = run(capsys, "scan", quantity, "--family", f"file:{fam}", "--k", "2", "--format", fmt)
    assert code == 0
    scanned = json.loads(out) if fmt == "json" else out.splitlines()[1:]
    assert len(scanned) == len(_CROSS_ROWS)
    for line, got in zip(_CROSS_ROWS, scanned):
        p, a_spec, h_spec = line.split()
        code, out, _ = run(
            capsys, "compute", quantity, "--p", p, "--A", a_spec, "--H", h_spec, "--k", "2", "--format", fmt
        )
        assert code == 0
        rows = json.loads(out) if fmt == "json" else out.splitlines()[1:]
        regimes = [r["regime"] if fmt == "json" else r.split(",")[9] for r in rows]
        want = rows[0]
        if quantity == "sigma":
            headline = "cartesian" if h_spec.startswith("cart:") else "M1-"
            want = next(r for r, regime in zip(rows, regimes) if regime.startswith(headline))
        assert got == want


def test_scan_unknown_family_exit_2(capsys):
    code, _, err = run(capsys, "scan", "--family", "nosuch")
    assert code == 2 and "family" in err


def test_scan_json_format(capsys):
    code, out, _ = run(capsys, "scan", "--family", "demo", "--format", "json")
    assert code == 0
    objs = json.loads(out)
    assert len(objs) == 6
    assert {o["quantity"] for o in objs} == {"sigma", "mk"}


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "sigma", "--p", "7", "--A", "list:1,6", "--H", "listh:0,0", "--trials", "2"),
        ("compute", "sigma", "--p", "7", "--A", "list:1,6", "--H", "listh:0,0", "--workers", "2"),
        ("verify", "lemma-t3", "--trials", "2", "--format", "json"),
        ("scan", "--family", "demo", "--A", "ap:1,1,4"),
    ],
    ids=["compute-trials", "compute-workers", "verify-format", "scan-A"],
)
def test_flag_a_subcommand_does_not_read_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: hyperlab")


def test_parser_shared_and_stateless(capsys):
    assert build_parser() is build_parser()
    argv = ("compute", "sigma", "--p", "101", "--A", "ap:1,1,8", "--H", "randomh:20,42")
    code, json_out, _ = run(capsys, *argv, "--format", "json", "--lambda", "5")
    assert code == 0 and json_out.startswith("[")
    code, out, err = run(capsys, "compute", "sigma", "--workers", "2")
    assert code == 2 and out == "" and err.startswith("usage: hyperlab")
    code, out, _ = run(capsys, *argv)
    src = str(Path(hyperlab.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-m", "hyperlab.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    assert code == 0 and out == fresh.stdout and out != json_out


def test_flags_per_subcommand():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.choices and "compute" in a.choices)
    flags = {
        name: sorted(s for a in sp._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, sp in sub.choices.items()
    }
    assert flags == {
        "compute": sorted(["--p", "--lambda", "--A", "--H", "--k", "--seed", "--out", "--format"]),
        "verify": sorted(["--p", "--seed", "--trials", "--out"]),
        "scan": sorted(["--family", "--p", "--lambda", "--k", "--seed", "--workers", "--out", "--format"]),
    }


@pytest.mark.parametrize("sigma, code", [(15, 0), (16, 1)])
def test_compute_charsum_row_decided_in_integers(capsys, monkeypatch, sigma, code):
    # |A| = 1 and |H| = p = 7 make the char-sum bound |A|^2 + 2|A|p = 15 exact
    monkeypatch.setattr(counts, "sigma", lambda A, H, lam: sigma)
    got, out, err = run(capsys, "compute", "sigma", "--p", "7", "--A", "list:1", "--H", "randomh:7,1")
    assert got == code
    row = out.splitlines()[1].split(",")
    assert row[9] == "char-sum" and float(row[7]) == 15.0
    assert ("violation: sigma empirical 16" in err) == (code == 1)


def test_compute_charsum_verdict_is_charsum_holds(capsys, monkeypatch):
    # far below the float bound, yet a violation once charsum_holds says so
    monkeypatch.setattr(bounds, "charsum_holds", lambda s, card_a, card_h, p: False)
    code, _, err = run(capsys, "compute", "sigma", "--p", "7", "--A", "list:1,6", "--H", "listh:0,0")
    assert code == 1 and "(char-sum)" in err
