import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import padic_hg
from padic_hg import cli, ffield, frobtrace, gfunc, padic
from padic_hg.cli import SUITES, main
from padic_hg.errors import NonConstantResult, SingularCurve
from padic_hg.ffield import build_field, family_traces


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_g_known_value(capsys):
    code, out = run(
        capsys, "eval-g", "--p", "11", "--r", "3",
        "--top", "0,1/2,0,1/2", "--bottom", "1/4,3/4,1/4,3/4",
        "--t", "4", "--bound", "150",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["integer"] == 68
    assert payload["precision"] == 3
    # round trip
    assert json.loads(json.dumps(payload)) == payload


def test_eval_g_above_the_old_gamma_cap():
    # p^N = 31^5 > 10^7 is too large for a dense gamma table; a subprocess
    # makes a slow gamma path fail by timeout instead of hanging the suite
    src = os.path.dirname(os.path.dirname(padic_hg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    values = {}
    for precision in ("4", "5"):
        proc = subprocess.run(
            [sys.executable, "-m", "padic_hg.cli", "eval-g", "--p", "31",
             "--top", "0,1/2", "--bottom", "1/4,3/4", "--t", "4",
             "--precision", precision],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["precision"] == int(precision)
        values[precision] = payload["integer"]
    assert values == {"4": -2, "5": -2}


def test_eval_g_oversized_precision_fails_fast():
    # gamma tables of 5^20 entries: a typed error before any is built
    src = os.path.dirname(os.path.dirname(padic_hg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "padic_hg.cli", "eval-g", "--p", "5",
         "--top", "1/2", "--bottom", "0", "--t", "2", "--precision", "40"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["error"] == "PrecisionTooLarge"


def test_eval_g_zero_argument(capsys):
    code, out = run(
        capsys, "eval-g", "--p", "5", "--top", "1/2", "--bottom", "0", "--t", "0",
    )
    assert code == 3
    assert json.loads(out)["error"] == "ZeroArgument"


def test_eval_g_not_prime(capsys):
    code, out = run(
        capsys, "eval-g", "--p", "4", "--top", "1/2", "--bottom", "0", "--t", "1",
    )
    assert code == 2
    assert json.loads(out)["error"] == "NotPrime"


def test_eval_g_precision_overrides_upward(capsys):
    code, out = run(
        capsys, "eval-g", "--p", "5", "--top", "1/2,1/2", "--bottom", "0,0",
        "--t", "2", "--precision", "4",
    )
    assert code == 0
    assert json.loads(out)["precision"] == 4
    code, out = run(
        capsys, "eval-g", "--p", "5", "--top", "1/2,1/2", "--bottom", "0,0",
        "--t", "2", "--precision", "1",
    )
    assert code == 0
    assert json.loads(out)["precision"] >= 2  # default wins when larger


def test_trace_legendre(capsys):
    code, out = run(capsys, "trace", "--family", "legendre", "--p", "5", "--r", "1",
                    "--lambda", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"count": 8, "trace": -2, "hasse_ok": True}


def test_trace_singular(capsys):
    code, out = run(capsys, "trace", "--family", "legendre", "--p", "5", "--r", "1",
                    "--lambda", "1")
    assert code == 3
    assert json.loads(out)["error"] == "SingularCurve"


def test_trace_cd_hasse(capsys):
    code, out = run(capsys, "trace", "--family", "cd", "--p", "11", "--r", "1",
                    "--c", "3", "--d", "5")
    assert code == 0
    assert json.loads(out)["hasse_ok"] is True


def test_trace_rational_coefficient(capsys):
    code, out = run(capsys, "trace", "--family", "a1a3", "--p", "11", "--r", "1",
                    "--a1", "2", "--a3=-1/3")
    assert code == 0
    assert json.loads(out)["trace"] == 3


def test_verify_corollary(capsys):
    code, out = run(capsys, "verify", "--suite", "corollary")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert payload["total"] == 4


def test_verify_t13_small(capsys):
    code, out = run(capsys, "verify", "--suite", "t13", "--pmax", "5", "--rmax", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 2  # lambda in {2, 3} over F_5
    assert payload["failed"] == 0


def test_verify_reduction_small(capsys):
    code, out = run(capsys, "verify", "--suite", "identity-reduction", "--trials", "5")
    assert code == 0
    assert json.loads(out)["failed"] == 0


def test_oracle_gauss(capsys):
    code, out = run(capsys, "oracle", "gauss", "--p", "13", "--k", "0")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["re"] + 1) < 1e-9


def test_oracle_dh(capsys):
    code, out = run(capsys, "oracle", "dh", "--p", "13", "--m", "3")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_oracle_jacobi_padic(capsys):
    code, out = run(capsys, "oracle", "jacobi", "--p", "5", "--r", "2",
                    "--a", "0", "--b", "0", "--padic", "--precision", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == [23, 0]  # J(eps, eps) = q - 2


def test_oracle_greene(capsys):
    code, out = run(capsys, "oracle", "greene", "--p", "13",
                    "--top", "6,6", "--bottom", "0", "--x", "3")
    assert code == 0
    payload = json.loads(out)
    # Koike: -q*phi(-1)*2F1 is the trace, an integer
    assert abs(payload["im"]) < 1e-9


def test_plain_and_csv_formats(capsys):
    code, out = run(capsys, "--format", "plain", "trace", "--family", "legendre",
                    "--p", "5", "--lambda", "2")
    assert code == 0
    assert "count=8" in out
    code, out = run(capsys, "--format", "csv", "verify", "--suite", "corollary")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 4 items


@pytest.mark.parametrize("family,given,missing", [
    ("legendre", [], "--lambda"),
    ("cd", ["--c", "3"], "--d"),
    ("weierstrass", ["--a1", "0", "--a2", "0", "--a3", "0", "--a4", "1"], "--a6"),
])
def test_trace_missing_coordinate_is_a_usage_error(capsys, family, given, missing):
    code, out = run(capsys, "trace", "--family", family, "--p", "5", *given)
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "UsageError"
    assert payload["message"].endswith(f"needs {missing}")


def test_trace_oversize_field_is_a_typed_error(capsys):
    # q = 5^2000000 is refused by its exponent, never formed or printed
    code, out = run(capsys, "trace", "--family", "legendre", "--p", "5", "--r", "2000000",
                    "--lambda", "2")
    assert code == 3
    assert json.loads(out)["error"] == "DegreeTooLarge"


def test_trace_coordinate_flags_are_the_family_coordinates():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest for a in sub.choices["trace"]._actions} - {"help", "format", "p", "r", "family"}
    assert flags == {name for family in ffield.FAMILIES.values() for name in family.coords}


@pytest.mark.parametrize("argv", [
    ["eval-g", "--p", "5", "--top", "1/0", "--bottom", "0", "--t", "2"],
    ["trace", "--family", "legendre", "--p", "5", "--lambda", "1/0"],
])
def test_zero_denominator_is_a_usage_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {
        "error": "UsageError", "message": "'1/0' has a zero denominator",
    }


@pytest.mark.parametrize("p,r", [(7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (5, 2)])
def test_koike_bridge_runs_every_lambda_outside_zero_and_one(p, r):
    # the Legendre curve at lambda = -1 is nonsingular, so the bridge covers
    # q - 2 values, -1 among them, and holds at each
    field = build_field(p, r)
    (checker, args), = [(c, list(a)) for name, c, a in cli._oracle_checks(field)
                        if name == "koike-bridge"]
    lams = [lam for lam, _ in args]
    assert all(f is field for _, f in args)
    assert len(set(lams)) == len(lams) == field.q - 2
    assert -field.one in lams and field.zero not in lams and field.one not in lams
    assert all(checker(*a) for a in args)


def test_oracle_greene_without_top_is_a_usage_error(capsys):
    code, out = run(capsys, "oracle", "greene", "--p", "13")
    assert code == 2
    assert json.loads(out)["error"] == "UsageError"


def test_usage_error_exit_code(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2
    assert main(["eval-g", "--p", "5", "--top", "1/2", "--bottom", "0",
                 "--t", "bogus"]) == 2


@pytest.mark.parametrize("precision", ["0", "-3"])
def test_precision_below_one_is_a_usage_error(capsys, precision):
    assert main(["eval-g", "--p", "5", "--r", "2", "--top", "1/2,1/2",
                 "--bottom", "0,0", "--t", "3", "--precision", precision]) == 2
    assert main(["oracle", "jacobi", "--p", "5", "--r", "2", "--a", "3",
                 "--b", "5", "--padic", "--precision", precision]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_trials_below_one_is_a_usage_error(capsys, trials):
    for suite in ("identity-splitting", "t14"):
        assert main(["verify", "--suite", suite, "--trials", trials]) == 2
    assert main(["oracle", "dh", "--p", "7", "--m", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --trials: must be an integer >= 1" in captured.err
    assert "argument --m: must be an integer >= 1" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["--suite", "t15", "--pmax", "3"], "--pmax 3 selects no prime of suite t15"),
    (["--suite", "t18", "--pmax", "5"], "--pmax 5 selects no prime of suite t18"),
    (["--suite", "t13", "--rmax", "0"], "--rmax 0 selects no field"),
])
def test_verify_range_selecting_no_field_is_a_usage_error(capsys, monkeypatch, argv, message):
    # rejected before any work starts: no field is built
    monkeypatch.setattr(frobtrace, "trace_sum_pair", None)
    monkeypatch.setattr(frobtrace, "rational_curve_trace", None)
    code, out = run(capsys, "verify", *argv)
    assert code == 2
    assert json.loads(out) == {"error": "UsageError", "message": message}


def test_verify_t13_pmax7(capsys):
    code, out = run(capsys, "verify", "--suite", "t13", "--pmax", "7", "--rmax", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert payload["total"] == 2 + 4  # F_5 and F_7 lambdas
    # lambda = 1 and -1 of each field, outside the hypotheses of t13
    assert payload["skipped"] == {"total": 4, "by_class": {"HypothesisViolation": 4}}


@pytest.mark.parametrize("suite,primes,total", [
    ("t18", [7, 11, 19, 23], 24),
    ("t19", [5, 11, 23], 18),
    ("t110", [5, 11, 17, 23], 24),
    ("t111", [7, 11, 19, 23], 24),
])
def test_verify_rational_suites_choose_their_primes(capsys, suite, primes, total):
    code, out = run(capsys, "verify", "--suite", suite, "--pmax", "23", "--rmax", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == total  # primes x r = 1..3 x two parameters
    assert payload["failed"] == 0
    assert payload["skipped"] == {"total": 0, "by_class": {}}
    assert sorted({row["p"] for row in payload["instances"]}) == primes


LEMMA_ROWS = [
    (check, q)
    for q in (25, 27, 49, 121)
    for check in (
        "reflection", "product-formula", "downshift", "upshift", "complement",
        "half-shift", "floor-negative-multiple", "floor-positive-multiple",
        "floor-halving",
    ) + (("quarter-product",) if q % 4 == 1 else ())
] + [
    ("dth-root d=4", 11), ("dth-root d=12", 11), ("dth-root d=3", 5),
    ("dth-root d=6", 5), ("dth-root d=4", 7),
]
ORACLE_ROWS = [
    (check, q)
    for q in (13, 25)
    for check in ("conjugate-product", "davenport-hasse", "koike-bridge")
] + [("gross-koblitz-jacobi", 25), ("gross-koblitz-jacobi", 27)]


@pytest.mark.parametrize("suite,rows", [("lemmas", LEMMA_ROWS), ("oracle", ORACLE_ROWS)])
def test_verify_identity_checker_suites(capsys, suite, rows):
    code, out = run(capsys, "verify", "--suite", suite)
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert payload["skipped"] == {"total": 0, "by_class": {}}
    assert [(row["check"], row["q"]) for row in payload["instances"]] == rows
    assert payload["total"] == len(rows) == {"lemmas": 44, "oracle": 8}[suite]


def test_verify_reports_the_range_it_ran(capsys):
    code, out = run(capsys, "verify", "--suite", "t13", "--pmax", "17", "--rmax", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["range"] == {"pmax": 13, "rmax": 1}
    assert payload["total"] == 2 + 4 + 8 + 10  # q = 5, 7, 11, 13; no q = 17
    code, out = run(capsys, "verify", "--suite", "t18", "--pmax", "7", "--rmax", "5")
    assert json.loads(out)["range"] == {"pmax": 7, "rmax": 3}
    code, out = run(capsys, "verify", "--suite", "corollary")
    assert json.loads(out)["range"] is None


def test_verify_reports_cache_activity(capsys):
    gfunc._KERNELS.clear()
    code, out = run(capsys, "verify", "--suite", "identity-splitting", "--trials", "3")
    assert code == 0
    caches = json.loads(out)["caches"]
    assert set(caches) == {
        "build_field", "gamma_steps", "rings", "family_traces", "pair_setups", "kernels",
        "stable_kernels",
    }
    for name in ("build_field", "gamma_steps", "rings", "family_traces", "pair_setups"):
        assert set(caches[name]) == {"hits", "misses"}
        assert all(isinstance(v, int) and v >= 0 for v in caches[name].values())
    # the suite looks up its three fields once
    assert caches["build_field"]["hits"] + caches["build_field"]["misses"] == 3
    assert caches["gamma_steps"]["hits"] + caches["gamma_steps"]["misses"] >= 1
    assert isinstance(caches["kernels"], int) and caches["kernels"] >= 2
    # each kernel decides its path at build: at seed 0 the three rows and
    # their 4-rows of halves give six kernels, four of them closed under
    # x -> p*x mod 1 and so on the trace path
    assert caches["kernels"] == 6
    assert caches["stable_kernels"] == 4
    # this suite reads no family table and sets up no pair formula; a pair
    # suite reads two entries and one (theorem, field) set-up per row
    assert caches["family_traces"] == {"hits": 0, "misses": 0}
    assert caches["pair_setups"] == {"hits": 0, "misses": 0}
    # every kernel reads its columns and Teichmuller table through the
    # shared context of its (field, N)
    rings = caches["rings"]
    assert rings["hits"] + rings["misses"] >= 2
    gfunc._KERNELS.clear()
    code, out = run(capsys, "verify", "--suite", "t13", "--pmax", "7", "--rmax", "1")
    assert code == 0
    payload = json.loads(out)
    # every t13 kernel is closed and takes the trace path
    assert payload["caches"]["stable_kernels"] == payload["caches"]["kernels"] >= 1
    tables = payload["caches"]["family_traces"]
    assert tables["misses"] <= 2
    assert tables["hits"] + tables["misses"] == 2 * payload["total"]
    setups = payload["caches"]["pair_setups"]
    assert setups["misses"] <= 2  # F_5 and F_7
    assert setups["hits"] + setups["misses"] == payload["total"]


def test_rational_suites_set_up_pair_kernels(capsys):
    # t18 reads the G side of each row from the t13 set-up of its field
    frobtrace._pair_setup.cache_clear()
    code, out = run(capsys, "verify", "--suite", "t18")
    assert code == 0
    payload = json.loads(out)
    setups = payload["caches"]["pair_setups"]
    assert setups["misses"] > 0
    assert setups["hits"] + setups["misses"] == payload["total"]


@pytest.mark.parametrize("suite", ["lemmas", "oracle"])
def test_suites_without_g_values_build_no_gauss_orbit_column(capsys, monkeypatch, suite):
    # the lemma checkers and the character-sum oracles evaluate no G, so
    # they read Teichmuller powers but must build no Gauss-orbit column
    columns = []
    monkeypatch.setattr(padic.PadicCtx, "column", lambda self, *key: columns.append(key))
    code, out = run(capsys, "verify", "--suite", suite)
    assert code == 0
    rings = json.loads(out)["caches"]["rings"]
    assert rings["hits"] + rings["misses"] > 0
    assert columns == []


@pytest.mark.parametrize("suite", frobtrace.PAIR_THEOREMS)
def test_pair_suites_run_every_admissible_member_once(capsys, suite):
    # at the default range: each m of F_q^x whose members m and -m are both
    # nonsingular is one row, and every other m one skip
    code, out = run(capsys, "verify", "--suite", suite)
    assert code == 0
    payload = json.loads(out)
    family = frobtrace.PAIR_FORMULAS[suite].family
    expected, members = [], 0
    assert payload["range"] == {"pmax": 13, "rmax": 2}
    for p in (5, 7, 11, 13):
        for r in (1, 2):
            field = build_field(p, r)
            table = family_traces(family, field)
            members += field.q - 1
            expected += [
                (field.q, m) for m in range(1, field.q)
                if table[m] is not None and table[(-field.elem(m)).enc] is not None
            ]
    key = "lambda" if suite == "t13" else "params"
    rows = [(row["q"], row[key]) for row in payload["instances"]]
    if suite != "t13":
        rows = [(q, int(params.removeprefix("1,"))) for q, params in rows]
    assert rows == expected
    assert payload["total"] == len(expected) == 376
    assert payload["failed"] == 0
    assert payload["skipped"]["total"] == members - len(expected)


@pytest.mark.parametrize("suite", frobtrace.PAIR_THEOREMS)
def test_pair_suites_ignore_seed_and_trials(capsys, suite):
    payloads = []
    for extra in (["--seed", "0"], ["--seed", "7", "--trials", "3"]):
        code, out = run(capsys, "verify", "--suite", suite, "--pmax", "7", *extra)
        assert code == 0
        payload = json.loads(out)
        payloads.append({k: payload[k] for k in ("instances", "total", "skipped")})
    assert payloads[0] == payloads[1]


def test_verify_counts_skips_by_class(capsys, monkeypatch):
    calls = []

    def every_other_singular(inst):
        calls.append(inst)
        if len(calls) % 2:
            raise SingularCurve("injected")
        return 1, 1

    monkeypatch.setattr(frobtrace, "trace_sum_pair", every_other_singular)
    code, out = run(capsys, "verify", "--suite", "t14", "--pmax", "5", "--rmax", "1",
                    "--trials", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 2  # of the 4 members of F_5^x
    assert payload["skipped"] == {"total": 2, "by_class": {"SingularCurve": 2}}


def test_verify_evaluator_failure_is_not_a_skip(capsys, monkeypatch):
    calls = []

    def second_call_broken(inst):
        calls.append(inst)
        if len(calls) == 2:
            raise NonConstantResult("injected")
        return 1, 1

    monkeypatch.setattr(frobtrace, "trace_sum_pair", second_call_broken)
    code, out = run(capsys, "verify", "--suite", "t14", "--pmax", "5", "--rmax", "1",
                    "--trials", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "NonConstantResult"
    assert payload["skipped"]["total"] == 0


SUITE_ORDER = [
    "t13", "t14", "t15", "t16", "t17", "t18", "t19", "t110", "t111",
    "corollary", "identity-splitting", "identity-reduction", "lemmas", "oracle",
]
PAIR_ROW = ["lhs", "rhs", "pass"]
FIRST_ROW_KEYS = {
    "t13": ["suite", "q", "lambda"] + PAIR_ROW,
    **dict.fromkeys(["t14", "t15", "t16", "t17"], ["suite", "q", "params"] + PAIR_ROW),
    **dict.fromkeys(["t18", "t19", "t110", "t111"], ["suite", "p", "r", "param"] + PAIR_ROW),
    "corollary": ["suite", "item", "q"] + PAIR_ROW,
    "identity-splitting": ["suite", "q", "params", "x", "pass"],
    "identity-reduction": ["suite", "p", "d", "top", "bottom", "pass"],
    "lemmas": ["suite", "check", "q", "pass"],
    "oracle": ["suite", "check", "q", "pass"],
}


def test_suite_choices_are_the_table_keys(capsys):
    assert list(SUITES) == SUITE_ORDER
    code, out = run(capsys, "verify", "--help")
    assert code == 0
    assert "{" + ",".join(SUITE_ORDER) + "}" in out


@pytest.mark.parametrize("suite", SUITE_ORDER)
def test_verify_every_suite_small(capsys, suite):
    code, out = run(capsys, "verify", "--suite", suite, "--pmax", "7", "--rmax", "1",
                    "--trials", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0 and payload["total"] >= 1
    assert list(payload["instances"][0]) == FIRST_ROW_KEYS[suite]


# sha256 of each suite's default payload without "caches", as json.dumps
# with sorted keys, computed at commit 07fa916: a change that keeps these
# keeps every default verify output identical, caches aside
PAYLOAD_DIGESTS = {
    "t13": "ffd57357200c61008238a1bedb55d421a1fcc6af553c11b8bcaf377ce4da5c21",
    "t14": "dd5bc0bf7c0096fcfba5853ce52a5a859e3a4723213791364614d781cc11b822",
    "t15": "0af17e0a30a11c868d01f1e929550a93beae513f68b7e4ee123e350f5a4ee9c5",
    "t16": "c910d848efd1487346baae73b8730e1f185c742806fda99f282a80c4541cd04e",
    "t17": "90b65fac42e61f2c065eec8859d611bae125cc29da59903ae6e90dbd6b939176",
    "t18": "46272344416e7856a9f0d9f0b87628f4b0589652e01c7f13c4ecf392b0c0011f",
    "t19": "05f7bc33b7ccdc6bbdb2c01c8db0c2eb399495350460fcff0f68f279a5fba595",
    "t110": "12df7016f5a95a0877d65cc2bc7946d095032b363b33c8a0d60ac745eec2c0e3",
    "t111": "01655ce6387a45579e87b24ce410e762cca62ed1bfb4878e33db0f06763e620f",
    "corollary": "6103e1a9906e1af087a0ec8b4bf44af3c69a62c0af2db73dcde57353b6d26f85",
    "identity-splitting": "f2c44b1dc16d0e442216589708bd8735969c7d0c980815229efe3d678a28646e",
    "identity-reduction": "f1e11ed9b0bd4ff586e0456112b30845809f803e056602dcda28887dd0b434f2",
    "lemmas": "079c407c9b9e9347d5b439039ec1d684390cc4acfad59b37c0aa17691b8795cd",
    "oracle": "056eb969b293bcd00d7f57d7b5d6f174baaed582eff784becedc465ba47e387f",
}


@pytest.mark.parametrize("suite", SUITE_ORDER)
def test_verify_default_payload_is_pinned(capsys, suite):
    code, out = run(capsys, "verify", "--suite", suite)
    assert code == 0
    payload = json.loads(out)
    del payload["caches"]
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == PAYLOAD_DIGESTS[suite]


def test_identity_splitting_builds_no_context_at_precision_one(capsys, monkeypatch):
    # every kernel reads its digits at its own precision N, so this suite,
    # whose kernels run at N >= 3, builds no context at N = 1
    built = []
    init = padic.PadicCtx.__init__

    def recording(self, field, N):
        built.append(N)
        init(self, field, N)

    monkeypatch.setattr(padic.PadicCtx, "__init__", recording)
    gfunc._KERNELS.clear()
    padic._ring.cache_clear()
    code, _ = run(capsys, "verify", "--suite", "identity-splitting")
    assert code == 0
    assert built and 1 not in built
