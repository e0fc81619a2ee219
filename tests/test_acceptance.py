"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Every expected number here is either computed on the spot by an
independent route (brute-force point counts pushed through the
power-sum recurrence, complex character sums) or frozen after being
derived that way.  Two assertions are marked strict-xfail: they pin
constants that follow the a_1 = 1 recurrence seed, which direct point
counting refutes; see the accompanying passing tests for the values the
trace identities actually force.
"""

import random
import time
from fractions import Fraction

import pytest

from padic_hg import charsum, padic
from padic_hg.errors import PadicHGError
from padic_hg.ffield import CurveSpec, build_field, quad_char, trace_of_frobenius
from padic_hg.frobtrace import (
    TheoremInstance,
    corollary_g_values,
    rational_curve_trace,
    trace_sum_pair,
)
from padic_hg.gfunc import (
    GParams,
    PadicCtx,
    check_reduction_identity,
    check_splitting_identity,
    choose_precision,
    evaluate_G,
    trace_bound,
)

HALF = Fraction(1, 2)


def _announce(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


# -- criterion 1: headline G-values at q = 1331 / 125 -----------------------

def test_criterion_1_headline_g_values():
    started = time.perf_counter()
    report = corollary_g_values()
    elapsed = time.perf_counter() - started
    values = {item["item"]: item["value"] for item in report}
    ok = (
        all(item["ok"] for item in report)
        and values["quarters@4"] == 68
        and values["sixths@81/64"] == -72
        and values["eighths@16/9"] == -22
        and values["sixth-order@1/4"] == -58
        and elapsed < 4 * 5.0
    )
    _announce(
        "criterion-1 headline values",
        ok,
        f"values={values} elapsed={elapsed:.2f}s",
    )


@pytest.mark.xfail(
    strict=True,
    reason="these constants follow the a_1 = 1 recurrence seed; honest point "
    "counts force the power-sum seed 2 and the values 68, -72, -22, -58 "
    "asserted above",
)
def test_criterion_1_recurrence_seeded_constants():
    values = {item["item"]: item["value"] for item in corollary_g_values()}
    f1331 = build_field(11, 3)
    f125 = build_field(5, 3)
    stated = {
        "quarters@4": -24 * quad_char(f1331.from_int(-1)),
        "sixths@81/64": -39,
        "eighths@16/9": 12 * quad_char(f125.from_int(3)),
        "sixth-order@1/4": -36 * quad_char(f1331.from_int(3))
        + quad_char(f1331.from_int(6))
        + quad_char(f1331.from_int(-6)),
    }
    assert values == stated


# -- criterion 2: Legendre-pair suite ----------------------------------------

def test_criterion_2_legendre_pair_suite():
    started = time.perf_counter()
    checked = 0
    failures = []
    for p in (5, 7, 11, 13):
        for r in (1, 2):
            field = build_field(p, r)
            for v in range(2, field.q):
                lam = field.elem(v)
                if lam == field.one or lam == -field.one:
                    continue
                lhs, rhs = trace_sum_pair(TheoremInstance("t13", field, (lam,)))
                if lhs != rhs:
                    failures.append((field.q, v, lhs, rhs))
                checked += 1
    elapsed = time.perf_counter() - started
    # every admissible lambda over the eight fields: sum of (q - 3)
    ok = not failures and checked == 376 and elapsed < 120
    _announce(
        "criterion-2 legendre pairs",
        ok,
        f"instances={checked} failures={failures[:3]} elapsed={elapsed:.1f}s",
    )


# -- criterion 3: the other pair theorems, random parameters -----------------

def test_criterion_3_pair_theorem_suites():
    rng = random.Random(2024)
    failures = []
    checked = 0
    cross_checked = 0
    for p in (5, 7, 11, 13):
        for r in (1, 2):
            field = build_field(p, r)
            for name in ("t14", "t15", "t16", "t17"):
                done = 0
                attempts = 0
                while done < 30 and attempts < 400:
                    attempts += 1
                    x = field.elem(rng.randrange(1, field.q))
                    y = field.elem(rng.randrange(1, field.q))
                    try:
                        lhs, rhs = trace_sum_pair(
                            TheoremInstance(name, field, (x, y))
                        )
                    except PadicHGError:
                        continue
                    if lhs != rhs:
                        failures.append((name, field.q, x.encode(), y.encode()))
                    done += 1
                    checked += 1
                    # cross-check the two c/d formulas wherever both apply
                    if name == "t16":
                        try:
                            lhs4, rhs4 = trace_sum_pair(
                                TheoremInstance("t17", field, (x, y))
                            )
                        except PadicHGError:
                            continue
                        if not lhs == lhs4 == rhs == rhs4:
                            failures.append(("t16/t17", field.q, x.encode(), y.encode()))
                        cross_checked += 1
    ok = not failures and checked >= 8 * 4 * 25 and cross_checked > 50
    _announce(
        "criterion-3 pair theorems",
        ok,
        f"instances={checked} cross={cross_checked} failures={failures[:3]}",
    )


# -- criterion 4: curves over Q, all prime powers ----------------------------

def test_criterion_4_rational_curve_suites():
    cases = {
        "t18": ([7, 11, 19, 23], [Fraction(2), Fraction(1, 2)]),
        "t19": ([5, 11, 23], [Fraction(2), Fraction(3)]),
        "t110": ([5, 11, 17, 23], [Fraction(2), Fraction(3)]),
        "t111": ([7, 11, 19, 23], [Fraction(2), Fraction(3)]),
    }
    partner_makers = {
        "t18": lambda fld, lam: CurveSpec.legendre(fld.from_rational(lam)),
        "t19": lambda fld, a: CurveSpec.a1a3(
            fld.from_rational(a), fld.from_rational(a**3 / 24)
        ),
        "t110": lambda fld, a: CurveSpec.fg(
            fld.from_rational(a), fld.from_rational(a**2 / 3)
        ),
        "t111": lambda fld, a: CurveSpec.cd(
            fld.from_rational(a), fld.from_rational(-2 * a**3 / 27)
        ),
    }
    failures = []
    checked = 0
    for name, (primes, params) in cases.items():
        for p in primes:
            base = build_field(p, 1)
            for param in params:
                # the zero-trace partner is what the parity correction encodes
                ap0 = trace_of_frobenius(partner_makers[name](base, param), base)
                if ap0 != 0:
                    failures.append((name, p, "partner a_p", ap0))
                for r in (1, 2, 3):
                    try:
                        predicted, counted = rational_curve_trace(name, p, r, param)
                    except PadicHGError:
                        continue
                    if predicted != counted:
                        failures.append((name, p, r, str(param), predicted, counted))
                    checked += 1
    ok = not failures and checked >= 80
    _announce(
        "criterion-4 rational curves",
        ok,
        f"instances={checked} failures={failures[:3]}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="a single (-p)^(r/2) correction at even r corresponds to the "
    "a_1 = 1 recurrence seed; the counted trace needs twice that (the "
    "partner curve's power-sum trace)",
)
def test_criterion_4_single_parity_coefficient():
    field = build_field(7, 2)
    ctx = PadicCtx(field, choose_precision(49, trace_bound(49)))
    g = evaluate_G(
        GParams(
            (Fraction(0), HALF, Fraction(0), HALF),
            (Fraction(1, 4), Fraction(3, 4), Fraction(1, 4), Fraction(3, 4)),
            field.from_int(4),
        ),
        field, ctx, bound=trace_bound(49),
    ).integer
    counted = trace_of_frobenius(CurveSpec.legendre(field.from_int(-2)), field)
    predicted_single = -(-7) ** 1 + quad_char(field.from_int(-1)) * g
    assert predicted_single == counted


# -- criterion 5: the two structural identities ------------------------------

def test_criterion_5_identity_suites():
    rng = random.Random(5)
    denoms = (1, 2, 3, 4, 6)
    fields = [build_field(5, 2), build_field(7, 2), build_field(11, 2)]
    split_failures = 0
    for i in range(100):
        field = fields[i % len(fields)]
        ctx = PadicCtx(field, 3)
        coeffs = []
        while len(coeffs) < 4:
            d = rng.choice(denoms)
            if d > 1 and ((field.q - 1) % d or field.p % d == 0):
                continue
            coeffs.append(Fraction(rng.randrange(d), d))
        x = field.elem(rng.randrange(1, field.q))
        if not check_splitting_identity(*coeffs, x, field, ctx):
            split_failures += 1

    reduction_failures = 0
    reduction_checked = 0
    pair_denoms = (1, 2, 3, 4, 6, 8, 12)
    for p, d in ((5, 3), (5, 6), (7, 4), (11, 4), (11, 12)):
        field = build_field(p, 1)
        for _ in range(8):
            n = rng.choice((1, 2))
            tops, bots = [], []
            while len(tops) < n:
                dd = rng.choice(pair_denoms)
                if dd % p == 0:
                    continue
                tops.append(Fraction(rng.randrange(dd), dd))
            while len(bots) < n:
                dd = rng.choice(pair_denoms)
                if dd % p == 0:
                    continue
                bots.append(Fraction(rng.randrange(dd), dd))
            t = field.elem(rng.randrange(1, p))
            if not check_reduction_identity(tops, bots, d, t, p, N=3):
                reduction_failures += 1
            reduction_checked += 1
    ok = split_failures == 0 and reduction_failures == 0 and reduction_checked == 40
    _announce(
        "criterion-5 identities",
        ok,
        f"splitting=100-{split_failures} reduction={reduction_checked}-{reduction_failures}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="appending the pair (1/2, 1/2) changes the summand at index "
    "(p-1)/2, where the appended offset 1/d lies on the summation grid; "
    "that happens exactly when d divides p-1, so d = 2 is the one broken "
    "case of the reduction identity",
)
def test_criterion_5_reduction_pair_d2():
    field = build_field(5, 1)
    rng = random.Random(52)
    results = []
    for _ in range(6):
        tops = [Fraction(rng.randrange(4), 4)]
        bots = [Fraction(rng.randrange(3), 3)]
        t = field.elem(rng.randrange(1, 5))
        results.append(check_reduction_identity(tops, bots, 2, t, 5, N=3))
    assert all(results)


# -- criterion 6: gamma-function lemma suites --------------------------------

def test_criterion_6_lemma_suites():
    failures = []

    def check(label, ok):
        if not ok:
            failures.append(label)

    for p, r in ((5, 2), (3, 3), (7, 2), (11, 2)):
        field = build_field(p, r)
        q = field.q
        ctx = PadicCtx(field, 3)
        check(f"reflection q={q}", all(
            padic.reflection_check(Fraction(k, q - 1), ctx) for k in range(q - 1)
        ))
        check(f"product-formula q={q}", all(
            padic.product_formula_check(Fraction(k, q - 1), m, ctx, field)
            for m in (1, 2, 3, 4, 6) if m % p
            for k in range(q - 1)
        ))
        check(f"downshift q={q}", all(
            padic.gamma_product_downshift_check(t, a, ctx, field)
            for t in (2, 3, 4, 6) if t % p
            for a in range(q - 1)
        ))
        check(f"upshift q={q}", all(
            padic.gamma_product_upshift_check(t, a, ctx, field)
            for t in (2, 3, 4, 6) if t % p
            for a in range(q - 1)
        ))
        check(f"complement q={q}", all(
            padic.gamma_complement_product_check(a, ctx) for a in range(1, q - 1)
        ))
        check(f"half-shift q={q}", all(
            padic.gamma_half_shift_check(a, ctx)
            for a in range(q - 1) if a != (q - 1) // 2
        ))
        check(f"floor-neg q={q}", all(
            padic.floor_negative_multiple_check(d, a, i, p, q)
            for d in (2, 3, 4, 6, 8, 12) if d % p
            for a in range(1, q - 1) for i in range(r)
        ))
        check(f"floor-pos q={q}", all(
            padic.floor_positive_multiple_check(L, a, i, p, q)
            for L in (2, 3, 4, 6, 8, 12) if L % p
            for a in range(q - 1) for i in range(r)
        ))
        check(f"floor-halving q={q}", all(
            padic.floor_halving_check(Fraction(m, d), j, i, p, q)
            for d in (2, 3, 4, 6, 8, 12) if d % p
            for m in range(d) for j in range(q - 1) for i in range(r)
        ))
    for p, r in ((5, 2), (7, 2), (11, 2), (13, 2)):
        field = build_field(p, r)
        q = field.q
        ctx = PadicCtx(field, 3)
        excluded = {(q - 1) // 4, 3 * (q - 1) // 4}
        check(f"quarter-product q={q}", all(
            padic.quarter_gamma_product_check(n, ctx)
            for n in range(q - 1) if n not in excluded
        ))
    for p, d in ((11, 4), (11, 12), (5, 3), (5, 6), (7, 4)):
        ctx = PadicCtx(build_field(p, 1), 3)
        check(f"dth-root p={p} d={d}", all(
            padic.dth_root_gamma_quotient_check(d, n, ctx) for n in range(p - 1)
        ))
    _announce("criterion-6 lemma suites", not failures, f"failures={failures}")


# -- criterion 7: independent oracles ----------------------------------------

def test_criterion_7_oracle_suites():
    failures = []

    def check(label, ok):
        if not ok:
            failures.append(label)

    for p, r in ((13, 1), (5, 2)):
        field = build_field(p, r)
        q = field.q
        check(f"conjugate-product q={q}", all(
            abs(
                charsum.gauss_sum(k, field) * charsum.gauss_sum(-k, field)
                - (q * (-1) ** k - (q - 1) * (k == 0))
            ) <= 1e-5 * q
            for k in range(q - 1)
        ))
        check(f"davenport-hasse q={q}", all(
            charsum.davenport_hasse_check(m, s, field)
            for m in (2, 3, 4, 6) for s in range(q - 1)
        ))
        phi = (q - 1) // 2
        sign = quad_char(field.from_int(-1))
        koike_ok = True
        for v in range(2, q):
            lam = field.elem(v)
            if lam == field.one or lam == -field.one:
                continue
            z = -q * sign * charsum.greene_F((phi, phi), (0,), lam, field)
            aq = trace_of_frobenius(CurveSpec.legendre(lam), field)
            if round(z.real) != aq or abs(z.real - aq) > 1e-4 or abs(z.imag) > 1e-4:
                koike_ok = False
        check(f"koike q={q}", koike_ok)
    for p, r in ((5, 2), (3, 3)):
        field = build_field(p, r)
        q = field.q
        ctx = PadicCtx(field, 3)
        check(f"gross-koblitz q={q}", all(
            charsum.gross_koblitz_jacobi_check(a, b, field, ctx)
            for a in range(1, q - 1) for b in range(1, q - 1)
            if (a + b) % (q - 1)
        ))
    _announce("criterion-7 oracles", not failures, f"failures={failures}")
