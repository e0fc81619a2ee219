"""Trace-of-Frobenius formulas: each side computed independently.

The G-function side goes through the evaluator.  The trace side of the
pair formulas is read from the family tables of ffield, and that of the
formulas over Q comes from point counting: for curves over Q the F_p
trace propagates to F_{p^r} through the two power-sum recurrences below.
Both sides of every formula are exact integers and must agree exactly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DenominatorDivisibleByP, HypothesisViolation, InvariantViolation
from .ffield import (
    CurveSpec,
    FqElem,
    FqField,
    build_field,
    family_trace,
    quad_char,
    trace_of_frobenius,
)
from .gfunc import GParams, PadicCtx, choose_precision, evaluate_G, trace_bound

HALF = Fraction(1, 2)
TOP4 = (Fraction(0), HALF, Fraction(0), HALF)
TOP6 = TOP4 + (Fraction(1, 4), Fraction(3, 4))
BOT_QUARTERS = (Fraction(1, 4), Fraction(3, 4), Fraction(1, 4), Fraction(3, 4))
BOT_SIXTHS = (Fraction(1, 6), Fraction(1, 3), Fraction(2, 3), Fraction(5, 6))
BOT_EIGHTHS = (Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8))
BOT_TWELFTHS = (Fraction(1, 12), Fraction(5, 12), Fraction(7, 12), Fraction(11, 12))
BOT6 = (
    Fraction(1, 12), Fraction(1, 4), Fraction(5, 12),
    Fraction(7, 12), Fraction(3, 4), Fraction(11, 12),
)

PAIR_THEOREMS = ("t13", "t14", "t15", "t16", "t17")
RATIONAL_THEOREMS = ("t18", "t19", "t110", "t111")


def ordp(x, p: int):
    """p-adic valuation of an exact rational; infinity at 0."""
    x = Fraction(x)
    if x == 0:
        return math.inf

    def v(n):
        n = abs(n)
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        return e

    return v(x.numerator) - v(x.denominator)


@dataclass(frozen=True)
class RationalModP:
    """An exact rational together with its reduction to F_q."""

    value: Fraction
    reduced: FqElem

    @staticmethod
    def reduce(x, field: FqField) -> "RationalModP":
        x = Fraction(x)
        if ordp(x, field.p) < 0:
            raise DenominatorDivisibleByP(
                f"{x} has negative valuation at {field.p}"
            )
        return RationalModP(x, field.from_rational(x))


@dataclass(frozen=True)
class TheoremInstance:
    """One theorem applied to one field and one parameter tuple."""

    theorem: str
    field: FqField
    params: tuple


def _g_integer(field, top, bottom, arg, extra_bound=0):
    bound = trace_bound(field.q) + extra_bound
    ctx = PadicCtx(field, choose_precision(field.q, bound))
    return evaluate_G(GParams(top, bottom, arg), field, ctx, bound=bound).integer


def trace_sum_pair(inst: TheoremInstance):
    """(lhs, rhs) of the pair-of-curves trace formulas, both exact.

    lhs sums the two curves' traces, read from their family's table; rhs
    is the stated prefactor times the G-value (plus the additive
    correction where the formula carries one).
    """
    f = inst.field
    name = inst.theorem
    correction = 0
    if name == "t13":
        (lam,) = inst.params
        if lam.is_zero() or lam == f.one or lam == -f.one:
            raise HypothesisViolation("lambda must avoid {0, 1, -1}")
        curves = (CurveSpec.legendre(lam), CurveSpec.legendre(-lam))
        top, bottom, arg = TOP4, BOT_QUARTERS, lam * lam
        prefactor = quad_char(f.from_int(-1))
    elif name == "t14":
        a1, a3 = inst.params
        curves = (CurveSpec.a1a3(a1, a3), CurveSpec.a1a3(a1, -a3))
        top, bottom = TOP4, BOT_SIXTHS
        arg = f.from_int(729) * a3 * a3 * (a1**-6)
        prefactor = 1
    elif name == "t15":
        fcoef, gcoef = inst.params
        curves = (CurveSpec.fg(fcoef, gcoef), CurveSpec.fg(fcoef, -gcoef))
        top, bottom = TOP4, BOT_EIGHTHS
        arg = f.from_int(16) * gcoef * gcoef * (fcoef**-4)
        prefactor = quad_char(fcoef)
    elif name == "t16":
        c, d = inst.params
        curves = (CurveSpec.cd(c, d), CurveSpec.cd(c, -d))
        top, bottom = TOP6, BOT6
        arg = f.from_int(729) * d * d * (f.from_int(16) * c**6) ** -1
        prefactor = quad_char(c)
        correction = -quad_char(d) - quad_char(-d)
    elif name == "t17":
        c, d = inst.params
        curves = (CurveSpec.cd(c, d), CurveSpec.cd(c, -d))
        top, bottom = TOP4, BOT_TWELFTHS
        arg = f.from_int(729) * d * d * (f.from_int(16) * c**6) ** -1
        qm = f.q % 12
        if qm in (1, 7):
            prefactor = quad_char(-f.from_int(3) * c)
        elif qm == 5:
            prefactor = quad_char(c)
        elif qm == 11 and f.r == 1:
            prefactor = quad_char(c)
        else:
            raise HypothesisViolation(
                f"q = {f.q} is outside the stated congruence classes"
            )
    else:
        raise ValueError(f"unknown pair theorem {inst.theorem!r}")

    lhs = sum(family_trace(c, f) for c in curves)
    rhs = prefactor * _g_integer(f, top, bottom, arg) + correction
    return lhs, rhs


def frobenius_power_series(ap: int, p: int, good: bool, r: int) -> int:
    """The prime-power L-series coefficient by the two-term recurrence
    seeded with a_1 = 1."""
    if r < 1:
        raise ValueError("r must be >= 1")
    prev, cur = 1, ap
    for _ in range(r - 1):
        prev, cur = cur, ap * cur - (p if good else 0) * prev
    return cur


def trace_power(ap: int, p: int, r: int) -> int:
    """The F_{p^r} point-count trace from the F_p trace (good reduction).

    This is the power sum of the two Frobenius eigenvalues, so the same
    recurrence as frobenius_power_series but seeded with 2 = alpha^0 +
    beta^0.  The two sequences differ from r = 2 on; point counts follow
    this one.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    prev, cur = 2, ap
    for _ in range(r - 1):
        prev, cur = cur, ap * cur - p * prev
    return cur


def _parity_correction(p: int, r: int) -> int:
    """Trace of the zero-a_p partner curve over F_{p^r}: 0 for odd r,
    2*(-p)^(r/2) for even r.  Subtracted from the pair sum."""
    if r % 2:
        return 0
    return 2 * (-p) ** (r // 2)


def rational_curve_trace(theorem: str, p: int, r: int, param):
    """(predicted, counted) for the curves defined over Q.

    predicted combines the G-value formula with the parity correction;
    counted is the direct point count over F_{p^r}.  The count is also
    cross-checked against trace_power applied to the F_p count.
    """
    field = build_field(p, r)
    base = build_field(p, 1)

    if theorem == "t18":
        lam = Fraction(param)
        if lam not in (Fraction(2), Fraction(1, 2)):
            raise HypothesisViolation("lambda must be 2 or 1/2")
        if p < 5 or p % 4 != 3:
            raise HypothesisViolation("requires p >= 5 and p = 3 mod 4")
        curve = lambda fld: CurveSpec.legendre(fld.from_rational(-lam))
        partner = lambda fld: CurveSpec.legendre(fld.from_rational(lam))
        top, bottom = TOP4, BOT_QUARTERS
        arg = field.from_rational(lam * lam)
        prefactor = quad_char(field.from_int(-1))
        correction = 0
    elif theorem == "t19":
        alpha = Fraction(param)
        if p % 12 not in (5, 11):
            raise HypothesisViolation("requires p = 5, 11 mod 12")
        if p == 17:
            raise HypothesisViolation("p = 17 is excluded")
        if ordp(alpha, p) != 0:
            raise HypothesisViolation("requires ord_p(alpha) = 0")
        a3 = alpha**3 / 24
        curve = lambda fld: CurveSpec.a1a3(
            fld.from_rational(alpha), fld.from_rational(-a3)
        )
        partner = lambda fld: CurveSpec.a1a3(
            fld.from_rational(alpha), fld.from_rational(a3)
        )
        top, bottom = TOP4, BOT_SIXTHS
        arg = field.from_rational(Fraction(81, 64))
        prefactor = 1
        correction = 0
    elif theorem == "t110":
        alpha = Fraction(param)
        if p % 12 not in (5, 11):
            raise HypothesisViolation("requires p = 5, 11 mod 12")
        if ordp(alpha, p) != 0:
            raise HypothesisViolation("requires ord_p(alpha) = 0")
        g2 = alpha**2 / 3
        curve = lambda fld: CurveSpec.fg(
            fld.from_rational(alpha), fld.from_rational(-g2)
        )
        partner = lambda fld: CurveSpec.fg(
            fld.from_rational(alpha), fld.from_rational(g2)
        )
        top, bottom = TOP4, BOT_EIGHTHS
        arg = field.from_rational(Fraction(16, 9))
        prefactor = quad_char(field.from_rational(alpha))
        correction = 0
    elif theorem == "t111":
        alpha = Fraction(param)
        if p % 12 not in (7, 11):
            raise HypothesisViolation("requires p = 7, 11 mod 12")
        if ordp(alpha, p) != 0:
            raise HypothesisViolation("requires ord_p(alpha) = 0")
        d2 = 2 * alpha**3 / 27
        curve = lambda fld: CurveSpec.cd(
            fld.from_rational(alpha), fld.from_rational(d2)
        )
        partner = lambda fld: CurveSpec.cd(
            fld.from_rational(alpha), fld.from_rational(-d2)
        )
        top, bottom = TOP6, BOT6
        arg = field.from_rational(Fraction(1, 4))
        prefactor = quad_char(field.from_rational(alpha))
        six_alpha = 6 * alpha
        correction = -quad_char(field.from_rational(six_alpha)) - quad_char(
            field.from_rational(-six_alpha)
        )
    else:
        raise ValueError(f"unknown rational-curve theorem {theorem!r}")

    g_int = _g_integer(field, top, bottom, arg, extra_bound=4)
    predicted = prefactor * g_int + correction - _parity_correction(p, r)

    counted = trace_of_frobenius(curve(field), field)
    ap = trace_of_frobenius(curve(base), base)
    if counted != trace_power(ap, p, r):
        raise InvariantViolation("power-sum recurrence broken")
    ap_partner = trace_of_frobenius(partner(base), base)
    if ap_partner != 0:
        raise HypothesisViolation(
            f"partner curve has a_p = {ap_partner} != 0 at p = {p}"
        )
    return predicted, counted


def corollary_g_values():
    """The four headline G-values, each checked against the trace route.

    Every expected integer is derived on the spot from an F_p point
    count pushed through trace_power, never hard-coded here.
    """
    report = []

    def emit(label, field, top, bottom, arg, expect):
        got = _g_integer(field, top, bottom, arg, extra_bound=4)
        report.append(
            {
                "item": label,
                "q": field.q,
                "value": got,
                "expected_from_counts": expect,
                "ok": got == expect,
            }
        )

    # (1) q = 11^3, argument 4: trace route through the Legendre pair
    f = build_field(11, 3)
    base = build_field(11, 1)
    ap = trace_of_frobenius(CurveSpec.legendre(base.from_int(-2)), base)
    expect = quad_char(f.from_int(-1)) * trace_power(ap, 11, 3)
    emit("quarters@4", f, TOP4, BOT_QUARTERS, f.from_int(4), expect)

    # (2) q = 11^3, argument 81/64: the a1/a3 cubic pair
    ap = trace_of_frobenius(
        CurveSpec.a1a3(base.from_int(2), -base.from_rational(Fraction(1, 3))),
        base,
    )
    emit(
        "sixths@81/64", f, TOP4, BOT_SIXTHS,
        f.from_rational(Fraction(81, 64)), trace_power(ap, 11, 3),
    )

    # (3) q = 5^3, argument 16/9: the quartic-free pair with alpha = 3
    f125 = build_field(5, 3)
    base5 = build_field(5, 1)
    ap = trace_of_frobenius(
        CurveSpec.fg(base5.from_int(3), base5.from_int(-3)), base5
    )
    expect = quad_char(f125.from_int(3)) * trace_power(ap, 5, 3)
    emit(
        "eighths@16/9", f125, TOP4, BOT_EIGHTHS,
        f125.from_rational(Fraction(16, 9)), expect,
    )

    # (4) q = 11^3, argument 1/4: the c/d form with alpha = 3
    ap = trace_of_frobenius(
        CurveSpec.cd(base.from_int(3), base.from_int(2)), base
    )
    expect = quad_char(f.from_int(3)) * (
        trace_power(ap, 11, 3)
        + quad_char(f.from_int(18))
        + quad_char(f.from_int(-18))
    )
    emit("sixth-order@1/4", f, TOP6, BOT6, f.from_rational(Fraction(1, 4)), expect)
    return report
