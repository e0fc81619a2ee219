"""Trace-of-Frobenius formulas: each side computed independently.

The G-function side of every formula is a pair formula's G-value, read
from the cached kernel of its (formula, field) set-up: the formulas over Q
are pair formulas at particular parameters.  The trace side of the pair
formulas is read from the family tables of ffield, and that of the
formulas over Q comes from point counting: for curves over Q the F_p
trace propagates to F_{p^r} through the power-sum recurrence below.
Both sides of every formula are exact integers and must agree exactly.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import HypothesisViolation, InvariantViolation
from .ffield import (
    CurveSpec,
    FqField,
    build_field,
    family_member,
    member_trace,
    quad_char,
    trace_of_frobenius,
)
from .gfunc import _row_pairs, _value_and_lift, choose_precision, trace_bound
from .padic import _rational

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


class PairFormula(NamedTuple):
    """A pair-of-curves formula over F_q: for the members m and -m of a
    Weierstrass family, a_q(E_m) + a_q(E_-m) = sign * G(top; bottom |
    scale * m^2) + correction, sign and correction as _sign_and_correction
    states them.  A curve of the family at other coordinates is the twist
    of its member (ffield.family_member), and both sides scale by it."""

    family: str
    top: tuple
    bottom: tuple
    scale: Fraction


PAIR_FORMULAS = {
    "t13": PairFormula("legendre", TOP4, BOT_QUARTERS, Fraction(1)),
    "t14": PairFormula("a1a3", TOP4, BOT_SIXTHS, Fraction(729)),
    "t15": PairFormula("fg", TOP4, BOT_EIGHTHS, Fraction(16)),
    "t16": PairFormula("cd", TOP6, BOT6, Fraction(729, 16)),
    "t17": PairFormula("cd", TOP4, BOT_TWELFTHS, Fraction(729, 16)),
}
PAIR_THEOREMS = tuple(PAIR_FORMULAS)


class RationalTheorem(NamedTuple):
    """A formula for a curve over Q: the pair formula `pair` at the
    parameters pair_params(alpha), for the primes p with holds_at(p).  The
    pair's second curve is then defined over Q and has a_p = 0."""

    pair: str
    holds_at: Callable[[int], bool]
    pair_params: Callable[[Fraction], tuple]
    params: tuple  # the alphas the verify suite runs


RATIONAL_THEOREMS = {
    "t18": RationalTheorem(
        "t13", lambda p: p >= 5 and p % 4 == 3, lambda lam: (-lam,),
        (Fraction(2), Fraction(1, 2)),
    ),
    "t19": RationalTheorem(
        "t14", lambda p: p % 12 in (5, 11) and p != 17,
        lambda a: (a, -a**3 / 24), (Fraction(2), Fraction(3)),
    ),
    "t110": RationalTheorem(
        "t15", lambda p: p % 12 in (5, 11),
        lambda a: (a, -a**2 / 3), (Fraction(2), Fraction(3)),
    ),
    "t111": RationalTheorem(
        "t16", lambda p: p % 12 in (7, 11),
        lambda a: (a, 2 * a**3 / 27), (Fraction(2), Fraction(3)),
    ),
}


@dataclass(frozen=True)
class TheoremInstance:
    """One theorem applied to one field and one parameter tuple."""

    theorem: str
    field: FqField
    params: tuple


def _sign_and_correction(name, m, f):
    """(sign, correction) of pair formula name at its member m over f.
    Raises HypothesisViolation outside the formula's hypotheses."""
    if name == "t13":
        if m.enc in (0, 1, f.p - 1):  # -1 is encoded p - 1
            raise HypothesisViolation("lambda must avoid {0, 1, -1}")
        return 1 if f.q % 4 == 1 else -1, 0  # phi(-1)
    if name == "t16":
        return 1, -quad_char(m) - quad_char(-m)
    # t17 at q = 1 or 7 (mod 12) has sign phi(-3) = 1: there q = 1 (mod 3),
    # and -3 = (2w + 1)^2 for a primitive cube root of unity w in F_q
    if name == "t17" and not (f.q % 12 in (1, 5, 7) or f.q % 12 == 11 and f.r == 1):
        raise HypothesisViolation(f"q = {f.q} is outside the stated congruence classes")
    return 1, 0


@lru_cache(maxsize=64)
def _pair_setup(name, field):
    """(kernel key, bound, scale) of pair formula name over field, which
    depend on nothing else: its rows, checked once, at the precision that
    lifts the trace bound, and the image of its scale in field.  No G-value
    of a formula exceeds the bound: the two traces are each at most
    2*sqrt(q) in size and the correction at most 2, so
    |G| <= 2*floor(2*sqrt(q)) + 2 <= 4*isqrt(q) + 4."""
    formula = PAIR_FORMULAS[name]
    bound = trace_bound(field.q)
    N = choose_precision(field.q, bound)
    key = (*_row_pairs(formula.top, formula.bottom, field.p), field, N)
    return key, bound, field.from_rational(formula.scale)


def _pair_g(name, m, field):
    """The integer G-value of pair formula name at its member m over field:
    G(top; bottom | scale * m^2) from the cached kernel of _pair_setup."""
    key, bound, scale = _pair_setup(name, field)
    return _value_and_lift(key, scale * m * m, bound)[1]


def trace_sum_pair(inst: TheoremInstance):
    """(lhs, rhs) of the pair-of-curves trace formulas, both exact.

    The curve at inst.params is the twist of its family member m, so both
    sides are the twist times those at m: lhs the table entries of the
    members m and -m, which also reject a singular member, and rhs the
    sign times the G-value at scale * m^2 (_pair_g) plus the correction.
    """
    if inst.theorem not in PAIR_FORMULAS:
        raise ValueError(f"unknown pair theorem {inst.theorem!r}")
    f = inst.field
    family = PAIR_FORMULAS[inst.theorem].family
    m, twist = family_member(CurveSpec.of(family, *inst.params), f)
    sign, correction = _sign_and_correction(inst.theorem, m, f)
    lhs = member_trace(family, m, f) + member_trace(family, -m, f)
    g = _pair_g(inst.theorem, m, f)
    return twist * lhs, twist * (sign * g + correction)


def trace_power(ap: int, p: int, r: int) -> int:
    """The F_{p^r} point-count trace from the F_p trace (good reduction).

    This is the power sum alpha^r + beta^r of the two Frobenius
    eigenvalues: the recurrence s_r = a_p s_{r-1} - p s_{r-2} seeded with
    s_0 = 2 and s_1 = a_p.  The L-series coefficients obey the same
    recurrence seeded with 1 instead of 2 and differ from r = 2 on; point
    counts follow the power sums.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    prev, cur = 2, ap
    for _ in range(r - 1):
        prev, cur = cur, ap * cur - p * prev
    return cur


def _rational_pair(theorem, alpha, p):
    """The pair formula that a rational theorem at alpha reduces to at the
    prime p, and that formula's rational parameters."""
    if theorem not in RATIONAL_THEOREMS:
        raise ValueError(f"unknown rational-curve theorem {theorem!r}")
    pair, holds_at, pair_params, _ = RATIONAL_THEOREMS[theorem]
    alpha = _rational(alpha)
    if theorem == "t18" and alpha not in (Fraction(2), Fraction(1, 2)):
        raise HypothesisViolation("lambda must be 2 or 1/2")
    if not holds_at(p):
        raise HypothesisViolation(f"p = {p} is outside the primes of {theorem}")
    if any(x % p == 0 for x in alpha.as_integer_ratio()):
        raise HypothesisViolation("requires ord_p(alpha) = 0")
    return pair, pair_params(alpha)


def _rational_sides(theorem, p, r, alpha):
    """(g_int, prefactor, correction, counted, partner) of a rational
    formula over F_{p^r}: counted + partner = prefactor * g_int + correction,
    counted and partner the traces of the curve and of its partner.

    counted is the direct point count over F_{p^r}, cross-checked against
    trace_power applied to the F_p count; partner is trace_power of the
    partner's F_p trace, which the formula requires to be 0.
    """
    field = build_field(p, r)
    base = build_field(p, 1)
    pair, params = _rational_pair(theorem, alpha, p)
    family = PAIR_FORMULAS[pair].family

    def curves(f):  # the pair's two curves over f: the second at member -m
        *head, last = (f.from_rational(x) for x in params)
        return CurveSpec.of(family, *head, last), CurveSpec.of(family, *head, -last)

    curve, _ = curves(field)
    m, twist = family_member(curve, field)
    sign, correction = _sign_and_correction(pair, m, field)
    curve_p, partner_p = curves(base)
    g_int = _pair_g(pair, m, field)
    counted = trace_of_frobenius(curve, field)
    ap = trace_of_frobenius(curve_p, base)
    if counted != trace_power(ap, p, r):
        raise InvariantViolation("power-sum recurrence broken")
    ap_partner = trace_of_frobenius(partner_p, base)
    if ap_partner != 0:
        raise HypothesisViolation(
            f"partner curve has a_p = {ap_partner} != 0 at p = {p}"
        )
    partner = trace_power(ap_partner, p, r)
    return g_int, twist * sign, twist * correction, counted, partner


def rational_curve_trace(theorem: str, p: int, r: int, param):
    """(predicted, counted) for the curves defined over Q.

    predicted is the pair formula less the trace of the partner curve over
    F_{p^r}; counted is the direct point count over F_{p^r}.
    """
    g_int, prefactor, correction, counted, partner = _rational_sides(
        theorem, p, r, param
    )
    return prefactor * g_int + correction - partner, counted


# (label, theorem, p, alpha) of the four headline G-values, each a rational
# formula over F_{p^3}
_HEADLINE_ROWS = (
    ("quarters@4", "t18", 11, Fraction(2)),
    ("sixths@81/64", "t19", 11, Fraction(2)),
    ("eighths@16/9", "t110", 5, Fraction(3)),
    ("sixth-order@1/4", "t111", 11, Fraction(3)),
)


def corollary_g_values():
    """The four headline G-values, each checked against the trace route.

    Every expected integer is derived on the spot from point counts by
    solving its rational formula for G (the prefactor is a sign), never
    hard-coded here.
    """
    report = []
    for label, theorem, p, alpha in _HEADLINE_ROWS:
        got, prefactor, correction, counted, partner = _rational_sides(
            theorem, p, 3, alpha
        )
        expect = prefactor * (counted - correction + partner)
        report.append(
            {
                "item": label,
                "q": p**3,
                "value": got,
                "expected_from_counts": expect,
                "ok": got == expect,
            }
        )
    return report
