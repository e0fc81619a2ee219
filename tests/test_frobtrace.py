import random
from collections import Counter
from fractions import Fraction

import pytest

from padic_hg import frobtrace, gfunc
from padic_hg.cli import PRIMES
from padic_hg.errors import HypothesisViolation, PadicHGError, SingularCurve
from padic_hg.ffield import CurveSpec, build_field, quad_char, trace_of_frobenius
from padic_hg.frobtrace import (
    RATIONAL_THEOREMS,
    TheoremInstance,
    _rational_sides,
    corollary_g_values,
    rational_curve_trace,
    trace_power,
    trace_sum_pair,
)
from oracles import frobenius_power_series, trace_sum_pair_per_instance


def test_frobenius_power_series_examples():
    assert frobenius_power_series(0, 7, True, 2) == -7
    for r in (1, 3, 5, 7):
        assert frobenius_power_series(0, 11, True, r) == 0
    for r in (2, 4, 6):
        assert frobenius_power_series(0, 11, True, r) == (-11) ** (r // 2)
    assert frobenius_power_series(4, 11, True, 3) == 4 * (4 * 4 - 11) - 11 * 4
    assert frobenius_power_series(4, 11, True, 3) == -24
    assert frobenius_power_series(3, 5, False, 3) == 27


def test_trace_power_matches_counts():
    # the power-sum propagation must reproduce honest point counts
    base = build_field(11, 1)
    curve = CurveSpec.legendre(base.from_int(-2))
    ap = trace_of_frobenius(curve, base)
    assert ap == 4
    for r in (2, 3):
        ext = build_field(11, r)
        counted = trace_of_frobenius(CurveSpec.legendre(ext.from_int(-2)), ext)
        assert counted == trace_power(ap, 11, r)
    assert trace_power(4, 11, 2) == 4 * 4 - 2 * 11
    assert trace_power(0, 7, 2) == -14


def test_t13_small_example():
    field = build_field(5, 1)
    inst = TheoremInstance("t13", field, (field.from_int(2),))
    lhs, rhs = trace_sum_pair(inst)
    assert lhs == rhs == 0


@pytest.mark.parametrize("p,r", [(13, 1), (5, 2)])
def test_t13_exhaustive(p, r):
    field = build_field(p, r)
    for v in range(2, field.q):
        lam = field.elem(v)
        if lam == field.one or lam == -field.one:
            continue
        lhs, rhs = trace_sum_pair(TheoremInstance("t13", field, (lam,)))
        assert lhs == rhs


def _outcome(route, inst):
    """route(inst), or the class name of the package error it raised."""
    try:
        return route(inst)
    except PadicHGError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (7, 2)])
def test_pair_instances_match_the_per_instance_route(p, r):
    # every lambda of t13 and every (x, y) of t14-t17, zeros included: the
    # same sides, or the same error class, as the statement per parameter
    # pair (over F_9, HypothesisViolation before DenominatorDivisibleByP)
    field = build_field(p, r)
    elems = list(map(field.elem, range(field.q)))
    instances = [TheoremInstance("t13", field, (lam,)) for lam in elems]
    instances += [TheoremInstance(name, field, (x, y))
                  for name in frobtrace.PAIR_THEOREMS[1:] for x in elems for y in elems]
    outcomes = Counter()
    for inst in instances:
        expected = _outcome(trace_sum_pair_per_instance, inst)
        assert _outcome(trace_sum_pair, inst) == expected, inst
        outcomes[expected if isinstance(expected, str) else "sides"] += 1
    for outcome in ("sides", HypothesisViolation.__name__, SingularCurve.__name__):
        assert outcomes[outcome] > 0


def test_t13_hypothesis():
    field = build_field(5, 1)
    with pytest.raises(HypothesisViolation):
        trace_sum_pair(TheoremInstance("t13", field, (field.one,)))
    with pytest.raises(HypothesisViolation):
        trace_sum_pair(TheoremInstance("t13", field, (-field.one,)))


@pytest.mark.parametrize("name,p,r", [
    ("t14", 7, 1), ("t14", 5, 2),
    ("t15", 5, 1), ("t15", 7, 2),
    ("t16", 7, 1), ("t16", 5, 2),
])
def test_pair_theorems_random(name, p, r):
    from padic_hg.errors import PadicHGError

    field = build_field(p, r)
    rng = random.Random(hash((name, p, r)) & 0xFFFF)
    done = 0
    while done < 8:
        x = field.elem(rng.randrange(1, field.q))
        y = field.elem(rng.randrange(1, field.q))
        try:
            lhs, rhs = trace_sum_pair(TheoremInstance(name, field, (x, y)))
        except PadicHGError:
            continue
        assert lhs == rhs
        done += 1


def test_t17_part3_prime_field():
    from padic_hg.errors import PadicHGError

    field = build_field(11, 1)
    rng = random.Random(4)
    checked = 0
    for _ in range(12):
        c = field.elem(rng.randrange(1, 11))
        d = field.elem(rng.randrange(1, 11))
        try:
            lhs, rhs = trace_sum_pair(TheoremInstance("t17", field, (c, d)))
        except PadicHGError:
            continue
        assert lhs == rhs
        checked += 1
    assert checked >= 3


def test_t17_rejects_uncovered_congruence():
    # q = 11^3 = 11 mod 12 but r != 1: no part applies
    field = build_field(11, 3)
    with pytest.raises(HypothesisViolation):
        trace_sum_pair(
            TheoremInstance("t17", field, (field.from_int(1), field.from_int(1)))
        )


def test_t17_sign_phi_minus_3_is_one_where_q_is_1_mod_3():
    # q = 1 or 7 (mod 12) means q = 1 (mod 3), so F_q holds a primitive
    # cube root of unity w and -3 = (2w + 1)^2: the sign phi(-3) is 1
    fields = [(p, r) for p in PRIMES + (29, 31, 37, 41, 43, 47, 53) for r in (1, 2, 3)
              if p**r <= 3000 and p**r % 12 in (1, 7)]
    assert len(fields) >= 20
    for p, r in fields:
        field = build_field(p, r)
        minus3 = field.from_int(-3)
        w = field.generator ** ((field.q - 1) // 3)
        assert w != field.one and (field.from_int(2) * w + field.one) ** 2 == minus3
        assert quad_char(minus3) == 1
        for m in (field.one, field.generator):
            assert frobtrace._sign_and_correction("t17", m, field) == (1, 0)


def test_t16_t17_agree_where_both_apply():
    from padic_hg.errors import PadicHGError

    for p, r in [(13, 1), (5, 1), (7, 1), (5, 2)]:
        field = build_field(p, r)
        if field.q % 12 not in (1, 5, 7):
            continue
        rng = random.Random(p * r)
        done = 0
        while done < 5:
            c = field.elem(rng.randrange(1, field.q))
            d = field.elem(rng.randrange(1, field.q))
            try:
                lhs6, rhs6 = trace_sum_pair(TheoremInstance("t16", field, (c, d)))
                lhs4, rhs4 = trace_sum_pair(TheoremInstance("t17", field, (c, d)))
            except PadicHGError:
                continue
            assert lhs6 == lhs4 == rhs6 == rhs4
            done += 1


@pytest.mark.parametrize("name,p,param", [
    ("t18", 7, Fraction(2)),
    ("t18", 11, Fraction(1, 2)),
    ("t19", 5, Fraction(2)),
    ("t110", 11, Fraction(3)),
    ("t111", 7, Fraction(2)),
])
def test_rational_curves_small(name, p, param):
    for r in (1, 2):
        predicted, counted = rational_curve_trace(name, p, r, param)
        assert predicted == counted


def test_rational_curve_r3_spot():
    predicted, counted = rational_curve_trace("t18", 11, 3, Fraction(2))
    assert predicted == counted == -68  # = 4^3 - 3*11*4 from a_11 = 4


def test_rational_curve_hypotheses():
    with pytest.raises(HypothesisViolation):
        rational_curve_trace("t18", 13, 1, Fraction(2))  # 13 = 1 mod 4
    with pytest.raises(HypothesisViolation):
        rational_curve_trace("t18", 7, 1, Fraction(3))  # lambda not in {2, 1/2}
    with pytest.raises(HypothesisViolation):
        rational_curve_trace("t19", 17, 1, Fraction(2))  # excluded prime
    with pytest.raises(HypothesisViolation):
        rational_curve_trace("t19", 7, 1, Fraction(2))  # 7 = 7 mod 12
    for theorem in ("t19", "t110", "t111"):  # 11 is one of their primes
        for alpha in (Fraction(11), Fraction(1, 11), Fraction(-22, 3), Fraction(0)):
            with pytest.raises(HypothesisViolation, match="ord_p"):
                rational_curve_trace(theorem, 11, 1, alpha)  # p | num or den
    predicted, counted = rational_curve_trace("t110", 11, 1, Fraction(3, 2))
    assert predicted == counted  # other primes in alpha are admitted
    with pytest.raises(HypothesisViolation):
        rational_curve_trace("t111", 5, 1, Fraction(2))  # 5 = 5 mod 12


@pytest.mark.parametrize("alpha", [0.1, "1/10"])
def test_rational_curve_rejects_alpha_that_is_not_exact(alpha):
    # 0.1 is the binary rational 3602879701896397/2^55, not 1/10, and
    # would pass the ord_5 check that 1/10 fails
    with pytest.raises(TypeError):
        rational_curve_trace("t110", 5, 1, alpha)


@pytest.mark.parametrize("name,primes", [
    ("t18", [7, 11, 19, 23]),
    ("t19", [5, 11, 23]),
    ("t110", [5, 11, 17, 23]),
    ("t111", [7, 11, 19, 23]),
])
def test_rational_rows_reduce_to_pair_rows(name, primes):
    # a rational row is its pair row less the a_p = 0 partner's trace
    theorem = RATIONAL_THEOREMS[name]
    for p in (3,) + PRIMES:
        if p not in primes:
            with pytest.raises(HypothesisViolation):
                rational_curve_trace(name, p, 1, theorem.params[0])
            continue
        assert theorem.holds_at(p)
        for r in (1, 2):
            field = build_field(p, r)
            partner = trace_power(0, p, r)
            for alpha in theorem.params:
                params = tuple(field.from_rational(x) for x in theorem.pair_params(alpha))
                lhs, rhs = trace_sum_pair(TheoremInstance(theorem.pair, field, params))
                predicted, counted = rational_curve_trace(name, p, r, alpha)
                assert lhs == counted + partner
                assert rhs - partner == predicted


@pytest.mark.parametrize("theorem,p,r,params", [
    ("t18", 11, 2, (3,)),
    # at q = 5 the old route's bound of trace_bound + 4 took N = 3, not 2
    ("t110", 5, 1, (1, 2)),
])
def test_rational_route_shares_the_pair_kernel(theorem, p, r, params):
    # a rational theorem is its pair formula at particular parameters: once
    # the pair formula has run over a field, the rational route reads the
    # same set-up and builds no kernel
    field = build_field(p, r)
    pair = RATIONAL_THEOREMS[theorem].pair
    trace_sum_pair(TheoremInstance(pair, field, tuple(map(field.from_int, params))))
    kernels = set(gfunc._KERNELS)
    hits = frobtrace._pair_setup.cache_info().hits
    predicted, counted = rational_curve_trace(theorem, p, r, Fraction(2))
    assert predicted == counted
    assert set(gfunc._KERNELS) == kernels
    assert frobtrace._pair_setup.cache_info().hits == hits + 1


@pytest.mark.parametrize("name", sorted(RATIONAL_THEOREMS))
def test_rational_sides_solve_for_G(name):
    # the headline expectation is the rational formula solved for G: it
    # needs the partner's trace, which is 0 at odd r only
    theorem = RATIONAL_THEOREMS[name]
    rows = 0
    for p in PRIMES:
        if p > 23 or not theorem.holds_at(p):
            continue
        for r in (1, 2, 3):
            for alpha in theorem.params:
                g, prefactor, correction, counted, partner = _rational_sides(
                    name, p, r, alpha
                )
                assert prefactor in (1, -1)
                assert partner == trace_power(0, p, r)
                assert g == prefactor * (counted - correction + partner)
                rows += 1
    assert rows == {"t18": 24, "t19": 18, "t110": 24, "t111": 24}[name]


def test_rational_sides_need_the_partner_trace(monkeypatch):
    # t111 at p = 7, alpha = 2 over F_49: correction and partner are nonzero
    g, prefactor, correction, counted, partner = _rational_sides(
        "t111", 7, 2, Fraction(2)
    )
    assert g == -22
    assert correction != 0 and partner != 0
    assert prefactor * (counted - correction) == -8
    # the headline expectation, run at this row: at r = 3 both terms vanish
    sides = frobtrace._rational_sides
    monkeypatch.setattr(frobtrace, "_HEADLINE_ROWS", (("t111@49", "t111", 7, Fraction(2)),))
    monkeypatch.setattr(frobtrace, "_rational_sides", lambda t, p, r, a: sides(t, p, 2, a))
    (item,) = corollary_g_values()
    assert (item["value"], item["expected_from_counts"], item["ok"]) == (-22, -22, True)


def test_partner_traces_vanish_at_r1():
    # the zero-trace partner is what makes the parity correction tick
    f7 = build_field(7, 1)
    assert trace_of_frobenius(CurveSpec.legendre(f7.from_int(2)), f7) == 0
    f5 = build_field(5, 1)
    assert (
        trace_of_frobenius(
            CurveSpec.fg(f5.from_int(3), f5.from_int(3)), f5
        )
        == 0
    )


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (13, 1), (5, 2), (11, 2)])
def test_single_curve_bridge(p, r):
    # a_q(E_lambda) = phi(-1) * G[1/2,1/2; 0,0 | 1/lambda], every lambda
    from padic_hg.gfunc import GParams, PadicCtx, choose_precision, evaluate_G, trace_bound

    field = build_field(p, r)
    q = field.q
    ctx = PadicCtx(field, choose_precision(q, trace_bound(q)))
    sign = quad_char(field.from_int(-1))
    half = Fraction(1, 2)
    for v in range(2, q):
        lam = field.elem(v)
        if lam == field.one or lam == -field.one:
            continue
        aq = trace_of_frobenius(CurveSpec.legendre(lam), field)
        g = evaluate_G(
            GParams((half, half), (Fraction(0), Fraction(0)), lam.inverse()),
            field, ctx, bound=trace_bound(q),
        )
        assert sign * g.integer == aq


def test_corollary_g_values():
    report = corollary_g_values()
    assert len(report) == 4
    assert all(item["ok"] for item in report)
    by_item = {item["item"]: item["value"] for item in report}
    assert by_item["quarters@4"] == 68
    assert by_item["sixths@81/64"] == -72
    assert by_item["eighths@16/9"] == -22
    assert by_item["sixth-order@1/4"] == -58
