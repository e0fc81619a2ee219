import math

import pytest

from padic_hg import charsum
from padic_hg.charsum import (
    binomial_complex,
    conjugate_product_check,
    davenport_hasse_check,
    gauss_sum,
    greene_F,
    gross_koblitz_jacobi_check,
    jacobi_sum_complex,
    jacobi_sum_padic,
    mccarthy_Fstar,
)
from padic_hg.errors import FieldTooLarge, HypothesisViolation
from padic_hg.ffield import CurveSpec, FqField, build_field, quad_char, trace_of_frobenius
from padic_hg.padic import PadicCtx
from oracles import jacobi_sum_complex_by_elements, jacobi_sum_padic_by_elements


def test_gauss_trivial_character():
    for p, r in [(13, 1), (5, 2)]:
        field = build_field(p, r)
        g0 = gauss_sum(0, field)
        assert abs(g0 - (-1)) < 1e-9


@pytest.mark.parametrize("p,r", [(13, 1), (7, 2)])
def test_gauss_modulus(p, r):
    field = build_field(p, r)
    q = field.q
    for k in range(1, q - 1):
        assert abs(abs(gauss_sum(k, field)) - math.sqrt(q)) < 1e-6


@pytest.mark.parametrize("p,r", [(13, 1), (5, 2), (7, 2)])
def test_conjugate_product_law(p, r):
    field = build_field(p, r)
    q = field.q
    for k in range(q - 1):
        lhs = gauss_sum(k, field) * gauss_sum(-k, field)
        rhs = q * (-1) ** k - (q - 1) * (1 if k == 0 else 0)
        assert abs(lhs - rhs) <= 1e-6 * q
        assert k == 0 or conjugate_product_check(k, field)
    with pytest.raises(HypothesisViolation):
        conjugate_product_check(q - 1, field)


def test_jacobi_trivial():
    field = build_field(13, 1)
    assert abs(jacobi_sum_complex(0, 0, field) - 11) < 1e-9


def test_jacobi_gauss_factorization():
    field = build_field(5, 2)
    for a, b in [(1, 2), (3, 7), (5, 11), (2, 2), (10, 13)]:
        if (a + b) % 24 == 0:
            continue
        lhs = gauss_sum(a, field) * gauss_sum(b, field) / gauss_sum(a + b, field)
        assert abs(lhs - jacobi_sum_complex(a, b, field)) <= 1e-6 * 25


def test_binomial_trivial_denominator():
    field = build_field(5, 2)
    q = field.q
    for a in range(q - 1):
        expected = -1 / q + (q - 1) / q * (1 if a == 0 else 0)
        assert abs(binomial_complex(a, 0, field) - expected) < 1e-9
        assert abs(binomial_complex(a, a, field) - expected) < 1e-9


def test_greene_zero_argument():
    field = build_field(13, 1)
    phi = 6
    assert greene_F((phi, phi), (0,), field.zero, field) == 0


@pytest.mark.parametrize("p,r", [(13, 1), (5, 2)])
def test_koike_trace_formula(p, r):
    field = build_field(p, r)
    q = field.q
    phi = (q - 1) // 2
    sign = quad_char(field.from_int(-1))
    for v in range(2, q):
        lam = field.elem(v)
        if lam == field.one or lam == -field.one:
            continue
        z = -q * sign * greene_F((phi, phi), (0,), lam, field)
        aq = trace_of_frobenius(CurveSpec.legendre(lam), field)
        assert abs(z.imag) < 1e-4
        assert abs(z.real - aq) < 1e-4
        assert round(z.real) == aq


@pytest.mark.parametrize("x", [build_field(7, 1).from_int(3), build_field(5, 2).elem(20)])
@pytest.mark.parametrize("hypergeometric_sum", [greene_F, mccarthy_Fstar])
def test_hypergeometric_sums_reject_x_of_another_field(hypergeometric_sum, x):
    # 3 in F_7 used to read F_13's log table at 3, and 20 in F_25 ran off its end
    with pytest.raises(ValueError, match="does not lie in"):
        hypergeometric_sum((6, 6), (0,), x, build_field(13, 1))


def test_greene_fstar_bridge():
    field = build_field(13, 1)
    phi = 6
    factor = binomial_complex(phi, 0, field)
    for v in range(2, 12):
        lam = field.elem(v)
        F1 = greene_F((phi, phi), (0,), lam, field)
        Fs = mccarthy_Fstar((phi, phi), (0,), lam, field)
        assert abs(F1 - factor * Fs) < 1e-6


def test_fstar_degenerate_is_finite():
    field = build_field(13, 1)
    value = mccarthy_Fstar((0, 0), (0,), field.from_int(3), field)
    assert abs(value) < 1e6


@pytest.mark.parametrize("p,r", [(13, 1), (5, 2)])
def test_davenport_hasse(p, r):
    field = build_field(p, r)
    for m in (2, 3, 4, 6):
        for s in range(field.q - 1):
            assert davenport_hasse_check(m, s, field)


def test_davenport_hasse_hypothesis():
    field = build_field(13, 1)
    with pytest.raises(HypothesisViolation):
        davenport_hasse_check(5, 0, field)


@pytest.mark.parametrize("m", [0, -1, -2])
def test_davenport_hasse_rejects_m_below_one(m):
    # m = 0 once divided by zero and m = -2 gave False
    with pytest.raises(HypothesisViolation, match="m must be positive"):
        davenport_hasse_check(m, 1, build_field(13, 1))


def test_field_too_large_for_complex():
    field = build_field(53, 2)  # q = 2809 > 2500
    with pytest.raises(FieldTooLarge):
        gauss_sum(1, field)


def test_complex_tables_evict_the_oldest_field():
    charsum._tables.cache_clear()
    fields = [FqField(3, 1) for _ in range(33)]
    for field in fields:
        assert abs(gauss_sum(1, field) ** 2 + 3) < 1e-9
    info = charsum._tables.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (32, 32, 33)
    gauss_sum(1, fields[-1])
    gauss_sum(1, fields[0])  # evicted by the 33rd field, so built again
    info = charsum._tables.cache_info()
    assert (info.hits, info.misses) == (1, 34)


def test_jacobi_padic_trivial():
    field = build_field(5, 2)
    ctx = PadicCtx(field, 3)
    value = jacobi_sum_padic(0, 0, field, ctx)
    assert value == (23, 0)


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
@pytest.mark.parametrize("N", [1, 3])
def test_jacobi_padic_matches_the_per_element_sum(p, r, N):
    # the Zech-table route at every pair of characters, trivial ones too
    field = build_field(p, r)
    ctx = PadicCtx(field, N)
    pairs = [(a, b) for a in range(field.q - 1) for b in range(field.q - 1)]
    assert [jacobi_sum_padic(a, b, field, ctx) for a, b in pairs] == [
        jacobi_sum_padic_by_elements(a, b, field, ctx) for a, b in pairs]


def test_jacobi_padic_reads_the_zech_table():
    # one wrong Zech logarithm, in a field of its own, moves the Zech
    # route away from the per-element sum, which never reads the table
    field = FqField(5, 2)
    ctx = PadicCtx(field, 2)
    k = 3
    field.zech_table[k] = (field.zech_table[k] + 1) % (field.q - 1)
    pairs = [(a, b) for a in range(field.q - 1) for b in range(field.q - 1)]
    wrong = [(a, b) for a, b in pairs
             if jacobi_sum_padic(a, b, field, ctx) != jacobi_sum_padic_by_elements(a, b, field, ctx)]
    assert wrong and all(b for _, b in wrong)


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2), (13, 1), (5, 2), (3, 3)])
def test_jacobi_complex_matches_the_per_element_sum(p, r):
    # the pair-table route, bit for bit, at every pair of characters with
    # exponents from -1 to q - 1
    field = build_field(p, r)
    pairs = [(a, b) for a in range(-1, field.q) for b in range(-1, field.q)]
    assert [jacobi_sum_complex(a, b, field) for a, b in pairs] == [
        jacobi_sum_complex_by_elements(a, b, field) for a, b in pairs]


def test_jacobi_complex_reads_the_zech_table():
    # the complex twin of test_jacobi_padic_reads_the_zech_table
    field = FqField(5, 2)
    k = 3
    field.zech_table[k] = (field.zech_table[k] + 1) % (field.q - 1)
    pairs = [(a, b) for a in range(field.q - 1) for b in range(field.q - 1)]
    wrong = [(a, b) for a, b in pairs
             if jacobi_sum_complex(a, b, field) != jacobi_sum_complex_by_elements(a, b, field)]
    assert wrong and all(b for _, b in wrong)


def test_jacobi_padic_magnitude_consistency():
    # |J|^2 = q for nontrivial characters with nontrivial product
    field = build_field(5, 2)
    for a, b in [(1, 3), (2, 9), (7, 11)]:
        z = jacobi_sum_complex(a, b, field)
        assert abs(abs(z) - 5) < 1e-6


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3)])
def test_gross_koblitz_jacobi_exhaustive(p, r):
    field = build_field(p, r)
    ctx = PadicCtx(field, 3)
    q = field.q
    for a in range(1, q - 1):
        for b in range(1, q - 1):
            if (a + b) % (q - 1) == 0:
                continue
            assert gross_koblitz_jacobi_check(a, b, field, ctx)


def test_gross_koblitz_jacobi_spot_q121():
    field = build_field(11, 2)
    ctx = PadicCtx(field, 3)
    for a, b in [(1, 1), (5, 17), (40, 41), (100, 3), (60, 59)]:
        assert gross_koblitz_jacobi_check(a, b, field, ctx)


def test_gross_koblitz_hypothesis():
    field = build_field(5, 2)
    ctx = PadicCtx(field, 2)
    with pytest.raises(HypothesisViolation):
        gross_koblitz_jacobi_check(0, 3, field, ctx)
    with pytest.raises(HypothesisViolation):
        gross_koblitz_jacobi_check(5, 19, field, ctx)
