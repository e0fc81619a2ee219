"""Character-sum oracles, complex and p-adic, on the field's integer tables.

Complex double-precision Gauss/Jacobi sums and the two finite-field
hypergeometric sums give an arithmetic route that shares nothing with
the gamma-function evaluator; the exact Galois-ring Jacobi sums verify
the Gauss-sum/gamma dictionary in the one form where the ramified
uniformizer cancels to an integer power of (-p).

Characters are always indexed by their discrete-log exponent k (the
character T^k), so the trivial character is k = 0 and the quadratic one
is k = (q-1)/2; T^k(x) is read from field.log_table.  The only floats of
the package live here: the complex sums and the three checks that
compare them within the tolerances below.
"""

import cmath
from fractions import Fraction
from functools import lru_cache

from .errors import FieldTooLarge, HypothesisViolation, InvariantViolation
from .ffield import CurveSpec, quad_char, trace_of_frobenius
from .padic import PadicCtx, _gamma_orbit_nd

COMPLEX_CAP = 2500  # double precision headroom for q^2-size sums
CONJUGATE_REL_TOL = 1e-6  # conjugate product, relative to q
DH_REL_TOL = 1e-5  # Davenport-Hasse, relative to the larger side
KOIKE_TOL = 1e-4  # Koike bridge, absolute on each of re and im


@lru_cache(maxsize=32)
def _pairs(field) -> tuple:
    """(log x, log(1 - x)) for each x = g^k outside {0, 1}, in encoding
    order: 1 - x = 1 + g^(k + (q-1)/2) = g^Z(k + (q-1)/2), Z the Zech log."""
    m, zech = field.q - 1, field.zech_table
    return tuple((k, zech[(k + m // 2) % m]) for k in field.log_table[2:])


@lru_cache(maxsize=32)
def _tables(field) -> tuple:
    """(roots, gauss, jacobi memo): roots[k] = exp(2 pi i k/(q-1)) and
    gauss[k] = g(T^k), shared by the 32 fields used last."""
    q, p = field.q, field.p
    if q > COMPLEX_CAP:
        raise FieldTooLarge(f"q = {q} exceeds complex cap {COMPLEX_CAP}")
    roots = [cmath.exp(2j * cmath.pi * k / (q - 1)) for k in range(q - 1)]
    p_root = [cmath.exp(2j * cmath.pi * m / p) for m in range(p)]
    logs = field.log_table
    psi = [None] + [p_root[field.absolute_trace(field.elem(v))] for v in range(1, q)]
    gauss = [sum(roots[k * logs[v] % (q - 1)] * psi[v] for v in range(1, q))
             for k in range(q - 1)]
    return roots, gauss, {}


def _characters_at(x, field, a_indices, b_indices) -> list:
    """[T^s(x) for s in 0..q-2], T^s(0) = 0, for a hypergeometric sum:
    ValueError for an x of another field or a_indices not one longer."""
    if len(a_indices) != len(b_indices) + 1:
        raise ValueError("expected one more numerator character")
    if x.field is not field:
        raise ValueError(f"x = {x!r} does not lie in {field}")
    roots, k = _tables(field)[0], field.log_table[x.enc]
    return [0.0 if k is None else roots[s * k % len(roots)] for s in range(len(roots))]


def gauss_sum(k: int, field) -> complex:
    """g(T^k) as a complex number; |g| = sqrt(q) off the trivial character."""
    return _tables(field)[1][k % (field.q - 1)]


def jacobi_sum_complex(a: int, b: int, field) -> complex:
    """J(T^a, T^b) = sum_x T^a(x) T^b(1-x), where x = 0, 1 contribute 0."""
    roots, _, memo = _tables(field)
    m = field.q - 1
    a, b = a % m, b % m
    hit = memo.get((a, b))
    if hit is None:
        hit = 0.0
        for k, z in _pairs(field):
            hit += roots[a * k % m] * roots[b * z % m]
        memo[(a, b)] = hit
    return hit


def binomial_complex(a: int, b: int, field) -> complex:
    """The character binomial (T^a over T^b) = T^b(-1)/q * J(T^a, T^-b)."""
    sign = -1.0 if b % 2 else 1.0  # T^b(-1) = (-1)^b since log(-1) = (q-1)/2
    return sign / field.q * jacobi_sum_complex(a, -b, field)


def greene_F(a_indices, b_indices, x, field) -> complex:
    """The binomial-coefficient hypergeometric sum over all characters.

    a_indices = (A_0, ..., A_n), b_indices = (B_1, ..., B_n), all by
    discrete-log exponent.
    """
    chi = _characters_at(x, field, a_indices, b_indices)
    q = field.q
    total = 0.0
    for s in range(q - 1):
        term = binomial_complex((a_indices[0] + s) % (q - 1), s, field)
        for aj, bj in zip(a_indices[1:], b_indices):
            term *= binomial_complex((aj + s) % (q - 1), (bj + s) % (q - 1), field)
        total += term * chi[s]
    return total * q / (q - 1)


def mccarthy_Fstar(a_indices, b_indices, x, field) -> complex:
    """The Gauss-sum-quotient hypergeometric sum over all characters.

    The chi-bar slot is normalized like every other denominator slot,
    by g of the corresponding chi = trivial value (that is, g(chi-bar)
    divided by g(trivial) = -1); this is the convention under which the
    binomial bridge to the Greene sum holds, as cross-checked against
    both the complex trace formula and the p-adic route.
    """
    chi = _characters_at(x, field, a_indices, b_indices)
    q, g = field.q, _tables(field)[1]
    n = len(b_indices)
    total = 0.0
    for s in range(q - 1):
        term = 1.0
        for ai in a_indices:
            term *= g[(ai + s) % (q - 1)] / g[ai % (q - 1)]
        for bj in b_indices:
            term *= g[-(bj + s) % (q - 1)] / g[-bj % (q - 1)]
        term *= g[-s % (q - 1)] / g[0]
        if (s * (n + 1)) % 2:
            term = -term
        total += term * chi[s]
    return -total / (q - 1)


def conjugate_product_check(k: int, field) -> bool:
    """g(T^k) g(T^-k) = q (-1)^k for a nontrivial character T^k."""
    q = field.q
    if k % (q - 1) == 0:
        raise HypothesisViolation("the character must be nontrivial")
    z = gauss_sum(k, field) * gauss_sum(-k, field)
    return abs(z - q * (-1) ** k) <= CONJUGATE_REL_TOL * q


def davenport_hasse_check(m: int, psi_index: int, field) -> bool:
    """Product relation for Gauss sums over the characters with chi^m = 1."""
    q = field.q
    if m < 1:
        raise HypothesisViolation("m must be positive")
    if (q - 1) % m != 0:
        raise HypothesisViolation(f"q = {q} is not 1 mod {m}")
    roots, g, _ = _tables(field)
    step = (q - 1) // m
    s = psi_index % (q - 1)
    lhs = 1.0
    rhs = -g[m * s % (q - 1)]
    for j in range(m):
        lhs *= g[(j * step + s) % (q - 1)]
        rhs *= g[j * step]
    rhs *= roots[-s * m * field.log_table[m % field.p] % (q - 1)]  # T^s(m^-m)
    scale = max(1.0, abs(lhs), abs(rhs))
    return abs(lhs - rhs) <= DH_REL_TOL * scale


def koike_bridge_check(lam, field) -> bool:
    """Koike's a_q(y^2 = x(x-1)(x-lam)) = -q phi(-1) 2F1(phi, phi; eps | lam)
    for lam in field outside {0, 1}."""
    q = field.q
    phi = (q - 1) // 2
    z = -q * quad_char(-field.one) * greene_F((phi, phi), (0,), lam, field)
    aq = trace_of_frobenius(CurveSpec.legendre(lam), field)
    return abs(z.real - aq) <= KOIKE_TOL and abs(z.imag) <= KOIKE_TOL


# ---------------------------------------------------------------------------
# exact p-adic Jacobi sums

def jacobi_sum_padic(a: int, b: int, field, ctx: PadicCtx):
    """J(omega-bar^a, omega-bar^b) computed exactly in GR(p^N, r), as its
    coefficient tuple mod p^N.

    x = 0, 1 contribute 0 by convention; each other x, with its pair
    (log x, log(1 - x)) = (k, z) from the Zech table (_pairs), contributes
    omega-bar^a(x) omega-bar^b(1 - x), the Teichmuller power -a k - b z:
    one sum of q-2 packed entries, unpacked once."""
    if ctx.field is not field:
        raise ValueError("field and p-adic context disagree")
    m, packed = field.q - 1, ctx.packed()
    return ctx.unpack(sum([packed[(-a * k - b * z) % m] for k, z in _pairs(field)]))


def gross_koblitz_jacobi_check(a: int, b: int, field, ctx: PadicCtx) -> bool:
    """Exact dictionary between a p-adic Jacobi sum and a gamma product.

    The ratio of the three underlying Gauss sums turns the uniformizer
    powers into the integer power e of (-p) computed below, so the whole
    identity lives in Z_p and is checked mod p^N.
    """
    q, r, p = field.q, field.r, field.p
    if a % (q - 1) == 0 or b % (q - 1) == 0 or (a + b) % (q - 1) == 0:
        raise HypothesisViolation("characters and their product must be nontrivial")
    # e sums the carries <a p^i/(q-1)> + <b p^i/(q-1)> - <(a+b) p^i/(q-1)>,
    # each 0 or 1; e_num is e times q-1
    e_num = sum(
        a * p**i % (q - 1) + b * p**i % (q - 1) - (a + b) * p**i % (q - 1)
        for i in range(r)
    )
    e, rem = divmod(e_num, q - 1)
    if rem or e < 0:
        raise InvariantViolation(f"Gross-Koblitz exponent {Fraction(e_num, q - 1)} not in N")
    unit = _gamma_orbit_nd(ctx, [(a, q - 1), (b, q - 1)])
    unit = unit * ctx.inv(_gamma_orbit_nd(ctx, [(a + b, q - 1)])) % ctx.pN
    rhs = -pow(-p, e, ctx.pN) * unit % ctx.pN
    return jacobi_sum_padic(a, b, field, ctx) == (rhs,) + (0,) * (r - 1)
