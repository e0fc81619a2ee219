"""Character-sum oracles, complex and p-adic.

Complex double-precision Gauss/Jacobi sums and the two finite-field
hypergeometric sums give an arithmetic route that shares nothing with
the gamma-function evaluator; the exact Galois-ring Jacobi sums verify
the Gauss-sum/gamma dictionary in the one form where the ramified
uniformizer cancels to an integer power of (-p).

Characters are always indexed by their discrete-log exponent k (the
character T^k), so the trivial character is k = 0 and the quadratic one
is k = (q-1)/2.
"""

import cmath
from fractions import Fraction
from functools import lru_cache

from .errors import FieldTooLarge, HypothesisViolation, InvariantViolation
from .padic import PadicCtx, _gamma_orbit_nd

COMPLEX_CAP = 2500  # double precision headroom for q^2-size sums


class _ComplexTables:
    """Per-field roots of unity and the full Gauss-sum vector."""

    def __init__(self, field):
        q, p = field.q, field.p
        self.field = field
        self.unit_root = [
            cmath.exp(2j * cmath.pi * k / (q - 1)) for k in range(q - 1)
        ]
        p_root = [cmath.exp(2j * cmath.pi * m / p) for m in range(p)]
        logs = field.log_table
        psi = [None] + [
            p_root[field.absolute_trace(field.elem(v))] for v in range(1, q)
        ]
        self.gauss = [
            sum(
                self.unit_root[k * logs[v] % (q - 1)] * psi[v]
                for v in range(1, q)
            )
            for k in range(q - 1)
        ]
        self._jacobi = {}

    def chi(self, k, x):
        """T^k(x) with the chi(0) = 0 convention."""
        if x.is_zero():
            return 0.0
        return self.unit_root[k * self.field.log_table[x.enc] % (self.field.q - 1)]

    def jacobi(self, a, b):
        q = self.field.q
        a %= q - 1
        b %= q - 1
        hit = self._jacobi.get((a, b))
        if hit is None:
            field = self.field
            one = field.one
            hit = 0.0
            for v in range(2, q):  # x = 0, 1 contribute 0 by convention
                x = field.elem(v)
                hit += self.chi(a, x) * self.chi(b, one - x)
            self._jacobi[(a, b)] = hit
        return hit


@lru_cache(maxsize=32)
def _tables(field) -> _ComplexTables:
    """The field's complex tables, shared by the 32 fields used last."""
    if field.q > COMPLEX_CAP:
        raise FieldTooLarge(f"q = {field.q} exceeds complex cap {COMPLEX_CAP}")
    return _ComplexTables(field)


def gauss_sum(k: int, field) -> complex:
    """g(T^k) as a complex number; |g| = sqrt(q) off the trivial character."""
    return _tables(field).gauss[k % (field.q - 1)]


def jacobi_sum_complex(a: int, b: int, field) -> complex:
    """J(T^a, T^b) = sum_x T^a(x) T^b(1-x)."""
    return _tables(field).jacobi(a, b)


def binomial_complex(a: int, b: int, field) -> complex:
    """The character binomial (T^a over T^b) = T^b(-1)/q * J(T^a, T^-b)."""
    sign = -1.0 if b % 2 else 1.0  # T^b(-1) = (-1)^b since log(-1) = (q-1)/2
    return sign / field.q * _tables(field).jacobi(a, -b)


def greene_F(a_indices, b_indices, x, field) -> complex:
    """The binomial-coefficient hypergeometric sum over all characters.

    a_indices = (A_0, ..., A_n), b_indices = (B_1, ..., B_n), all by
    discrete-log exponent.
    """
    tb = _tables(field)
    q = field.q
    if len(a_indices) != len(b_indices) + 1:
        raise ValueError("expected one more numerator character")
    total = 0.0
    for s in range(q - 1):
        term = binomial_complex((a_indices[0] + s) % (q - 1), s, field)
        for aj, bj in zip(a_indices[1:], b_indices):
            term *= binomial_complex((aj + s) % (q - 1), (bj + s) % (q - 1), field)
        total += term * tb.chi(s, x)
    return total * q / (q - 1)


def mccarthy_Fstar(a_indices, b_indices, x, field) -> complex:
    """The Gauss-sum-quotient hypergeometric sum over all characters.

    The chi-bar slot is normalized like every other denominator slot,
    by g of the corresponding chi = trivial value (that is, g(chi-bar)
    divided by g(trivial) = -1); this is the convention under which the
    binomial bridge to the Greene sum holds, as cross-checked against
    both the complex trace formula and the p-adic route.
    """
    tb = _tables(field)
    q = field.q
    if len(a_indices) != len(b_indices) + 1:
        raise ValueError("expected one more numerator character")
    n = len(b_indices)
    g = tb.gauss
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
        total += term * tb.chi(s, x)
    return -total / (q - 1)


def davenport_hasse_check(m: int, psi_index: int, field, rel_tol=1e-5) -> bool:
    """Product relation for Gauss sums over the characters with chi^m = 1."""
    q = field.q
    if (q - 1) % m != 0:
        raise HypothesisViolation(f"q = {q} is not 1 mod {m}")
    tb = _tables(field)
    g = tb.gauss
    step = (q - 1) // m
    s = psi_index % (q - 1)
    lhs = 1.0
    rhs = -g[m * s % (q - 1)]
    for j in range(m):
        lhs *= g[(j * step + s) % (q - 1)]
        rhs *= g[j * step]
    m_elem = field.from_int(m) ** (-m)
    rhs *= tb.chi(s, m_elem)
    scale = max(1.0, abs(lhs), abs(rhs))
    return abs(lhs - rhs) <= rel_tol * scale


# ---------------------------------------------------------------------------
# exact p-adic Jacobi sums

def jacobi_sum_padic(a: int, b: int, field, ctx: PadicCtx):
    """J(omega-bar^a, omega-bar^b) computed exactly in GR(p^N, r), as its
    coefficient tuple mod p^N.

    x = 0, 1 contribute 0 by convention; x = g^k for k in 1..q-2 has
    1 - x = 1 + g^(k + (q-1)/2) = g^Z(k + (q-1)/2), Z the Zech logarithm, so
    omega-bar^a(x) omega-bar^b(1 - x) is the Teichmuller power
    -a k - b Z(k + (q-1)/2)."""
    if ctx.field is not field:
        raise ValueError("field and p-adic context disagree")
    m, zech, pows = field.q - 1, field.zech_table, ctx.teichmuller_powers()
    terms = [pows[(-a * k - b * zech[(k + m // 2) % m]) % m] for k in range(1, m)]
    return tuple(sum(c) % ctx.pN for c in zip(*terms))


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
