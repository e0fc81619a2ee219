"""The p-adic hypergeometric G-function evaluator over GR(p^N, r).

The defining sum runs over a in [0, q-2].  Each summand is a product of
Gauss-sum quotients (Gross-Koblitz), one per parameter, read from two
Gauss-orbit columns of padic per (field, N) and coset u/d of the grid
j/(q-1), rotated to the parameter: Stickelberger digit sums, whose
differences give the power of -p, and the p-adic gamma products of the
unit part.  Coefficient tables depend only on the parameter lists and the
field, so they are cached and reused across arguments t.
With t = g^l the character value omega-bar(t)^a is omega(g)^(-al mod q-1),
one entry of the Teichmuller power table shared by (field, N).  Each entry
is also packed into one integer, its r coefficients in slots wide enough
that no sum of q-1 products carries (Kronecker substitution), so a value
at t costs one big-integer dot product over the nonzero coefficients and
no Galois-ring product.

Individual summands may carry a negative power of (-p) for some parameter
lists.  The evaluator measures the worst exponent first and works at a
shifted precision, so every value is exact mod p^N even when intermediate
terms leave Z_p.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, cycle
from operator import mul

from .errors import (
    DenominatorDivisibleByP,
    HypothesisViolation,
    NoRepresentative,
    NonConstantResult,
    NonIntegralValue,
    PrecisionUnderflow,
    ZeroArgument,
)
from .ffield import FqElem, FqField, prime_factors
from .padic import PadicCtx, PadicInt, _coset, _gauss_orbits, _teich_table


@dataclass(frozen=True)
class GParams:
    """Parameter rows a_1..a_n / b_1..b_n plus the argument t in F_q^x."""

    top: tuple
    bottom: tuple
    t: FqElem

    def __post_init__(self):
        top = tuple(x if type(x) is Fraction else Fraction(x) for x in self.top)
        bottom = tuple(x if type(x) is Fraction else Fraction(x) for x in self.bottom)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        if len(top) != len(bottom) or not top:
            raise ValueError("parameter rows must have equal positive length")
        p = self.t.field.p
        for c in top + bottom:
            if c.denominator % p == 0:
                raise DenominatorDivisibleByP(f"{c} is not in Z_{p}")
        if self.t.is_zero():
            raise ZeroArgument("t = 0 is rejected; no theorem evaluates there")

    @property
    def n(self):
        return len(self.top)


@dataclass(frozen=True)
class GValue:
    """A G-function value mod p^N, optionally lifted to an integer."""

    padic: PadicInt
    integer: int | None
    precision: int


# ---------------------------------------------------------------------------
# kernel: everything that does not depend on the argument t

class _GKernel:
    """Summand coefficients for fixed parameter rows over a fixed field.

    cvals[j] is the scalar multiplying omega-bar^a(t) for a = avals[j], over
    the summands whose power of -p is nonzero mod p^(N + shift); the true
    value is (-1/(q-1)) * sum_j cvals[j] * omega-bar^avals[j](t) / (-p)^shift.
    """

    def __init__(self, top, bottom, field, N):
        self.field = field
        p, n, m = field.p, len(top), field.q - 1
        # summand a takes a Gauss-sum quotient at x = y - s*a/(q-1) from each
        # top value y = a_k (s = 1) and bottom value y = -b_k (s = -1): entry
        # (Y - s*a) mod (q-1) of the columns of the coset u/d that holds y at Y
        params = [_coset(c.numerator * s, c.denominator, m) + (s,)
                  for row, s in ((top, 1), (bottom, -1)) for c in row]
        orbits = _gauss_orbits(field, N)
        lcm = math.lcm(*(d for _, _, d, _ in params))
        digits = [(_rotated(orbits["digits", u, d], Y, s), lcm // d) for Y, u, d, s in params]
        base, M = sum(w * c[0] for c, w in digits), lcm * m
        # summand a has floor sum sum_k sigma(y_k) - sigma(x_k) - s_k*a/(p-1), sigma = digit
        # sum / M; the a/(p-1) cancel, so its (-p)-exponent is (sums[a] - base)/M
        sums = list(map(sum, zip(*(c if w == 1 else map(w.__mul__, c) for c, w in digits))))
        self.shift = shift = max(0, (base - min(sums)) // M)
        keep = list(map((base + N * M).__gt__, sums))  # exponent below N
        self.avals = list(compress(range(m), keep))
        orbits = _gauss_orbits(field, N + shift)
        work = self.work = orbits.ctx
        self.teich = _teich_table(field, work.N)
        pNw = work.pN
        units = [_rotated(orbits["units", u, d], Y, s) for Y, u, d, s in params]
        # a summand of exponent k - shift is scaled by (-p)^k / (the a = 0 unit)
        inv0 = work.inv(math.prod(col[0] for col in units))
        scale = {base + (k - shift) * M: pow(-p, k, pNw) * inv0 % pNw
                 for k in range(N + shift)}
        if n % 2:
            units.append(cycle((1, -1)))  # (-1)^(a*n)
        prods = map(math.prod, zip(*(compress(col, keep) for col in units)))
        self.cvals = list(map(pNw.__rmod__, map(
            mul, map(scale.__getitem__, compress(sums, keep)), prods)))
        self.width, self.packed = self.teich.packed(pNw)
        self.lead = -work.inv(field.q - 1) % pNw

    def raw_eval(self, t):
        """Return (vec, shift): the value is the GR element vec / (-p)^shift.

        With l = log(t), omega-bar(t)^a is entry -a*l mod (q-1) of the
        shared Teichmuller power table, so the sum is one dot product of
        the coefficients with packed table entries, run in C; its slots of
        width W are the r coefficient sums, none of which carries.  Nothing
        is lifted per argument.  The vector is kept whole because G-values
        for parameter rows that are not closed under multiplication by p
        mod 1 genuinely live in the extension ring, not in Z_p.
        """
        field = self.field
        if t.field is not field:
            raise ValueError("argument t lives in a different field")
        if t.is_zero():
            raise ZeroArgument("t = 0 is rejected")
        m = field.q - 1
        step = -field.log_table[t.enc] % m
        total = sum(map(mul, self.cvals, map(self.packed.__getitem__, map(
            m.__rmod__, map(step.__mul__, self.avals)))))
        width, lead, pNw = self.width, self.lead, self.work.pN
        mask = (1 << width) - 1
        return tuple([
            (total >> j * width & mask) * lead % pNw for j in range(field.r)
        ]), self.shift


KERNEL_CACHE_SIZE = 256
_KERNELS = {}


def _kernel_key(top, bottom, field, N):
    """The rows as integer (numerator, denominator) pairs, which hash far
    faster than Fractions, with the field and the precision."""
    ratio = Fraction.as_integer_ratio
    return tuple(map(ratio, top)), tuple(map(ratio, bottom)), field, N


def _rotated(col, Y, s):
    """col read by summand: entry a is col[(Y - s*a) mod len(col)]."""
    return col[Y:] + col[:Y] if s < 0 else col[Y::-1] + col[:Y:-1]


def _kernel(top, bottom, field, N):
    """The cached kernel of these rows (tuples of Fractions) over field at
    precision N."""
    return _kernel_at(_kernel_key(top, bottom, field, N))


def _kernel_at(key):
    """The cached kernel at a _kernel_key; a new kernel evicts the oldest
    once KERNEL_CACHE_SIZE are held."""
    kern = _KERNELS.get(key)
    if kern is None:
        if len(_KERNELS) >= KERNEL_CACHE_SIZE:
            del _KERNELS[next(iter(_KERNELS))]
        top, bottom, field, N = key
        rows = (tuple(Fraction(*x) for x in row) for row in (top, bottom))
        kern = _KERNELS[key] = _GKernel(*rows, field, N)
    return kern


def _raw_to_residue(raw, p, N):
    """Collapse (vec, shift) to a residue mod p^N.

    The value must be Galois-stable (constant vector) and a p-adic
    integer; each failure has its own error so callers can distinguish
    an evaluator bug from a genuinely non-rational value.
    """
    vec, s = raw
    if any(v % p ** (N + s) for v in vec[1:]):
        raise NonConstantResult(
            "G-value has nonzero extension-ring coordinates"
        )
    T = vec[0]
    if s == 0:
        return T % p**N
    if T % p**s:
        raise NonIntegralValue(
            f"value has p-adic valuation -{s}; not a p-adic integer"
        )
    return (-1) ** s * (T // p**s) % p**N


def _raw_sum_is_zero(terms, p, N):
    """Exact test of sum_j sign_j vec_j/(-p)^(s_j) = 0 mod p^N, in GR."""
    smax = max(s for _, s, _ in terms)
    width = max(len(vec) for vec, _, _ in terms)
    return all(sum(sign * vec[j] * (-p) ** (smax - s) for vec, s, sign in terms)
               % p ** (N + smax) == 0 for j in range(width))


# ---------------------------------------------------------------------------
# public operations

def evaluate_G(params: GParams, field: FqField, ctx: PadicCtx, bound=None) -> GValue:
    """Evaluate the G-function defined by params over GR(p^N, r).

    The accumulated Galois-ring sum must be constant (Galois stability is
    asserted, not assumed).  If bound is given the symmetric residue with
    absolute value at most bound is attached as .integer.
    """
    if ctx.p != field.p or ctx.r != field.r:
        raise ValueError("field and p-adic context disagree")
    if params.t.field is not field:
        raise ValueError("argument t lives in a different field")
    key = _kernel_key(params.top, params.bottom, field, ctx.N)
    value, integer = _value_and_lift(key, params.t, bound)
    return GValue(PadicInt(value, ctx), integer, ctx.N)


def _value_and_lift(key, t, bound):
    """(residue mod p^N, its lift to |m| <= bound or None without a bound)
    of G at t from the kernel at key: the one path from a cached kernel to
    a G-value, for callers that checked the rows themselves."""
    field, N = key[2], key[3]
    value = _raw_to_residue(_kernel_at(key).raw_eval(t), field.p, N)
    if bound is None:
        return value, None
    return value, _symmetric_lift(value, field.p**N, bound)


def _symmetric_lift(residue, pN, bound):
    if pN <= 2 * bound:
        raise PrecisionUnderflow(f"p^N = {pN} cannot separate |m| <= {bound}")
    residue %= pN
    if residue <= bound:
        return residue
    if pN - residue <= bound:
        return residue - pN
    raise NoRepresentative(
        f"no integer of absolute value <= {bound} is congruent to {residue}"
    )


def reconstruct_integer(v: GValue, bound: int) -> int:
    """The unique integer m with |m| <= bound and m = v mod p^N."""
    return _symmetric_lift(v.padic.value, v.padic.ctx.pN, bound)


def choose_precision(q: int, bound: int) -> int:
    """Smallest N with p^N > 2*bound, where p is the prime underlying q."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    ps = prime_factors(q)
    if len(ps) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    p = ps[0]
    N = 1
    while p**N <= 2 * bound:
        N += 1
    return N


def trace_bound(q: int) -> int:
    """Default integer bound for trace sums: 4*sqrt(q) + 4."""
    return 4 * math.isqrt(q) + 4


def check_splitting_identity(a1, a2, a3, a4, x: FqElem, field: FqField,
                             ctx: PadicCtx) -> bool:
    """G[a1,a2;a3,a4](x) + G[a1,a2;a3,a4](-x) against the doubled-length G(x^2).

    Hypotheses: p coprime to all parameter denominators and q = 1 modulo
    their lcm.  Comparison is exact mod p^N even when individual values
    leave Z_p.
    """
    if x.field is not field:
        raise ValueError("argument x lives in a different field")
    if ctx.field is not field:
        raise ValueError("field and p-adic context disagree")
    coeffs = tuple(Fraction(c) for c in (a1, a2, a3, a4))
    p, q = field.p, field.q
    d = math.lcm(*(c.denominator for c in coeffs))
    if d % p == 0:
        raise HypothesisViolation("p divides a parameter denominator")
    if (q - 1) % d != 0:
        raise HypothesisViolation(f"q = {q} is not 1 mod {d}")
    if x.is_zero():
        raise ZeroArgument("x = 0 is rejected")
    a1, a2, a3, a4 = coeffs
    top4 = (a1 / 2, (1 + a1) / 2, a2 / 2, (1 + a2) / 2)
    bot4 = (a3 / 2, (1 + a3) / 2, a4 / 2, (1 + a4) / 2)
    k2 = _kernel((a1, a2), (a3, a4), field, ctx.N)
    k4 = _kernel(top4, bot4, field, ctx.N)
    return _raw_sum_is_zero([(*k2.raw_eval(x), 1), (*k2.raw_eval(-x), 1),
                             (*k4.raw_eval(x * x), -1)], p, ctx.N)


def check_reduction_identity(a, b, d: int, t: FqElem, p: int, N: int = 3) -> bool:
    """Appending the pair (1/d, (d-1)/d) to both rows over F_p is a no-op
    when p = -1 mod d."""
    field = t.field
    if field.p != p or field.r != 1:
        raise HypothesisViolation("stated over the prime field F_p only")
    if (p + 1) % d != 0:
        raise HypothesisViolation(f"p = {p} is not -1 mod {d}")
    top = tuple(Fraction(c) for c in a)
    bottom = tuple(Fraction(c) for c in b)
    pair = (Fraction(1, d), Fraction(d - 1, d))
    kn = _kernel(top, bottom, field, N)
    kx = _kernel(top + pair, bottom + pair, field, N)
    return _raw_sum_is_zero([(*kx.raw_eval(t), 1), (*kn.raw_eval(t), -1)], p, N)
