"""The p-adic hypergeometric G-function evaluator over GR(p^N, r).

The defining sum runs over a in [0, q-2].  Each summand is a product of
Gauss-sum quotients (Gross-Koblitz), one per parameter, read from two
Gauss-orbit columns of the padic context shared by (field, N), one pair
per coset u/d of the grid j/(q-1), rotated to the parameter:
Stickelberger digit sums, whose differences give the power of -p, and the
p-adic gamma products of the unit part.  The context stores each column
once, in the form the kernel reads: a digits column packed in 64-bit
slots, forward and reversed, so pass 1 sums the 2n rotated columns of a
row as big integers, one shift and one small multiple each, and unpacks
the sum once (no slot carries below the bound the kernel checks first);
a units column twice over, so pass 2 gathers each rotated column at the
surviving summands, one slice and one itemgetter per kernel.
Coefficient tables depend only on the parameter lists and the field, so
they are cached and reused across arguments t.
With t = g^l the character value omega-bar(t)^a is omega(g)^(-al mod q-1),
one entry of that context's Teichmuller power table.  A kernel keeps one
list of terms (a, c, column), and its value at t is one big-integer dot
product sum c * column[-a*l mod (q-1)], with no Galois-ring product.

A kernel decides its columns once, at build, from its rows.  Rows closed
under x -> p*x mod 1 (every row at r = 1) give c[p*a mod (q-1)] = c[a],
since Frobenius fixes Gauss sums, so the kernel computes one coefficient
per Frobenius orbit of summands, rechecks the identity at two orbits, and
each orbit sums to a trace: one term per orbit, over the table's trace
column, and the value lies in Z/p^N.  Any other kernel has one term per
summand over the Teichmuller table itself, whose entries hold their r
coefficients in slots of W bits (Kronecker substitution), and the context
unpacks its total into a vector whose extension coordinates must vanish.
W is the bit length of (q-1)(p^N-1)^2, the most q-1 products of residues
reach, so no slot carries, and a closed kernel's sum fits in the constant
slot alone, which its readers value(t), G at t mod p^N, and raw_eval(t),
the vector, take without unpacking.

Individual summands may carry a negative power of (-p) for some parameter
lists.  The evaluator measures the worst exponent first and works at a
shifted precision, so every value is exact mod p^N even when intermediate
terms leave Z_p.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import itemgetter, mul

from .errors import (
    DenominatorDivisibleByP,
    DenominatorsTooLarge,
    HypothesisViolation,
    InvariantViolation,
    NoRepresentative,
    NonConstantResult,
    NonIntegralValue,
    PrecisionUnderflow,
    ZeroArgument,
)
from .ffield import FqElem, FqField, prime_factors
from .padic import (
    DIGIT_BITS,
    PadicCtx,
    PadicInt,
    _coset,
    _precision,
    _rational,
    _ring,
    frobenius_orbits,
)


@dataclass(frozen=True)
class GParams:
    """Parameter rows a_1..a_n / b_1..b_n plus the argument t in F_q^x.
    The rows are checked once, at construction, and kept as Fractions and,
    in .pairs, as the kernel's integer pairs."""

    top: tuple
    bottom: tuple
    t: FqElem

    def __post_init__(self):
        top = tuple([x if type(x) is Fraction else _rational(x) for x in self.top])
        bottom = tuple([x if type(x) is Fraction else _rational(x) for x in self.bottom])
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "pairs", _row_pairs(top, bottom, self.t.field.p))
        if self.t.is_zero():
            raise ZeroArgument("t = 0 is rejected; no theorem evaluates there")


def _row_pairs(top, bottom, p):
    """(top, bottom) as tuples of integer (numerator, denominator) pairs,
    the kernel's rows, which hash far faster than Fractions: the one place
    parameter rows are checked.  The rows must have equal positive length
    and p must divide no denominator."""
    top, bottom = [tuple([(x if type(x) is Fraction else _rational(x)).as_integer_ratio()
                          for x in row]) for row in (top, bottom)]
    if len(top) != len(bottom) or not top:
        raise ValueError("parameter rows must have equal positive length")
    for n, d in top + bottom:
        if d % p == 0:
            raise DenominatorDivisibleByP(f"{n}/{d} is not in Z_{p}")
    return top, bottom


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

    The rows are tuples of (numerator, denominator) pairs, as _row_pairs
    returns them.  The value at t is (-1/(q-1)) * sum_a c[a] *
    omega-bar^a(t) / (-p)^shift over the summands a whose power of -p is
    nonzero mod p^(N + shift).

    The terms (a, c, column) are decided at build, from the rows.  If each
    row is closed as a multiset under x -> p*x mod 1, Frobenius, which fixes
    Gauss sums, permutes the summands' Gauss-sum quotients, so c[p*a mod
    (q-1)] = c[a] (at r = 1 each summand is its own orbit, whatever the
    rows).  Such a kernel is closed: it computes one c per Frobenius orbit
    of summands, with one term per full orbit (r members), at its least
    member, over the trace column, and one per summand of a shorter orbit
    over the constant column, so its total lies in the constant slot, which
    value and raw_eval read alone.  Any other kernel has one term per
    surviving summand over the packed table, whose r slots, which both
    readers unpack, are the vector in GR(p^(N + shift), r).
    """

    def __init__(self, top, bottom, field, N):
        self.field, self.N = field, N
        p, n, m, r = field.p, len(top), field.q - 1, field.r
        # summand a takes a Gauss-sum quotient at x = y - s*a/(q-1) from each
        # top value y = a_k (s = 1) and bottom value y = -b_k (s = -1): entry
        # (Y - s*a) mod (q-1) of the columns of the coset u/d that holds y at
        # Y.  Equal parameters are read once, with their multiplicity k
        params = Counter(_coset(num * s, den, m) + (s,)
                         for row, s in ((top, 1), (bottom, -1)) for num, den in row)
        # p*y sits at index p*Y + floor(p*u/d) of coset (p*u mod d)/d: the rows
        # are closed iff that map keeps every multiplicity.  A closed kernel
        # reads its columns at reps, the orbits' least members, any other at
        # every a, which at r = 1 are the orbits
        closed = r == 1 or all(params[(p * Y + p * u // d) % m, p * u % d, d, s] == k
                               for (Y, u, d, s), k in params.items())
        orbits, nfull, reps, pick = (frobenius_orbits(p, m) if closed and r > 1
                                     else ((), m, range(m), None))
        lcm = math.lcm(*(d for _, _, d, _ in params))
        # a digits entry is below r*d*(q-1), so a slot of the sum of 2n
        # columns, each weighted k*lcm/d, stays below 2n*r*lcm*(q-1)
        if 2 * n * r * lcm * m >> DIGIT_BITS:
            raise DenominatorsTooLarge(
                f"denominators of lcm {lcm} overflow the {DIGIT_BITS}-bit digit sums at q = {m + 1}")
        ring = _ring(field, N)
        # summand a has floor sum sum_k sigma(y_k) - sigma(x_k) - s_k*a/(p-1), sigma = digit
        # sum / M; the a/(p-1) cancel, so its (-p)-exponent is (sums[a] - base)/M, base =
        # sums[0].  Each rotated column is one packed integer, and no slot carries
        sums = ring.digit_slots(sum([k * (lcm // d) * ring.rotated("digits", u, d, Y, s)
                                     for (Y, u, d, s), k in params.items()]))
        picked = pick(sums) if pick else sums
        base, M = sums[0], lcm * m
        self.shift = shift = max(0, (base - min(picked)) // M)
        keep = list(map((base + N * M).__gt__, picked))  # exponent below N
        avals = list(compress(reps, keep))
        gather = itemgetter(*avals) if len(avals) > 1 else lambda col: (col[avals[0]],)
        work = self.work = _ring(field, N + shift)
        pNw = work.pN
        units = {}  # the rotated unit columns by multiplicity
        for (Y, u, d, s), k in params.items():
            units.setdefault(k, []).append(work.rotated("units", u, d, Y, s))
        # a summand of exponent e - shift is scaled by (-p)^e / (the a = 0 unit)
        inv0 = work.inv(math.prod(col[0] ** k for k, cols in units.items() for col in cols))
        scale = {base + (e - shift) * M: pow(-p, e, pNw) * inv0 % pNw
                 for e in range(N + shift)}
        factors = []  # each multiplicity's product at the surviving summands, raised to it
        for k, cols in units.items():
            f = map(math.prod, zip(*map(gather, cols)))
            factors.append(f if k == 1 else map(pow, f, repeat(k)))
        if n % 2:
            factors.append([1 - 2 * (a & 1) for a in avals])  # (-1)^(a*n)
        prods = factors[0] if len(factors) == 1 else map(math.prod, zip(*factors))
        cvals = list(map(pNw.__rmod__, map(
            mul, map(scale.__getitem__, compress(picked, keep)), prods)))
        self.lead = -work.inv(field.q - 1) % pNw
        self.closed = closed
        if not closed:
            self.terms = list(zip(avals, cvals, repeat(work.packed())))
            return
        # the surviving full orbits come first; the first and the last
        # recheck c[p*a] = c[a] by the per-summand formula at their p*a
        full = len(avals) - sum(keep[nfull:])
        for j in (0, full - 1) if full and r > 1 else ():
            b = avals[j] * p % m
            unit = math.prod([col[b] ** k for k, cols in units.items() for col in cols])
            if scale.get(sums[b], 0) * unit * (-1) ** (b * n) % pNw != cvals[j]:
                raise InvariantViolation(f"c[{b}] differs from its Frobenius orbit's")
        tr, const = work.traces()
        short = zip(compress(orbits[nfull:], keep[nfull:]), cvals[full:])
        self.terms = list(zip(avals[:full], cvals[:full], repeat(tr))) + [
            (a, c, const) for orbit, c in short for a in orbit]

    def total(self, t):
        """The dot product sum c * column[-a*log(t) mod (q-1)] over the terms
        (a, c, column), run in C.  Its W-bit slots, none of which carries,
        unpack to the vector at t; a closed kernel's total is below 2^W."""
        field = self.field
        if t.field is not field:
            raise ValueError("argument t lives in a different field")
        if t.is_zero():
            raise ZeroArgument("t = 0 is rejected")
        m = field.q - 1
        step = -field.log_table[t.enc] % m
        return sum([c * column[a * step % m] for a, c, column in self.terms])

    def value(self, t):
        """G at t mod p^N: the constant slot of a closed kernel's total, or the
        unpacked vector of any other, which must be constant, over (-p)^shift,
        which must leave a p-adic integer."""
        if self.closed:
            const = self.total(t) * self.lead % self.work.pN
        else:
            const, *ext = self.work.unpack(self.total(t), self.lead)
            if any(ext):
                raise NonConstantResult("G-value has nonzero extension-ring coordinates")
        return _unshift(const, self.shift, self.field.p, self.N)

    def raw_eval(self, t):
        """Return (vec, shift): the value is the GR element vec / (-p)^shift.

        With l = log(t), omega-bar(t)^a is entry -a*l mod (q-1) of the
        shared Teichmuller power table, so the vector is the unpacked
        total(t), each slot times lead = -1/(q-1).  Nothing is lifted per
        argument.  The vector is kept whole because G-values for parameter
        rows that are not closed under multiplication by p mod 1 genuinely
        live in the extension ring, not in Z_p; a closed kernel's vector is
        (total * lead, 0, ..., 0), read without unpacking.
        """
        if self.closed:
            vec = (self.total(t) * self.lead % self.work.pN,) + (0,) * (self.field.r - 1)
            return vec, self.shift
        return self.work.unpack(self.total(t), self.lead), self.shift


KERNEL_CACHE_SIZE = 256
_KERNELS = {}


def _kernel(top, bottom, field, N):
    """The cached kernel of these rows (ints and Fractions) over field at
    precision N, which is checked before the cache is read."""
    return _kernel_at((*_row_pairs(top, bottom, field.p), field, _precision(N)))


def _kernel_at(key):
    """The cached kernel at key = (top pairs, bottom pairs, field, N), the
    rows as _row_pairs returns them; a new kernel evicts the oldest once
    KERNEL_CACHE_SIZE are held."""
    kern = _KERNELS.get(key)
    if kern is None:
        if len(_KERNELS) >= KERNEL_CACHE_SIZE:
            del _KERNELS[next(iter(_KERNELS))]
        kern = _KERNELS[key] = _GKernel(*key)
    return kern


def _unshift(T, s, p, N):
    """T/(-p)^s mod p^N for a residue T mod p^(N + s), which must be
    divisible by p^s."""
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

    The value must lie in Z_p (Galois stability is asserted, not assumed):
    by the closed kernel's Frobenius recheck at build, or else for each
    value by its vector's extension coordinates.  If bound is given the symmetric
    residue with absolute value at most bound is attached as .integer.
    """
    if ctx.field is not field:
        raise ValueError("field and p-adic context disagree")
    if params.t.field is not field:
        raise ValueError("argument t lives in a different field")
    value = _kernel_at((*params.pairs, field, ctx.N)).value(params.t)
    integer = None if bound is None else _symmetric_lift(value, ctx.pN, bound)
    return GValue(PadicInt(value, ctx), integer, ctx.N)


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
    top, bottom = _row_pairs((a1, a2), (a3, a4), field.p)
    pairs, p, q = top + bottom, field.p, field.q
    d = math.lcm(*(den for _, den in pairs))
    if (q - 1) % d != 0:
        raise HypothesisViolation(f"q = {q} is not 1 mod {d}")
    if x.is_zero():
        raise ZeroArgument("x = 0 is rejected")
    # each a = n/d of the 2-row gives a/2 and (1 + a)/2 to the 4-row
    halves = [_half(n + e * den, den) for n, den in pairs for e in (0, 1)]
    k2 = _kernel_at((top, bottom, field, ctx.N))
    k4 = _kernel_at((tuple(halves[:4]), tuple(halves[4:]), field, ctx.N))
    return _raw_sum_is_zero([(*k2.raw_eval(x), 1), (*k2.raw_eval(-x), 1),
                             (*k4.raw_eval(x * x), -1)], p, ctx.N)


def _half(n, d):
    """n/(2d) as a reduced (numerator, denominator) pair."""
    g = math.gcd(n, 2 * d)
    return n // g, 2 * d // g


def check_reduction_identity(a, b, d: int, t: FqElem, p: int, N: int = 3) -> bool:
    """Appending the pair (1/d, (d-1)/d) to both rows over F_p is a no-op
    when p = -1 mod d."""
    field = t.field
    if field.p != p or field.r != 1:
        raise HypothesisViolation("stated over the prime field F_p only")
    if d < 1:
        raise HypothesisViolation("d must be positive")
    if (p + 1) % d != 0:
        raise HypothesisViolation(f"p = {p} is not -1 mod {d}")
    a, b, pair = tuple(a), tuple(b), (Fraction(1, d), Fraction(d - 1, d))
    kn = _kernel(a, b, field, N)
    kx = _kernel(a + pair, b + pair, field, N)
    return _raw_sum_is_zero([(*kx.raw_eval(t), 1), (*kn.raw_eval(t), -1)], p, N)
