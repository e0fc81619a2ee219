"""Exact arithmetic mod p^N in the Galois ring GR(p^N, r).

Holds the p-adic gamma function (giant, mid and low step tables shared by
(p, N)), Teichmuller lifts, the Gross-Koblitz gamma-product and floor
identities, stated in integers, and the context _ring(field, N) that every
G-function kernel and every context of one (field, N) shares: its one,
packed table of Teichmuller powers, which unpack reads, its trace column,
and the Gauss-orbit columns, one pair per coset of the grid j/(q-1), each
built on first use and stored in the form the kernels read (rotated,
digit_slots); and the Frobenius orbits a -> p*a of [0, q-1).
Floating point is forbidden throughout: the floor identities are
exact-arithmetic-fragile, so every rational argument must be an int or a
Fraction.
"""

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter, lshift, mul

from .errors import (
    DenominatorDivisibleByP,
    HypothesisViolation,
    InvariantViolation,
    PrecisionTooLarge,
    ZeroInput,
)
from .ffield import TABLE_CAP, _pack, _poly_mulmod, _poly_powmod, _unpack, exceeds_cap

# the slots of a packed digits column: unsigned 64-bit array items
_DIGITS = "Q"
DIGIT_BITS = 8 * array(_DIGITS).itemsize


def _precision(N):
    """N, checked to be an int >= 1: a cache keyed by N takes 3.0 for 3."""
    if not isinstance(N, int):
        raise TypeError(f"precision N = {N!r} is not an int")
    if N < 1:
        raise ValueError("precision N must be >= 1")
    return N


def _rational(x) -> Fraction:
    """x as a Fraction for an int or a Fraction x; anything else, a float
    above all, raises TypeError."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"{x!r} is neither an int nor a Fraction")


def frac(x):
    """Fractional part <x> = x - floor(x) of an exact rational, in [0, 1)."""
    x = _rational(x)
    return x - math.floor(x)


@lru_cache(maxsize=32)
def _gamma_steps(p: int, N: int):
    """Three-level tables for Gamma_p mod p^N, shared by every context with
    the same (p, N).  With F(m) the product of the 0 < t < m prime to p and
    P_n(z) that of z + t over the 0 < t < n prime to p, Gamma_p(m) = (-1)^m
    F(m) and F(a + b) = F(a) P_b(a) for p | a.  So for L = ceil(N/2), B =
    p^L, C = p^c, c = max(1, floor(N/3)), D = ceil(N/c) and m = kB + iC + j,
    j < C, i < B/C, Gamma_p(m) = (-1)^m F(kB) P_iC(kB) P_j(kB + iC) mod p^N:
    low[j] = P_j(w) mod (w^D, p^N), highest degree first, exact at w = kB +
    iC as cD >= N; mid0[i] + mid1[i]*y = P_iC(y) mod y^2, exact at y = kB as
    2L >= N; giant0[k] = F(kB) and giant1[k] = kB F(kB); each signed by its
    part of m.  Returns (B, C, low, mid0, mid1, giant0, giant1), of C, B/C
    and p^(N-L) entries, built in O(p^c D + p^(L-c) D + p^(N-L)), rechecked.
    """
    pN, L, c = p**N, (N + 1) // 2, max(1, N // 3)
    B, C, D = p**L, p**c, -(-N // c)
    low, u = [], [1] + [0] * (D - 1)  # P_j(w) mod (w^D, p^N), constant first
    for j in range(C):
        low.append(tuple(-a % pN if j % 2 else a for a in reversed(u)))
        if j % p:
            u = [(a * j + b) % pN for a, b in zip(u, [0] + u)]
    mid0, mid1, v0, v1 = [], [], 1, 0  # P_iC(y) mod (y^2, p^N)
    for x in range(0, B, C):
        mid0.append(-v0 % pN if x % 2 else v0)
        mid1.append(-v1 % pN if x % 2 else v1)
        val = der = 0  # P_C(x + y) mod y^2, from u = P_C(w)
        for a in reversed(u):
            der, val = der * x + val, val * x + a
        v0, v1 = v0 * val % pN, (v1 * val + v0 * der) % pN
    giant0, giant1, g = [], [], 1  # g = F(kB), stepped by P_B(kB)
    for z in range(0, pN, B):
        giant0.append(-g % pN if z % 2 else g)
        giant1.append(giant0[-1] * z % pN)
        g = g * (v0 + v1 * z) % pN
    if g != pN - 1:
        raise InvariantViolation(f"the units below {p}^{N} do not multiply to -1 (Wilson)")
    tables = B, C, low, mid0, mid1, giant0, giant1
    _gamma_recheck(tables, pN)
    return tables


def _gamma_value(tables, pN: int, m: int) -> int:
    """Gamma_p(m) mod p^N from the tables of _gamma_steps, for 0 <= m < p^N."""
    B, C, low, mid0, mid1, giant0, giant1 = tables
    k, s = divmod(m, B)
    i, j = divmod(s, C)
    w, acc = m - j, 0
    for a in low[j]:
        acc = acc * w + a
    return (giant0[k] * mid0[i] + giant1[k] * mid1[i]) * acc % pN


def _gamma_recheck(tables, pN: int):
    """Check Gamma_p(m + 1) = -m Gamma_p(m) mod p^N through the tables at each
    C seam B <= m + 1 <= 2B below p^N, which reads low[0], low[C-1], giant[0..2]
    and every mid0 and mid1 entry, the latter times giant1[1] = B F(B) != 0."""
    B, C = tables[:2]
    for m in range(B - 1, min(2 * B, pN - 1), C):
        if _gamma_value(tables, pN, m + 1) != -m * _gamma_value(tables, pN, m) % pN:
            raise InvariantViolation(f"gamma tables mod {pN} fail the step {m} -> {m + 1}")


class PadicCtx:
    """GR(p^N, r) tied to a companion FqField (same modulus, lifted).

    Immutable after construction apart from its memos (gamma values on top
    of the gamma tables shared by (p, N)) and the tables of its (field, N),
    each built on first use; _ring(field, N) is the context kernels share.
    """

    def __init__(self, field, N: int):
        if exceeds_cap(field.p, (_precision(N) + 1) // 2):
            raise PrecisionTooLarge(f"N = {N}: gamma table length bound p^ceil(N/2) > {TABLE_CAP}")
        self.field = field
        self.p = field.p
        self.r = field.r
        self.q = field.q
        self.N = N
        self.pN = field.p**N
        # the bit length of (q-1)(p^N-1)^2, the most a sum of q-1 products of
        # residues mod p^N reaches: one slot of every packing of this (field, N)
        self.width = ((self.q - 1) * (self.pN - 1) ** 2).bit_length()
        self.modulus = field.modulus
        self._gamma_tables = None
        self._gamma_memo = {}
        self._inv_memo = {}
        self._packed = self._traces = None
        self._columns = {}

    # -- scalar helpers -------------------------------------------------------

    def inv(self, n: int) -> int:
        """Inverse of the unit n mod p^N, memoized."""
        n %= self.pN
        hit = self._inv_memo.get(n)
        if hit is None:
            hit = self._inv_memo[n] = pow(n, -1, self.pN)
        return hit

    def rational_residue(self, x) -> int:
        """The residue of x in [0, p^N) for x in Z_p."""
        x = _rational(x)
        if x.denominator % self.p == 0:
            raise DenominatorDivisibleByP(f"{x} is not in Z_{self.p}")
        return x.numerator * self.inv(x.denominator) % self.pN

    # -- p-adic gamma ---------------------------------------------------------

    def warm_gamma_table(self):
        """Fetch the gamma tables shared by (p, N), building them if needed."""
        if self._gamma_tables is None:
            self._gamma_tables = _gamma_steps(self.p, self.N)
        return self._gamma_tables

    def gamma_at_residue(self, m: int) -> int:
        """Gamma_p(m) mod p^N for any integer m; it depends on m mod p^N only."""
        hit = self._gamma_memo.get(m)
        if hit is None:
            tables, pN = self._gamma_tables or self.warm_gamma_table(), self.pN
            hit = self._gamma_memo[m] = _gamma_value(tables, pN, m % pN)
        return hit

    def gamma(self, x) -> int:
        """Gamma_p(x) mod p^N for x in Q intersect Z_p, as a bare residue."""
        return self.gamma_at_residue(self.rational_residue(x))

    # -- tables of the (field, N) ---------------------------------------------

    def packed(self):
        """The one table of omega(g)^k mod p^N, k in 0..q-2, g the field
        generator, packed: entry k holds coefficient j of omega(g)^k in bits
        [jW, (j+1)W), W = width, and omega(t)^k is entry k * log(t) mod (q-1).
        One lift, then q-2 steps of one fixed product by omega(g), built by
        _ring(field, N) and read by every context with this (field, N).  The
        step is the r x r matrix of multiplication by omega(g), column j the
        coefficients of x^j * omega(g) in the same slots, so no slot of a sum
        of r <= q-1 column multiples carries: a power costs r products, r
        shifts and masks, and r shifts to pack it."""
        if self._packed is None:
            ring = _ring(self.field, self.N)
            if ring is not self:
                self._packed = ring.packed()
                return self._packed
            mod, pN, r, width = self.modulus, self.pN, self.r, self.width
            x = (0, 1) + (0,) * (r - 2)
            cols = [teichmuller(self.field.generator, self)]
            for _ in range(r - 1):
                cols.append(_poly_mulmod(cols[-1], x, mod, pN))
            cols = [sum(c << i * width for i, c in enumerate(col)) for col in cols]
            shifts, mask = range(0, r * width, width), (1 << width) - 1
            table, coeffs = [1], (1,) + (0,) * (r - 1)
            for _ in range(self.q - 1):
                total = sum(map(mul, coeffs, cols))
                coeffs = [(total >> s & mask) % pN for s in shifts]
                table.append(sum(map(lshift, coeffs, shifts)))
            if table.pop() != 1:
                raise InvariantViolation("omega(g) must have order q-1")
            self._packed = table
        return self._packed

    def unpack(self, total, scale=1):
        """The r slots of a packed sum total, each times scale, mod p^N: the
        vector in GR(p^N, r) of sum_a c_a * packed[k_a] for at most q-1
        residues c_a, whose slots reach (q-1)(p^N-1)^2 < 2^W at most, so
        none carries into the next."""
        width, pN = self.width, self.pN
        mask = (1 << width) - 1
        return tuple([(total >> s & mask) * scale % pN for s in range(0, self.r * width, width)])

    def traces(self):
        """(tr, const) for the Teichmuller powers: const[k] is the constant
        coefficient of entry k and tr[k] = Tr(omega(g)^k) = sum_{i<r}
        const[k p^i mod (q-1)], its trace to Z/p^N.  Frobenius maps
        omega(g)^k to omega(g)^(pk), so the entries of each Frobenius orbit
        of k (frobenius_orbits) sum to an element of Z/p^N: the packed sum's
        extension slots are checked to vanish, once per orbit, and the trace
        is r/(orbit length) times its constant slot."""
        if self._traces is None:
            packed, pN, r, width = self.packed(), self.pN, self.r, self.width
            mask = (1 << width) - 1
            tr = [0] * len(packed)
            for orbit in frobenius_orbits(self.p, len(packed))[0]:
                total = sum(map(packed.__getitem__, orbit))
                if any([(total >> s & mask) % pN for s in range(width, r * width, width)]):
                    raise InvariantViolation(
                        f"Teichmuller orbit of omega(g)^{orbit[0]} does not sum into Z/p^N")
                for j in orbit:
                    tr[j] = r // len(orbit) * (total & mask) % pN
            self._traces = tr, [w & mask for w in packed]
        return self._traces

    def column(self, kind, u, d):
        """The Gauss-orbit column (kind, u, d), stored once in the form the
        kernels read (rotated reads it).  Over the coset x = (J + u/d)/(q-1),
        J in [0, q-2], ("units", u, d) lists the Gross-Koblitz unit
        prod_i Gamma_p(<x p^i>) mod p^N, as an array('q') of the column
        twice over, which holds p^N under the table cap; ("digits", u, d)
        lists the Stickelberger digit sum M * sum_i <x p^i>, M = d(q-1), as
        (forward, reversed): the column and its reverse, each twice over,
        packed in DIGIT_BITS-bit slots (ffield._pack).  A digits column reads
        no gamma table; it does not depend on N, yet each context builds
        and keeps its own, so every context a kernel reads is at one of its
        precisions.  Its first and last entries are rechecked in every copy
        before it is kept."""
        key = kind, u, d
        if key in self._columns:
            return self._columns[key]
        p, q, pN, M, m = self.p, self.q, self.pN, d * (self.q - 1), self.q - 1
        ends = 0, m - 1
        # <x p^i> = ((dJ + u) p^i mod M)/M
        rows = [list(map(M.__rmod__, range(u * p**i, (M + u) * p**i, d * p**i)))
                for i in range(self.r)]
        if kind == "digits":
            entries = list(map(sum, zip(*rows)))
            # M<x p^i> = (dJ + u) p^i - M floor(x p^i), x = u/M + J/(q-1), u p^i < M
            check = [(d * J + u) * (q - 1) // (p - 1) - M * sum(
                _floor_nd(u, M, J, p**i, q - 1) for i in range(self.r)) for J in ends]
            col = _pack(entries * 2, _DIGITS), _pack(entries[::-1] * 2, _DIGITS)
            fwd, rev = (_unpack(x, _DIGITS, 2 * m) for x in col)
            copies = fwd[:m], fwd[m:], rev[m - 1::-1], rev[:m - 1:-1]
        else:
            gam, inv_M = self.gamma_at_residue, self.inv(M)
            rows = [list(map(gam, (v * inv_M % pN for v in row))) for row in rows]
            entries = list(map(pN.__rmod__, map(math.prod, zip(*rows))))
            check = [_gamma_orbit_nd(self, [(d * J + u, M)]) for J in ends]
            # the gamma memo pays only inside one build, where rows i >= 1
            # repeat row 0's residues; the column holds the products
            self._gamma_memo.clear()
            col = array("q", entries * 2)
            copies = col[:m], col[m:]
        if any([copy[J] for J in ends] != check for copy in copies):
            raise InvariantViolation(f"Gauss-orbit column {key} fails its recheck")
        self._columns[key] = col
        return col

    def rotated(self, kind, u, d, Y, s):
        """Column (kind, u, d) as the parameter at index Y of its coset, with
        side s = +-1, reads it: entry a is the column's entry (Y - s*a) mod
        (q-1), for 0 <= Y < q-1.  Units are one slice, an array of q-1
        entries; digits are one shift, an integer whose low q-1 slots hold
        the entries (digit_slots reads them) and whose higher bits hold
        the rest of the stored column."""
        col, m = self.column(kind, u, d), self.q - 1
        if kind == "units":
            return col[Y:Y + m] if s < 0 else col[Y + m:Y:-1]
        return col[0] >> DIGIT_BITS * Y if s < 0 else col[1] >> DIGIT_BITS * (m - 1 - Y)

    def digit_slots(self, total):
        """The low q-1 slots of a sum of small multiples of rotated digits
        columns, in a list: slot a of the sum when no slot reaches
        2^DIGIT_BITS, so that none carries into the next."""
        return _unpack(total, _DIGITS, self.q - 1)

    def __repr__(self):
        return f"PadicCtx(p={self.p}, r={self.r}, N={self.N})"


# the context of each (field, N), shared by every kernel and Teichmuller table
_ring = lru_cache(maxsize=32)(PadicCtx)


@lru_cache(maxsize=32)
def frobenius_orbits(p: int, m: int):
    """(orbits, full, reps, pick) for the map a -> p*a mod m on [0, m),
    m = p^r - 1: its orbits, each a tuple from its least member along the
    map, the full ones (r members) first, then the shorter ones, each part
    in order of least members; the number of full orbits; the orbits' least
    members in that order; and an itemgetter that reads them from a list
    indexed by a."""
    orbits, seen = [], bytearray(m)
    for a in range(m):
        if not seen[a]:
            orbit, j = [a], a * p % m
            while j != a:
                orbit.append(j)
                j = j * p % m
            for j in orbit:
                seen[j] = 1
            orbits.append(tuple(orbit))
    r = len(orbits[1])  # the orbit of 1, {p^i}
    orbits.sort(key=lambda orbit: len(orbit) < r)
    reps = [orbit[0] for orbit in orbits]
    return orbits, sum(len(orbit) == r for orbit in orbits), reps, itemgetter(*reps)


@dataclass(frozen=True)
class PadicInt:
    """A residue in [0, p^N) standing for an element of Z_p."""

    value: int
    ctx: PadicCtx

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.ctx.pN)

    def __int__(self):
        return self.value


def gamma_p(x, ctx: PadicCtx) -> PadicInt:
    """The p-adic gamma function at x in Q intersect Z_p, mod p^N.

    Gamma_p(x) mod p^N depends only on x mod p^N, so the value is the
    finite product Gamma_p(m) at the congruent integer m in [0, p^N).
    """
    return PadicInt(ctx.gamma(x), ctx)


# ---------------------------------------------------------------------------
# Galois ring arithmetic: an element of GR(p^N, r) is the tuple of its r
# coefficients mod p^N, constant term first, reduced by the lifted modulus
# (ffield's polynomial product with m = p^N)

def teichmuller(t, ctx: PadicCtx) -> tuple:
    """The Teichmuller lift of t in F_q^x as a coefficient tuple: the
    (q-1)-th root of unity in GR(p^N, r) congruent to t mod p, by iterating
    z -> z^q N times.  The independent lift behind the shared table."""
    if t.field is not ctx.field:
        raise ValueError("t and the p-adic context lie over different fields")
    if t.is_zero():
        raise ZeroInput("omega(0) is excluded; callers handle t = 0 separately")
    mod, pN = ctx.modulus, ctx.pN
    z = t.coeffs
    for _ in range(ctx.N):
        z = _poly_powmod(z, ctx.q, mod, pN)
    if _poly_powmod(z, ctx.q - 1, mod, pN) != (1,) + (0,) * (ctx.r - 1):
        raise InvariantViolation("Teichmuller lift failed")
    return z


# ---------------------------------------------------------------------------
# gamma-product and floor identities (the test oracles of the evaluator),
# each stated through the two Gross-Koblitz orbit quantities below.  Both
# are computed on integer pairs (n, d), reduced or not, d != 0: for x = n/d,
# <x p^i> = (n p^i mod d)/d.  The checkers turn their arguments into such
# pairs once and build no Fraction past that point.

def _gamma_orbit_nd(ctx: PadicCtx, pairs) -> int:
    """prod over (n, d) in pairs and i < r of Gamma_p(<n p^i/d>) mod p^N,
    at the residue (n p^i mod d) * d^-1, for p prime to d."""
    p, pN, gam = ctx.p, ctx.pN, ctx.gamma_at_residue
    prod = 1
    for n, d in pairs:
        if d % p == 0:
            raise DenominatorDivisibleByP(f"{n}/{d} is not in Z_{p}")
        inv_d = ctx.inv(d)
        for i in range(ctx.r):
            prod = prod * gam(n * p**i % d * inv_d % pN) % pN
    return prod


def _floor_nd(n: int, d: int, e: int, pi: int, m: int) -> int:
    """floor(<n pi/d> + e pi/m) for pi = p^i and m = q-1."""
    return (n * pi % d * m + e * pi * d) // (d * m)


@lru_cache(maxsize=4096)
def _coset(n: int, e: int, m: int):
    """(Y mod m, u, d), u < d coprime, with n/e at index Y of the coset (j + u/d)/m."""
    g = math.gcd(e, m)
    Y, u = divmod(n * (m // g), e // g)
    return Y % m, u, e // g


def _omega_scaled_is(ctx: PadicCtx, field, b: int, e: int, scalar, value) -> bool:
    """omega(b)^e * scalar == value in GR(p^N, r), for b prime to p and the
    residues scalar and value in Z_p."""
    w = ctx.packed()[e * field.log_table[b % ctx.p] % (ctx.q - 1)]
    return ctx.unpack(w * scalar) == (value,) + (0,) * (ctx.r - 1)


def product_formula_check(x, m: int, ctx: PadicCtx, field) -> bool:
    """Multiplication-type identity for Gamma_p along the orbit of x.

    Both sides live in GR(p^N, r) because of the Teichmuller factor
    omega(m^((1-x)(1-q))); requires p coprime to m and x(q-1) integral.
    """
    if ctx.field is not field:
        raise ValueError("field and p-adic context disagree")
    n, d = _rational(x).as_integer_ratio()
    if m < 1 or m % ctx.p == 0:
        raise HypothesisViolation("m must be positive and prime to p")
    if (ctx.q - 1) % d:
        raise HypothesisViolation("x(q-1) must be an integer")
    # (x + h)/m = (n + h d)/(d m)
    lhs = _gamma_orbit_nd(ctx, [(n + h * d, d * m) for h in range(m)])
    rhs = _gamma_orbit_nd(ctx, [(n, d)] + [(h, m) for h in range(1, m)])
    e, rem = divmod((d - n) * (1 - ctx.q), d)
    if rem:
        raise InvariantViolation("Teichmuller exponent (1-x)(1-q) is not an integer")
    return _omega_scaled_is(ctx, field, m, e, rhs, lhs)


def reflection_check(x, ctx: PadicCtx) -> bool:
    """Gamma_p(x) * Gamma_p(1-x) = (-1)^(a0(x)) mod p^N, where a0(x) is the
    representative of x mod p in {1, ..., p}."""
    # the residue m of x gives 1 - m for 1 - x, and m mod p for a0(x)
    m, gam, pN = ctx.rational_residue(x), ctx.gamma_at_residue, ctx.pN
    return gam(m) * gam((1 - m) % pN) % pN == (-1) ** (m % ctx.p or ctx.p) % pN


def _shift_sides(t: int, a: int, ctx: PadicCtx, field):
    """(e, lhs, rhs) of omega(t)^e * lhs = rhs, the identity
    omega(t)^(t a) prod_i Gamma(<t nu p^i>) prod_{0<h<t} Gamma(<h p^i/t>)
    = prod_i prod_{h<t} Gamma(<(h/t + nu) p^i>), with nu = a/(q-1)."""
    if ctx.field is not field:
        raise ValueError("field and p-adic context disagree")
    if t < 1 or t % ctx.p == 0:
        raise HypothesisViolation("t must be positive and prime to p")
    m = ctx.q - 1
    lhs = _gamma_orbit_nd(ctx, [(t * a, m)] + [(h, t) for h in range(1, t)])
    # h/t + nu = (h m + t a)/(t m)
    rhs = _gamma_orbit_nd(ctx, [(a, m)] + [(h * m + t * a, t * m) for h in range(1, t)])
    return t * a, lhs, rhs


def _downshift_sides(t: int, a: int, ctx: PadicCtx, field):
    """The sides of the downshift: its offsets (1+h)/t - nu for h < t are
    the upshift's h/t - nu re-indexed, since <(1 + y) p^i> = <y p^i>, so
    they are the upshift's at -a."""
    return _shift_sides(t, -a, ctx, field)


def gamma_product_downshift_check(t: int, a: int, ctx: PadicCtx, field) -> bool:
    """Gamma products for the orbit of -t*a/(q-1), downshifted by h/t."""
    return _omega_scaled_is(ctx, field, t, *_downshift_sides(t, a, ctx, field))


def gamma_product_upshift_check(t: int, a: int, ctx: PadicCtx, field) -> bool:
    """Companion identity with +t*a/(q-1) and upshift by h/t."""
    return _omega_scaled_is(ctx, field, t, *_shift_sides(t, a, ctx, field))


def gamma_complement_product_check(a: int, ctx: PadicCtx) -> bool:
    """prod_i Gamma(<(1 - a/(q-1))p^i>) Gamma(<a p^i/(q-1)>) = (-1)^r (-1)^a."""
    if not 0 < a <= ctx.q - 2:
        raise HypothesisViolation("need 0 < a <= q-2")
    m = ctx.q - 1
    return _gamma_orbit_nd(ctx, [(m - a, m), (a, m)]) == (-1) ** ctx.r * (-1) ** a % ctx.pN


def gamma_half_shift_check(a: int, ctx: PadicCtx) -> bool:
    """The <1/2 +- a/(q-1)> gamma quotient equals (-1)^a off a = (q-1)/2 mod q-1."""
    m = ctx.q - 1
    if a % m == m // 2:
        raise HypothesisViolation("a = (q-1)/2 mod q-1 is excluded")
    # 1/2 -+ a/m = (m -+ 2a)/(2m)
    lhs = _gamma_orbit_nd(ctx, [(m - 2 * a, 2 * m), (m + 2 * a, 2 * m)])
    return lhs == (-1) ** a * _gamma_orbit_nd(ctx, [(1, 2), (1, 2)]) % ctx.pN


def _frobenius_power(p: int, i: int) -> int:
    """p^i for a Frobenius index i >= 0, where it is an int."""
    if i < 0:
        raise HypothesisViolation("the Frobenius index i must be >= 0")
    return p**i


def floor_negative_multiple_check(d: int, a: int, i: int, p: int, q: int) -> bool:
    """floor(a p^i/(q-1)) + floor(-d a p^i/(q-1)) matches the h/d shift sum
    off a = 0 mod q-1, where a p^i/(q-1) is an integer and it fails, for d
    prime to p: the sum reads <h p^i/d>, which permute the h/d only then."""
    if d < 1:
        raise HypothesisViolation("d must be positive")
    if d % p == 0:
        raise HypothesisViolation(f"p = {p} divides d = {d}")
    pi, m = _frobenius_power(p, i), q - 1
    if a % m == 0:
        raise HypothesisViolation("a = 0 mod q-1 is excluded")
    lhs = _floor_nd(0, 1, a, pi, m) + _floor_nd(0, 1, -d * a, pi, m)
    return lhs == sum(_floor_nd(h, d, -a, pi, m) for h in range(1, d)) - 1


def floor_positive_multiple_check(l: int, a: int, i: int, p: int, q: int) -> bool:
    """floor(l a p^i/(q-1)) matches the -h/l shift sum, for l prime to p."""
    if l < 1:
        raise HypothesisViolation("l must be positive")
    if l % p == 0:
        raise HypothesisViolation(f"p = {p} divides l = {l}")
    pi, m = _frobenius_power(p, i), q - 1
    return _floor_nd(0, 1, l * a, pi, m) == sum(_floor_nd(-h, l, a, pi, m) for h in range(l))


def floor_halving_check(x, j: int, i: int, p: int, q: int) -> bool:
    """Both halving identities for floor(<x p^i> -+ 2j p^i/(q-1))."""
    n, d = _rational(x).as_integer_ratio()
    pi, m = _frobenius_power(p, i), q - 1
    # x/2 = n/(2d) and (1 + x)/2 = (n + d)/(2d)
    return all(
        _floor_nd(n, d, 2 * e, pi, m)
        == _floor_nd(n, 2 * d, e, pi, m) + _floor_nd(n + d, 2 * d, e, pi, m)
        for e in (-j, j)
    )


def quarter_gamma_product_check(n: int, ctx: PadicCtx) -> bool:
    """Four-gamma product at offsets +-1/4, +-3/4 around n/(q-1) equals 1."""
    q, m = ctx.q, ctx.q - 1
    if q % 4 != 1:
        raise HypothesisViolation("requires q = 1 mod 4")
    if n % m in (m // 4, 3 * m // 4):
        raise HypothesisViolation("n on the quarter points mod q-1 is excluded")
    # p is odd, so {<p^i/4>, <3p^i/4>} = {1/4, 3/4} and the constant
    # quarters of the exponent are the orbit floors of 1/4 and 3/4
    s = -sum(
        _floor_nd(c, 4, e, ctx.p**i, m)
        for c in (1, 3) for e in (n, -n) for i in range(ctx.r)
    )
    # c/4 +- n/m = (c m +- 4n)/(4m)
    num = _gamma_orbit_nd(ctx, [(c * m + 4 * e, 4 * m) for c in (1, 3) for e in (n, -n)])
    den = _gamma_orbit_nd(ctx, [(1, 4), (1, 4), (3, 4), (3, 4)])
    if s >= 0:
        return pow(-ctx.p, s, ctx.pN) * num % ctx.pN == den
    return num == pow(-ctx.p, -s, ctx.pN) * den % ctx.pN


def dth_root_gamma_quotient_check(d: int, n: int, ctx: PadicCtx) -> bool:
    """Four-gamma quotient around n/(p-1) for p = -1 mod d equals 1 (q = p)."""
    p = ctx.p
    if ctx.r != 1:
        raise HypothesisViolation("stated over the prime field only")
    if d < 1:
        raise HypothesisViolation("d must be positive")
    if (p + 1) % d != 0:
        raise HypothesisViolation("requires p = -1 mod d")
    m = p - 1
    # n/m - 1/d = (nd - m)/(dm) and n/m - (1 - 1/d) = (nd - (d-1)m)/(dm)
    a, b = n * d - m, n * d - (d - 1) * m
    lhs = _gamma_orbit_nd(ctx, [(a, d * m), (b, d * m), (-a, d * m), (-b, d * m)])
    return lhs == _gamma_orbit_nd(ctx, [(1, d), (1, d), (d - 1, d), (d - 1, d)])
