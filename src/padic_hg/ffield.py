"""Exact arithmetic in F_{p^r} on integer encodings, through full
discrete-log, exp and Zech-logarithm tables.

Fields are built deterministically (lexicographically smallest monic
irreducible modulus, smallest generator) so that every run of the package
produces identical tables.  Point counting over the supported Weierstrass
families is the ground-truth oracle for the trace formulas; the traces of
a whole family come from one additive correlation (family_traces).
"""

import itertools
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Callable, NamedTuple

from .errors import (
    DegreeTooLarge,
    DenominatorDivisibleByP,
    HypothesisViolation,
    InvariantViolation,
    NotPrime,
    SingularCurve,
)

TABLE_CAP = 10**6  # largest q for which log tables are built


def exceeds_cap(p, e):
    """p^e > TABLE_CAP for p >= 2 and e >= 0, without forming p^e when e
    alone decides it."""
    return e > TABLE_CAP.bit_length() or p**e > TABLE_CAP


def is_prime(n):
    return prime_factors(n) == [n]


def prime_factors(n):
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient tuples, low degree first)

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mulmod(a, b, mod, m):
    """a*b reduced by the monic polynomial mod, coefficients mod m: F_q for
    m = p, the Galois ring GR(p^N, r) for m = p^N."""
    r = len(mod) - 1
    if r == 1:
        return (a[0] * b[0] % m,)
    prod = [0] * (2 * r - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for i in range(2 * r - 2, r - 1, -1):
        c = prod[i] % m
        if c:
            for j in range(r):
                prod[i - r + j] -= c * mod[j]
        prod[i] = 0
    # tuple() of a list: a generator here left ~1000 more blocks allocated
    return tuple([v % m for v in prod[:r]])


def _poly_powmod(base, e, mod, m):
    """base^e for e >= 0, square-and-multiply over _poly_mulmod."""
    result = (1,) + (0,) * (len(mod) - 2)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, m)
        base = _poly_mulmod(base, base, mod, m)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(tuple(a)), _poly_trim(tuple(b))
    while b:
        inv = pow(b[-1], -1, p)
        r = list(a)
        while len(r) >= len(b):
            c = (r[-1] * inv) % p
            shift = len(r) - len(b)
            for j, bj in enumerate(b):
                r[shift + j] = (r[shift + j] - c * bj) % p
            r = list(_poly_trim(tuple(r)))
            if not r:
                break
        a, b = b, tuple(r)
    return a


def _is_irreducible(f, p):
    """Rabin test: f monic of degree r over F_p."""
    r = len(f) - 1
    if r == 1:
        return True
    x = (0, 1)
    xq = _poly_powmod(x, p**r, f, p)
    lin = list(xq)
    lin[1] = (lin[1] - 1) % p
    if _poly_trim(tuple(lin)):
        return False
    for s in prime_factors(r):
        h = _poly_powmod(x, p ** (r // s), f, p)
        diff = list(h)
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd(diff, f, p)) != 1:
            return False
    return True


def _smallest_irreducible(p, r):
    """Lexicographically smallest monic irreducible of degree r over F_p,
    comparing coefficient tuples low degree first."""
    for tail in itertools.product(range(p), repeat=r):
        f = tail + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FqElem:
    """Element of F_{p^r} held as its integer encoding 0..q-1 (see encode);
    all arithmetic goes through the log, exp and Zech tables of the field."""

    __slots__ = ("enc", "field")

    def __init__(self, enc, field):
        self.enc = enc
        self.field = field

    @property
    def coeffs(self):
        """The residue-polynomial coefficients, constant term first."""
        p = self.field.p
        return tuple(self.enc // p**i % p for i in range(self.field.r))

    def encode(self):
        """Integer 0..q-1, base-p digits with the constant term lowest."""
        return self.enc

    def is_zero(self):
        return self.enc == 0

    def __add__(self, other):
        """g^i + g^j = g^(i + Z(j - i)), Z the Zech logarithm."""
        f = self.field
        if other.field is not f:
            raise ValueError("operands lie in different fields")
        if self.enc == 0:
            return other
        if other.enc == 0:
            return self
        log = f.log_table
        i = log[self.enc]
        z = f.zech_table[(log[other.enc] - i) % (f.q - 1)]
        return f.zero if z is None else f.exp(i + z)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        f = self.field
        if self.enc == 0:
            return self
        return f.exp(f.log_table[self.enc] + (f.q - 1) // 2)

    def __mul__(self, other):
        f = self.field
        if other.field is not f:
            raise ValueError("operands lie in different fields")
        if self.enc == 0 or other.enc == 0:
            return f.zero
        log = f.log_table
        return f.exp(log[self.enc] + log[other.enc])

    def __pow__(self, e):
        f = self.field
        if self.enc == 0:
            if e == 0:
                return f.one
            if e < 0:
                raise ZeroDivisionError("0 has no negative powers in F_q")
            return f.zero
        return f.exp(f.log_table[self.enc] * e)

    def inverse(self):
        return self**-1

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        return (
            isinstance(other, FqElem)
            and self.field is other.field
            and self.enc == other.enc
        )

    def __hash__(self):
        return hash((self.enc, self.field.p, self.field.r))

    def __repr__(self):
        return f"FqElem({self.enc} in F_{self.field.q})"


class FqField:
    """F_{p^r} with modulus, generator, and complete log/exp/Zech tables.

    exp_table[k] is the encoding of g^k, log_table[v] the discrete log of
    the encoding v (None at 0), and zech_table[k] the Zech logarithm Z(k)
    with 1 + g^k = g^Z(k) (None where 1 + g^k = 0, that is k = (q-1)/2).
    Immutable after construction; all operations are pure reads.
    """

    def __init__(self, p, r):
        if p > TABLE_CAP:  # before the primality test, which costs sqrt(p)
            raise DegreeTooLarge(f"p = {p} exceeds table cap {TABLE_CAP}")
        if not is_prime(p) or p == 2:
            raise NotPrime(f"p = {p} is not an odd prime")
        if r < 1:
            raise ValueError("r must be >= 1")
        if exceeds_cap(p, r):
            raise DegreeTooLarge(f"q = {p}^{r} exceeds table cap {TABLE_CAP}")
        q = p**r
        self.p = p
        self.r = r
        self.q = q
        self.modulus = _smallest_irreducible(p, r)
        self.zero = FqElem(0, self)
        self.one = FqElem(1, self)
        self._build_tables()

    def _build_tables(self):
        p, q = self.p, self.q
        one = self.one.coeffs
        subgroup_orders = [(q - 1) // s for s in prime_factors(q - 1)]
        gen = None
        for v in range(2, q):
            cand = FqElem(v, self).coeffs
            if all(
                _poly_powmod(cand, m, self.modulus, p) != one
                for m in subgroup_orders
            ):
                gen = cand
                break
        if gen is None:
            raise InvariantViolation("F_q^x is cyclic; a generator must exist")
        self.generator = self.from_coeffs(gen)

        exp_table = [0] * (q - 1)
        log_table = [None] * q
        cur = one
        for k in range(q - 1):
            enc = self.from_coeffs(cur).enc
            exp_table[k] = enc
            log_table[enc] = k
            cur = _poly_mulmod(cur, gen, self.modulus, p)
        if cur != one:
            raise InvariantViolation("generator order must be q-1")
        self.exp_table = exp_table
        self.log_table = log_table
        # adding 1 bumps the constant (lowest base-p) digit of the encoding
        self.zech_table = [
            log_table[e - p + 1 if e % p == p - 1 else e + 1] for e in exp_table
        ]

    # -- element constructors ------------------------------------------------

    def elem(self, v):
        """Element from its 0..q-1 encoding (base-p, constant digit first)."""
        return FqElem(v % self.q, self)

    def from_coeffs(self, coeffs):
        """Element from residue-polynomial coefficients, constant term first."""
        p = self.p
        return FqElem(sum(c % p * p**i for i, c in enumerate(coeffs)), self)

    def from_int(self, n):
        """Image of the rational integer n in the prime subfield."""
        return FqElem(n % self.p, self)

    def from_rational(self, x):
        """Image of a Fraction with denominator prime to p."""
        if x.denominator % self.p == 0:
            raise DenominatorDivisibleByP(
                f"{x} does not reduce mod {self.p}"
            )
        return self.from_int(
            x.numerator * pow(x.denominator, -1, self.p)
        )

    # -- multiplicative structure ---------------------------------------------

    def log(self, x):
        """Discrete log base the fixed generator, in [0, q-2]."""
        if x.is_zero():
            raise ZeroDivisionError("log(0) undefined")
        return self.log_table[x.enc]

    def exp(self, k):
        return FqElem(self.exp_table[k % (self.q - 1)], self)

    def absolute_trace(self, x):
        """tr(x) = x + x^p + ... + x^(p^(r-1)) as an integer in [0, p)."""
        acc = x
        frob = x
        for _ in range(self.r - 1):
            frob = frob**self.p
            acc = acc + frob
        if acc.enc >= self.p:
            raise InvariantViolation("trace must land in F_p")
        return acc.enc

    def __repr__(self):
        return f"FqField(p={self.p}, r={self.r})"


@lru_cache(maxsize=None)
def build_field(p: int, r: int) -> FqField:
    """Deterministic F_{p^r}; cached so repeated builds share tables."""
    return FqField(p, r)


def quad_char(x: FqElem) -> int:
    """Quadratic character phi: 0 at 0, else +-1 by discrete-log parity."""
    if x.is_zero():
        return 0
    return 1 if x.field.log_table[x.enc] % 2 == 0 else -1


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class CurveSpec:
    """A curve of one of the families of FAMILIES over a fixed F_q."""

    family: str
    params: tuple

    @staticmethod
    def of(family, *coords):
        """The curve of family at coords, which must meet the family's
        hypotheses (HypothesisViolation otherwise).  A singular curve is
        reported by count_points and member_trace, not here."""
        spec = FAMILIES[family]
        if len(coords) != len(spec.coords):
            raise TypeError(f"{family} takes {len(spec.coords)} coordinates, not {len(coords)}")
        if coords[0].field.p <= spec.p_above:
            raise HypothesisViolation(f"{family} family requires p > {spec.p_above}")
        if spec.nonzero and not all([x.enc for x in coords]):
            raise HypothesisViolation(f"{family} family requires {', '.join(spec.coords)} nonzero")
        return CurveSpec(family, coords)

    legendre = staticmethod(lambda lam: CurveSpec.of("legendre", lam))
    a1a3 = staticmethod(lambda a1, a3: CurveSpec.of("a1a3", a1, a3))
    fg = staticmethod(lambda f, g: CurveSpec.of("fg", f, g))
    cd = staticmethod(lambda c, d: CurveSpec.of("cd", c, d))
    weierstrass = staticmethod(lambda *a: CurveSpec.of("weierstrass", *a))

    def a_invariants(self, field):
        """(a1, a2, a3, a4, a6) of the long Weierstrass form."""
        return FAMILIES[self.family].a_invariants(field.zero, field.one, *self.params)


def _b_invariants(curve, field):
    a1, a2, a3, a4, a6 = curve.a_invariants(field)
    four = field.from_int(4)
    two = field.from_int(2)
    b2 = a1 * a1 + four * a2
    b4 = two * a4 + a1 * a3
    b6 = a3 * a3 + four * a6
    b8 = a1 * a1 * a6 + four * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


def discriminant(curve: CurveSpec, field: FqField) -> FqElem:
    b2, b4, b6, b8 = _b_invariants(curve, field)
    nine = field.from_int(9)
    return (
        -(b2 * b2 * b8)
        - field.from_int(8) * (b4 * b4 * b4)
        - field.from_int(27) * (b6 * b6)
        + nine * b2 * b4 * b6
    )


def count_points(curve: CurveSpec, field: FqField) -> int:
    """#E(F_q) including infinity, via the quadratic-character sum.

    Completing the square (p odd) turns every supported form into
    w^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, so the count is
    1 + sum_x (1 + phi(rhs(x))).
    """
    if discriminant(curve, field).is_zero():
        raise SingularCurve(f"{curve.family} parameters give a singular curve")
    return 1 + field.q + _phi_sum(curve, field)


def _digit_map(p, r, base, sign=1, c=0):
    """[sum_i ((sign*d_i + c_i) mod p) * base^i for every encoding v], d_i
    and c_i the base-p digits of v and c: with base p, the encoding of
    v + c; with base 2p-1, where v lands in a Kronecker packing."""
    out = [0]
    for i in range(r):
        ci, step = c // p**i % p, base**i
        out = [x + y for y in [(sign * d + ci) % p * step for d in range(p)] for x in out]
    return out


def _phi_by_encoding(field):
    """[phi(v) for every encoding v]: 0 at 0, else the parity sign of log v."""
    return [0] + [1 - 2 * (k & 1) for k in field.log_table[1:]]


def _phi_sum(curve, field):
    """sum_x phi(4x^3 + b2 x^2 + 2 b4 x + b6), which is -a_q when the curve
    is nonsingular.  No discriminant check, so that the family tables can
    check members at singular parameters too.

    Horner's rule over every encoding x at once: a product is one exp
    lookup at a sum of logs, where log 0 = 2(q-1) and every exp index from
    2(q-1) on holds 0, and adding a constant is one lookup in its table.
    """
    b2, b4, b6, _ = _b_invariants(curve, field)
    p, r, n = field.p, field.r, field.q - 1
    log = [2 * n] + field.log_table[1:]
    exp = field.exp_table * 2 + [0] * (2 * n + 1)
    four = log[4 % p]
    ys = [exp[four + lx] for lx in log]
    for c in (b2, field.from_int(2) * b4):
        plus = _digit_map(p, r, p, c=c.enc)
        ys = [exp[log[plus[y]] + lx] for y, lx in zip(ys, log)]
    plus = _digit_map(p, r, p, c=b6.enc)
    phi = _phi_by_encoding(field)
    return sum([phi[plus[y]] for y in ys])


def trace_of_frobenius(curve: CurveSpec, field: FqField) -> int:
    """a_q = q + 1 - #E(F_q); validated against the Hasse bound."""
    a = field.q + 1 - count_points(curve, field)
    if a * a > 4 * field.q:
        raise InvariantViolation("Hasse bound violated: counting bug")
    return a


# ---------------------------------------------------------------------------
# the traces of a whole family from one correlation

def _fold(slots, p, r):
    """Fold each digit axis of 2p-1 slots back to p: slot s of an axis adds
    into digit s mod p.  Digit p-1 keeps its own slot alone, as an axis has
    no slot 2p-1."""
    width = 2 * p - 1
    for i in reversed(range(r)):
        inner = width**i
        edge, span = (p - 1) * inner, width * inner
        out = []
        for start in range(0, len(slots), span):
            block = slots[start:start + span]
            out += map(add, block[:edge], block[edge + inner:])
            out += block[edge:edge + inner]
        slots = out
    return slots


def _correlate(h, f, p, r):
    """c[m] = sum_v h[v] * f[v + m] for integer lists indexed by the
    encodings of F_{p^r}, v + m adding base-p digits mod p, by one
    big-integer product (Kronecker substitution).

    h lands at the negated digits of v, so the product holds the cyclic
    convolution of h(-v) with f, each digit axis unfolded to 2p-1 slots so
    that no digit sum carries into the next axis.  Both lists are offset to
    be non-negative first, so that no slot borrows; the offsets add the
    same constant to every c[m], taken off at the end.
    """
    q = p**r
    lo_h, lo_f = min(h), min(f)
    h_off = [v - lo_h for v in h]
    f_off = [v - lo_f for v in f]
    bound = sum(h_off) * max(f_off)  # no slot of the product exceeds it
    code = next(c for c in "BHIQ" if bound >> 8 * array(c).itemsize == 0)
    width = 2 * p - 1
    size = width**r

    def pack(values, pos):
        slots = [0] * size
        for v, k in zip(values, pos):
            slots[k] = v
        packed = array(code, slots)
        if sys.byteorder == "big":
            packed.byteswap()
        return int.from_bytes(packed.tobytes(), "little")

    product = pack(h_off, _digit_map(p, r, width, -1)) * pack(f_off, _digit_map(p, r, width))
    slots = array(code)
    slots.frombytes(product.to_bytes(size * slots.itemsize, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    shift = lo_f * sum(h) + lo_h * sum(f) - q * lo_h * lo_f
    return [c + shift for c in _fold(slots.tolist(), p, r)]


def _legendre_histogram(field):
    """x(x-1)(x-m) at x = -v: h[v] = phi(-1) phi(v) phi(v+1)."""
    h, exp = [0] * field.q, field.exp_table
    minus_one = 1 - 2 * ((field.q - 1) // 2 & 1)
    for k, z in enumerate(field.zech_table):
        if z is not None:
            h[exp[k]] = minus_one * (1 - 2 * ((k + z) & 1))
    return h, 0


def _fg_histogram(field):
    """x(x^2 + x + m): phi(x) at v = x(x+1)."""
    h, exp, n = [0] * field.q, field.exp_table, field.q - 1
    for k, z in enumerate(field.zech_table):
        h[0 if z is None else exp[(k + z) % n]] += 1 - 2 * (k & 1)
    return h, 0


def _cd_histogram(field):
    """x^3 + x^2 + m: 1 at v = x^2(x+1), x = 0 included."""
    h, exp, n = [0] * field.q, field.exp_table, field.q - 1
    h[0] = 1
    for k, z in enumerate(field.zech_table):
        h[0 if z is None else exp[(2 * k + z) % n]] += 1
    return h, 0


def _a1a3_histogram(field):
    """4x^3 + (x + m)^2 at x = m s: phi(s) at v = (s+1)^2 / (4 s^3), and
    s = 0 gives c = -1."""
    h, exp, n = [0] * field.q, field.exp_table, field.q - 1
    log4 = field.log_table[4 % field.p]
    for k, z in enumerate(field.zech_table):
        h[0 if z is None else exp[(2 * z - 3 * k - log4) % n]] += 1 - 2 * (k & 1)
    return h, -1


class Family(NamedTuple):
    """A Weierstrass family; one with a table (family_traces) also has a
    histogram, its singular members and its reduction to a member."""

    coords: tuple  # in the order CurveSpec.of takes them; each a `trace` flag
    p_above: int  # hypothesis: p > p_above
    nonzero: bool  # hypothesis: no coordinate is 0
    a_invariants: Callable  # (zero, one, *coords) -> (a1, a2, a3, a4, a6)
    histogram: Callable = None  # field -> (h, c), as family_traces reads them
    # the roots in m, as (numerator, denominator), of the member's
    # discriminant; one whose denominator p divides has no image in F_q
    singular: tuple = ()
    # coordinates (x, ..., y) give the member m = y / x^exponent, with
    # twist phi(x) when twisted, else 1
    exponent: int = 0
    twisted: bool = False

    def member(self, m, field):
        """The coordinates of the member with parameter m: (m) or (1, m)."""
        return (field.one,) * (len(self.coords) - 1) + (m,)


# each comment ends with the discriminant of the family's member m
FAMILIES = {
    # y^2 = x(x-1)(x-lambda), valid at lambda = -1; 16 m^2 (m - 1)^2
    "legendre": Family(("lambda",), 2, False, lambda z, one, lam: (z, -(one + lam), z, lam, z),
                       _legendre_histogram, ((0, 1), (1, 1))),
    # a1a3(a1, a3) is isomorphic to a1a3(1, a3/a1^3); m^3 (1 - 27m)
    "a1a3": Family(("a1", "a3"), 3, True, lambda z, one, a1, a3: (a1, z, a3, z, z),
                   _a1a3_histogram, ((0, 1), (1, 27)), 3),
    # x -> f x makes fg(f, g) the twist by f of fg(1, g/f^2); 16 m^2 (1 - 4m)
    "fg": Family(("f", "g"), 2, True, lambda z, one, f, g: (z, f, z, g, z),
                 _fg_histogram, ((0, 1), (1, 4)), 2, True),
    # x -> c x makes cd(c, d) the twist by c of cd(1, d/c^3); -16 m (27m + 4)
    "cd": Family(("c", "d"), 3, True, lambda z, one, c, d: (z, c, z, z, d),
                 _cd_histogram, ((0, 1), (-4, 27)), 3, True),
    "weierstrass": Family(("a1", "a2", "a3", "a4", "a6"), 2, False, lambda z, one, *a: a),
}


def _tabulated(family):
    """The record of a family that has a table; ValueError for any other."""
    spec = FAMILIES.get(family)
    if spec is None or spec.histogram is None:
        raise ValueError(f"no family table for {family!r}")
    return spec


@lru_cache(maxsize=32)
def family_traces(family: str, field: FqField) -> tuple:
    """a_q of every member of a family over field, indexed by the encoding
    of its parameter m: the Legendre curve y^2 = x(x-1)(x-m), and fg(1, m),
    cd(1, m), a1a3(1, m).  The entries at the family's singular m are None.

    The family's histogram (h, c), one O(q) pass over x = g^k with x + 1 =
    g^z by the Zech table (z is None at x = -1, where each histogram's
    power is 0), gives a_q(m) = c - sum_v h[v] * phi(v + m) (m != 0 for
    a1a3), so one correlation with phi gives every entry; two of them are then recomputed as direct sums over
    the encodings (_phi_sum) and must agree.  Each singular m must have
    discriminant 0, the only discriminants the table computes.
    """
    spec = _tabulated(family)
    h, c = spec.histogram(field)
    p = field.p
    table = [c - v for v in _correlate(h, _phi_by_encoding(field), p, field.r)]
    for m in {1, field.q - 1}:
        if table[m] != -_phi_sum(CurveSpec(family, spec.member(field.elem(m), field)), field):
            raise InvariantViolation(
                f"{family} table disagrees with the direct sum at m = {m}"
            )
    for num, den in spec.singular:
        if den % p:
            m = field.from_int(num * pow(den, -1, p))
            if not discriminant(CurveSpec(family, spec.member(m, field)), field).is_zero():
                raise InvariantViolation(
                    f"{family} member at m = {m.enc} is not singular"
                )
            table[m.enc] = None
    return tuple(table)


def family_member(curve: CurveSpec, field: FqField) -> tuple:
    """(m, twist) with a_q(curve) = twist * a_q(member m of its family), by
    the family's reduction (Family).  The isomorphism and the twists scale
    the discriminant by a unit, so the curve is singular exactly when its
    member is.  Coordinates from another field raise ValueError."""
    spec = _tabulated(curve.family)
    for x in curve.params:
        if x.field is not field:
            raise ValueError(f"{curve.family} coordinates do not lie in {field}")
    x, y, e = curve.params[0], curve.params[-1], spec.exponent
    return y / x**e if e else y, quad_char(x) if spec.twisted else 1


def member_trace(family: str, m: FqElem, field: FqField) -> int:
    """a_q of the family's member m, read from its table: SingularCurve
    at a None entry.  Validated against the Hasse bound."""
    a = family_traces(family, field)[m.enc]
    if a is None:
        raise SingularCurve(f"{family} parameters give a singular curve")
    if a * a > 4 * field.q:
        raise InvariantViolation("Hasse bound violated: counting bug")
    return a
