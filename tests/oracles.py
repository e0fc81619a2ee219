"""Independent reference implementations used as test oracles.

Everything here is written directly from definitions in the slowest,
most transparent way possible (Fractions, exhaustive enumeration) and
deliberately shares no bookkeeping with the package internals it checks.
"""

import cmath
import math
from fractions import Fraction

from padic_hg import frobtrace
from padic_hg.errors import DenominatorDivisibleByP, HypothesisViolation, SingularCurve
from padic_hg.ffield import (
    CurveSpec,
    _b_invariants,
    _poly_mulmod,
    discriminant,
    quad_char,
    trace_of_frobenius,
)
from padic_hg.gfunc import GParams, choose_precision, evaluate_G, trace_bound
from padic_hg.padic import PadicCtx, frac, teichmuller


def multiplicative_order(elem, field):
    """Order of a unit by brute-force powering."""
    cur = elem
    for k in range(1, field.q):
        if cur == field.one:
            return k
        cur = cur * elem
    raise AssertionError("unit has no order <= q-1")


def enumerate_legendre_points(lam_int, p):
    """#E for y^2 = x(x-1)(x-lambda) over F_p by raw integer enumeration."""
    count = 1
    for x in range(p):
        rhs = x * (x - 1) * (x - lam_int) % p
        for y in range(p):
            if (y * y - rhs) % p == 0:
                count += 1
    return count


def count_points_exhaustive(curve, field):
    """#E(F_q) by enumerating every (x, y) on the long Weierstrass form."""
    if discriminant(curve, field).is_zero():
        raise SingularCurve(f"{curve.family} parameters give a singular curve")
    a1, a2, a3, a4, a6 = curve.a_invariants(field)
    total = 1
    for x in map(field.elem, range(field.q)):
        rhs = ((x + a2) * x + a4) * x + a6
        lin = a1 * x + a3
        for y in map(field.elem, range(field.q)):
            if y * y + lin * y == rhs:
                total += 1
    return total


def frobenius_power_series(ap, p, good, r):
    """The prime-power L-series coefficient a_{p^r} by the two-term
    recurrence seeded with a_1 = 1 (the seed the strict-xfails of the
    acceptance suite pin; point counts follow frobtrace.trace_power)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    prev, cur = 1, ap
    for _ in range(r - 1):
        prev, cur = cur, ap * cur - (p if good else 0) * prev
    return cur


def gamma_by_direct_product(m, p, pN):
    """Gamma_p(m) straight from the defining product."""
    g = 1
    for j in range(1, m):
        if j % p:
            g = g * j % pN
    return (-1) ** m * g % pN


def gamma_table_by_recurrence(p, pN):
    """[Gamma_p(m) mod pN for m in 0..pN-1], one step at a time from
    Gamma_p(0) = 1 and Gamma_p(m+1) = -Gamma_p(m) * (m if p does not
    divide m else 1): the dense table, O(pN) time and memory."""
    table = [1] * pN
    g = 1
    for m in range(pN - 1):
        g = -g * (m if m % p else 1) % pN
        table[m + 1] = g
    return table


def gamma_steps_two_level(p, N):
    """The two-level gamma tables that the three-level ones replaced.

    With B = p^ceil(N/2) and m = k*B + s, (-1)^m Gamma_p(m) is the product
    of the units below kB (giant[k]) times the linear part c0[s] + c1[s]*z
    at z = kB of the product of z + t over the units t < s, since z^2 = 0
    mod p^N.  Returns (B, c0, c1, giant0, giant1), signs and the factor kB
    folded in, so that Gamma_p(m) = giant0[k] c0[s] + giant1[k] c1[s]; read
    it with gamma_by_two_level.  O(p^ceil(N/2)) time and memory."""
    pN = p**N
    B = p ** ((N + 1) // 2)
    c0, c1 = [0] * B, [0] * B
    u0, u1 = 1, 0
    for s in range(B):
        c0[s] = u0 if s % 2 == 0 else -u0 % pN
        c1[s] = u1 if s % 2 == 0 else -u1 % pN
        if s % p:
            u0, u1 = u0 * s % pN, (u1 * s + u0) % pN
    giant0, giant1 = [], []
    g = 1
    for k in range(pN // B):
        z = k * B
        sign = -1 if z % 2 else 1
        giant0.append(sign * g % pN)
        giant1.append(sign * g * z % pN)
        g = g * (u0 + u1 * z) % pN
    return B, c0, c1, giant0, giant1


def gamma_by_two_level(steps, pN, m):
    """Gamma_p(m) mod pN from gamma_steps_two_level's tables, 0 <= m < pN."""
    B, c0, c1, giant0, giant1 = steps
    k, s = divmod(m, B)
    return (giant0[k] * c0[s] + giant1[k] * c1[s]) % pN


def a0(x, p):
    """The representative of x mod p in {1, ..., p}, the exponent of the
    reflection formula Gamma_p(x) Gamma_p(1 - x) = (-1)^a0(x)."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise DenominatorDivisibleByP(f"{x} is not in Z_{p}")
    v = x.numerator * pow(x.denominator, -1, p) % p
    return p if v == 0 else v


def gamma_orbit_by_fractions(ctx, *xs):
    """prod over x in xs and i < r of Gamma_p(<x p^i>) mod p^N, one
    Fraction fractional part per factor."""
    prod = 1
    for x in xs:
        for i in range(ctx.r):
            prod = prod * ctx.gamma(frac(Fraction(x) * ctx.p**i)) % ctx.pN
    return prod


def floor_orbit_by_fractions(x, e, i, p, q):
    """floor(<x p^i> + e p^i/(q-1)) in Fractions."""
    return math.floor(frac(Fraction(x) * p**i) + Fraction(e * p**i, q - 1))


def jacobi_sum_padic_by_elements(a, b, field, ctx):
    """J(omega-bar^a, omega-bar^b) in GR(p^N, r), one element x at a time:
    1 - x by coefficient arithmetic in TupleField, never by the field's
    Zech table, then omega-bar^a(x) omega-bar^b(1 - x) as the Teichmuller
    power of its discrete logs, added coefficient by coefficient."""
    p, q = field.p, field.q
    ref = TupleField(p, field.modulus)
    pows, logs = [ctx.unpack(w) for w in ctx.packed()], field.log_table
    acc = [0] * ctx.r
    for v in range(2, q):  # x = 0, 1 contribute 0 by convention
        w = ref.sub(ref.one, ref.decode(v))
        k = (-a * logs[v] - b * logs[sum(c * p**i for i, c in enumerate(w))]) % (q - 1)
        for j, c in enumerate(pows[k]):
            acc[j] += c
    return tuple(c % ctx.pN for c in acc)


def jacobi_sum_complex_by_elements(a, b, field):
    """J(T^a, T^b) as a complex sum, one element x at a time in encoding
    order: 1 - x by coefficient arithmetic in TupleField, never by the
    field's Zech table, then T^a(x) T^b(1 - x) from the discrete logs of
    both, added in double precision."""
    p, q = field.p, field.q
    ref = TupleField(p, field.modulus)
    roots = [cmath.exp(2j * cmath.pi * k / (q - 1)) for k in range(q - 1)]
    logs = field.log_table
    total = 0.0
    for v in range(2, q):  # x = 0, 1 contribute 0 by convention
        w = ref.sub(ref.one, ref.decode(v))
        lw = logs[sum(c * p**i for i, c in enumerate(w))]
        total += roots[a * logs[v] % (q - 1)] * roots[b * lw % (q - 1)]
    return total


def kernel_by_inline_passes(top, bottom, field, N):
    """(shift, avals, cvals) of the G-kernel of the rows over field at
    precision N, by the two inline passes the kernel ran before it read
    Gauss-orbit columns: pass 1 sums the orbit floors of every summand
    over precomputed rows, pass 2 multiplies its 2nr gamma values."""
    q, p, r = field.q, field.p, field.r
    n = len(top)
    rows = [
        (p**i, ak, bk, frac(ak * p**i), frac(-bk * p**i))
        for ak, bk in zip(top, bottom)
        for i in range(r)
    ]

    # pass 1: the (-p)-exponent of every summand, in pure integers
    floor_rows = [
        (
            ua.numerator * (q - 1), ua.denominator * pi, ua.denominator * (q - 1),
            vb.numerator * (q - 1), vb.denominator * pi, vb.denominator * (q - 1),
        )
        for (pi, _, _, ua, vb) in rows
    ]
    exps = [0] * (q - 1)
    for a in range(q - 1):
        e = 0
        for (un, m1, d1, vn, m2, d2) in floor_rows:
            e -= (un - a * m1) // d1
            e -= (vn + a * m2) // d2
        exps[a] = e
    shift = max(0, -min(exps))

    work = PadicCtx(field, N + shift)
    work.warm_gamma_table()
    pNw = work.pN
    nw = work.N

    # pass 2: unit parts.  The gamma argument <(a_k - a/(q-1)) p^i> is
    # (A - a*B)*pi mod MOD over MOD with MOD = d_k (q-1); its residue
    # mod p^N is numerator * MOD^-1.
    gamma_rows = []
    den = 1
    for (pi, ak, bk, ua, vb) in rows:
        mod1 = ak.denominator * (q - 1)
        mod2 = bk.denominator * (q - 1)
        gamma_rows.append(
            (
                pi,
                ak.numerator * (q - 1), ak.denominator, mod1, work.inv(mod1),
                bk.numerator * (q - 1), bk.denominator, mod2, work.inv(mod2),
            )
        )
        den = den * work.gamma(ua) % pNw * work.gamma(vb) % pNw
    inv_den = work.inv(den)

    minus_p_pow = [pow(-p, e, pNw) for e in range(nw)]
    avals, cvals = [], []
    gam = work.gamma_at_residue
    for a in range(q - 1):
        e = exps[a] + shift
        if e >= nw:
            continue
        c = minus_p_pow[e]
        if (a * n) % 2:
            c = pNw - c
        for (pi, a1, b1, mod1, inv1, a2, b2, mod2, inv2) in gamma_rows:
            num1 = (a1 - a * b1) * pi % mod1
            num2 = (a * b2 - a2) * pi % mod2
            c = c * gam(num1 * inv1 % pNw) % pNw * gam(num2 * inv2 % pNw) % pNw
        avals.append(a)
        cvals.append(c * inv_den % pNw)
    return shift, avals, cvals


def raw_eval_by_coefficients(coeffs, work, t):
    """The vector (vec, shift) at t of the kernel coefficients coeffs =
    (shift, avals, cvals) by the per-coefficient loop: each summand's
    coefficient times every coordinate of entry -a log(t) mod (q-1) of the
    Teichmuller table of work, the context at the working precision,
    accumulated one multiply-add at a time, then the factor -1/(q-1) mod
    p^(N + shift)."""
    shift, avals, cvals = coeffs
    field = work.field
    m = field.q - 1
    l = field.log(t)
    pNw = work.pN
    pows = [work.unpack(w) for w in work.packed()]
    acc = [0] * field.r
    for a, c in zip(avals, cvals):
        for j, w in enumerate(pows[-a * l % m]):
            acc[j] += c * w
    lead = -pow(m, -1, pNw) % pNw
    return tuple(v * lead % pNw for v in acc), shift


def is_frobenius_stable(coeffs, p, q):
    """Whether kernel coefficients (shift, avals, cvals) are closed under
    a -> p*a mod (q-1) with equal coefficients along each orbit, checked
    at every a: the identity a closed kernel is built on."""
    _, avals, cvals = coeffs
    c = dict(zip(avals, cvals))
    return all(c.get(a * p % (q - 1)) == v for a, v in c.items())


def pack(coeffs, width):
    """coeffs packed as PadicCtx.packed holds a table entry: coefficient j
    in bits [j width, (j+1) width)."""
    return sum(c << j * width for j, c in enumerate(coeffs))


def teichmuller_powers_by_products(ctx):
    """omega(g)^k for k in 0..q-2 by q-2 generic Galois-ring products of
    the previous power with a fresh lift of the generator."""
    mod, pN = ctx.modulus, ctx.pN
    w = teichmuller(ctx.field.generator, ctx)
    table = [(1,) + (0,) * (ctx.r - 1), w]
    for _ in range(ctx.q - 3):
        table.append(_poly_mulmod(table[-1], w, mod, pN))
    return tuple(table)


def naive_G(top, bottom, t, field, N, shift_extra=3):
    """Fraction-based transcription of the defining G sum.

    Accumulates in GR(p^(N+shift_extra), r) so that summands with
    negative (-p)-exponent stay exact, then divides the shift back out.
    Returns a dict with the scaled coefficient vector, the least
    (-p)-exponent of any summand and, when the sum is Galois-stable and a
    p-adic integer, its residue mod p^N.
    """
    q, p, r = field.q, field.p, field.r
    n = len(top)
    work = PadicCtx(field, N + shift_extra)
    pNw = work.pN
    wbar = teichmuller(t.inverse(), work)
    total = (0,) * r
    wpow = (1,) + (0,) * (r - 1)
    min_exponent = None
    for a in range(q - 1):
        e = 0
        unit = 1
        for k in range(n):
            ak, bk = Fraction(top[k]), Fraction(bottom[k])
            for i in range(r):
                pi = p**i
                nu = Fraction(a * pi, q - 1)
                e += -math.floor(frac(ak * pi) - nu)
                e += -math.floor(frac(-bk * pi) + nu)
                unit = unit * work.gamma(frac((ak - Fraction(a, q - 1)) * pi)) % pNw
                unit = unit * work.inv(work.gamma(frac(ak * pi))) % pNw
                unit = unit * work.gamma(frac((-bk + Fraction(a, q - 1)) * pi)) % pNw
                unit = unit * work.inv(work.gamma(frac(-bk * pi))) % pNw
        assert e + shift_extra >= 0, "oracle shift_extra too small"
        min_exponent = e if min_exponent is None else min(min_exponent, e)
        scal = pow(-p, e + shift_extra, pNw) * unit % pNw
        if (a * n) % 2:
            scal = pNw - scal
        total = tuple((c + w * scal) % pNw for c, w in zip(total, wpow))
        wpow = _poly_mulmod(wpow, wbar, work.modulus, pNw)
    lead = -work.inv(q - 1) % pNw
    coeffs = [c * lead % pNw for c in total]
    stable = not any(coeffs[1:])
    integral = stable and coeffs[0] % p**shift_extra == 0
    value = None
    if integral:
        value = (-1) ** shift_extra * (coeffs[0] // p**shift_extra) % p**N
    return {
        "value": value,
        "stable": stable,
        "integral": integral,
        "coeffs": coeffs,
        "min_exponent": min_exponent,
    }


class TupleField:
    """F_{p^r} as residue-polynomial coefficient tuples (constant term
    first) reduced by a monic modulus: schoolbook polynomial arithmetic,
    no logarithm tables, the slow reference for the integer-encoded field.
    """

    def __init__(self, p, modulus):
        self.p = p
        self.r = len(modulus) - 1
        self.q = p**self.r
        self.modulus = tuple(modulus)
        self.zero = (0,) * self.r
        self.one = (1,) + (0,) * (self.r - 1)

    def decode(self, v):
        """The tuple of base-p digits of v, lowest first."""
        return tuple(v // self.p**i % self.p for i in range(self.r))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        p, r, mod = self.p, self.r, self.modulus
        prod = [0] * (2 * r - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for i in range(2 * r - 2, r - 1, -1):
            c = prod[i]
            for j in range(r + 1):
                prod[i - r + j] -= c * mod[j]
        return tuple(c % p for c in prod[:r])

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inverse(a), -e)
        result = self.one
        for _ in range(e):
            result = self.mul(result, a)
        return result

    def inverse(self, a):
        """By exhaustive search, so it trusts no exponent bookkeeping."""
        for v in range(1, self.q):
            b = self.decode(v)
            if self.mul(a, b) == self.one:
                return b
        raise ZeroDivisionError("0 has no inverse")

    def trace(self, a):
        """a + a^p + ... + a^(p^(r-1)), which must be a constant."""
        acc, frob = a, a
        for _ in range(self.r - 1):
            frob = self.pow(frob, self.p)
            acc = self.add(acc, frob)
        assert not any(acc[1:]), "trace must land in F_p"
        return acc[0]


def correlation_by_definition(h, f, p, r):
    """[sum_v h[v] * f[v + m] for every m], lists indexed by the encodings
    of F_{p^r} and v + m added digit by digit mod p: the O(q^2) sum."""
    q = p**r

    def digits(v):
        return [v // p**i % p for i in range(r)]

    def plus(v, m):
        return sum((a + b) % p * p**i for i, (a, b) in enumerate(zip(digits(v), digits(m))))

    return [sum(h[v] * f[plus(v, m)] for v in range(q)) for m in range(q)]


def phi_sum_by_elements(curve, field):
    """sum_x phi(4x^3 + b2 x^2 + 2 b4 x + b6) with FqElem arithmetic, one
    x at a time."""
    b2, b4, b6, _ = _b_invariants(curve, field)
    four, two = field.from_int(4), field.from_int(2)
    return sum(
        quad_char(((four * x + b2) * x + two * b4) * x + b6)
        for x in map(field.elem, range(field.q))
    )


def pair_formula_per_instance(name, f, params):
    """(curves, arg, prefactor, correction) of one pair-of-curves formula
    over f, stated per parameter pair with no reduction to a family
    member: the two curves' traces sum to prefactor * G(row | arg) +
    correction.  Raises HypothesisViolation outside its hypotheses."""
    minus_one = -f.one
    c16, c729 = f.from_int(16), f.from_int(729)
    correction = 0
    if name == "t13":
        (lam,) = params
        if lam.is_zero() or lam == f.one or lam == minus_one:
            raise HypothesisViolation("lambda must avoid {0, 1, -1}")
        curves = (CurveSpec.legendre(lam), CurveSpec.legendre(-lam))
        arg = lam * lam
        prefactor = quad_char(minus_one)
    elif name == "t14":
        a1, a3 = params
        curves = (CurveSpec.a1a3(a1, a3), CurveSpec.a1a3(a1, -a3))
        arg = c729 * a3 * a3 * (a1**-6)
        prefactor = 1
    elif name == "t15":
        fcoef, gcoef = params
        curves = (CurveSpec.fg(fcoef, gcoef), CurveSpec.fg(fcoef, -gcoef))
        arg = c16 * gcoef * gcoef * (fcoef**-4)
        prefactor = quad_char(fcoef)
    elif name in ("t16", "t17"):
        c, d = params
        curves = (CurveSpec.cd(c, d), CurveSpec.cd(c, -d))
        arg = c729 * d * d * (c16 * c**6) ** -1
        prefactor = quad_char(c)
        qm = f.q % 12
        if name == "t16":
            correction = -quad_char(d) - quad_char(-d)
        elif qm in (1, 7):
            prefactor = quad_char(-f.from_int(3) * c)
        elif not (qm == 5 or qm == 11 and f.r == 1):
            raise HypothesisViolation(
                f"q = {f.q} is outside the stated congruence classes"
            )
    else:
        raise ValueError(f"unknown pair theorem {name!r}")
    return curves, arg, prefactor, correction


def trace_sum_pair_per_instance(inst):
    """(lhs, rhs) of a pair formula with nothing read from a table: each
    curve's discriminant checked and its points counted, and the G-value
    from evaluate_G with its own precision and row checks.  Only the rows
    come from frobtrace; the statement is pair_formula_per_instance."""
    f = inst.field
    curves, arg, prefactor, correction = pair_formula_per_instance(
        inst.theorem, f, inst.params
    )
    if any(discriminant(c, f).is_zero() for c in curves):
        raise SingularCurve("a curve of the pair is singular")
    lhs = sum(trace_of_frobenius(c, f) for c in curves)
    bound = trace_bound(f.q)
    ctx = PadicCtx(f, choose_precision(f.q, bound))
    formula = frobtrace.PAIR_FORMULAS[inst.theorem]
    params = GParams(formula.top, formula.bottom, arg)
    return lhs, prefactor * evaluate_G(params, f, ctx, bound=bound).integer + correction
