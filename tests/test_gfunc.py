import random
from decimal import Decimal
from fractions import Fraction
from itertools import product, repeat

import pytest

from padic_hg.errors import (
    DenominatorDivisibleByP,
    HypothesisViolation,
    InvariantViolation,
    NoRepresentative,
    NonConstantResult,
    NonIntegralValue,
    PrecisionTooLarge,
    PrecisionUnderflow,
    ZeroArgument,
)
from padic_hg import cli, frobtrace, gfunc, padic
from padic_hg.ffield import TABLE_CAP, FqField, build_field
from padic_hg.gfunc import (
    GParams,
    PadicCtx,
    _kernel,
    check_reduction_identity,
    check_splitting_identity,
    choose_precision,
    evaluate_G,
    reconstruct_integer,
    trace_bound,
)
from oracles import (
    floor_orbit_by_fractions,
    is_frobenius_stable,
    kernel_by_inline_passes,
    naive_G,
    pack,
    raw_eval_by_coefficients,
)

HALF = Fraction(1, 2)
QUARTERS = (Fraction(1, 4), Fraction(3, 4), Fraction(1, 4), Fraction(3, 4))
TOP4 = (Fraction(0), HALF, Fraction(0), HALF)


def kernel_key(top, bottom, field, N):
    """The kernel cache key of the rows (ints and Fractions) over field at N."""
    return (*gfunc._row_pairs(top, bottom, field.p), field, N)


def new_kernel(top, bottom, field, N):
    """An uncached kernel of the rows (ints and Fractions), built without
    the row check, so a denominator divisible by p reaches the kernel."""
    rows = (tuple(Fraction(x).as_integer_ratio() for x in row) for row in (top, bottom))
    return gfunc._GKernel(*rows, field, N)


def kernel_coefficients(kern):
    """(shift, avals, cvals) of a kernel of either path, every surviving
    summand and its coefficient: a closed kernel's terms over the trace
    column expanded to all r members of their orbits."""
    field = kern.field
    tr = kern.work.traces()[0] if kern.closed else None
    coeff = {}
    for a, c, col in kern.terms:
        for i in range(field.r if col is tr else 1):
            coeff[a * field.p**i % (field.q - 1)] = c
    avals = sorted(coeff)
    return kern.shift, avals, [coeff[a] for a in avals]


def full_vector_kernel(coeffs, field, N):
    """A vector-path kernel holding the coefficients coeffs = (shift, avals,
    cvals) of a full build, at every surviving summand."""
    kern = object.__new__(gfunc._GKernel)
    shift, avals, cvals = coeffs
    kern.field, kern.shift, kern.closed = field, shift, False
    kern.work = padic._ring(field, N + shift)
    kern.terms = list(zip(avals, cvals, repeat(kern.work.packed())))
    kern.lead = -kern.work.inv(field.q - 1) % kern.work.pN
    return kern


def test_choose_precision_examples():
    assert choose_precision(1331, 150) == 3
    assert choose_precision(5, 9) == 2
    assert choose_precision(25, 1) == 1


def test_reconstruct_integer():
    field = build_field(5, 1)
    ctx = PadicCtx(field, 2)
    from padic_hg.gfunc import GValue
    from padic_hg.padic import PadicInt

    v = GValue(PadicInt(23, ctx), None, 2)
    assert reconstruct_integer(v, 5) == -2
    with pytest.raises(PrecisionUnderflow):
        reconstruct_integer(v, 13)
    f11 = build_field(11, 1)
    v2 = GValue(PadicInt(60, PadicCtx(f11, 2)), None, 2)
    with pytest.raises(NoRepresentative):
        reconstruct_integer(v2, 5)


def test_gparams_validation():
    field = build_field(5, 1)
    with pytest.raises(ZeroArgument):
        GParams((HALF,), (Fraction(0),), field.zero)
    with pytest.raises(DenominatorDivisibleByP):
        GParams((Fraction(1, 5),), (Fraction(0),), field.one)
    with pytest.raises(ValueError):
        GParams((HALF, HALF), (Fraction(0),), field.one)


@pytest.mark.parametrize(
    "p,r,top,bottom",
    [
        (5, 1, TOP4, QUARTERS),
        (13, 1, TOP4, QUARTERS),
        (5, 1, (HALF, HALF), (Fraction(0), Fraction(0))),
        (13, 1, (Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 4), Fraction(3, 4))),
        (5, 2, TOP4, QUARTERS),
        (7, 2, (HALF, Fraction(1, 3)), (Fraction(0), Fraction(3, 4))),
    ],
)
def test_evaluator_matches_naive_reference(p, r, top, bottom):
    from padic_hg.errors import NonIntegralValue

    field = build_field(p, r)
    ctx = PadicCtx(field, 2)
    rng = random.Random(p + r)
    for _ in range(3):
        t = field.elem(rng.randrange(1, field.q))
        ref = naive_G(top, bottom, t, field, 2)
        if not ref["stable"]:
            with pytest.raises(NonConstantResult):
                evaluate_G(GParams(top, bottom, t), field, ctx)
        elif not ref["integral"]:
            with pytest.raises(NonIntegralValue):
                evaluate_G(GParams(top, bottom, t), field, ctx)
        else:
            got = evaluate_G(GParams(top, bottom, t), field, ctx)
            assert got.padic.value == ref["value"]


@pytest.mark.parametrize("p,r,top,bottom,shift,stable", [
    (5, 1, TOP4, QUARTERS, 0, True),
    (13, 1, (Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 4), Fraction(3, 4)), 1, True),
    # Galois-unstable rows: vectors with nonzero extension-ring coordinates
    (5, 2, (Fraction(1, 3), Fraction(1, 6)), (Fraction(3, 4), HALF), 1, False),
    (3, 3, (HALF, HALF), (HALF, HALF), 6, True),
    (7, 2, (HALF, Fraction(1, 3)), (Fraction(0), Fraction(3, 4)), 1, False),
])
def test_raw_eval_matches_naive_sum_at_every_t(p, r, top, bottom, shift, stable):
    # the table lookups against a fresh Teichmuller lift of 1/t per t
    field = build_field(p, r)
    kern = _kernel(top, bottom, field, 2)
    assert kern.shift == shift
    unstable = 0
    for v in range(1, field.q):
        t = field.elem(v)
        vec, s = kern.raw_eval(t)
        ref = naive_G(top, bottom, t, field, 2, shift_extra=s)
        assert s == max(0, -ref["min_exponent"])
        assert list(vec) == ref["coeffs"]
        unstable += not ref["stable"]
    assert (unstable == 0) == stable


THIRDS = ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 4), Fraction(3, 4)))


@pytest.mark.parametrize("p,r", [(13, 1), (7, 2), (5, 3), (5, 4)])
def test_packed_raw_eval_matches_per_coefficient_loop(p, r):
    # the four headline rows (shift 0), a row with shift r and, off r = 1,
    # a row that is not closed, at every t: each kernel's vector against
    # the per-coefficient loop over the full build's coefficients
    field = build_field(p, r)
    rows = [
        (frobtrace.TOP4, frobtrace.BOT_QUARTERS),
        (frobtrace.TOP4, frobtrace.BOT_SIXTHS),
        (frobtrace.TOP4, frobtrace.BOT_EIGHTHS),
        (frobtrace.TOP6, frobtrace.BOT6),
        THIRDS,
        ((HALF, Fraction(1, 3)), (Fraction(0), Fraction(3, 4))),
    ]
    kernels = [new_kernel(top, bottom, field, 2) for top, bottom in rows]
    assert [k.shift for k in kernels[:5]] == [0, 0, 0, 0, r]
    assert [k.closed for k in kernels] == [True] * 5 + [r == 1]
    full = [kernel_by_inline_passes(top, bottom, field, 2) for top, bottom in rows]
    works = [padic._ring(field, 2 + k.shift) for k in kernels]
    for v in range(1, field.q):
        t = field.elem(v)
        for kern, coeffs, work in zip(kernels, full, works):
            assert kern.raw_eval(t) == raw_eval_by_coefficients(coeffs, work, t)


@pytest.mark.parametrize("p,r,N", [(3, 1, 1), (5, 2, 2), (7, 3, 1), (5, 4, 3)])
def test_packed_slots_reach_their_bound_without_carrying(p, r, N):
    # every coefficient and every table coordinate p^Nw - 1: each slot of
    # the packed sum reaches (q-1)(p^Nw-1)^2, the bound its width is set by
    field = build_field(p, r)
    kern = new_kernel((HALF,), (Fraction(0),), field, N)
    m, pNw = field.q - 1, kern.work.pN
    # a context of its own whose Teichmuller coordinates are all p^Nw - 1
    worst = kern.work = PadicCtx(field, kern.work.N)
    worst._packed = [pack((pNw - 1,) * r, worst.width)] * m
    # one term per summand over the packed table, every coefficient p^Nw - 1
    kern.terms = [(a, pNw - 1, worst.packed()) for a in range(m)]
    assert worst.width == (m * (pNw - 1) ** 2).bit_length()
    slot = m * (pNw - 1) ** 2 * (-pow(m, -1, pNw)) % pNw
    t = field.generator
    assert kern.raw_eval(t) == ((slot,) * r, kern.shift)
    coeffs = kern.shift, list(range(m)), [pNw - 1] * m
    assert raw_eval_by_coefficients(coeffs, worst, t) == kern.raw_eval(t)
    # one bit narrower, the slots carry into each other and the sum is wrong
    worst.width -= 1
    worst._packed = [pack((pNw - 1,) * r, worst.width)] * m
    kern.terms = [(a, c, worst.packed()) for a, c, _ in kern.terms]
    assert kern.raw_eval(t) != ((slot,) * r, kern.shift)


@pytest.mark.parametrize("p,r,N", [(3, 1, 1), (5, 2, 2), (7, 3, 1), (5, 4, 3)])
def test_closed_total_reaches_its_bound_in_the_constant_slot(p, r, N):
    # q-1 terms, every coefficient and every trace-column entry p^Nw - 1:
    # the total reaches (q-1)(p^Nw-1)^2, the bound the width is set by, and
    # stays in the constant slot, so the vector is (slot, 0, ..., 0)
    field = build_field(p, r)
    kern = new_kernel((HALF,), (Fraction(0),), field, N)
    assert kern.closed
    m, pNw, width = field.q - 1, kern.work.pN, kern.work.width
    tr = [pNw - 1] * m
    kern.terms = [(a, pNw - 1, tr) for a in range(m)]
    t = field.generator
    total = kern.total(t)
    assert total == m * (pNw - 1) ** 2
    assert total >> width == 0 and total.bit_length() == width
    slot = m * (pNw - 1) ** 2 * (-pow(m, -1, pNw)) % pNw
    assert kern.raw_eval(t) == ((slot,) + (0,) * (r - 1), kern.shift)


def test_kernel_working_precision_is_capped():
    # N fits the table cap, N + shift does not: the kernel raises before
    # it builds a gamma or Teichmuller table, having read only digit sums,
    # which the context at N builds and keeps itself
    field = build_field(3, 3)
    N = max(N for N in range(1, 40) if 3 ** ((N + 1) // 2) <= TABLE_CAP)
    ctx = PadicCtx(field, N)
    padic._ring.cache_clear()
    before = padic._gamma_steps.cache_info().misses
    with pytest.raises(PrecisionTooLarge):
        evaluate_G(GParams((HALF, HALF), (HALF, HALF), field.one), field, ctx)
    assert padic._gamma_steps.cache_info().misses == before
    assert padic._ring.cache_info().currsize == 1
    ring = padic._ring(field, N)
    assert ring._packed is ring._traces is None
    assert {kind for kind, _, _ in ring._columns} == {"digits"}
    padic._ring.cache_clear()


def test_kernels_tables_and_trace_column_share_one_context():
    # every kernel of one (field, N), the Teichmuller table of any context
    # with that (field, N) and the trace column read one shared context
    field = build_field(7, 2)
    gfunc._KERNELS.clear()
    padic._ring.cache_clear()
    ring = padic._ring(field, 3)
    k1 = _kernel(TOP4, QUARTERS, field, 3)
    k2 = _kernel((HALF, HALF), (Fraction(0), Fraction(0)), field, 3)
    assert k1.shift == k2.shift == 0
    assert k1.work is k2.work is ring
    assert PadicCtx(field, 3).packed() is ring.packed()
    tr, const = ring.traces()
    assert {id(col) for _, _, col in k1.terms} == {id(tr), id(const)}
    k3 = _kernel((Fraction(1, 4), HALF), (Fraction(0), Fraction(0)), field, 3)
    assert not k3.closed and k3.work is ring
    assert {id(col) for _, _, col in k3.terms} == {id(ring.packed())}
    gfunc._KERNELS.clear()


def test_evaluate_G_lifts_at_most_once(monkeypatch):
    calls = []
    lift = padic.teichmuller

    def counting(t, ctx):
        calls.append(t)
        return lift(t, ctx)

    monkeypatch.setattr(padic, "teichmuller", counting)
    gfunc._KERNELS.clear()
    padic._ring.cache_clear()
    field = build_field(5, 2)
    ctx = PadicCtx(field, 3)
    for v in range(1, 11):
        evaluate_G(GParams(TOP4, QUARTERS, field.elem(v)), field, ctx)
    assert len(calls) <= 1


PAIR_ROWS = [(f.top, f.bottom) for f in frobtrace.PAIR_FORMULAS.values()]


def vector_path(kern, t, N):
    """The value at t by the vector path, or the class of its error."""
    try:
        return gfunc._raw_to_residue(kern.raw_eval(t), kern.field.p, N)
    except (NonConstantResult, NonIntegralValue) as exc:
        return type(exc)


@pytest.mark.parametrize("p,r,naive_ts", [(13, 1, 12), (7, 2, 3), (5, 3, 2), (5, 4, 0)])
def test_trace_sum_matches_the_vector_path_at_every_t(p, r, naive_ts):
    # the five pair rows (shift 0) and a row with shift r: the trace path
    # against the vector path of the full build at every t, and against
    # the defining sum at naive_ts of them
    field = build_field(p, r)
    rng = random.Random(p * r)
    for top, bottom in PAIR_ROWS + [THIRDS]:
        key = kernel_key(top, bottom, field, 2)
        kern = gfunc._kernel_at(key)
        assert kern.closed
        coeffs = kernel_by_inline_passes(top, bottom, field, 2)
        assert kernel_coefficients(kern) == coeffs
        full = full_vector_kernel(coeffs, field, 2)
        naive = set(rng.sample(range(1, field.q), naive_ts))
        for v in range(1, field.q):
            t = field.elem(v)
            want = vector_path(full, t, 2)
            try:
                got = gfunc._value_and_lift(key, t, None)[0]
            except NonIntegralValue:
                got = NonIntegralValue
            assert got == want, (top, bottom, v)
            if v in naive:
                ref = naive_G(top, bottom, t, field, 2, shift_extra=kern.shift)
                assert ref["stable"]
                assert got == (ref["value"] if ref["integral"] else NonIntegralValue)
    gfunc._KERNELS.clear()


SPLIT_DENOMS = (1, 2, 3, 4, 6)


def closed_pairs(p, q):
    """The 2-rows over SPLIT_DENOMS allowed at q, as the splitting identity
    requires, that are closed under x -> p*x mod 1, one per multiset."""
    values = sorted({Fraction(n, d) for d in SPLIT_DENOMS
                     if d % p and (q - 1) % d == 0 for n in range(d)})
    return [(x, y) for i, x in enumerate(values) for y in values[i:]
            if sorted([p * x % 1, p * y % 1]) == [x, y]]


def assert_descends_to_the_full_build(top, bottom, field, N):
    """A closed kernel of the rows equals the full build by the inline
    passes at every a and, by its vector, the full build's vector at every
    t; the full build is Frobenius-stable at every a.  Returns the shift."""
    kern = new_kernel(top, bottom, field, N)
    assert kern.closed, (top, bottom)
    full = kernel_by_inline_passes(top, bottom, field, N)
    assert kernel_coefficients(kern) == full, (top, bottom)
    assert is_frobenius_stable(full, field.p, field.q)
    vec = full_vector_kernel(full, field, N)
    for v in range(1, field.q):
        t = field.elem(v)
        assert kern.raw_eval(t) == vec.raw_eval(t), (top, bottom, v)
    return kern.shift


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3), (7, 2), (3, 4), (5, 3)])
def test_closed_splitting_rows_descend_to_the_full_build(p, r):
    # every closed splitting row over SPLIT_DENOMS and its 4-row of halves,
    # the rows check_splitting_identity builds kernels of, some with a
    # shift; the defining sum checks one row at two t per field
    field = build_field(p, r)
    pairs = closed_pairs(p, field.q)
    shifts = []
    for top in pairs:
        for bottom in pairs:
            shifts.append(assert_descends_to_the_full_build(top, bottom, field, 2))
            shifts.append(assert_descends_to_the_full_build(
                *doubled_row(*top, *bottom), field, 2))
    assert max(shifts) > 0
    # the defining sum at two t, for the last 2-row with the largest shift
    top, bottom = [rows for rows, s in zip(product(pairs, pairs), shifts[::2])
                   if s == max(shifts[::2])][-1]
    kern = new_kernel(top, bottom, field, 2)
    for v in (2, field.q - 2):
        vec, s = kern.raw_eval(field.elem(v))
        assert list(vec) == naive_G(top, bottom, field.elem(v), field, 2, shift_extra=s)["coeffs"]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_every_pair_row_takes_the_stable_path(p):
    # each pair formula's kernel, as trace_sum_pair reads it, on every
    # field with r <= 4 and q <= 7^4
    for r in range(1, 5):
        if p**r > 7**4:
            break
        field = build_field(p, r)
        for name in frobtrace.PAIR_FORMULAS:
            key = frobtrace._pair_setup(name, field)[0]
            assert gfunc._kernel_at(key).closed, (name, field.q)
    gfunc._KERNELS.clear()


@pytest.mark.parametrize("p,r,top,bottom", [
    (3, 2, (HALF, Fraction(1, 4)), (Fraction(0), HALF)),
    (7, 2, (HALF, Fraction(1, 4)), (Fraction(0), HALF)),
    (11, 2, (HALF, Fraction(1, 4)), (Fraction(0), HALF)),
    (3, 3, (HALF, Fraction(1, 4)), (Fraction(0), HALF)),
    (5, 2, (Fraction(1, 3), Fraction(1, 6)), (Fraction(3, 4), HALF)),
    (7, 2, (HALF, Fraction(1, 3)), (Fraction(0), Fraction(3, 4))),
])
def test_unstable_rows_keep_the_vector_path(p, r, top, bottom):
    # rows not closed under multiplication by p mod 1 are refused, and
    # raise NonConstantResult wherever the vector path does
    field = build_field(p, r)
    ctx = PadicCtx(field, 2)
    kern = _kernel(top, bottom, field, 2)
    assert not kern.closed
    outcomes = set()
    for v in range(1, field.q):
        t = field.elem(v)
        want = vector_path(kern, t, 2)
        try:
            got = evaluate_G(GParams(top, bottom, t), field, ctx).padic.value
        except (NonConstantResult, NonIntegralValue) as exc:
            got = type(exc)
        assert got == want, v
        outcomes.add(got)
    assert NonConstantResult in outcomes
    gfunc._KERNELS.clear()


def test_a_corrupted_unit_entry_fails_the_closed_kernel_build():
    # a field of its own, so its shared context is this test's alone.  The
    # top row 1/5..4/5 is closed under x -> 7x mod 1 and puts each value on
    # a coset u/5 of its own, so the units column of 1/5 is read by that
    # parameter alone.  The kernel rechecks c[p*a] = c[a] at its first
    # full orbit a, reading that column at Y - p*a; that entry off by one
    # changes c[p*a] and not c[a], and fails the build
    field, m = FqField(7, 2), 48
    key = kernel_key([Fraction(i, 5) for i in range(1, 5)], [0] * 4, field, 2)
    kern = gfunc._GKernel(*key)
    a, _, col = kern.terms[0]
    assert col is kern.work.traces()[0]
    Y, u, d = padic._coset(1, 5, m)
    col, e = kern.work.column("units", u, d), (Y - field.p * a) % m
    col[e] = (col[e] + 1) % kern.work.pN
    with pytest.raises(InvariantViolation, match=f"c\\[{field.p * a % m}\\]"):
        gfunc._GKernel(*key)
    col[e] = (col[e] - 1) % kern.work.pN
    assert kernel_coefficients(gfunc._GKernel(*key)) == kernel_coefficients(kern)


def test_mixed_fields_rejected():
    # a second F_25 built apart from build_field: integer encodings index
    # its own tables, so its elements must not reach another field's kernel
    field, other = build_field(5, 2), FqField(5, 2)
    kern = _kernel(TOP4, QUARTERS, field, 2)
    with pytest.raises(ValueError):
        kern.raw_eval(other.elem(7))
    ctx = PadicCtx(field, 3)
    with pytest.raises(ValueError):
        check_splitting_identity(HALF, HALF, Fraction(0), Fraction(0),
                                 other.elem(7), field, ctx)
    with pytest.raises(ValueError):
        check_splitting_identity(HALF, HALF, Fraction(0), Fraction(0),
                                 field.elem(7), field, PadicCtx(other, 3))
    # a context of a second F_5 has the right p and r but not the field
    small = build_field(5, 1)
    with pytest.raises(ValueError):
        evaluate_G(GParams(TOP4, QUARTERS, small.one), small, PadicCtx(FqField(5, 1), 3))


@pytest.mark.parametrize("x", [0.1, 0.5, Decimal("0.5"), "1/2"], ids=repr)
def test_parameters_other_than_int_and_fraction_are_rejected(x):
    # at 0.1, Fraction(x) would read 3602879701896397/2^55
    field, prime = build_field(5, 2), build_field(5, 1)
    with pytest.raises(TypeError):
        GParams((x,), (0,), field.one)
    with pytest.raises(TypeError):
        GParams((0,), (x,), field.one)
    with pytest.raises(TypeError):
        check_splitting_identity(x, HALF, 0, 0, field.one, field, PadicCtx(field, 3))
    with pytest.raises(TypeError):
        check_reduction_identity((x,), (0,), 3, prime.one, 5)
    assert GParams((0, HALF), (1, 0), field.one).top == (Fraction(0), HALF)


def test_kernel_cache_evicts_the_oldest():
    gfunc._KERNELS.clear()
    field = build_field(5, 1)
    rows = [((Fraction(i, 257),), (Fraction(0),))
            for i in range(gfunc.KERNEL_CACHE_SIZE + 1)]
    first = _kernel(*rows[0], field, 1)
    for top, bottom in rows[1:-1]:
        _kernel(top, bottom, field, 1)
    assert len(gfunc._KERNELS) == gfunc.KERNEL_CACHE_SIZE
    assert _kernel(*rows[0], field, 1) is first  # a hit evicts nothing
    _kernel(*rows[-1], field, 1)
    assert len(gfunc._KERNELS) == gfunc.KERNEL_CACHE_SIZE
    held = [kernel_key(top, bottom, field, 1) in gfunc._KERNELS
            for top, bottom in rows]
    assert held == [False] + [True] * gfunc.KERNEL_CACHE_SIZE
    gfunc._KERNELS.clear()
    assert len(gfunc._KERNELS) == 0


def test_known_value_over_f5():
    # Legendre pair with lambda = 2 over F_5 has trace sum 0, phi(-1) = 1
    field = build_field(5, 1)
    ctx = PadicCtx(field, 2)
    value = evaluate_G(GParams(TOP4, QUARTERS, field.from_int(4)), field, ctx, bound=9)
    assert value.integer == 0


def test_parameter_row_permutation_invariance():
    field = build_field(5, 2)
    ctx = PadicCtx(field, 3)
    t = field.elem(7)
    base = evaluate_G(
        GParams(TOP4, (Fraction(1, 6), Fraction(1, 3), Fraction(2, 3), Fraction(5, 6)), t),
        field, ctx,
    ).padic.value
    shuffled_top = (HALF, Fraction(0), HALF, Fraction(0))
    shuffled_bot = (Fraction(5, 6), Fraction(1, 6), Fraction(2, 3), Fraction(1, 3))
    for top, bottom in [
        (shuffled_top, (Fraction(1, 6), Fraction(1, 3), Fraction(2, 3), Fraction(5, 6))),
        (TOP4, shuffled_bot),
        (shuffled_top, shuffled_bot),
    ]:
        assert evaluate_G(GParams(top, bottom, t), field, ctx).padic.value == base


def test_integer_shift_invariance():
    # parameters only matter mod 1
    field = build_field(7, 1)
    ctx = PadicCtx(field, 2)
    t = field.from_int(3)
    a = evaluate_G(GParams((HALF, Fraction(1, 3)), (Fraction(0), Fraction(3, 4)), t), field, ctx)
    b = evaluate_G(
        GParams((HALF + 1, Fraction(1, 3) - 2), (Fraction(1), Fraction(3, 4) + 3), t),
        field, ctx,
    )
    assert a.padic.value == b.padic.value


def test_row_swap_inversion_symmetry():
    # G[a; b | t] = G[-b; -a | 1/t], straight from the defining sum
    field = build_field(7, 2)
    ctx = PadicCtx(field, 3)
    rng = random.Random(1)
    top = (HALF, Fraction(1, 4))
    bottom = (Fraction(0), Fraction(2, 3))
    for _ in range(4):
        t = field.elem(rng.randrange(1, field.q))
        from padic_hg.gfunc import _kernel, _raw_sum_is_zero

        k1 = _kernel(top, bottom, field, 3)
        k2 = _kernel(tuple(-b for b in bottom), tuple(-a for a in top), field, 3)
        v1, s1 = k1.raw_eval(t)
        v2, s2 = k2.raw_eval(t.inverse())
        assert _raw_sum_is_zero([(v1, s1, 1), (v2, s2, -1)], 7, 3)


def test_precision_coherence():
    field = build_field(5, 2)
    rng = random.Random(5)
    denoms = (1, 2, 3, 4, 6)
    done = 0
    while done < 50:
        n = rng.choice((1, 2))
        top = tuple(
            Fraction(rng.randrange(d), d) for d in (rng.choice(denoms) for _ in range(n))
        )
        bottom = tuple(
            Fraction(rng.randrange(d), d) for d in (rng.choice(denoms) for _ in range(n))
        )
        t = field.elem(rng.randrange(1, 25))
        from padic_hg.errors import NonIntegralValue

        try:
            low = evaluate_G(GParams(top, bottom, t), field, PadicCtx(field, 2))
            high = evaluate_G(GParams(top, bottom, t), field, PadicCtx(field, 3))
        except (NonConstantResult, NonIntegralValue):
            continue
        assert (high.padic.value - low.padic.value) % 25 == 0
        done += 1


def test_galois_instability_detected():
    # rows not closed under multiplication by p mod 1 leave Z_p
    field = build_field(5, 2)
    ctx = PadicCtx(field, 3)
    params = GParams(
        (Fraction(1, 3), Fraction(1, 6)), (Fraction(3, 4), HALF), field.elem(11)
    )
    with pytest.raises(NonConstantResult):
        evaluate_G(params, field, ctx)


def test_splitting_identity_legendre_shape():
    # the specialization used by the Legendre-pair trace formula
    for p, r in [(5, 2), (7, 2), (11, 3)]:
        field = build_field(p, r)
        ctx = PadicCtx(field, 3)
        x = field.elem(field.q - 2).inverse()
        assert check_splitting_identity(HALF, HALF, Fraction(0), Fraction(0), x, field, ctx)


def test_splitting_identity_sixth_denominators():
    for p, r in [(5, 2), (7, 2)]:
        field = build_field(p, r)
        assert (field.q - 1) % 6 == 0
        ctx = PadicCtx(field, 3)
        x = field.elem(3)
        assert check_splitting_identity(
            Fraction(0), Fraction(0), Fraction(1, 6), Fraction(5, 6), x, field, ctx
        )


def test_splitting_identity_random():
    rng = random.Random(11)
    denoms = (1, 2, 3, 4, 6)
    for field in (build_field(5, 2), build_field(7, 2), build_field(11, 2)):
        ctx = PadicCtx(field, 3)
        for _ in range(10):
            coeffs = []
            while len(coeffs) < 4:
                d = rng.choice(denoms)
                if d > 1 and ((field.q - 1) % d or field.p % d == 0):
                    continue
                coeffs.append(Fraction(rng.randrange(d), d))
            x = field.elem(rng.randrange(1, field.q))
            assert check_splitting_identity(*coeffs, x, field, ctx)


@pytest.mark.parametrize("p,r,coeffs,shift", [
    (11, 2, (HALF, HALF, HALF, HALF), 4),
    (7, 3, (HALF, Fraction(2, 3), HALF, Fraction(1, 3)), 6),
])
def test_splitting_identity_at_high_working_precision(p, r, coeffs, shift):
    # a kernel works modulo p^(3 + shift) > 10^7, too large for a dense
    # gamma table
    field = build_field(p, r)
    assert check_splitting_identity(*coeffs, field.elem(3), field, PadicCtx(field, 3))
    a1, a2, a3, a4 = coeffs
    top4 = (a1 / 2, (1 + a1) / 2, a2 / 2, (1 + a2) / 2)
    bot4 = (a3 / 2, (1 + a3) / 2, a4 / 2, (1 + a4) / 2)
    shifts = [_kernel(top, bot, field, 3).shift
              for top, bot in (((a1, a2), (a3, a4)), (top4, bot4))]
    assert max(shifts) == shift


def doubled_row(a1, a2, a3, a4):
    """The 4-row of the splitting identity for the 2-row (a1, a2; a3, a4)."""
    return (
        (a1 / 2, (1 + a1) / 2, a2 / 2, (1 + a2) / 2),
        (a3 / 2, (1 + a3) / 2, a4 / 2, (1 + a4) / 2),
    )


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3), (7, 2), (11, 2)])
def test_kernel_shift_matches_floor_orbit_sums(p, r):
    # the shift is minus the least sum of floor_orbit_by_fractions over a summand's
    # parameters and Frobenius powers, which the kernel reads from columns
    field = build_field(p, r)
    q = field.q
    rows = [
        (frobtrace.TOP4, frobtrace.BOT_QUARTERS),
        (frobtrace.TOP4, frobtrace.BOT_SIXTHS),
        (frobtrace.TOP4, frobtrace.BOT_EIGHTHS),
        (frobtrace.TOP6, frobtrace.BOT6),
        doubled_row(HALF, HALF, HALF, HALF),
        doubled_row(HALF, Fraction(2, 3), HALF, Fraction(1, 3)),
    ]
    checked = 0
    for top, bottom in rows:
        if any(c.denominator % p == 0 for c in top + bottom):
            continue
        exps = [
            -sum(
                floor_orbit_by_fractions(ak, -a, i, p, q)
                + floor_orbit_by_fractions(-bk, a, i, p, q)
                for ak, bk in zip(top, bottom) for i in range(r)
            )
            for a in range(q - 1)
        ]
        assert new_kernel(top, bottom, field, 1).shift == max(0, -min(exps))
        checked += 1
    assert checked >= 3


def kernel_rows(key):
    top, bottom, field, N = key
    return tuple(Fraction(*x) for x in top), tuple(Fraction(*x) for x in bottom), field, N


@pytest.mark.parametrize("p,r", [(13, 1), (7, 2), (5, 3), (5, 4)])
def test_kernel_matches_inline_passes_on_headline_rows(p, r):
    # the four headline rows (shift 0) and a row with shift r, at two precisions
    field = build_field(p, r)
    rows = [
        (frobtrace.TOP4, frobtrace.BOT_QUARTERS),
        (frobtrace.TOP4, frobtrace.BOT_SIXTHS),
        (frobtrace.TOP4, frobtrace.BOT_EIGHTHS),
        (frobtrace.TOP6, frobtrace.BOT6),
        THIRDS,
    ]
    for N in (1, 3):
        for top, bottom in rows:
            got = kernel_coefficients(new_kernel(top, bottom, field, N))
            assert got == kernel_by_inline_passes(top, bottom, field, N), (top, bottom, N)
        assert got[0] == r


def test_kernel_matches_inline_passes_on_identity_suite_rows():
    # every kernel the identity-splitting and identity-reduction suites build
    gfunc._KERNELS.clear()
    rng = random.Random(18)
    assert all(result for _, result in cli._splitting_cases(trials=36, rng=rng))
    assert all(result for _, result in cli._reduction_cases(trials=30, rng=rng))
    keys = list(gfunc._KERNELS)
    for key in keys:
        got = kernel_coefficients(gfunc._KERNELS[key])
        assert got == kernel_by_inline_passes(*kernel_rows(key)), key
    shifts = [gfunc._KERNELS[key].shift for key in keys]
    assert len(keys) >= 80 and sum(s > 0 for s in shifts) >= 10 and max(shifts) >= 3
    assert {key[2].q for key in keys} == {25, 49, 121, 5, 7, 11}
    gfunc._KERNELS.clear()


def test_a_second_kernel_of_known_rows_builds_no_column(monkeypatch):
    # every value of the headline rows lies on the grid j/48 at q = 49, so
    # the first kernel builds the digits and units columns of coset 0/1,
    # both in the context at N = 3, and a kernel of the same or other
    # headline rows builds none
    field = build_field(7, 2)
    built = []
    column = PadicCtx.column

    def recording(self, *key):
        if key not in self._columns:
            built.append((self.N, *key))
        return column(self, *key)

    monkeypatch.setattr(PadicCtx, "column", recording)
    padic._ring.cache_clear()
    gfunc._KERNELS.clear()
    first = _kernel(TOP4, QUARTERS, field, 3)
    assert built == [(3, "digits", 0, 1), (3, "units", 0, 1)]
    assert first.shift == 0
    gfunc._KERNELS.clear()
    rows = [(TOP4, QUARTERS), (frobtrace.TOP4, frobtrace.BOT_SIXTHS),
            (frobtrace.TOP4, frobtrace.BOT_EIGHTHS), (frobtrace.TOP6, frobtrace.BOT6)]
    kernels = [_kernel(top, bottom, field, 3) for top, bottom in rows]
    assert len(built) == 2
    assert all(kern.shift == 0 and kern.work is padic._ring(field, 3) for kern in kernels)
    gfunc._KERNELS.clear()


@pytest.mark.parametrize("p,r", [(13, 1), (11, 1), (7, 1), (5, 2), (3, 3), (7, 2)])
def test_kernel_matches_inline_passes_off_the_grid(p, r):
    # rows whose values lie off the grid j/(q-1), on cosets u/d with d > 1
    # and several d in one row, or with p in a denominator, which must
    # raise the error class the inline passes raise
    field = build_field(p, r)
    rows = [
        ((Fraction(1, 3),), (Fraction(2, 7),)),
        ((Fraction(1, 5), Fraction(2, 3)), (Fraction(0), Fraction(1, 11))),
        ((Fraction(-5, 3), Fraction(7, 8)), (Fraction(3, 10), Fraction(-1, 13))),
        ((Fraction(1, 4), Fraction(5, 7)), (Fraction(1, 2), Fraction(-2, 5))),
        # a parameter three times and another twice, read with multiplicity
        ((Fraction(2, 7),) * 3 + (Fraction(1, 3),), (Fraction(1, 3),) * 2 + (HALF, HALF)),
    ]
    for top, bottom in rows:
        for N in (1, 2, 3, 5):
            try:
                want = kernel_by_inline_passes(top, bottom, field, N)
            except Exception as exc:  # the class is compared below
                with pytest.raises(type(exc)):
                    new_kernel(top, bottom, field, N)
                continue
            assert kernel_coefficients(new_kernel(top, bottom, field, N)) == want, (top, bottom, N)


def test_rotated_reads_entry_y_minus_s_a():
    col = list(range(100, 107))
    for Y in range(7):
        for s in (1, -1):
            assert gfunc._rotated(col, Y, s) == [col[(Y - s * a) % 7] for a in range(7)]


def test_splitting_identity_hypotheses():
    field = build_field(7, 1)
    ctx = PadicCtx(field, 2)
    # rows are checked as GParams checks them, before any kernel is cached
    gfunc._KERNELS.clear()
    with pytest.raises(DenominatorDivisibleByP, match="1/7 is not in Z_7"):
        check_splitting_identity(
            Fraction(1, 7), Fraction(0), Fraction(0), Fraction(0), field.one, field, ctx
        )
    assert not gfunc._KERNELS
    with pytest.raises(HypothesisViolation):
        # q = 7 is not 1 mod 4
        check_splitting_identity(
            Fraction(1, 4), Fraction(0), Fraction(0), Fraction(0), field.one, field, ctx
        )
    with pytest.raises(ZeroArgument):
        check_splitting_identity(
            HALF, Fraction(0), Fraction(0), Fraction(0), field.zero, field, ctx
        )


@pytest.mark.parametrize("p,d", [(5, 3), (5, 6), (7, 4), (11, 4), (11, 12)])
def test_reduction_identity(p, d):
    field = build_field(p, 1)
    rng = random.Random(p * d)
    denoms = (1, 2, 3, 4, 6, 8, 12)
    for _ in range(4):
        n = rng.choice((1, 2))
        tops, bots = [], []
        while len(tops) < n:
            dd = rng.choice(denoms)
            if dd % p == 0:
                continue
            tops.append(Fraction(rng.randrange(dd), dd))
        while len(bots) < n:
            dd = rng.choice(denoms)
            if dd % p == 0:
                continue
            bots.append(Fraction(rng.randrange(dd), dd))
        t = field.elem(rng.randrange(1, p))
        assert check_reduction_identity(tops, bots, d, t, p)


def test_reduction_identity_hypotheses():
    # 7 is not -1 mod 3, so the appended-pair reduction does not apply
    field = build_field(7, 1)
    with pytest.raises(HypothesisViolation):
        check_reduction_identity([HALF], [Fraction(0)], 3, field.one, 7)
    f25 = build_field(5, 2)
    with pytest.raises(HypothesisViolation):
        check_reduction_identity([HALF], [Fraction(0)], 2, f25.one, 5)
    # rows are checked as GParams checks them, before any kernel is cached
    f5 = build_field(5, 1)
    gfunc._KERNELS.clear()
    for top, bottom, error, message in [
        ([Fraction(1, 3)], [0, HALF], ValueError, "equal positive length"),
        ([], [], ValueError, "equal positive length"),
        ([Fraction(1, 5)], [0], DenominatorDivisibleByP, "1/5 is not in Z_5"),
    ]:
        with pytest.raises(error, match=message):
            check_reduction_identity(top, bottom, 3, f5.from_int(2), 5)
        with pytest.raises(error, match=message):
            GParams(top, bottom, f5.from_int(2))
    assert not gfunc._KERNELS


@pytest.mark.parametrize("d", [0, -2, -3, -6])
def test_reduction_identity_rejects_d_below_one(d):
    # d = 0 once divided by zero, d = -3 and -6 gave True and d = -2 False
    field = build_field(5, 1)
    with pytest.raises(HypothesisViolation, match="d must be positive"):
        check_reduction_identity([HALF], [Fraction(0)], d, field.from_int(2), 5)


def test_reduction_identity_breaks_at_two():
    # appending the pair (1/2, 1/2) changes the summand where the
    # character index hits (p-1)/2: the checker honestly reports False.
    # 1/d lies on the index grid only when d divides p-1, which together
    # with p = -1 mod d happens exactly for d <= 2.
    field = build_field(5, 1)
    assert not check_reduction_identity(
        [Fraction(3, 4)], [Fraction(0)], 2, field.from_int(2), 5
    )


def test_trace_bound():
    assert trace_bound(1331) == 4 * 36 + 4
    assert trace_bound(5) == 12
