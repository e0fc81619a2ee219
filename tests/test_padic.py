import ast
import math
import os
import pathlib
import subprocess
import sys
from array import array
import random
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest

import padic_hg
from padic_hg import ffield, gfunc, padic
from padic_hg.errors import (
    DegreeTooLarge,
    DenominatorDivisibleByP,
    HypothesisViolation,
    InvariantViolation,
    PrecisionTooLarge,
    ZeroInput,
)
from padic_hg.ffield import TABLE_CAP, FqField, _poly_mulmod, build_field, is_prime
from padic_hg.padic import (
    PadicCtx,
    dth_root_gamma_quotient_check,
    floor_halving_check,
    floor_negative_multiple_check,
    floor_positive_multiple_check,
    frac,
    gamma_complement_product_check,
    gamma_half_shift_check,
    gamma_p,
    gamma_product_downshift_check,
    gamma_product_upshift_check,
    product_formula_check,
    quarter_gamma_product_check,
    reflection_check,
    teichmuller,
)
from oracles import (
    TupleField,
    a0,
    floor_orbit_by_fractions,
    gamma_by_direct_product,
    gamma_by_two_level,
    gamma_orbit_by_fractions,
    gamma_steps_two_level,
    gamma_table_by_recurrence,
    pack,
    teichmuller_powers_by_products,
)


def ctx_of(p, r, N):
    return PadicCtx(build_field(p, r), N)


def test_frac_examples():
    assert frac(Fraction(7, 4)) == Fraction(3, 4)
    assert frac(Fraction(-1, 6)) == Fraction(5, 6)
    assert frac(3) == 0


def test_a0_examples():
    assert a0(Fraction(0), 7) == 7
    assert a0(Fraction(1, 2), 5) == 3
    assert a0(Fraction(3), 5) == 3
    with pytest.raises(DenominatorDivisibleByP):
        a0(Fraction(1, 5), 5)


def test_gamma_base_values():
    ctx = ctx_of(5, 1, 2)
    assert gamma_p(Fraction(0), ctx).value == 1
    assert gamma_p(Fraction(1), ctx).value == 25 - 1
    # direct product: (-1)^5 * 1*2*3*4 = -24 = 1 mod 25
    assert gamma_by_direct_product(5, 5, 25) == 1
    assert gamma_p(Fraction(5), ctx).value == 1


@pytest.mark.parametrize("p,N", [(7, 2), (11, 2), (5, 3)])
def test_gamma_table_matches_direct_product(p, N):
    ctx = ctx_of(p, 1, N)
    rng = random.Random(p)
    for m in [0, 1, 2, p, p + 1, ctx.pN - 1] + [rng.randrange(ctx.pN) for _ in range(20)]:
        assert ctx.gamma_at_residue(m) == gamma_by_direct_product(m, p, ctx.pN)


@pytest.mark.parametrize(
    "p,N", [(3, 1), (3, 2), (5, 3), (7, 4), (11, 3), (5, 7), (3, 10), (3, 9), (7, 5), (3, 11)]
)
def test_gamma_matches_dense_recurrence_everywhere(p, N):
    # N = 1 (one level), N = 2 (no mid level), and N >= 3, where low, mid and
    # giant steps are all non-trivial: C = p^c < B = p^ceil(N/2) < p^N, with
    # D = ceil(N/c) terms per low entry, D >= 4 at (7, 4), (5, 7), (3, 10),
    # (7, 5) and (3, 11)
    ctx = ctx_of(p, 1, N)
    table = gamma_table_by_recurrence(p, ctx.pN)
    assert [ctx.gamma_at_residue(m) for m in range(ctx.pN)] == table


@pytest.mark.parametrize("p,N", [(3, 1), (3, 2), (5, 3), (3, 6), (5, 5), (7, 4), (3, 9), (11, 3)])
def test_gamma_matches_two_level_tables_everywhere(p, N):
    ctx = ctx_of(p, 1, N)
    steps = gamma_steps_two_level(p, N)
    assert [ctx.gamma_at_residue(m) for m in range(ctx.pN)] == [
        gamma_by_two_level(steps, ctx.pN, m) for m in range(ctx.pN)]


@pytest.mark.parametrize("p,N", [(11, 7), (13, 7), (7, 9)])
def test_gamma_matches_two_level_tables_at_seams(p, N):
    # every m = 0 or -1 mod C, which holds every m = 0 or -1 mod B, read
    # from the tables without the memo, and seeded residues through it
    ctx = ctx_of(p, 1, N)
    pN, tables, steps = ctx.pN, ctx.warm_gamma_table(), gamma_steps_two_level(p, N)
    C = tables[1]
    seams = [m for base in range(0, pN, C) for m in (base, base + C - 1)]
    assert [padic._gamma_value(tables, pN, m) for m in seams] == [
        gamma_by_two_level(steps, pN, m) for m in seams]
    rng = random.Random(pN)
    for m in [rng.randrange(pN) for _ in range(2000)]:
        assert ctx.gamma_at_residue(m) == gamma_by_two_level(steps, pN, m), m


@pytest.mark.parametrize("p,N", [(11, 7), (13, 7), (7, 9)])
def test_gamma_above_dense_range(p, N):
    # p^N is 2e7..6e7 here, too large for the dense table: check the
    # functional equation, at the low and mid block edges m = -1 mod C and
    # mod B too, and the reflection formula on seeded residues
    ctx = ctx_of(p, 1, N)
    pN, (B, C) = ctx.pN, ctx.warm_gamma_table()[:2]
    assert 1 < C < B < pN
    rng = random.Random(pN)
    edges = [k * B - 1 for k in (1, 2, p, p + 1)] + [pN - 1]
    edges += [rng.randrange(1, pN // B) * B - 1 for _ in range(40)]
    edges += [rng.randrange(1, pN // C) * C - 1 for _ in range(40)]
    points = [0, 1, p - 1, p, C, B] + [rng.randrange(pN) for _ in range(200)]
    for m in edges + points:
        step = m if m % p else 1
        nxt = ctx.gamma_at_residue((m + 1) % pN)
        assert nxt == -ctx.gamma_at_residue(m) * step % pN, m
        expected = (-1) ** a0(m, p) % pN
        assert ctx.gamma_at_residue(m) * ctx.gamma_at_residue((1 - m) % pN) % pN == expected


def test_gamma_at_residue_reads_any_integer():
    # m counts mod p^N, above p^N and below 0 too
    ctx = ctx_of(7, 1, 3)
    pN = ctx.pN
    assert ctx.gamma_at_residue(5 * pN) == ctx.gamma_at_residue(0) == 1
    rng = random.Random(7)
    for m in [0, 1, pN - 1] + [rng.randrange(pN) for _ in range(50)]:
        values = {ctx.gamma_at_residue(n) for n in (m, m + pN, m - pN, m - 3 * pN)}
        assert values == {gamma_by_direct_product(m, 7, pN)}, m


@pytest.mark.parametrize("p,N", [(5, 4), (7, 5), (3, 9)])
def test_gamma_recheck_catches_a_tampered_entry(p, N):
    # the build-time recheck reads every mid entry, low[0], low[C-1] and the
    # first giant entries across the C seams of the second B block: one
    # changed entry fails it
    tables = padic._gamma_steps(p, N)
    B, C, low, mid0, mid1, giant0, giant1 = tables
    padic._gamma_recheck(tables, p**N)
    def bump(entries, at):
        copy = list(entries)
        copy[at] = (copy[at][0] + 1,) + copy[at][1:] if entries is low else copy[at] + 1
        return copy

    tampered = [
        (B, C, bump(low, 0), mid0, mid1, giant0, giant1),
        (B, C, bump(low, C - 1), mid0, mid1, giant0, giant1),
        (B, C, low, bump(mid0, 0), mid1, giant0, giant1),
        (B, C, low, bump(mid0, -1), mid1, giant0, giant1),
        (B, C, low, mid0, bump(mid1, 1), giant0, giant1),
        (B, C, low, mid0, bump(mid1, -1), giant0, giant1),
        (B, C, low, mid0, mid1, bump(giant0, 1), giant1),
    ]
    for copy in tampered:
        with pytest.raises(InvariantViolation, match="gamma tables"):
            padic._gamma_recheck(copy, p**N)


def test_gamma_tables_shared_by_p_and_N():
    a, b = ctx_of(5, 1, 4), ctx_of(5, 2, 4)
    assert a.warm_gamma_table() is b.warm_gamma_table()
    assert a.warm_gamma_table() is not ctx_of(5, 1, 3).warm_gamma_table()


def src_nodes(names=None):
    """(file name, node) for every AST node of src/padic_hg, or of the
    files named."""
    src = pathlib.Path(padic_hg.__file__).parent
    for path in sorted(src.glob("*.py")):
        if names is None or path.name in names:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                yield path.name, node


def test_src_has_no_assert_statements():
    # invariant checks raise InvariantViolation so that they survive python -O
    asserts = [(name, n.lineno) for name, n in src_nodes() if isinstance(n, ast.Assert)]
    assert not asserts


def is_float_node(node):
    """A float or complex constant, a float() or complex() call, or a cmath import."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (float, complex)
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in ("float", "complex")
    if isinstance(node, ast.Import):
        return any(alias.name == "cmath" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.module == "cmath"


def test_p_adic_side_has_no_floats():
    # no float touches GR(p^N, r) or F_q, and none the command line:
    # charsum is the one module that keeps complex-number oracles
    assert [any(map(is_float_node, ast.walk(ast.parse(text)))) for text in (
        "0.5", "2j", "float(x)", "complex(1, 2)", "import cmath", "from cmath import exp",
        "1", "Fraction(1, 2)", "import math")] == [True] * 6 + [False] * 3
    files = {"padic.py", "gfunc.py", "ffield.py", "frobtrace.py", "cli.py"}
    floats = [(name, n.lineno) for name, n in src_nodes(files) if is_float_node(n)]
    assert not floats


def family_comparisons(trees, names):
    """(tree index, line) of every comparison in trees with a family name
    as an operand: a string in names, or a module constant of any of the
    trees that holds one."""
    held = {target.id for tree in trees for n in tree.body if isinstance(n, ast.Assign)
            and isinstance(n.value, ast.Constant) and n.value.value in names
            for target in n.targets if isinstance(target, ast.Name)}

    def names_a_family(node):
        if isinstance(node, ast.Constant):
            return node.value in names
        return isinstance(node, (ast.Name, ast.Attribute)) and getattr(
            node, "id", getattr(node, "attr", None)) in held

    return [(i, n.lineno) for i, tree in enumerate(trees) for n in ast.walk(tree)
            if isinstance(n, ast.Compare) and any(
                names_a_family(x) for operand in (n.left, *n.comparators) for x in ast.walk(operand))]


def test_no_code_branches_on_a_family_name():
    # each family's data lives in its one ffield.FAMILIES record, so no
    # module tells the families apart by name
    names = set(ffield.FAMILIES)
    assert [bool(family_comparisons([ast.parse(text)], names)) for text in (
        "if family == 'legendre': pass", "x = f in ('a1a3', 'fg')",
        "LEGENDRE = 'legendre'\nx = kind is not LEGENDRE", "x = ffield.CD == kind\nCD = 'cd'",
        "x = FAMILIES['cd'].coords", "x = suite == 't13'", "x = len(params) == 1",
    )] == [True] * 4 + [False] * 3
    src = pathlib.Path(padic_hg.__file__).parent
    files = sorted(src.glob("*.py"))
    found = family_comparisons([ast.parse(path.read_text()) for path in files], names)
    assert [(files[i].name, line) for i, line in found] == []


def fraction_calls_outside_raise(tree):
    """Line numbers of the Fraction(...) calls in tree outside a raise."""
    exempt = {id(n) for r in ast.walk(tree) if isinstance(r, ast.Raise) for n in ast.walk(r)}
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call) and id(n) not in exempt
            and getattr(n.func, "id", getattr(n.func, "attr", None)) == "Fraction"]


def test_identity_checkers_build_no_fraction():
    # past their argument boundary the checkers, the two integer orbit
    # cores and the p-adic Jacobi sum work on integers: a Fraction call may
    # only build the message of an error
    assert [bool(fraction_calls_outside_raise(ast.parse(text))) for text in (
        "Fraction(1, 2)", "x = fractions.Fraction(a)", "f(Fraction(n, d) + 1)",
        "raise E(f'{Fraction(e, m)}')", "x.as_integer_ratio()", "Fraction")] == [True] * 3 + [False] * 3
    targets = {
        "padic.py": lambda name: name.endswith("_check") or name in (
            "_shift_sides", "_gamma_orbit_nd", "_floor_nd"),
        "charsum.py": lambda name: name in ("jacobi_sum_padic", "gross_koblitz_jacobi_check"),
    }
    checked, found = set(), []
    for file, node in src_nodes(set(targets)):
        if isinstance(node, ast.FunctionDef) and targets[file](node.name):
            checked.add(node.name)
            found += [(file, node.name, line) for line in fraction_calls_outside_raise(node)]
    assert len(checked) == 16 and not found


@pytest.mark.parametrize("x", [0.1, 0.5, 2.0, Decimal("0.5"), "1/2"], ids=repr)
def test_arguments_other_than_int_and_fraction_are_rejected(x):
    # at 0.1, Fraction(x) would read 3602879701896397/2^55
    field = build_field(5, 2)
    ctx = PadicCtx(field, 2)
    for call in (frac, lambda x: gamma_p(x, ctx), ctx.gamma,
                 lambda x: reflection_check(x, ctx),
                 lambda x: product_formula_check(x, 2, ctx, field),
                 lambda x: floor_halving_check(x, 1, 0, 5, 25)):
        with pytest.raises(TypeError):
            call(x)
    assert frac(3) == 0 and frac(Fraction(-1, 4)) == Fraction(3, 4)
    assert gamma_p(1, ctx).value == gamma_p(Fraction(1), ctx).value


def test_gamma_values_are_units():
    ctx = ctx_of(7, 1, 3)
    for m in range(0, ctx.pN, 13):
        assert ctx.gamma_at_residue(m) % 7 != 0


def test_gamma_rejects_non_integral():
    ctx = ctx_of(5, 1, 2)
    with pytest.raises(DenominatorDivisibleByP):
        gamma_p(Fraction(1, 10), ctx)


def test_gamma_lipschitz():
    # x = y mod p^M implies Gamma(x) = Gamma(y) mod p^M
    ctx = ctx_of(5, 1, 4)
    rng = random.Random(42)
    for _ in range(60):
        m = rng.randrange(ctx.pN)
        for M in (1, 2, 3):
            y = m + rng.randrange(1, 5) * 5**M
            got = ctx.gamma_at_residue(m) - ctx.gamma_at_residue(y % ctx.pN)
            assert got % 5**M == 0


@pytest.mark.parametrize("p,r", [(5, 2), (7, 2)])
def test_reflection_on_character_orbit(p, r):
    ctx = ctx_of(p, r, 3)
    q = ctx.q
    for k in range(q - 1):
        assert reflection_check(Fraction(k, q - 1), ctx)


def test_reflection_random_rationals():
    ctx = ctx_of(7, 1, 3)
    rng = random.Random(0)
    seen = 0
    while seen < 200:
        d = rng.randrange(1, 40)
        if d % 7 == 0:
            continue
        x = Fraction(rng.randrange(-120, 120), d)
        assert reflection_check(x, ctx)
        seen += 1


ORBIT_FIELDS = [(5, 2), (3, 3), (7, 2)]
ORBIT_DENOMS = (1, 2, 3, 4, 6, 8, 12)


def orbit_points(p):
    """Every m/d with d in ORBIT_DENOMS prime to p and -2d <= m <= 2d."""
    return [
        Fraction(m, d) for d in ORBIT_DENOMS if d % p for m in range(-2 * d, 2 * d + 1)
    ]


@pytest.mark.parametrize("p,r", ORBIT_FIELDS)
@pytest.mark.parametrize("N", [1, 3, 5])
def test_gamma_orbit_matches_fraction_route(p, r, N):
    ctx, gamma = ctx_of(p, r, N), padic._gamma_orbit_nd
    xs = orbit_points(p)
    pairs = [x.as_integer_ratio() for x in xs]
    for x, pair in zip(xs, pairs):
        assert gamma(ctx, [pair]) == gamma_orbit_by_fractions(ctx, x), x
    assert gamma(ctx, [(-3, 1), (2, 1)]) == gamma_orbit_by_fractions(ctx, -3, 2)
    assert gamma(ctx, pairs) == gamma_orbit_by_fractions(ctx, *xs)
    assert gamma(ctx, []) == 1
    for d in ORBIT_DENOMS:
        with pytest.raises(DenominatorDivisibleByP):
            gamma(ctx, [(1, 2), (1, p * d)])


@pytest.mark.parametrize("p,r", ORBIT_FIELDS)
def test_floor_orbit_matches_fraction_route(p, r):
    q = p**r
    for x in orbit_points(p):
        n, d = x.as_integer_ratio()
        for i in range(r):
            got = [padic._floor_nd(n, d, e, p**i, q - 1) for e in range(-2 * (q - 1), 2 * q - 1)]
            assert got == [
                floor_orbit_by_fractions(x, e, i, p, q)
                for e in range(-2 * (q - 1), 2 * q - 1)
            ], (x, i)


def checker_pairs(p, q):
    """Every (n, d), -d <= n <= d, over the denominators the checkers build
    at q: d and 2d for d in ORBIT_DENOMS prime to p (halving), t(q-1) for
    the shifts t, and d'k for d' dividing q-1 and k in the multipliers of
    the product formula (the quarters' 4(q-1) among them).  Negative
    numerators and unreduced pairs included."""
    m = q - 1
    dens = {d * k for d in ORBIT_DENOMS if d % p for k in (1, 2)}
    dens |= {t * m for t in (2, 3, 4, 6) if t % p}
    dens |= {e * k for e in range(1, m + 1) if m % e == 0 for k in (1, 2, 3, 4, 6) if k % p}
    return [(n, d) for d in sorted(dens) for n in range(-d, d + 1)]


@pytest.mark.parametrize("p,r", ORBIT_FIELDS)
def test_integer_cores_match_the_fraction_routes(p, r):
    q, m = p**r, p**r - 1
    ctx = ctx_of(p, r, 3)
    pairs = checker_pairs(p, q)
    assert any(math.gcd(n, d) > 1 for n, d in pairs if n > 0)
    es = [s * e for e in (0, 1, m - 1, m, m + 1, 2 * m - 1, 12 * m) for s in (1, -1)]
    for n, d in pairs:
        assert padic._gamma_orbit_nd(ctx, [(n, d)]) == gamma_orbit_by_fractions(
            ctx, Fraction(n, d)), (n, d)
        for i in range(r):
            assert [padic._floor_nd(n, d, e, p**i, m) for e in es] == [
                floor_orbit_by_fractions(Fraction(n, d), e, i, p, q) for e in es], (n, d, i)
    assert padic._gamma_orbit_nd(ctx, pairs) == gamma_orbit_by_fractions(
        ctx, *(Fraction(n, d) for n, d in pairs))
    with pytest.raises(DenominatorDivisibleByP):
        padic._gamma_orbit_nd(ctx, [(1, 2), (p, p * 4)])


def test_digits_columns_are_kept_per_precision():
    # digit sums do not depend on N, yet each context builds and keeps its
    # own digits column per coset; units columns differ with N
    field = build_field(7, 2)
    rings = [padic._ring(field, N) for N in (1, 2, 5)]
    for coset in ((0, 1), (1, 3)):
        cols = [ring.column("digits", *coset) for ring in rings]
        assert cols[0] == cols[1] == cols[2]
        assert len({id(col) for col in cols}) == 3
        assert all(ring._columns[("digits", *coset)] is col for ring, col in zip(rings, cols))
    units = [ring.column("units", 0, 1) for ring in rings]
    assert units[0] != units[1] != units[2] != units[0]


def coset_by_fractions(y, q):
    """(Y mod (q-1), u, d) with y(q-1) = Y + u/d, by Fraction floor and
    fractional part."""
    z = Fraction(y) * (q - 1)
    f = frac(z)
    return (z - f) % (q - 1), f.numerator, f.denominator


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3), (7, 1)])
def test_gauss_coset_columns_match_the_fraction_route_at_every_entry(p, r):
    # every entry of every coset column the points below reach, d > 1
    # included, and the kernel's reading of it: the point y with side s
    # reads summand a at index (Y - s*a) mod (q-1)
    field = build_field(p, r)
    q, ring = field.q, PadicCtx(field, 2)
    ctx = PadicCtx(field, 2)
    points = [x for x in orbit_points(p) if abs(x) <= 1] + [Fraction(1, 13), Fraction(-2, 11)]
    cosets = set()
    for y in points:
        Y, u, d = padic._coset(y.numerator, y.denominator, q - 1)
        assert (Y, u, d) == coset_by_fractions(y, q), y
        cosets.add((u, d))
        M, digits, units = d * (q - 1), ring.column("digits", u, d), ring.column("units", u, d)
        for s in (1, -1):
            for a in range(q - 1):
                J = (Y - s * a) % (q - 1)
                floors = sum(floor_orbit_by_fractions(y, -s * a, i, p, q) for i in range(r))
                assert floors == Fraction(digits[Y] - digits[J], M) - Fraction(s * a, p - 1)
                x = y - s * Fraction(a, q - 1)
                assert units[J] == gamma_orbit_by_fractions(ctx, x), (y, s, a)
    assert any(d > 1 for _, d in cosets)
    for u, d in cosets:
        M = d * (q - 1)
        xs = [Fraction(d * J + u, M) for J in range(q - 1)]
        assert list(ring.column("digits", u, d)) == [
            M * sum(frac(x * p**i) for i in range(r)) for x in xs], (u, d)
        assert list(ring.column("units", u, d)) == [
            gamma_orbit_by_fractions(ctx, x) for x in xs], (u, d)
    assert set(ring._columns) == {(kind, u, d) for kind in ("digits", "units") for u, d in cosets}


@pytest.mark.parametrize("kind", ["digits", "units"])
@pytest.mark.parametrize("index", [0, -1])
@pytest.mark.parametrize("coset", [(0, 1), (3, 5)], ids=["d1", "d5"])
def test_gauss_coset_column_recheck_catches_a_corrupted_entry(monkeypatch, kind, index, coset):
    # one wrong entry at either end of a column fails its build, and the
    # column is not kept
    def corrupted(typecode, entries):
        col = array(typecode, entries)
        col[index] += 1
        return col

    monkeypatch.setattr(padic, "array", corrupted)
    field = FqField(7, 2)
    ring = PadicCtx(field, 2)
    with pytest.raises(InvariantViolation, match="Gauss-orbit column"):
        ring.column(kind, *coset)
    assert not ring._columns


def test_gauss_coset_column_recheck_holds_under_optimize():
    # the recheck is an if, not an assert: a corrupted unit entry still
    # raises under python -O
    script = (
        "if __debug__: raise SystemExit('not running under -O')\n"
        "from array import array\n"
        "from padic_hg import ffield, gfunc, padic\n"
        "from padic_hg.errors import InvariantViolation\n"
        "def corrupted(typecode, entries):\n"
        "    col = array(typecode, entries)\n"
        "    col[-1] += 1\n"
        "    return col\n"
        "field = ffield.build_field(7, 2)\n"
        "padic._ring(field, 2).column('digits', 0, 1)\n"
        "padic.array = corrupted\n"
        "try:\n"
        "    gfunc._GKernel(((0, 1), (1, 1)), ((0, 1), (0, 1)), field, 2)\n"
        "except InvariantViolation as exc:\n"
        "    print('InvariantViolation:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(padic_hg.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        "InvariantViolation: Gauss-orbit column ('units', 0, 1) fails its recheck"), proc.stdout


def test_teichmuller_basics():
    field = build_field(7, 1)
    ctx = PadicCtx(field, 2)
    assert teichmuller(field.one, ctx) == (1,)
    assert teichmuller(field.from_int(-1), ctx) == (48,)
    # iterate z -> z^7 by hand from 2: 2^7 = 128 = 30 mod 49, then fixed
    assert pow(2, 7, 49) == 30
    assert pow(30, 7, 49) == 30
    assert teichmuller(field.from_int(2), ctx) == (30,)
    assert pow(30, 3, 49) == 1
    with pytest.raises(ZeroInput):
        teichmuller(field.zero, ctx)


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3), (13, 2)])
def test_teichmuller_multiplicative(p, r):
    field = build_field(p, r)
    ctx = PadicCtx(field, 3)
    lifts = {v: teichmuller(field.elem(v), ctx) for v in range(1, field.q)}
    for v in range(1, field.q):
        for w in range(1, field.q):
            prod = (field.elem(v) * field.elem(w)).encode()
            assert _poly_mulmod(lifts[v], lifts[w], ctx.modulus, ctx.pN) == lifts[prod]


def test_teichmuller_root_of_unity():
    field = build_field(11, 2)
    ctx = PadicCtx(field, 3)
    for v in (1, 2, 17, 100):
        w = teichmuller(field.elem(v), ctx)
        power = (1, 0)
        for _ in range(field.q - 1):
            power = _poly_mulmod(power, w, ctx.modulus, ctx.pN)
        assert power == (1, 0)
        assert tuple(c % 11 for c in w) == field.elem(v).coeffs


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3), (7, 2)])
@pytest.mark.parametrize("N", [1, 3])
def test_teichmuller_table_matches_lifts(p, r, N):
    field = build_field(p, r)
    ctx = PadicCtx(field, N)
    table = [ctx.unpack(w) for w in ctx.packed()]
    assert len(table) == field.q - 1
    for k in range(field.q - 1):
        assert table[k] == teichmuller(field.exp(k), ctx)
    assert padic._ring(field, N).packed() is ctx.packed()


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_teichmuller_step_matches_repeated_products(r):
    # the fixed multiply-by-omega(g) step against q-2 generic Galois-ring
    # products, on every field of degree r with q <= 7^4 at every N <= 6
    # the gamma table cap allows
    checked = 0
    for p in range(3, 7**4 + 1, 2):
        if p**r > 7**4:
            break
        if not is_prime(p):
            continue
        field = build_field(p, r)
        for N in range(1, 7):
            if p ** ((N + 1) // 2) <= TABLE_CAP:
                ctx = PadicCtx(field, N)
                table = tuple(ctx.unpack(w) for w in ctx.packed())
                assert table == teichmuller_powers_by_products(ctx), (p, N)
                checked += 1
    assert checked >= 6


@pytest.mark.parametrize("p,r,N", [(3, 1, 1), (5, 2, 2), (7, 3, 1), (5, 4, 3)])
def test_unpack_reaches_the_scaled_entry_and_jacobi_bounds(p, r, N):
    # a context of its own whose packed entries hold p^N - 1 in every slot:
    # one entry times a residue (as _omega_scaled_is reads it) and a sum of
    # q-2 entries (as jacobi_sum_padic does) reach (p^N-1)^2 and
    # (q-2)(p^N-1) in each slot, and unpack to the per-coefficient results
    # at the context's width and at the least width that holds them; one
    # bit narrower, the slots carry into each other and the vector is wrong
    worst = PadicCtx(build_field(p, r), N)
    m, pN, W = worst.q - 1, worst.pN, worst.width
    top = (pN - 1,) * r
    scaled = tuple(c * (pN - 1) % pN for c in top)
    summed = tuple(sum(c) % pN for c in zip(*[top] * (m - 1)))
    cases = [  # (slot bound, the packed sum, its vector coefficient by coefficient)
        ((pN - 1) ** 2, lambda table: table[0] * (pN - 1), scaled),
        ((m - 1) * (pN - 1), lambda table: sum(table[1:]), summed),
    ]
    for bound, total, vec in cases:
        least = bound.bit_length()
        assert least <= W
        for width in (W, least, least - 1):
            worst.width, worst._packed = width, [pack(top, width)] * m
            assert (worst.unpack(total(worst.packed())) == vec) == (width >= least)


def test_frobenius_orbits_partition_the_exponents():
    # full orbits (r members) first, then the shorter ones, each from its
    # least member along a -> p*a, and pick reads the least members
    for p, r in [(3, 1), (13, 1), (5, 2), (3, 3), (7, 2), (3, 4), (5, 4)]:
        m = p**r - 1
        orbits, full, reps, pick = padic.frobenius_orbits(p, m)
        assert sorted(a for orbit in orbits for a in orbit) == list(range(m))
        lengths = [len(orbit) for orbit in orbits]
        assert [n == r for n in lengths] == [True] * full + [False] * (len(orbits) - full)
        for orbit in orbits:
            assert orbit[0] == min(orbit)
            assert [a * p % m for a in orbit] == list(orbit[1:] + orbit[:1])
        assert list(pick(list(range(m)))) == reps == [orbit[0] for orbit in orbits]
        assert padic.frobenius_orbits(p, m) is padic.frobenius_orbits(p, m)


def test_teichmuller_table_checks_the_order(monkeypatch):
    # omega(g) replaced by the plain lift of g, whose order mod 25 is 20
    field = build_field(5, 1)
    monkeypatch.setattr(padic, "teichmuller", lambda t, ctx: t.coeffs)
    padic._ring.cache_clear()
    with pytest.raises(InvariantViolation):
        PadicCtx(field, 2).packed()
    assert padic._ring(field, 2)._packed is None
    padic._ring.cache_clear()


@pytest.mark.parametrize("p,r,N", [(13, 1, 2), (7, 2, 3), (3, 3, 2), (5, 4, 1)])
def test_trace_column_sums_each_frobenius_orbit(p, r, N):
    # tr[k] is the sum of the constant coefficients of omega(g)^(k p^i),
    # i < r, and reduces mod p to the trace of g^k from F_q to F_p
    field = build_field(p, r)
    m, pN = field.q - 1, p**N
    ring = padic._ring(field, N)
    table = [ring.unpack(w) for w in ring.packed()]
    tr, const = ring.traces()
    assert ring.traces() is ring.traces()
    assert const == [w[0] for w in table]
    ref = TupleField(p, field.modulus)
    for k in range(m):
        assert tr[k] == sum(table[k * p**i % m][0] for i in range(r)) % pN
        assert tr[k] % p == ref.trace(field.exp(k).coeffs)


def test_trace_column_rejects_a_corrupted_teichmuller_entry():
    # one extension coordinate of omega(g) off by one, in a context of its own
    field = build_field(7, 2)
    bad, table = PadicCtx(field, 2), padic._ring(field, 2).packed()
    w0, w1 = bad.unpack(table[1])
    bad._packed = table[:1] + [pack((w0, (w1 + 1) % 49), bad.width)] + table[2:]
    with pytest.raises(InvariantViolation, match="Teichmuller orbit"):
        bad.traces()
    assert bad._traces is None


def test_trace_column_check_holds_under_optimize():
    script = (
        "if __debug__: raise SystemExit('not running under -O')\n"
        "from padic_hg import ffield, padic\n"
        "from padic_hg.errors import InvariantViolation\n"
        "field = ffield.build_field(7, 2)\n"
        "bad, table = padic.PadicCtx(field, 2), padic._ring(field, 2).packed()\n"
        "w0, w1 = bad.unpack(table[1])\n"
        "bad._packed = table[:1] + [w0 + ((w1 + 1) % 49 << bad.width)] + table[2:]\n"
        "try:\n"
        "    bad.traces()\n"
        "except InvariantViolation as exc:\n"
        "    print('InvariantViolation:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(padic_hg.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InvariantViolation: Teichmuller orbit"), proc.stdout


def test_unit_columns_leave_no_gamma_memo():
    # a units column reads Gamma_p through a memo of its own build, so the
    # shared (field, N) context holds no gamma values afterwards
    from padic_hg import frobtrace, gfunc

    field = build_field(7, 2)
    padic._ring.cache_clear()
    gfunc._KERNELS.clear()
    kern = gfunc._kernel(frobtrace.TOP4, frobtrace.BOT_QUARTERS, field, 3)
    assert kern.work is padic._ring(field, 3)
    assert ("units", 0, 1) in kern.work._columns
    assert kern.work._gamma_memo == {}
    gfunc._KERNELS.clear()


def test_gr_ring_axioms():
    field = build_field(11, 2)
    ctx = PadicCtx(field, 2)
    rng = random.Random(3)
    elems = [tuple(rng.randrange(ctx.pN) for _ in range(2)) for _ in range(8)]

    def mul(x, y):
        return _poly_mulmod(x, y, ctx.modulus, ctx.pN)

    def add(x, y):
        return tuple((a + b) % ctx.pN for a, b in zip(x, y))

    # x^2 = -(m_0 + m_1 x) for the lifted modulus x^2 + m_1 x + m_0
    assert mul((0, 1), (0, 1)) == tuple(-m % ctx.pN for m in ctx.modulus[:2])
    for x in elems:
        assert mul(x, (1, 0)) == x
        for y in elems:
            assert mul(x, y) == mul(y, x)
            for z in elems:
                assert mul(mul(x, y), z) == mul(x, mul(y, z))
                assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))


def test_teichmuller_rejects_other_fields():
    field, other = build_field(5, 2), FqField(5, 2)
    ctx = PadicCtx(field, 3)
    with pytest.raises(ValueError):
        teichmuller(other.elem(7), ctx)
    with pytest.raises(ValueError):
        teichmuller(build_field(5, 1).one, ctx)


def test_gamma_product_checks_reject_other_fields():
    # a context over F_25 must not be read with the log tables of F_5
    field, small = build_field(5, 2), build_field(5, 1)
    ctx = PadicCtx(field, 3)
    with pytest.raises(ValueError):
        product_formula_check(Fraction(1, 4), 2, ctx, small)
    with pytest.raises(ValueError):
        gamma_product_downshift_check(2, 1, ctx, small)
    with pytest.raises(ValueError):
        gamma_product_upshift_check(2, 1, ctx, small)
    with pytest.raises(ValueError):
        product_formula_check(Fraction(1, 4), 2, ctx, FqField(5, 2))


def test_gamma_product_checks_lift_at_most_once(monkeypatch):
    calls = []
    lift = padic.teichmuller

    def counting(t, ctx):
        calls.append((t.field, ctx.N))
        return lift(t, ctx)

    monkeypatch.setattr(padic, "teichmuller", counting)
    padic._ring.cache_clear()
    field = build_field(5, 2)
    for N in (2, 3):
        ctx = PadicCtx(field, N)
        for k in range(0, 24, 3):
            assert product_formula_check(Fraction(k, 24), 2, ctx, field)
        for a in range(0, 24, 5):
            assert gamma_product_downshift_check(3, a, ctx, field)
            assert gamma_product_upshift_check(3, a, ctx, field)
    assert calls == [(field, 2), (field, 3)]


def test_public_names_resolve():
    for name in padic_hg.__all__:
        assert getattr(padic_hg, name) is not None, name
    assert not hasattr(padic_hg, "GrElem") and not hasattr(padic_hg, "gr_pow")


@pytest.mark.parametrize("p,r,m", [(7, 1, 1), (7, 1, 2), (11, 3, 4), (5, 2, 3)])
def test_product_formula(p, r, m):
    field = build_field(p, r)
    ctx = PadicCtx(field, 3)
    q = field.q
    step = max(1, (q - 1) // 16)
    for k in range(0, q - 1, step):
        assert product_formula_check(Fraction(k, q - 1), m, ctx, field)


def test_product_formula_hypotheses():
    field = build_field(5, 1)
    ctx = PadicCtx(field, 2)
    with pytest.raises(HypothesisViolation):
        product_formula_check(Fraction(1, 4), 5, ctx, field)
    with pytest.raises(HypothesisViolation):
        product_formula_check(Fraction(1, 3), 2, ctx, field)


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3)])
def test_gamma_shift_products(p, r):
    field = build_field(p, r)
    ctx = PadicCtx(field, 3)
    for t in (2, 3, 4, 6):
        if t % p == 0:
            continue
        for a in range(field.q - 1):
            assert gamma_product_downshift_check(t, a, ctx, field)
            assert gamma_product_upshift_check(t, a, ctx, field)


@pytest.mark.parametrize("p,r,t,a", [(5, 2, 3, 1), (3, 3, 2, 5), (7, 2, 4, 7), (11, 1, 3, 2)])
def test_shift_checks_pin_their_sides(p, r, t, a):
    # each identity holds at every integer a, so a sign slip that turns one
    # checker into the other still returns True; pin the omega exponent
    # and both sides of each statement as written
    ctx = ctx_of(p, r, 3)
    field, m = ctx.field, ctx.q - 1
    nu = Fraction(a, m)
    hs = [Fraction(h, t) for h in range(1, t)]
    down = padic._downshift_sides(t, a, ctx, field)
    assert down[0] % m == -t * a % m
    assert down[1] == gamma_orbit_by_fractions(ctx, -t * nu, *hs)
    assert down[2] == gamma_orbit_by_fractions(ctx, *(Fraction(1 + h, t) - nu for h in range(t)))
    up = padic._shift_sides(t, a, ctx, field)
    assert up[0] % m == t * a % m
    assert up[1] == gamma_orbit_by_fractions(ctx, t * nu, *hs)
    assert up[2] == gamma_orbit_by_fractions(ctx, *(Fraction(h, t) + nu for h in range(t)))
    assert down[0] % m != up[0] % m and down[1] != up[1]


def test_oversized_precision_is_a_typed_error():
    # no gamma table of a context holds more than p^ceil(N/2) entries
    field = build_field(5, 2)
    largest = max(N for N in range(1, 40) if 5 ** ((N + 1) // 2) <= TABLE_CAP)
    before = padic._gamma_steps.cache_info().misses
    PadicCtx(field, largest)
    for N in (largest + 1, 30):
        with pytest.raises(PrecisionTooLarge):
            PadicCtx(field, N)
    assert padic._gamma_steps.cache_info().misses == before


@pytest.mark.parametrize("N", [3.0, "3"], ids=repr)
def test_non_int_precision_is_a_type_error_before_any_build(N):
    # at N = 3.0 the modulus p^N would be the float 125.0; the reduction
    # identity reaches the constructor through _ring, once the caches are
    # cleared, as their keys take 3.0 for 3
    field = build_field(5, 1)
    before = padic._gamma_steps.cache_info().misses
    with pytest.raises(TypeError, match="is not an int"):
        PadicCtx(field, N)
    gfunc._KERNELS.clear()
    padic._ring.cache_clear()
    with pytest.raises(TypeError, match="is not an int"):
        gfunc.check_reduction_identity([Fraction(1, 2)], [0], 2, field.from_int(2), 5, N=N)
    assert padic._gamma_steps.cache_info().misses == before
    # warm, the kernel and ring caches hold N = 3 entries that N = 3.0 would hit
    gfunc.check_reduction_identity([Fraction(1, 2)], [0], 2, field.from_int(2), 5, N=3)
    with pytest.raises(TypeError, match="is not an int"):
        gfunc.check_reduction_identity([Fraction(1, 2)], [0], 2, field.from_int(2), 5, N=N)


class NoLargePowers(int):
    """An int whose powers above the 64th fail the test: a size check on
    p^e must compare exponents, not form the power."""

    def __pow__(self, e, mod=None):
        if e > 64:
            pytest.fail(f"{int(self)}^{e} was formed")
        return pow(int(self), e, mod)


def test_oversize_inputs_are_refused_before_any_work(monkeypatch):
    p = NoLargePowers(5)
    with pytest.raises(DegreeTooLarge, match=r"q = 5\^2000000 exceeds"):
        FqField(p, 2_000_000)
    with pytest.raises(PrecisionTooLarge):
        PadicCtx(SimpleNamespace(p=p), 4_000_000)
    # above the cap, no primality test (its trial division grows as sqrt(p)),
    # so a composite p gets DegreeTooLarge as well
    monkeypatch.setattr(ffield, "is_prime", lambda n: pytest.fail(f"{n} was tested"))
    for big in (10**12 + 39, 10**12, TABLE_CAP + 1):  # a prime, two composites
        with pytest.raises(DegreeTooLarge, match=f"p = {big} exceeds"):
            FqField(big, 1)


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3), (7, 2), (11, 2)])
def test_complement_and_half_shift(p, r):
    field = build_field(p, r)
    ctx = PadicCtx(field, 3)
    q = field.q
    for a in range(1, q - 1):
        assert gamma_complement_product_check(a, ctx)
    for a in range(q - 1):
        if a != (q - 1) // 2:
            assert gamma_half_shift_check(a, ctx)


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3), (11, 2)])
def test_floor_identities_exhaustive(p, r):
    q = p**r
    for d in (2, 3, 4, 6, 8, 12):
        if d % p == 0:
            continue
        for i in range(r):
            for a in range(1, q - 1):
                assert floor_negative_multiple_check(d, a, i, p, q)
            for a in range(q - 1):
                assert floor_positive_multiple_check(d, a, i, p, q)


@pytest.mark.parametrize("d", [0, -1, -3])
def test_floor_negative_multiple_rejects_d_below_one(d):
    # d = 0 once gave False, as if the identity failed
    with pytest.raises(HypothesisViolation, match="d must be positive"):
        floor_negative_multiple_check(d, 1, 0, 5, 25)


@pytest.mark.parametrize("l", [0, -1, -3])
def test_floor_positive_multiple_rejects_l_below_one(l):
    # l = 0 once gave True over an empty shift sum
    with pytest.raises(HypothesisViolation, match="l must be positive"):
        floor_positive_multiple_check(l, 1, 0, 5, 25)


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3), (11, 2)])
def test_floor_halving_exhaustive(p, r):
    q = p**r
    for d in (2, 3, 4, 6, 8, 12):
        if d % p == 0:
            continue
        for m in range(d):
            x = Fraction(m, d)
            for i in range(r):
                for j in range(q - 1):
                    assert floor_halving_check(x, j, i, p, q)


@pytest.mark.parametrize("p,r", [(5, 2), (11, 2), (13, 2)])
def test_quarter_gamma_product(p, r):
    field = build_field(p, r)
    ctx = PadicCtx(field, 3)
    q = field.q
    assert q % 4 == 1
    excluded = {(q - 1) // 4, 3 * (q - 1) // 4}
    for n in range(q - 1):
        if n in excluded:
            with pytest.raises(HypothesisViolation):
                quarter_gamma_product_check(n, ctx)
        else:
            assert quarter_gamma_product_check(n, ctx)


@pytest.mark.parametrize("p,d", [(11, 4), (11, 12), (5, 3), (5, 6), (7, 4)])
def test_dth_root_gamma_quotient(p, d):
    ctx = ctx_of(p, 1, 3)
    assert (p + 1) % d == 0
    for n in range(p - 1):
        assert dth_root_gamma_quotient_check(d, n, ctx)


def test_dth_root_hypothesis():
    ctx = ctx_of(7, 1, 2)
    with pytest.raises(HypothesisViolation):
        dth_root_gamma_quotient_check(3, 0, ctx)


@pytest.mark.parametrize("d", [0, -1, -2, -8])
def test_dth_root_rejects_d_below_one(d):
    # d = 0 would divide by zero and d = -2, -8 divide p + 1 = 8
    with pytest.raises(HypothesisViolation, match="d must be positive"):
        dth_root_gamma_quotient_check(d, 1, ctx_of(7, 1, 2))
