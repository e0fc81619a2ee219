import os
import random
import subprocess
import sys
from functools import partial

import pytest

import padic_hg
from padic_hg import ffield
from padic_hg.errors import (
    DegreeTooLarge,
    HypothesisViolation,
    InvariantViolation,
    NotPrime,
    SingularCurve,
)
from padic_hg.ffield import (
    FAMILIES,
    CurveSpec,
    build_field,
    count_points,
    discriminant,
    family_member,
    family_traces,
    member_trace,
    quad_char,
    trace_of_frobenius,
)
from padic_hg.frobtrace import PAIR_FORMULAS, TheoremInstance, trace_sum_pair
from oracles import (
    TupleField,
    correlation_by_definition,
    count_points_exhaustive,
    enumerate_legendre_points,
    multiplicative_order,
    phi_sum_by_elements,
)


def test_f5_generator_is_smallest():
    field = build_field(5, 1)
    assert field.generator.encode() == 2
    # exhaustive oracle: 2 is the least encoding of full order
    orders = {v: multiplicative_order(field.elem(v), field) for v in range(1, 5)}
    assert orders[2] == 4
    assert all(orders[v] < 4 for v in range(1, 2))


def test_f1331_generator_order():
    field = build_field(11, 3)
    g = field.generator
    assert g**1330 == field.one
    for s in (2, 5, 7, 19):
        assert g ** (1330 // s) != field.one


def test_build_field_rejects_bad_input():
    with pytest.raises(NotPrime):
        build_field(4, 1)
    with pytest.raises(NotPrime):
        build_field(2, 3)
    with pytest.raises(DegreeTooLarge):
        build_field(1013, 2)


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3), (7, 2), (11, 3)])
def test_modulus_has_no_roots(p, r):
    field = build_field(p, r)
    mod = field.modulus
    for x in range(p):
        value = sum(c * x**i for i, c in enumerate(mod)) % p
        assert value != 0


def test_log_exp_roundtrip_and_multiplicativity():
    field = build_field(5, 2)
    for v in range(1, 25):
        x = field.elem(v)
        assert field.exp(field.log(x)) == x
    for v in range(1, 25):
        for w in range(1, 25):
            x, y = field.elem(v), field.elem(w)
            assert field.log(x * y) == (field.log(x) + field.log(y)) % 24


@pytest.mark.parametrize("p,r", [(3, 3), (11, 2)])
def test_frobenius_fixes_field(p, r):
    field = build_field(p, r)
    for v in range(field.q):
        x = field.elem(v)
        assert x**field.q == x


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3), (7, 2), (11, 2)])
def test_arithmetic_matches_tuple_oracle(p, r):
    field = build_field(p, r)
    ref = TupleField(p, field.modulus)
    q = field.q
    elems = [field.elem(v) for v in range(q)]
    tups = [ref.decode(v) for v in range(q)]
    invs = {t: ref.inverse(t) for t in tups[1:]}
    for x, tx in zip(elems, tups):
        assert x.coeffs == tx
        assert (-x).coeffs == ref.neg(tx)
        assert field.absolute_trace(x) == ref.trace(tx)
        for y, ty in zip(elems, tups):
            assert (x + y).coeffs == ref.add(tx, ty)
            assert (x - y).coeffs == ref.sub(tx, ty)
            assert (x * y).coeffs == ref.mul(tx, ty)
            if not y.is_zero():
                assert (x / y).coeffs == ref.mul(tx, invs[ty])
        # every exponent class mod q-1, and its negative for units
        cur = ref.one
        for e in range(q):
            assert (x**e).coeffs == cur
            if not x.is_zero():
                assert (x**-e).coeffs == invs[cur]
            cur = ref.mul(cur, tx)


def test_zech_edge_case_sums_to_zero():
    for p, r in [(5, 2), (3, 3), (7, 2), (11, 2)]:
        field = build_field(p, r)
        half = field.generator ** ((field.q - 1) // 2)
        assert half == -field.one
        assert field.one + half == field.zero
        assert half + field.one == field.zero
        assert field.one - (-half) == field.zero


def test_mixed_field_arithmetic_rejected():
    f25, f5, f49 = build_field(5, 2), build_field(5, 1), build_field(7, 2)
    for x, y in [(f25.one, f5.one), (f25.elem(7), f49.elem(7))]:
        for op in (
            lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y,
        ):
            with pytest.raises(ValueError):
                op()


def test_invariant_checks_survive_optimize():
    script = (
        "if __debug__: raise SystemExit('not running under -O')\n"
        "from padic_hg import ffield\n"
        "from padic_hg.errors import InvariantViolation\n"
        "field = ffield.build_field(5, 1)\n"
        "ffield.count_points = lambda curve, fld: 100\n"
        "try:\n"
        "    ffield.trace_of_frobenius(ffield.CurveSpec.legendre(field.from_int(2)), field)\n"
        "except InvariantViolation as exc:\n"
        "    print('InvariantViolation:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(padic_hg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InvariantViolation: Hasse bound"), proc.stdout


def test_absolute_trace_additive():
    field = build_field(5, 2)
    for v in range(25):
        for w in range(25):
            x, y = field.elem(v), field.elem(w)
            s = (field.absolute_trace(x) + field.absolute_trace(y)) % 5
            assert field.absolute_trace(x + y) == s


def test_quad_char_basics():
    field = build_field(11, 3)
    assert quad_char(field.zero) == 0
    assert quad_char(field.one) == 1
    # (q-1)/2 = 665 is odd, so -1 is not a square
    assert pow(-1, (field.q - 1) // 2) == -1
    assert quad_char(field.from_int(-1)) == -1


def test_quad_char_is_power_map():
    field = build_field(7, 2)
    e = (field.q - 1) // 2
    for v in range(1, field.q):
        x = field.elem(v)
        power = x**e
        assert power in (field.one, -field.one)
        expected = 1 if power == field.one else -1
        assert quad_char(x) == expected


def test_quad_char_multiplicative():
    field = build_field(5, 2)
    for v in range(1, 25):
        x = field.elem(v)
        assert quad_char(x * x) == 1
        for w in range(1, 25):
            y = field.elem(w)
            assert quad_char(x * y) == quad_char(x) * quad_char(y)


def test_legendre_counts_over_f5():
    # oracle: raw integer enumeration of y^2 = x(x-1)(x-lambda)
    assert enumerate_legendre_points(2, 5) == 8
    assert enumerate_legendre_points(-2 % 5, 5) == 4
    field = build_field(5, 1)
    assert count_points(CurveSpec.legendre(field.from_int(2)), field) == 8
    assert count_points(CurveSpec.legendre(field.from_int(-2)), field) == 4
    assert trace_of_frobenius(CurveSpec.legendre(field.from_int(2)), field) == -2
    assert trace_of_frobenius(CurveSpec.legendre(field.from_int(-2)), field) == 2


def test_singular_curves_rejected():
    field = build_field(5, 1)
    with pytest.raises(SingularCurve):
        count_points(CurveSpec.legendre(field.one), field)
    with pytest.raises(SingularCurve):
        count_points(CurveSpec.legendre(field.zero), field)
    f7 = build_field(7, 1)
    # a1^3 = 27 a3 makes the cubic family singular: a1 = 3, a3 = 1
    with pytest.raises(SingularCurve):
        count_points(CurveSpec.a1a3(f7.from_int(3), f7.from_int(1)), f7)


def test_family_constructor_hypotheses():
    f5 = build_field(5, 1)
    f3 = build_field(3, 1)
    with pytest.raises(HypothesisViolation):
        CurveSpec.a1a3(f5.zero, f5.one)
    with pytest.raises(HypothesisViolation):
        CurveSpec.a1a3(f3.one, f3.one)
    with pytest.raises(HypothesisViolation):
        CurveSpec.fg(f5.one, f5.zero)
    with pytest.raises(HypothesisViolation):
        CurveSpec.cd(f5.zero, f5.one)
    # lambda = -1 is a perfectly good curve at the curve level
    assert count_points(CurveSpec.legendre(f5.from_int(-1)), f5) > 0


def _sample_curves(field, rng):
    curves = []
    q = field.q
    for _ in range(6):
        lam = field.elem(rng.randrange(2, q))
        if not lam.is_zero() and lam != field.one:
            curves.append(CurveSpec.legendre(lam))
        a, b = field.elem(rng.randrange(1, q)), field.elem(rng.randrange(1, q))
        for maker in (CurveSpec.fg, CurveSpec.cd, CurveSpec.a1a3):
            try:
                c = maker(a, b)
            except HypothesisViolation:
                continue
            if not discriminant(c, field).is_zero():
                curves.append(c)
    w = CurveSpec.weierstrass(
        field.one, field.zero, field.from_int(2), field.from_int(3), field.one
    )
    if not discriminant(w, field).is_zero():
        curves.append(w)
    return curves


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (13, 1), (5, 2), (7, 2), (13, 2), (11, 2)])
def test_char_sum_count_matches_exhaustive(p, r):
    import random

    rng = random.Random(p * 100 + r)
    field = build_field(p, r)
    if field.q > 169:
        pytest.skip("oracle equivalence is pinned to q <= 169")
    for curve in _sample_curves(field, rng):
        assert count_points(curve, field) == count_points_exhaustive(curve, field)


def test_hasse_bound_on_samples():
    import random

    rng = random.Random(7)
    for p, r in [(5, 2), (11, 1), (13, 2)]:
        field = build_field(p, r)
        for curve in _sample_curves(field, rng):
            a = field.q + 1 - count_points(curve, field)
            assert a * a <= 4 * field.q


@pytest.mark.parametrize("p", [7, 11, 19, 23])
def test_special_legendre_traces_vanish(p):
    # for p = 3 mod 4 the curves with lambda = 2, 1/2 have zero trace
    field = build_field(p, 1)
    half = field.from_int(2).inverse()
    assert trace_of_frobenius(CurveSpec.legendre(field.from_int(2)), field) == 0
    assert trace_of_frobenius(CurveSpec.legendre(half), field) == 0


# -- family tables -------------------------------------------------------------

@pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_correlation_matches_the_definition(p, r):
    # every m is compared, so every digit p - 1 (the fold edge, where an
    # axis has no slot 2p - 1) on every axis is covered
    rng = random.Random(p * 10 + r)
    q = p**r
    for lo, hi in ((-3, 3), (0, 5), (-7, -1)):
        h = [rng.randint(lo, hi) for _ in range(q)]
        f = [rng.randint(-1, 1) for _ in range(q)]
        assert ffield._correlate(h, f, p, r) == correlation_by_definition(h, f, p, r)


TABULATED = {name: family for name, family in FAMILIES.items() if family.histogram}
FAMILY_MEMBERS = {  # the checked curve at each family's member m
    name: lambda field, m, name=name: CurveSpec.of(name, *TABULATED[name].member(m, field))
    for name in TABULATED
}
TWO_PARAMETER_FAMILIES = tuple(
    partial(CurveSpec.of, name) for name, family in TABULATED.items() if len(family.coords) == 2
)


def _members(field):
    """(family, m, curve) for every nonsingular member of every family that
    exists over field (a1a3 and cd need p > 3)."""
    for family, make in FAMILY_MEMBERS.items():
        for v in range(field.q):
            try:
                curve = make(field, field.elem(v))
            except HypothesisViolation:
                continue
            if not discriminant(curve, field).is_zero():
                yield family, v, curve


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (3, 3), (7, 2), (11, 2), (5, 3), (13, 2)])
def test_family_tables_match_point_counts(p, r):
    field = build_field(p, r)
    checked = set()
    for family, v, curve in _members(field):
        assert family_traces(family, field)[v] == trace_of_frobenius(curve, field)
        checked.add(family)
    assert checked == ({"legendre", "fg"} if p == 3 else set(FAMILY_MEMBERS))


def family_trace(curve, field):
    """a_q of a family curve: the twist times its family member's entry."""
    m, twist = family_member(curve, field)
    return twist * member_trace(curve.family, m, field)


def _same_trace_or_both_singular(curve, field):
    try:
        expected = trace_of_frobenius(curve, field)
    except SingularCurve:
        with pytest.raises(SingularCurve):
            family_trace(curve, field)
        return
    assert family_trace(curve, field) == expected


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3)])
def test_family_trace_every_parameter_pair(p, r):
    field = build_field(p, r)
    for v in range(field.q):
        _same_trace_or_both_singular(CurveSpec.legendre(field.elem(v)), field)
    for make in TWO_PARAMETER_FAMILIES:
        for x in range(1, field.q):
            for y in range(1, field.q):
                try:
                    curve = make(field.elem(x), field.elem(y))
                except HypothesisViolation:
                    break  # a1a3 and cd at p = 3
                _same_trace_or_both_singular(curve, field)


@pytest.mark.parametrize("p,r", [(11, 2), (5, 3), (13, 2)])
def test_family_trace_seeded_pairs(p, r):
    # the scaling of a1a3 and the twists of fg and cd by seeded (x, y)
    field = build_field(p, r)
    rng = random.Random(p * 100 + r)
    for make in TWO_PARAMETER_FAMILIES:
        for _ in range(40):
            x, y = (field.elem(rng.randrange(1, field.q)) for _ in range(2))
            _same_trace_or_both_singular(make(x, y), field)


@pytest.mark.parametrize("family", sorted(FAMILY_MEMBERS))
def test_curves_from_another_field_are_rejected(family):
    # coordinates of F_25 read in F_125: ValueError from the table route,
    # the pair route and the point count alike, never another field's entry
    small, big = build_field(5, 2), build_field(5, 3)
    curve = FAMILY_MEMBERS[family](small, small.elem(7))
    with pytest.raises(ValueError):
        count_points(curve, big)
    with pytest.raises(ValueError):
        family_trace(curve, big)
    for name, formula in PAIR_FORMULAS.items():
        if formula.family == family:
            with pytest.raises(ValueError):
                trace_sum_pair(TheoremInstance(name, big, curve.params))


@pytest.mark.parametrize("family", sorted(FAMILY_MEMBERS))
def test_member_trace_rejects_a_member_from_another_field(family):
    # 3 of F_7 read in F_25's table once gave that table's entry at
    # encoding 3: -6 for the Legendre family
    small, big = build_field(7, 1), build_field(5, 2)
    with pytest.raises(ValueError, match="does not lie in"):
        member_trace(family, small.elem(3), big)
    with pytest.raises(ValueError, match="does not lie in"):
        member_trace(family, big.elem(3), small)


def test_family_trace_rejects_general_weierstrass():
    field = build_field(5, 1)
    curve = CurveSpec.weierstrass(
        field.one, field.zero, field.from_int(2), field.from_int(3), field.one
    )
    with pytest.raises(ValueError):
        family_trace(curve, field)


# (message at p = 3 with every coordinate 1, message at p = 5 with a zero
# coordinate); None where the curve is admitted
HYPOTHESES = {
    "legendre": (None, None),
    "a1a3": ("a1a3 family requires p > 3", "a1a3 family requires a1, a3 nonzero"),
    "fg": (None, "fg family requires f, g nonzero"),
    "cd": ("cd family requires p > 3", "cd family requires c, d nonzero"),
    "weierstrass": (None, None),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_hypothesis_violations_name_the_family(family):
    make = getattr(CurveSpec, family)
    at_three, with_zero = HYPOTHESES[family]
    n = len(FAMILIES[family].coords)
    small, field = build_field(3, 1), build_field(5, 1)
    cases = [([small.one] * n, at_three)] + [
        ([field.one] * i + [field.zero] + [field.one] * (n - 1 - i), with_zero) for i in range(n)
    ]
    for coords, message in cases:
        if message is None:
            assert make(*coords).params == tuple(coords)
        else:
            with pytest.raises(HypothesisViolation) as exc:
                make(*coords)
            assert str(exc.value) == message
    with pytest.raises(TypeError):
        CurveSpec.of(family, *coords, field.one)


def test_t13_sweep_counts_no_points(monkeypatch):
    calls = []
    counted = ffield.count_points
    monkeypatch.setattr(
        ffield, "count_points", lambda curve, fld: calls.append(curve) or counted(curve, fld)
    )
    family_traces.cache_clear()
    field = build_field(5, 3)
    swept = 0
    for v in range(2, field.q):
        lam = field.elem(v)
        if lam == -field.one:
            continue
        lhs, rhs = trace_sum_pair(TheoremInstance("t13", field, (lam,)))
        assert lhs == rhs
        swept += 1
    assert swept == 122
    assert calls == []
    info = family_traces.cache_info()
    assert (info.misses, info.hits) == (1, 2 * swept - 1)


@pytest.mark.parametrize(
    "p,r", [(5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3)]
)
def test_singular_entries_match_the_discriminant(p, r):
    # an entry is None exactly where the member's discriminant vanishes
    field = build_field(p, r)
    for family, spec in TABULATED.items():
        if p <= spec.p_above:
            continue
        table = family_traces(family, field)
        for v in range(field.q):
            member = CurveSpec(family, spec.member(field.elem(v), field))
            assert (table[v] is None) == discriminant(member, field).is_zero(), (family, v)


def test_a_wrong_singular_root_fails_the_table_build(monkeypatch):
    field = build_field(7, 1)
    monkeypatch.setitem(FAMILIES, "fg", FAMILIES["fg"]._replace(singular=((0, 1), (1, 2))))
    family_traces.cache_clear()
    with pytest.raises(InvariantViolation, match="fg member at m = 4 is not singular"):
        family_traces("fg", field)


def test_t13_sweep_evaluates_discriminants_only_in_table_builds(monkeypatch):
    calls = []
    disc = ffield.discriminant
    monkeypatch.setattr(
        ffield, "discriminant", lambda curve, fld: calls.append(curve) or disc(curve, fld)
    )
    family_traces.cache_clear()
    field = build_field(7, 2)
    swept = 0
    for v in range(2, field.q):
        lam = field.elem(v)
        if lam != -field.one:
            lhs, rhs = trace_sum_pair(TheoremInstance("t13", field, (lam,)))
            assert lhs == rhs
            swept += 1
    assert swept == 46
    # the one Legendre table build checks its two singular members
    assert family_traces.cache_info().misses == 1
    assert [c.params[0].enc for c in calls] == [0, 1]


def test_family_table_cache_evicts_past_its_bound():
    family_traces.cache_clear()
    bound = family_traces.cache_info().maxsize
    keys = [
        (family, build_field(p, 1))
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31)
        for family in FAMILY_MEMBERS
    ]
    assert len(keys) > bound
    for key in keys:
        family_traces(*key)
    info = family_traces.cache_info()
    assert (info.currsize, info.misses) == (bound, len(keys))
    family_traces(*keys[0])  # evicted, so built again
    assert family_traces.cache_info().misses == len(keys) + 1


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (5, 2), (7, 1), (3, 3), (5, 3), (3, 4)])
def test_phi_sum_matches_element_arithmetic(p, r):
    # general Weierstrass curves, singular ones included, and every zero
    # coefficient pattern of the cubic
    field = build_field(p, r)
    rng = random.Random(p * 10 + r)
    for _ in range(40):
        coeffs = [field.elem(rng.randrange(field.q) * rng.randrange(2)) for _ in range(5)]
        curve = CurveSpec.weierstrass(*coeffs)
        assert ffield._phi_sum(curve, field) == phi_sum_by_elements(curve, field)


@pytest.mark.parametrize("m", ["one", "minus_one"])
def test_family_table_check_catches_one_corrupted_entry(monkeypatch, m):
    # each of the two direct sums guards its own entry of the table
    field = build_field(7, 2)
    bad = 1 if m == "one" else field.q - 1
    correlate = ffield._correlate

    def corrupted(h, f, p, r):
        c = correlate(h, f, p, r)
        c[bad] += 2
        return c

    monkeypatch.setattr(ffield, "_correlate", corrupted)
    for family in FAMILY_MEMBERS:
        family_traces.cache_clear()
        with pytest.raises(InvariantViolation, match=f"{family} table disagrees"):
            family_traces(family, field)
    family_traces.cache_clear()


def test_family_table_check_survives_optimize():
    script = (
        "if __debug__: raise SystemExit('not running under -O')\n"
        "from padic_hg import ffield\n"
        "from padic_hg.errors import InvariantViolation\n"
        "fold = ffield._fold\n"
        "def corrupted(slots, p, r):\n"
        "    # every entry whose lowest digit is p - 1 gains 1\n"
        "    return [c + (m % p == p - 1) for m, c in enumerate(fold(slots, p, r))]\n"
        "ffield._fold = corrupted\n"
        "for family in ('legendre', 'fg', 'cd', 'a1a3'):\n"
        "    try:\n"
        "        ffield.family_traces(family, ffield.build_field(5, 2))\n"
        "    except InvariantViolation as exc:\n"
        "        print('InvariantViolation:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(padic_hg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4, proc.stdout
    for line, family in zip(lines, ("legendre", "fg", "cd", "a1a3")):
        assert line.startswith(f"InvariantViolation: {family} table disagrees"), line
