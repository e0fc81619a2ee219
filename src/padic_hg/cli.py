"""Command-line surface: evaluate G-functions, count points, run the
verification suites, and query the character-sum oracles.

Exit codes: 0 success / all pass, 1 verification failure (including an
evaluator error inside a verify suite), 2 usage error, 3 mathematical
error (the error class name is in the payload).
"""

import argparse
import csv
import io
import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction

from . import charsum, ffield, frobtrace, gfunc, padic
from .errors import HypothesisViolation, NotPrime, PadicHGError, SingularCurve
from .ffield import (
    CurveSpec,
    build_field,
    count_points,
    family_traces,
)
from .gfunc import GParams, PadicCtx, choose_precision, evaluate_G, trace_bound

# the only errors a suite may count as skipped instances; any other package
# error is an evaluator failure and fails the suite
SKIPPABLE = (HypothesisViolation, SingularCurve)

PRIMES = (5, 7, 11, 13, 17, 19, 23)

FORMATS = ("json", "csv", "plain")

def _parse_rational(text):
    num, slash, den = text.partition("/")
    den = int(den) if slash else 1
    if den == 0:
        raise ValueError(f"{text!r} has a zero denominator")
    return Fraction(int(num), den)


def _parse_rational_list(text):
    return tuple(_parse_rational(part) for part in text.split(","))


def _at_least_one(text):
    """An --precision, --trials or --m value: an integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1")
    return n


def _parse_field_elem(text, field):
    """Either an encoding 0..q-1 (base-p digits) or a rational num/den."""
    if "/" in text:
        return field.from_rational(_parse_rational(text))
    v = int(text)
    if 0 <= v < field.q:
        return field.elem(v)
    return field.from_int(v)


def _emit(payload, fmt):
    if fmt == "json":
        print(json.dumps(payload, indent=2, default=str))
    elif fmt == "csv":
        rows = payload.get("instances") or [payload]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=sorted({k for r in rows for k in r}))
        writer.writeheader()
        writer.writerows(rows)
        print(buf.getvalue(), end="")
    else:
        def flat(obj, prefix=""):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    yield from flat(v, f"{prefix}{k}.")
            elif isinstance(obj, list):
                for i, v in enumerate(obj):
                    yield from flat(v, f"{prefix}{i}.")
            else:
                yield f"{prefix.rstrip('.')}={obj}"
        print("\n".join(flat(payload)))


# ---------------------------------------------------------------------------
# single-shot commands

def cmd_eval_g(args, fmt):
    field = build_field(args.p, args.r)
    bound = args.bound if args.bound is not None else trace_bound(field.q)
    # --precision can raise the default precision, never lower it
    ctx = PadicCtx(field, max(choose_precision(field.q, bound), args.precision or 1))
    t = _parse_field_elem(args.t, field)
    started = time.perf_counter()
    value = evaluate_G(
        GParams(_parse_rational_list(args.top), _parse_rational_list(args.bottom), t),
        field, ctx, bound=bound,
    )
    payload = {
        "padic_value": value.padic.value,
        "precision": value.precision,
        "integer": value.integer,
        "elapsed_ms": round(1000 * (time.perf_counter() - started), 3),
    }
    _emit(payload, fmt)
    return 0


def _curve_from_args(args, field):
    names = ffield.FAMILIES[args.family].coords
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(f"--family {args.family} needs {' '.join(missing)}")
    coords = (_parse_field_elem(getattr(args, name), field) for name in names)
    return CurveSpec.of(args.family, *coords)


def cmd_trace(args, fmt):
    field = build_field(args.p, args.r)
    curve = _curve_from_args(args, field)
    count = count_points(curve, field)
    trace = field.q + 1 - count
    _emit({"count": count, "trace": trace, "hasse_ok": trace * trace <= 4 * field.q}, fmt)
    return 0


def cmd_oracle(args, fmt):
    field = build_field(args.p, args.r)
    if args.kind == "gauss":
        z = charsum.gauss_sum(args.k, field)
        payload = {"re": z.real, "im": z.imag, "abs": abs(z)}
    elif args.kind == "jacobi":
        if args.padic:
            ctx = PadicCtx(field, args.precision or 3)
            val = charsum.jacobi_sum_padic(args.a, args.b, field, ctx)
            payload = {"coeffs": list(val), "modulus": ctx.pN}
        else:
            z = charsum.jacobi_sum_complex(args.a, args.b, field)
            payload = {"re": z.real, "im": z.imag, "abs": abs(z)}
    elif args.kind == "dh":
        psis = [args.psi] if args.psi is not None else list(range(field.q - 1))
        ok = all(charsum.davenport_hasse_check(args.m, s, field) for s in psis)
        payload = {"m": args.m, "checked": len(psis), "ok": ok}
    else:  # greene
        if args.top is None:
            raise ValueError("oracle greene needs --top")
        x = _parse_field_elem(args.x, field)
        z = charsum.greene_F(
            tuple(int(v) for v in args.top.split(",")),
            tuple(int(v) for v in args.bottom.split(",")) if args.bottom else (),
            x, field,
        )
        payload = {"re": z.real, "im": z.imag}
    _emit(payload, fmt)
    return 0 if payload.get("ok", True) else 1


# ---------------------------------------------------------------------------
# verification suites: each case generator yields (labels, result) per
# instance, result a pass flag or an exact (lhs, rhs) pair

def _suite_primes(suite, pmax):
    """The primes up to pmax that a range suite runs at: those of PRIMES
    where its theorem holds (every one for a pair theorem)."""
    theorem = frobtrace.RATIONAL_THEOREMS.get(suite)
    return [p for p in PRIMES if p <= pmax and (theorem is None or theorem.holds_at(p))]


def _pair_fields(suite, pmax, rmax):
    primes = _suite_primes(suite, pmax)
    return (build_field(p, r) for p in primes for r in range(1, rmax + 1))


def _pair_cases(suite, pmax, rmax, skipped, **_):
    """Every member m in F_q^x of the formula's family: t13 at lambda = m,
    the others at (1, m), whose twists cover every parameter pair.  Each
    instance outside the hypotheses or at a singular member is counted in
    skipped under its error class."""
    family = ffield.FAMILIES[frobtrace.PAIR_FORMULAS[suite].family]
    for field in _pair_fields(suite, pmax, rmax):
        for m in map(field.elem, range(1, field.q)):
            params = family.member(m, field)
            if len(params) == 1:  # labelled by the coordinate's name
                labels = {"q": field.q, family.coords[0]: m.enc}
            else:
                labels = {"q": field.q, "params": ",".join(str(x.enc) for x in params)}
            try:
                sides = frobtrace.trace_sum_pair(
                    frobtrace.TheoremInstance(suite, field, params)
                )
            except SKIPPABLE as exc:
                skipped[type(exc).__name__] += 1
            else:
                yield labels, sides


def _rational_cases(suite, pmax, rmax, skipped, **_):
    for p in _suite_primes(suite, pmax):
        for r in range(1, rmax + 1):
            for par in frobtrace.RATIONAL_THEOREMS[suite].params:
                try:
                    predicted, counted = frobtrace.rational_curve_trace(suite, p, r, par)
                except SKIPPABLE as exc:
                    skipped[type(exc).__name__] += 1
                else:
                    yield {"p": p, "r": r, "param": str(par)}, (counted, predicted)


def _corollary_cases(**_):
    for item in frobtrace.corollary_g_values():
        labels = {"item": item["item"], "q": item["q"]}
        yield labels, (item["value"], item["expected_from_counts"])


def _splitting_cases(trials, rng, **_):
    denoms = (1, 2, 3, 4, 6)
    fields = [build_field(5, 2), build_field(7, 2), build_field(11, 2)]
    for i in range(trials):
        field = fields[i % len(fields)]
        ctx = PadicCtx(field, 3)
        coeffs = []
        while len(coeffs) < 4:  # all four redrawn until every denominator fits q
            coeffs = []
            for _ in range(4):
                d = rng.choice(denoms)
                if d == 1 or (field.p % d and (field.q - 1) % d == 0):
                    coeffs.append(Fraction(rng.randrange(d), d))
        x = field.elem(rng.randrange(1, field.q))
        labels = {"q": field.q, "params": ",".join(str(c) for c in coeffs), "x": x.encode()}
        yield labels, gfunc.check_splitting_identity(*coeffs, x, field, ctx)


def _reduction_cases(trials, rng, **_):
    # d = 2 is excluded: the appended-pair reduction fails there (the
    # summation grid hits 1/d exactly when d divides p-1)
    cases = [(5, 3), (5, 6), (7, 4), (11, 4), (11, 12)]
    denoms = (1, 2, 3, 4, 6, 8, 12)
    for p, d in cases:
        field = build_field(p, 1)

        def draw(n):
            coeffs = []
            while len(coeffs) < n:
                dd = rng.choice(denoms)
                if dd % p:
                    coeffs.append(Fraction(rng.randrange(dd), dd))
            return coeffs

        for _ in range(max(1, trials // len(cases))):
            n = rng.choice((1, 2))
            tops, bots = draw(n), draw(n)
            t = field.elem(rng.randrange(1, p))
            labels = {"p": p, "d": d, "top": ",".join(map(str, tops)),
                      "bottom": ",".join(map(str, bots))}
            yield labels, gfunc.check_reduction_identity(tops, bots, d, t, p)


def _checked(field, checks):
    """One case per (check name, checker, argument tuples) over field: it
    passes when the checker holds at every argument tuple."""
    for name, checker, arg_tuples in checks:
        yield {"check": name, "q": field.q}, all(checker(*a) for a in arg_tuples)


def _lemma_checks(field):
    p, r, q = field.p, field.r, field.q
    ctx = PadicCtx(field, 3)
    shifts = [t for t in (2, 3, 4, 6) if t % p]
    denoms = [d for d in (2, 3, 4, 6, 8, 12) if d % p]
    checks = [
        ("reflection", padic.reflection_check,
         ((Fraction(k, q - 1), ctx) for k in range(q - 1))),
        ("product-formula", padic.product_formula_check,
         ((Fraction(k, q - 1), m, ctx, field)
          for m in (1, 2, 3, 4, 6) if m % p
          for k in range(0, q - 1, max(1, (q - 1) // 24)))),
        ("downshift", padic.gamma_product_downshift_check,
         ((t, a, ctx, field) for t in shifts for a in range(q - 1))),
        ("upshift", padic.gamma_product_upshift_check,
         ((t, a, ctx, field) for t in shifts for a in range(q - 1))),
        ("complement", padic.gamma_complement_product_check,
         ((a, ctx) for a in range(1, q - 1))),
        ("half-shift", padic.gamma_half_shift_check,
         ((a, ctx) for a in range(q - 1) if a != (q - 1) // 2)),
        ("floor-negative-multiple", padic.floor_negative_multiple_check,
         ((d, a, i, p, q) for d in denoms for a in range(1, q - 1) for i in range(r))),
        ("floor-positive-multiple", padic.floor_positive_multiple_check,
         ((L, a, i, p, q) for L in denoms for a in range(q - 1) for i in range(r))),
        ("floor-halving", padic.floor_halving_check,
         ((Fraction(m, d), j, i, p, q)
          for d in denoms for m in range(d)
          for j in range(0, q - 1, max(1, (q - 1) // 40))
          for i in range(r))),
    ]
    if q % 4 == 1:
        checks.append(("quarter-product", padic.quarter_gamma_product_check, (
            (n, ctx) for n in range(q - 1) if n not in ((q - 1) // 4, 3 * (q - 1) // 4)
        )))
    return checks


def _lemma_cases(**_):
    for p, r in ((5, 2), (3, 3), (7, 2), (11, 2)):
        field = build_field(p, r)
        yield from _checked(field, _lemma_checks(field))
    for p, d in ((11, 4), (11, 12), (5, 3), (5, 6), (7, 4)):
        field = build_field(p, 1)
        ctx = PadicCtx(field, 3)
        yield from _checked(field, [(
            f"dth-root d={d}", padic.dth_root_gamma_quotient_check,
            ((d, n, ctx) for n in range(p - 1)),
        )])


def _oracle_checks(field):
    q = field.q
    return [
        ("conjugate-product", charsum.conjugate_product_check,
         ((k, field) for k in range(1, q - 1))),
        ("davenport-hasse", charsum.davenport_hasse_check,
         ((m, s, field) for m in (2, 3, 4, 6) for s in range(q - 1))),
        # every lambda outside {0, 1}: the Legendre curve at -1 is nonsingular
        ("koike-bridge", charsum.koike_bridge_check,
         ((field.elem(v), field) for v in range(2, q))),
    ]


def _oracle_cases(**_):
    for p, r in ((13, 1), (5, 2)):
        field = build_field(p, r)
        yield from _checked(field, _oracle_checks(field))
    for p, r in ((5, 2), (3, 3)):
        field = build_field(p, r)
        ctx = PadicCtx(field, 3)
        units = range(1, field.q - 1)
        yield from _checked(field, [(
            "gross-koblitz-jacobi", charsum.gross_koblitz_jacobi_check,
            ((a, b, field, ctx) for a in units for b in units if (a + b) % (field.q - 1)),
        )])


# suite -> (case generator, (pmax, rmax) cap or None for a suite that takes
# no range): the pair suites stop at q = 13^2, the rational ones at r = 3
SUITES = {
    **{name: (_pair_cases, (13, 2)) for name in frobtrace.PAIR_THEOREMS},
    **{name: (_rational_cases, (PRIMES[-1], 3)) for name in frobtrace.RATIONAL_THEOREMS},
    "corollary": (_corollary_cases, None),
    "identity-splitting": (_splitting_cases, None),
    "identity-reduction": (_reduction_cases, None),
    "lemmas": (_lemma_cases, None),
    "oracle": (_oracle_cases, None),
}


def _cache_infos():
    return {
        "build_field": build_field.cache_info(),
        "gamma_steps": padic._gamma_steps.cache_info(),
        "rings": padic._ring.cache_info(),
        "family_traces": family_traces.cache_info(),
        "pair_setups": frobtrace._pair_setup.cache_info(),
    }


def _cache_activity(before):
    """Hits and misses of the shared caches since before, plus the number
    of G-function kernels held and of those whose rows are Frobenius-closed,
    which keep one term per orbit, decided when each kernel is built."""
    activity = {
        name: {
            "hits": info.hits - before[name].hits,
            "misses": info.misses - before[name].misses,
        }
        for name, info in _cache_infos().items()
    }
    activity["kernels"] = len(gfunc._KERNELS)
    activity["stable_kernels"] = sum(k.closed for k in gfunc._KERNELS.values())
    return activity


def cmd_verify(args, fmt):
    suite = args.suite
    cases, cap = SUITES[suite]
    used = cap and {"pmax": min(args.pmax, cap[0]), "rmax": min(args.rmax, cap[1])}
    if used and used["rmax"] < 1:
        raise ValueError(f"--rmax {args.rmax} selects no field")
    if used and not _suite_primes(suite, used["pmax"]):
        raise ValueError(f"--pmax {args.pmax} selects no prime of suite {suite}")
    skipped = Counter()
    payload = {"suite": suite, "range": used}
    caches_before = _cache_infos()
    rows = []
    try:
        for labels, result in cases(
            suite=suite, trials=args.trials, rng=random.Random(args.seed),
            skipped=skipped, **(used or {}),
        ):
            row = {"suite": suite, **labels}
            if isinstance(result, tuple):
                row["lhs"], row["rhs"] = result
                result = row["lhs"] == row["rhs"]
            rows.append({**row, "pass": result})
    except PadicHGError as exc:
        # an evaluator error fails the suite: only SKIPPABLE errors are skips
        rows = []
        payload.update(error=type(exc).__name__, message=str(exc))
    else:
        payload.update(
            instances=rows, total=len(rows), failed=sum(not r["pass"] for r in rows)
        )
    payload["skipped"] = {
        "total": sum(skipped.values()), "by_class": dict(sorted(skipped.items())),
    }
    payload["caches"] = _cache_activity(caches_before)
    _emit(payload, fmt)
    return 0 if rows and all(r["pass"] for r in rows) else 1


# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="padic-hg",
        description="Exact p-adic hypergeometric G-function evaluation and "
        "elliptic-curve trace verification",
    )
    parser.add_argument("--format", choices=FORMATS, default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    pe, pt, pv, po = (
        sub.add_parser(name, help=text) for name, (_, text) in COMMANDS.items()
    )
    for sp in (pe, pt, pv, po):
        # SUPPRESS keeps a pre-subcommand --format from being clobbered
        # by the subparser's default
        sp.add_argument("--format", choices=FORMATS, default=argparse.SUPPRESS)
        if sp is not pv:
            sp.add_argument("--p", type=int, required=True)
            sp.add_argument("--r", type=int, default=1)

    pe.add_argument("--top", required=True)
    pe.add_argument("--bottom", required=True)
    pe.add_argument("--t", required=True)
    pe.add_argument("--precision", type=_at_least_one)
    pe.add_argument("--bound", type=int)

    pt.add_argument("--family", choices=ffield.FAMILIES, required=True)
    for name in sorted({name for family in ffield.FAMILIES.values() for name in family.coords}):
        pt.add_argument(f"--{name}")

    pv.add_argument("--suite", choices=SUITES, required=True)
    pv.add_argument("--pmax", type=int, default=23)
    pv.add_argument("--rmax", type=int, default=2)
    pv.add_argument("--trials", type=_at_least_one, default=30,
                    help="instances of identity-splitting and identity-reduction")
    pv.add_argument("--seed", type=int, default=0,
                    help="seed of the identity-splitting and identity-reduction draws")

    po.add_argument("kind", choices=("gauss", "jacobi", "dh", "greene"))
    po.add_argument("--k", type=int, default=0)
    po.add_argument("--a", type=int, default=0)
    po.add_argument("--b", type=int, default=0)
    po.add_argument("--m", type=_at_least_one, default=2)
    po.add_argument("--psi", type=int)
    po.add_argument("--padic", action="store_true")
    po.add_argument("--precision", type=_at_least_one)
    po.add_argument("--top")
    po.add_argument("--bottom")
    po.add_argument("--x", default="1")
    return parser


COMMANDS = {
    "eval-g": (cmd_eval_g, "evaluate a G-function value"),
    "trace": (cmd_trace, "count points / trace of Frobenius"),
    "verify": (cmd_verify, "run a verification suite"),
    "oracle": (cmd_oracle, "query a character-sum oracle"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return COMMANDS[args.command][0](args, args.format)
    except NotPrime as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, args.format)
        return 2
    except PadicHGError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, args.format)
        return 3
    except ValueError as exc:
        _emit({"error": "UsageError", "message": str(exc)}, args.format)
        return 2


if __name__ == "__main__":
    sys.exit(main())
