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

from . import charsum, frobtrace, gfunc, padic
from .errors import HypothesisViolation, NotPrime, PadicHGError, SingularCurve
from .ffield import (
    CurveSpec,
    build_field,
    count_points,
    family_traces,
    quad_char,
    trace_of_frobenius,
)
from .gfunc import GParams, PadicCtx, choose_precision, evaluate_G, trace_bound

PAIR_SUITES = frobtrace.PAIR_THEOREMS
RATIONAL_SUITES = tuple(frobtrace.RATIONAL_THEOREMS)
SUITES = PAIR_SUITES + RATIONAL_SUITES + (
    "corollary", "identity-splitting", "identity-reduction", "lemmas", "oracle",
)

# the only errors a suite may count as skipped instances; any other package
# error is an evaluator failure and fails the suite
SKIPPABLE = (HypothesisViolation, SingularCurve)

PRIMES = (5, 7, 11, 13, 17, 19, 23)


def _parse_rational(text):
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def _parse_rational_list(text):
    return tuple(_parse_rational(part) for part in text.split(","))


def _precision(text):
    """An --precision value: an integer N >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("precision N must be >= 1")
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
        for r in rows:
            writer.writerow(r)
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
    n_default = choose_precision(field.q, bound)
    n = max(n_default, args.precision) if args.precision else n_default
    ctx = PadicCtx(field, n)
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
    fam = args.family
    if fam == "legendre":
        return CurveSpec.legendre(_parse_field_elem(args.lam, field))
    if fam == "a1a3":
        return CurveSpec.a1a3(
            _parse_field_elem(args.a1, field), _parse_field_elem(args.a3, field)
        )
    if fam == "fg":
        return CurveSpec.fg(
            _parse_field_elem(args.f, field), _parse_field_elem(args.g, field)
        )
    if fam == "cd":
        return CurveSpec.cd(
            _parse_field_elem(args.c, field), _parse_field_elem(args.d, field)
        )
    vals = [
        _parse_field_elem(getattr(args, name), field)
        for name in ("a1", "a2", "a3", "a4", "a6")
    ]
    return CurveSpec.weierstrass(*vals)


def cmd_trace(args, fmt):
    field = build_field(args.p, args.r)
    curve = _curve_from_args(args, field)
    count = count_points(curve, field)
    trace = field.q + 1 - count
    payload = {
        "count": count,
        "trace": trace,
        "hasse_ok": trace * trace <= 4 * field.q,
    }
    _emit(payload, fmt)
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
        _emit(payload, fmt)
        return 0 if ok else 1
    else:  # greene
        x = _parse_field_elem(args.x, field)
        z = charsum.greene_F(
            tuple(int(v) for v in args.top.split(",")),
            tuple(int(v) for v in args.bottom.split(",")) if args.bottom else (),
            x, field,
        )
        payload = {"re": z.real, "im": z.imag}
    _emit(payload, fmt)
    return 0


# ---------------------------------------------------------------------------
# verification suites

def _pair_fields(pmax, rmax):
    for p in PRIMES:
        if p > pmax:
            break
        for r in range(1, rmax + 1):
            yield build_field(p, r)


def _suite_t13(pmax, rmax):
    rows = []
    for field in _pair_fields(pmax, rmax):
        for v in range(2, field.q):
            lam = field.elem(v)
            if lam == field.one or lam == -field.one:
                continue
            inst = frobtrace.TheoremInstance("t13", field, (lam,))
            lhs, rhs = frobtrace.trace_sum_pair(inst)
            rows.append({
                "suite": "t13", "q": field.q, "lambda": lam.encode(),
                "lhs": lhs, "rhs": rhs, "pass": lhs == rhs,
            })
    return rows


def _random_pair_params(name, field, rng, skipped):
    """A parameter pair satisfying the theorem's hypotheses, or None;
    each rejected draw is counted in skipped under its error class."""
    for _ in range(64):
        x = field.elem(rng.randrange(1, field.q))
        y = field.elem(rng.randrange(1, field.q))
        try:
            inst = frobtrace.TheoremInstance(name, field, (x, y))
            lhs, rhs = frobtrace.trace_sum_pair(inst)
            return inst, lhs, rhs
        except SKIPPABLE as exc:
            skipped[type(exc).__name__] += 1
    return None


def _suite_pairs_random(name, pmax, rmax, trials, rng, skipped):
    rows = []
    for field in _pair_fields(pmax, rmax):
        for _ in range(trials):
            got = _random_pair_params(name, field, rng, skipped)
            if got is None:
                continue
            inst, lhs, rhs = got
            rows.append(
                {
                    "suite": name, "q": field.q,
                    "params": ",".join(str(x.encode()) for x in inst.params),
                    "lhs": lhs, "rhs": rhs, "pass": lhs == rhs,
                }
            )
    return rows


def _suite_rational(name, pmax, rmax, skipped):
    rows = []
    theorem = frobtrace.RATIONAL_THEOREMS[name]
    for p in PRIMES:
        if p > pmax or not theorem.holds_at(p):
            continue
        for r in range(1, rmax + 1):
            for par in theorem.params:
                try:
                    predicted, counted = frobtrace.rational_curve_trace(name, p, r, par)
                except SKIPPABLE as exc:
                    skipped[type(exc).__name__] += 1
                    continue
                rows.append(
                    {
                        "suite": name, "p": p, "r": r, "param": str(par),
                        "lhs": counted, "rhs": predicted,
                        "pass": predicted == counted,
                    }
                )
    return rows


def _suite_corollary():
    rows = []
    for item in frobtrace.corollary_g_values():
        rows.append(
            {
                "suite": "corollary", "item": item["item"], "q": item["q"],
                "lhs": item["value"], "rhs": item["expected_from_counts"],
                "pass": item["ok"],
            }
        )
    return rows


def _suite_identity_splitting(trials, rng):
    rows = []
    denoms = (1, 2, 3, 4, 6)
    fields = [build_field(5, 2), build_field(7, 2), build_field(11, 2)]
    for i in range(trials):
        field = fields[i % len(fields)]
        ctx = PadicCtx(field, 3)
        while True:
            coeffs = []
            for _ in range(4):
                d = rng.choice(denoms)
                if d > 1 and (field.p % d == 0 or (field.q - 1) % d):
                    continue
                coeffs.append(Fraction(rng.randrange(d), d))
            if len(coeffs) == 4:
                break
        x = field.elem(rng.randrange(1, field.q))
        ok = gfunc.check_splitting_identity(*coeffs, x, field, ctx)
        rows.append(
            {
                "suite": "identity-splitting", "q": field.q,
                "params": ",".join(str(c) for c in coeffs), "x": x.encode(),
                "pass": ok,
            }
        )
    return rows


def _suite_identity_reduction(trials, rng):
    rows = []
    # d = 2 is excluded: the appended-pair reduction fails there (the
    # summation grid hits 1/d exactly when d divides p-1)
    cases = [(5, 3), (5, 6), (7, 4), (11, 4), (11, 12)]
    denoms = (1, 2, 3, 4, 6, 8, 12)
    for p, d in cases:
        field = build_field(p, 1)
        for _ in range(max(1, trials // len(cases))):
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
            ok = gfunc.check_reduction_identity(tops, bots, d, t, p)
            rows.append(
                {
                    "suite": "identity-reduction", "p": p, "d": d,
                    "top": ",".join(map(str, tops)), "bottom": ",".join(map(str, bots)),
                    "pass": ok,
                }
            )
    return rows


def _suite_lemmas():
    rows = []
    fields = [build_field(5, 2), build_field(3, 3), build_field(7, 2), build_field(11, 2)]

    def add(name, q, ok):
        rows.append({"suite": "lemmas", "check": name, "q": q, "pass": ok})

    for field in fields:
        q = field.q
        ctx = PadicCtx(field, 3)
        add("reflection", q, all(
            padic.reflection_check(Fraction(k, q - 1), ctx) for k in range(q - 1)
        ))
        add("product-formula", q, all(
            padic.product_formula_check(Fraction(k, q - 1), m, ctx, field)
            for m in (1, 2, 3, 4, 6) if m % field.p
            for k in range(0, q - 1, max(1, (q - 1) // 24))
        ))
        add("downshift", q, all(
            padic.gamma_product_downshift_check(t, a, ctx, field)
            for t in (2, 3, 4, 6) if t % field.p
            for a in range(q - 1)
        ))
        add("upshift", q, all(
            padic.gamma_product_upshift_check(t, a, ctx, field)
            for t in (2, 3, 4, 6) if t % field.p
            for a in range(q - 1)
        ))
        add("complement", q, all(
            padic.gamma_complement_product_check(a, ctx) for a in range(1, q - 1)
        ))
        add("half-shift", q, all(
            padic.gamma_half_shift_check(a, ctx)
            for a in range(q - 1) if a != (q - 1) // 2
        ))
        add("floor-negative-multiple", q, all(
            padic.floor_negative_multiple_check(d, a, i, field.p, q)
            for d in (2, 3, 4, 6, 8, 12) if d % field.p
            for a in range(1, q - 1) for i in range(field.r)
        ))
        add("floor-positive-multiple", q, all(
            padic.floor_positive_multiple_check(L, a, i, field.p, q)
            for L in (2, 3, 4, 6, 8, 12) if L % field.p
            for a in range(q - 1) for i in range(field.r)
        ))
        add("floor-halving", q, all(
            padic.floor_halving_check(Fraction(m, d), j, i, field.p, q)
            for d in (2, 3, 4, 6, 8, 12) if d % field.p
            for m in range(d)
            for j in range(0, q - 1, max(1, (q - 1) // 40))
            for i in range(field.r)
        ))
        if q % 4 == 1:
            add("quarter-product", q, all(
                padic.quarter_gamma_product_check(n, ctx)
                for n in range(q - 1)
                if n not in ((q - 1) // 4, 3 * (q - 1) // 4)
            ))
    for p, d in ((11, 4), (11, 12), (5, 3), (5, 6), (7, 4)):
        ctx = PadicCtx(build_field(p, 1), 3)
        add(f"dth-root d={d}", p, all(
            padic.dth_root_gamma_quotient_check(d, n, ctx) for n in range(p - 1)
        ))
    return rows


def _suite_oracle():
    rows = []

    def add(name, q, ok):
        rows.append({"suite": "oracle", "check": name, "q": q, "pass": ok})

    for p, r in ((13, 1), (5, 2)):
        field = build_field(p, r)
        q = field.q
        ok = all(
            abs(
                charsum.gauss_sum(k, field) * charsum.gauss_sum(-k, field)
                - q * (-1) ** k
            ) <= 1e-6 * q
            for k in range(1, q - 1)
        )
        add("conjugate-product", q, ok)
        add("davenport-hasse", q, all(
            charsum.davenport_hasse_check(m, s, field)
            for m in (2, 3, 4, 6) for s in range(q - 1)
        ))
        phi = (q - 1) // 2
        ok = True
        for v in range(2, q):
            lam = field.elem(v)
            if lam == field.one or lam == -field.one:
                continue
            z = -q * quad_char(field.from_int(-1)) * charsum.greene_F(
                (phi, phi), (0,), lam, field
            )
            aq = trace_of_frobenius(CurveSpec.legendre(lam), field)
            if abs(z.real - aq) > 1e-4 or abs(z.imag) > 1e-4:
                ok = False
                break
        add("koike-bridge", q, ok)
    for p, r in ((5, 2), (3, 3)):
        field = build_field(p, r)
        ctx = PadicCtx(field, 3)
        q = field.q
        ok = all(
            charsum.gross_koblitz_jacobi_check(a, b, field, ctx)
            for a in range(1, q - 1) for b in range(1, q - 1)
            if (a + b) % (q - 1)
        )
        add("gross-koblitz-jacobi", q, ok)
    return rows


def _effective_range(suite, pmax, rmax):
    """The pmax and rmax a ranged suite actually runs, or None for a suite
    that takes no range: the pair suites stop at q = 13^2, the rational
    ones at r = 3, and no suite has primes above PRIMES[-1]."""
    if suite in PAIR_SUITES:
        return {"pmax": min(pmax, 13), "rmax": min(rmax, 2)}
    if suite in RATIONAL_SUITES:
        return {"pmax": min(pmax, PRIMES[-1]), "rmax": min(rmax, 3)}
    return None


def _cache_infos():
    return {
        "build_field": build_field.cache_info(),
        "gamma_steps": padic._gamma_steps.cache_info(),
        "teichmuller_tables": padic._teich_table.cache_info(),
        "family_traces": family_traces.cache_info(),
    }


def _cache_activity(before):
    """Hits and misses of the shared caches since before, plus the number
    of G-function kernels held."""
    activity = {
        name: {
            "hits": info.hits - before[name].hits,
            "misses": info.misses - before[name].misses,
        }
        for name, info in _cache_infos().items()
    }
    activity["kernels"] = len(gfunc._KERNELS)
    return activity


def cmd_verify(args, fmt):
    rng = random.Random(args.seed)
    suite = args.suite
    skipped = Counter()
    used = _effective_range(suite, args.pmax, args.rmax)
    payload = {"suite": suite, "range": used}
    caches_before = _cache_infos()
    try:
        if suite == "t13":
            rows = _suite_t13(used["pmax"], used["rmax"])
        elif suite in PAIR_SUITES:
            rows = _suite_pairs_random(
                suite, used["pmax"], used["rmax"], args.trials, rng, skipped
            )
        elif suite in RATIONAL_SUITES:
            rows = _suite_rational(suite, used["pmax"], used["rmax"], skipped)
        elif suite == "corollary":
            rows = _suite_corollary()
        elif suite == "identity-splitting":
            rows = _suite_identity_splitting(args.trials, rng)
        elif suite == "identity-reduction":
            rows = _suite_identity_reduction(args.trials, rng)
        elif suite == "lemmas":
            rows = _suite_lemmas()
        else:
            rows = _suite_oracle()
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
    parser.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        # SUPPRESS keeps a pre-subcommand --format from being clobbered
        # by the subparser's default
        sp.add_argument(
            "--format", choices=("json", "csv", "plain"), default=argparse.SUPPRESS
        )

    pe = sub.add_parser("eval-g", help="evaluate a G-function value")
    add_format(pe)
    pe.add_argument("--p", type=int, required=True)
    pe.add_argument("--r", type=int, default=1)
    pe.add_argument("--top", required=True)
    pe.add_argument("--bottom", required=True)
    pe.add_argument("--t", required=True)
    pe.add_argument("--precision", type=_precision)
    pe.add_argument("--bound", type=int)

    pt = sub.add_parser("trace", help="count points / trace of Frobenius")
    add_format(pt)
    pt.add_argument("--family", choices=("legendre", "a1a3", "fg", "cd", "weierstrass"),
                    required=True)
    pt.add_argument("--p", type=int, required=True)
    pt.add_argument("--r", type=int, default=1)
    pt.add_argument("--lambda", dest="lam")
    for name in ("a1", "a2", "a3", "a4", "a6", "f", "g", "c", "d"):
        pt.add_argument(f"--{name}")

    pv = sub.add_parser("verify", help="run a verification suite")
    add_format(pv)
    pv.add_argument("--suite", choices=SUITES, required=True)
    pv.add_argument("--pmax", type=int, default=23)
    pv.add_argument("--rmax", type=int, default=2)
    pv.add_argument("--trials", type=int, default=30)
    pv.add_argument("--seed", type=int, default=0)

    po = sub.add_parser("oracle", help="query a character-sum oracle")
    add_format(po)
    po.add_argument("kind", choices=("gauss", "jacobi", "dh", "greene"))
    po.add_argument("--p", type=int, required=True)
    po.add_argument("--r", type=int, default=1)
    po.add_argument("--k", type=int, default=0)
    po.add_argument("--a", type=int, default=0)
    po.add_argument("--b", type=int, default=0)
    po.add_argument("--m", type=int, default=2)
    po.add_argument("--psi", type=int)
    po.add_argument("--padic", action="store_true")
    po.add_argument("--precision", type=_precision)
    po.add_argument("--top")
    po.add_argument("--bottom")
    po.add_argument("--x", default="1")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.command == "eval-g":
            return cmd_eval_g(args, args.format)
        if args.command == "trace":
            return cmd_trace(args, args.format)
        if args.command == "verify":
            return cmd_verify(args, args.format)
        return cmd_oracle(args, args.format)
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
