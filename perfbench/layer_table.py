"""Per-layer baseline table: one fresh interpreter times each layer on a
fixed grid of fields, for the quarters row at the trace-sum precision.

    python3 perfbench/layer_table.py

Columns: field construction (first build_field), the p-adic gamma table,
the first evaluate_G (kernel passes 1-2 included) and a repeat at a new
argument, the Teichmuller lift, and count_points for one Legendre curve.
Repeats are medians of REPEATS runs; first-time figures are one run.
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from padic_hg import ffield, gfunc, padic  # noqa: E402
from padic_hg.frobtrace import BOT_QUARTERS, TOP4  # noqa: E402

GRID = ((11, 3), (13, 3), (7, 4), (101, 2))
REPEATS = 5


def _ms(fn):
    start = time.perf_counter()
    fn()
    return 1000 * (time.perf_counter() - start)


def _median_ms(fns):
    return statistics.median(_ms(fn) for fn in fns)


def row(p, r):
    field_ms = _ms(lambda: ffield.build_field(p, r))
    field = ffield.build_field(p, r)
    q = field.q
    bound = gfunc.trace_bound(q)
    n = gfunc.choose_precision(q, bound)
    ctx = padic.PadicCtx(field, n)
    gamma_ms = _median_ms(padic.PadicCtx(field, n).warm_gamma_table for _ in range(REPEATS))
    args = [field.elem(4 + 7 * k) for k in range(REPEATS + 1)]

    def g(t):
        return lambda: gfunc.evaluate_G(gfunc.GParams(TOP4, BOT_QUARTERS, t), field, ctx, bound)

    first_ms = _ms(g(args[0]))
    repeat_ms = _median_ms(g(t) for t in args[1:])
    teich_ms = _median_ms((lambda t=t: padic.teichmuller(t, ctx)) for t in args[1:])
    curves = [ffield.CurveSpec.legendre(field.elem(5 + k)) for k in range(3)]
    count_ms = _median_ms((lambda c=c: ffield.count_points(c, field)) for c in curves)
    return (f"| {p}^{r} | {n} | {field_ms:.1f} | {gamma_ms:.2f} | {first_ms:.1f} | "
            f"{repeat_ms:.1f} | {teich_ms:.2f} | {count_ms:.1f} |")


def main():
    print("| q | N | field ms | gamma table ms | first evaluate_G ms | "
          "repeat evaluate_G ms | Teichmuller ms | count_points ms |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for p, r in GRID:
        print(row(p, r), flush=True)


if __name__ == "__main__":
    main()
