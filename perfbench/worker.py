"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD --seed N [--setup-only] [--skip I,J]
        [--spans PATH]

It times `import padic_hg` plus the workload's setup, builds the seeded
items, attempts each item exactly once, checks every output, and prints one
JSON object as its last line.  Every item runs once per interpreter, so
whatever the program caches across items is paid for in this pass and
carried into no other.  run.py starts it; it is not meant to be run by hand.
"""

import time

T_START = time.perf_counter()  # before the package import, which setup_s includes

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
DEADLINE_S = 2.0  # per item; the slowest item under GAMMA_TABLE_CAP takes ~0.7 s


class Deadline(Exception):
    """An item ran past its deadline and was stopped."""


def _on_alarm(signum, frame):
    raise Deadline()


@dataclass(frozen=True, repr=False)
class Failed:
    """Output of an item that raised, by error class."""

    cls: str

    def __repr__(self):
        return f"!{self.cls}"


def run_items(items, deadline=DEADLINE_S, skip=frozenset(), between=None, recorder=None):
    """Attempt every item once, in order, each under a SIGALRM deadline in
    this thread, so no thread or process is started.  Items whose index is
    in `skip` are not attempted.

    Returns (outputs, seconds per item, wall seconds of the timed phase).
    A failed item's output is a Failed and its time is its elapsed time; a
    skipped item's output and time are None.
    """
    outs, took = [], []
    clock = time.perf_counter
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = clock()
    try:
        for i, item in enumerate(items):
            if i in skip:
                outs.append(None)
                took.append(None)
                continue
            if recorder is not None:
                recorder.item = i
            start = clock()
            try:
                signal.setitimer(signal.ITIMER_REAL, deadline)
                try:
                    out = item.call()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Deadline:
                out = Failed("Deadline")
            except Exception as exc:  # every failure counts, by class
                out = Failed(type(exc).__name__)
            took.append(clock() - start)
            outs.append(out)
            if between is not None:
                between()
        wall = clock() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return outs, took, wall


def summarize(items, outs):
    """Check every output, name each item's failure class (None if it
    passed or was skipped), count failures by class, and digest the outputs
    keyed by item label."""
    item_fail = [None] * len(items)
    digest = hashlib.sha256()
    for i in sorted(range(len(items)), key=lambda k: items[k].label):
        out = outs[i]
        if out is None:
            continue
        digest.update(f"{items[i].label}\t{out!r}\n".encode())
        if isinstance(out, Failed):
            item_fail[i] = out.cls
        elif not items[i].check(out):
            item_fail[i] = "WrongResult"
    failures = {}
    for cls in filter(None, item_fail):
        failures[cls] = failures.get(cls, 0) + 1
    return {
        "attempted": sum(out is not None for out in outs),
        "failed": sum(failures.values()),
        "failures": dict(sorted(failures.items())),
        # an item that ran out of time gave no output; any other failure is wrong
        "correct": all(cls == "Deadline" for cls in failures),
        "digest": digest.hexdigest(),
        "item_fail": item_fail,
    }


def _drop_kernels(gfunc):
    """Empty the evaluator's kernel cache so the next item builds its own.

    Fails loudly if the cache is gone: without it, items would silently
    reuse warm kernels and the benchmark must be updated on purpose.
    """
    cache = getattr(gfunc, "_KERNELS", None)
    if not callable(getattr(cache, "clear", None)):
        sys.exit("worker: padic_hg.gfunc._KERNELS is gone; update the row-scan workload")
    return cache.clear


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--skip", default="", help="comma-separated item indexes not to attempt")
    parser.add_argument("--spans", help="trace the pass and write its spans here")
    args = parser.parse_args(argv)

    if not (SRC / "padic_hg" / "__init__.py").is_file():
        sys.exit(f"worker: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import padic_hg
    from padic_hg import charsum, ffield, frobtrace, gfunc, padic
    t_import = time.perf_counter()

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    recorder = None
    if args.spans:
        import tracing

        recorder = tracing.Recorder()
        try:
            recorder.install({"padic_hg": padic_hg, "ffield": ffield, "padic": padic,
                              "gfunc": gfunc, "charsum": charsum, "frobtrace": frobtrace})
        except tracing.MissingTarget as exc:
            sys.exit(f"worker: {exc}")
        recorder.active = True
    t_setup = time.perf_counter()
    state = workload.setup()
    setup_s = (t_import - T_START) + (time.perf_counter() - t_setup)
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if recorder:
            recorder.active = False
        items = workload.items(args.seed, state)
        between = _drop_kernels(gfunc) if workload.fresh_kernels else None
        if recorder:
            recorder.active = True
        skip = {int(i) for i in args.skip.split(",") if i}
        outs, took, wall = run_items(items, skip=skip, between=between, recorder=recorder)
        if recorder:
            recorder.active = False
        result.update(summarize(items, outs))
        result.update(item_s=took, wall_s=wall)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder:
        result["layers"] = recorder.metrics()
        recorder.write(args.spans, T_START)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
