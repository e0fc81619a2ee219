"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Every measurement is one pass over the
seeded items in a fresh interpreter (worker.py), one thread,
PADIC_HG_THREADS=1, so no cache of the program carries from one pass into
another.  A run starts such interpreters one after another, with the same
seed, until the next would end after S seconds.

--trace 0 prints the end-to-end metrics.  An item's time is its fastest
pass, and items_per_s is per second of the items' fastest times: the pass
as the quietest moments of the host would have run it.  An item that ran
past its deadline is not attempted again in the run.  setup_s is the
fastest set-up of the run's interpreters: SETUP_SAMPLES set-up-only ones
first, one more before each pass, and the measuring ones, so that the
samples span the run.

--trace 1 prints the per-layer metrics: the per-layer baseline table
(layer_table.py), then pairs of an untraced and a traced pass, the
traced one first in every other pair.  Layer metrics are medians over the
traced passes; the last traced pass writes its spans to perfbench/out/.
trace_overhead_ratio is the sum of the items' fastest traced times over
that of their fastest untraced times.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 5  # set-up-only interpreters before the passes; one more precedes each pass
BUDGET_S = 170  # the whole run, all interpreters included
WORKLOADS = ("lambda-sweep", "t-sweep", "row-scan", "oracle-lemmas")


class WorkerError(RuntimeError):
    pass


def _env():
    env = dict(os.environ, PADIC_HG_THREADS="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def _spawn(script, args, deadline):
    """Run a Python script in a fresh interpreter; return its stdout lines."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("time budget spent")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / script), *args], cwd=ROOT, env=_env(),
            stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{script} ran past the time budget") from None
    if proc.returncode != 0:
        raise WorkerError(f"{script} exited with code {proc.returncode}")
    return proc.stdout.splitlines()


def _worker(workload, seed, deadline, *extra):
    lines = _spawn("worker.py", [workload, "--seed", str(seed), *extra], deadline)
    return json.loads(lines[-1])


def _passes(seconds, started, run_one, not_again=lambda result: 0.0):
    """Call run_one(results so far) until the next call would end after
    `seconds` from `started`, judged by the time the last call took less
    not_again(its result), the part the next call will skip; at least once."""
    out = []
    while True:
        before = time.monotonic()
        out.append(run_one(out))
        now = time.monotonic()
        if 2 * now - before - not_again(out[-1]) - started > seconds:
            return out


def _late_s(run):
    """Seconds a pass spent on items that ran past their deadline."""
    return sum(t for t, cls in zip(run["item_s"], run["item_fail"]) if cls == "Deadline")


def _skip_late(runs):
    """Worker arguments that skip every item that ran past its deadline in
    an earlier pass: it failed, and its time stays the deadline."""
    late = sorted({i for run in runs for i, cls in enumerate(run["item_fail"])
                   if cls == "Deadline"})
    return ["--skip", ",".join(map(str, late))] if late else []


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _fastest(runs):
    """Each item's fastest attempt over the passes, in seconds."""
    return [min(t for t in times if t is not None)
            for times in zip(*(run["item_s"] for run in runs))]


def end_to_end(runs, setups):
    """The six end-to-end metrics of one-pass runs with the same items.

    An item's time is its fastest attempt, and it failed if any attempt
    failed.  Set-up, like an item, counts at its fastest: a busy host only
    ever slows it down.
    """
    fastest = _fastest(runs)
    failed = {i for run in runs for i, cls in enumerate(run["item_fail"]) if cls}
    ms = sorted(1000 * t for t in fastest)
    return {
        "setup_s": _metric(min(setups), "s"),
        "items_per_s": _metric((len(fastest) - len(failed)) / sum(fastest), "1/s"),
        "item_ms_p50": _metric(statistics.median(ms), "ms"),
        "item_ms_p95": _metric(statistics.quantiles(ms, n=20)[-1] if len(ms) > 1 else ms[0],
                               "ms"),
        "pass_ratio": _metric(1 - len(failed) / len(fastest), "1"),
        "peak_rss_mib": _metric(statistics.median(run["peak_rss_mib"] for run in runs), "MiB"),
    }


def _pair(workload, seed, deadline, spans, traced_first):
    """An (untraced, traced) pair of passes, run in the order given."""
    traced = ("--spans", str(spans))
    if traced_first:
        return tuple(reversed((_worker(workload, seed, deadline, *traced),
                               _worker(workload, seed, deadline))))
    return _worker(workload, seed, deadline), _worker(workload, seed, deadline, *traced)


def per_layer(pairs):
    """Per-layer metrics from (untraced, traced) pairs of passes."""
    values = {name: statistics.median_low(traced["layers"][name] for _, traced in pairs)
              for name in pairs[0][1]["layers"]}
    plain, traced = zip(*pairs)
    values["trace_overhead_ratio"] = sum(_fastest(traced)) / sum(_fastest(plain))
    return {name: _metric(values[name], unit) for name, unit in tracing.metric_names().items()}


def _report(workload, seed, runs):
    failures = {}
    for run in runs:
        for cls, n in run["failures"].items():
            failures[cls] = failures.get(cls, 0) + n
    walls = ", ".join(f"{run['wall_s']:.3f}" for run in runs)
    print(f"workload {workload} seed {seed}: {len(runs)} passes of {len(runs[0]['item_s'])} "
          f"items, {sum(run['failed'] for run in runs)} of {sum(run['attempted'] for run in runs)}"
          f" attempts failed, pass walls {walls} s")
    print(f"failures by class: {json.dumps(dict(sorted(failures.items())))}")
    print(f"outputs sha256 {runs[0]['digest']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="padic-hg benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "padic_hg" / "__init__.py").is_file():
        sys.exit(f"run.py: no padic_hg source under {ROOT / 'src'}")
    started = time.monotonic()
    deadline = started + BUDGET_S
    w, seed = args.workload, args.seed
    try:
        if args.trace:
            print("\n".join(_spawn("layer_table.py", [], deadline)))
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{w}-seed{seed}.tsv"
            pairs = _passes(args.seconds, started,
                            lambda done: _pair(w, seed, deadline, spans, len(done) % 2))
            runs = [plain for plain, _ in pairs]
            _report(w, seed, runs + [traced for _, traced in pairs])
            print(f"spans of the last traced pass written to {spans.relative_to(ROOT)}")
            metrics = per_layer(pairs)
            correct = all(run["correct"] for pair in pairs for run in pair)
        else:
            setups = []

            def setup_and_pass(done):
                setups.append(_worker(w, seed, deadline, "--setup-only")["setup_s"])
                return _worker(w, seed, deadline, *_skip_late(done))

            for _ in range(SETUP_SAMPLES):
                setups.append(_worker(w, seed, deadline, "--setup-only")["setup_s"])
            runs = _passes(args.seconds, started, setup_and_pass, _late_s)
            setups += [run["setup_s"] for run in runs]
            _report(w, seed, runs)
            metrics = end_to_end(runs, setups)
            correct = all(run["correct"] for run in runs)
    except WorkerError as exc:
        sys.exit(f"run.py: {exc}")
    print(json.dumps({"correct": correct, "attempted": sum(run["attempted"] for run in runs),
                      "failed": sum(run["failed"] for run in runs), "metrics": metrics}))


if __name__ == "__main__":
    main()
