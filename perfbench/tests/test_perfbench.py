"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from padic_hg import ffield, gfunc, padic  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(trace, key):
    lines = _run("--workload", "oracle-lemmas", "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace))
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert set(expected) == set(tracing.metric_names())
        assert any(line.startswith("| 101^2 |") for line in lines)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_changes_the_inputs(name):
    w = workloads.WORKLOADS[name]
    state = w.setup()

    def labels(seed):
        return [item.label for item in w.items(seed, state)]

    first = labels(1)
    assert labels(1) == first
    assert labels(2) != first
    assert len(set(first)) == len(first)


def _oracle_items(n):
    w = workloads.WORKLOADS["oracle-lemmas"]
    return w.items(5, w.setup())[:n]


def _one_pass(items, **kwargs):
    outs, took, wall = worker.run_items(items, **kwargs)
    summary = worker.summarize(items, outs)
    summary.update(item_s=took, wall_s=wall, peak_rss_mib=1.0)
    return summary


def test_injected_failing_item_raises_fail_ratio():
    items = _oracle_items(30)
    clean = _one_pass(items)
    assert clean["failed"] == 0 and clean["correct"]

    def boom():
        raise ZeroDivisionError

    injected = items + [
        workloads.Item("wrong", lambda: False, workloads._is_true),
        workloads.Item("raises", boom, workloads._is_true),
    ]
    dirty = _one_pass(injected)
    assert dirty["failed"] / dirty["attempted"] == 2 / 32
    assert dirty["failures"] == {"WrongResult": 1, "ZeroDivisionError": 1}
    assert not dirty["correct"]
    assert dirty["digest"] != clean["digest"]
    ratios = [run.end_to_end([summary], [0.1])["pass_ratio"]["value"]
              for summary in (clean, dirty)]
    assert ratios == [1.0, 30 / 32]


def test_item_time_is_its_fastest_pass_and_a_late_item_is_not_retried():
    passes = [{"item_s": [0.003, 0.001, 2.0], "item_fail": [None, None, "Deadline"],
               "peak_rss_mib": 12.0},
              {"item_s": [0.002, 0.004, None], "item_fail": [None, None, None],
               "peak_rss_mib": 10.0}]
    assert run._skip_late(passes) == ["--skip", "2"]
    metrics = run.end_to_end(passes, [0.3, 0.1, 0.2])
    assert metrics["item_ms_p50"]["value"] == pytest.approx(2.0)
    assert metrics["items_per_s"]["value"] == pytest.approx(2 / 2.003)
    assert metrics["pass_ratio"]["value"] == pytest.approx(2 / 3)
    assert metrics["setup_s"]["value"] == 0.1
    assert metrics["peak_rss_mib"]["value"] == 11.0


def test_a_skipped_item_is_not_attempted():
    items = _oracle_items(3)
    outs, took, _ = worker.run_items(items, skip={1})
    assert outs[1] is None and took[1] is None
    summary = worker.summarize(items, outs)
    assert summary["attempted"] == 2 and summary["item_fail"] == [None, None, None]


def test_a_missing_trace_target_fails_the_install(monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "gfunc.evaluate_G", [("gfunc", "no_such_function")])
    from padic_hg import charsum, ffield as ff, frobtrace, gfunc as gf, padic as pa
    import padic_hg
    with pytest.raises(tracing.MissingTarget, match="no_such_function"):
        tracing.Recorder().install({"padic_hg": padic_hg, "ffield": ff, "padic": pa,
                                    "gfunc": gf, "charsum": charsum, "frobtrace": frobtrace})


def test_a_missing_kernel_cache_fails_the_run(monkeypatch):
    monkeypatch.delattr(gfunc, "_KERNELS")
    with pytest.raises(SystemExit, match="_KERNELS"):
        worker._drop_kernels(gfunc)


def test_short_deadline_stops_the_gamma_cliff_row():
    half = (Fraction(1, 2),) * 4
    field = ffield.build_field(11, 2)
    assert workloads.split_class(half, 11, 2) == 4
    assert 11 ** (3 + 4) > padic.GAMMA_TABLE_CAP
    item = workloads.Item(
        "cliff", lambda: gfunc.check_splitting_identity(*half, field.elem(3), field,
                                                        padic.PadicCtx(field, 3)),
        workloads._is_true)
    start = time.perf_counter()
    try:
        summary = _one_pass([item], deadline=0.3)
    finally:
        gfunc._KERNELS.clear()
    assert time.perf_counter() - start < 5
    assert summary["failures"] == {"Deadline": 1}
    assert summary["correct"] and summary["attempted"] == 1 and summary["item_s"][0] < 1
