"""The benchmark in perfbench/ runs on the package in src/: a change that
deletes or renames a name it calls or traces, breaks an item when it is
called, or makes an item's output fail its own check breaks it there, not
here, unless this test catches it first.  It writes nothing under
perfbench/."""

import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]

# install the tracer over the six modules a traced run wraps, then set up
# every workload, build its items at seed 1 and call each once, traced, as
# a pass does: the kernel cache is emptied after each item of a workload
# with fresh kernels, and every output must pass its item's check; then
# read the traced metrics and print the layer table's row for 7^2, which a
# traced run prints for its grid
SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import padic_hg
from padic_hg import charsum, ffield, frobtrace, gfunc, padic
import layer_table, tracing, worker, workloads

recorder = tracing.Recorder()
recorder.install({{"padic_hg": padic_hg, "ffield": ffield, "padic": padic,
                  "gfunc": gfunc, "charsum": charsum, "frobtrace": frobtrace}})
drop = worker._drop_kernels(gfunc)
for name, workload in workloads.WORKLOADS.items():
    items = workload.items(1, workload.setup())
    recorder.active = True
    for item in items:
        out = item.call()
        assert item.check(out), (name, item.label, out)
        if workload.fresh_kernels:
            drop()
    recorder.active = False
    print(name, len(items))
assert not gfunc._KERNELS
assert set(recorder.metrics()) <= set(tracing.metric_names()), recorder.metrics()
print("row", layer_table.row(7, 2))
"""


def test_benchmark_workloads_build_on_src():
    script = SCRIPT.format(src=str(REPO / "src"), bench=str(REPO / "perfbench"))
    # -B: write no bytecode into perfbench/
    proc = subprocess.run([sys.executable, "-B", "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("row | 7^2 |"), lines[-1]
    ran = dict(line.split() for line in lines[:-1])
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]
    assert set(ran) == {w["name"] for w in declared}
    assert all(int(n) > 0 for n in ran.values()), ran
