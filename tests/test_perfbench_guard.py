"""The benchmark in perfbench/ runs on the package in src/: a change that
deletes or renames a name it calls or traces breaks it there, not here,
unless this test catches it first.  It writes nothing under perfbench/."""

import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]

# install the tracer over the six modules a traced run wraps, then set up
# every workload and build its items at seed 1, running none of them; then
# empty the kernel cache as the worker does between row-scan items
SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import padic_hg
from padic_hg import charsum, ffield, frobtrace, gfunc, padic
import tracing, worker, workloads

tracing.Recorder().install({{"padic_hg": padic_hg, "ffield": ffield, "padic": padic,
                             "gfunc": gfunc, "charsum": charsum, "frobtrace": frobtrace}})
for name, workload in workloads.WORKLOADS.items():
    items = workload.items(1, workload.setup())
    print(name, len(items))
worker._drop_kernels(gfunc)()
assert not gfunc._KERNELS
"""


def test_benchmark_workloads_build_on_src():
    script = SCRIPT.format(src=str(REPO / "src"), bench=str(REPO / "perfbench"))
    # -B: write no bytecode into perfbench/
    proc = subprocess.run([sys.executable, "-B", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    built = dict(line.split() for line in proc.stdout.splitlines())
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]
    assert set(built) == {w["name"] for w in declared}
    assert all(int(n) > 0 for n in built.values()), built
