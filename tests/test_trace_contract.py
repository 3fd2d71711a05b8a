"""The traced benchmark run's hold on the program, checked in a child process.

``perfbench/spans.py`` wraps module attributes by name and reads counts off
return values, for example ``len(r[0].clauses)`` off a rewrite's return pair.
A renamed function or a changed return shape would make the traced run fail,
so this test installs the tracer as ``perfbench/worker.py`` does and runs one
``solve`` per instance kind and one ``reduce`` per traced rewrite through
``cli.main``.  The child process keeps the patched modules away from the
other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FILES = {
    "a.wdnf": "p wdnf 3 2 3\nw 5 1 -2 0\nw -2 3 0\n",
    "b.wcnf": "p wcnf 3 2 4\nw 3 1 -2 0\nw 2 -1 3 0\n",
    "c.uhg": "p uhg 3 2 5\ne 2 1 2 0\ne 0 3 0\n",
    "d.absio": "p absio 1 2 50\ncol 1 1:1 0\ncol 1 0\nb 1 5 inf\n",
    "e.wdnf": "p wdnf 2 2 1\nw 3 1 2 0\nw -1 2 0\n",
}

# argv and the exit code it must give
OPS = [
    (["solve", "a.wdnf"], 10),
    (["solve", "b.wcnf"], 10),
    (["solve", "c.uhg"], 20),
    (["solve", "d.absio"], 10),
    (["reduce", "monotonize", "a.wdnf"], 0),
    (["reduce", "cnf2dnf", "b.wcnf"], 0),
    (["reduce", "dnf2uhg", "e.wdnf"], 0),
]

CHILD = """
import contextlib, io, json, sys
from absopt import absio, cli, engine, formats, kernel, pipeline
from perfbench.spans import POINTS, Tracer, layer_metrics

modules = {"cli": cli, "formats": formats, "pipeline": pipeline,
           "kernel": kernel, "engine": engine, "absio": absio}
missing = [f"{mod}.{attr}" for mod, attr, _, _ in POINTS if not hasattr(modules[mod], attr)]
tracer = Tracer()
if not missing:
    tracer.install(modules)
codes = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            codes.append(cli.main(argv))
        except (Exception, SystemExit) as exc:
            codes.append(f"raised {exc!r}")
roots = sum(1 for span in tracer.spans if span[3] < 0)
metrics = layer_metrics(tracer.spans, 1, [1.0] * roots)
print(json.dumps({"missing": missing, "codes": codes, "metrics": metrics}))
"""


def test_traced_ops_run(tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    argvs = [[str(tmp_path / a) if a in FILES else a for a in argv] for argv, _ in OPS]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    got = json.loads(proc.stdout)
    assert got["missing"] == []
    assert got["codes"] == [code for _, code in OPS]
    assert got["metrics"]["reductions.clauses_out"] > 0
