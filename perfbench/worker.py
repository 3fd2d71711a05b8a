"""Run a plan of ops in one process: a closed loop of in-process CLI calls.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

One op is one call of ``absopt.cli.main(argv)`` with stdout and stderr
captured; the next op starts when it returns.  The plan's op list is run in
whole rounds for about ``seconds`` (at least one round).  Before each op the
reference loop (reference.py) is timed once, outside the op's own timing, so
that run.py can scale the op's time to the reference speed.  With ``trace``
set, spans from spans.py are recorded and written next to the result.  This
process runs nothing but the ops and the small reference loop, so its peak
RSS is the program's.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import absopt  # noqa: E402
from absopt import absio, cli, engine, formats, kernel, pipeline  # noqa: E402

from perfbench.reference import reference_s  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402


def run_op(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed op, not a stop
            code = f"raised {exc!r}"
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def main(plan_path, result_path):
    plan = json.loads(Path(plan_path).read_text())
    ops = plan["ops"]
    tracer = None
    if plan["trace"]:
        tracer = Tracer()
        tracer.install({"cli": cli, "formats": formats, "pipeline": pipeline,
                        "kernel": kernel, "engine": engine, "absio": absio})
    run_op([a.format(round="warmup") for a in ops[0]])  # lazy set-up, not measured
    for _ in range(20):
        reference_s()
    if tracer:
        tracer.clear()
    rounds, refs = [], []
    began = perf_counter()
    # Another round only when it should still end within the run length.
    while not rounds or (perf_counter() - began) * (len(rounds) + 1) / len(rounds) <= plan["seconds"]:
        r = len(rounds)
        round_results, round_refs = [], []
        for op in ops:
            round_refs.append(reference_s())
            round_results.append(run_op([a.format(round=r) for a in op]))
        rounds.append(round_results)
        refs.append(round_refs)
    result = {
        "rounds": rounds,
        "refs": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": absopt.BACKEND,
    }
    Path(result_path).write_text(json.dumps(result))
    if tracer:
        Path(result_path).with_suffix(".spans.json").write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    main(*sys.argv[1:3])
