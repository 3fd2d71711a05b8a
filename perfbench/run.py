"""Seeded end-to-end and per-layer benchmark of ``absopt solve`` and ``absopt reduce``.

Usage (from the repository root):

    python3 perfbench/run.py --workload uhg-kernel --seed 1 --seconds 28 --trace 0

The run generates the workload's instance files from the seed, times
``import absopt`` in fresh interpreters (set-up), runs every file through the
CLI in a separate worker process (worker.py) and checks every answer against
oracle.py.  Every time is scaled to the reference speed of reference.py.
With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` the worker records spans and the line reports the per-layer
metrics instead.  The line before it records the backend, the machine, the
seed and the unscaled wall-clock figures.  Results and spans are kept under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import families, oracle, spans  # noqa: E402
from perfbench.reference import REF_S  # noqa: E402

SETUP_SAMPLES = 10
REF_WINDOW = 4  # reference samples on each side of an op that set its scale
WORKER_TIMEOUT_S = 150
SAMPLED_ASSIGNMENTS = 16


def _env():
    """The program's environment: its sources, and one OpenBLAS thread.

    absopt makes no BLAS call, but ``import numpy`` starts an OpenBLAS thread
    per core.  On two shared cores those threads compete with the import they
    belong to and made its time swing by half.
    """
    return dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")


def setup_samples(count):
    """Scaled seconds that ``import absopt`` takes in a fresh interpreter.

    The probe times the reference loop five times before and five times after
    the import, in the same process, and scales the import by their median.
    It loads only reference.py first, which imports nothing absopt needs.
    """
    code = (f"import sys, time; sys.path.append({str(ROOT)!r})\n"
            "from perfbench.reference import median, reference_s\n"
            "refs = [reference_s() for _ in range(5)]\n"
            "start = time.perf_counter()\n"
            "import absopt\n"
            "took = time.perf_counter() - start\n"
            "refs += [reference_s() for _ in range(5)]\n"
            "print(took, median(refs))\n")
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", code], env=_env(), check=True,
                             capture_output=True, text=True, timeout=60).stdout
        took, ref = map(float, out.split())
        samples.append(took * REF_S / ref)
    return samples


def op_scales(result):
    """REF_S over the reference time around each op, in the order the ops ran.

    The reference time is the median of the samples taken before the op and
    the REF_WINDOW ops on each side of it.
    """
    refs = [r for round_refs in result["refs"] for r in round_refs]
    return [REF_S / statistics.median(refs[max(0, at - REF_WINDOW):at + REF_WINDOW + 1])
            for at in range(len(refs))], statistics.median(refs)


def op_times(result, scales, count):
    """Each op's scaled and wall time: its median over the rounds."""
    scaled = [[] for _ in range(count)]
    wall = [[] for _ in range(count)]
    for k, round_results in enumerate(result["rounds"]):
        for i, (elapsed, *_) in enumerate(round_results):
            scaled[i].append(elapsed * scales[k * count + i])
            wall[i].append(elapsed)
    return [statistics.median(t) for t in scaled], [statistics.median(t) for t in wall]


def time_metrics(times):
    """Median, 90th percentile and ops per second of the fixed op set."""
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
    return statistics.median(times), p90, len(times) / sum(times)


def write_plan(insts, work, seconds, trace):
    """Instance files plus the op list; op i of the plan belongs to owners[i]."""
    ops, owners = [], []
    for inst in insts:
        path = work / f"{inst['name']}.{inst['kind']}"
        path.write_text(inst["text"])
        for op in inst["ops"]:
            out = work / f"{inst['name']}.r{{round}}.out"
            ops.append([a.format(file=path, out=out) for a in op])
            owners.append(inst)
    plan = work / "plan.json"
    plan.write_text(json.dumps({"ops": ops, "seconds": seconds, "trace": trace}))
    return plan, ops, owners


def samples_for(inst, rng):
    n = inst["n"]
    picks = [frozenset(), frozenset(range(1, n + 1))]
    picks += [frozenset(v for v in range(1, n + 1) if rng.random() < 0.5)
              for _ in range(SAMPLED_ASSIGNMENTS)]
    return picks


def check_op(inst, op, result, round_no, rng, checked):
    """None when the op's answer is right, else the reason it failed.

    ``checked`` holds outputs already found right; an identical output of a
    later round needs no second check.
    """
    _, code, stdout, stderr = result
    if isinstance(code, str):
        return code
    try:
        if op[0] == "reduce":
            stdout = Path(op[-1].replace("{round}", str(round_no))).read_text()
        key = (inst["name"], op[0], code, stdout)
        if key in checked:
            return None
        if op[0] == "solve":
            oracle.check_solve(inst, code, stdout)
        else:
            oracle.check_reduce(inst, code, stdout, samples_for(inst, rng))
    except (oracle.CheckError, OSError, ValueError, IndexError) as exc:
        return f"{exc} {stderr.strip()}".strip()
    checked.add(key)
    return None


def self_test(pairs):
    """The checker must reject a flipped verdict, a changed value and a changed witness."""
    yes = next(((i, r) for i, op, r in pairs if op[0] == "solve" and i["expect"]), None)
    no = next(((i, r) for i, op, r in pairs if op[0] == "solve" and not i["expect"]), None)
    bad = []
    if no:
        bad.append((no[0], 10, "s YES\no 0\n" + no[1][2].replace("s NO\n", "")))
    if yes:
        inst, (_, _, stdout, _) = yes
        bad.append((inst, 20, stdout.replace("s YES", "s NO")))
        lines = stdout.splitlines()
        at = next(k for k, l in enumerate(lines) if l.startswith("o "))
        value = int(lines[at][2:])
        bad.append((inst, 10, "\n".join(lines[:at] + [f"o {value + 1}"] + lines[at + 1:])))
        bad.append((inst, 10, _perturbed_witness(inst, lines)))
    for inst, code, text in bad:
        try:
            oracle.check_solve(inst, code, text)
        except oracle.CheckError:
            continue
        raise SystemExit(f"self-test: checker accepted a corrupted answer for {inst['name']}")


def _perturbed_witness(inst, lines):
    """The answer with a witness that scores differently from the o line."""
    _, value, wit = oracle.parse_solve_output("\n".join(lines))
    head = [l for l in lines if l.split()[:1] in (["c"], ["s"], ["o"])]
    if inst["kind"] == "absio":
        point = {int(t[1]): int(t[2]) for t in wit}
        for v in sorted(point):
            for step in (1, -1):
                moved = {**point, v: point[v] + step}
                pt = tuple(moved[k] for k in sorted(moved))
                if oracle.poly_value(inst["terms"], pt) != value:
                    return "\n".join(head + [f"x {k} {x}" for k, x in sorted(moved.items())])
    elif inst["kind"] == "uhg":
        chosen = {int(t) for t in wit[0][1:]}
        for v in range(1, inst["n"] + 1):
            moved = chosen ^ {v}
            if oracle.induced_weight(inst["edges"], frozenset(moved)) != value:
                return "\n".join(head + ["s " + " ".join(map(str, sorted(moved)))])
    else:
        lits = [int(t) for t in wit[0][1:]]
        for k in range(len(lits)):
            moved = lits[:k] + [-lits[k]] + lits[k + 1:]
            true_vars = frozenset(l for l in moved if l > 0)
            if oracle.formula_value(inst["clauses"], inst["kind"][1:], true_vars) != value:
                return "\n".join(head + ["v " + " ".join(map(str, moved))])
    raise SystemExit(f"self-test: no witness change alters the score of {inst['name']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(families.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "absopt" / "__init__.py").is_file():
        sys.exit(f"no absopt sources under {SRC}")

    setup = []
    if not args.trace:
        setup_samples(1)  # writes the bytecode caches; not counted
        setup = setup_samples(SETUP_SAMPLES // 2)
    insts = families.generate(args.workload, args.seed)
    out_dir = HERE / "out"
    work = out_dir / f"tmp-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        plan, ops, owners = write_plan(insts, work, args.seconds, args.trace)
        result_path = work / "result.json"
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan), str(result_path)],
                       env=_env(), check=True, timeout=WORKER_TIMEOUT_S)
        result = json.loads(result_path.read_text())
        if not args.trace:  # half the set-up samples after the ops, against drift in machine speed
            setup += setup_samples(SETUP_SAMPLES - len(setup))
        rng = random.Random(f"samples:{args.seed}")
        checked, failures, pairs = set(), [], []
        for r, round_results in enumerate(result["rounds"]):
            for op, inst, res in zip(ops, owners, round_results):
                why = check_op(inst, op, res, r, rng, checked)
                if why:
                    failures.append(f"round {r} {inst['name']} {op[0]}: {why}")
                elif r == 0:
                    pairs.append((inst, op, res))
        self_test(pairs)
        if args.trace:
            shutil.copy(result_path.with_suffix(".spans.json"), out_dir / f"{tag}.spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = len(result["rounds"])
    attempted, failed = rounds * len(ops), len(failures)
    scales, ref = op_scales(result)
    times, wall = op_times(result, scales, len(ops))
    p50, p90, ops_per_s = time_metrics(times)
    wall_p50, wall_p90, wall_ops_per_s = time_metrics(wall)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backend": result["backend"], "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "rounds": rounds, "ops_per_round": len(ops), "ops_per_s": ops_per_s,
        "reference_ms": ref * 1000,
        "wall": {"op_s.p50": wall_p50, "op_s.p90": wall_p90, "ops_per_s": wall_ops_per_s},
        "failures": failures[:20],
    }
    if args.trace:
        layer = spans.layer_metrics(json.loads(
            (out_dir / f"{tag}.spans.json").read_text()), rounds, scales)
        metrics = {name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in layer.items()}
        record["layer_shares"] = spans.layer_shares(
            json.loads((out_dir / f"{tag}.spans.json").read_text()),
            [f"{inst['family']} {op[0]}" for inst, op in zip(owners, ops)])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_s.p50": {"value": p50, "unit": "s"},
            "op_s.p90": {"value": p90, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    (out_dir / f"{tag}.json").write_text(json.dumps({"record": record, "result": line}, indent=1))
    print(json.dumps(record))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
