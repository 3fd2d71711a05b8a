"""The CLI's output on the absio-box benchmark files, pinned by digest.

Every op of ``perfbench.families.generate("absio-box", seed)`` for seeds 1-3
runs through ``cli.main`` in process, once as ``solve`` and once as
``solve --explain``.  A digest of each run's (file, argv, exit code, stdout,
stderr) must equal the one in ``absio_box_digests.json``, and the first run
that differs is named.  A change that moves this output on purpose rewrites
the digests, from the repository root:

    PYTHONPATH=src python3 tests/test_absio_box_output.py

and says which runs moved and why.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from absopt import cli  # noqa: E402
from perfbench import families  # noqa: E402

DIGESTS = Path(__file__).with_name("absio_box_digests.json")
SEEDS = (1, 2, 3)
MODES = ((), ("--explain",))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digests():
    """(run label, digest) for every run, in run order."""
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for inst in families.generate("absio-box", seed):
                path = Path(tmp) / f"{inst['name']}.absio"
                path.write_text(inst["text"])
                for op in inst["ops"]:
                    for mode in MODES:
                        argv = [op[0], *mode, *(a.format(file=path) for a in op[1:])]
                        code, out, err = _run(argv)
                        label = f"seed {seed} {inst['name']}: {' '.join([op[0], *mode, *op[1:]])}"
                        record = json.dumps([label, code, out, err]).replace(str(path), "{file}")
                        found.append((label, hashlib.sha256(record.encode()).hexdigest()[:16]))
    return found


def test_absio_box_output_is_pinned():
    want = json.loads(DIGESTS.read_text())
    got = digests()
    assert [label for label, _ in got] == [label for label, _ in want]
    for (label, digest), (_, pinned) in zip(got, want):
        assert digest == pinned, f"output of {label} moved"


if __name__ == "__main__":
    DIGESTS.write_text("[\n" + ",\n".join(map(json.dumps, digests())) + "\n]\n")
