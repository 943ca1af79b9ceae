"""One digest of every benchmark operation's output, for byte-identity checks.

Usage (from the repository root):

    PYTHONPATH=src python tests/op_digest.py --seeds 401 402 403 [--dump]

Builds the workloads of ``perfbench/workloads.py`` at each seed with the
core count fixed at 2, so the operation lists do not depend on the host,
and runs every operation once, in-process through ``chgeom.cli.main``.
Each operation's record is its argv, exit code, stdout and stderr, with
the temporary input directory masked; an exception reads as its type and
message.  Prints the operation count and one SHA-256 per workload and
over all of them; ``--dump`` prints one JSON line per operation first,
for diffing two trees.  Reads ``perfbench/`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

# one BLAS thread, set before numpy loads, so no output depends on the host
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from chgeom import cli  # noqa: E402

NPROC = 2
WORKDIR_MASK = "<workdir>"


def run_op(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is an output too
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue()


def records(name: str, seed: int):
    """The masked record of each operation of one workload at one seed."""
    workdir = tempfile.mkdtemp(prefix=f"op-digest-{name}-")
    try:
        wl = workloads.WORKLOADS[name](np.random.default_rng(seed), NPROC, workdir)
        for i, op in enumerate(wl.ops):
            rc, out, err = run_op(op.argv)
            record = {"workload": name, "seed": seed, "op": i, "argv": op.argv,
                      "exit": rc, "stdout": out, "stderr": err}
            yield json.dumps(record, sort_keys=True).replace(workdir, WORKDIR_MASK)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--dump", action="store_true", help="print one line per operation")
    args = parser.parse_args(argv)
    total, count = hashlib.sha256(), 0
    summary = []
    for name in sorted(workloads.WORKLOADS):
        digest, ops = hashlib.sha256(), 0
        for seed in args.seeds:
            for line in records(name, seed):
                if args.dump:
                    print(line)
                data = (line + "\n").encode()
                digest.update(data)
                total.update(data)
                ops += 1
        count += ops
        summary.append(f"{name:<10} {ops:5d} ops  {digest.hexdigest()}")
    print(*summary, sep="\n")
    print(f"{'all':<10} {count:5d} ops  {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
