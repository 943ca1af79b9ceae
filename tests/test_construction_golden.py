"""Golden outputs of the orbit construction W^{2n-k}_phi.

``data/construction_golden.json`` holds, for every case below, what the
orbit layer gives with its frame written in closed form: the stdout and
exit code of ``chgeom construct``, a sha256 of the bytes it writes with
``--output``, and a sha256 of the shape matrix and tangent rows of
``tube_germ`` at r in {0.3, 0.7, 1.5}, along the first normal row and
along the normalised sum of the normal rows.  Every case must keep them.
The file was re-recorded when the frame stopped coming from a projection
and an SVD; against the outputs of that older frame, every phi = pi/2
case kept its stdout and its arrays as numbers (only the signs of zeros
moved), and every phi < pi/2 case kept its normal rows bit for bit and
its stdout up to the shape-form residual figure.

The cases are n = 2..7, every k = 1..n-1, c in {-1, -4, -100} and
phi = pi/2, plus phi in {pi/3, 0.4} for even k.  The ``--output``
path appears in stdout; it is written as ``OUTPUT`` here.

The digests are bit for bit, so they pin the floating-point build the
file was recorded with: numpy 2.4 on x86-64 with OpenBLAS 0.3.31
(DYNAMIC_ARCH), whose runtime dispatch chose the SkylakeX (AVX-512)
kernels.  The tube germ's matrix products round with those kernels; on
another core a digest mismatch with equal stdout is a platform
difference to confirm (CI prints the core with ``OPENBLAS_VERBOSE=2``)
before it is read as a regression.

``PYTHONPATH=src python tests/test_construction_golden.py`` rewrites the
data file from the code it runs against: do that only on a commit whose
outputs the file is meant to pin.
"""

import hashlib
import io
import json
import math
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from chgeom.cli import main as cli_main
from chgeom.construction import build_submanifold
from chgeom.model import ModelParams
from chgeom.oracles import tube_germ

DATA = Path(__file__).resolve().parent / "data" / "construction_golden.json"
CURVATURES = (-1.0, -4.0, -100.0)
RADII = (0.3, 0.7, 1.5)


def cases() -> list:
    out = []
    for n in range(2, 8):
        for k in range(1, n):
            phis = (math.pi / 2,) + ((math.pi / 3, 0.4) if k % 2 == 0 else ())
            for phi in phis:
                out += [{"n": n, "k": k, "phi": phi, "c": c} for c in CURVATURES]
    return out


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def outcome(case) -> dict:
    """construct stdout, exit code and --output digest, and the digest of
    the case's tube germs."""
    n, k, phi, c = case["n"], case["k"], case["phi"], case["c"]
    argv = ["construct", "--n", str(n), "--c", repr(c), "--k", str(k), "--phi", repr(phi)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli_main(argv + ["--output", str(path)])
        written = hashlib.sha256(path.read_bytes()).hexdigest()
    spec = build_submanifold(ModelParams(n=n, c=c), k, phi)
    total = spec.normal_basis.sum(axis=0)
    normals = (spec.normal_basis[0], total / np.linalg.norm(total))
    germs = [tube_germ(spec, eta, r) for eta in normals for r in RADII]
    return {
        "code": code,
        "stdout": out.getvalue().replace(str(path), "OUTPUT"),
        "output_sha256": written,
        "tube_sha256": _digest(a for g in germs for a in (g.shape, g.tangent_basis)),
    }


def record():
    golden = [{"case": case, **outcome(case)} for case in cases()]
    DATA.parent.mkdir(exist_ok=True)
    with open(DATA, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(g) for g in golden) + "\n]\n")


@pytest.fixture(scope="module")
def golden():
    with open(DATA) as fh:
        return json.load(fh)


def test_golden_set_is_the_recorded_one(golden):
    assert [g["case"] for g in golden] == json.loads(json.dumps(cases()))


@pytest.mark.parametrize(
    "case", cases(), ids=lambda c: f"n={c['n']}-k={c['k']}-phi={c['phi']!r}-c={c['c']!r}"
)
def test_construction_matches_golden(golden, case):
    want = next(g for g in golden if g["case"] == case)
    got = outcome(case)
    assert got == {key: want[key] for key in ("code", "stdout", "output_sha256", "tube_sha256")}


if __name__ == "__main__":
    record()
