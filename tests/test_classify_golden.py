"""Golden outputs of the germ classifier and of two sweeps.

``data/classify_golden.json`` was recorded with the per-group
decomposition and per-vector frame code that preceded the one-pass germ
path.  For every germ below, ``classify`` must give the same model, g,
h, k, branch and reason and the same r bit for bit; the
``principal_decomposition`` of the germ as given must have the same
eigenvalues bit for bit and the same multiplicities; every residual must
agree to 1e-12 absolute (the rule of ``test_numlab_golden.py``).  The
criterion-10 CSV and a strong-curvature sweep must keep their bytes.
The 80 germs at r* +- 1e-12 with k >= 2 and c in {-4, -100} were
re-recorded line by line when ``classify`` began to build the catalog
entry at the germ's own lambda_3: at c = -100 they read the
"indeterminate" lambda_2-lambda_4 reason, and at c = -4 their catalog
residuals moved by up to 1.3e-12.

The germs are the catalog germs of n = 2..6, every k, c in {-1, -4,
-100}, both co-orientations and radii from 1e-9 to MAX_RADIUS (r* and
r* +- 1e-12 among them, and s*r > 5.4 at c = -4 and -100, where the
classifier says "hopf" today); the horosphere germs; and tube germs at
seeded random unit normals.

The bit-for-bit assertions also pin the floating-point build the file
was recorded with: numpy 2.4 on x86-64 with OpenBLAS 0.3.31
(DYNAMIC_ARCH), whose runtime dispatch chose the SkylakeX (AVX-512)
kernels, and numpy's own dispatch, which chose its X86_V4 (AVX-512)
loops.  A CPU without AVX-512 changes both.
- OpenBLAS forced to another core (``OPENBLAS_CORETYPE=Haswell`` or
  ``=Zen``, both of which run the Haswell kernels): ``eigh`` and
  ``matmul`` round differently in the last bits, and
  ``test_classify_matches_golden``, every
  ``test_numlab_golden.py::test_residuals_match_golden_values`` case and
  the construction goldens fail (116 tests), while the sweep-bytes tests
  and the two coverage tests still pass.
- numpy without its X86_V4 loops
  (``NPY_DISABLE_CPU_FEATURES=AVX512_SPR,AVX512_ICL,X86_V4``):
  ``np.cosh`` and ``np.sinh`` in ``jacobi`` round differently, the
  criterion-10 ``detD`` and ``detD_expected`` cells change in their last
  digits at r = 0.2, 0.4 and 1.4, and both sweep-bytes tests fail.
So such a CPU fails 118 tests.  A mismatch in r, an eigenvalue or a
sweep digit with every label equal is then a platform difference to
confirm (CI prints the OpenBLAS core and numpy's X86_V4 dispatch) before
it is read as a regression.

``PYTHONPATH=src python tests/test_classify_golden.py`` rewrites the data file from
the code it runs against: do that only on a commit whose outputs the
file is meant to pin.
"""

import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from chgeom.cli import main as cli_main
from chgeom.construction import build_submanifold
from chgeom.jacobi import special_radius
from chgeom.model import ModelParams
from chgeom.oracles import horosphere_germ, tube_germ
from chgeom.spectral import catalog_germ, classify, principal_decomposition
from chgeom.tubes import MAX_RADIUS

DATA = Path(__file__).resolve().parent / "data" / "classify_golden.json"
RESIDUAL_TOLERANCE = 1e-12
CURVATURES = (-1.0, -4.0, -100.0)
RADII = (1e-9, 1e-5, 1e-2, 0.2, 0.9, 2.0, 4.0, 6.5, MAX_RADIUS)
SWEEPS = {
    "criterion10": [
        "sweep", "--n", "3", "--c", "-4", "--k", "2",
        "--r-min", "0.2", "--r-max", "1.4", "--count", "7",
    ],
    "strong": [
        "sweep", "--n", "3", "--c", "-100", "--k", "2",
        "--r-min", "0.5", "--r-max", "4.0", "--count", "8",
    ],
}


def cases() -> list:
    """Every germ of the golden set, as a JSON-able description."""
    out = []
    for c in CURVATURES:
        star = special_radius(c)
        radii = sorted(RADII + (star - 1e-12, star, star + 1e-12))
        for n in range(2, 7):
            for k in range(1, n):
                for r in radii:
                    for flip in (False, True):
                        out.append({"kind": "catalog", "n": n, "k": k, "c": c, "r": r, "flip": flip})
        for n in range(2, 7):
            out.append({"kind": "horosphere", "n": n, "c": c})
    for i, (n, k, c, r) in enumerate(
        ((3, 2, -4.0, 0.3), (3, 2, -4.0, 1.5), (4, 2, -1.0, 0.7), (4, 3, -4.0, 0.9),
         (5, 3, -4.0, 2.0), (5, 4, -100.0, 0.2), (6, 5, -4.0, 0.5), (6, 2, -1.0, 3.0))
    ):
        out.append({"kind": "tube", "n": n, "k": k, "c": c, "r": r, "seed": 700 + i})
    return out


def germ_of(case):
    params = ModelParams(n=case["n"], c=case["c"])
    if case["kind"] == "horosphere":
        return horosphere_germ(params)
    if case["kind"] == "catalog":
        germ = catalog_germ(params, case["k"], r=case["r"])
        return germ.flipped() if case["flip"] else germ
    spec = build_submanifold(params, case["k"], math.pi / 2.0)
    coeffs = np.random.default_rng(case["seed"]).normal(size=case["k"])
    eta = coeffs @ spec.normal_basis
    return tube_germ(spec, eta / np.linalg.norm(eta), case["r"])


def outcome(germ) -> dict:
    decomp = principal_decomposition(germ)
    res = classify(germ)
    return {
        "eigenvalues": decomp.eigenvalues.tolist(),
        "multiplicities": list(decomp.multiplicities),
        "labels": [res.model, res.g, res.h, res.k, res.branch, res.reason],
        "r": res.r,
        "residuals": res.residuals,
    }


def sweep_text(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli_main(argv) == 0
    return out.getvalue()


def record():
    golden = {
        "germs": [{"case": case, **outcome(germ_of(case))} for case in cases()],
        "sweeps": {name: sweep_text(argv) for name, argv in SWEEPS.items()},
    }
    DATA.parent.mkdir(exist_ok=True)
    with open(DATA, "w") as fh:
        fh.write('{"germs": [\n')
        fh.write(",\n".join(json.dumps(g) for g in golden["germs"]))
        fh.write('\n],\n"sweeps": ' + json.dumps(golden["sweeps"], indent=1) + "}\n")


@pytest.fixture(scope="module")
def golden():
    with open(DATA) as fh:
        return json.load(fh)


def test_golden_set_is_the_recorded_one(golden):
    assert [g["case"] for g in golden["germs"]] == json.loads(json.dumps(cases()))


def test_classify_matches_golden(golden):
    for want in golden["germs"]:
        case = want["case"]
        got = outcome(germ_of(case))
        assert got["labels"] == want["labels"], case
        assert got["r"] == want["r"], case  # exact: JSON keeps every float bit
        assert got["eigenvalues"] == want["eigenvalues"], case
        assert got["multiplicities"] == want["multiplicities"], case
        assert set(got["residuals"]) == set(want["residuals"]), case
        for key, value in want["residuals"].items():
            assert abs(got["residuals"][key] - value) <= RESIDUAL_TOLERANCE, (case, key)


def test_golden_set_covers_the_hopf_misses(golden):
    """The set holds confident labels, G3_KBIG germs at r* and the
    "hopf" misses at large s*r that the classifier gives today."""
    labels = [tuple(g["labels"][:1] + g["labels"][4:]) for g in golden["germs"]]
    assert ("tube", "G4", None) in labels and ("equidistant", "G3_K1", None) in labels
    assert ("tube", "G3_KBIG", None) in labels
    assert ("unclassified", None, "hopf") in labels


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_bytes_match_golden(golden, name):
    assert sweep_text(SWEEPS[name]) == golden["sweeps"][name]


if __name__ == "__main__":
    record()
