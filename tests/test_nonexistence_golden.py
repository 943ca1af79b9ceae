"""Golden outputs of ``chgeom nonexistence``.

``data/nonexistence_golden.json`` holds, for each curvature and grid
below, the stdout, the exit code and (for c < 0) the bytes of the
``--output`` JSON of the feasibility scan.  The c > 0 cases are those
the scan gave before its inner loop tested b2^2 first and folded the
ordering test into the band start; the c < 0 cases were re-recorded
when the scan began to impose the trace relation l1 + l2 = 3 l3 and to
refine its curve by Newton's method.  Every case must keep them byte
for byte.  The c > 0 cases run without ``--output``, whose file was
added later and is tested in ``test_cli.py``.

The counts are integers and the curve points come from the scan's
elementwise Newton solve (``spectral._newton_curve``), which calls no
BLAS routine, so the file does not depend on a BLAS kernel.  The scan's
``--output`` path appears in stdout; it is written as ``OUTPUT`` here.

``PYTHONPATH=src python tests/test_nonexistence_golden.py`` rewrites the
data file from the code it runs against: do that only on a commit whose
outputs the file is meant to pin.
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from chgeom.cli import main as cli_main

DATA = Path(__file__).resolve().parent / "data" / "nonexistence_golden.json"
CURVATURES = (4.0, -4.0, 3.3, -2.7, -3.4746401821558717, -100.0, 1e4, -0.01)
GRIDS = (
    (2, 2, 2), (7, 300, 11), (300, 7, 11), (41, 37, 23),
    (60, 60, 60), (100, 100, 100), (165, 165, 165), (3000, 2, 2),
)


def cases() -> list:
    return [{"c": c, "grid": list(grid)} for c in CURVATURES for grid in GRIDS]


def outcome(case) -> dict:
    """stdout, exit code and --output text of one scan (no --output for
    c > 0; the text is None when the command writes no file)."""
    argv = ["nonexistence", "--c", repr(case["c"]), "--grid", *map(str, case["grid"])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.json"
        if case["c"] < 0:
            argv += ["--output", str(path)]
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli_main(argv)
        written = path.read_text() if path.exists() else None
    return {
        "code": code,
        "stdout": out.getvalue().replace(str(path), "OUTPUT"),
        "output": written,
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
    "index", range(len(CURVATURES) * len(GRIDS)),
    ids=lambda i: f"c={CURVATURES[i // len(GRIDS)]!r}-grid={'x'.join(map(str, GRIDS[i % len(GRIDS)]))}",
)
def test_nonexistence_matches_golden(golden, index):
    want = golden[index]
    got = outcome(want["case"])
    assert got == {key: want[key] for key in ("code", "stdout", "output")}


if __name__ == "__main__":
    record()
