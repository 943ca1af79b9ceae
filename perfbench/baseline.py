"""Time the configurations behind the ROADMAP "Baseline" figures.

Usage (from the repository root): python3 perfbench/baseline.py [REPEATS]

Prints one line per configuration with the median and range of REPEATS
(default 3) wall-clock timings, for NOTES.md.  These are single
configurations, not the benchmark; run.py is the benchmark.
"""

import contextlib
import io
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def timed(fn, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def main(argv):
    repeats = int(argv[0]) if argv else 3
    sys.path.insert(0, str(ROOT / "src"))
    from chgeom import cli, tubes
    from chgeom.construction import build_submanifold
    from chgeom.model import ModelParams
    from chgeom.spectral import catalog_germ, classify

    def quiet(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    spec = build_submanifold(ModelParams(3, -4.0), 2, math.pi / 2.0)
    sweep8 = ["sweep", "--n", "3", "--c", "-4", "--k", "2", "--r-min", "0.2", "--r-max", "1.4", "--count", "8"]
    params4 = ModelParams(4, -4.0)
    cases = [
        ("tube_shape_operator n=3 k=2 r=0.7 step 1e-3",
         lambda: tubes.tube_shape_operator(spec, spec.normal_basis[0], 0.7, step=1e-3)),
        ("tube_shape_operator n=3 k=2 r=0.7 step 1e-4",
         lambda: tubes.tube_shape_operator(spec, spec.normal_basis[0], 0.7, step=1e-4)),
        ("sweep 8 radii default step --jobs 1", lambda: quiet(sweep8 + ["--jobs", "1"])),
        ("sweep 8 radii default step --jobs 2", lambda: quiet(sweep8 + ["--jobs", "2"])),
        ("sweep 8 radii step 1e-4 --jobs 1", lambda: quiet(sweep8 + ["--ode-step", "1e-4", "--jobs", "1"])),
        ("sweep 8 radii step 1e-4 --jobs 2", lambda: quiet(sweep8 + ["--ode-step", "1e-4", "--jobs", "2"])),
        ("residuals n=3 k=2 r=0.7",
         lambda: quiet(["residuals", "--n", "3", "--c", "-4", "--k", "2", "--r", "0.7"])),
        ("residuals n=4 k=3 r=0.7",
         lambda: quiet(["residuals", "--n", "4", "--c", "-4", "--k", "3", "--r", "0.7"])),
        ("catalog_germ + classify n=4 k=2 r=0.7 (x100)",
         lambda: [classify(catalog_germ(params4, 2, r=0.7)) for _ in range(100)]),
        ("nonexistence c=4 grid 200^3",
         lambda: quiet(["nonexistence", "--c", "4", "--grid", "200", "200", "200"])),
    ]
    for label, fn in cases:
        samples = timed(fn, repeats)
        print(f"{label:48s} median {statistics.median(samples):8.3f} s"
              f"  range {min(samples):.3f}-{max(samples):.3f} s  (n={repeats})", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
