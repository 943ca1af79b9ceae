"""Time chgeom's set-up in a fresh interpreter and print it in seconds.

Usage: python3 setup_probe.py SRC_DIR N C K

Set-up is importing ``chgeom.cli`` (which imports every module and
numpy) and building the first ``SolvableModel`` and ``build_submanifold``
of a workload.  The probe then prints the median time of run.py's
calibration kernel in this process, so the caller can scale the set-up
time to the reference host speed.
"""

import math
import sys
import time

KERNEL_SAMPLES = 9


def main(argv):
    src, n, c, k = argv[0], int(argv[1]), float(argv[2]), int(argv[3])
    start = time.perf_counter()
    sys.path.insert(0, src)
    import chgeom.cli  # noqa: F401
    from chgeom.construction import build_submanifold
    from chgeom.model import ModelParams, SolvableModel

    params = ModelParams(n, c)
    SolvableModel(params)
    build_submanifold(params, k, math.pi / 2.0)
    elapsed = time.perf_counter() - start

    from run import calibration_kernel

    kernel = sorted(calibration_kernel() for _ in range(KERNEL_SAMPLES))
    print(repr(elapsed), repr(kernel[KERNEL_SAMPLES // 2]))


if __name__ == "__main__":
    main(sys.argv[1:])
