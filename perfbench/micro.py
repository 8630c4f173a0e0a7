"""Layer micro-run: the single-layer baseline figures, through public calls.

    python perfbench/micro.py        (with the program's src on PYTHONPATH)

Prints one JSON object of seconds per call.  Calls under 0.1 s take the
best of five; longer ones run once.  The inputs are those of the baseline
in ROADMAP.md: CASE1 with lambda = 0.1 on its default box.
"""

import json
import time

from pdemosc import (Kind, Parameterization, assemble_sturm_liouville,
                     build_grid, eigen_tridiagonal, eigenfunction_samples,
                     make_family, proportionality_ratio, verify_all)


def timed(fn):
    best = None
    for _ in range(5):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
        if dt > 0.1:
            break
    return best


def main():
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    out = {}
    for k, n in ((1, 4000), (5, 4000), (10, 4000), (10, 16000)):
        grid = build_grid(fam, n)
        t = assemble_sturm_liouville(fam, grid)
        out[f"micro.eigen_k{k}_n{n}_s"] = timed(
            lambda: eigen_tridiagonal(t, k, grid.h))
    grid = build_grid(fam, 4000)
    out["micro.verify_all_n4000_s"] = timed(lambda: verify_all(fam, grid))
    out["micro.samples_n4000_s"] = timed(
        lambda: eigenfunction_samples(fam, 5, grid))
    out["micro.proportionality_ratio_30_s"] = timed(
        lambda: proportionality_ratio(30, Parameterization.CASE1))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
