#!/usr/bin/env python3
"""Covering radius bracket refinement as the grid resolution doubles.

The covering radius search grids the fundamental cell with corner
aligned points, so doubling the resolution reuses every existing grid
point and the brackets are nested by construction.  This script prints
the bracket at each doubling for a chosen scenario, together with the
width, the ratio to the previous width (the width decays like
1/resolution), the wall seconds of the call (time.perf_counter) and
the process's peak RSS in MB after it.  Grids grow with the
resolution, so each row's peak is its own search's.  A resolution the
grid refuses (more than 2M points) ends the table with the refusal.

With --mu-rank N each row times `mu_product_report` instead, on the
module A O^N over the scenario's field (A from `random_module` in
scripts/minima_scaling.py, the scale rows' matrices) with the unit
ball at every place, and the bracket is that of the polar's covering
radius mu(S*).  This reproduces the `mu_product_report` row of the
ROADMAP scale table:

    python3 scripts/covering_convergence.py Q_sqrt2 --mu-rank 2 --max-resolution 64
"""

import argparse
import resource
import runpy
import sys
import time
from fractions import Fraction
from pathlib import Path

from adelic import (
    AdelicBody,
    EnumerationCapError,
    covering_radius_bounds,
    mu_product_report,
    parse_scenario,
    uniform_ball_body,
)
from adelic.cli import load_scenario_text


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("scenario", nargs="?", default="Q_sqrt2",
                    help="preset name or scenario file (default Q_sqrt2)")
    ap.add_argument("--min-resolution", type=int, default=8)
    ap.add_argument("--max-resolution", type=int, default=128)
    ap.add_argument("--mu-rank", type=int, metavar="N",
                    help="time mu_product_report on a random rank-N module with unit balls")
    args = ap.parse_args()

    body = parse_scenario(load_scenario_text(args.scenario)).build()
    if args.mu_rank is not None:
        script = Path(__file__).resolve().with_name("minima_scaling.py")
        random_module = runpy.run_path(str(script))["random_module"]
        field, n = body.field, args.mu_rank
        body = AdelicBody(random_module(field, n), uniform_ball_body(field, n, Fraction(1)))
        print(f"mu_product_report on a random rank {n} module over {args.scenario}'s field, "
              f"unit balls (polar lattice dimension {n * field.degree})")
    else:
        print(f"scenario {args.scenario}: rank {body.n} over a degree "
              f"{body.field.degree} field (lattice dimension "
              f"{body.n * body.field.degree})")
    print(f"{'resolution':>10} {'lower':>12} {'upper':>12} {'width':>10} {'ratio':>7} "
          f"{'seconds':>8} {'peak_mb':>8}")

    prev_width = None
    prev = None
    k = args.min_resolution
    while k <= args.max_resolution:
        start = time.perf_counter()
        try:
            if args.mu_rank is not None:
                lo, hi = mu_product_report(body, resolution=k).mu_bracket
            else:
                lo, hi = covering_radius_bounds(body.lattice().reduced(), body.infinite_part,
                                                resolution=k)
        except EnumerationCapError as exc:
            print(f"{k:>10} refused: {exc}")
            break
        seconds = time.perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        width = hi - lo
        ratio = f"{width / prev_width:.3f}" if prev_width else "-"
        print(f"{k:>10} {lo:>12.8f} {hi:>12.8f} {width:>10.6f} {ratio:>7} "
              f"{seconds:>8.3f} {peak_mb:>8.1f}")
        if prev is not None and not (prev[0] <= lo + 1e-12 and hi <= prev[1] + 1e-12):
            sys.exit(f"error: bracket [{lo:.17g}, {hi:.17g}] at resolution {k} does not "
                     f"nest in [{prev[0]:.17g}, {prev[1]:.17g}] at resolution {k // 2}")
        prev, prev_width = (lo, hi), width
        k *= 2

    if prev is None:
        sys.exit("error: no resolution completed")
    lo, hi = prev
    print(f"\nfinal bracket [{lo:.8f}, {hi:.8f}], midpoint {(lo + hi) / 2:.8f}")


if __name__ == "__main__":
    main()
