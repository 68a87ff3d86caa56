#!/usr/bin/env python3
"""Covering radius bracket refinement as the grid resolution doubles.

The covering radius search grids the fundamental cell with corner
aligned points, so doubling the resolution reuses every existing grid
point and the brackets are nested by construction.  This script prints
the bracket at each doubling for a chosen scenario, together with the
width and the ratio to the previous width, to show the convergence
rate (the width decays like 1/resolution).
"""

import argparse
import sys

from adelic import inhomogeneous_minimum, parse_scenario
from adelic.cli import load_scenario_text


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("scenario", nargs="?", default="Q_sqrt2",
                    help="preset name or scenario file (default Q_sqrt2)")
    ap.add_argument("--min-resolution", type=int, default=8)
    ap.add_argument("--max-resolution", type=int, default=128)
    args = ap.parse_args()

    body = parse_scenario(load_scenario_text(args.scenario)).build()
    print(f"scenario {args.scenario}: rank {body.n} over a degree "
          f"{body.field.degree} field (lattice dimension "
          f"{body.n * body.field.degree})")
    print(f"{'resolution':>10} {'lower':>12} {'upper':>12} {'width':>10} {'ratio':>7}")

    prev_width = None
    prev = None
    k = args.min_resolution
    while k <= args.max_resolution:
        lo, hi = inhomogeneous_minimum(body, resolution=k)
        width = hi - lo
        ratio = f"{width / prev_width:.3f}" if prev_width else "-"
        print(f"{k:>10} {lo:>12.8f} {hi:>12.8f} {width:>10.6f} {ratio:>7}")
        if prev is not None and not (prev[0] <= lo + 1e-12 and hi <= prev[1] + 1e-12):
            sys.exit(f"error: bracket [{lo:.17g}, {hi:.17g}] at resolution {k} does not "
                     f"nest in [{prev[0]:.17g}, {prev[1]:.17g}] at resolution {k // 2}")
        prev, prev_width = (lo, hi), width
        k *= 2

    lo, hi = prev
    print(f"\nfinal bracket [{lo:.8f}, {hi:.8f}], midpoint {(lo + hi) / 2:.8f}")


if __name__ == "__main__":
    main()
