#!/usr/bin/env python3
"""Scale probe for the successive minima search: seconds and peak RSS per case.

Reproduces the scale rows of ROADMAP.md.  Each row runs in a fresh
process, so its peak RSS is its own:

- `transference_check` over Q(theta), theta^3 = theta + 1, at the ranks
  given by --cubic (default 5, 6, 7: nd 15, 18, 21);
- `adelic_minima` of a Z-lattice at the ranks given by --z (default
  12 to 36 in steps of 4);
- `EmbeddedLattice.reduced()` of a Z-lattice at the ranks given by
  --reduce (default 16, 28, 40), timing the LLL reduction and the
  embedding of the reduced basis alone;
- `adelic_polar` and the biduality check `adelic_equal(adelic_polar(
  star), body)` that `adelic polar` prints, over Q(zeta_8), zeta_8^4 = -1,
  at the ranks given by --duality (default 4 to 12 in steps of 2: nd 16
  to 48).

Modules are A O^n for an n x n matrix A whose entries have coordinates
random.Random(0).randint(-3, 3), drawn row by row and redrawn while
A is singular (`random_module`, which the tests share); every place
carries the unit ball.  Each row prints nd, wall seconds (module, body
and search, or the reduction with its embedding, by time.perf_counter),
peak RSS in MB, and "ok", the enumeration cap message or "biduality
failed".
--cap N sets the enumeration cap of every minima and transference row
(default `adelic.lattices.ENUMERATION_CAP`).

    python3 scripts/minima_scaling.py
    python3 scripts/minima_scaling.py --cubic 2 --z 4 8 --reduce 16 --duality 4
    python3 scripts/minima_scaling.py --cubic --z 36 40 --reduce --duality --cap 10000000
"""

import argparse
import json
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction

from adelic import (
    AdelicBody,
    EnumerationCapError,
    NumberField,
    adelic_equal,
    adelic_minima,
    adelic_polar,
    lattice_from_module,
    module_from_matrix,
    rational_field,
    transference_check,
    uniform_ball_body,
)
from adelic.lattices import ENUMERATION_CAP

CUBIC = ([-1, -1, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
CYCLOTOMIC_8 = ([1, 0, 0, 0, 1], [[int(i == j) for j in range(4)] for i in range(4)])


def random_module(field, n, seed=0):
    """A O^n for an n x n matrix A with coordinates random.Random(seed).randint(-3, 3).

    Entries are drawn row by row, each as its d coordinates, and the
    whole matrix is redrawn while it is singular.
    """
    rng = random.Random(seed)
    while True:
        a = [[field.element([rng.randint(-3, 3) for _ in range(field.degree)])
              for _ in range(n)] for _ in range(n)]
        try:
            return module_from_matrix(field, a)
        except ValueError:
            continue


def run_row(kind: str, n: int, cap: int) -> dict:
    """One row in this process: nd, seconds, peak RSS and the outcome."""
    field = {"cubic": lambda: NumberField(*CUBIC),
             "duality": lambda: NumberField(*CYCLOTOMIC_8)}.get(kind, rational_field)()
    # a reduction row times the reduction and the embedding of its result alone
    lat = lattice_from_module(random_module(field, n)) if kind == "reduce" else None
    if lat is not None:
        lat.basis
    start = time.perf_counter()
    try:
        if lat is not None:
            lat.reduced().basis
            outcome = "ok"
        else:
            body = AdelicBody(random_module(field, n), uniform_ball_body(field, n, Fraction(1)))
            if kind == "duality":
                ok = adelic_equal(adelic_polar(adelic_polar(body)), body)
                outcome = "ok" if ok else "biduality failed"
            else:
                (transference_check if kind == "cubic" else adelic_minima)(body, cap)
                outcome = "ok"
    except EnumerationCapError as exc:
        outcome = str(exc)
    seconds = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"nd": n * field.degree, "seconds": seconds, "rss_mb": rss_mb, "outcome": outcome}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cubic", nargs="*", type=int, default=[5, 6, 7],
                    help="ranks of the x^3-x-1 transference rows")
    ap.add_argument("--z", nargs="*", type=int, default=list(range(12, 37, 4)),
                    help="ranks of the Z-lattice minima rows")
    ap.add_argument("--reduce", nargs="*", type=int, default=[16, 28, 40],
                    help="ranks of the Z-lattice reduction rows")
    ap.add_argument("--duality", nargs="*", type=int, default=list(range(4, 13, 2)),
                    help="ranks of the x^4+1 polar and biduality rows")
    ap.add_argument("--cap", type=int, default=ENUMERATION_CAP,
                    help="enumeration cap of the minima and transference rows")
    ap.add_argument("--row", nargs=2, metavar=("KIND", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.row:
        print(json.dumps(run_row(args.row[0], int(args.row[1]), args.cap)))
        return

    print(f"{'case':<28} {'nd':>3} {'seconds':>8} {'rss_mb':>7}  result")
    rows = ([("cubic", n) for n in args.cubic] + [("z", n) for n in args.z]
            + [("reduce", n) for n in args.reduce] + [("duality", n) for n in args.duality])
    for kind, n in rows:
        proc = subprocess.run(
            [sys.executable, __file__, "--row", kind, str(n), "--cap", str(args.cap)],
            capture_output=True, text=True, check=True)
        row = json.loads(proc.stdout.splitlines()[-1])
        name = {"cubic": f"transference x^3-x-1 n={n}", "z": f"minima Z-lattice n={n}",
                "reduce": f"reduced() Z-lattice n={n}",
                "duality": f"polar x^4+1 n={n}"}[kind]
        print(f"{name:<28} {row['nd']:>3} {row['seconds']:>8.3f} {row['rss_mb']:>7.1f}  "
              f"{row['outcome']}")


if __name__ == "__main__":
    main()
