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
  embedding of the reduced basis alone; over Q the reduction runs on
  the exact Gram matrix;
- the same over Q(zeta_8), zeta_8^4 = -1, at the ranks given by
  --reduce-cm (default 4, 7, 10: nd 16, 28, 40), where the reduction
  runs on the Gram matrix of the twisted form rounded at the roots;
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

With `--against DIR` each row also runs with PYTHONPATH=DIR, the package
imported here and the one under DIR in alternating order from one row to
the next.  Each row then shows both times, their ratio, and whether both
trees computed the same result: the outcome, and the minima in float hex
(transference and minima rows) or the reduced rows (reduction rows).  The
script exits 1 if any row's result differs:

    python3 scripts/minima_scaling.py
    python3 scripts/minima_scaling.py --cubic 2 --z 4 8 --reduce 16 --duality 4
    python3 scripts/minima_scaling.py --cubic --z 36 40 --reduce --duality --cap 10000000
    python3 scripts/minima_scaling.py --cubic --z --reduce --duality --reduce-cm 10
    python3 scripts/minima_scaling.py --reduce --reduce-cm --duality --against ../parent/src
"""

import argparse
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import adelic
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
    """One row in this process: nd, seconds, peak RSS, the outcome and a digest of the result."""
    field = {"cubic": lambda: NumberField(*CUBIC), "duality": lambda: NumberField(*CYCLOTOMIC_8),
             "reduce-cm": lambda: NumberField(*CYCLOTOMIC_8)}.get(kind, rational_field)()
    # a reduction row times the reduction and the embedding of its result alone
    lat = lattice_from_module(random_module(field, n)) if kind.startswith("reduce") else None
    if lat is not None:
        lat.basis
    start, result = time.perf_counter(), None
    try:
        if lat is not None:
            result = lat.reduced()
            result.basis
            outcome = "ok"
        else:
            body = AdelicBody(random_module(field, n), uniform_ball_body(field, n, Fraction(1)))
            if kind == "duality":
                ok = adelic_equal(adelic_polar(adelic_polar(body)), body)
                outcome = "ok" if ok else "biduality failed"
            else:
                result = (transference_check if kind == "cubic" else adelic_minima)(body, cap)
                outcome = "ok"
    except EnumerationCapError as exc:
        outcome = str(exc)
    seconds = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if lat is not None and result is not None:
        result = hashlib.sha256(repr(result.rows).encode()).hexdigest()
    elif result is not None:
        reports = (result.report_s, result.report_sstar) if kind == "cubic" else (result,)
        result = [x.hex() for report in reports for x in report.minima]
    return {"nd": n * field.degree, "seconds": seconds, "rss_mb": rss_mb, "outcome": outcome,
            "result": result}


def run_tree(tree: Path | None, kind: str, n: int, cap: int) -> dict:
    """`run_row` in a fresh process, with PYTHONPATH=tree unless tree is None."""
    env = dict(os.environ) if tree is None else dict(os.environ, PYTHONPATH=str(tree))
    proc = subprocess.run(
        [sys.executable, __file__, "--row", kind, str(n), "--cap", str(cap)],
        capture_output=True, text=True, check=True, env=env)
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cubic", nargs="*", type=int, default=[5, 6, 7],
                    help="ranks of the x^3-x-1 transference rows")
    ap.add_argument("--z", nargs="*", type=int, default=list(range(12, 37, 4)),
                    help="ranks of the Z-lattice minima rows")
    ap.add_argument("--reduce", nargs="*", type=int, default=[16, 28, 40],
                    help="ranks of the Z-lattice reduction rows")
    ap.add_argument("--reduce-cm", nargs="*", type=int, default=[4, 7, 10],
                    help="ranks of the x^4+1 reduction rows")
    ap.add_argument("--duality", nargs="*", type=int, default=list(range(4, 13, 2)),
                    help="ranks of the x^4+1 polar and biduality rows")
    ap.add_argument("--cap", type=int, default=ENUMERATION_CAP,
                    help="enumeration cap of the minima and transference rows")
    ap.add_argument("--against", metavar="DIR", type=Path,
                    help="also run every row on the package under DIR, alternating with this one")
    ap.add_argument("--row", nargs=2, metavar=("KIND", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.row:
        print(json.dumps(run_row(args.row[0], int(args.row[1]), args.cap)))
        return 0

    trees = [None] if args.against is None else [
        Path(adelic.__file__).resolve().parents[1], args.against.resolve()]
    against = " against_s  ratio" if args.against is not None else ""
    same = "  identical" if args.against is not None else ""
    print(f"{'case':<28} {'nd':>3} {'seconds':>8}{against} {'rss_mb':>7}{same}  result")
    rows = ([("cubic", n) for n in args.cubic] + [("z", n) for n in args.z]
            + [("reduce", n) for n in args.reduce] + [("reduce-cm", n) for n in args.reduce_cm]
            + [("duality", n) for n in args.duality])
    differs = False
    for i, (kind, n) in enumerate(rows):
        runs = [None] * len(trees)
        order = list(enumerate(trees))
        for j, tree in order if i % 2 == 0 else order[::-1]:
            runs[j] = run_tree(tree, kind, n, args.cap)
        row = runs[0]
        name = {"cubic": f"transference x^3-x-1 n={n}", "z": f"minima Z-lattice n={n}",
                "reduce": f"reduced() Z-lattice n={n}", "reduce-cm": f"reduced() x^4+1 n={n}",
                "duality": f"polar x^4+1 n={n}"}[kind]
        line = f"{name:<28} {row['nd']:>3} {row['seconds']:>8.3f}"
        if args.against is not None:
            other = runs[1]
            identical = all(row[key] == other[key] for key in ("nd", "outcome", "result"))
            differs |= not identical
            line += f" {other['seconds']:>9.3f} {row['seconds'] / other['seconds']:>6.2f}"
            line += f" {row['rss_mb']:>7.1f}  {'yes' if identical else 'NO':>9}"
        else:
            line += f" {row['rss_mb']:>7.1f}"
        print(f"{line}  {row['outcome']}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
