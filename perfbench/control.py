#!/usr/bin/env python3
"""Control worker: runs the benchmark's cases on the frozen control program.

    python3 perfbench/control.py --workload transference --seed 5

`perfbench/control/adelic` is a byte-identical copy of the program as it
was when the benchmark was defined, and is never edited.  run.py starts
this worker once per run and, for every case it times on the program
under test, asks the worker to time the same case on the control
program right before or after it.  The two times see the same host
speed, so their ratio is free of the drift of a shared host; run.py
scales it by the control's nominal time for the slot (control_times.json).

Protocol, one line each way: the request `setup` times one set-up of the
workload, a case index times that case; the answer is the wall time in
seconds.  The worker ends when its standard input closes.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONTROL_SRC = HERE / "control"
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def import_control():
    """Import the frozen copy as `adelic`; this process never sees src/."""
    sys.path.insert(0, str(CONTROL_SRC))
    import adelic
    import adelic.cli
    if Path(adelic.__file__).resolve().parent != (CONTROL_SRC / "adelic").resolve():
        sys.exit(f"error: imported adelic from {adelic.__file__}, not the control copy")
    return adelic


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    work = run.Workload(args.workload, args.seed, import_control())
    print("ready", flush=True)
    for line in sys.stdin:
        request = line.strip()
        gc.collect()
        start = time.perf_counter()
        if request == "setup":
            work.setup()
        else:
            try:
                work.run_case(work.cases[int(request)])
            except work.computational:
                pass
        print(repr(time.perf_counter() - start), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
