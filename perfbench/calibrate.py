#!/usr/bin/env python3
"""Write perfbench/control_times.json: the control program's nominal times.

    python3 perfbench/calibrate.py [--seeds 101 102 103]

For every workload and seed it times, on the control program alone,
the import probe and the set-up (each IMPORT_PROBES / SETUP_REPS times)
and one pass, and stores the medians over seeds per slot.  These
constants turn the program/control ratios that run.py measures into
seconds.  They are part of the benchmark's definition: rewriting them
rescales every end-to-end time, so run it only together with a change
of the corpus slots.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import sys

import corpus
import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    args = ap.parse_args(argv)

    out = {}
    for name in run.WORKLOADS:
        imports, setups, slots = [], [], collections.defaultdict(list)
        for seed in args.seeds:
            control = run.Control(name, seed)
            try:
                imports.append(statistics.median(
                    run.import_seconds(run.CONTROL_SRC) for _ in range(run.IMPORT_PROBES)))
                setups.append(statistics.median(
                    control.time("setup") for _ in range(run.SETUP_REPS)))
                for case in corpus.make_pass(name, seed):
                    slots[case.slot.name].append(control.time(case.index))
            finally:
                control.close()
            print(name, seed, f"pass_s={sum(v[-1] for v in slots.values()):.2f}",
                  file=sys.stderr, flush=True)
        out[name] = {
            "seeds": args.seeds,
            "import_s": statistics.median(imports),
            "setup_s": statistics.median(setups),
            "slots": {k: statistics.median(v) for k, v in slots.items()},
        }
    with open(run.HERE / "control_times.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
