#!/usr/bin/env python3
"""Recompute perfbench/reference.json from the program in this checkout.

    python3 perfbench/make_reference.py

Run it only when the corpus slots change, on a commit whose outputs are
trusted.  Minima and covering brackets are stored at body scale 1 and
checked on every seed after scaling.  Slots that the program refuses
store no minima (the check then rests on the invariants alone), and the
default-resolution covering slot stores the bracket of its lattice at
resolution 8, which a finer grid must overlap and not exceed.
The CLI outputs are stored byte for byte for the committed seed.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction

import run


def main() -> int:
    adelic = run.import_program()
    out = {}
    for name in run.WORKLOADS:
        work = run.Workload(name, run.COMMITTED_SEED, adelic)
        work.setup()
        slots = []
        for case in work.cases:
            entry = {"slot": case.slot.name}
            unit = dataclasses.replace(case, scale=Fraction(1))
            if name == "transference":
                try:
                    rep = work.run_case(unit)
                except adelic.EnumerationCapError:
                    entry["minima"] = entry["minima_star"] = None
                else:
                    entry["minima"] = rep.report_s.minima
                    entry["minima_star"] = rep.report_sstar.minima
            elif name == "covering":
                if case.slot.resolution is None:
                    unit = dataclasses.replace(
                        unit, slot=dataclasses.replace(case.slot, resolution=8))
                rep = work.run_case(unit)
                entry["lambda1"] = rep.lambda1
                entry["mu"] = list(rep.mu_bracket)
            else:
                code, stdout = work.run_case(case)
                entry["outputs"] = {"code": code, "stdout": stdout}
            slots.append(entry)
            print(name, entry["slot"], file=sys.stderr, flush=True)
        out[name] = {"committed_seed": run.COMMITTED_SEED, "slots": slots}
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
