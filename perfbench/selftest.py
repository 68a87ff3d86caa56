#!/usr/bin/env python3
"""Self-test of the benchmark, a few seconds per workload.

    python3 perfbench/selftest.py

Runs every workload on a tiny corpus (the first slots of each pass),
untraced and traced, and asserts that the last line names exactly the
metrics of BENCHMARK.json; checks that the correctness check rejects
deliberately corrupted results; and checks that a seed always yields
the same corpus and that control_times.json covers exactly its slots.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import sys
from fractions import Fraction

import corpus
import run

TINY = {"transference": 3, "covering": 3, "cli_duality": 2}


def last_json(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def check_metrics(spec):
    full = dict(corpus.WORKLOAD_SLOTS)
    try:
        for name, size in TINY.items():
            corpus.WORKLOAD_SLOTS[name] = full[name][:size]
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                res = last_json(["--workload", name, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace)])
                assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
                assert res["correct"] and res["attempted"] >= size, res
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {m: v["unit"] for m, v in res["metrics"].items()}
                assert got == want, (name, trace, set(got) ^ set(want))
                assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    finally:
        corpus.WORKLOAD_SLOTS.update(full)


def corruptions(name, result, committed):
    """Copies of a correct result, each wrong in one way."""
    if name == "transference":
        for mutate in (
            lambda r: r.report_s.minima.__setitem__(0, r.report_s.minima[0] * 1.001),
            lambda r: r.report_sstar.minima.__setitem__(-1, r.report_sstar.minima[-1] * 0.999),
            lambda r: r.report_s.witnesses.__setitem__(0, tuple(2 * x for x in
                                                                r.report_s.witnesses[0])),
            lambda r: r.report_sstar.witnesses.__setitem__(1, r.report_sstar.witnesses[0]),
            lambda r: setattr(r.rows[0], "upper_verdict", "fail"),
        ):
            bad = copy.deepcopy(result)
            mutate(bad)
            yield bad
    elif name == "covering":
        lo, hi = result.mu_bracket
        wrong = [("mu_bracket", (hi, lo)), ("mu_bracket", (hi * 1.5, hi * 1.6)),
                 ("lambda1", result.lambda1 * 1.01)]
        if committed:  # the width is pinned on the committed seed only
            wrong.append(("mu_bracket", (lo * 0.9, hi)))
        for field, value in wrong:
            bad = copy.copy(result)
            setattr(bad, field, value)
            if field == "mu_bracket":
                bad.product_bracket = (bad.lambda1 * value[0], bad.lambda1 * value[1])
            yield bad
    else:
        code, stdout = result
        yield 1, stdout
        yield code, stdout.replace("true", "false")
        yield code, stdout + "extra\n"
        # double the first dual ideal: a proper submodule of the dual
        doubled = re.sub(r"ideal=\[([^\]]*)\]", lambda m: "ideal=[" + ";".join(
            ",".join(str(2 * Fraction(c)) for c in e.split(",")) for e in m.group(1).split(";"))
            + "]", stdout, count=1)
        if doubled != stdout:
            yield code, doubled


def check_rejects(adelic):
    for name in run.WORKLOADS:
        for seed in (run.COMMITTED_SEED, 5):
            work = run.Workload(name, seed, adelic)
            work.setup()
            for case in work.cases[:TINY[name]]:
                result = work.run_case(case)
                assert work.check(case, result) is None, (name, case.index)
                for bad in corruptions(name, result, seed == run.COMMITTED_SEED):
                    assert work.check(case, bad) is not None, (name, case.index, bad)


def check_determinism():
    for name in run.WORKLOADS:
        nominal = run.load_control_times(name)["slots"]
        assert set(nominal) == {s.name for s in corpus.WORKLOAD_SLOTS[name]}, name
        a, b, c = (corpus.make_pass(name, s) for s in (7, 7, 8))
        assert len(a) >= 40, name  # keeps 10 cases beyond the tail percentile in one pass
        assert a == b, name
        assert [x.matrix for x in a] != [x.matrix for x in c], name
        texts = [corpus.scenario_text(x) for x in a]
        assert texts == [corpus.scenario_text(x) for x in b], name


def main() -> int:
    adelic = run.import_program()
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_determinism()
    check_rejects(adelic)
    check_metrics(spec)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
