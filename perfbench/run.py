#!/usr/bin/env python3
"""Benchmark of the adelic package: one workload per process, closed loop.

    python3 perfbench/run.py --workload transference --seed 1 --seconds 30 --trace 0

A single client runs the cases of a seeded pass one after another, with
no threads, and repeats whole passes while another pass still fits in
--seconds.  Each case builds its module and bodies from plain data,
calls the public library function (or the CLI `main` in process), and
is checked for correctness after its timer stops.  With --trace 0 the
last line holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of one traced set-up and one traced pass, measured by
wrappers installed from tracing.py, and the tracing overhead against an
untraced pass over the same cases.  The last line is always one JSON
object: {"correct", "attempted", "failed", "metrics"}.

End-to-end times are host-normalised: next to every timed case (and
set-up and import probe) a worker process (control.py) times the same
case on a frozen copy of the program, and the reported time is the
program's wall time times the control's nominal time for that slot
(control_times.json) over the control's wall time measured beside it.
The raw wall-time figures are printed on the line before the result.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: the benchmark measures a single client
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONTROL_SRC = HERE / "control"
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("transference", "covering", "cli_duality")
COMMITTED_SEED = 1          # the seed whose CLI output is stored byte for byte
SETUP_REPS = 3              # set-up is repeated and its median reported
IMPORT_PROBES = 3
TAIL_PERCENTILE = 75        # every pass has at least 40 cases, so >= 10 lie beyond it
BAND = 10                   # percentile points on each side of a percentile estimate
FAILED_LATENCY_S = 1e9      # a failed or wrong case counts as infinitely slow

PER_LAYER_TIMES = {
    "numberfield.build_s": "numberfield.build", "numberfield.embed_s": "numberfield.embed",
    "omodules.trace_dual_s": "omodules.trace_dual", "omodules.krank_s": "omodules.krank",
    "exactla.rank_s": "exactla.rank", "exactla.mat_inv_s": "exactla.mat_inv",
    "lattices.lll_s": "lattices.lll", "lattices.enum_s": "lattices.enum",
    "lattices.preimage_s": "lattices.preimage", "lattices.cover_s": "lattices.cover",
    "lattices.duality_check_s": "lattices.duality_check", "bodies.gauge_s": "bodies.gauge",
    "transference.minima_s": "transference.minima", "transference.polar_s": "transference.polar",
    "scenario.parse_s": "scenario.parse", "scenario.build_s": "scenario.build",
    "cli.main_s": "cli.main",
}
PER_LAYER_COUNTS = {
    "numberfield.elem_mul": "numberfield.elem_mul",
    "omodules.trace_dual_calls": "omodules.trace_dual.calls",
    "omodules.krank_tries": "omodules.krank.calls",
    "omodules.krank_accepts": "omodules.krank.accepts",
    "exactla.rank_tries": "exactla.rank.calls", "exactla.rank_accepts": "exactla.rank.accepts",
    "exactla.mat_inv_calls": "exactla.mat_inv.calls", "lattices.lll_calls": "lattices.lll.calls",
    "lattices.enum_rounds": "lattices.enum.calls", "lattices.enum_points": "lattices.enum.points",
    "lattices.preimages": "lattices.preimage.calls", "lattices.cover_calls": "lattices.cover.calls",
    "bodies.gauge_calls": "bodies.gauge.calls", "bodies.gauge_rows": "bodies.gauge.rows",
    "transference.minima_calls": "transference.minima.calls",
    "transference.witnesses": "transference.minima.witnesses",
}


def import_program():
    """Import adelic from the checkout's src/, and from nowhere else."""
    pkg = SRC / "adelic"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: the program's source is missing ({pkg} not found)")
    sys.path.insert(0, str(SRC))
    import adelic
    import adelic.cli
    if Path(adelic.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported adelic from {adelic.__file__}, not from {pkg}")
    return adelic


def import_seconds(src: Path) -> float:
    """Wall time of a fresh interpreter that imports the package from src."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import adelic"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - start


class Control:
    """The control worker (control.py): times set-ups and cases on the frozen
    copy of the program, one request at a time, while this process waits."""

    def __init__(self, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "control.py"), "--workload", workload,
             "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the control worker did not start")

    def time(self, request) -> float:
        self.proc.stdin.write(f"{request}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the control worker died on request {request!r}")
        return float(line)

    def close(self):
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def paired(run_program, run_control, reps: int) -> float:
    """Median over reps of program time / control time, each pair timed back
    to back and in alternating order."""
    ratios = []
    for rep in range(reps):
        if rep % 2:
            control_s = run_control()
            program_s = run_program()
        else:
            program_s = run_program()
            control_s = run_control()
        ratios.append(program_s / control_s)
    return statistics.median(ratios)


class Refused(Exception):
    """The CLI gave up on a computation (exit code 3)."""


class Workload:
    """One workload's pass, the call that runs a case, and its check."""

    def __init__(self, name: str, seed: int, adelic):
        self.name = name
        self.seed = seed
        self.adelic = adelic
        self.computational = (adelic.EnumerationCapError, adelic.ConditioningError,
                              adelic.DimensionLimitError, Refused)
        self.reference = None

    # -- set-up: fields, corpus, warm-up -------------------------------------

    def setup(self):
        self.cases = corpus.make_pass(self.name, self.seed)
        names = sorted({c.slot.field for c in self.cases})
        self.oracles = {f: check.Oracle(f) for f in names}
        if self.name == "cli_duality":
            # users pay field construction on every invocation, so it stays in the case
            WORK.mkdir(parents=True, exist_ok=True)
            self.paths = {}
            for case in self.cases:
                path = WORK / f"{self.seed}-{case.slot.key.replace('/', '_')}-{case.slot.body}.ini"
                path.write_text(corpus.scenario_text(case))
                self.paths[case.index] = path
        else:
            self.fields = {}
            for f in names:
                poly, basis, cm, _ = corpus.FIELDS[f]
                self.fields[f] = self.adelic.NumberField(poly, basis, cm_asserted=cm)
        self.run_case(self.cases[0])

    # -- one case ------------------------------------------------------------

    def run_case(self, case):
        if self.name == "cli_duality":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.adelic.cli.main([case.slot.command, str(self.paths[case.index]),
                                             "--machine"])
            if code == 3:
                raise Refused(err.getvalue().strip())
            return code, out.getvalue()
        if self.name == "transference":
            return self.adelic.transference_check(self.body(case))
        return self.adelic.mu_product_report(self.body(case), resolution=case.slot.resolution)

    def body(self, case):
        """A fresh module and fresh place bodies from the case's plain data."""
        a, slot = self.adelic, case.slot
        k = self.fields[slot.field]
        module = a.module_from_matrix(k, [[k.element(e) for e in row] for row in case.matrix])
        places = []
        for (kind, _), dim, (shape, params) in zip(
                k.places, k.place_dims(slot.n), corpus.place_shapes(slot, case.scale)):
            shape = a.Ball(params[0]) if shape == "ball" else a.Box(params)
            places.append(a.PlaceBody(kind, dim, shape))
        return a.AdelicBody(module, a.ProductBody(k, slot.n, places))

    def check(self, case, result) -> str | None:
        if self.reference is None:
            with open(HERE / "reference.json") as fh:
                self.reference = json.load(fh)[self.name]
        ref = self.reference["slots"][case.index]
        if ref["slot"] != case.slot.name:
            raise RuntimeError("reference.json does not match the corpus slots")
        oracle = self.oracles[case.slot.field]
        if self.name == "transference":
            return check.check_transference(case, result, oracle, ref)
        if self.name == "covering":
            return check.check_covering(case, result, oracle, ref, self.seed == COMMITTED_SEED)
        code, stdout = result
        stored = ref["outputs"] if self.seed == COMMITTED_SEED else None
        return check.check_cli(case, code, stdout, oracle, stored)


class Record(NamedTuple):
    case: corpus.Case
    seconds: float          # wall time on the program
    status: str             # "ok", "raised" or "wrong"
    detail: str
    control_s: float | None  # wall time of the same case on the control, beside it


def time_case(work: Workload, case):
    """(seconds, status, detail, result) of one case on the program."""
    gc.collect()
    start = time.perf_counter()
    try:
        result = work.run_case(case)
    except work.computational as exc:
        return time.perf_counter() - start, "raised", type(exc).__name__, None
    except Exception as exc:  # a crash is a wrong answer, not a refusal
        return time.perf_counter() - start, "wrong", repr(exc), None
    return time.perf_counter() - start, "ok", "", result


def run_pass(work: Workload, records: list, control: Control | None = None):
    """Run every case once, beside the control if given; append Records."""
    for case in work.cases:
        control_first = control is not None and case.index % 2 == 1
        control_s = control.time(case.index) if control_first else None
        seconds, status, detail, result = time_case(work, case)
        if control is not None and not control_first:
            control_s = control.time(case.index)
        if status == "ok":
            try:
                reason = work.check(case, result)
            except Exception as exc:  # output the check cannot even read
                reason = f"check raised {exc!r}"
            if reason is not None:
                status, detail = "wrong", reason
        records.append(Record(case, seconds, status, detail, control_s))


def percentile(values, p):
    """The p-th percentile, estimated as the mean of the values ranked within
    BAND percentile points of it.  A single order statistic jumps with the
    noise of the one case that lands on it; the band averages about a fifth
    of the cases and still follows the percentile."""
    ordered = sorted(values)
    lo = int(len(ordered) * (p - BAND) / 100)
    hi = max(lo + 1, math.ceil(len(ordered) * (p + BAND) / 100))
    return statistics.fmean(ordered[lo:hi])


def write_records(records, path):
    with open(path, "w") as fh:
        for case, seconds, status, detail, control_s in records:
            fh.write(json.dumps({"case": case.index, "slot": case.slot.name,
                                 "seconds": seconds, "control_s": control_s,
                                 "status": status, "detail": detail}) + "\n")


def load_control_times(workload: str) -> dict:
    with open(HERE / "control_times.json") as fh:
        return json.load(fh)[workload]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the program, the control worker and the import probes share one CPU, so
    # each pair of times sees the same contention from the rest of the host
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    adelic = import_program()
    work = Workload(args.workload, args.seed, adelic)
    WORK.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"

    def timed_setup():
        start = time.perf_counter()
        work.setup()
        return time.perf_counter() - start

    records: list = []
    passes = 0
    control = None if args.trace else Control(args.workload, args.seed)
    try:
        if control is None:
            timed_setup()
        else:
            import_ratio = paired(lambda: import_seconds(SRC),
                                  lambda: import_seconds(CONTROL_SRC), IMPORT_PROBES)
            setup_ratio = paired(timed_setup, lambda: control.time("setup"), SETUP_REPS)
        run_start = time.perf_counter()
        while True:
            run_pass(work, records, control)
            passes += 1
            elapsed = time.perf_counter() - run_start
            if args.trace or elapsed * (passes + 1) / passes > args.seconds:
                break
        loop_s = time.perf_counter() - run_start
    finally:
        if control is not None:
            control.close()
    untraced = list(records)

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            work.setup()
            traced: list = []
            run_pass(work, traced)
        finally:
            tracer.uninstall()
        records += traced
        tracer.write_spans(WORK / f"spans-{tag}.jsonl")
    write_records(records, WORK / f"cases-{tag}.jsonl")

    attempted = len(records)
    ok = sum(1 for r in records if r.status == "ok")
    wrong = sum(1 for r in records if r.status == "wrong")
    failed = attempted - ok
    print(f"workload={args.workload} seed={args.seed} passes={passes} "
          f"cases_per_pass={len(work.cases)} setup_reps={SETUP_REPS}")
    print(f"failed_frac={failed / attempted:.6g} failed={failed} attempted={attempted} "
          f"raised={failed - wrong} wrong={wrong}")
    failures = sorted({(r.case.slot.name, r.status, r.detail) for r in records if r.status != "ok"})
    for name, status, detail in failures:
        print(f"failure slot={name} status={status} detail={detail}")

    if args.trace:
        times = tracer.self_times()
        counts = tracer.counts
        metrics = {m: (times.get(k, 0.0), "s") for m, k in PER_LAYER_TIMES.items()}
        metrics.update({m: (counts.get(k, 0), "count") for m, k in PER_LAYER_COUNTS.items()})
        points = counts.get("lattices.enum.points", 0)
        kept = counts.get("transference.minima.witnesses", 0)
        metrics["transference.witness_yield"] = (kept / points if points else 0.0, "ratio")
        print(f"witness_yield witnesses={kept} enum_points={points}")
        base = sum(r.seconds for r in untraced)
        metrics["trace_overhead_frac"] = (sum(r.seconds for r in traced) / base - 1, "ratio")
    else:
        nominal = load_control_times(args.workload)
        raw = [r.seconds for r in records]
        normalised = [r.seconds * nominal["slots"][r.case.slot.name] / r.control_s
                      for r in records]

        def summary(seconds):
            latency = [s if r.status == "ok" else FAILED_LATENCY_S
                       for s, r in zip(seconds, records)]
            return (ok / sum(seconds), percentile(latency, 50),
                    percentile(latency, TAIL_PERCENTILE))

        beyond = attempted - math.ceil(attempted * TAIL_PERCENTILE / 100)
        print(f"case_tail_s percentile={TAIL_PERCENTILE} band={BAND} cases_beyond={beyond} "
              f"timed_s={sum(raw):.3f} loop_s={loop_s:.3f}")
        print("raw wall time: cases_per_s={:.4g} case_p50_s={:.4g} case_tail_s={:.4g} "
              "program/control={:.4g} import/control={:.4g} setup/control={:.4g}".format(
                  *summary(raw), sum(raw) / sum(r.control_s for r in records),
                  import_ratio, setup_ratio))
        cases_per_s, p50, tail = summary(normalised)
        metrics = {
            "cases_per_s": (cases_per_s, "1/s"),
            "case_p50_s": (p50, "s"),
            "case_tail_s": (tail, "s"),
            "ok_frac": (ok / attempted, "ratio"),
            "setup_s": (import_ratio * nominal["import_s"] + setup_ratio * nominal["setup_s"],
                        "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
