#!/usr/bin/env python3
"""Canonical dump of every benchmark corpus result, for byte-for-byte comparison.

Runs each case of the seeded passes of `perfbench/corpus.py` once, as the
benchmark does, and prints one header line per case followed by its result:

- `transference`: per side (S, then its polar S*), the adelic minima and
  the classical minima as float hex, the witnesses as power-basis
  coordinates, then per row the product as float hex and both verdicts;
- `covering`: lambda_1, the mu bracket and the product bracket as float hex;
- `cli_duality`: the exit code, then stdout and stderr, each line indented;
- `fields`: once, not per seed, for every field of the corpus and every
  preset, the discriminant, the signature, the trace form, and the real
  and complex roots as float hex;
- `cli`: once, not per seed, every command with and without `--machine`
  on the packaged presets, on `tests/scenarios/*.ini` and on scenarios
  with a right or a wrong `[field]` claim, then `paper-example`: the
  exit code, stdout and stderr, as for `cli_duality`.

A case that raises prints the exception's type and message instead.
Dumping two checkouts and comparing them with `diff` shows whether a
change keeps every output bit for bit:

    PYTHONPATH=src python3 scripts/dump_outputs.py > after.txt
    PYTHONPATH=../parent/src python3 scripts/dump_outputs.py > before.txt
    diff before.txt after.txt

or in one run, which dumps the package imported here and, in a subprocess,
the one under DIR, with the same workloads, seeds and `--values`; it
prints a unified diff and exits 1 on any difference, and otherwise prints
`identical (N lines)`:

    PYTHONPATH=src python3 scripts/dump_outputs.py --against ../parent/src

With `--values` every float is printed at `.12g` instead of as float hex,
and witnesses are left out: a change that picks another reduced basis
(other witnesses, other last bits of a gauge) but keeps every minimum,
product, bracket and verdict then dumps identically.
"""

import argparse
import contextlib
import difflib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import adelic
import adelic.cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

WORKLOADS = ("transference", "covering", "cli_duality", "fields", "cli")
TEST_SCENARIOS = Path(__file__).resolve().parent.parent / "tests" / "scenarios"
# (scenario, line added to its [field] section): a true and a false claim of each kind
CLAIMS = (("Q_sqrt2", "discriminant = 8"), ("Q_sqrt2", "discriminant = 7"),
          ("Q_sqrt2", "cm = true"), ("Q_i", "discriminant = -4"), ("Q_i", "cm = true"),
          ("x3-x-1_rank2_box.ini", "discriminant = -23"),
          ("x3-x-1_rank2_box.ini", "discriminant = 23"), ("x3-x-1_rank2_box.ini", "cm = true"))


def number(v, values: bool) -> str:
    """Float hex, or with `values` the float at .12g."""
    return format(float(v), ".12g") if values else float(v).hex()


def numbers(vs, values: bool) -> str:
    return ",".join(number(v, values) for v in vs)


def kvector(xs) -> str:
    return ";".join(",".join(str(c) for c in x.coords) for x in xs)


def body(case, fields):
    """The case's adelic body, built from its plain data as the benchmark builds it."""
    slot = case.slot
    if slot.field not in fields:
        poly, basis, cm, _ = corpus.FIELDS[slot.field]
        fields[slot.field] = adelic.NumberField(poly, basis, cm_asserted=cm)
    k = fields[slot.field]
    module = adelic.module_from_matrix(k, [[k.element(e) for e in row] for row in case.matrix])
    places = []
    for (kind, _), dim, (shape, params) in zip(
            k.places, k.place_dims(slot.n), corpus.place_shapes(slot, case.scale)):
        shape = adelic.Ball(params[0]) if shape == "ball" else adelic.Box(params)
        places.append(adelic.PlaceBody(kind, dim, shape))
    return adelic.AdelicBody(module, adelic.ProductBody(k, slot.n, places))


def transference_lines(case, fields, values):
    rep = adelic.transference_check(body(case, fields))
    for side, minima in (("S", rep.report_s), ("S*", rep.report_sstar)):
        yield (f"{side} minima={numbers(minima.minima, values)} "
               f"classical={numbers(minima.classical, values)}")
        for w in [] if values else minima.witnesses:
            yield f"{side} witness={kvector(w)}"
    for row in rep.rows:
        yield (f"ell={row.ell} product={number(row.product, values)} "
               f"lower={row.lower_verdict} upper={row.upper_verdict}")


def covering_lines(case, fields, values):
    rep = adelic.mu_product_report(body(case, fields), resolution=case.slot.resolution)
    yield (f"lambda1={number(rep.lambda1, values)} mu={numbers(rep.mu_bracket, values)} "
           f"product={numbers(rep.product_bracket, values)}")


def cli_lines(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = adelic.cli.main(argv)
    yield f"exit={code}"
    yield from ("  " + line for line in out.getvalue().splitlines())
    yield from ("  stderr: " + line for line in err.getvalue().splitlines())


def cli_duality_lines(case, workdir: Path):
    path = workdir / "scenario.ini"
    path.write_text(corpus.scenario_text(case))
    yield from cli_lines([case.slot.command, str(path), "--machine"])


def cli_runs(workdir: Path):
    """(header, argv) for every command and mode on every scenario, then `paper-example`."""
    scenarios = {name: name for name in adelic.PRESET_SCENARIOS}
    scenarios.update((path.name, str(path)) for path in sorted(TEST_SCENARIOS.glob("*.ini")))
    for i, (base, claim) in enumerate(CLAIMS):
        path = workdir / f"claim{i}.ini"
        text = adelic.cli.load_scenario_text(scenarios[base])
        path.write_text(text.replace("[field]\n", f"[field]\n{claim}\n", 1))
        scenarios[f"{base}[{claim}]"] = str(path)
    for name, arg in scenarios.items():
        for command in adelic.cli._SCENARIO_COMMANDS:
            for mode in (["--machine"], []):
                yield " ".join(["cli", command, name, *mode]), [command, arg, *mode]
    for mode in (["--machine"], []):
        yield " ".join(["cli", "paper-example", *mode]), ["paper-example", *mode]


def field_lines(field, values):
    yield f"disc={field.discriminant} signature={field.signature}"
    yield f"trace_form={field.trace_form}"
    yield f"real={numbers(field.real_roots, values)}"
    yield "complex=" + ";".join(numbers((z.real, z.imag), values) for z in field.complex_roots)


def fields_blocks():
    """(header, field) for every corpus field, then every preset."""
    for name, (poly, basis, cm, _) in corpus.FIELDS.items():
        yield f"fields corpus={name}", adelic.NumberField(poly, basis, cm_asserted=cm)
    for name in adelic.PRESET_FIELDS:
        yield f"fields preset={name}", adelic.preset_field(name)


def dump(args):
    fields = {}
    with tempfile.TemporaryDirectory() as workdir:
        for workload in args.workloads:
            if workload == "fields":
                for header, field in fields_blocks():
                    print(header)
                    for line in field_lines(field, args.values):
                        print("  " + line)
                continue
            if workload == "cli":
                for header, argv in cli_runs(Path(workdir)):
                    print(header)
                    for line in cli_lines(argv):
                        print("  " + line)
                continue
            for seed in args.seeds:
                for case in corpus.make_pass(workload, seed):
                    print(f"{workload} seed={seed} case={case.index} slot={case.slot.name}")
                    if workload == "cli_duality":
                        lines = cli_duality_lines(case, Path(workdir))
                    elif workload == "transference":
                        lines = transference_lines(case, fields, args.values)
                    else:
                        lines = covering_lines(case, fields, args.values)
                    try:
                        for line in list(lines):
                            print("  " + line)
                    except (adelic.EnumerationCapError, adelic.ConditioningError,
                            adelic.DimensionLimitError) as exc:
                        print(f"  raised {type(exc).__name__}: {exc}")


def against(args) -> int:
    """Dump here and with PYTHONPATH=args.against; print the diff, or that there is none."""
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        dump(args)
    argv = [sys.executable, __file__, "--workloads", *args.workloads,
            "--seeds", *map(str, args.seeds), *(["--values"] if args.values else [])]
    env = dict(os.environ, PYTHONPATH=str(Path(args.against).resolve()))
    there = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    lines = here.getvalue().splitlines(keepends=True)
    diff = list(difflib.unified_diff(there.splitlines(keepends=True), lines,
                                     fromfile=args.against, tofile=adelic.__path__[0]))
    sys.stdout.writelines(diff)
    if not diff:
        print(f"identical ({len(lines)} lines)")
    return 1 if diff else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--values", action="store_true",
                    help="floats at .12g instead of float hex, and no witnesses")
    ap.add_argument("--against", metavar="DIR",
                    help="compare with the package under DIR: a unified diff and exit 1 on "
                         "any difference, else 'identical (N lines)'")
    args = ap.parse_args()
    if args.against:
        sys.exit(against(args))
    dump(args)


if __name__ == "__main__":
    main()
