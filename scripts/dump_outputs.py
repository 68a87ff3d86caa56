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
  with a right or a wrong `[field]` claim, on a module with entries
  near 2^50 (`LARGE_SCENARIO`), with `--all` over
  `tests/scenarios` and over a directory of an input error and a cap
  error, and with each argument error (no scenario, a scenario and
  `--all`, a missing and an empty directory), then `paper-example`: the
  exit code, stdout and stderr, as for `cli_duality`, with the
  temporary directory printed as `$TMP` and the checkout as `$ROOT`;
  last, the text and the parse and build outcome of each of a fixed,
  seeded set of edited scenarios.

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

After a diff it prints one line per record kind with changed lines, then
one summary line, which tells a change of last bits from any other:

      <kind>: changed C, F only in float hex, at most U ulp apart
    changed C of N lines: F only in float hex, at most U ulp apart; O otherwise

C counts the changed lines on the longer side of the diff.  Within one run
of changed lines, an added line pairs with the first removed line that
differs from it only in float hex, if there is one.  F counts these pairs,
U is the largest distance in doubles between a float of such a pair and
its counterpart, and O counts the other changed lines, C - F.  The kinds
are `S witness`, `S* witness`, `minima` (either side), `product` (a
transference row), `covering`, `cli` (with `cli_duality`) and `fields`; a
`transference` line of no other kind is a raised error.

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
import random
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import adelic
import adelic.cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

WORKLOADS = ("transference", "covering", "cli_duality", "fields", "cli")
ROOT = Path(__file__).resolve().parent.parent
TEST_SCENARIOS = ROOT / "tests" / "scenarios"
# (scenario, line added to its [field] section): a true and a false claim of each kind
CLAIMS = (("Q_sqrt2", "discriminant = 8"), ("Q_sqrt2", "discriminant = 7"),
          ("Q_sqrt2", "cm = true"), ("Q_i", "discriminant = -4"), ("Q_i", "cm = true"),
          ("x3-x-1_rank2_box.ini", "discriminant = -23"),
          ("x3-x-1_rank2_box.ini", "discriminant = 23"), ("x3-x-1_rank2_box.ini", "cm = true"))
EDITED = 100  # edited scenarios in the cli block
# generators with entries near 2^50 of a rank-4 Z-lattice of determinant 8: a
# nonsingular basis that reduces exactly, whose pairing with its dual basis is too
# large to round, so that `lattice_equal` decides it on the reduced pair
LARGE_GENERATORS = [[4, 5, 5, -5], [4, 6, 1, 0],
                    [1125899906842612, 1688849860263922, 281474976710639, 22],
                    [-1125899906842632, -1970324836974605, 281474976710664, -1970324836974590]]
# their module over Q, the generators being the matrix columns, under a unit ball
LARGE_SCENARIO = ("[field]\npreset = Q\n\n[module]\nrank = 4\nmatrix = [" + ", ".join(
    "[" + "; ".join(str(g[i]) for g in LARGE_GENERATORS) + "]" for i in range(4))
    + "]\n\n[body.v1]\nshape = ball\nradius = 1\n")


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
    """(header, argv) for every command and mode on every scenario and `--all` directory,
    then every argument error of each command, then `paper-example`."""
    scenarios = {name: [name] for name in adelic.PRESET_SCENARIOS}
    scenarios.update((path.name, [str(path)]) for path in sorted(TEST_SCENARIOS.glob("*.ini")))
    for i, (base, claim) in enumerate(CLAIMS):
        path = workdir / f"claim{i}.ini"
        text = adelic.cli.load_scenario_text(scenarios[base][0])
        path.write_text(text.replace("[field]\n", f"[field]\n{claim}\n", 1))
        scenarios[f"{base}[{claim}]"] = [str(path)]
    (workdir / "large.ini").write_text(LARGE_SCENARIO)
    scenarios["large-coefficients"] = [str(workdir / "large.ini")]
    failing, empty = workdir / "failing", workdir / "empty"
    failing.mkdir()
    empty.mkdir()
    (failing / "a_input.ini").write_text("[field]\npreset = Q\n")  # no module, no body
    (failing / "b_cap.ini").write_text(adelic.cli.load_scenario_text("Q_sqrt2")
                                       + "\n[options]\ncap = 1\n")
    scenarios.update({"--all tests/scenarios": ["--all", str(TEST_SCENARIOS)],
                      "--all failing": ["--all", str(failing)]})
    for name, args in scenarios.items():
        for command in adelic.cli._SCENARIO_COMMANDS:
            for mode in (["--machine"], []):
                yield " ".join(["cli", command, name, *mode]), [command, *args, *mode]
    for command in adelic.cli._SCENARIO_COMMANDS:
        for name, args in (("no scenario", []), ("Q --all", ["Q", "--all", str(failing)]),
                           ("--all missing", ["--all", str(workdir / "missing")]),
                           ("--all empty", ["--all", str(empty)])):
            yield f"cli {command} {name}", [command, *args]
    for mode in (["--machine"], []):
        yield " ".join(["cli", "paper-example", *mode]), ["paper-example", *mode]


# scenarios with the keys no packaged one has: pseudo lines, budgets, a custom
# field, an ellipsoid and a box
EDIT_BASES = {
    "pseudo": ("[field]\npreset = Q_i\n\n[module]\nrank = 2\npseudo1 = 2,0; 0,2 | 1,0; 0,0\n"
               "pseudo2 = 1,0; 0,1 | 0,0; 1,0\n\n[body.v1]\nshape = ball\nradius = 1\n\n"
               "[options]\nresolution = 4\ncap = 20000\n"),
    "custom": ("[field]\npoly = -2, 0, 1\nbasis = [[1; 0], [0; 1]]\ndiscriminant = 8\n\n"
               "[module]\nrank = 2\nmatrix = [[2,0; 0,0], [0,0; 1,0]]\n\n"
               "[body.v1]\nshape = ellipsoid\nq = [[2; 1], [1; 2]]\n\n"
               "[body.v2]\nshape = box\nhalfwidths = 1, 3/2\n"),
}
EDIT_NOISE = ("", "=", "[", "]", "#", "|", ";", ",", " ", "0", "1", "2", "-1", "1/0", "2/3", "x",
              "pseudo", "pseudo0", "pseudo01", "pseudo1", "pseudo3", "pseudox", "body.v",
              "body.v0", "body.v3",
              "options", "cap", "resolution", "shape", "ball", "box", "cross", "ellipsoid",
              "radius", "halfwidths", "scales", "q", "preset", "poly", "basis", "rank",
              "identity", "matrix", "cm", "discriminant", "true", "[[1]]", "1e400")


def edited_scenarios(count: int, seed: int = 0):
    """(base, text) of `count` scenarios, each a base after one to three random line edits.

    The bases are the packaged presets, `tests/scenarios/*.ini` and `EDIT_BASES`;
    an edit deletes, copies or moves a line, or puts a token of `EDIT_NOISE` in place
    of a piece of it, of its key or of its value.
    """
    bases = {name: adelic.cli.load_scenario_text(name) for name in adelic.PRESET_SCENARIOS}
    bases.update((path.name, path.read_text()) for path in sorted(TEST_SCENARIOS.glob("*.ini")))
    bases.update(EDIT_BASES)
    rng = random.Random(seed)
    for _ in range(count):
        base = rng.choice(sorted(bases))
        lines = bases[base].splitlines()
        for _ in range(rng.randint(1, 3)):
            i, op = rng.randrange(len(lines)), rng.randrange(6)
            if op == 0 and len(lines) > 1:
                del lines[i]
            elif op == 1:
                lines.insert(rng.randrange(len(lines) + 1), lines[i])
            elif op == 2:
                lines.insert(rng.randrange(len(lines)), lines.pop(i))
            else:  # a token in place of a piece of the line, of its key or of its value
                line, eq = lines[i], lines[i].find("=")
                start, stop = sorted(rng.randint(0, len(line)) for _ in range(2))
                if eq > 0 and op > 3:
                    start, stop = (0, eq) if op == 4 else (eq + 1, len(line))
                lines[i] = line[:start] + rng.choice(EDIT_NOISE) + line[stop:]
        yield base, "\n".join(lines) + "\n"


def scenario_lines(text):
    """The text, then what parsing and building it give: the scenario, the body, or the error."""
    yield f"text={text!r}"
    try:
        scenario = adelic.parse_scenario(text)
        yield f"parsed={scenario!r}"
        body = scenario.build()
        yield f"built rank={body.n} degree={body.field.degree} places={len(body.field.places)}"
    except Exception as exc:  # every outcome is dumped, whatever it raises
        yield f"raised {type(exc).__name__}: {exc}"


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
                        print("  " + line.replace(workdir, "$TMP").replace(str(ROOT), "$ROOT"))
                for i, (base, text) in enumerate(edited_scenarios(EDITED)):
                    print(f"cli edited i={i} base={base}")
                    for line in scenario_lines(text):
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


FLOAT_HEX = re.compile(r"-?0x[0-9a-f]+(?:\.[0-9a-f]*)?p[+-]\d+")


def ulps(a: float, b: float) -> int:
    """How many steps from one double to the next lead from a to b; the zeros count as one."""
    def ordinal(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & (1 << 63) - 1)
    return abs(ordinal(a) - ordinal(b))


def float_pairs(diff: list[str]) -> list[tuple[int, int]]:
    """(removed, added) indices into a unified diff of the lines that differ only in float hex.

    Within one run of changed lines, an added line pairs with the first
    removed line that differs from it only in float hex, if there is one.
    """
    pairs = []
    # the removed lines of this run, by their text with the float hex taken out
    removed: dict[tuple[str, ...], list[int]] = {}
    for i, line in enumerate(diff[2:], 2):
        sign, text = line[0], line[1:]
        skeleton = tuple(FLOAT_HEX.split(text))
        if sign == "-":
            removed.setdefault(skeleton, []).append(i)
        elif sign == "+" and removed.get(skeleton) and diff[removed[skeleton][0]][1:] != text:
            pairs.append((removed[skeleton].pop(0), i))
        elif sign != "+":
            removed = {}
    return pairs


def pair_ulps(diff: list[str], pair: tuple[int, int]) -> int:
    """The largest distance in doubles between a float of a pair's line and its counterpart."""
    old, new = (FLOAT_HEX.findall(diff[i]) for i in pair)
    return max(ulps(float.fromhex(a), float.fromhex(b)) for a, b in zip(old, new))


def diff_summary(diff: list[str], total: int) -> str:
    """The summary line of a unified diff of dumps; `total` lines were dumped here."""
    changed = max(sum(line[0] == sign for line in diff[2:]) for sign in "-+")
    pairs = float_pairs(diff)
    worst = max((pair_ulps(diff, pair) for pair in pairs), default=0)
    return (f"changed {changed} of {total} lines: {len(pairs)} only in float hex, "
            f"at most {worst} ulp apart; {changed - len(pairs)} otherwise")


# record kinds read off a dumped line's own prefix; any other line takes its block's
PREFIX_KINDS = (("  S witness=", "S witness"), ("  S* witness=", "S* witness"),
                ("  S minima=", "minima"), ("  S* minima=", "minima"), ("  ell=", "product"))
BLOCK_KINDS = {"cli_duality": "cli"}


def line_kinds(lines: list[str]) -> list[str]:
    """The record kind of each dumped line: by its prefix, else its block's workload."""
    kinds, block = [], None
    for line in lines:
        if not line.startswith(" "):
            block = BLOCK_KINDS.get(line.split()[0], line.split()[0])
        kinds.append(next((kind for prefix, kind in PREFIX_KINDS if line.startswith(prefix)),
                          block))
    return kinds


def kind_summaries(diff: list[str], before: list[str], after: list[str]) -> list[str]:
    """One line per record kind with changed lines: their count, float-hex pairs and ulps.

    A removed line's kind is that of its line of `before`, an added line's of
    its line of `after`; the count is the larger side, as in `diff_summary`.
    """
    old_kinds, new_kinds = line_kinds(before), line_kinds(after)
    kind, counts = {}, {}
    old = new = 0
    for i, line in enumerate(diff[2:], 2):
        if line.startswith("@@"):
            old, new = (int(field[1:].split(",")[0]) - 1 for field in line.split()[1:3])
            continue
        if line[0] == "-":
            kind[i] = old_kinds[old]
        elif line[0] == "+":
            kind[i] = new_kinds[new]
        if line[0] in "-+":
            counts.setdefault(kind[i], {"-": 0, "+": 0})[line[0]] += 1
        old += line[0] in " -"
        new += line[0] in " +"
    pairs = {}
    for pair in float_pairs(diff):
        pairs.setdefault(kind[pair[1]], []).append(pair_ulps(diff, pair))
    return [f"  {k}: changed {max(c.values())}, {len(pairs.get(k, []))} only in float hex, "
            f"at most {max(pairs.get(k, [0]))} ulp apart" for k, c in counts.items()]


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
    if diff:
        print("\n".join(kind_summaries(diff, there.splitlines(), here.getvalue().splitlines())))
    print(diff_summary(diff, len(lines)) if diff else f"identical ({len(lines)} lines)")
    return 1 if diff else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--values", action="store_true",
                    help="floats at .12g instead of float hex, and no witnesses")
    ap.add_argument("--against", metavar="DIR",
                    help="compare with the package under DIR: a unified diff, a summary line "
                         "and exit 1 on any difference, else 'identical (N lines)'")
    args = ap.parse_args()
    if args.against:
        sys.exit(against(args))
    dump(args)


if __name__ == "__main__":
    main()
