"""Command-line front end: scenario files in, deterministic reports out.

`main` runs every command in one loop over its runs: the named scenario
file or preset, each `*.ini` file of `--all DIR` under a `scenario file=`
line, or the packaged `Q_sqrt2` preset for `paper-example`.  A run that
fails prints `error: ...` on stderr and ends `main`; under `--all` it
prints `error kind=input|computational detail=...` and the next file runs.

Exit codes: 0 success/pass, 1 a checked bound or identity failed,
2 input problem (arguments, files, scenario text), 3 computational
failure (enumeration cap, conditioning, dimension limit); under `--all`
the worst of its runs.

`polar`, `--help` and input errors stay in the exact layer and load no
numpy; the commands that search or embed import the float layer
(`lattices`, `transference`) when they run.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .bodies import AdelicBody, adelic_equal, adelic_polar
from .errors import (
    ENUMERATION_CAP,
    RESOLUTION,
    ConditioningError,
    DimensionLimitError,
    EnumerationCapError,
    ScenarioError,
)
from .scenario import OPTION_MINIMA, PRESET_SCENARIOS, _shape_text, parse_scenario


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_kvector(vec) -> str:
    return "[" + ";".join(",".join(str(c) for c in x.coords) for x in vec) + "]"


class _Report:
    """Collects output lines; human prose is dropped under --machine."""

    def __init__(self, machine: bool):
        self.machine = machine
        self.lines: list[str] = []

    def human(self, text: str = ""):
        if not self.machine:
            self.lines.append(text)

    def line(self, text: str):
        self.lines.append(text)

    def emit(self):
        sys.stdout.write("".join(f"{ln}\n" for ln in self.lines))


def _read_scenario_file(path: Path) -> str:
    """The file's text; a directory or an unreadable or non-UTF-8 file is bad input."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {str(path)!r}: {exc}") from None


def _preset_text(name: str) -> str:
    return (resources.files("adelic") / "scenarios" / f"{name}.ini").read_text()


def load_scenario_text(name: str) -> str:
    """A scenario file's text, or else the packaged preset of that name."""
    p = Path(name)
    if p.exists():
        return _read_scenario_file(p)
    if name in PRESET_SCENARIOS:
        return _preset_text(name)
    raise ScenarioError(
        f"no scenario file {name!r} and no preset of that name "
        f"(presets: {', '.join(PRESET_SCENARIOS)})")


def _build(args, text: str) -> tuple[AdelicBody, dict[str, int]]:
    """The scenario's body and its budgets: each flag beats its [options] key beats the default."""
    scn = parse_scenario(text)
    defaults = {"resolution": RESOLUTION, "cap": ENUMERATION_CAP}
    budgets = {key: next(v for v in (getattr(args, key), getattr(scn, key), defaults[key])
                         if v is not None) for key in OPTION_MINIMA}
    return scn.build(), budgets


def _field_header(rep: _Report, body: AdelicBody):
    f = body.field
    r, s = f.signature
    rep.human(f"field: {f.name or 'custom'} of degree {f.degree}, "
              f"signature ({r},{s}), discriminant {f.discriminant}")
    rep.human(f"module rank: {body.n}; lattice dimension: {body.n * f.degree}")


def _minima_lines(rep: _Report, report, d: int):
    for i, (lam, p, w) in enumerate(
            zip(report.minima, report.points, report.witnesses), start=1):
        rep.line(f"lambda_{i}={_fmt(lam)} coords=[{','.join(map(str, p.coords))}] "
                 f"preimage={_fmt_kvector(w)}")
    for ell, slack in enumerate(report.thunder_slacks, start=1):
        bound = report.classical[(ell - 1) * d]
        rep.line(f"thunder ell={ell} lambda={_fmt(report.minima[ell - 1])} "
                 f"classical_bound={_fmt(bound)} slack={_fmt(slack)}")


def cmd_polar(body: AdelicBody, rep: _Report, cap: int, resolution: int) -> int:
    star = adelic_polar(body)
    _field_header(rep, body)
    rep.human("polar body:")
    rep.line(f"polar conjugated={'true' if star.conjugated else 'false'}")
    for i, (ideal, vec) in enumerate(star.finite_part.pseudo, start=1):
        rep.line(f"polar dual_pseudo i={i} ideal={_fmt_kvector(ideal.zbasis)} "
                 f"vector={_fmt_kvector(vec)}")
    for i, pb in enumerate(star.infinite_part.place_bodies, start=1):
        rep.line(f"polar place={i} {_shape_text(pb.shape)}")
    ok = adelic_equal(adelic_polar(star), body)
    rep.line(f"polar biduality={'pass' if ok else 'fail'}")
    return 0 if ok else 1


def cmd_minima(body: AdelicBody, rep: _Report, cap: int, resolution: int) -> int:
    from .transference import adelic_minima
    report = adelic_minima(body, cap)
    _field_header(rep, body)
    rep.human("adelic successive minima with witnesses:")
    _minima_lines(rep, report, body.field.degree)
    return 0


def cmd_transference(body: AdelicBody, rep: _Report, cap: int, resolution: int) -> int:
    from .transference import transference_check
    tr = transference_check(body, cap)
    _field_header(rep, body)
    fl = tr.flags
    rep.human(f"hypotheses: totally_real={fl.totally_real} cm={fl.cm} "
              f"(asserted: {fl.cm_was_asserted})")
    if tr.lower is not None:
        rep.human(f"bounds: {_fmt(tr.lower)} <= product <= {_fmt(tr.upper)}")
    else:
        rep.human(f"bounds: product <= {_fmt(tr.upper)} (lower bound not applicable)")
    for row in tr.rows:
        lower_txt = _fmt(tr.lower) if tr.lower is not None else "n/a"
        rep.line(f"transfer ell={row.ell} lambda_S={_fmt(row.lambda_s)} "
                 f"lambda_Sstar={_fmt(row.lambda_sstar)} product={_fmt(row.product)} "
                 f"lower={lower_txt} upper={_fmt(tr.upper)} verdict={row.verdict}")
    rep.human("overall: " + ("pass" if tr.passed else "FAIL"))
    return 0 if tr.passed else 1


def cmd_mu(body: AdelicBody, rep: _Report, cap: int, resolution: int) -> int:
    from .transference import mu_product_report
    mu = mu_product_report(body, resolution, cap)
    _field_header(rep, body)
    rep.human("product of the first minimum with the polar covering radius:")
    lo, hi = mu.mu_bracket
    plo, phi = mu.product_bracket
    rep.line(f"muproduct lambda1={_fmt(mu.lambda1)} mu_lower={_fmt(lo)} mu_upper={_fmt(hi)} "
             f"product_lower={_fmt(plo)} product_upper={_fmt(phi)} "
             f"reference={_fmt(mu.reference)}")
    rep.human("(the reference value nd(1+log nd) carries an unquantified constant; "
              "no verdict is attached)")
    return 0


def cmd_verify_duality(body: AdelicBody, rep: _Report, cap: int, resolution: int) -> int:
    from .lattices import lattice_equal
    _field_header(rep, body)
    star = adelic_polar(body)
    body.field.places  # the roots, first read here, fail with their own message
    try:
        ok = lattice_equal(body.lattice(), star.lattice())
    except ConditioningError as exc:
        raise ConditioningError(f"duality check: {exc}") from exc
    rep.human("polar lattice of the embedded module vs mirror-embedded dual module:")
    rep.line(f"duality rank={body.n} equal={'true' if ok else 'false'}")
    return 0 if ok else 1


def cmd_paper_example(body: AdelicBody, rep: _Report, cap: int, resolution: int) -> int:
    from .transference import transference_check
    disc = body.field.discriminant
    rows, s = adelic_polar(body).finite_part.int_flat
    got = sorted(tuple(Fraction(x, s) for x in row) for row in rows)
    want = sorted([(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 4))])
    got_txt, want_txt = (";".join(",".join(map(str, v)) for v in vs) for vs in (got, want))
    tr = transference_check(body, cap)
    row, target = tr.rows[0], 2 ** 0.5 / 4
    checks = [
        ("discriminant", str(disc), "8", disc == 8),
        ("dual_basis", got_txt, want_txt, got == want),
        ("lambda1_S", _fmt(row.lambda_s), "1", abs(row.lambda_s - 1.0) < 1e-9),
        ("lambda1_Sstar", _fmt(row.lambda_sstar), _fmt(target),
         abs(row.lambda_sstar - target) < 1e-9),
        ("product_equals_lower_bound", _fmt(row.product), _fmt(tr.lower),
         abs(row.product - tr.lower) < 1e-9),
    ]
    rep.human("reproduction of the worked example over Q(sqrt 2):")
    for name, got_v, want_v, ok in checks:
        rep.line(f"paper-example {name}={got_v} expected={want_v} "
                 f"ok={'true' if ok else 'false'}")
    all_ok = all(ok for *_, ok in checks)
    rep.human("overall: " + ("pass" if all_ok else "FAIL"))
    return 0 if all_ok else 1


_SCENARIO_COMMANDS = {
    "polar": cmd_polar,
    "minima": cmd_minima,
    "transference": cmd_transference,
    "mu": cmd_mu,
    "verify-duality": cmd_verify_duality,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="adelic",
        description="Convex bodies over the adeles: polars, minima, transference bounds.")
    # each command takes the budget flags it reads, and no other; a budget it
    # has no flag for is None here, so _build falls to the [options] key
    ap.set_defaults(**dict.fromkeys(OPTION_MINIMA))
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, budgets in (
        ("polar", "dual module and polar bodies of a scenario", ()),
        ("minima", "adelic successive minima with exact witnesses", ("cap",)),
        ("transference", "minima products against both transference bounds", ("cap",)),
        ("mu", "first minimum times polar covering radius bracket", ("resolution", "cap")),
        ("verify-duality", "check the polar lattice against the embedded dual module", ()),
        ("paper-example", "reproduce the worked example over Q(sqrt 2)", ("cap",)),
    ):
        p = sub.add_parser(name, help=help_text)
        if name != "paper-example":
            p.add_argument("scenario", nargs="?",
                           help="scenario file or preset name "
                                f"({', '.join(PRESET_SCENARIOS)})")
            p.add_argument("--all", metavar="DIR", default=None,
                           help="run on every .ini file in DIR")
        for key, metavar, text in (("resolution", "K", "covering radius grid resolution per axis"),
                                   ("cap", "N", "enumeration node/point cap")):
            if key in budgets:
                p.add_argument(f"--{key}", type=int, default=None, metavar=metavar, help=text)
        p.add_argument("--machine", action="store_true",
                       help="emit machine-readable lines only")
    return ap


# errors of a computation that gives up (exit code 3)
_COMPUTATIONAL = (EnumerationCapError, ConditioningError, DimensionLimitError)


def _refused(message: str) -> list:
    """One run that fails with `message`, as a bad scenario does."""
    def read():
        raise ScenarioError(message)
    return [(None, read)]


def _runs(args) -> list:
    """(header, reader of the scenario text) of each run; only the runs of --all have a header."""
    if args.command == "paper-example":  # never a local file of that name
        return [(None, functools.partial(_preset_text, "Q_sqrt2"))]
    if args.all is None:
        if args.scenario is None:
            return _refused("a scenario file or preset name is required")
        return [(None, functools.partial(load_scenario_text, args.scenario))]
    if args.scenario is not None:
        return _refused("give either a scenario or --all, not both")
    if not Path(args.all).is_dir():
        return _refused(f"{args.all!r} is not a directory")
    return [(f"scenario file={path}", functools.partial(_read_scenario_file, path))
            for path in sorted(Path(args.all).glob("*.ini"))
            ] or _refused(f"no .ini files in {args.all!r}")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    for key, least in OPTION_MINIMA.items():
        if getattr(args, key) is not None and getattr(args, key) < least:
            ap.error(f"argument --{key}: must be at least {least}")

    command = _SCENARIO_COMMANDS.get(args.command, cmd_paper_example)
    worst = 0
    for header, read in _runs(args):
        rep = _Report(args.machine)
        if header is not None:
            rep.line(header)
        try:
            body, budgets = _build(args, read())
            code = command(body, rep, **budgets)
        except (ScenarioError, *_COMPUTATIONAL) as exc:
            code = 2 if isinstance(exc, ScenarioError) else 3
            if header is None:  # a single run prints its error alone
                print(f"error: {exc}", file=sys.stderr)
                return code
            rep.line(f"error kind={'input' if code == 2 else 'computational'} detail={exc}")
        rep.emit()
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
