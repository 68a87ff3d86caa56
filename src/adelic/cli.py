"""Command-line front end: scenario files in, deterministic reports out.

Exit codes: 0 success/pass, 1 a checked bound or identity failed,
2 input problem (arguments, files, scenario text), 3 computational
failure (enumeration cap, conditioning, dimension limit).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .bodies import Ball, Box, CrossPolytope, Ellipsoid
from .config import ComputeOptions, DEFAULT_OPTIONS
from .errors import (
    ConditioningError,
    DimensionLimitError,
    EnumerationCapError,
    ScenarioError,
)
from .lattices import lattice_from_module, lattice_equal, polar_lattice
from .scenario import OPTION_MINIMA, PRESET_SCENARIOS, parse_scenario
from .transference import (
    AdelicBody,
    MinimaReport,
    adelic_equal,
    adelic_minima,
    adelic_polar,
    mu_product_report,
    transference_check,
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_coords(coords) -> str:
    return "[" + ",".join(str(c) for c in coords) + "]"


def _fmt_kvector(vec) -> str:
    return "[" + ";".join(",".join(str(c) for c in x.coords) for x in vec) + "]"


def _shape_text(shape) -> str:
    if isinstance(shape, Ball):
        return f"radius={shape.radius}"
    if isinstance(shape, Box):
        return "halfwidths=" + ",".join(str(h) for h in shape.halfwidths)
    if isinstance(shape, CrossPolytope):
        return "scales=" + ",".join(str(s) for s in shape.scales)
    if isinstance(shape, Ellipsoid):
        rows = "],[".join(";".join(str(x) for x in row) for row in shape.q)
        return f"q=[[{rows}]]"
    raise TypeError(f"unknown shape {shape!r}")


def _shape_name(shape) -> str:
    return {Ball: "ball", Box: "box", CrossPolytope: "cross", Ellipsoid: "ellipsoid"}[
        type(shape)]


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

    def emit(self, out=None):
        out = out if out is not None else sys.stdout
        for ln in self.lines:
            print(ln, file=out)


def _read_scenario_file(path: Path) -> str:
    """The file's text; a directory or an unreadable or non-UTF-8 file is bad input."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {str(path)!r}: {exc}") from None


def load_scenario_text(name: str) -> str:
    p = Path(name)
    if p.exists():
        return _read_scenario_file(p)
    if name in PRESET_SCENARIOS:
        return (resources.files("adelic") / "scenarios" / f"{name}.ini").read_text()
    raise ScenarioError(
        f"no scenario file {name!r} and no preset of that name "
        f"(presets: {', '.join(PRESET_SCENARIOS)})")


def _build(args, text: str) -> tuple[AdelicBody, ComputeOptions]:
    scn = parse_scenario(text)
    opts = scn.options(DEFAULT_OPTIONS).with_overrides(
        precision_bits=args.precision,
        resolution=args.resolution,
        enumeration_cap=args.cap,
    )
    return scn.build(opts), opts


def _field_header(rep: _Report, body: AdelicBody):
    f = body.field
    r, s = f.signature
    rep.human(f"field: {f.name or 'custom'} of degree {f.degree}, "
              f"signature ({r},{s}), discriminant {f.discriminant}")
    rep.human(f"module rank: {body.n}; lattice dimension: {body.n * f.degree}")


def _minima_lines(rep: _Report, report: MinimaReport, d: int):
    for i, (lam, p, w) in enumerate(
            zip(report.minima, report.points, report.witnesses), start=1):
        rep.line(f"lambda_{i}={_fmt(lam)} coords={_fmt_coords(p.coords)} "
                 f"preimage={_fmt_kvector(w)}")
    for ell, slack in enumerate(report.thunder_slacks, start=1):
        bound = report.classical[(ell - 1) * d]
        rep.line(f"thunder ell={ell} lambda={_fmt(report.minima[ell - 1])} "
                 f"classical_bound={_fmt(bound)} slack={_fmt(slack)}")


def cmd_polar(body: AdelicBody, options, rep: _Report) -> int:
    star = adelic_polar(body)
    _field_header(rep, body)
    rep.human("polar body:")
    rep.line(f"polar conjugated={'true' if star.conjugated else 'false'}")
    for i, (ideal, vec) in enumerate(star.finite_part.pseudo, start=1):
        ideal_txt = ";".join(",".join(str(c) for c in b.coords) for b in ideal.zbasis)
        rep.line(f"polar dual_pseudo i={i} ideal=[{ideal_txt}] vector={_fmt_kvector(vec)}")
    for i, pb in enumerate(star.infinite_part.place_bodies, start=1):
        rep.line(f"polar place={i} shape={_shape_name(pb.shape)} {_shape_text(pb.shape)}")
    ok = adelic_equal(adelic_polar(star), body)
    rep.line(f"polar biduality={'pass' if ok else 'fail'}")
    return 0 if ok else 1


def cmd_minima(body: AdelicBody, options, rep: _Report) -> int:
    report = adelic_minima(body, options)
    _field_header(rep, body)
    rep.human("adelic successive minima with witnesses:")
    _minima_lines(rep, report, body.field.degree)
    return 0


def cmd_transference(body: AdelicBody, options, rep: _Report) -> int:
    tr = transference_check(body, options)
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


def cmd_mu(body: AdelicBody, options, rep: _Report) -> int:
    mu = mu_product_report(body, options.resolution, options)
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


def cmd_verify_duality(body: AdelicBody, options, rep: _Report) -> int:
    _field_header(rep, body)
    primal = lattice_from_module(body.finite_part, body.conjugated)
    dual_module = body.finite_part.trace_dual()
    numeric = polar_lattice(primal)
    mirrored = lattice_from_module(dual_module, not body.conjugated)
    ok = lattice_equal(numeric, mirrored)
    rep.human("polar lattice of the embedded module vs mirror-embedded dual module:")
    rep.line(f"duality rank={body.n} equal={'true' if ok else 'false'}")
    return 0 if ok else 1


def cmd_paper_example(args, rep: _Report) -> int:
    body, opts = _build(args, load_scenario_text("Q_sqrt2"))
    field = body.field
    checks: list[tuple[str, str, str, bool]] = []

    checks.append(("discriminant", str(field.discriminant), "8", field.discriminant == 8))

    dual = body.finite_part.trace_dual()
    expected = sorted([(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 4))])
    got = sorted(tuple(v) for v in dual.flat)
    got_txt = ";".join(",".join(str(c) for c in v) for v in got)
    want_txt = ";".join(",".join(str(c) for c in v) for v in expected)
    checks.append(("dual_basis", got_txt, want_txt, got == expected))

    rep_s = adelic_minima(body, opts)
    star = adelic_polar(body)
    rep_star = adelic_minima(star, opts)
    lam1, lam1s = rep_s.minima[0], rep_star.minima[0]
    target = 2 ** 0.5 / 4
    checks.append(("lambda1_S", _fmt(lam1), "1", abs(lam1 - 1.0) < 1e-9))
    checks.append(("lambda1_Sstar", _fmt(lam1s), _fmt(target), abs(lam1s - target) < 1e-9))
    product = lam1 * lam1s
    lower = abs(field.discriminant) ** -0.5
    checks.append(("product_equals_lower_bound", _fmt(product), _fmt(lower),
                   abs(product - lower) < 1e-9))

    rep.human("reproduction of the worked example over Q(sqrt 2):")
    all_ok = True
    for name, got_v, want, ok in checks:
        all_ok &= ok
        rep.line(f"paper-example {name}={got_v} expected={want} "
                 f"ok={'true' if ok else 'false'}")
    rep.human("overall: " + ("pass" if all_ok else "FAIL"))
    return 0 if all_ok else 1


_SCENARIO_COMMANDS = {
    "polar": cmd_polar,
    "minima": cmd_minima,
    "transference": cmd_transference,
    "mu": cmd_mu,
    "verify-duality": cmd_verify_duality,
}


def _run_command(args, text: str, rep: _Report) -> int:
    body, opts = _build(args, text)
    return _SCENARIO_COMMANDS[args.command](body, opts, rep)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="adelic",
        description="Convex bodies over the adeles: polars, minima, transference bounds.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("polar", "dual module and polar bodies of a scenario"),
        ("minima", "adelic successive minima with exact witnesses"),
        ("transference", "minima products against both transference bounds"),
        ("mu", "first minimum times polar covering radius bracket"),
        ("verify-duality", "check the polar lattice against the embedded dual module"),
        ("paper-example", "reproduce the worked example over Q(sqrt 2)"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name != "paper-example":
            p.add_argument("scenario", nargs="?",
                           help="scenario file or preset name "
                                f"({', '.join(PRESET_SCENARIOS)})")
            p.add_argument("--all", metavar="DIR", default=None,
                           help="run on every .ini file in DIR")
        p.add_argument("--precision", type=int, default=None, metavar="BITS",
                       help="root isolation convergence target 2^-BITS")
        p.add_argument("--resolution", type=int, default=None, metavar="K",
                       help="covering radius grid resolution per axis")
        p.add_argument("--cap", type=int, default=None, metavar="N",
                       help="enumeration node/point cap")
        p.add_argument("--machine", action="store_true",
                       help="emit machine-readable lines only")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    for key, least in OPTION_MINIMA.items():
        if getattr(args, key) is not None and getattr(args, key) < least:
            ap.error(f"argument --{key}: must be at least {least}")

    try:
        if args.command == "paper-example":
            rep = _Report(args.machine)
            code = cmd_paper_example(args, rep)
            rep.emit()
            return code

        if args.all is not None:
            if args.scenario is not None:
                print("error: give either a scenario or --all, not both", file=sys.stderr)
                return 2
            directory = Path(args.all)
            if not directory.is_dir():
                print(f"error: {args.all!r} is not a directory", file=sys.stderr)
                return 2
            files = sorted(directory.glob("*.ini"))
            if not files:
                print(f"error: no .ini files in {args.all!r}", file=sys.stderr)
                return 2
            worst = 0
            for path in files:
                rep = _Report(args.machine)
                rep.line(f"scenario file={path}")
                try:
                    code = _run_command(args, _read_scenario_file(path), rep)
                except ScenarioError as exc:
                    rep.line(f"error kind=input detail={exc}")
                    code = 2
                except (EnumerationCapError, ConditioningError, DimensionLimitError) as exc:
                    rep.line(f"error kind=computational detail={exc}")
                    code = 3
                rep.emit()
                worst = max(worst, code)
            return worst

        if args.scenario is None:
            print("error: a scenario file or preset name is required", file=sys.stderr)
            return 2
        rep = _Report(args.machine)
        code = _run_command(args, load_scenario_text(args.scenario), rep)
        rep.emit()
        return code
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EnumerationCapError, ConditioningError, DimensionLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
