"""Line-oriented scenario files: parse, validate, build.

The format is INI-style with `#` comment lines.  Rationals are written
p/q.  Matrix values use one bracket form throughout: rows inside [[...]],
rows separated by "], [", entries inside a row separated by ";".  An
entry of a rational matrix is a single rational; an entry of a matrix
over the field is a comma-joined coordinate vector over the power basis
(a single rational is accepted and padded).  Errors name the section,
key, and line that caused them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .bodies import Ball, Box, CrossPolytope, Ellipsoid, PlaceBody, ProductBody
from .config import ComputeOptions, DEFAULT_OPTIONS
from .errors import ScenarioError
from .numberfield import NumberField, PRESET_FIELDS, preset_field
from .omodules import FractionalIdeal, KModule, module_from_matrix, standard_module
from .transference import AdelicBody

PRESET_SCENARIOS = ("Q", "Q_sqrt2", "Q_sqrt5", "Q_i", "Q_sqrt-3")

# least accepted value of each [options] key; the CLI flags share it
OPTION_MINIMA = {"precision": 1, "resolution": 2, "cap": 1}


@dataclass
class FieldSpec:
    preset: str | None = None
    poly: list[Fraction] | None = None
    basis: list[list[Fraction]] | None = None
    discriminant: int | None = None
    cm: bool = False


@dataclass
class ModuleSpec:
    rank: int = 0
    identity: bool = False
    matrix: list[list[list[Fraction]]] | None = None
    pseudo: list[tuple[list[list[Fraction]], list[list[Fraction]]]] | None = None


@dataclass
class BodySpec:
    shape: str = ""
    radius: Fraction | None = None
    halfwidths: list[Fraction] | None = None
    scales: list[Fraction] | None = None
    q: list[list[Fraction]] | None = None


@dataclass
class Scenario:
    field: FieldSpec
    module: ModuleSpec
    bodies: list[BodySpec]
    precision: int | None = None
    resolution: int | None = None
    cap: int | None = None

    def options(self, base: ComputeOptions = DEFAULT_OPTIONS) -> ComputeOptions:
        return base.with_overrides(
            precision_bits=self.precision,
            resolution=self.resolution,
            enumeration_cap=self.cap,
        )

    def build(self, options: ComputeOptions | None = None) -> AdelicBody:
        opts = options if options is not None else self.options()
        field = _build_field(self.field, opts.precision_bits)
        module = _build_module(field, self.module)
        body = _build_infinite_part(field, self.module.rank, self.bodies)
        return AdelicBody(module, body)


# ---------------------------------------------------------------------------
# parsing


def _rational(text: str, where: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ScenarioError(f"{where}: {text.strip()!r} is not a rational") from None


def _rational_list(text: str, where: str) -> list[Fraction]:
    parts = [p for p in text.split(",")]
    if not parts or not text.strip():
        raise ScenarioError(f"{where}: expected a comma-separated list of rationals")
    return [_rational(p, where) for p in parts]


def _int(text: str, where: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ScenarioError(f"{where}: {text.strip()!r} is not an integer") from None


def _bool(text: str, where: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "false"):
        return t == "true"
    raise ScenarioError(f"{where}: expected true or false, got {text.strip()!r}")


def _matrix_rows(text: str, where: str) -> list[list[str]]:
    s = text.replace(" ", "")
    if not (s.startswith("[[") and s.endswith("]]")):
        raise ScenarioError(f"{where}: matrix must be written [[...], [...]]")
    inner = s[2:-2]
    rows = inner.split("],[")
    return [row.split(";") for row in rows]


def _rational_matrix(text: str, where: str) -> list[list[Fraction]]:
    out = []
    for row in _matrix_rows(text, where):
        vals = []
        for entry in row:
            if "," in entry:
                raise ScenarioError(f"{where}: entries must be single rationals "
                                    "separated by ';'")
            vals.append(_rational(entry, where))
        out.append(vals)
    return out


def _element_matrix(text: str, where: str) -> list[list[list[Fraction]]]:
    out = []
    for row in _matrix_rows(text, where):
        out.append([[_rational(c, where) for c in entry.split(",")] for entry in row])
    return out


def _element_list(text: str, where: str) -> list[list[Fraction]]:
    entries = text.split(";")
    if not text.strip():
        raise ScenarioError(f"{where}: expected ';'-separated field elements")
    return [[_rational(c, where) for c in entry.split(",")] for entry in entries]


def _index(name: str, prefix: str) -> int | None:
    """k of a name prefix<k> with k in decimal digits and no leading zero, else None."""
    suffix = name[len(prefix):]
    return int(suffix) if re.fullmatch("[1-9][0-9]*", suffix) else None


def parse_scenario(text: str) -> Scenario:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    order: list[str] = []
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise ScenarioError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            order.append(name)
            current = name
            continue
        if current is None:
            raise ScenarioError(f"line {lineno}: content before any [section]")
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in sections[current]:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (value.strip(), lineno)

    for name in order:
        if name not in ("field", "module", "options") and not name.startswith("body.v"):
            raise ScenarioError(f"unknown section [{name}]")

    fs = _parse_field_section(sections.get("field"))
    ms = _parse_module_section(sections.get("module"))
    bodies = _parse_body_sections(sections)
    options: dict[str, int] = {}
    for key, (value, lineno) in sections.get("options", {}).items():
        where = f"[options] {key} (line {lineno})"
        if key not in OPTION_MINIMA:
            raise ScenarioError(f"line {lineno}: unknown key {key!r} in [options]")
        options[key] = _int(value, where)
        if options[key] < OPTION_MINIMA[key]:
            raise ScenarioError(f"{where}: {key} must be at least {OPTION_MINIMA[key]}")
    return Scenario(fs, ms, bodies, options.get("precision"), options.get("resolution"),
                    options.get("cap"))


def _parse_field_section(sec) -> FieldSpec:
    if sec is None:
        raise ScenarioError("missing [field] section")
    fs = FieldSpec()
    for key, (value, lineno) in sec.items():
        where = f"[field] {key} (line {lineno})"
        if key == "preset":
            fs.preset = value
            if value not in PRESET_FIELDS:
                known = ", ".join(sorted(PRESET_FIELDS))
                raise ScenarioError(f"{where}: unknown preset (known: {known})")
        elif key == "poly":
            fs.poly = _rational_list(value, where)
        elif key == "basis":
            fs.basis = _rational_matrix(value, where)
        elif key == "discriminant":
            fs.discriminant = _int(value, where)
        elif key == "cm":
            fs.cm = _bool(value, where)
        else:
            raise ScenarioError(f"line {lineno}: unknown key {key!r} in [field]")
    if fs.preset is None and (fs.poly is None or fs.basis is None):
        raise ScenarioError("[field]: needs either preset or both poly and basis")
    if fs.preset is not None and (fs.poly is not None or fs.basis is not None):
        raise ScenarioError("[field]: preset excludes explicit poly/basis")
    return fs


def _parse_module_section(sec) -> ModuleSpec:
    if sec is None:
        raise ScenarioError("missing [module] section")
    ms = ModuleSpec()
    pseudo: dict[int, tuple] = {}
    for key, (value, lineno) in sec.items():
        where = f"[module] {key} (line {lineno})"
        if key == "rank":
            ms.rank = _int(value, where)
        elif key == "identity":
            ms.identity = _bool(value, where)
        elif key == "matrix":
            ms.matrix = _element_matrix(value, where)
        elif key.startswith("pseudo"):
            idx = _index(key, "pseudo")
            if idx is None:
                raise ScenarioError(f"{where}: pseudo keys are pseudo1, pseudo2, ...")
            if "|" not in value:
                raise ScenarioError(f"{where}: expected '<ideal basis> | <vector>'")
            left, _, right = value.partition("|")
            pseudo[idx] = (_element_list(left, where), _element_list(right, where))
        else:
            raise ScenarioError(f"line {lineno}: unknown key {key!r} in [module]")
    if ms.rank < 1:
        raise ScenarioError("[module]: rank must be a positive integer")
    if pseudo:
        if sorted(pseudo) != list(range(1, ms.rank + 1)):
            raise ScenarioError("[module]: pseudo lines must be pseudo1..pseudoN for rank N")
        ms.pseudo = [pseudo[i] for i in range(1, ms.rank + 1)]
    chosen = sum(1 for x in (ms.identity, ms.matrix, ms.pseudo) if x)
    if chosen != 1:
        raise ScenarioError(
            "[module]: specify exactly one of identity = true, matrix, or pseudo lines")
    return ms


def _parse_body_sections(sections) -> list[BodySpec]:
    indices = []
    for name in sections:
        if name.startswith("body.v"):
            idx = _index(name, "body.v")
            if idx is None:
                raise ScenarioError(f"[{name}]: body sections are [body.v1], [body.v2], ...")
            indices.append(idx)
    if not indices:
        raise ScenarioError("missing body sections [body.v1], ...")
    if sorted(indices) != list(range(1, len(indices) + 1)):
        raise ScenarioError("body sections must be numbered consecutively from v1")
    out = []
    for i in range(1, len(indices) + 1):
        sec = sections[f"body.v{i}"]
        bs = BodySpec()
        for key, (value, lineno) in sec.items():
            where = f"[body.v{i}] {key} (line {lineno})"
            if key == "shape":
                if value not in ("ball", "box", "cross", "ellipsoid"):
                    raise ScenarioError(
                        f"{where}: unknown shape {value!r} "
                        "(known: ball, box, cross, ellipsoid)")
                bs.shape = value
            elif key == "radius":
                bs.radius = _rational(value, where)
            elif key == "halfwidths":
                bs.halfwidths = _rational_list(value, where)
            elif key == "scales":
                bs.scales = _rational_list(value, where)
            elif key == "q":
                bs.q = _rational_matrix(value, where)
            else:
                raise ScenarioError(f"line {lineno}: unknown key {key!r} in [body.v{i}]")
        if not bs.shape:
            raise ScenarioError(f"[body.v{i}]: missing shape")
        _check_body_params(bs, i)
        out.append(bs)
    return out


def _check_body_params(bs: BodySpec, i: int):
    needed = {"ball": "radius", "box": "halfwidths", "cross": "scales", "ellipsoid": "q"}
    want = needed[bs.shape]
    given = {name for name in ("radius", "halfwidths", "scales", "q")
             if getattr(bs, name) is not None}
    if given != {want}:
        raise ScenarioError(
            f"[body.v{i}]: shape {bs.shape!r} takes exactly the key {want!r}")


# ---------------------------------------------------------------------------
# building


def _build_field(fs: FieldSpec, precision_bits: int) -> NumberField:
    if fs.preset is not None:
        f = preset_field(fs.preset, precision_bits)
        if fs.cm and not f.is_cm:
            raise ScenarioError("[field]: cm = true needs a field with no real embeddings")
        return f
    poly = []
    for c in fs.poly:
        if c.denominator != 1:
            raise ScenarioError("[field] poly: coefficients must be integers")
        poly.append(int(c))
    try:
        return NumberField(poly, fs.basis, fs.discriminant,
                           cm_asserted=fs.cm, precision_bits=precision_bits)
    except ValueError as exc:
        raise ScenarioError(f"[field]: {exc}") from exc


def _element(field: NumberField, coords: list[Fraction], where: str):
    d = field.degree
    if len(coords) == 1:
        coords = coords + [Fraction(0)] * (d - 1)
    if len(coords) != d:
        raise ScenarioError(
            f"{where}: field elements need {d} coordinates, got {len(coords)}")
    return field.element(coords)


def _build_module(field: NumberField, ms: ModuleSpec) -> KModule:
    n = ms.rank
    if ms.identity:
        return standard_module(field, n)
    if ms.matrix is not None:
        if len(ms.matrix) != n or any(len(row) != n for row in ms.matrix):
            raise ScenarioError(f"[module] matrix: expected a {n}x{n} matrix")
        rows = [[_element(field, e, "[module] matrix") for e in row] for row in ms.matrix]
        try:
            return module_from_matrix(field, rows)
        except ValueError as exc:
            raise ScenarioError(f"[module] matrix: {exc}") from exc
    pseudo = []
    for i, (ideal_elts, vec_elts) in enumerate(ms.pseudo, start=1):
        where = f"[module] pseudo{i}"
        if len(ideal_elts) != field.degree:
            raise ScenarioError(
                f"{where}: ideal part needs {field.degree} generators")
        if len(vec_elts) != n:
            raise ScenarioError(f"{where}: vector part needs {n} components")
        try:
            ideal = FractionalIdeal(field, [_element(field, e, where) for e in ideal_elts])
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        vec = tuple(_element(field, e, where) for e in vec_elts)
        pseudo.append((ideal, vec))
    try:
        return KModule(field, pseudo)
    except ValueError as exc:
        raise ScenarioError(f"[module]: {exc}") from exc


def _build_infinite_part(field: NumberField, n: int, specs: list[BodySpec]) -> ProductBody:
    places = field.places
    if len(specs) != len(places):
        raise ScenarioError(
            f"expected {len(places)} body sections for this field, got {len(specs)}")
    dims = field.place_dims(n)
    place_bodies = []
    for i, (bs, (kind, _), dim) in enumerate(zip(specs, places, dims), start=1):
        where = f"[body.v{i}]"
        try:
            if bs.shape == "ball":
                shape = Ball(bs.radius)
            elif bs.shape == "box":
                shape = Box(tuple(bs.halfwidths))
            elif bs.shape == "cross":
                shape = CrossPolytope(tuple(bs.scales))
            else:
                shape = Ellipsoid(tuple(tuple(row) for row in bs.q))
            place_bodies.append(PlaceBody(kind, dim, shape))
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    try:
        return ProductBody(field, n, place_bodies)
    except ValueError as exc:
        raise ScenarioError(f"body sections: {exc}") from exc
