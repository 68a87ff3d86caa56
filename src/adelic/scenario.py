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
from dataclasses import dataclass, fields
from fractions import Fraction

from .bodies import SHAPES, AdelicBody, PlaceBody, ProductBody
from .errors import ScenarioError
from .numberfield import NumberField, PRESET_FIELDS, preset_field
from .omodules import FractionalIdeal, KModule, module_from_matrix, standard_module

PRESET_SCENARIOS = tuple(PRESET_FIELDS)  # each has a packaged scenarios/<name>.ini

# least accepted value of each [options] key; the CLI flags share it
OPTION_MINIMA = {"resolution": 2, "cap": 1}


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
    shape: str  # a name in bodies.SHAPES
    value: Fraction | list[Fraction] | list[list[Fraction]]  # of the shape's one key


@dataclass
class Scenario:
    field: FieldSpec
    module: ModuleSpec
    bodies: list[BodySpec]
    resolution: int | None = None
    cap: int | None = None

    def build(self) -> AdelicBody:
        field = _build_field(self.field)
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
    return [row.split(";") for row in s[2:-2].split("],[")]


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
    return [[[_rational(c, where) for c in entry.split(",")] for entry in row]
            for row in _matrix_rows(text, where)]


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
    return Scenario(fs, ms, bodies, options.get("resolution"), options.get("cap"))


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


# the parser of a shape's one field, by its annotation; the field's name is the key
_VALUE_PARSERS = {"Fraction": _rational, "tuple[Fraction, ...]": _rational_list,
                  "tuple[tuple[Fraction, ...], ...]": _rational_matrix}
_BODY_KEYS = {f.name: _VALUE_PARSERS[f.type] for f in (fields(c)[0] for c in SHAPES.values())}


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
        shape, given = "", {}
        for key, (value, lineno) in sections[f"body.v{i}"].items():
            where = f"[body.v{i}] {key} (line {lineno})"
            if key == "shape":
                if value not in SHAPES:
                    raise ScenarioError(
                        f"{where}: unknown shape {value!r} (known: {', '.join(SHAPES)})")
                shape = value
            elif key in _BODY_KEYS:
                given[key] = _BODY_KEYS[key](value, where)
            else:
                raise ScenarioError(f"line {lineno}: unknown key {key!r} in [body.v{i}]")
        if not shape:
            raise ScenarioError(f"[body.v{i}]: missing shape")
        want = fields(SHAPES[shape])[0].name
        if set(given) != {want}:
            raise ScenarioError(
                f"[body.v{i}]: shape {shape!r} takes exactly the key {want!r}")
        out.append(BodySpec(shape, given[want]))
    return out


# ---------------------------------------------------------------------------
# building


def _build_field(fs: FieldSpec) -> NumberField:
    try:
        if fs.preset is None:
            return NumberField(fs.poly, fs.basis, fs.discriminant, cm_asserted=fs.cm)
        field = preset_field(fs.preset)
        field.check_claims(fs.discriminant, fs.cm)
        return field
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
        if len(vec_elts) != n:
            raise ScenarioError(f"{where}: vector part needs {n} components")
        gens = [_element(field, e, where) for e in ideal_elts]  # names its own location
        try:
            ideal = FractionalIdeal(field, gens)
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
        try:
            place_bodies.append(PlaceBody(kind, dim, SHAPES[bs.shape](bs.value)))
        except ValueError as exc:
            raise ScenarioError(f"[body.v{i}]: {exc}") from exc
    return ProductBody(field, n, place_bodies)  # count, dims and kinds come from the field
