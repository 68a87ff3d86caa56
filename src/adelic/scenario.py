"""Line-oriented scenario files: parse, validate, build.

The format is INI-style with `#` comment lines.  Rationals are written
p/q.  Matrix values use one bracket form throughout: rows inside [[...]],
rows separated by "], [", entries inside a row separated by ";".  An
entry of a rational matrix is a single rational; an entry of a matrix
over the field is a comma-joined coordinate vector over the power basis
(a single rational is accepted and padded).  One reader takes the keys
of every section through one table from key to parser (`_SECTION_KEYS`),
so errors name the section, key and line alike everywhere;
`_shape_text` writes a body back in the syntax `_BODY_KEYS` reads.
"""

from __future__ import annotations

import functools
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
        return AdelicBody(_build_module(field, self.module),
                          _build_infinite_part(field, self.module.rank, self.bodies))


# ---------------------------------------------------------------------------
# parsing


def _rational(text: str, where: str) -> Fraction:
    try:
        return Fraction(int(text))  # what int() reads, Fraction reads alike, and faster
    except ValueError:
        pass
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ScenarioError(f"{where}: {text.strip()!r} is not a rational") from None


def _rational_list(text: str, where: str) -> list[Fraction]:
    if not text.strip():
        raise ScenarioError(f"{where}: expected a comma-separated list of rationals")
    return [_rational(p, where) for p in text.split(",")]


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


def _single(entry: str, where: str) -> Fraction:
    if "," in entry:
        raise ScenarioError(f"{where}: entries must be single rationals separated by ';'")
    return _rational(entry, where)


def _coords(entry: str, where: str) -> list[Fraction]:
    return [_rational(c, where) for c in entry.split(",")]


def _rational_matrix(text: str, where: str) -> list[list[Fraction]]:
    return [[_single(entry, where) for entry in row] for row in _matrix_rows(text, where)]


def _element_matrix(text: str, where: str) -> list[list[list[Fraction]]]:
    return [[_coords(entry, where) for entry in row] for row in _matrix_rows(text, where)]


def _element_list(text: str, where: str) -> list[list[Fraction]]:
    if not text.strip():
        raise ScenarioError(f"{where}: expected ';'-separated field elements")
    return [_coords(entry, where) for entry in text.split(";")]


def _index(name: str, prefix: str) -> int | None:
    """k of a name prefix<k> with k in decimal digits and no leading zero, else None."""
    suffix = name[len(prefix):]
    return int(suffix) if re.fullmatch("[1-9][0-9]*", suffix) else None


def _preset(text: str, where: str) -> str:
    if text not in PRESET_FIELDS:
        raise ScenarioError(f"{where}: unknown preset (known: {', '.join(sorted(PRESET_FIELDS))})")
    return text


def _pseudo(text: str, where: str) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    if "|" not in text:
        raise ScenarioError(f"{where}: expected '<ideal basis> | <vector>'")
    return tuple(_element_list(part, where) for part in text.split("|", 1))


def _at_least(key: str, text: str, where: str) -> int:
    if (value := _int(text, where)) < OPTION_MINIMA[key]:
        raise ScenarioError(f"{where}: {key} must be at least {OPTION_MINIMA[key]}")
    return value


def _shape(text: str, where: str) -> str:
    if text not in SHAPES:
        raise ScenarioError(f"{where}: unknown shape {text!r} (known: {', '.join(SHAPES)})")
    return text


# the parser of a shape's one field, by its annotation; the field's name is the key
_VALUE_PARSERS = {"Fraction": _rational, "tuple[Fraction, ...]": _rational_list,
                  "tuple[tuple[Fraction, ...], ...]": _rational_matrix}
_BODY_KEYS = {f.name: _VALUE_PARSERS[f.type] for f in (fields(c)[0] for c in SHAPES.values())}


def _shape_text(shape) -> str:
    """`shape=<name> <key>=<value>`, a body section's two keys as `_BODY_KEYS` reads them."""
    name = next(name for name, cls in SHAPES.items() if type(shape) is cls)
    key = fields(shape)[0].name
    value = getattr(shape, key)
    if not isinstance(value, tuple):
        text = str(value)
    elif isinstance(value[0], tuple):
        text = "[[" + "],[".join(";".join(str(x) for x in row) for row in value) + "]]"
    else:
        text = ",".join(str(x) for x in value)
    return f"shape={name} {key}={text}"


# the parser of each key of a section; every [body.v<k>] reads the keys of `body`
_SECTION_KEYS = {
    "field": {"preset": _preset, "poly": _rational_list, "basis": _rational_matrix,
              "discriminant": _int, "cm": _bool},
    "module": {"rank": _int, "identity": _bool, "matrix": _element_matrix, "pseudo": _pseudo},
    "options": {key: functools.partial(_at_least, key) for key in OPTION_MINIMA},
    "body": {"shape": _shape, **_BODY_KEYS},
}


def _read_keys(sections, name: str) -> dict:
    """The value of each key of section [name] by its parser, read in file order.

    Errors name `[name] key (line N)`.  pseudo1, pseudo2, ... are read as
    `pseudo`, each index in decimal digits from 1.  Only [options] may be absent.
    """
    if name not in sections and name != "options":
        raise ScenarioError(f"missing [{name}] section")
    parsers, values = _SECTION_KEYS[name.split(".")[0]], {}
    for key, (value, lineno) in sections.get(name, {}).items():
        family = "pseudo" if key.startswith("pseudo") else key
        if family not in parsers:
            raise ScenarioError(f"line {lineno}: unknown key {key!r} in [{name}]")
        where = f"[{name}] {key} (line {lineno})"
        if family == "pseudo" and _index(key, "pseudo") is None:
            raise ScenarioError(f"{where}: pseudo keys are pseudo1, pseudo2, ...")
        values[key] = parsers[family](value, where)
    return values


def parse_scenario(text: str) -> Scenario:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
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

    for name in sections:
        if name not in ("field", "module", "options") and not name.startswith("body.v"):
            raise ScenarioError(f"unknown section [{name}]")
    return Scenario(_parse_field_section(sections), _parse_module_section(sections),
                    _parse_body_sections(sections), **_read_keys(sections, "options"))


def _parse_field_section(sections) -> FieldSpec:
    fs = FieldSpec(**_read_keys(sections, "field"))
    if fs.preset is None and (fs.poly is None or fs.basis is None):
        raise ScenarioError("[field]: needs either preset or both poly and basis")
    if fs.preset is not None and (fs.poly is not None or fs.basis is not None):
        raise ScenarioError("[field]: preset excludes explicit poly/basis")
    return fs


def _parse_module_section(sections) -> ModuleSpec:
    values = _read_keys(sections, "module")
    pseudo = {_index(key, "pseudo"): values.pop(key) for key in list(values)
              if key.startswith("pseudo")}
    ms = ModuleSpec(**values)
    if ms.rank < 1:
        raise ScenarioError("[module]: rank must be a positive integer")
    if pseudo:
        if sorted(pseudo) != list(range(1, ms.rank + 1)):
            raise ScenarioError("[module]: pseudo lines must be pseudo1..pseudoN for rank N")
        ms.pseudo = [pseudo[i] for i in range(1, ms.rank + 1)]
    if sum(1 for x in (ms.identity, ms.matrix, ms.pseudo) if x) != 1:
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
        given = _read_keys(sections, f"body.v{i}")
        shape = given.pop("shape", "")
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
    kinds = field.place_kinds
    if len(specs) != len(kinds):
        raise ScenarioError(
            f"expected {len(kinds)} body sections for this field, got {len(specs)}")
    place_bodies = []
    for i, (bs, kind, dim) in enumerate(zip(specs, kinds, field.place_dims(n)), start=1):
        try:
            place_bodies.append(PlaceBody(kind, dim, SHAPES[bs.shape](bs.value)))
        except ValueError as exc:
            raise ScenarioError(f"[body.v{i}]: {exc}") from exc
    return ProductBody(field, n, place_bodies)  # count, dims and kinds come from the field
