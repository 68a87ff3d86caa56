"""Scenario file grammar and the command line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adelic import (
    Ball,
    Ellipsoid,
    EnumerationCapError,
    PRESET_FIELDS,
    PRESET_SCENARIOS,
    ScenarioError,
    adelic_minima,
    adelic_polar,
    mu_product_report,
    parse_scenario,
)
from adelic import lattices, numberfield, scenario
from adelic.bodies import SHAPES
from adelic.cli import _SCENARIO_COMMANDS, _build, build_parser, load_scenario_text, main
from adelic.exactla import mat_mul, transpose
from adelic.lattices import (ENUMERATION_CAP, LLL_DELTA, RESOLUTION, points_by_gauge,
                             reduced_pair)
from adelic.scenario import OPTION_MINIMA
from field_reference import LARGE_SCENARIO, contains, is_lll_reduced

F = Fraction


# -- parsing -----------------------------------------------------------------


@pytest.mark.parametrize("name", PRESET_SCENARIOS)
def test_preset_files_build(name):
    body = parse_scenario(load_scenario_text(name)).build()
    assert body.field.name == name


def test_preset_fields_scenarios_and_packaged_files_name_the_same_presets():
    # a preset field without its file would end `adelic polar <name>` in a traceback
    files = sorted(path.name for path in (resources.files("adelic") / "scenarios").iterdir()
                   if path.name.endswith(".ini"))
    assert PRESET_SCENARIOS == tuple(PRESET_FIELDS)
    assert files == sorted(f"{name}.ini" for name in PRESET_FIELDS)


CUSTOM = """\
# a custom field given by its polynomial, constant term first
[field]
poly = -2, 0, 1
basis = [[1; 0], [0; 1]]
discriminant = 8

[module]
rank = 2
matrix = [[2,0; 0,0], [0,0; 1,0]]

[body.v1]
shape = ellipsoid
q = [[2; 1], [1; 2]]

[body.v2]
shape = box
halfwidths = 1, 3/2

[options]
resolution = 32
cap = 500000
"""


def test_custom_scenario_parses_and_builds():
    scn = parse_scenario(CUSTOM)
    assert scn.module.rank == 2
    assert scn.bodies[0].shape == "ellipsoid"
    assert scn.resolution == 32 and scn.cap == 500000
    body = scn.build()
    assert body.field.discriminant == 8
    assert body.n == 2
    assert body.infinite_part.place_bodies[0].shape == Ellipsoid(
        ((F(2), F(1)), (F(1), F(2))))


PSEUDO = """\
[field]
preset = Q_i

[module]
rank = 2
pseudo1 = 2,0; 0,2 | 1,0; 0,0
pseudo2 = 1,0; 0,1 | 0,0; 1,0

[body.v1]
shape = ball
radius = 1
"""


def test_pseudo_module_scenario():
    scn = parse_scenario(PSEUDO)
    body = scn.build()
    two = body.field.from_rational(2)
    assert contains(body.finite_part, (two, body.field.zero()))
    assert not contains(body.finite_part, (body.field.one(), body.field.zero()))


def test_decimals_are_read_exactly():
    text = PSEUDO.replace("radius = 1", "radius = 0.5")
    spec = parse_scenario(text).bodies[0]
    assert SHAPES[spec.shape](spec.value) == Ball(F(1, 2))


def test_single_rational_promotes_to_an_element():
    # over a degree-2 field a bare rational means that rational element
    text = PSEUDO.replace("pseudo2 = 1,0; 0,1 | 0,0; 1,0",
                          "pseudo2 = 1; 0,1 | 0; 1")
    body = parse_scenario(text).build()
    assert contains(body.finite_part, (body.field.zero(), body.field.one()))


# -- diagnostics -------------------------------------------------------------


def scenario_error(text):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text).build()
    return str(err.value)


def test_box_at_complex_place_is_rejected():
    text = PSEUDO.replace("shape = ball\nradius = 1",
                          "shape = box\nhalfwidths = 1, 1")
    msg = scenario_error(text)
    assert "body.v1" in msg


def test_malformed_rational_names_the_line():
    msg = scenario_error(PSEUDO.replace("radius = 1", "radius = banana"))
    assert "banana" in msg and "line 11" in msg


def fraction_reading(text):
    """What `Fraction` makes of a token: its value, or the message the reader gives."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return f"here: {text.strip()!r} is not a rational"


def scenario_reading(text):
    try:
        return scenario._rational(text, "here")
    except ScenarioError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789+-_/.e \u0663\u00b2", max_size=8))
@example("--3").via("int() refuses it; a test on lstrip('-') would not")
@example("1_000").via("int() and Fraction both take one underscore between digits")
@example("-0").via("negative zero")
@example(" 7 ").via("int() strips what Fraction's reader strips")
def test_the_reader_takes_exactly_what_fraction_takes(text):
    # integer tokens are read by int(), which accepts a subset of what Fraction accepts
    got, want = scenario_reading(text), fraction_reading(text)
    assert got == want and type(got) is type(want)


def test_rank_matrix_mismatch():
    msg = scenario_error(CUSTOM.replace("rank = 2", "rank = 1"))
    assert "matrix" in msg


def test_wrong_body_count():
    # Q_sqrt2 has two real places, so one body section is not enough
    text = """\
[field]
preset = Q_sqrt2

[module]
rank = 1
identity = true

[body.v1]
shape = ball
radius = 1
"""
    msg = scenario_error(text)
    assert "body sections" in msg


def test_unknown_shape_and_param_mismatch():
    msg = scenario_error(PSEUDO.replace("shape = ball", "shape = simplex"))
    assert "simplex" in msg
    msg = scenario_error(PSEUDO.replace("radius = 1", "scales = 1, 1"))
    assert "exactly the key" in msg


def test_structural_diagnostics():
    assert "duplicate section" in scenario_error(
        "[field]\npreset = Q\n[field]\npreset = Q\n")
    assert "duplicate key" in scenario_error(
        "[field]\npreset = Q\npreset = Q\n")
    assert "unknown section" in scenario_error(
        PSEUDO + "\n[extras]\nx = 1\n")
    assert "before any" in scenario_error("x = 1\n")
    assert "key = value" in scenario_error("[field]\npreset\n")
    assert "missing [field]" in scenario_error("[module]\nrank = 1\n")
    assert "consecutively" in scenario_error(
        PSEUDO.replace("[body.v1]", "[body.v3]"))


def test_field_section_diagnostics():
    assert "unknown preset" in scenario_error(
        "[field]\npreset = Q_sqrt7\n[module]\nrank = 1\nidentity = true\n"
        "[body.v1]\nshape = ball\nradius = 1\n")
    assert "excludes" in scenario_error(
        "[field]\npreset = Q\npoly = -1, 1\nbasis = [[1]]\n[module]\n"
        "rank = 1\nidentity = true\n[body.v1]\nshape = ball\nradius = 1\n")
    # cm on a field with a real embedding
    assert "cm" in scenario_error(
        "[field]\npreset = Q_sqrt2\ncm = true\n[module]\nrank = 1\n"
        "identity = true\n[body.v1]\nshape = ball\nradius = 1\n"
        "[body.v2]\nshape = ball\nradius = 1\n")


def test_module_section_diagnostics():
    base = "[field]\npreset = Q\n[module]\n{}\n[body.v1]\nshape = ball\nradius = 1\n"
    assert "exactly one" in scenario_error(base.format("rank = 1"))
    assert "exactly one" in scenario_error(
        base.format("rank = 1\nidentity = true\nmatrix = [[1]]"))
    assert "positive" in scenario_error(base.format("rank = 0\nidentity = true"))
    assert "pseudo1..pseudoN" in scenario_error(
        base.format("rank = 2\npseudo1 = 1 | 1, 0"))


def cli_budgets(text, *flags):
    """The budgets `mu`, the one command that reads both, runs with on the text under the flags."""
    return _build(build_parser().parse_args(["mu", *flags]), text)[1]


def test_options_override_and_cli_precedence():
    # flag, then [options] key, then the default of the layer that reads it
    assert cli_budgets(PSEUDO) == {"resolution": RESOLUTION, "cap": ENUMERATION_CAP}
    assert cli_budgets(CUSTOM) == {"resolution": 32, "cap": 500000}
    assert cli_budgets(CUSTOM, "--cap", "7") == {"resolution": 32, "cap": 7}
    assert cli_budgets(PSEUDO, "--resolution", "5") == {"resolution": 5, "cap": ENUMERATION_CAP}


def test_every_compute_option_is_set_by_an_options_key_and_a_flag():
    # a budget that no [options] key or CLI flag reaches is a dead knob
    default = cli_budgets(PSEUDO)
    assert set(default) == set(OPTION_MINIMA)
    for key, least in OPTION_MINIMA.items():
        keyed = PSEUDO + f"[options]\n{key} = {least + 100}\n"
        flag = (f"--{key}", str(least + 200))
        assert default[key] not in (least + 100, least + 200)
        assert cli_budgets(keyed) == {**default, key: least + 100}
        assert cli_budgets(PSEUDO, *flag) == cli_budgets(keyed, *flag) == {
            **default, key: least + 200}


def test_every_compute_option_is_read_by_a_computation():
    # a budget that no computation reads is a dead knob
    body = parse_scenario(load_scenario_text("Q_sqrt2")).build()
    with pytest.raises(EnumerationCapError):
        adelic_minima(body, cap=1)
    with pytest.raises(EnumerationCapError):
        mu_product_report(body, resolution=8, cap=1)
    assert mu_product_report(body, resolution=4).mu_bracket != \
        mu_product_report(body, resolution=8).mu_bracket


# -- command line ------------------------------------------------------------


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_paper_example(capsys):
    code, out, _ = run_cli(["paper-example", "--machine"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert all(ln.startswith("paper-example ") for ln in lines)
    assert all("ok=true" in ln for ln in lines)
    names = [ln.split()[1].split("=")[0] for ln in lines]
    assert names == ["discriminant", "dual_basis", "lambda1_S",
                     "lambda1_Sstar", "product_equals_lower_bound"]


@pytest.mark.parametrize("decoy", ["file", "directory"])
def test_paper_example_reads_the_packaged_preset_past_a_local_decoy(
        capsys, monkeypatch, tmp_path, decoy):
    # a file or directory named Q_sqrt2 in the working directory is not the preset
    if decoy == "file":
        (tmp_path / "Q_sqrt2").write_text(load_scenario_text("Q"))
    else:
        (tmp_path / "Q_sqrt2").mkdir()
    monkeypatch.chdir(tmp_path)
    golden = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())
    code, out, _ = run_cli(["paper-example", "--machine"], capsys)
    assert {"code": code, "stdout": out} == golden["paper-example --machine"]
    assert code == 0


def test_cli_transference_machine_lines(capsys):
    code, out, _ = run_cli(["transference", "Q_sqrt2", "--machine"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    parts = dict(kv.split("=") for kv in lines[0].split()[1:])
    assert lines[0].startswith("transfer ell=1 ")
    assert float(parts["product"]) == pytest.approx(8 ** -0.5, abs=1e-9)
    assert parts["verdict"] == "pass"
    assert float(parts["lower"]) <= float(parts["product"]) + 1e-9
    assert float(parts["product"]) <= float(parts["upper"]) + 1e-9


def test_cli_transference_na_lower(capsys, tmp_path):
    path = tmp_path / "cubic.ini"
    path.write_text("""\
[field]
poly = -2, 0, 0, 1
basis = [[1; 0; 0], [0; 1; 0], [0; 0; 1]]

[module]
rank = 1
identity = true

[body.v1]
shape = ball
radius = 1

[body.v2]
shape = ball
radius = 1
""")
    code, out, _ = run_cli(["transference", str(path), "--machine"], capsys)
    assert code == 0
    assert "lower=n/a" in out
    assert "verdict=pass" in out


def test_cli_minima_witness_lines(capsys):
    code, out, _ = run_cli(["minima", "Q_sqrt2", "--machine"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("lambda_1=1 coords=")
    assert "preimage=" in lines[0]
    assert any(ln.startswith("thunder ell=1 ") for ln in lines)


def test_cli_minima_machine_lines_rank_two(capsys, tmp_path):
    path = tmp_path / "custom.ini"
    path.write_text(CUSTOM)
    code, out, _ = run_cli(["minima", str(path), "--machine"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "lambda_1=1.41421356237 coords=[1,0,0,0] preimage=[0,0;1,0]",
        "lambda_2=2.44948974278 coords=[1,0,-1,0] preimage=[-2,0;1,0]",
        "thunder ell=1 lambda=1.41421356237 classical_bound=1.41421356237 slack=0",
        "thunder ell=2 lambda=2.44948974278 classical_bound=2.44948974278 slack=0",
    ]


def test_cli_polar_and_verify_duality(capsys):
    code, out, _ = run_cli(["polar", "Q_i", "--machine"], capsys)
    assert code == 0
    assert "polar biduality=pass" in out
    assert "polar place=1 shape=ball radius=1/2" in out
    code, out, _ = run_cli(["verify-duality", "Q_sqrt-3", "--machine"], capsys)
    assert code == 0
    assert "duality rank=1 equal=true" in out


# one body section per shape over Q at rank 2, whose polar place line is read back
ROUND_TRIP = {
    "ball": "radius = 2",
    "box": "halfwidths = 1/2, 3",
    "cross": "scales = 1, 2/3",
    "ellipsoid": "q = [[2; 1], [1; 3]]",
}


@pytest.mark.parametrize("shape", SHAPES)
def test_polar_place_line_reads_back_as_a_body_section(shape, capsys, tmp_path):
    head = "[field]\npreset = Q\n[module]\nrank = 2\nidentity = true\n[body.v1]\n"
    path = tmp_path / "body.ini"
    path.write_text(head + f"shape = {shape}\n{ROUND_TRIP[shape]}\n")
    code, out, _ = run_cli(["polar", str(path), "--machine"], capsys)
    assert code == 0
    [line] = [ln for ln in out.splitlines() if ln.startswith("polar place=1 ")]
    section = "\n".join(" = ".join(kv.split("=", 1)) for kv in line.split()[2:])
    read_back = parse_scenario(head + section + "\n").build()
    star = adelic_polar(parse_scenario(path.read_text()).build())
    assert read_back.infinite_part.place_bodies[0].shape == \
        star.infinite_part.place_bodies[0].shape


def test_cli_mu_line(capsys):
    code, out, _ = run_cli(
        ["mu", "Q_sqrt2", "--machine", "--resolution", "32"], capsys)
    assert code == 0
    parts = dict(kv.split("=") for kv in out.split()[1:])
    assert float(parts["mu_lower"]) <= float(parts["mu_upper"])
    assert float(parts["product_lower"]) <= float(parts["product_upper"])
    assert float(parts["reference"]) > 0


def test_cli_exit_code_2_on_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[field]\npreset = Q\n")  # missing module and bodies
    code, _, err = run_cli(["transference", str(bad)], capsys)
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(["transference", "no_such_preset"], capsys)
    assert code == 2
    code, _, err = run_cli(["transference"], capsys)
    assert code == 2


SQRT2_BODIES = "[body.v1]\nshape = ball\nradius = 1\n[body.v2]\nshape = ball\nradius = 1\n"

SQRT2_RANK1 = """\
[field]
preset = Q_sqrt2

[module]
rank = 1
{module}

[body.v1]
shape = ball
radius = 1

[body.v2]
shape = ball
radius = 1
"""


@pytest.mark.parametrize("field,module,message", [
    ("poly = -2, 0, 1\nbasis = [[1; 0], [2; 0]]", "matrix = [[1]]",
     "[field]: integral basis is linearly dependent"),
    ("poly = -2, 0, 1\nbasis = [[2; 0], [0; 1]]", "matrix = [[1]]",
     "[field]: integral basis does not contain 1"),
    ("poly = -2, 0, 1\nbasis = [[1; 0], [0; 1/2]]", "matrix = [[1]]",
     "[field]: integral basis is not closed under multiplication"),
    ("poly = -2, 0, 1\nbasis = [[1; 0], [0; 1]]", "pseudo1 = 1,0; 2,0 | 1,0",
     "[module] pseudo1: ideal basis is linearly dependent"),
    ("poly = -2, 0, 1\nbasis = [[1; 0], [0; 1]]",
     "pseudo1 = 1,0; 0,1 | 1,0; 0,0\npseudo2 = 1,0; 0,1 | 2,0; 0,0",
     "[module]: singular matrix"),
])
def test_cli_names_each_dependent_or_invalid_basis(capsys, tmp_path, field, module, message):
    # each is decided by the one solve its construction makes, in this order
    rank = module.count("pseudo") or 1
    path = tmp_path / "bad.ini"
    path.write_text(f"[field]\n{field}\n[module]\nrank = {rank}\n{module}\n{SQRT2_BODIES}")
    code, out, err = run_cli(["polar", str(path), "--machine"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("field", ["preset = Q_sqrt2",
                                   "poly = -2, 0, 1\nbasis = [[1; 0], [0; 1]]"])
@pytest.mark.parametrize("claim,code,err", [
    ("discriminant = 8", 0, ""),
    ("discriminant = 7", 2, "error: [field]: claimed discriminant 7 differs from computed 8\n"),
    ("cm = true", 2, "error: [field]: claimed cm = true, but a CM field has no real "
                     "embeddings and this one has 2\n"),
])
def test_cli_field_claims_are_checked_alike_on_presets_and_custom_fields(
        capsys, tmp_path, field, claim, code, err):
    path = tmp_path / "claim.ini"
    path.write_text(f"[field]\n{field}\n{claim}\n[module]\nrank = 1\nidentity = true\n"
                    f"{SQRT2_BODIES}")
    got, out, got_err = run_cli(["polar", str(path), "--machine"], capsys)
    assert (got, got_err) == (code, err)
    assert ("polar biduality=pass" in out) == (code == 0)


@pytest.mark.parametrize("field", ["preset = Q_i", "poly = 1, 0, 1\nbasis = [[1; 0], [0; 1]]"])
def test_cli_true_cm_and_discriminant_claims_build(capsys, tmp_path, field):
    path = tmp_path / "claim.ini"
    path.write_text(f"[field]\n{field}\ndiscriminant = -4\ncm = true\n[module]\nrank = 1\n"
                    "identity = true\n[body.v1]\nshape = ball\nradius = 1\n")
    code, out, err = run_cli(["polar", str(path), "--machine"], capsys)
    assert (code, err) == (0, "") and "polar biduality=pass" in out


@pytest.mark.parametrize("field", ["preset = Q_i", "poly = 1, 0, 1\nbasis = [[1; 0], [0; 1]]"])
def test_cli_cm_claim_is_recorded_alike_on_presets_and_custom_fields(capsys, tmp_path, field):
    path = tmp_path / "claim.ini"
    path.write_text(f"[field]\n{field}\ncm = true\n[module]\nrank = 1\n"
                    "identity = true\n[body.v1]\nshape = ball\nradius = 1\n")
    code, out, err = run_cli(["transference", str(path)], capsys)
    assert (code, err) == (0, "")
    assert "hypotheses: totally_real=False cm=True (asserted: True)\n" in out


Q_RANK1 = "[field]\n{field}\n[module]\nrank = 1\n{module}\n[body.v1]\n{body}\n"
Q_BALL = "shape = ball\nradius = 1"


@pytest.mark.parametrize("text,message", [
    (Q_RANK1.format(field="poly =\nbasis = [[1]]", module="identity = true", body=Q_BALL),
     "[field] poly (line 2): expected a comma-separated list of rationals"),
    (Q_RANK1.format(field="preset = Q\ncm = yes", module="identity = true", body=Q_BALL),
     "[field] cm (line 3): expected true or false, got 'yes'"),
    (Q_RANK1.format(field="poly = -2, 0, 1\nbasis = [1; 0], [0; 1]", module="identity = true",
                    body=Q_BALL),
     "[field] basis (line 3): matrix must be written [[...], [...]]"),
    (Q_RANK1.format(field="poly = -2, 0, 1\nbasis = [[1,0; 0], [0; 1]]",
                    module="identity = true", body=Q_BALL),
     "[field] basis (line 3): entries must be single rationals separated by ';'"),
    (Q_RANK1.format(field="poly = -2, 0, 1\nbasis = [[1; 0]]", module="identity = true",
                    body=Q_BALL),
     "[field]: integral basis must consist of degree many vectors"),
    (Q_RANK1.format(field="preset = Q", module="identity = true", body=Q_BALL).replace(
        "rank = 1", "rank = one"),
     "[module] rank (line 4): 'one' is not an integer"),
    (SQRT2_RANK1.format(module="pseudo1 = 1,0; 0,1"),
     "[module] pseudo1 (line 6): expected '<ideal basis> | <vector>'"),
    (SQRT2_RANK1.format(module="pseudo1 = | 1"),
     "[module] pseudo1 (line 6): expected ';'-separated field elements"),
    (SQRT2_RANK1.format(module="pseudo1 = 1,0; 0,1 |"),
     "[module] pseudo1 (line 6): expected ';'-separated field elements"),
    (SQRT2_RANK1.format(module="pseudo1 = 1,0; 0,1 | 1; 0"),
     "[module] pseudo1: vector part needs 1 components"),
    (SQRT2_RANK1.format(module="pseudo1 = 1,0 | 1"),
     "[module] pseudo1: ideal basis must have one generator per degree"),
    (Q_RANK1.format(field="preset = Q", module="identity = true",
                    body="shape = ellipsoid\nq = [[1; 0], [0]]"),
     "[body.v1]: quadratic form must be square"),
    ("[field]\npreset = Q\n[module]\nrank = 1\nidentity = true\n",
     "missing body sections [body.v1], ..."),
], ids=["empty poly", "cm not boolean", "matrix not bracketed", "comma in basis entry",
        "basis rows", "rank not integer", "pseudo without bar", "pseudo empty left",
        "pseudo empty right", "pseudo vector length", "ideal generators", "ragged ellipsoid",
        "no body section"])
def test_cli_input_errors_name_their_location(capsys, tmp_path, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    code, out, err = run_cli(["polar", str(path), "--machine"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_cli_all_on_a_directory_without_ini_files_is_an_input_error(capsys, tmp_path):
    (tmp_path / "notes.txt").write_text(load_scenario_text("Q"))
    code, out, err = run_cli(["polar", "--all", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: no .ini files in {str(tmp_path)!r}\n"


# a box of halfwidths 1 and 10^9 at one real place: the bounding form's
# Cholesky factor fails, which is a refusal (exit 3), not a traceback
SKEWED_BOX = ("[field]\npreset = Q_sqrt2\n[module]\nrank = 2\nidentity = true\n"
              "[body.v1]\nshape = box\nhalfwidths = 1, 1000000000\n"
              "[body.v2]\nshape = ball\nradius = 1\n")


@pytest.mark.parametrize("command", ["minima", "transference"])
def test_cli_numerically_singular_bounding_form_exits_3(capsys, tmp_path, command):
    path = tmp_path / "skewed.ini"
    path.write_text(SKEWED_BOX)
    code, out, err = run_cli([command, str(path), "--machine"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.endswith("bounding form is numerically singular\n")


def test_cli_all_reports_a_computational_error_and_goes_on(capsys, tmp_path):
    (tmp_path / "a_skewed.ini").write_text(SKEWED_BOX)
    (tmp_path / "b_good.ini").write_text(load_scenario_text("Q"))
    code, out, _ = run_cli(["minima", "--all", str(tmp_path), "--machine"], capsys)
    assert code == 3  # worst of 3 and 0
    blocks = out.split("scenario file=")[1:]
    assert blocks[0] == (f"{tmp_path / 'a_skewed.ini'}\n"
                         "error kind=computational detail=bounding form is numerically singular\n")
    assert "lambda_1=" in blocks[1]


def test_cli_resolution_below_two_is_an_argument_error(capsys):
    # resolution below 2, cap below 1: bad input, not a failed run
    for flag, value, least in (("--resolution", "1", 2), ("--cap", "0", 1), ("--cap", "-1", 1)):
        with pytest.raises(SystemExit) as exc:
            main(["mu", "Q", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least {least}" in capsys.readouterr().err


def test_scenario_resolution_below_two_is_an_input_error(capsys, tmp_path):
    for key, value, least in (("resolution", "1", 2), ("cap", "0", 1), ("cap", "-1", 1)):
        text = load_scenario_text("Q") + f"\n[options]\n{key} = {value}\n"
        assert f"at least {least}" in scenario_error(text)
        path = tmp_path / "low.ini"
        path.write_text(text)
        code, _, err = run_cli(["mu", str(path)], capsys)
        assert code == 2
        assert f"{key} must be at least {least}" in err
        code, out, _ = run_cli(["mu", "--all", str(tmp_path), "--machine"], capsys)
        assert code == 2
        assert "error kind=input" in out


def test_precision_is_neither_a_flag_nor_an_options_key(capsys, tmp_path):
    # the roots are the companion eigenvalues after a fixed Newton polish: no precision to set
    with pytest.raises(SystemExit) as exc:
        main(["polar", "Q", "--precision", "60"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --precision 60" in capsys.readouterr().err
    path = tmp_path / "precision.ini"
    path.write_text(load_scenario_text("Q") + "\n[options]\nprecision = 60\n")
    code, out, err = run_cli(["polar", str(path), "--machine"], capsys)
    assert code == 2 and out == ""
    assert "unknown key 'precision' in [options]" in err
    code, out, _ = run_cli(["polar", "--all", str(tmp_path), "--machine"], capsys)
    assert code == 2
    assert "error kind=input" in out


# the budget flags each command reads, with the values the fuzz test below passes
BUDGET_FLAGS = {"polar": (), "verify-duality": (), "minima": ("--cap",),
                "transference": ("--cap",), "mu": ("--resolution", "--cap"),
                "paper-example": ("--cap",)}
FUZZ_BUDGETS = {"--cap": "20000", "--resolution": "4"}


def test_budget_flags_cover_every_command():
    assert set(BUDGET_FLAGS) == set(_SCENARIO_COMMANDS) | {"paper-example"}


@pytest.mark.parametrize("flag", ["--cap", "--resolution"])
@pytest.mark.parametrize("command", sorted(BUDGET_FLAGS))
def test_each_command_takes_exactly_the_budget_flags_it_reads(capsys, command, flag):
    argv = [command] + ([] if command == "paper-example" else ["Q_sqrt2"]) + ["--machine"]
    if flag not in BUDGET_FLAGS[command]:
        # a flag that cannot act is refused, not ignored
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
    elif flag == "--cap":
        # a cap of one node stops the command's first search
        assert main([*argv, flag, "1"]) == 3
        assert "enumeration would visit more than 1 nodes" in capsys.readouterr().err
    else:
        brackets = []
        for value in ("4", "8"):
            assert main([*argv, flag, value]) == 0
            brackets.append(capsys.readouterr().out)
        assert brackets[0] != brackets[1]


@pytest.mark.parametrize("command", sorted(_SCENARIO_COMMANDS))
def test_options_keys_are_valid_for_every_command(capsys, tmp_path, command):
    # a scenario file serves every command, whichever budgets it reads
    path = tmp_path / "budgets.ini"
    path.write_text(load_scenario_text("Q_sqrt2") + "\n[options]\ncap = 20000\nresolution = 4\n")
    code, out, err = run_cli([command, str(path), "--machine"], capsys)
    assert (code, err) == (0, "") and out


def test_cli_exit_code_3_on_cap(capsys):
    code, _, err = run_cli(["minima", "Q_sqrt2", "--cap", "2"], capsys)
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("command,code,message", [
    ("polar", 0, "polar biduality=pass"),
    ("minima", 0, "lambda_1=1 coords=[0,1,0,0] preimage=[0;1;0;0]\n"
                  "lambda_2=1 coords=[1,0,0,0] preimage=[0;0;0;1]\n"
                  "lambda_3=2 coords=[0,0,1,0] preimage=[0;0;2;0]\n"
                  "lambda_4=4.12310562562 coords=[0,0,0,1] preimage=[4;0;1;0]\n"),
    ("transference", 0, "\n".join(
        f"transfer ell={ell} lambda_S={s} lambda_Sstar={t} product={p} lower=1 upper=8 "
        "verdict=pass" for ell, s, t, p in [
            (1, "1", "1", "1"), (2, "1", "1", "1"),
            (3, "2", "0.515388203202", "1.0307764064"),
            (4, "4.12310562562", "0.25", "1.0307764064")])),
    ("mu", 3, "covering grid would hold 16777216 points; lower the resolution"),
    ("verify-duality", 0, "duality rank=4 equal=true"),
])
def test_cli_large_coefficients_end_in_an_exit_code(capsys, tmp_path, command, code, message):
    # each command ends with exit 0-3, no traceback; the exact reduction answers
    # `minima` and `transference`, and `verify-duality` through the reduced pair
    path = tmp_path / "large.ini"
    path.write_text(LARGE_SCENARIO)
    got, out, err = run_cli([command, str(path), "--machine"], capsys)
    assert got == code
    if code == 0:
        assert err == "" and message in out
    else:
        assert err == f"error: {message}\n"


def test_verify_duality_reports_a_root_failure_as_the_field_s_own(capsys, monkeypatch, tmp_path):
    # verify-duality reads the roots first; their failure is not a duality failure
    path = tmp_path / "sqrt2.ini"
    path.write_text("[field]\npoly = -2, 0, 1\nbasis = [[1; 0], [0; 1]]\n\n"
                    "[module]\nrank = 1\nmatrix = [[1]]\n\n[body.v1]\nshape = ball\nradius = 1\n\n"
                    "[body.v2]\nshape = ball\nradius = 1\n")
    monkeypatch.setattr(numberfield.np, "roots", lambda p: [1e6, -1.4])
    got, _, err = run_cli(["verify-duality", str(path), "--machine"], capsys)
    assert (got, err) == (3, "error: real root residual too large\n")


@pytest.mark.parametrize("module,names", [(np.linalg, ("cond", "inv", "solve")),
                                          (lattices, ("_lll_transform",))],
                         ids=["float solves", "reduction"])
def test_verify_duality_on_the_presets_pairs_the_lattices_as_given(capsys, monkeypatch,
                                                                   module, names):
    # the check is one pairing matrix: no condition number, inverse or solve, and no
    # packaged scenario's pairing is too large to round, so none is reduced
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    for name in names:
        monkeypatch.setattr(module, name, refuse)
    for name in PRESET_SCENARIOS:
        got, out, err = run_cli(["verify-duality", name, "--machine"], capsys)
        assert (got, err) == (0, "") and out.endswith(" equal=true\n")


def test_large_coefficients_primal_reduces_through_the_polar(capsys, tmp_path):
    # started from the polar's transform read off, the primal reduces to the rows
    # of |b_i|^2 = 1, 1, 4, 17 and lambda_1 = 1; `mu` answers at resolution 8 and
    # stops at the default grid's size
    body = parse_scenario(LARGE_SCENARIO).build()
    star = adelic_polar(body)
    _, red = reduced_pair(star.lattice(), body.lattice())
    assert red.rows == ([[0, 0, 0, -1], [0, 1, 0, 0], [0, 0, -2, 0], [4, 0, -1, 0]], 1)
    assert next(points_by_gauge(red, body.infinite_part, 1)).gauge == 1.0
    path = tmp_path / "large.ini"
    path.write_text(LARGE_SCENARIO)
    got, out, err = run_cli(["mu", str(path), "--machine", "--resolution", "8"], capsys)
    assert (got, err) == (0, "")
    assert "mu_lower=0.752599661175 mu_upper=0.925436423875" in out


def test_large_coefficients_polar_reduces_in_exact_arithmetic():
    # the polar's reduction is size-reduced and Lovasz at LLL_DELTA in Fractions,
    # as the primal read off it is (|b*|^2 = 1, 1, 4, 16)
    body = parse_scenario(LARGE_SCENARIO).build()
    rows, _ = reduced_pair(adelic_polar(body).lattice(), body.lattice())[0].rows
    assert is_lll_reduced(mat_mul(rows, transpose(rows)), LLL_DELTA)


# rank-2 modules with the generators (1, 0) and (2^30, 1) over fields that are not
# totally real: the float Gram matrix of the rows is singular, |(2^30, 1)|^2 = 2^60 + 1
# rounding to 2^60, while the Gram matrix under the rounded twisted form is exact in
# the rows; and the large generators over Q_i
SKEWED = {name: f"[field]\n{field}\n\n[module]\nrank = 2\nmatrix = [[1; {2 ** 30}], [0; 1]]\n\n"
          + "".join(f"[body.v{v}]\nshape = ball\nradius = 1\n" for v in range(1, places + 1))
          for name, field, places in [
              ("Q_i", "preset = Q_i", 1),
              ("x4+1", "poly = 1, 0, 0, 0, 1\n"
                       "basis = [[1; 0; 0; 0], [0; 1; 0; 0], [0; 0; 1; 0], [0; 0; 0; 1]]", 2),
              ("x3-x-1", "poly = -1, -1, 0, 1\nbasis = [[1; 0; 0], [0; 1; 0], [0; 0; 1]]", 2)]}
SKEWED["large Q_i"] = LARGE_SCENARIO.replace("preset = Q", "preset = Q_i")


# modules whose pairing has terms far apart: diag(1, 2^e) over Q, decided as given
# since its zero terms have no slack; over Q_sqrt2 the unit (1 + sqrt2)^20, whose
# embedding 2.2e-8 at the second place sums coordinates near 2.3e7 with cancellation,
# decided after reduction; and the ideal (1 + 2 theta) of Q(sqrt(10^12 + 3)), whose
# dual's coordinates near 1e-12 meet theta near 1e6: its pairing rounds within eps
# of its terms near 1, which the coordinates bound only with their weights |theta|^t
APART = {f"diag(1, 2^{e})": f"[field]\npreset = Q\n\n[module]\nrank = 2\n"
         f"matrix = [[1; 0], [0; {2 ** e}]]\n\n[body.v1]\nshape = ball\nradius = 1\n"
         for e in (25, 26, 60)}
APART["unit"] = ("[field]\npreset = Q_sqrt2\n\n[module]\nrank = 1\n"
                 "matrix = [[22619537, 15994428]]\n\n[body.v1]\nshape = ball\nradius = 1\n\n"
                 "[body.v2]\nshape = ball\nradius = 1\n")
APART["large root"] = ("[field]\npoly = -1000000000003, 0, 1\nbasis = [[1; 0], [0; 1]]\n\n"
                       "[module]\nrank = 1\nmatrix = [[1, 2]]\n\n[body.v1]\nshape = ball\n"
                       "radius = 1\n\n[body.v2]\nshape = ball\nradius = 1\n")


@pytest.mark.parametrize("name", APART)
def test_verify_duality_answers_pairings_with_terms_far_apart(capsys, tmp_path, name):
    path = tmp_path / "apart.ini"
    path.write_text(APART[name])
    got, out, err = run_cli(["verify-duality", str(path), "--machine"], capsys)
    assert (got, err) == (0, "") and out.endswith(" equal=true\n")


@pytest.mark.parametrize("name,command,lines", [
    ("Q_i", "minima", ["lambda_1=1 coords=[0,0,0,1] preimage=[0,0;0,1]",
                       "lambda_2=1 coords=[0,1,0,0] preimage=[0,1;0,0]"]),
    ("Q_i", "transference", [
        f"transfer ell={ell} lambda_S=1 lambda_Sstar=1 product=1 lower=0.5 upper=8 verdict=pass"
        for ell in (1, 2)]),
    ("x4+1", "minima", ["lambda_1=1 coords=[0,0,0,0,0,1,0,0] preimage=[0,0,0,0;0,1,0,0]",
                        "lambda_2=1 coords=[0,1,0,0,0,0,0,0] preimage=[0,1,0,0;0,0,0,0]"]),
    ("x4+1", "transference", [
        f"transfer ell={ell} lambda_S=1 lambda_Sstar=0.5 product=0.5 lower=n/a "
        "upper=22.627416998 verdict=pass" for ell in (1, 2)]),
    ("x3-x-1", "minima", ["lambda_1=1 coords=[0,0,0,1,0,0] preimage=[0,0,0;1,0,0]",
                          "lambda_2=1 coords=[1,0,0,0,0,0] preimage=[1,0,0;0,0,0]"]),
    ("x3-x-1", "transference", [
        f"transfer ell={ell} lambda_S=1 lambda_Sstar=0.564835226414 product=0.564835226414 "
        "lower=n/a upper=14.6969384567 verdict=pass" for ell in (1, 2)]),
    ("large Q_i", "minima", [
        "lambda_1=1 coords=[0,0,0,1,0,0,0,0] preimage=[0,0;0,1;0,0;0,0]",
        "lambda_2=1 coords=[0,0,1,0,0,0,0,0] preimage=[0,0;0,0;0,0;0,1]",
        "lambda_3=2 coords=[0,0,0,0,0,1,0,0] preimage=[0,0;0,0;0,2;0,0]",
        "lambda_4=4.12310562562 coords=[0,0,0,0,0,0,0,1] preimage=[0,4;0,0;0,1;0,0]"]),
    ("large Q_i", "transference", [
        f"transfer ell={ell} lambda_S={s} lambda_Sstar={t} product={p} lower=0.5 "
        "upper=22.627416998 verdict=pass" for ell, s, t, p in [
            (1, "1", "1", "1"), (2, "1", "1", "1"),
            (3, "2", "0.515388203202", "1.0307764064"),
            (4, "4.12310562562", "0.25", "1.0307764064")]]),
    *((name, "verify-duality", [f"duality rank={rank} equal=true"])
      for name, rank in (("Q_i", 2), ("x4+1", 2), ("x3-x-1", 2), ("large Q_i", 4))),
])
def test_cli_skewed_modules_over_fields_not_totally_real_answer(capsys, tmp_path, name,
                                                                 command, lines):
    path = tmp_path / "skewed.ini"
    path.write_text(SKEWED[name])
    got, out, err = run_cli([command, str(path), "--machine"], capsys)
    assert (got, err) == (0, "")
    assert [line for line in out.splitlines() if not line.startswith("thunder")] == lines


BALL_Q = ("[field]\npreset = Q\n[module]\nrank = 1\nidentity = true\n"
          "[body.v1]\nshape = ball\nradius = 1\n")
OUT_OF_RANGE = {
    "radius 1e-400": BALL_Q.replace("radius = 1", "radius = 1e-400"),
    "radius 1e-310 at one place": BALL_Q.replace("preset = Q", "preset = Q_sqrt2").replace(
        "radius = 1", "radius = 1e-310\n[body.v2]\nshape = ball\nradius = 1"),
    "radius 1e400": BALL_Q.replace("radius = 1", "radius = 1e400"),
    "ellipsoid 1e400": BALL_Q.replace("shape = ball\nradius = 1",
                                      "shape = ellipsoid\nq = [[1e400]]"),
    "matrix 1e400": BALL_Q.replace("identity = true", "matrix = [[1e400]]"),
    "matrix 1e-400": BALL_Q.replace("identity = true", "matrix = [[1e-400]]"),
    "poly -10^400": BALL_Q.replace("preset = Q",
                                   f"poly = {-10 ** 400}, 0, 1\nbasis = [[1; 0], [0; 1]]")
    + "[body.v2]\nshape = ball\nradius = 1\n",
}
ENUMERATING = ("minima", "transference", "mu")


@pytest.mark.parametrize("name,command", [
    *((name, c) for name in ("radius 1e-400", "radius 1e-310 at one place", "radius 1e400",
                             "ellipsoid 1e400") for c in ENUMERATING),
    *(("matrix 1e400", c) for c in ENUMERATING + ("verify-duality",)),
    *(("matrix 1e-400", c) for c in ("transference", "verify-duality")),
    *(("poly -10^400", c) for c in ENUMERATING + ("verify-duality", "polar")),
])
def test_cli_values_outside_the_float_range_end_in_an_exit_code(capsys, tmp_path, name, command):
    # the float is refused where it is formed, with the value named
    path = tmp_path / "range.ini"
    path.write_text(OUT_OF_RANGE[name])
    got, out, err = run_cli([command, str(path), "--machine"], capsys)
    assert got in (2, 3) and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


SCENARIO_TEXTS = [load_scenario_text(name) for name in PRESET_SCENARIOS] + [
    path.read_text() for path in sorted((Path(__file__).parent / "scenarios").glob("*.ini"))]
SCENARIO_LINES = sorted({line for text in SCENARIO_TEXTS for line in text.splitlines()})


@st.composite
def edited_scenarios(draw):
    """A shipped or test scenario after one to four random line edits."""
    lines = draw(st.sampled_from(SCENARIO_TEXTS)).splitlines()
    noise = st.text(alphabet="[]=;,|/-+#.0123456789 abcdefimnoprstuvxyz", max_size=30)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["delete", "duplicate", "insert", "splice"]))
        if edit == "delete" and i < len(lines):
            del lines[i]
        elif edit == "duplicate" and i < len(lines):
            lines.insert(i, lines[i])
        elif edit == "insert":
            lines.insert(i, draw(st.sampled_from(SCENARIO_LINES) | noise))
        elif i < len(lines):
            # replace a piece of the line with noise
            line = lines[i]
            start = draw(st.integers(0, len(line)))
            stop = draw(st.integers(start, len(line)))
            lines[i] = line[:start] + draw(noise) + line[stop:]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(edited_scenarios())
def test_edited_scenarios_end_in_an_exit_code(text):
    # bad scenario text is an input error, never an escaped exception
    try:
        parse_scenario(text)
    except ScenarioError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.ini"
        path.write_text(text)
        for command in ("polar", "verify-duality", "minima", "transference", "mu"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([command, str(path), "--machine",
                             *(x for flag in BUDGET_FLAGS[command]
                               for x in (flag, FUZZ_BUDGETS[flag]))])
            assert code in (0, 1, 2, 3)


def test_cli_all_directory(capsys, tmp_path):
    (tmp_path / "a_good.ini").write_text(load_scenario_text("Q"))
    (tmp_path / "b_bad.ini").write_text("[field]\npreset = Q\n")
    code, out, _ = run_cli(
        ["transference", "--all", str(tmp_path), "--machine"], capsys)
    assert code == 2  # worst of 0 and 2
    assert "scenario file=" in out
    assert "error kind=input" in out
    assert "transfer ell=1" in out
    code, _, err = run_cli(
        ["transference", "Q", "--all", str(tmp_path)], capsys)
    assert code == 2  # scenario and --all are mutually exclusive
    code, _, err = run_cli(
        ["transference", "--all", str(tmp_path / "nope")], capsys)
    assert code == 2


def test_cli_unreadable_scenario_file_is_an_input_error(capsys, tmp_path):
    # a directory or a file that is not UTF-8 is bad input (exit 2), not a traceback
    latin = tmp_path / "latin.ini"
    latin.write_bytes(load_scenario_text("Q").encode() + b"# caf\xe9\n")
    for path in (tmp_path, latin):
        code, out, err = run_cli(["minima", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read scenario file")


@pytest.mark.parametrize("section", ["[body.v01]", "[body.v+1]", "[body.v1_0]", "[body.v0]"])
def test_cli_noncanonical_body_section_is_an_input_error(capsys, tmp_path, section):
    path = tmp_path / "bad.ini"
    path.write_text(PSEUDO.replace("[body.v1]", section))
    code, out, err = run_cli(["minima", str(path), "--machine"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {section}: body sections are [body.v1], [body.v2], ...\n"
    code, out, _ = run_cli(["minima", "--all", str(tmp_path), "--machine"], capsys)
    assert code == 2
    assert f"error kind=input detail={section}: body sections are" in out


@pytest.mark.parametrize("extra", ["pseudo01 = 1,0; 0,1 | 1,0; 0,0", "pseudo+1 = 1 | 1; 0",
                                   "pseudo1_0 = 1 | 1; 0"])
def test_cli_noncanonical_pseudo_key_is_an_input_error(capsys, tmp_path, extra):
    # beside pseudo1, an index not in plain digits must not replace it or pose as pseudo10
    path = tmp_path / "bad.ini"
    path.write_text(PSEUDO.replace("pseudo2 =", extra + "\npseudo2 ="))
    code, out, err = run_cli(["polar", str(path), "--machine"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: [module] " + extra.split(" ")[0])
    assert err.endswith("pseudo keys are pseudo1, pseudo2, ...\n")


@pytest.mark.parametrize("module, where", [
    ("pseudo1 = 1,0,0; 0,1 | 1", "[module] pseudo1"),  # an ideal generator
    ("pseudo1 = 1,0; 0,1 | 1,0,0", "[module] pseudo1"),  # the vector part
    ("matrix = [[1,0,0]]", "[module] matrix"),
])
def test_cli_wrongly_sized_element_names_its_location_once(capsys, tmp_path, module, where):
    path = tmp_path / "bad.ini"
    path.write_text(SQRT2_RANK1.format(module=module))
    message = f"{where}: field elements need 2 coordinates, got 3"
    code, out, err = run_cli(["polar", str(path), "--machine"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = run_cli(["polar", "--all", str(tmp_path), "--machine"], capsys)
    assert code == 2
    assert out == f"scenario file={path}\nerror kind=input detail={message}\n"


def test_cli_all_reports_unreadable_files_and_goes_on(capsys, tmp_path):
    (tmp_path / "a_dir.ini").mkdir()
    (tmp_path / "b_latin.ini").write_bytes(b"[field]\npreset = Q\n# caf\xe9\n")
    (tmp_path / "c_good.ini").write_text(load_scenario_text("Q"))
    code, out, _ = run_cli(["minima", "--all", str(tmp_path), "--machine"], capsys)
    assert code == 2  # worst of 2, 2 and 0
    blocks = out.split("scenario file=")[1:]
    assert [b.splitlines()[0].rsplit("/", 1)[-1] for b in blocks] == [
        "a_dir.ini", "b_latin.ini", "c_good.ini"]
    assert "error kind=input detail=cannot read scenario file" in blocks[0]
    assert "error kind=input detail=cannot read scenario file" in blocks[1]
    assert "lambda_1=" in blocks[2]


def cli_env(**extra):
    """The environment of a `python -m adelic.cli` process: this checkout's src on its path."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), **extra)


def test_cli_runs_are_deterministic_across_processes():
    cmd = [sys.executable, "-m", "adelic.cli", "transference", "Q_sqrt5",
           "--machine"]
    runs = [subprocess.run(cmd, capture_output=True, env=cli_env(PYTHONHASHSEED=seed))
            for seed in ("0", "1")]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "adelic.cli", "--help"], capture_output=True, env=cli_env())
    assert proc.returncode == 0
    for sub in ("polar", "minima", "transference", "mu",
                "verify-duality", "paper-example"):
        assert sub.encode() in proc.stdout
