"""Scenario file grammar and the command line interface."""

import subprocess
import sys
from fractions import Fraction

import pytest

from adelic import (
    Ball,
    Ellipsoid,
    PRESET_SCENARIOS,
    ScenarioError,
    parse_scenario,
)
from adelic.cli import load_scenario_text, main
from field_reference import contains

F = Fraction


# -- parsing -----------------------------------------------------------------


@pytest.mark.parametrize("name", PRESET_SCENARIOS)
def test_preset_files_build(name):
    body = parse_scenario(load_scenario_text(name)).build()
    assert body.field.name == name


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
    scn = parse_scenario(text)
    assert scn.bodies[0].radius == F(1, 2)


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


def test_options_override_and_cli_precedence():
    scn = parse_scenario(CUSTOM)
    opts = scn.options()
    assert opts.resolution == 32 and opts.enumeration_cap == 500000
    assert opts.precision_bits == 53  # default survives


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


def test_cli_resolution_below_two_is_an_argument_error(capsys):
    # resolution below 2, cap and precision below 1: bad input, not a failed run
    for flag, value, least in (("--resolution", "1", 2), ("--cap", "0", 1), ("--cap", "-1", 1),
                               ("--precision", "0", 1), ("--precision", "-3", 1)):
        with pytest.raises(SystemExit) as exc:
            main(["mu", "Q", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least {least}" in capsys.readouterr().err


def test_scenario_resolution_below_two_is_an_input_error(capsys, tmp_path):
    for key, value, least in (("resolution", "1", 2), ("cap", "0", 1), ("cap", "-1", 1),
                              ("precision", "-3", 1)):
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


def test_cli_exit_code_3_on_cap(capsys):
    code, _, err = run_cli(["minima", "Q_sqrt2", "--cap", "2"], capsys)
    assert code == 3
    assert "error" in err


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


def env_plus(hash_seed):
    import os

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    return env


def test_cli_runs_are_deterministic_across_processes():
    cmd = [sys.executable, "-m", "adelic.cli", "transference", "Q_sqrt5",
           "--machine"]
    runs = [subprocess.run(cmd, capture_output=True, env=env_plus(seed))
            for seed in ("0", "1")]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "adelic.cli", "--help"], capture_output=True)
    assert proc.returncode == 0
    for sub in ("polar", "minima", "transference", "mu",
                "verify-duality", "paper-example"):
        assert sub.encode() in proc.stdout
