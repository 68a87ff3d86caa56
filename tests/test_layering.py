"""The exact layer runs without numpy; the float layer loads it on first use.

`exact_layer_results` runs `polar`, `--help`, input errors and the exact
API in one interpreter, and `test_exact_layer_runs_with_numpy_blocked`
calls it in a subprocess whose `sys.modules["numpy"]` is None, so that
any import of numpy there raises.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest

import adelic
from adelic import NumberField
from test_cli_golden import GOLDEN, RUNS, run

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adelic"
NUMPY_FREE = ("__init__", "errors", "exactla", "numberfield", "omodules", "bodies",
              "scenario", "cli")
FLOAT_LAYER = ("lattices", "transference")

# `dir(adelic)` of a fresh `import adelic` while the package still imported every export,
# less `inhomogeneous_minimum`, a one-line wrapper of `covering_radius_bounds` since removed
PACKAGE_DIR = [
    "AdelicBody", "Ball", "Box", "ConditioningError", "CrossPolytope", "DimensionLimitError",
    "Ellipsoid", "EmbeddedLattice", "EnumerationCapError", "FieldElement", "FractionalIdeal",
    "HypothesisFlags", "KModule", "KRankTracker", "LatticePoint", "MinimaReport",
    "MuProductReport", "NumberField", "PRESET_FIELDS", "PRESET_SCENARIOS", "PlaceBody",
    "ProductBody", "Scenario", "ScenarioError", "TransferenceReport", "__all__",
    "__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__",
    "__package__", "__path__", "__spec__", "__version__", "adelic_equal", "adelic_minima",
    "adelic_polar", "bodies", "covering_radius_bounds", "enumerate_below", "errors",
    "exactla", "lattice_equal", "lattice_from_module", "lattices",
    "module_from_matrix", "mu_product_report", "numberfield", "omodules", "parse_scenario",
    "preset_field", "quadratic_field", "rational_field", "scenario",
    "standard_module", "transference", "transference_check", "uniform_ball_body",
]
PACKAGE_ALL = [name for name in PACKAGE_DIR if name[0] != "_" and name not in (
    "bodies", "errors", "exactla", "lattices", "numberfield", "omodules", "scenario",
    "transference")]

BAD_SCENARIO = """\
[field]
preset = Q_sqrt2

[module]
rank = 1
pseudo1 = 1,0,0; 0,1 | 1

[body.v1]
shape = ball
radius = 1

[body.v2]
shape = ball
radius = 1
"""


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = adelic.cli.main(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def exact_layer_results(bad_path: str) -> dict:
    """What the exact layer does in this interpreter, and which adelic modules it loaded."""
    polar = {" ".join(argv): run(argv) for argv in RUNS if argv[0] == "polar"}
    body = adelic.parse_scenario(adelic.cli.load_scenario_text("Q_sqrt-3")).build()
    star = adelic.adelic_polar(body)
    results = {
        "polar": polar,
        "help": run_cli(["--help"]),
        "bad": run_cli(["polar", bad_path, "--machine"]),
        "biduality": adelic.adelic_equal(adelic.adelic_polar(star), body),
        "loaded": sorted(name for name in sys.modules if name.startswith("adelic.")),
    }
    try:
        adelic.transference_check
    except ImportError as exc:
        results["float_layer"] = str(exc)
    return results


def test_exact_layer_runs_with_numpy_blocked(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(BAD_SCENARIO)
    code = ("import json, sys; sys.modules['numpy'] = None; import test_layering; "
            f"print(json.dumps(test_layering.exact_layer_results({str(bad)!r})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    golden = json.loads(GOLDEN.read_text())
    assert len(got["polar"]) == 9  # the five presets and the four test scenarios
    for key, result in got["polar"].items():
        assert result == golden[key], key
    assert got["help"]["code"] == 0 and "polar" in got["help"]["stdout"]
    assert got["bad"] == {"code": 2, "stdout": "", "stderr": "error: [module] pseudo1: "
                          "field elements need 2 coordinates, got 3\n"}
    assert got["biduality"] is True
    assert not set(got["loaded"]) & {f"adelic.{m}" for m in FLOAT_LAYER}
    assert "numpy" in got["float_layer"]


def refuse_roots(field):
    raise AssertionError(f"roots of {field} found")


@pytest.mark.parametrize("scenario", [*adelic.PRESET_SCENARIOS, *(
    str(path) for path in sorted((ROOT / "tests" / "scenarios").glob("*.ini")))])
def test_polar_and_biduality_find_no_roots(scenario, capsys):
    # the roots are float data: only an embedding reads them, and the polar needs none
    with patch.object(NumberField, "_roots", property(refuse_roots)):
        assert adelic.cli.main(["polar", scenario, "--machine"]) == 0
    body = adelic.parse_scenario(adelic.cli.load_scenario_text(scenario)).build()
    assert adelic.adelic_equal(adelic.adelic_polar(adelic.adelic_polar(body)), body)
    assert "_roots" not in vars(body.field)
    assert [kind for kind, _ in body.field.places] == body.field.place_kinds


def unconditional_imports(module: str) -> set[str]:
    """Top names of the modules that the top-level statements of `module` import.

    `from . import x` names x; `from .x import y` names x.  An import
    under an `if`, like the package's import of the float layer beside a
    loaded numpy, is checked by running it instead.
    """
    names = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module} if node.module else {alias.name for alias in node.names}
    return {name.split(".")[0] for name in names}


@pytest.mark.parametrize("module", NUMPY_FREE + FLOAT_LAYER)
def test_only_the_float_layer_imports_numpy_at_module_level(module):
    float_side = {"numpy", *FLOAT_LAYER} & unconditional_imports(module)
    assert bool(float_side) == (module in FLOAT_LAYER), float_side


@pytest.mark.parametrize("numpy_first", [False, True])
def test_import_adelic_loads_the_float_layer_only_beside_numpy(numpy_first):
    code = ("import sys; " + ("import numpy; " if numpy_first else "") + "import adelic; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('numpy', 'adelic'))))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    loaded = set(proc.stdout.split())
    assert {f"adelic.{m}" for m in FLOAT_LAYER} <= loaded if numpy_first else loaded == {"adelic"}


def test_exports_and_dir_are_those_of_the_eager_package():
    assert adelic.__all__ == PACKAGE_ALL
    code = "import adelic, json; print(json.dumps(dir(adelic)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert json.loads(proc.stdout) == PACKAGE_DIR
    namespace = {}
    exec("from adelic import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PACKAGE_ALL
    for name, value in namespace.items():
        assert getattr(adelic, name) is value
        if hasattr(value, "__module__"):  # a class or function: the one its module defines
            assert getattr(sys.modules[value.__module__], name) is value


def test_exports_resolved_under_the_tracer_are_the_originals_after_it():
    from adelic import bodies, transference
    from test_tracing import load_tracer_class  # its imports need numpy
    originals = {"transference_check": transference.__dict__["transference_check"],
                 "adelic_polar": bodies.__dict__["adelic_polar"]}
    assert not set(originals) & set(vars(adelic))  # each read goes through adelic.__getattr__
    tracer = load_tracer_class()()
    tracer.install()
    try:
        traced = {name: getattr(adelic, name) for name in originals}
    finally:
        tracer.uninstall()
    assert traced["adelic_polar"] is not originals["adelic_polar"]  # wrapped for a span
    assert traced["transference_check"] is originals["transference_check"]  # never wrapped
    assert all(getattr(adelic, name) is fn for name, fn in originals.items())
    assert transference.adelic_polar is originals["adelic_polar"]
