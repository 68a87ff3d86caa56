"""The benchmark's tracer (perfbench/tracing.py) against the package.

The tracer wraps methods and functions by name, so renaming or moving a
traced entry point must fail here as well as in the benchmark's own
self-test.
"""

import importlib.util
import inspect
import sys
from fractions import Fraction
from pathlib import Path

import adelic
from adelic import (
    AdelicBody,
    preset_field,
    standard_module,
    transference_check,
    uniform_ball_body,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def package_namespaces():
    """Every adelic module and every class defined in one, by identity."""
    owners = [mod for name, mod in sys.modules.items()
              if mod is not None and (name == "adelic" or name.startswith("adelic."))]
    classes = [cls for mod in owners for cls in vars(mod).values()
               if inspect.isclass(cls) and cls.__module__.startswith("adelic")]
    return {id(owner): (owner, dict(vars(owner))) for owner in owners + classes}


def test_benchmark_tracer_installs_counts_and_uninstalls():
    before = package_namespaces()
    try_add = adelic.KRankTracker.__dict__["try_add"]
    tracer = load_tracer_class()()
    tracer.install()
    try:
        assert adelic.KRankTracker.__dict__["try_add"] is not try_add
        k = preset_field("Q_sqrt2")
        body = AdelicBody(standard_module(k, 2), uniform_ball_body(k, 2, Fraction(1)))
        assert transference_check(body).passed
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["transference.minima.calls"] == 2
    assert counts["transference.minima.witnesses"] == 4
    assert counts["lattices.preimage.calls"] == counts["transference.minima.witnesses"]
    assert counts["omodules.krank.calls"] >= counts["omodules.krank.accepts"] == 4
    assert counts["omodules.trace_dual.calls"] == 1
    for owner, namespace in before.values():
        assert all(vars(owner)[attr] is value for attr, value in namespace.items())


def test_benchmark_tracer_counts_the_cli_paths(capsys):
    # `cli_duality`'s commands and a covering run, through `cli.main` under the
    # tracer: each wrapped name they reach must count, and uninstall restores all
    from adelic import cli, lattices  # noqa: F401 (loaded before the namespaces are read)

    before = package_namespaces()
    tracer = load_tracer_class()()
    tracer.install()
    try:
        codes = [cli.main([*argv, "Q_sqrt2", "--machine"])
                 for argv in (["polar"], ["verify-duality"], ["mu", "--resolution", "8"])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    assert "duality rank=1 equal=true" in capsys.readouterr().out
    counts = tracer.counts
    assert counts["cli.main.calls"] == 3
    assert counts["scenario.parse.calls"] == counts["scenario.build.calls"] == 3
    assert counts["lattices.duality_check.calls"] == 1
    assert counts["lattices.cover.calls"] == 1
    for owner, namespace in before.values():
        assert all(vars(owner)[attr] is value for attr, value in namespace.items())
