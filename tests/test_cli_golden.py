"""Machine output of the CLI on every preset and test scenario, pinned byte for byte.

`cli_golden.json` maps each argument list (joined by spaces) to the exit
code and stdout of `adelic.cli.main`.  The scenario files under
`scenarios/` (modules of rank 2 and 3 over fields of degree 3 to 5) are
named relative to this directory in the keys.  A change that should not alter any
result keeps this test passing; one that should alter output regenerates
the file, from a tree whose output has been checked, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from adelic import PRESET_SCENARIOS, cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
SCENARIOS = Path(__file__).with_name("scenarios")

COMMANDS = (["polar"], ["minima"], ["transference"], ["mu", "--resolution", "16"],
            ["verify-duality"])

RUNS = [[cmd[0], preset, *cmd[1:], "--machine"]
        for preset in PRESET_SCENARIOS for cmd in COMMANDS]
RUNS.append(["paper-example", "--machine"])
RUNS += [[cmd, f"{SCENARIOS.name}/{path.name}", "--machine"]
         for path in sorted(SCENARIOS.glob("*.ini"))
         for cmd in ("polar", "minima", "transference", "verify-duality")]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(GOLDEN.parent / a) if a.startswith(f"{SCENARIOS.name}/") else a
                         for a in argv])
    return {"code": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    assert run(argv) == golden[" ".join(argv)]


@pytest.mark.parametrize("argv", [argv for argv in RUNS
                                  if not argv[1].startswith(f"{SCENARIOS.name}/")], ids=" ".join)
def test_human_output_holds_the_machine_lines_in_order(golden, argv):
    # without --machine: the same exit code, and prose around the same lines
    machine = golden[" ".join(argv)]
    human = run([a for a in argv if a != "--machine"])
    assert human["code"] == machine["code"]
    lines = human["stdout"].splitlines()
    rest = iter(lines)
    assert all(line in rest for line in machine["stdout"].splitlines())  # a subsequence
    assert len(lines) > len(machine["stdout"].splitlines())


def test_golden_file_covers_exactly_the_runs(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in RUNS)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({" ".join(argv): run(argv) for argv in RUNS}, indent=1) + "\n")
