"""Smoke runs of the experiment scripts against the package in src/."""

import difflib
import json
import math
import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import adelic
import adelic.cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["transference_suite.py", "--presets", "Q_sqrt2", "--ranks", "1", "--trials", "1"],
    ["covering_convergence.py", "Q_sqrt2", "--min-resolution", "4", "--max-resolution", "32"],
], ids=["transference_suite", "covering_convergence"])
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_dump_outputs_prints_the_stored_cli_output_of_the_committed_seed():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "dump_outputs.py"),
                           "--workloads", "cli_duality", "--seeds", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stored = json.loads((ROOT / "perfbench" / "reference.json").read_text())["cli_duality"]
    assert stored["committed_seed"] == 1
    blocks = proc.stdout.replace("\ncli_duality ", "\n\0cli_duality ").split("\0")
    assert len(blocks) == len(stored["slots"]) == 42
    for i, (block, ref) in enumerate(zip(blocks, stored["slots"])):
        header, code, *stdout = block.splitlines()
        assert header == f"cli_duality seed=1 case={i} slot={ref['slot']}"
        assert code == f"  exit={ref['outputs']['code']}"
        assert "".join(line[4:] + "\n" for line in stdout) == ref["outputs"]["stdout"]


def test_dump_outputs_cli_block_runs_every_command_and_mode():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "dump_outputs.py"),
                           "--workloads", "cli"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    blocks = {}
    for block in proc.stdout.replace("\ncli ", "\n\0cli ").split("\0"):
        header, *lines = block.splitlines()
        blocks[header] = lines
    files = sorted(path.name for path in (ROOT / "tests" / "scenarios").glob("*.ini"))
    commands = list(adelic.cli._SCENARIO_COMMANDS)
    plain = [f"cli {command} {name}{mode}" for name in (*adelic.PRESET_SCENARIOS, *files)
             for command in commands for mode in (" --machine", "")]
    assert set(plain) < set(blocks)
    # the large-coefficient module, written to $TMP, under every command and mode
    assert {f"cli {command} large-coefficients{mode}" for command in commands
            for mode in (" --machine", "")} < set(blocks)
    assert blocks["cli verify-duality large-coefficients --machine"] == [
        "  exit=0", "    duality rank=4 equal=true"]
    headers = list(blocks)
    edited = [header for header in headers if header.startswith("cli edited ")]
    assert len(edited) == 100 and headers[-100:] == edited
    assert headers[-102:-100] == ["cli paper-example --machine", "cli paper-example"]
    assert all(lines[0].startswith("  text=") and lines[1].startswith(("  parsed=", "  raised "))
               for header, lines in blocks.items() if header in edited)
    # --all runs each file as alone, under its header, with its error on stdout, and
    # exits with the worst code
    for command in commands:
        for mode in (" --machine", ""):
            want, worst = [], 0
            for name in files:
                code, *lines = blocks[f"cli {command} {name}{mode}"]
                code = int(code.removeprefix("  exit="))
                kind = {2: "input", 3: "computational"}.get(code)
                want += [f"    scenario file=$ROOT/tests/scenarios/{name}"] + [
                    line.replace("stderr: error: ", f"error kind={kind} detail=")
                    for line in lines]
                worst = max(worst, code)
            assert blocks[f"cli {command} --all tests/scenarios{mode}"] == [f"  exit={worst}",
                                                                            *want]
            failing = blocks[f"cli {command} --all failing{mode}"]
            searches = command in ("minima", "transference", "mu")  # the cap stops these
            assert failing[0] == ("  exit=3" if searches else "  exit=2")
            assert failing[2] == "    error kind=input detail=missing [module] section"
        for name, message in (("no scenario", "a scenario file or preset name is required"),
                              ("Q --all", "give either a scenario or --all, not both"),
                              ("--all missing", "'$TMP/missing' is not a directory"),
                              ("--all empty", "no .ini files in '$TMP/empty'")):
            assert blocks[f"cli {command} {name}"] == ["  exit=2", f"    stderr: error: {message}"]
    # the machine lines of the golden runs, and a true [field] claim changes nothing
    golden = json.loads((ROOT / "tests" / "cli_golden.json").read_text())
    checked = 0
    for header in plain:
        command, name, *mode = header.split(" ")[1:]
        key = " ".join([command, f"scenarios/{name}" if name in files else name, *mode])
        if key in golden:
            checked += 1
            assert blocks[header] == [f"  exit={golden[key]['code']}"] + [
                "    " + line for line in golden[key]["stdout"].splitlines()]
    assert checked == 4 * (len(adelic.PRESET_SCENARIOS) + len(files))  # all but mu's
    # but the human hypotheses line, which records a cm claim
    recorded = [line.replace("(asserted: False)", "(asserted: True)")
                for line in blocks["cli transference Q_i"]]
    assert recorded != blocks["cli transference Q_i"]
    for base, claim in (("Q_sqrt2", "discriminant = 8"), ("Q_i", "discriminant = -4"),
                        ("Q_i", "cm = true"), ("x3-x-1_rank2_box.ini", "discriminant = -23")):
        for header in plain:
            if header.split(" ")[2] == base:
                expected = (recorded if (header, claim) == ("cli transference Q_i", "cm = true")
                            else blocks[header])
                assert blocks[header.replace(base, f"{base}[{claim}]")] == expected
    for base, claim, message in (
            ("Q_sqrt2", "discriminant = 7", "claimed discriminant 7 differs from computed 8"),
            ("Q_sqrt2", "cm = true", "claimed cm = true"),
            ("x3-x-1_rank2_box.ini", "discriminant = 23", "claimed discriminant 23"),
            ("x3-x-1_rank2_box.ini", "cm = true", "claimed cm = true")):
        wrong = [lines for header, lines in blocks.items() if f"{base}[{claim}]" in header]
        assert len(wrong) == 2 * len(commands)
        assert all(lines[0] == "  exit=2" and len(lines) == 2
                   and lines[1].startswith(f"    stderr: error: [field]: {message}")
                   for lines in wrong)


def test_dump_outputs_prints_every_corpus_field_and_preset():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "dump_outputs.py"),
                           "--workloads", "fields"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import corpus
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    blocks = [block.splitlines() for block in proc.stdout.replace("\nfields ", "\n\0fields ")
              .split("\0")]
    assert [block[0] for block in blocks] == (
        [f"fields corpus={name}" for name in corpus.FIELDS]
        + [f"fields preset={name}" for name in adelic.PRESET_FIELDS])
    signatures = [spec[3] for spec in corpus.FIELDS.values()] + [
        adelic.preset_field(name).signature for name in adelic.PRESET_FIELDS]
    for block, (r, s) in zip(blocks, signatures):
        assert len(block) == 5 and block[1].endswith(f" signature=({r}, {s})")
        real, cplx = block[3].split("=")[1], block[4].split("=")[1]
        assert (len(real.split(",")) if real else 0, len(cplx.split(";")) if cplx else 0) == (r, s)


def test_dump_outputs_values_prints_no_witness_and_no_float_hex():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "dump_outputs.py"),
                           "--workloads", "transference", "covering", "--seeds", "1", "--values"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert not any("witness" in line or "0x" in line for line in lines)
    minima = [line for line in lines if line.startswith("  S minima=")]
    assert minima and len(minima) == sum(line.startswith("  S* minima=") for line in lines)
    for line in minima:
        assert all(float(x) > 0 for x in line.split()[1][len("minima="):].split(","))
    assert any(line.startswith("  ell=1 product=") and line.endswith("upper=pass")
               for line in lines)
    assert any(line.startswith("  lambda1=") for line in lines)


def test_minima_scaling_prints_one_row_per_case():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "minima_scaling.py"),
                           "--cubic", "2", "--z", "4", "8", "--reduce", "6", "16",
                           "--reduce-cm", "2", "4", "--duality"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [(row[-4], row[-1]) for row in rows] == [
        ("6", "ok"), ("4", "ok"), ("8", "ok"), ("6", "ok"), ("16", "ok"), ("8", "ok"),
        ("16", "ok")]
    assert [" ".join(row[:2]) for row in rows[3:]] == [
        "reduced() Z-lattice", "reduced() Z-lattice", "reduced() x^4+1", "reduced() x^4+1"]
    assert all(float(row[-3]) >= 0 and float(row[-2]) > 0 for row in rows)


def test_minima_scaling_duality_rows_time_polar_and_biduality():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "minima_scaling.py"),
                           "--cubic", "--z", "--reduce", "--reduce-cm", "--duality", "2", "4"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [(" ".join(row[:3]), row[-4], row[-1]) for row in rows] == [
        ("polar x^4+1 n=2", "8", "ok"), ("polar x^4+1 n=4", "16", "ok")]
    assert all(float(row[-3]) >= 0 and float(row[-2]) > 0 for row in rows)


def test_minima_scaling_cap_reaches_the_minima_and_transference_rows():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "minima_scaling.py"),
                           "--cubic", "2", "--z", "4", "--reduce", "--reduce-cm", "--duality",
                           "--cap", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 2
    assert rows[0].startswith("transference x^3-x-1 n=2") and "body S: minima search" in rows[0]
    assert rows[1].startswith("minima Z-lattice n=4") and "minima search" in rows[1]
    assert all("enumeration would visit more than 1 nodes" in row for row in rows)


def test_minima_scaling_against_a_tree_compares_every_row(tmp_path):
    # the same package under both names: every row identical, exit 0; a copy
    # whose LLL stops at the Lovasz constant 3/4 reduces to other rows: exit 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "scripts" / "minima_scaling.py"), "--cubic", "2",
            "--z", "4", "--reduce", "16", "--reduce-cm", "--duality", "2"]
    proc = subprocess.run([*argv, "--against", str(ROOT / "src")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["case", "nd", "seconds", "against_s", "ratio", "rss_mb",
                              "identical", "result"]
    assert [row.split()[-2:] for row in rows] == [["yes", "ok"]] * 4
    for row in rows:
        seconds, against_s, ratio = map(float, row.split()[-6:-3])
        assert seconds > 0 and against_s > 0 and ratio > 0

    shutil.copytree(ROOT / "src" / "adelic", tmp_path / "adelic")
    lattices_py = tmp_path / "adelic" / "lattices.py"
    text = lattices_py.read_text()
    assert "LLL_DELTA = Fraction(99, 100)" in text
    lattices_py.write_text(text.replace("Fraction(99, 100)", "Fraction(3, 4)"))
    proc = subprocess.run([*argv, "--against", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert [row.split()[-2] for row in proc.stdout.splitlines()[1:]][2] == "NO"


def test_covering_convergence_exits_1_when_brackets_do_not_nest(monkeypatch):
    # widening brackets must fail the run, also under python -O
    widths = iter([0.5, 0.75])
    monkeypatch.setattr(adelic, "covering_radius_bounds",
                        lambda lat, body, resolution: (1.0, 1.0 + next(widths)))
    monkeypatch.setattr(sys, "argv", ["covering_convergence.py", "Q_sqrt2",
                                      "--min-resolution", "4", "--max-resolution", "8"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "covering_convergence.py"), run_name="__main__")
    # sys.exit with a message prints it to stderr and exits with status 1
    message = exc.value.code
    assert isinstance(message, str)
    assert message.startswith("error:") and "does not nest" in message
    assert "1.75" in message and "1.5" in message


def test_covering_convergence_prints_seconds_and_peak_mb():
    # the --mu-rank rows time mu_product_report, as the ROADMAP scale row does
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "covering_convergence.py"),
                           "Q_sqrt2", "--mu-rank", "2", "--min-resolution", "4",
                           "--max-resolution", "8"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].split() == ["resolution", "lower", "upper", "width", "ratio",
                                "seconds", "peak_mb"]
    rows = [line.split() for line in lines[2:4]]
    assert [row[0] for row in rows] == ["4", "8"]
    for row in rows:
        lo, hi, seconds, peak_mb = float(row[1]), float(row[2]), float(row[5]), float(row[6])
        assert 0 < lo <= hi and seconds >= 0 and peak_mb > 0


def test_covering_convergence_ends_the_table_at_a_refused_resolution(monkeypatch, capsys):
    def bracket(lat, body, resolution):
        if resolution > 4:
            raise adelic.EnumerationCapError("covering grid would hold 64 points")
        return 1.0, 1.5

    monkeypatch.setattr(adelic, "covering_radius_bounds", bracket)
    monkeypatch.setattr(sys, "argv", ["covering_convergence.py", "Q_sqrt2",
                                      "--min-resolution", "4", "--max-resolution", "16"])
    runpy.run_path(str(ROOT / "scripts" / "covering_convergence.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "         8 refused: covering grid would hold 64 points" in out
    assert not any(line.split()[:1] == ["16"] for line in out.splitlines())
    assert "final bracket [1.00000000, 1.50000000]" in out


def run_against(src, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "dump_outputs.py"),
                           "--against", str(src), "--workloads", "fields"],
                          capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path)


def test_dump_outputs_against_the_same_package_is_identical(tmp_path):
    proc = run_against(ROOT / "src", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"identical \(\d+ lines\)\n", proc.stdout)


def test_dump_outputs_against_a_changed_package_prints_the_diff(tmp_path):
    # real roots sorted descending: every field with two real places dumps another line
    planted = tmp_path / "planted"
    shutil.copytree(ROOT / "src", planted)
    numberfield = planted / "adelic" / "numberfield.py"
    text = numberfield.read_text()
    assert text.count("reals.sort()") == 1
    numberfield.write_text(text.replace("reals.sort()", "reals.sort(reverse=True)"))
    proc = run_against(planted, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith(f"--- {planted}\n")
    assert any(line.startswith("-  real=") for line in proc.stdout.splitlines())
    assert any(line.startswith("+  real=") for line in proc.stdout.splitlines())


def test_dump_outputs_summary_counts_a_1_ulp_change_as_float_hex_only(tmp_path):
    # every real root one double up: each field with a real place dumps another real= line
    planted = tmp_path / "planted"
    shutil.copytree(ROOT / "src", planted)
    numberfield = planted / "adelic" / "numberfield.py"
    text = numberfield.read_text()
    assert text.count("reals.sort()") == 1
    numberfield.write_text(text.replace(
        "reals.sort()", "reals = sorted(float(np.nextafter(x, np.inf)) for x in reals)"))
    proc = run_against(planted, tmp_path)
    assert proc.returncode == 1, proc.stderr
    *diff, summary = proc.stdout.splitlines()
    changed = sum(line.startswith("+  real=") for line in diff)
    assert changed == sum(line.startswith(("+ ", "- ")) for line in diff) / 2 > 0
    assert re.fullmatch(rf"changed {changed} of \d+ lines: {changed} only in float hex, "
                        r"at most 1 ulp apart; 0 otherwise", summary)


def test_dump_outputs_summary_pairs_lines_within_a_run_and_counts_the_rest(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts perfbench on it
    summary = runpy.run_path(str(ROOT / "scripts" / "dump_outputs.py"))["diff_summary"]
    x, y = 0.3, math.nextafter(math.nextafter(0.3, 1), 1)
    diff = ["--- before\n", "+++ after\n", "@@ -1,6 +1,6 @@\n", " case=0\n",
            "-  S witness=1,2\n", f"-  S minima={x.hex()},{x.hex()}\n",
            f"+  S minima={x.hex()},{y.hex()}\n", "+  S witness=2,1\n", " case=1\n",
            f"-  ell=1 product={x.hex()} lower=pass\n", f"+  ell=1 product={x.hex()} lower=fail\n",
            " case=2\n", f"+  ell=1 product={y.hex()} lower=pass\n"]
    # the minima lines pair across their run, 2 ulp apart; the witness and a verdict
    # changed, and the last line pairs with no line of an earlier run
    assert summary(diff, 10) == ("changed 4 of 10 lines: 1 only in float hex, "
                                 "at most 2 ulp apart; 3 otherwise")


def test_dump_outputs_kind_summaries_count_each_record_kind(monkeypatch):
    # a planted witness sign flip and a 1-ulp minimum, each under its own kind;
    # a changed cli output line takes the kind of its block
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts perfbench on it
    script = runpy.run_path(str(ROOT / "scripts" / "dump_outputs.py"))
    x, y = 0.3, math.nextafter(0.3, 1)
    before = ["transference seed=1 case=0 slot=Q/2/a/ball/r1",
              f"  S minima={x.hex()} classical={x.hex()}", "  S witness=1;0",
              f"  ell=1 product={x.hex()} lower=pass upper=pass",
              "cli minima Q --machine", "  exit=0", "  lambda_1=1"]
    after = before[:1] + [f"  S minima={y.hex()} classical={x.hex()}", "  S witness=-1;0"] \
        + before[3:6] + ["  lambda_1=2"]
    diff = list(difflib.unified_diff([line + "\n" for line in before],
                                     [line + "\n" for line in after]))
    assert script["kind_summaries"](diff, before, after) == [
        "  minima: changed 1, 1 only in float hex, at most 1 ulp apart",
        "  S witness: changed 1, 0 only in float hex, at most 0 ulp apart",
        "  cli: changed 1, 0 only in float hex, at most 0 ulp apart"]


def test_cli_process_times_prints_one_row_per_command():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "cli_process_times.py"),
                           "--reps", "1", "--against", str(ROOT / "src")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["command", "median_s", "against_s", "ratio", "identical"]
    assert [row.rsplit(None, 4)[0] for row in rows] == [
        "import adelic",
        *(f"{command} {preset}" for command in ("polar", "verify-duality", "transference")
          for preset in adelic.PRESET_SCENARIOS),
        *(f"{command} {path.stem}" for command in ("polar", "verify-duality")
          for path in sorted((ROOT / "tests" / "scenarios").glob("*.ini"))),
        "--help", "bad scenario"]
    assert all(row.endswith(" yes") for row in rows)
