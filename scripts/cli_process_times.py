#!/usr/bin/env python3
"""Wall time of real CLI processes, one row per command.

Each command runs as a fresh `python -m adelic.cli` process (`import
adelic` as `python -c`), so its time includes the interpreter's start
and every import the command pays for:

- `import adelic`;
- `polar`, `verify-duality` and `transference` on each preset;
- `polar` and `verify-duality` on each `tests/scenarios/*.ini` file
  (power bases of degree 3 to 5);
- `--help`;
- `polar` on a scenario file with an input error (exit 2).

The package is the one in this checkout's `src/`.  With `--against DIR`
each repetition also runs every command with PYTHONPATH=DIR, the two
trees in alternating order from one repetition to the next, and each row
shows both medians, their ratio, and whether stdout, stderr and the exit
code were identical in every repetition; the script then exits 1 if any
output differed:

    python3 scripts/cli_process_times.py --against ../parent/src --reps 9
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = sorted((ROOT / "tests" / "scenarios").glob("*.ini"))
PRESETS = ("Q", "Q_sqrt2", "Q_sqrt5", "Q_i", "Q_sqrt-3")
BAD_SCENARIO = """\
[field]
preset = Q_sqrt2

[module]
rank = 1
identity = true

[body.v1]
shape = ball
radius = -1

[body.v2]
shape = ball
radius = 1
"""


def commands(bad: Path) -> dict[str, list[str]]:
    """Row label -> argv after the interpreter."""
    rows = {"import adelic": ["-c", "import adelic"]}
    for command in ("polar", "verify-duality", "transference"):
        rows.update({f"{command} {p}": ["-m", "adelic.cli", command, p, "--machine"]
                     for p in PRESETS})
    for command in ("polar", "verify-duality"):
        rows.update({f"{command} {path.stem}": ["-m", "adelic.cli", command, str(path), "--machine"]
                     for path in SCENARIOS})
    rows["--help"] = ["-m", "adelic.cli", "--help"]
    rows["bad scenario"] = ["-m", "adelic.cli", "polar", str(bad), "--machine"]
    return rows


def timed(argv: list[str], src: Path) -> tuple[float, tuple]:
    """Wall time of one process with PYTHONPATH=src, and its (exit code, stdout, stderr)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=300)
    return time.perf_counter() - start, (proc.returncode, proc.stdout, proc.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="DIR", type=Path,
                    help="also time the package under DIR, alternating with this one")
    ap.add_argument("--reps", type=int, default=7, help="processes per command and tree")
    args = ap.parse_args(argv)
    trees = [SRC] if args.against is None else [SRC, args.against.resolve()]

    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.ini"
        bad.write_text(BAD_SCENARIO)
        rows = commands(bad)
        times = {label: [[] for _ in trees] for label in rows}
        outputs = {label: set() for label in rows}  # over both trees
        for rep in range(args.reps):
            for label, cmd in rows.items():
                order = list(enumerate(trees))
                for i, tree in order if rep % 2 == 0 else order[::-1]:
                    seconds, output = timed(cmd, tree)
                    times[label][i].append(seconds)
                    outputs[label].add(output)

    differs = False
    header = f"{'command':<32} {'median_s':>9}"
    if args.against is not None:
        header += f" {'against_s':>9} {'ratio':>6}  identical"
    print(header)
    for label in rows:
        medians = [statistics.median(ts) for ts in times[label]]
        line = f"{label:<32} {medians[0]:>9.3f}"
        if args.against is not None:
            same = len(outputs[label]) == 1
            differs |= not same
            line += f" {medians[1]:>9.3f} {medians[0] / medians[1]:>6.2f}  {'yes' if same else 'NO'}"
        print(line)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
