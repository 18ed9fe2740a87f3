"""Regenerate reference.json: outputs of the bundled CLI ops at a known-good commit.

    python3 bench/make_reference.py

For every op that completes it stores the grid size, the report's measures
and 17 evenly spaced rows of each checked CSV column. Ops that fail (exit 1
or 2) get no entry; their outputs are checked against the oracles alone.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import specs
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
COLUMNS = {"witness": {"witness": -1, "r2": -3}, "compare": {"f": 1, "g": 2},
           "divisibility": {"min_eigenvalue": 1}}


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    reference = {}
    for scenario in specs.BUNDLED:
        for command in workloads.COMMANDS:
            with tempfile.TemporaryDirectory() as out:
                proc = subprocess.run([sys.executable, "-m", "choi_moments", command, scenario,
                                       "--quiet", "--out-dir", out], env=env,
                                      capture_output=True)
                if proc.returncode not in (0, 10):
                    print(f"{command} {scenario}: exit {proc.returncode}, no reference")
                    continue
                report = workloads.parse_report(
                    Path(out, f"{scenario}_report.txt").read_text())
                table = np.loadtxt(Path(out, f"{scenario}_{command}.csv"), delimiter=",",
                                   skiprows=1, ndmin=2)
            rows = np.linspace(0, len(table) - 1, 17).round().astype(int).tolist()
            entry = {"rows": len(table),
                     "columns": {key: [rows, table[rows, col].tolist()]
                                 for key, col in COLUMNS[command].items()}}
            if command == "compare":
                entry.update(M=report["M"], I=report["I"])
            reference[f"{command} {scenario}"] = entry
    lines = [f" {json.dumps(key)}: {json.dumps(entry)}" for key, entry in reference.items()]
    (BENCH / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
