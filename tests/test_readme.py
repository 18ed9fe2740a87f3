"""README's Library example runs as written and prints what its comments say.

The ```python block under `## Library` is run as a script, in a fresh
process with this checkout's `src` on the path, so a renamed or removed
name that the example uses fails here rather than in a reader's session.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("\n```", start)]


def test_library_example_prints_what_its_comments_say(tmp_path):
    script = tmp_path / "library_example.py"
    script.write_text(library_example(), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run((sys.executable, str(script)), cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    violations, measures, verdict, moments = result.stdout.splitlines()
    (start, end), = ast.literal_eval(violations)
    assert abs(start - np.pi / 2) < 1e-2 and abs(end - 3 * np.pi / 2) < 1e-2
    assert measures.split()[2] == "2.0"
    assert verdict == "CP-indivisible"
    assert moments == "[1.   0.5  0.25] 0.0"
