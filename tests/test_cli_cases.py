"""Every command-line contract, as one table of cases run as real processes.

A case is one command as a user types it: its argv, the files it reads, and
the exit code and output it must give. Each runs in a fresh directory through
`COMMAND`: `python -m choi_moments` on this checkout's sources, or the command
that $CHOI_MOMENTS_CLI names, such as an installed `choi-moments` script:

    CHOI_MOMENTS_CLI=choi-moments pytest tests/test_cli_cases.py

To add a contract, add a row to `CASES`. To run a config under every
command that computes, with a byte-identical rerun, add it to `MATRIX`.
"""

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import choi_moments
from choi_moments.config import bundled_scenario_path

PYTHON_M = (sys.executable, "-m", "choi_moments")
COMMAND = (os.environ["CHOI_MOMENTS_CLI"],) if os.environ.get("CHOI_MOMENTS_CLI") else PYTHON_M
# A run that falls back to $CHOI_MOMENTS_OUT writes under env_out/ in the
# case's directory, where the `missing` globs see it.
ENV = dict(os.environ, PYTHONPATH=str(Path(choi_moments.__file__).resolve().parents[1]),
           CHOI_MOMENTS_OUT="env_out")
TIMEOUT = 60  # seconds per process: the bound the d = 32 register case is held to
DATA = Path(__file__).resolve().parent / "data"
CLI_PY = re.escape(os.path.join("choi_moments", "cli.py"))
EXAMPLE1 = Path(bundled_scenario_path("example1")).read_text()
MARKOVIAN_CONTROL = Path(bundled_scenario_path("markovian_control")).read_text()


class Case(NamedTuple):
    argv: tuple[str, ...]
    code: int
    # Written into the case's directory first, by relative path: text, bytes,
    # or an int, the mode of a directory to make. A run changes none of them.
    files: dict = {}
    stdout: tuple[str, ...] = ()  # regexes (re.M) the stream must match
    stderr: tuple[str, ...] = ()
    stderr_absent: tuple[str, ...] = ()  # regexes it must not match, besides Traceback
    exists: tuple[str, ...] = ()  # globs in the case's directory that must match
    missing: tuple[str, ...] = ()  # globs that must match nothing
    command: tuple[str, ...] = ()  # a launcher case's own prefix, in place of COMMAND
    check: Callable | None = None  # check(tmp_path, result), for what the rest cannot say
    marks: tuple = ()


def run(argv, cwd, command=COMMAND) -> subprocess.CompletedProcess:
    return subprocess.run([*command, *argv], cwd=cwd, capture_output=True, encoding="utf-8",
                          timeout=TIMEOUT, env=ENV)


def file_matches(name, pattern):
    def check(tmp_path, result):
        assert re.search(pattern, (tmp_path / name).read_text(), re.M), (name, pattern)
    return check


def rerun_is_silent_10(tmp_path, result):
    # The second run used to read the directory example1/ as its config: exit 1.
    again = run(("witness", "example1", "--quiet", "--out-dir", "example1"), tmp_path)
    assert (again.returncode, again.stdout, again.stderr) == (10, "", "")


def same_csv_as_the_bundled_example1(tmp_path, result):
    bundled = run(("witness", "example1", "--quiet", "--out-dir", "bundled"), tmp_path)
    assert bundled.returncode == 10, bundled.stderr
    csv = "example1_witness.csv"
    bom = (tmp_path / "bom" / "out" / csv).read_bytes()
    assert bom == (tmp_path / "bundled" / csv).read_bytes()


def reruns_to_the_same_csvs(argv):
    """A check that runs argv again, into again/ in place of its last
    argument, the out dir: the same exit code and every CSV byte for byte."""
    def check(tmp_path, result):
        again = run((*argv[:-1], "again"), tmp_path)
        assert again.returncode == result.returncode, again.stderr
        first, second = tmp_path / argv[-1], tmp_path / "again"
        names = sorted(path.name for path in first.glob("*.csv"))
        assert names and names == sorted(path.name for path in second.glob("*.csv"))
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
    return check


def ratio_is_two(tmp_path, result):
    # M = delta^2 t_max read as a norm, with no difference of O(1) terms.
    text = (tmp_path / "ni" / "near_identity_report.txt").read_text()
    (ratio,) = re.findall(r"^ratio I/M = (\S+)$", text, re.M)
    assert abs(float(ratio) - 2.0) < 1e-9, ratio


# A tabulated rate used past its last knot at t = 1: the witness fails, exit 2.
SHORT = """version = 1
name = short
generator.dimension = 2
dissipator.1.operator = sigma_z
dissipator.1.rate.model = tabulated
dissipator.1.rate.knots = 0.0:1.0 1.0:1.0
epsilon = 0.001
grid.t_max = 2.0
grid.points = 50
mode = small-time
outputs = witness
"""

# Knots stop exactly at t_max, so the scan, which needs rates at t_max + delta,
# fails after the witness has been computed.
FAILS_LATE = SHORT.replace("name = short", "name = fails_late").replace("1.0:1.0", "2.0:1.0")

# Markovian dephasing under a Hamiltonian that dwarfs its rate: the
# first-order small-time state read a witness of +9.0e-5 here (exit 10).
STRONG_HAMILTONIAN = """version = 1
name = strong_hamiltonian
generator.dimension = 2
generator.hamiltonian = 10 0 0 -10
dissipator.1.operator = sigma_z
dissipator.1.rate.model = constant
dissipator.1.rate.value = 0.01
epsilon = 0.001
grid.t_max = 2.0
grid.points = 200
mode = small-time
outputs = witness
"""

# No dissipator keys, so the small-time tables are empty.
HAMILTONIAN_ONLY = """version = 1
name = hamiltonian_only
generator.dimension = 2
generator.hamiltonian = 1 0 0 -1
epsilon = 0.001
grid.t_max = 2.0
grid.points = 200
mode = small-time
outputs = witness
"""

# I + 1e-5 sigma_z at rate -1 dephases at rate delta^2 = 1e-10.
NEAR_IDENTITY = """version = 1
name = near_identity
generator.dimension = 2
generator.hamiltonian = zero
dissipator.1.operator = custom-matrix
dissipator.1.matrix = 1.00001 0 0 0.99999
dissipator.1.rate.model = constant
dissipator.1.rate.value = -1.0
epsilon = 0.001
grid.t_max = 10.0
grid.points = 101
mode = small-time
outputs = compare
"""


# Three Pauli rates at -9e-13: each mu_k sits above minus the 1e-12 noise
# floor of `detect._rate_limits`, and their sum below it. M used to read
# 2.7e-9 beside I = 0, and I/M 0. The long span lifts the measures past
# the 1e-10 at which they count.
SUB_FLOOR_PAULI = """version = 1
name = sub_floor_pauli
generator.dimension = 2
generator.hamiltonian = zero
dissipator.1.operator = sigma_x
dissipator.1.rate.model = constant
dissipator.1.rate.value = -9e-13
dissipator.2.operator = sigma_y
dissipator.2.rate.model = constant
dissipator.2.rate.value = -9e-13
dissipator.3.operator = sigma_z
dissipator.3.rate.model = constant
dissipator.3.rate.value = -9e-13
epsilon = 0.001
grid.t_max = 1000.0
grid.points = 1001
mode = small-time
outputs = compare
"""

# sigma_x, (sigma_x + sigma_z)/sqrt(2) and (sigma_y + sigma_z)/sqrt(2) at
# -6e-13: Hermitian, not orthogonal, and one mu_j of three passes the
# floor. I/M used to read 1.2440169358562927.
SUB_FLOOR_HERMITIAN = """version = 1
name = sub_floor_hermitian
generator.dimension = 2
generator.hamiltonian = zero
dissipator.1.operator = sigma_x
dissipator.1.rate.model = constant
dissipator.1.rate.value = -6e-13
dissipator.2.operator = custom-matrix
dissipator.2.matrix = 0.7071067811865476 0.7071067811865476 0.7071067811865476 -0.7071067811865476
dissipator.2.rate.model = constant
dissipator.2.rate.value = -6e-13
dissipator.3.operator = custom-matrix
dissipator.3.matrix = 0.7071067811865476 -0.7071067811865476j 0.7071067811865476j -0.7071067811865476
dissipator.3.rate.model = constant
dissipator.3.rate.value = -6e-13
epsilon = 0.001
grid.t_max = 1000.0
grid.points = 1001
mode = small-time
outputs = compare
"""


# sigma_z at a constant rate of -1e-8 over 11 bridges of delta = 1e-3. Each
# bridge's minimum Choi eigenvalue, -1.0000111849706173e-11, lies inside
# the scan's 1e-10, while its witness, 1e-11, is above the witness's 1e-12:
# the report used to print "divisibility scan: CP-divisible" beside
# "detected by: witness, rhp measure I".
TINY_NEGATIVE_DEPHASING = """version = 1
name = tiny_negative_dephasing
generator.dimension = 2
generator.hamiltonian = zero
dissipator.1.operator = sigma_z
dissipator.1.rate.model = constant
dissipator.1.rate.value = -1e-8
epsilon = 0.001
grid.t_max = 1.0
grid.points = 11
mode = finite-interval
outputs = divisibility
"""

# Three Pauli rates at -5e-10: a minimum of -5.0006733280638948e-13 beside
# a firing witness, so no one shared tolerance would reconcile the two.
TINY_NEGATIVE_PAULI = """version = 1
name = tiny_negative_pauli
generator.dimension = 2
generator.hamiltonian = zero
dissipator.1.operator = sigma_x
dissipator.1.rate.model = constant
dissipator.1.rate.value = -5e-10
dissipator.2.operator = sigma_y
dissipator.2.rate.model = constant
dissipator.2.rate.value = -5e-10
dissipator.3.operator = sigma_z
dissipator.3.rate.model = constant
dissipator.3.rate.value = -5e-10
epsilon = 0.001
grid.t_max = 1.0
grid.points = 11
mode = finite-interval
outputs = divisibility
"""


def register(n):
    """n qubits (d = 2^n) with local sigma_z dephasing at expcos rates."""
    d = 2**n
    lines = ["version = 1", f"name = register{n}", f"generator.dimension = {d}"]
    for j in range(n):
        # sigma_z on qubit j (most significant first): -1 where that bit is set.
        signs = [1 - 2 * ((i >> (n - 1 - j)) & 1) for i in range(d)]
        matrix = " ".join(str(signs[r]) if r == c else "0" for r in range(d) for c in range(d))
        lines += [f"dissipator.{j + 1}.operator = custom-matrix",
                  f"dissipator.{j + 1}.matrix = {matrix}",
                  f"dissipator.{j + 1}.rate.model = expcos",
                  f"dissipator.{j + 1}.rate.k = 1.0"]
    lines += ["epsilon = 0.001", "grid.t_max = 20.0", "grid.points = 2000",
              "mode = small-time", "outputs = compare"]
    return "\n".join(lines) + "\n"


MARKOVIAN_VERDICT = r"^verdict: Markovian-consistent\ndetected by: none$"
EMPTY = r"\A\Z"
NOT_UTF8 = b"version = 1\nname = \xff\n"
EMPTY_OUT_DIR = r"\Aconfig error: cannot create output directory '': No such file or directory\n\Z"


def one_config_error_line(path):
    return rf"\Aconfig error: {re.escape(path)}: [^\n]*\n\Z"


# Every bundled scenario and test config, by the exit code each command
# gives it: 0 for Markovian-consistent dynamics, 10 for non-Markovian.
MATRIX = {"example1": 10, "example2": 10, "markovian_control": 0, "ohmic_compare": 0,
          **{str(DATA / f"{name}.cfg"): 10
             for name in ("eternal_pauli", "qutrit_expcos", "qutrit_coupled")}}


def matrix_case(command, config, code):
    argv = (command, config, "--quiet", "--out-dir", "o")
    return Case(argv, code, stdout=(EMPTY,), exists=(f"o/{Path(config).stem}_{command}.csv",),
                check=reruns_to_the_same_csvs(argv))


CASES = {
    # The matrix: each config of MATRIX under each command that computes.
    **{f"{command}-{Path(config).stem.replace('_', '-')}-is-{code}":
       matrix_case(command, config, code)
       for config, code in MATRIX.items() for command in ("witness", "compare", "divisibility")},

    # Launch and usage.
    "report-reaches-a-pipe": Case(
        ("compare", "example1", "--out-dir", "o"), 10, stdout=(r"^verdict: non-Markovian$",)),
    "python-m-cli-runs-one-copy-and-warns-nothing": Case(
        ("validate", "example1"), 0, command=(sys.executable, "-m", "choi_moments.cli"),
        stdout=(r": OK \(scenario 'example1'\)\n\Z",), stderr=(EMPTY,)),
    "help-names-the-four-commands": Case(
        ("--help",), 0, stderr=(EMPTY,), stdout=(
            r"\Ausage: choi-moments ",
            r"^commands:\n  witness .*\n  divisibility .*\n  compare .*\n  validate .*\n\n")),
    "version": Case(("--version",), 0, stdout=(r"\Achoi-moments 0\.1\.0\n\Z",)),
    "removed-measure-command-is-a-usage-error": Case(
        ("measure", "example1", "--quiet", "--out-dir", "o"), 1,
        stderr=(r"invalid choice: 'measure'",), missing=("o",)),
    "no-config-is-a-usage-error": Case(
        ("witness",), 1,
        stderr=(r"\Ausage: choi-moments .*\nchoi-moments: error: the following arguments "
                r"are required: config\n\Z",)),
    "abbreviated-option-is-a-usage-error": Case(
        ("witness", "example1", "--eps", "0.01"), 1,
        stderr=(r"^choi-moments: error: unrecognized arguments: --eps 0\.01$",)),

    # Config errors, exit 1.
    "missing-config-file": Case(
        ("witness", "nothere.cfg"), 1,
        stderr=(r"\Aconfig error: no config file 'nothere\.cfg' and no bundled scenario",)),
    "config-missing-keys": Case(
        ("witness", "scenario.cfg"), 1, files={"scenario.cfg": "version = 1\n"},
        stderr=(r"\Aconfig error: scenario\.cfg: ",)),
    "validate-unknown-key": Case(
        ("validate", "scenario.cfg"), 1, files={"scenario.cfg": MARKOVIAN_CONTROL
                                                + "unknown.key = 1\n"},
        stderr=(r"\Aconfig error: scenario\.cfg: .*'unknown\.key'",)),
    "validate-missing-epsilon": Case(
        ("validate", "noeps.cfg"), 1,
        files={"noeps.cfg": MARKOVIAN_CONTROL.replace("epsilon = 0.001\n", "")},
        stdout=(EMPTY,), stderr=(r"\Aconfig error: .*: missing mandatory key 'epsilon'\n\Z",)),
    "validate-non-finite-hamiltonian": Case(
        ("validate", str(DATA / "nonfinite_hamiltonian.cfg")), 1,
        stderr=(r"\Aconfig error: .*entries must be finite",)),
    "validate-a-directory": Case(
        ("validate", "adir"), 1, files={"adir": 0o755},
        stdout=(EMPTY,), stderr=(one_config_error_line("adir"),)),
    "validate-a-file-that-is-not-utf-8": Case(
        ("validate", "bin.cfg"), 1, files={"bin.cfg": NOT_UTF8},
        stdout=(EMPTY,), stderr=(one_config_error_line("bin.cfg"),)),
    # dissipator.01 used to replace dissipator.1 silently, and a superscript
    # two used to end validate in a ValueError from int().
    "dissipator-index-with-a-leading-zero": Case(
        ("validate", "index.cfg"), 1,
        files={"index.cfg": EXAMPLE1.replace("dissipator.3.", "dissipator.01.")},
        stderr=(r"\Aconfig error: .*'dissipator\.01\.",)),
    "dissipator-index-in-another-digit": Case(
        ("validate", "index.cfg"), 1,
        files={"index.cfg": EXAMPLE1.replace("dissipator.3.", "dissipator.².")},
        stderr=("\\Aconfig error: .*'dissipator\\.²\\.",)),
    "digit-separator-in-a-file": Case(
        ("validate", "points.cfg"), 1,
        files={"points.cfg": EXAMPLE1.replace("grid.points = 2000", "grid.points = 1_000")},
        stderr=(r"\Aconfig error: points\.cfg: key 'grid\.points': ",)),
    "digit-separator-in-an-override": Case(
        ("witness", "example1", "--grid-points", "1_000", "--quiet", "--out-dir", "o1k"), 1,
        stderr=(r"\Aconfig error: --grid-points: key 'grid\.points': ",), missing=("o1k",)),
    # A NaN epsilon used to give example1 a Markovian verdict (exit 0).
    "nan-epsilon-override": Case(
        ("witness", "example1", "--epsilon", "nan", "--quiet", "--out-dir", "o"), 1,
        stdout=(EMPTY,), missing=("o",), stderr=(
            r"\Aconfig error: --epsilon: key 'epsilon': value must be finite, got 'nan'\n\Z",)),
    # The name used to be joined into the output paths unchecked, so this
    # wrote escaped_witness.csv and escaped_report.txt beside --out-dir.
    "name-that-is-a-path": Case(
        ("witness", "esc/escaped.cfg", "--out-dir", "esc/out"), 1,
        files={"esc/escaped.cfg": MARKOVIAN_CONTROL.replace("name = markovian_control",
                                                            "name = ../escaped")},
        stderr=(r"\Aconfig error: .*key 'name': expected a file name, not a path",),
        missing=("esc/out", "**/escaped_*")),

    # Output directories.
    "out-dir-that-names-a-file": Case(
        ("witness", "markovian_control", "--quiet", "--out-dir", "afile"), 1,
        files={"afile": "kept\n"},
        stderr=(r"\Aconfig error: cannot create output directory 'afile': File exists\n\Z",)),
    "out-dir-below-a-file": Case(
        ("witness", "markovian_control", "--quiet", "--out-dir", "afile/sub"), 1,
        files={"afile": "kept\n"},
        stderr=(r"\Aconfig error: cannot create output directory 'afile/sub': "
                r"Not a directory\n\Z",)),
    # An explicit "" used to fall back to $CHOI_MOMENTS_OUT or the working
    # directory, like an absent option.
    "empty-out-dir": Case(
        ("witness", "markovian_control", "--out-dir", ""), 1,
        stdout=(EMPTY,), stderr=(EMPTY_OUT_DIR,), missing=("*",)),
    "empty-out-dir-after-equals": Case(
        ("witness", "markovian_control", "--out-dir="), 1,
        stdout=(EMPTY,), stderr=(EMPTY_OUT_DIR,), missing=("*",)),
    "out-dir-named-after-a-bundled-scenario": Case(
        ("witness", "example1", "--quiet", "--out-dir", "example1"), 10,
        stdout=(EMPTY,), stderr=(EMPTY,), exists=("example1/example1_witness.csv",),
        check=rerun_is_silent_10),
    # Root writes into a 555 directory, so only another user sees the refusal;
    # a patched os.replace checks the same path in test_cli.py.
    "read-only-out-dir": Case(
        ("witness", "markovian_control", "--quiet", "--out-dir", "ro"), 1, files={"ro": 0o555},
        stderr=(r"\Aconfig error: cannot write output 'ro/markovian_control_witness\.csv'",),
        missing=("ro/*",),
        marks=(pytest.mark.skipif(os.geteuid() == 0,
                                  reason="root writes into a 555 directory"),)),
    "failed-run-leaves-no-directory": Case(
        ("witness", "short.cfg", "--out-dir", "fresh/sub"), 2, files={"short.cfg": SHORT},
        stderr=(r"\Anumerical failure in scenario 'short': .*outside the tabulated range",),
        missing=("fresh",)),
    "failed-scan-leaves-no-directory": Case(
        ("divisibility", "late.cfg", "--quiet", "--out-dir", "fresh/sub"), 2,
        files={"late.cfg": FAILS_LATE},
        stderr=(r"\Anumerical failure in scenario 'fails_late': .*outside the tabulated range",),
        missing=("fresh",)),
    # The scan's step count, 1000 per unit of delta = epsilon, used to
    # overflow: "cannot convert float infinity to integer".
    "epsilon-too-long-to-step": Case(
        ("divisibility", "example1", "--epsilon", "1e308", "--quiet", "--out-dir", "o"), 2,
        stdout=(EMPTY,), missing=("o",), stderr=(
            r"\Anumerical failure in scenario 'example1': delta = 1e\+308 gives a non-finite "
            r"number of RK4 steps at 1000 per unit time\n\Z",)),
    # A finite count too large for one array used to reach numpy: exit 2
    # with "Maximum allowed size exceeded".
    "epsilon-needs-too-many-steps": Case(
        ("divisibility", "example1", "--epsilon", "1e300", "--quiet", "--out-dir", "o"), 2,
        stdout=(EMPTY,), missing=("o",), stderr=(
            r"\Anumerical failure in scenario 'example1': delta = 1e\+300 gives 1e\+303 RK4 "
            r"steps at 1000 per unit time, more than the 1000000 one window may take\n\Z",)),

    # Verdicts and warnings.
    # warn_caller used to walk out of the package into runpy, and stderr
    # named "<frozen runpy>:88".
    "eternal-pauli-warning-names-cli-py": Case(
        ("compare", str(DATA / "eternal_pauli.cfg"), "--quiet", "--out-dir", "o"), 10,
        command=PYTHON_M,
        stderr=(rf"\A[^\n]*{CLI_PY}:\d+: UserWarning: trace-norm rate g is still .* over "
                r"the last 5% of the grid",),
        stderr_absent=(r"runpy",)),
    "eternal-pauli-is-detected-by-i": Case(
        ("witness", str(DATA / "eternal_pauli.cfg"), "--out-dir", "w"), 10,
        stdout=(r"^detected by: rhp measure I$",),
        check=file_matches("w/eternal_pauli_report.txt", r"^detected by: rhp measure I$")),
    # The measures used to warn that a generator is not unital; the moment
    # measure needs no unitality. This qutrit's only warning is its tail's,
    # and the coupled qutrit, whose rates decay, warns of nothing.
    "qutrit-expcos-warns-only-of-its-tail": Case(
        ("compare", str(DATA / "qutrit_expcos.cfg"), "--quiet", "--out-dir", "o"), 10,
        stderr=(rf"\A[^\n]*{CLI_PY}:\d+: UserWarning: moment rate f is still 1\.583e-02 and "
                r"trace-norm rate g is still 3\.539e-02 over the last 5% of the grid",),
        stderr_absent=(r"unital",)),
    "qutrit-coupled-compare-leaves-stderr-empty": Case(
        ("compare", str(DATA / "qutrit_coupled.cfg"), "--quiet", "--out-dir", "o"), 10,
        stderr=(r"\A\Z",)),
    "byte-order-mark": Case(
        ("witness", "bom/example1.cfg", "--quiet", "--out-dir", "bom/out"), 10,
        files={"bom/example1.cfg": b"\xef\xbb\xbf" + EXAMPLE1.encode()},
        check=same_csv_as_the_bundled_example1),
    **{f"strong-hamiltonian-{command}": Case(
        (command, "strong_h.cfg", "--out-dir", "h"), 0, files={"strong_h.cfg": STRONG_HAMILTONIAN},
        stdout=(MARKOVIAN_VERDICT,)) for command in ("witness", "compare", "divisibility")},
    **{f"hamiltonian-only-{command}": Case(
        (command, "hamiltonian_only.cfg", "--out-dir", "ho"), 0,
        files={"hamiltonian_only.cfg": HAMILTONIAN_ONLY},
        stdout=(MARKOVIAN_VERDICT,)) for command in ("witness", "compare", "divisibility")},
    "register-d32": Case(
        ("compare", "register5.cfg", "--quiet", "--out-dir", "reg"), 10,
        files={"register5.cfg": register(5)},
        check=file_matches("reg/register5_report.txt", r"^detected by: witness, rhp measure I$")),
    "near-identity-ratio-is-2": Case(
        ("compare", "near_identity.cfg", "--quiet", "--out-dir", "ni"), 10,
        files={"near_identity.cfg": NEAR_IDENTITY}, check=ratio_is_two),
    "sub-floor-pauli-measures-vanish": Case(
        ("compare", "pauli.cfg", "--out-dir", "o"), 0, files={"pauli.cfg": SUB_FLOOR_PAULI},
        stdout=(r"^moment measure M = 0$", r"^ratio I/M: n/a \(both measures vanish")),
    "sub-floor-hermitian-ratio-is-exactly-2": Case(
        ("compare", "hermitian.cfg", "--out-dir", "o"), 10,
        files={"hermitian.cfg": SUB_FLOOR_HERMITIAN}, stdout=(r"^ratio I/M = 2$",)),
    # The scan flags every bridge whose witness fires, so a report cannot
    # name the witness beside a CP-divisible scan.
    **{f"{name.replace('_', '-')}-scan-agrees-with-the-witness": Case(
        ("divisibility", "tiny.cfg", "--out-dir", "o"), 10, files={"tiny.cfg": config},
        stdout=(r"^detected by: witness, rhp measure I, divisibility scan$",
                r"^divisibility scan: CP-indivisible$"))
       for name, config in (("tiny_negative_dephasing", TINY_NEGATIVE_DEPHASING),
                            ("tiny_negative_pauli", TINY_NEGATIVE_PAULI))},
}


@pytest.mark.parametrize("case", [pytest.param(case, id=name, marks=case.marks)
                                  for name, case in CASES.items()])
def test_case(case, tmp_path):
    for name, content in case.files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, int):
            path.mkdir()
            path.chmod(content)
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    result = run(case.argv, tmp_path, case.command or COMMAND)
    shown = f"exit code {result.returncode}\nstdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    assert result.returncode == case.code, shown
    for stream, patterns in ((result.stdout, case.stdout), (result.stderr, case.stderr)):
        for pattern in patterns:
            assert re.search(pattern, stream, re.M), (pattern, shown)
    for pattern in ("Traceback", *case.stderr_absent):
        assert not re.search(pattern, result.stderr, re.M), (pattern, shown)
    for pattern in case.exists:
        assert any(tmp_path.glob(pattern)), pattern
    for pattern in case.missing:
        assert not any(tmp_path.glob(pattern)), pattern
    for name, content in case.files.items():
        if isinstance(content, bytes):
            assert (tmp_path / name).read_bytes() == content, name
        elif isinstance(content, str):
            assert (tmp_path / name).read_text(encoding="utf-8") == content, name
    if case.check is not None:
        case.check(tmp_path, result)
