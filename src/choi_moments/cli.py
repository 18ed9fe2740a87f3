"""Scenario-driven command line front end; every launch runs `entry`.

Subcommands but validate run one pipeline against a scenario config (a file
path or the name of a bundled scenario) and report every criterion of
`CRITERIA` it computes. The command picks the CSV written:

    choi-moments witness <cfg>        moment-witness series -> CSV
    choi-moments compare <cfg>        rate series f, g of both measures -> CSV
    choi-moments divisibility <cfg>   per-window minimum Choi eigenvalue -> CSV
    choi-moments validate <cfg>       parse and validate only

Exit codes: 0 = ran, Markovian-consistent; 10 = ran, non-Markovian detected by some
criterion of `CRITERIA`; 1 = config error, which includes an output directory
that cannot be created and an output that cannot be written; 2 = numerical
failure. CSV floats carry 17 significant digits, so repeated runs of one config
are byte-identical. Files are written atomically (temp file + rename); on
failure the outputs already written are removed, and so are the directories the
run created, deepest first.
"""

import gc
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import (
    BUNDLED_SCENARIOS,
    OUTPUT_NAMES,
    ConfigError,
    ScenarioConfig,
    build_generator,
    bundled_scenario_path,
    load_scenario,
    override,
    render_scenario,
    require_file_name,
    require_outputs,
)
# The public views stay names of this module: the benchmark's tracer wraps them here.
from .detect import (
    MEASURE_ZERO_THRESHOLD,
    assess,
    cp_divisibility_scan,
    measure_report,
    witness_series,
)

__all__ = ["CRITERIA", "RunReport", "run_scenario", "main", "entry"]

_ENV_OUT_DIR = "CHOI_MOMENTS_OUT"


class RunReport(NamedTuple):
    """What a scenario run produced and concluded."""

    scenario: str
    verdict: str  # "non-Markovian" iff some criterion the run computed detected
    detected_by: tuple[str, ...]  # the names of those criteria, in table order
    # Per criterion run, in `CRITERIA` order: (scalar, detected, report lines).
    criteria: dict[str, tuple[float, bool, list[str]]]
    output_paths: dict[str, str]
    report_path: str
    config_text: str
    version: str


def _witness_criterion(series, measures, scan):
    intervals = series.violations
    lines = [f"witness violation intervals ({len(intervals)}):" if intervals
             else "witness violation intervals: none"]
    lines += [f"  [{a:.17g}, {b:.17g}]" for a, b in intervals]
    return float(series.values.max()), series.is_non_markovian, lines


def _rhp_criterion(series, measures, scan):
    rhp = measures.rhp_measure
    if measures.moment_measure >= MEASURE_ZERO_THRESHOLD:
        ratio = f"ratio I/M = {measures.ratio:.17g}"
    elif rhp < MEASURE_ZERO_THRESHOLD:
        ratio = "ratio I/M: n/a (both measures vanish; dynamics is Markovian)"
    else:
        ratio = "ratio I/M: n/a (M vanishes while I does not)"
    return rhp, rhp >= MEASURE_ZERO_THRESHOLD, [f"rhp measure I = {rhp:.17g}", ratio]


# The criteria a run reports, in report order. A row gives the name that
# `detected by` prints; whether the criterion reads the bridge sweep, so that
# it runs, and the run sweeps, only for the divisibility output; and a function
# from the run's (WitnessSeries, MeasureReport, DivisibilityReport | None) to
# the criterion's scalar, whether it detected, and its report lines. The
# witness's scalar is its largest value, the scan's its smallest eigenvalue;
# M quantifies but never detects. Adding a criterion means adding a row.
CRITERIA = (
    ("witness", False, _witness_criterion),
    ("moment measure M", False, lambda series, measures, scan: (
        measures.moment_measure, False, [f"moment measure M = {measures.moment_measure:.17g}"])),
    ("rhp measure I", False, _rhp_criterion),
    ("divisibility scan", True, lambda series, measures, scan: (
        float(scan.min_eigenvalues.min()), not scan.is_divisible,
        [f"divisibility scan: {scan.verdict}"])),
)


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temp file and a rename; on failure the
    temp file is removed and path is left as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv(header: list[str], columns) -> str:
    """CSV text with the given header and one float column per array.

    The whole table is formatted by one printf-style operation: '%.17g' % x
    equals f"{x:.17g}" for every float, nan, infinities and -0.0 included.
    """
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return ",".join(header) + "\n" + (row * table.shape[0]) % tuple(table.ravel().tolist())


def run_scenario(config: ScenarioConfig, out_dir: str) -> RunReport:
    """Run the config's pipeline and write the requested CSVs plus a report;
    print nothing (`main` prints the report text).

    Every run computes the witness series and both measures from one
    evaluation of the rates (`detect.assess`); a divisibility output adds
    the bridge sweep and the criteria that read it. The verdict, and so the
    exit code, is non-Markovian when any criterion of `CRITERIA` the run
    computed detects. Identical configs produce byte-identical files. A
    name that is not a file name, outputs `config.require_outputs` refuses,
    or an output directory that cannot be created, is a ConfigError, raised
    before anything is written. The directory is created once every number
    is in hand, so a run that fails to compute them leaves none behind. A
    file that cannot be written is a ConfigError naming it; the files
    already written, then the directories this run created, deepest first,
    are removed.
    """
    require_file_name(config.name)
    require_outputs(config.outputs)
    gen = build_generator(config)
    grid = np.linspace(0.0, config.t_max, config.points)
    rows = [row for row in CRITERIA if "divisibility" in config.outputs or not row[1]]
    series, measures, scan = assess(gen, grid, config.epsilon, config.mode,
                                    scan=any(sweeps for _, sweeps, _ in rows))
    rate_names = [f"gamma_{i + 1}" for i in range(series.rates.shape[1])]
    tables = {"witness": (["t", *rate_names, "r2", "r3", "witness"],
                          [grid, *series.rates.T, series.r2, series.r3, series.values]),
              "compare": (["t", "f", "g"], [grid, measures.f_series, measures.g_series])}
    if scan is not None:
        tables["divisibility"] = (["t", "min_choi_eigenvalue"], [grid, scan.min_eigenvalues])
    criteria = {name: judge(series, measures, scan) for name, _, judge in rows}
    detected_by = tuple(name for name, (_, hit, _) in criteria.items() if hit)
    created = []  # the directories that makedirs will create, deepest first
    missing = os.path.abspath(out_dir)
    while not os.path.exists(missing):
        created.append(missing)
        missing = os.path.dirname(missing)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {exc.strerror}") from None
    paths: dict[str, str] = {}
    try:
        for output in OUTPUT_NAMES:
            if output in config.outputs:
                path = paths[output] = os.path.join(out_dir, f"{config.name}_{output}.csv")
                _write_atomic(path, _csv(*tables[output]))
        report = RunReport(
            scenario=config.name,
            verdict="non-Markovian" if detected_by else "Markovian-consistent",
            detected_by=detected_by,
            criteria=criteria,
            output_paths=paths,
            report_path=os.path.join(out_dir, f"{config.name}_report.txt"),
            config_text=render_scenario(config),
            version=__version__,
        )
        path = report.report_path
        _write_atomic(path, _report_text(report))
    except Exception as exc:
        # The report is written last; rmdir removes only empty directories.
        for remove, target in [*((os.unlink, p) for p in paths.values()),
                               *((os.rmdir, d) for d in created)]:
            try:
                remove(target)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise ConfigError(
                f"cannot write output {path!r}: {exc.strerror or exc}") from None
        raise
    return report


def _report_text(report: RunReport) -> str:
    lines = [
        f"choi-moments {report.version}",
        f"scenario: {report.scenario}",
        f"verdict: {report.verdict}",
        f"detected by: {', '.join(report.detected_by) or 'none'}",
    ]
    for _, _, criterion_lines in report.criteria.values():
        lines += criterion_lines
    for output in sorted(report.output_paths):
        lines.append(f"output {output}: {report.output_paths[output]}")
    lines.append("config:")
    lines += ["  " + line for line in report.config_text.rstrip("\n").split("\n")]
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "witness": "report the witness, M and I; write the witness series",
    "divisibility": "also scan bridge maps; write their minimum Choi eigenvalues",
    "compare": "report the witness, M and I; write the rate series f, g",
    "validate": "parse and validate the config, run nothing",
}

_USAGE = ("usage: choi-moments [-h] [--version] COMMAND CONFIG [--out-dir DIR]"
          " [--grid-points N] [--epsilon EPS] [--quiet]\n")

_HELP = (_USAGE
         + "\nDetect and quantify non-Markovian dynamics from Choi-state moments.\n"
         + "\ncommands:\n"
         + "".join(f"  {name:<16} {text}\n" for name, text in _COMMANDS.items())
         + f"""
arguments:
  CONFIG           path to a scenario config, or a bundled name:
                   {", ".join(BUNDLED_SCENARIOS)}
  --out-dir DIR    output directory (default: ${_ENV_OUT_DIR} or CWD)
  --grid-points N  override grid.points
  --epsilon EPS    override epsilon
  --quiet          suppress the report on stdout
  -h, --help       show this help message and exit
  --version        show the program's version number and exit
""")


# Each option that takes a value, as the usage line spells it, and the config
# key it overrides (None for --out-dir). The parser and `main` both read it.
_OPTIONS = {"--out-dir": None, "--grid-points": "grid.points", "--epsilon": "epsilon"}


def _usage_error(message: str):
    # Usage mistakes are config errors as far as the exit-code contract goes.
    sys.stderr.write(f"{_USAGE}choi-moments: error: {message}\n")
    raise SystemExit(1)


def _parse_args(argv) -> tuple[str, str, dict[str, str | bool]]:
    """Parse the usage line, `choi-moments [-h] [--version] COMMAND CONFIG [options]`,
    into (command, config, options), options keyed by spelling.

    A token that begins with "--" is an option, spelled in full; the options
    may come before or after CONFIG. The options of `_OPTIONS` take their
    value as "--opt value" or "--opt=value", kept as the text written ("-1"
    too) unless it is missing or begins with "--": `main` reads an override
    by its config key's rule. --quiet maps to True. -h/--help anywhere, and
    --version as the first argument, print and raise SystemExit(0); a usage
    mistake prints the usage line and the error to stderr and raises
    SystemExit(1).
    """
    args = list(sys.argv[1:] if argv is None else argv)
    if "-h" in args or "--help" in args:
        sys.stdout.write(_HELP)
        raise SystemExit(0)
    if args[:1] == ["--version"]:
        sys.stdout.write(f"choi-moments {__version__}\n")
        raise SystemExit(0)
    positionals, options, unknown = [], {}, []
    tokens = iter(args)
    for arg in tokens:
        name, eq, value = arg.partition("=")
        if positionals and arg == "--quiet":
            options[arg] = True
        elif positionals and name in _OPTIONS:
            if not eq:
                value = next(tokens, "--")
                if value.startswith("--"):
                    _usage_error(f"argument {name}: expected one argument")
            options[name] = value
        elif arg.startswith("--") or len(positionals) == 2:
            unknown.append(arg)
        elif positionals or arg in _COMMANDS:
            positionals.append(arg)
        else:
            _usage_error(f"argument command: invalid choice: {arg!r} "
                         f"(choose from {', '.join(map(repr, _COMMANDS))})")
    if len(positionals) < 2:
        _usage_error("the following arguments are required: "
                     + ("config" if positionals else "command"))
    if unknown:
        _usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    return positionals[0], positionals[1], options


def _resolve_config_path(arg: str) -> str:
    # A bundled name reads the package's file unless a regular file of that
    # name exists: an output directory named after the scenario must not hide it.
    if arg in BUNDLED_SCENARIOS and not os.path.isfile(arg):
        return bundled_scenario_path(arg)
    if os.path.exists(arg):
        return arg
    raise ConfigError(
        f"no config file {arg!r} and no bundled scenario of that name "
        f"(bundled: {', '.join(BUNDLED_SCENARIOS)})"
    )


def main(argv=None) -> int:
    try:
        command, source, options = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        path = _resolve_config_path(source)
        config = load_scenario(path)  # whole, so a value an override replaces is still read
        for option, key in _OPTIONS.items():
            if key is not None and option in options:
                try:
                    config = override(config, key, options[option])
                except ConfigError as exc:
                    raise ConfigError(f"{option}: {exc}") from None
        if command != "validate":
            config = override(config, "outputs", command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    quiet = "--quiet" in options
    if command == "validate":
        if not quiet:
            print(f"{path}: OK (scenario {config.name!r})")
        return 0

    out_dir = options.get("--out-dir")
    if out_dir is None:
        out_dir = os.environ.get(_ENV_OUT_DIR) or os.getcwd()
    try:
        report = run_scenario(config, out_dir=out_dir)
    except ConfigError as exc:  # an output directory or file that cannot be made
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical failures surface with scenario context
        print(f"numerical failure in scenario {config.name!r}: {exc}", file=sys.stderr)
        return 2
    if not quiet:
        print(_report_text(report), end="")
    return 10 if report.detected_by else 0


def entry(argv=None) -> int:
    """Run `main` as the whole life of a process and return its exit code.

    The command line starts here: `python -m choi_moments`, the installed
    `choi-moments` script and `python -m choi_moments.cli`. Once `main` has
    returned, `gc.freeze()` moves every object the cyclic collector tracks
    into its permanent generation, which no collection traverses, so the
    full collections the interpreter runs at shutdown skip a heap the OS is
    about to reclaim. atexit handlers, the flush of stdout and stderr and
    reference-count teardown still run. `main` leaves the collector alone,
    so library and test callers keep their normal collections.
    """
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
