"""Scenario-driven command line front end; every launch runs `entry`.

Subcommands run one pipeline each against a scenario config (a file path or
the name of a bundled scenario):

    choi-moments witness <cfg>        moment-witness series -> CSV
    choi-moments measure <cfg>        rate series + moment measure -> CSV
    choi-moments rhp <cfg>            rate series + trace-norm measure -> CSV
    choi-moments divisibility <cfg>   per-window minimum Choi eigenvalue -> CSV
    choi-moments compare <cfg>        both measures and their ratio -> CSV
    choi-moments validate <cfg>       parse and validate only

Exit codes: 0 = ran, Markovian-consistent; 10 = ran, non-Markovian detected by some
criterion the run computed (a witness violation, a trace-norm measure I >= 1e-10, or a
CP-indivisible divisibility scan); 1 = config error; 2 = numerical failure. CSV floats
carry 17 significant digits, so repeated runs of one config are byte-identical. Files
are written atomically (temp file + rename) and partial outputs are removed on failure.
"""

import argparse
import gc
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import (
    BUNDLED_SCENARIOS,
    ConfigError,
    ScenarioConfig,
    build_generator,
    bundled_scenario_path,
    load_scenario,
    render_scenario,
)
from .detect import (
    MEASURE_ZERO_THRESHOLD,
    MeasureReport,
    cp_divisibility_scan,
    measure_report,
    witness_series,
)

__all__ = ["RunReport", "run_scenario", "main", "entry"]

_ENV_OUT_DIR = "CHOI_MOMENTS_OUT"


class RunReport(NamedTuple):
    """What a scenario run produced and concluded."""

    scenario: str
    # "non-Markovian" iff some computed criterion detected (see detected_by).
    verdict: str
    # The criteria that detected, in report order: "witness" (a violation
    # interval), "rhp measure I" (I >= MEASURE_ZERO_THRESHOLD) and
    # "divisibility scan" (CP-indivisible). I and the scan count only when
    # the run computed them.
    detected_by: tuple[str, ...]
    violations: tuple[tuple[float, float], ...]
    output_paths: dict[str, str]
    report_path: str
    moment_measure: float | None
    rhp_measure: float | None
    measure_ratio: float | None
    divisibility_verdict: str | None
    config_text: str
    version: str


def _fmt(value: float) -> str:
    return f"{value:.17g}"


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


def run_scenario(config: ScenarioConfig, out_dir: str, quiet: bool = False) -> RunReport:
    """Run every output requested by the config and write CSVs plus a report.

    The witness series is always evaluated; the measures and the scan only
    when an output needs them. The verdict, and so the exit code, is
    non-Markovian when any criterion the run computed detects. CSVs are only
    written for the requested outputs. Identical configs produce
    byte-identical files.
    """
    gen = build_generator(config)
    grid = np.linspace(0.0, config.t_max, config.points)
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    paths: dict[str, str] = {}

    def emit(output: str, text: str) -> None:
        path = os.path.join(out_dir, f"{config.name}_{output}.csv")
        _write_atomic(path, text)
        written.append(path)
        paths[output] = path

    try:
        series = witness_series(gen, grid, config.epsilon, mode=config.mode)
        measures: MeasureReport | None = None
        scan = None
        if "witness" in config.outputs:
            rate_names = [f"gamma_{i + 1}" for i in range(series.rates.shape[1])]
            emit("witness", _csv(["t", *rate_names, "r2", "r3", "witness"],
                                 [series.grid, *series.rates.T,
                                  series.r2, series.r3, series.values]))
        if any(out in config.outputs for out in ("measure", "rhp", "compare")):
            measures = measure_report(gen, config.t_max, config.points)
            for out in ("measure", "rhp", "compare"):
                if out in config.outputs:
                    emit(out, _csv(["t", "f", "g"],
                                   [measures.grid, measures.f_series, measures.g_series]))
        if "divisibility" in config.outputs:
            scan = cp_divisibility_scan(gen, grid, config.epsilon)
            emit("divisibility", _csv(["t", "min_choi_eigenvalue"],
                                      [scan.grid, scan.min_eigenvalues]))

        detected = (("witness", bool(series.violations)),
                    ("rhp measure I",
                     measures is not None and measures.rhp_measure >= MEASURE_ZERO_THRESHOLD),
                    ("divisibility scan", scan is not None and not scan.is_divisible))
        detected_by = tuple(name for name, hit in detected if hit)
        report = RunReport(
            scenario=config.name,
            verdict="non-Markovian" if detected_by else "Markovian-consistent",
            detected_by=detected_by,
            violations=series.violations,
            output_paths=paths,
            report_path=os.path.join(out_dir, f"{config.name}_report.txt"),
            moment_measure=measures.moment_measure if measures else None,
            rhp_measure=measures.rhp_measure if measures else None,
            measure_ratio=measures.ratio if measures else None,
            divisibility_verdict=scan.verdict if scan else None,
            config_text=render_scenario(config),
            version=__version__,
        )
        _write_atomic(report.report_path, _report_text(report))
        written.append(report.report_path)
    except Exception:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise

    if not quiet:
        print(_report_text(report), end="")
    return report


def _report_text(report: RunReport) -> str:
    lines = [
        f"choi-moments {report.version}",
        f"scenario: {report.scenario}",
        f"verdict: {report.verdict}",
        f"detected by: {', '.join(report.detected_by) or 'none'}",
    ]
    if report.violations:
        lines.append(f"witness violation intervals ({len(report.violations)}):")
        lines += [f"  [{_fmt(a)}, {_fmt(b)}]" for a, b in report.violations]
    else:
        lines.append("witness violation intervals: none")
    if report.moment_measure is not None:
        lines.append(f"moment measure M = {_fmt(report.moment_measure)}")
        lines.append(f"rhp measure I = {_fmt(report.rhp_measure)}")
        if report.moment_measure >= MEASURE_ZERO_THRESHOLD:
            lines.append(f"ratio I/M = {_fmt(report.measure_ratio)}")
        elif report.rhp_measure < MEASURE_ZERO_THRESHOLD:
            lines.append("ratio I/M: n/a (both measures vanish; dynamics is Markovian)")
        else:
            lines.append("ratio I/M: n/a (M vanishes while I does not)")
    if report.divisibility_verdict is not None:
        lines.append(f"divisibility scan: {report.divisibility_verdict}")
    for output in sorted(report.output_paths):
        lines.append(f"output {output}: {report.output_paths[output]}")
    lines.append("config:")
    lines += ["  " + line for line in report.config_text.rstrip("\n").split("\n")]
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are config errors as far as the exit-code contract goes.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="choi-moments",
        description="Detect and quantify non-Markovian dynamics from Choi-state moments.",
    )
    parser.add_argument("--version", action="version", version=f"choi-moments {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("witness", "evaluate the moment-witness series"),
        ("measure", "integrate the moment rate into the measure"),
        ("rhp", "integrate the trace-norm rate into the divisibility measure"),
        ("divisibility", "scan intermediate maps for negative Choi eigenvalues"),
        ("compare", "compute both measures and their ratio"),
        ("validate", "parse and validate the config, run nothing"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "config",
            help="path to a scenario config, or a bundled name: "
            + ", ".join(BUNDLED_SCENARIOS),
        )
        cmd.add_argument("--out-dir", default=None, help=f"output directory (default: ${_ENV_OUT_DIR} or CWD)")
        cmd.add_argument("--grid-points", type=int, default=None, help="override grid.points")
        cmd.add_argument("--epsilon", type=float, default=None, help="override epsilon")
        cmd.add_argument("--quiet", action="store_true", help="suppress the report on stdout")
    return parser


def _resolve_config_path(arg: str) -> str:
    if os.path.exists(arg):
        return arg
    if arg in BUNDLED_SCENARIOS:
        return bundled_scenario_path(arg)
    raise ConfigError(
        f"no config file {arg!r} and no bundled scenario of that name "
        f"(bundled: {', '.join(BUNDLED_SCENARIOS)})"
    )


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        path = _resolve_config_path(args.config)
        config = load_scenario(path)
        overrides = {}
        if args.grid_points is not None:
            if args.grid_points < 2:
                raise ConfigError(f"--grid-points must be >= 2, got {args.grid_points}")
            overrides["points"] = args.grid_points
        if args.epsilon is not None:
            if not 0.0 < args.epsilon < np.inf:  # NaN compares false either way
                raise ConfigError(f"--epsilon must be finite and > 0, got {args.epsilon}")
            overrides["epsilon"] = args.epsilon
        if args.command != "validate":
            overrides["outputs"] = (args.command,)
        if overrides:
            config = config._replace(**overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        if not args.quiet:
            print(f"{path}: OK (scenario {config.name!r})")
        return 0

    out_dir = args.out_dir or os.environ.get(_ENV_OUT_DIR) or os.getcwd()
    try:
        report = run_scenario(config, out_dir=out_dir, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical failures surface with scenario context
        print(f"numerical failure in scenario {config.name!r}: {exc}", file=sys.stderr)
        return 2
    return 10 if report.verdict == "non-Markovian" else 0


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
