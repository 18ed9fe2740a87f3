"""The benchmark's ops: what one execution runs, and how its output is checked.

cli_bundled       every bundled scenario x {witness, compare, divisibility},
                  each a fresh `python -m choi_moments ... --quiet` process
small_time_sweep  seeded Pauli-channel qubits, witness_series (small-time)
                  plus measure_report, in process
propagation_qudit seeded custom-matrix generators at d = 2, 3, 4, 8,
                  witness_series (finite-interval) plus cp_divisibility_scan,
                  in process

An execution ends as "ok", "failed" (exit 1 or 2, or an exception: no
answer) or "wrong" (an answer that fails its check). Checks run outside the
timed region.
"""

import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import oracles
import specs

BENCH = Path(__file__).resolve().parent
COMMANDS = ("witness", "compare", "divisibility")


@dataclass
class Sample:
    seconds: float  # wall
    cpu: float      # user + system seconds of the process running the op
    status: str     # "ok" | "failed" | "wrong"
    problems: list[str]
    rss_kb: int = 0
    output_bytes: int = 0
    spans: dict | None = None  # layer trace of a traced CLI child
    scale: float = 1.0  # reference host speed over the speed just before the op

    @property
    def ref_cpu(self) -> float:
        return self.cpu * self.scale


def rk4_counts(grid, delta: float, steps_per_unit: int, d: int) -> tuple[int, int]:
    """RK4 steps and real flops of the complex d^2 x d^2 products of one bridge sweep.

    Mirrors the sweep's schedule: a step over [t, t + delta] at every grid
    time plus the steps that carry the base propagator to the next grid time;
    four products per step and two per grid time (one for the last).
    """
    def steps_for(a, b):
        return max(1, round(steps_per_unit * (b - a)))

    grid = [float(t) for t in grid]
    steps = steps_for(0.0, grid[0]) if grid[0] > 0 else 0
    products = 0
    for i, t in enumerate(grid):
        steps += steps_for(t, t + delta)
        products += 1
        if i + 1 < len(grid):
            steps += steps_for(t, grid[i + 1])
            products += 1
    products += 4 * steps
    return steps, products * 8 * (d * d) ** 3


# ----------------------------------------------------------------------- CLI

class CliOp:
    """One `choi-moments <command> <scenario>` process."""

    def __init__(self, ctx, scenario: str, command: str, reference: dict):
        self.ctx = ctx
        self.name = f"{command} {scenario}"
        self.scenario, self.command = scenario, command
        spec = specs.bundled_spec(ctx.src, scenario)
        if ctx.grid_points:
            spec = replace(spec, points=ctx.grid_points)
        self.spec = spec
        self.points = spec.points
        self.reference = reference if spec.points == reference.get("rows") else None
        self._oracle = None
        if command == "divisibility":
            self.computed = rk4_counts(spec.grid, spec.epsilon, ctx.steps_per_unit, spec.dim)
        else:
            self.computed = (0, 0)

    def execute(self, tracer) -> Sample:
        traced = tracer is not None
        out_dir = self.ctx.fresh_dir()
        args = [self.command, self.scenario, "--quiet", "--out-dir", str(out_dir)]
        if self.ctx.grid_points:
            args += ["--grid-points", str(self.ctx.grid_points)]
        spans_path = out_dir / "spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "child.py"), "cli", str(spans_path), *args]
        else:
            cmd = [sys.executable, "-m", "choi_moments", *args]
        with open(out_dir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.ctx.env, cwd=self.ctx.root,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        cpu = usage.ru_utime + usage.ru_stime
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        spans = json.loads(spans_path.read_text()) if traced else None
        output_bytes = sum(p.stat().st_size for p in out_dir.iterdir()
                           if p.suffix in (".csv", ".txt") and p.name != "stderr.txt")
        if code not in (0, 10):
            last = ((out_dir / "stderr.txt").read_text().strip().splitlines() or [""])[-1]
            problems = [f"exit {code}: {last}"]
            sample = Sample(seconds, cpu, "failed", problems)
        else:
            try:
                problems = self.check(code, out_dir)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            sample = Sample(seconds, cpu, "wrong" if problems else "ok", problems)
        sample.rss_kb, sample.output_bytes, sample.spans = usage.ru_maxrss, output_bytes, spans
        shutil.rmtree(out_dir)
        return sample

    @property
    def oracle(self):
        if self._oracle is None:
            self._oracle = oracles.SmallTimeOracle(self.spec)
        return self._oracle

    def check(self, code: int, out_dir: Path) -> list[str]:
        spec, oracle, ref = self.spec, self.oracle, self.reference
        report = parse_report((out_dir / f"{spec.name}_report.txt").read_text())
        non_markovian = bool(np.any(oracle.witness > oracles.VIOLATION_THRESHOLD))
        want = "non-Markovian" if non_markovian else "Markovian-consistent"
        problems = []
        if report["verdict"] != want or code != (10 if non_markovian else 0):
            problems.append(f"verdict {report['verdict']} (exit {code}), expected {want}")
        problems += oracles.check_violations(oracle.grid, oracle.witness, report["violations"])
        table = np.loadtxt(out_dir / f"{spec.name}_{self.command}.csv", delimiter=",",
                           skiprows=1, ndmin=2)
        problems += oracles.close("t", table[:, 0], oracle.grid, 0.0, 0.0)
        columns = {}
        if self.command == "witness":
            gammas, r2, r3, w = table[:, 1:-3], table[:, -3], table[:, -2], table[:, -1]
            problems += oracle.check_witness(gammas, r2, r3, w, report["violations"])
            columns = {"witness": w, "r2": r2}
        elif self.command == "compare":
            f, g = table[:, 1], table[:, 2]
            problems += oracle.check_measures(f, g, report["M"], report["I"])
            columns = {"f": f, "g": g}
            if ref:
                for key, series in (("M", oracle.f), ("I", oracle.g)):
                    if abs(report[key] - ref[key]) > oracle.measure_tol(series):
                        problems.append(f"{key} = {report[key]!r}, reference {ref[key]!r}")
        else:
            min_eig = table[:, 1]
            want_eig, tau = oracles.pauli_bridge_min_eig(spec, oracle.grid, spec.epsilon)
            problems += oracles.close("min eigenvalue", min_eig, want_eig, tau, oracles.ATOL)
            divisible = not np.any(oracle.gammas < 0.0)
            want_scan = "CP-divisible" if divisible else "CP-indivisible"
            if report["divisibility"] != want_scan:
                problems.append(f"divisibility {report['divisibility']}, expected {want_scan}")
            columns = {"min_eigenvalue": min_eig}
        if ref:
            for key, (rows, values) in ref["columns"].items():
                tol = oracles.RTOL if key != "f" else oracle.tau[rows]
                problems += oracles.close(f"{key} vs reference", columns[key][rows], values,
                                          tol, 1e-12)
        return problems


def parse_report(text: str) -> dict:
    """Verdicts, violation intervals and measures from a run's report.txt."""
    report = {"violations": [], "M": None, "I": None, "divisibility": None, "verdict": None}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key == "verdict":
            report["verdict"] = value
        elif key == "divisibility scan":
            report["divisibility"] = value
        elif line.startswith("  ["):
            a, b = line.strip()[1:-1].split(", ")
            report["violations"].append((float(a), float(b)))
        elif line.startswith(("moment measure M = ", "rhp measure I = ")):
            label, _, value = line.partition(" = ")
            report[label[-1]] = float(value)
    return report


def cli_ops(ctx) -> list[CliOp]:
    reference = json.loads((BENCH / "reference.json").read_text())
    return [CliOp(ctx, scenario, command, reference.get(f"{command} {scenario}", {}))
            for scenario in specs.BUNDLED for command in COMMANDS]


# ---------------------------------------------------------------- in process

class InProcessOp:
    """One generator's calls into the library, made in this process."""

    def __init__(self, ctx, spec: specs.Spec, path: Path):
        self.ctx, self.spec, self.path = ctx, spec, path
        self.name = spec.name
        self.points = spec.points
        self.grid = spec.grid
        self.gen = None
        self._first = None  # (outputs, problems) of the first completed execution
        if spec.mode == "finite-interval":
            steps, flop = rk4_counts(self.grid, spec.epsilon, ctx.steps_per_unit, spec.dim)
            self.computed = (2 * steps, 2 * flop)  # the witness and the scan each sweep
        else:
            self.computed = (0, 0)

    def load(self):
        from choi_moments import config

        self.gen = config.build_generator(config.load_scenario(str(self.path)))

    def _calls(self):
        from choi_moments import detect

        spec = self.spec
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if spec.mode == "small-time":
                return (detect.witness_series(self.gen, self.grid, spec.epsilon),
                        detect.measure_report(self.gen, spec.t_max, spec.points))
            return (detect.witness_series(self.gen, self.grid, spec.epsilon,
                                          mode="finite-interval"),
                    detect.cp_divisibility_scan(self.gen, self.grid, spec.epsilon))

    def execute(self, tracer) -> Sample:
        """Time the library calls (a root span when traced), then check them."""
        calls = self._calls if tracer is None else tracer.span(self.name, self._calls)
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            first, second = calls()
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            return Sample(time.perf_counter() - start, time.process_time() - cpu_start,
                          "failed", [f"{type(exc).__name__}: {exc}"])
        seconds, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        problems = self.check(first, second)
        return Sample(seconds, cpu, "wrong" if problems else "ok", problems)

    def check(self, series, second) -> list[str]:
        """Check the first answer in full; a later identical answer shares its verdict."""
        small_time = self.spec.mode == "small-time"
        outputs = [series.values, series.r2, series.r3, series.rates,
                   *((second.f_series, second.g_series) if small_time
                     else (second.min_eigenvalues,))]
        if self._first is not None and all(
                np.array_equal(a, b) for a, b in zip(outputs, self._first[0])):
            return self._first[1]
        if small_time:
            oracle = oracles.SmallTimeOracle(self.spec)
            problems = (oracle.check_witness(series.rates, series.r2, series.r3, series.values,
                                             series.violations)
                        + oracle.check_measures(second.f_series, second.g_series,
                                                second.moment_measure, second.rhp_measure))
        else:
            rng = np.random.default_rng([self.ctx.seed, self.spec.points])
            sample_idx = set(rng.choice(self.spec.points, 12, replace=False).tolist())
            sample_idx |= {int(np.argmin(second.min_eigenvalues)), int(np.argmax(series.values))}
            problems = oracles.check_qudit(self.spec, series, second, sorted(sample_idx))
        self._first = (outputs, problems)
        return problems


def in_process_ops(ctx, workload: str) -> list[InProcessOp]:
    make = specs.sweep_specs if workload == "small_time_sweep" else specs.qudit_specs
    ops = []
    for spec in make(ctx.seed):
        if ctx.tiny:
            spec = replace(spec, points=max(20, spec.points // 50))
        path = ctx.work / f"{spec.name}.cfg"
        path.write_text(spec.to_text())
        ops.append(InProcessOp(ctx, spec, path))
    return ops
