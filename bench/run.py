"""Benchmark of choi-moments: end-to-end metrics per workload, or a layer trace.

Run from the repository root:

    python3 bench/run.py --workload cli_bundled --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25   # every workload,
                                                                # untraced then traced

Workloads (closed loop, one client, one op at a time; see workloads.py):

    cli_bundled        what a user runs: 4 bundled scenarios x 3 subcommands,
                       each a fresh process, so start-up and imports count
    small_time_sweep   rate models, small-time Choi build, eigensolves and
                       the eps -> 0 extrapolation, warm and in process
    propagation_qudit  RK4 propagation and bridge solves at d = 2, 3, 4, 8,
                       warm and in process

A pass runs every op once, in a seeded order. Whole passes repeat until
--seconds have passed and at least two have run, so every run attempts each
op equally often and every op has two samples or more. Every output is
checked (oracles.py).

Times are CPU seconds (user + system) of the process running the op, at a
reference host speed. On a shared host, wall time also counts the time the
host lends our CPUs to others, and the CPUs' own speed drifts by tens of
percent within seconds. So a fixed kernel that uses no code of the program
(Calibration) is timed just before every op and every set-up run, and that
op's CPU seconds are scaled by REFERENCE_CALIBRATION_S over the kernel's.
Raw CPU and wall seconds go to the summary and the record. BLAS runs one
thread, so CPU time is the work done, not spinning. With --trace 0 the
end-to-end metrics are printed:

    ref_cpu_s             one pass: the sum over ops of each op's median CPU
                          seconds, at the reference speed
    points_per_ref_cpu_s  grid points of ops that passed their check, per
                          pass, / ref_cpu_s
    setup_s               median CPU seconds, over several fresh interpreters,
                          to import choi_moments and load and build the
                          workload's scenarios, at the reference speed
    peak_rss_mb           peak resident memory of the process(es) running the ops
    ops_ok_share          share of the pass's ops that answered and passed the
                          check (ops_failed, failed over attempted executions,
                          is printed beside it)

With --trace 1, half the time runs untraced and half with wrappers at each
layer boundary (tracing.py); the per-layer metrics are per pass. Computed
counts (RK4 steps, flops) follow from the grids and repeat exactly.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A full record (environment, samples, spans) goes to
.bench_out/BENCH_<workload>_seed<seed>_trace<trace>.json.
"""

import os

# One BLAS thread, fixed before numpy loads here or in any child: threads that
# spin while waiting for a descheduled sibling turn host noise into CPU time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_bundled", "small_time_sweep", "propagation_qudit")
SETUP_REPEATS = 3
# Median CPU seconds of one Calibration.tick on the reference host (Intel
# Xeon, 2 vCPUs, a quiet period): the speed the timed metrics are given at.
REFERENCE_CALIBRATION_S = 0.02

END_TO_END = (
    ("ref_cpu_s", "s"),
    ("points_per_ref_cpu_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_share", "share"),
)
PER_LAYER = (
    ("import.choi_moments_s", "s"),
    ("import.scipy_integrate_s", "s"),
    ("config.load_scenario_s", "s"),
    ("config.build_generator_s", "s"),
    ("rates.rate_eval.calls", "count"),
    ("rates.rate_eval_s", "s"),
    ("lindblad.rates_at.calls", "count"),
    ("lindblad.rates_at_s", "s"),
    ("spectral.eigvalsh.calls", "count"),
    ("spectral.eigvalsh_s", "s"),
    ("choi.bridge_solve.calls", "count"),
    ("choi.bridge_solve_s", "s"),
    ("detect.witness_series_s", "s"),
    ("detect.witness_series.self_s", "s"),
    ("detect.measure_report_s", "s"),
    ("detect.measure_report.self_s", "s"),
    ("detect.cp_divisibility_scan_s", "s"),
    ("detect.cp_divisibility_scan.self_s", "s"),
    ("cli.run_scenario_s", "s"),
    ("cli.run_scenario.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("computed.rk4_steps", "count"),
    ("computed.matmul_flop", "flop"),
)


class Context:
    def __init__(self, args, work: Path):
        from choi_moments.choi import DEFAULT_STEPS_PER_UNIT

        self.root, self.src, self.work = ROOT, SRC, work
        self.seed = args.seed
        self.tiny = args.tiny
        self.grid_points = 50 if args.tiny else None
        self.steps_per_unit = DEFAULT_STEPS_PER_UNIT
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"op{self._dirs}"
        path.mkdir()
        return path


def child_cpu_seconds(ctx, argv) -> float:
    """CPU seconds of a fresh interpreter running argv, which must succeed."""
    proc = subprocess.Popen([sys.executable, *argv], env=ctx.env, cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return usage.ru_utime + usage.ru_stime


def import_seconds(ctx) -> dict:
    """Cumulative import seconds of choi_moments and scipy.integrate (-X importtime)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import choi_moments"],
                          env=ctx.env, cwd=ROOT, check=True, capture_output=True, text=True)
    found = {"choi_moments": 0.0, "scipy.integrate": 0.0}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in found:
            found[parts[2].strip()] = int(parts[1]) / 1e6
    return {"import.choi_moments_s": found["choi_moments"],
            "import.scipy_integrate_s": found["scipy.integrate"]}


class Calibration:
    """The host's speed just before each op: CPU seconds of a fixed kernel.

    The kernel mixes small numpy calls with interpreted arithmetic, as the
    program does, and uses none of the program's code, so it slows down with
    the host but not with a change to the program. The host's speed holds for
    seconds at a time, so the kernel run just before an op gauges the op's.
    """

    def __init__(self):
        import numpy as np

        a = np.random.default_rng(0).normal(size=(2, 16, 4, 4))
        m = a[0] + 1j * a[1]
        self.matrices = list(m + m.conj().transpose(0, 2, 1))
        self.seconds = []

    def scale(self) -> float:
        """Run the kernel; return the factor from CPU seconds now to the reference speed."""
        import numpy as np

        start = time.process_time()
        total = 0.0
        for _ in range(32):
            for m in self.matrices:
                total += float(np.linalg.eigvalsh(m @ m)[0])
            total += sum(math.sin(i * 1e-3) for i in range(2000))
        self.seconds.append(time.process_time() - start)
        return REFERENCE_CALIBRATION_S / self.seconds[-1]


def measure(ops, order, seconds: float, tracer, calibration=None) -> dict:
    """Whole passes over ops in order until `seconds` passed and two passes ran."""
    samples = {op.name: [] for op in ops}
    start = time.perf_counter()
    passes = 0
    while passes < 2 or time.perf_counter() - start < seconds:
        for i in order:
            scale = calibration.scale() if calibration is not None else 1.0
            sample = ops[i].execute(tracer)
            sample.scale = scale
            samples[ops[i].name].append(sample)
        passes += 1
    return samples


def pass_seconds(samples: dict, clock: str = "cpu") -> float:
    return sum(statistics.median(getattr(s, clock) for s in runs) for runs in samples.values())


def end_to_end(ops, samples, setup, rss_mb) -> dict:
    """Per pass: each op counts once, with the share of its executions that passed."""
    cpu = pass_seconds(samples, "ref_cpu")
    ok = {op.name: statistics.mean(float(s.status == "ok") for s in samples[op.name])
          for op in ops}
    return {
        "ref_cpu_s": cpu,
        "points_per_ref_cpu_s": sum(op.points * ok[op.name] for op in ops) / cpu,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "ops_ok_share": statistics.mean(ok.values()),
    }


def per_layer(ctx, ops, traced, tracer, base_cpu) -> dict:
    import tracing

    roots = []  # (op name, layer metrics of one execution)
    if tracer.spans:
        roots += tracing.per_root(tracer.dump())
    for name, runs in traced.items():
        for sample in runs:
            if sample.spans is not None:
                (_, metrics), = tracing.per_root(sample.spans)
                metrics["cli.output_bytes"] = sample.output_bytes
                roots.append((name, metrics))
    by_op = {}
    for name, metrics in roots:
        by_op.setdefault(name, []).append(metrics)
    totals = {}
    for executions in by_op.values():
        for metrics in executions:
            for key, value in metrics.items():
                totals[key] = totals.get(key, 0.0) + value / len(executions)
    # A bridge solve is a condition-number check plus the solve: the time
    # covers both, the count is of solves.
    totals["choi.bridge_solve_s"] = (totals.get("choi.bridge_solve_s", 0.0)
                                     + totals.get("choi.bridge_cond_s", 0.0))
    totals.update(import_metrics(ctx))
    totals["trace.overhead_s"] = pass_seconds(traced) - base_cpu
    totals["computed.rk4_steps"] = sum(op.computed[0] for op in ops)
    totals["computed.matmul_flop"] = sum(op.computed[1] for op in ops)
    return {name: float(totals.get(name, 0.0)) for name, _ in PER_LAYER}


def import_metrics(ctx) -> dict:
    runs = [import_seconds(ctx) for _ in range(1 if ctx.tiny else 3)]
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": blas_threads(), "cpu": cpu, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def blas_threads():
    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def run(args, ctx) -> tuple[dict, dict]:
    import numpy as np

    import tracing
    import workloads

    cli = args.workload == "cli_bundled"
    ops = workloads.cli_ops(ctx) if cli else workloads.in_process_ops(ctx, args.workload)
    if cli:
        configs = [op.scenario for op in ops if op.command == "witness"]
    else:
        configs = [str(op.path) for op in ops]
    calibration = Calibration()
    setup = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        scale = calibration.scale()
        setup.append(child_cpu_seconds(ctx, [str(BENCH / "child.py"), "setup", *configs]) * scale)
    if not cli:
        for op in ops:
            op.load()
    order = np.random.default_rng([args.seed, 0]).permutation(len(ops))
    record = {"environment": environment(args), "setup_s": setup}

    if not args.trace:
        samples = measure(ops, order, args.seconds, None, calibration)
        if cli:
            rss_kb = max(s.rss_kb for runs in samples.values() for s in runs)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(ops, samples, setup, rss_kb / 1024.0)
        all_samples = samples
    else:
        base = measure(ops, order, args.seconds / 2, None, calibration)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer) if not cli else (lambda: None)
        try:
            if not cli:
                tracer.span("setup", lambda: [op.load() for op in ops])()
            traced = measure(ops, order, args.seconds / 2, tracer)
        finally:
            restore()
        metrics = per_layer(ctx, ops, traced, tracer, pass_seconds(base))
        record["spans"] = {"in_process": tracer.dump(),
                           "cli": {name: [s.spans for s in runs] for name, runs in traced.items()
                                   if runs and runs[0].spans is not None}}
        all_samples = {name: base[name] + traced[name] for name in base}
    untraced = base if args.trace else samples
    record["wall_s"] = pass_seconds(untraced, "seconds")
    record["cpu_s"] = pass_seconds(untraced)
    record["calibration_s"] = calibration.seconds
    record["samples"] = {name: [{"seconds": s.seconds, "cpu": s.cpu, "scale": s.scale,
                                 "status": s.status,
                                 "problems": s.problems[:3]} for s in runs]
                         for name, runs in all_samples.items()}
    record["metrics"] = metrics
    return record, all_samples


def summary_lines(record, samples) -> list[str]:
    env = record["environment"]
    runs = [s for r in samples.values() for s in r]
    failed = sum(s.status != "ok" for s in runs)
    counts = [len(r) for r in samples.values()]
    lines = [
        f"# {env['workload']} seed={env['seed']} trace={env['trace']} python {env['python']} "
        f"numpy {env['numpy']} scipy {env['scipy']} blas_threads={env['blas_threads']} "
        f"cpu={env['cpu']!r} nproc={env['nproc']}",
        f"# samples: {len(runs)} executions of {len(samples)} ops "
        f"({min(counts)}-{max(counts)} per op); setup runs: {len(record['setup_s'])}",
        f"# per pass: {record['wall_s']:.4f} wall s, {record['cpu_s']:.4f} CPU s; "
        f"calibration: {len(record['calibration_s'])} runs, median "
        f"{statistics.median(record['calibration_s']):.5f} s",
        f"# ops_failed = {failed}/{len(runs)} = {failed / len(runs):.4f}",
    ]
    units = dict(END_TO_END + PER_LAYER)
    for name, value in record["metrics"].items():
        lines.append(f"{name:38s} {value:.6g} {units[name]}")
    for name, r in samples.items():
        for s in r:
            if s.status != "ok":
                lines.append(f"# {s.status}: {name}: {'; '.join(s.problems[:2])}")
                break
    return lines


def run_all(args) -> int:
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = ["--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            code = subprocess.run([sys.executable, __file__, *argv,
                                   *(["--tiny"] if args.tiny else [])]).returncode
            if code:
                return code
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them untraced and traced in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: tiny grids, one setup run")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "choi_moments" / "__init__.py").is_file():
        print(f"error: choi_moments sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        record, samples = run(args, Context(args, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1))

    runs = [s for r in samples.values() for s in r]
    units = dict(END_TO_END + PER_LAYER)
    print("\n".join(summary_lines(record, samples)))
    print(json.dumps({
        "correct": not any(s.status == "wrong" for s in runs),
        "attempted": len(runs),
        "failed": sum(s.status != "ok" for s in runs),
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
