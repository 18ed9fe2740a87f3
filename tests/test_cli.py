import math
import os

import numpy as np
import pytest

from choi_moments import choi, detect
from choi_moments.cli import main, run_scenario
from choi_moments.config import load_scenario, parse_scenario
from helpers import count_sweeps

EXPCOS_COMPARE = """
version = 1
name = expcos_compare
generator.dimension = 2
dissipator.1.operator = sigma_z
dissipator.1.rate.model = expcos
dissipator.1.rate.k = 1.0
epsilon = 0.001
grid.t_max = 20.0
grid.points = 801
mode = small-time
outputs = compare
"""

SMALL_WITNESS = """
version = 1
name = small_witness
generator.dimension = 2
dissipator.1.operator = sigma_x
dissipator.1.rate.model = expcos
dissipator.1.rate.k = 1.0
dissipator.2.operator = sigma_y
dissipator.2.rate.model = expcos
dissipator.2.rate.k = 1.0
dissipator.3.operator = sigma_z
dissipator.3.rate.model = expcos
dissipator.3.rate.k = 1.0
epsilon = 0.001
grid.t_max = 6.283185307179586
grid.points = 400
mode = small-time
outputs = witness divisibility
"""

MARKOVIAN = """
version = 1
name = control
generator.dimension = 2
dissipator.1.operator = sigma_z
dissipator.1.rate.model = constant
dissipator.1.rate.value = 1.0
epsilon = 0.001
grid.t_max = 4.0
grid.points = 200
mode = small-time
outputs = witness
"""

# Knots stop exactly at t_max, so the divisibility scan (which needs rates at
# t_max + delta) fails after the witness CSV has already been written.
FAILS_LATE = """
version = 1
name = fails_late
generator.dimension = 2
dissipator.1.operator = sigma_z
dissipator.1.rate.model = tabulated
dissipator.1.rate.knots = 0.0:1.0 2.0:1.0
epsilon = 0.001
grid.t_max = 2.0
grid.points = 50
mode = small-time
outputs = witness divisibility
"""

# Pauli channels with gamma_z = -tanh t < 0 but gamma_x + gamma_y + gamma_z > 0:
# the moment rate f is zero everywhere while the trace-norm rate g is not.
M_BLIND = """
version = 1
name = m_blind
generator.dimension = 2
dissipator.1.operator = sigma_x
dissipator.1.rate.model = constant
dissipator.1.rate.value = 1.0
dissipator.2.operator = sigma_y
dissipator.2.rate.model = constant
dissipator.2.rate.value = 1.0
dissipator.3.operator = sigma_z
dissipator.3.rate.model = tabulated
dissipator.3.rate.knots = {knots}
epsilon = 0.01
grid.t_max = 2.9
grid.points = 300
mode = small-time
outputs = compare
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRunScenario:
    def test_witness_and_divisibility_outputs(self, tmp_path):
        config = parse_scenario(SMALL_WITNESS)
        report = run_scenario(config, str(tmp_path), quiet=True)
        assert report.verdict == "non-Markovian"
        assert (report.verdict == "non-Markovian") == bool(report.violations)
        assert set(report.output_paths) == {"witness", "divisibility"}
        witness_lines = open(report.output_paths["witness"]).read().splitlines()
        assert witness_lines[0] == "t,gamma_1,gamma_2,gamma_3,r2,r3,witness"
        assert len(witness_lines) == 1 + config.points
        div_lines = open(report.output_paths["divisibility"]).read().splitlines()
        assert div_lines[0] == "t,min_choi_eigenvalue"
        assert len(div_lines) == 1 + config.points
        assert report.divisibility_verdict == "CP-indivisible"
        assert os.path.exists(report.report_path)

    def test_finite_interval_witness_and_scan_share_one_sweep(self, tmp_path, monkeypatch):
        config = parse_scenario(
            SMALL_WITNESS.replace("mode = small-time", "mode = finite-interval"))
        sweeps = count_sweeps(monkeypatch)
        shared = run_scenario(config, str(tmp_path / "shared"), quiet=True)
        assert len(sweeps) == 1

        # With the slot emptied before every call, each call sweeps afresh.
        def sweep_afresh(*args, **kwargs):
            choi._last_sweep = None
            return choi.bridge_spectra(*args, **kwargs)

        monkeypatch.setattr(detect, "bridge_spectra", sweep_afresh)
        fresh = run_scenario(config, str(tmp_path / "fresh"), quiet=True)
        assert len(sweeps) == 3
        for output in ("witness", "divisibility"):
            with open(shared.output_paths[output], "rb") as a, \
                    open(fresh.output_paths[output], "rb") as b:
                assert a.read() == b.read()

    def test_markovian_verdict(self, tmp_path):
        report = run_scenario(parse_scenario(MARKOVIAN), str(tmp_path), quiet=True)
        assert report.verdict == "Markovian-consistent"
        assert report.violations == ()

    def test_compare_reports_measures(self, tmp_path):
        report = run_scenario(parse_scenario(EXPCOS_COMPARE), str(tmp_path), quiet=True)
        oracle = (np.exp(-np.pi / 2) + np.exp(-3 * np.pi / 2)) / (
            2.0 * (1.0 - np.exp(-2 * np.pi))
        )
        assert report.moment_measure == pytest.approx(oracle, rel=1e-2)
        assert report.rhp_measure == pytest.approx(2 * oracle, rel=1e-2)
        assert report.measure_ratio == pytest.approx(2.0, rel=1e-2)
        text = open(report.report_path).read()
        assert "moment measure M" in text and "ratio I/M" in text
        lines = open(report.output_paths["compare"]).read().splitlines()
        assert lines[0] == "t,f,g"
        assert len(lines) == 1 + 801

    def test_ratio_line_when_only_the_moment_measure_vanishes(self, tmp_path):
        knots = " ".join(f"{t!r}:{-math.tanh(t)!r}" for t in np.linspace(0.0, 3.0, 301).tolist())
        config = load_scenario(write_cfg(tmp_path, M_BLIND.format(knots=knots)))
        report = run_scenario(config, str(tmp_path / "out"), quiet=True)
        assert report.moment_measure == 0.0
        assert report.rhp_measure == pytest.approx(4.42, abs=5e-3)
        assert np.isnan(report.measure_ratio)
        text = open(report.report_path).read()
        assert "ratio I/M: n/a (M vanishes while I does not)\n" in text
        assert "vanish;" not in text

    def test_determinism(self, tmp_path):
        config = parse_scenario(MARKOVIAN)
        first = run_scenario(config, str(tmp_path / "a"), quiet=True)
        second = run_scenario(config, str(tmp_path / "b"), quiet=True)
        a = open(first.output_paths["witness"], "rb").read()
        b = open(second.output_paths["witness"], "rb").read()
        assert a == b

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        config = parse_scenario(FAILS_LATE)
        with pytest.raises(ValueError, match="outside the tabulated range"):
            run_scenario(config, str(tmp_path), quiet=True)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failing_call", [1, 2])
    def test_temp_file_removed_when_rename_fails(self, tmp_path, monkeypatch, failing_call):
        # The first rename publishes the witness CSV, the second the report.
        replace = os.replace
        calls = []

        def flaky_replace(src, dst):
            calls.append(dst)
            if len(calls) == failing_call:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky_replace)
        with pytest.raises(OSError, match="disk full"):
            run_scenario(parse_scenario(MARKOVIAN), str(tmp_path), quiet=True)
        assert len(calls) == failing_call
        assert list(tmp_path.iterdir()) == []


class TestMainExitCodes:
    def test_config_error_is_1(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "version = 1\n")
        assert main(["witness", path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_1(self, capsys):
        assert main(["witness", "/definitely/not/here.cfg"]) == 1
        capsys.readouterr()

    def test_usage_error_is_1(self, capsys):
        assert main(["witness"]) == 1
        capsys.readouterr()

    def test_numerical_failure_is_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, FAILS_LATE)
        assert main(["divisibility", path, "--out-dir", str(tmp_path), "--quiet"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_non_markovian_is_10(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SMALL_WITNESS)
        assert main(["witness", path, "--out-dir", str(tmp_path), "--quiet"]) == 10
        capsys.readouterr()

    def test_markovian_is_0(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MARKOVIAN)
        assert main(["witness", path, "--out-dir", str(tmp_path), "--quiet"]) == 0
        capsys.readouterr()

    def test_validate_is_0(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MARKOVIAN)
        assert main(["validate", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config_is_1(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MARKOVIAN + "unknown.key = 1\n")
        assert main(["validate", path]) == 1
        capsys.readouterr()


class TestMainOptions:
    def test_out_dir_env_var(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("CHOI_MOMENTS_OUT", str(target))
        path = write_cfg(tmp_path, MARKOVIAN)
        assert main(["witness", path, "--quiet"]) == 0
        assert (target / "control_witness.csv").exists()
        capsys.readouterr()

    def test_grid_points_override(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MARKOVIAN)
        assert main(["witness", path, "--out-dir", str(tmp_path), "--grid-points", "37",
                     "--quiet"]) == 0
        lines = open(tmp_path / "control_witness.csv").read().splitlines()
        assert len(lines) == 1 + 37
        capsys.readouterr()

    def test_epsilon_override_rejected_when_invalid(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MARKOVIAN)
        assert main(["witness", path, "--epsilon", "-1"]) == 1
        capsys.readouterr()

    def test_report_printed_unless_quiet(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MARKOVIAN)
        main(["witness", path, "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "verdict: Markovian-consistent" in out
        main(["witness", path, "--out-dir", str(tmp_path), "--quiet"])
        assert capsys.readouterr().out == ""
