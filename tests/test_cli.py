import gc
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from choi_moments import choi, cli, config as config_module, detect
from choi_moments.cli import _csv, entry, main, run_scenario
from choi_moments.config import ConfigError, build_generator, load_scenario, parse_scenario
from choi_moments.lindblad import LindbladGenerator
from helpers import (CountingRate, count_sweeps, dephasing_generator, reference_bridge_spectra,
                     reference_rhp_rates)

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
# t_max + delta) fails after the witness series has been computed.
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
ETERNAL_PAULI = os.path.join(os.path.dirname(__file__), "data", "eternal_pauli.cfg")
# A qutrit with custom-matrix jump operators and expcos rates, in finite-interval
# mode: the one CLI run that propagates at d > 2.
QUTRIT_EXPCOS = os.path.join(os.path.dirname(__file__), "data", "qutrit_expcos.cfg")
# A qutrit whose two jump operators are not trace-orthogonal, in small-time
# mode: the one CLI run whose trace-norm rate needs an eigensolve.
QUTRIT_COUPLED = os.path.join(os.path.dirname(__file__), "data", "qutrit_coupled.cfg")


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRunScenario:
    def test_witness_and_divisibility_outputs(self, tmp_path):
        config = parse_scenario(SMALL_WITNESS)
        report = run_scenario(config, str(tmp_path))
        assert report.verdict == "non-Markovian"
        assert report.criteria["witness"][1] and "witness" in report.detected_by
        assert set(report.output_paths) == {"witness", "divisibility"}
        witness_lines = open(report.output_paths["witness"]).read().splitlines()
        assert witness_lines[0] == "t,gamma_1,gamma_2,gamma_3,r2,r3,witness"
        assert len(witness_lines) == 1 + config.points
        div_lines = open(report.output_paths["divisibility"]).read().splitlines()
        assert div_lines[0] == "t,min_choi_eigenvalue"
        assert len(div_lines) == 1 + config.points
        assert report.criteria["divisibility scan"][2] == ["divisibility scan: CP-indivisible"]
        assert os.path.exists(report.report_path)

    # The names parse_scenario refuses, "" included (a document cannot spell it).
    @pytest.mark.parametrize("name", ["../escaped", "sub/dir/x", "/abs", "x/", ".", "..",
                                      "a\0b", ""], ids=repr)
    def test_a_name_that_is_a_path_is_refused_before_anything_is_written(self, tmp_path,
                                                                          name):
        # A config built in code skips parse_scenario, and its name used to be
        # joined into the output paths unchecked: "../escaped" wrote escaped_*
        # files beside the output directory.
        config = parse_scenario(MARKOVIAN)._replace(name=name)
        with pytest.raises(ConfigError, match="key 'name': expected a file name, not a path"):
            run_scenario(config, str(tmp_path / "out"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("outputs, message", [
        (("bogus",), "unknown output 'bogus'"),
        (("witness", "bogus"), "unknown output 'bogus'"),
        ((), "at least one output is required"),
        (("witness", "witness"), "duplicate entries"),
    ], ids=["bogus", "witness-bogus", "none", "duplicate"])
    def test_outputs_are_checked_before_anything_is_written(self, tmp_path, outputs,
                                                            message):
        # A config built in code skips parse_scenario: ("bogus",) used to
        # write a report and no CSV, and say nothing.
        config = parse_scenario(MARKOVIAN)._replace(outputs=outputs)
        with pytest.raises(ConfigError, match=rf"^key 'outputs': {message}"):
            run_scenario(config, str(tmp_path / "out"))
        assert list(tmp_path.iterdir()) == []

    def test_finite_interval_witness_and_scan_share_one_sweep(self, tmp_path, monkeypatch):
        config = parse_scenario(
            SMALL_WITNESS.replace("mode = small-time", "mode = finite-interval"))
        sweeps = count_sweeps(monkeypatch)
        shared = run_scenario(config, str(tmp_path / "shared"))
        assert len(sweeps) == 1

        # With the cache emptied before every call the run still sweeps once:
        # the witness and the scan read one bridge_moments result.
        def sweep_afresh(*args, **kwargs):
            choi._sweep.cache_clear()
            return choi.bridge_moments(*args, **kwargs)

        monkeypatch.setattr(detect, "bridge_moments", sweep_afresh)
        fresh = run_scenario(config, str(tmp_path / "fresh"))
        assert len(sweeps) == 2
        for output in ("witness", "divisibility"):
            with open(shared.output_paths[output], "rb") as a, \
                    open(fresh.output_paths[output], "rb") as b:
                assert a.read() == b.read()

    def test_small_time_run_evaluates_each_rate_once(self, tmp_path, monkeypatch):
        # The witness, f, g and both measures read one evaluation of the rates.
        rate = CountingRate()
        monkeypatch.setattr(cli, "build_generator", lambda config: dephasing_generator(rate))
        config = parse_scenario(
            EXPCOS_COMPARE.replace("outputs = compare", "outputs = witness compare"))
        report = run_scenario(config, str(tmp_path))
        assert rate.calls == config.points
        assert set(report.output_paths) == {"witness", "compare"}
        assert report.criteria["moment measure M"][0] > 0.0

    def test_markovian_verdict(self, tmp_path):
        report = run_scenario(parse_scenario(MARKOVIAN), str(tmp_path))
        assert report.verdict == "Markovian-consistent"
        assert report.criteria["witness"][2] == ["witness violation intervals: none"]
        assert report.detected_by == ()
        assert "detected by: none\n" in open(report.report_path).read()

    def test_compare_reports_measures(self, tmp_path):
        report = run_scenario(parse_scenario(EXPCOS_COMPARE), str(tmp_path))
        oracle = (np.exp(-np.pi / 2) + np.exp(-3 * np.pi / 2)) / (
            2.0 * (1.0 - np.exp(-2 * np.pi))
        )
        moment, rhp = report.criteria["moment measure M"][0], report.criteria["rhp measure I"][0]
        assert moment == pytest.approx(oracle, rel=1e-2)
        assert rhp == pytest.approx(2 * oracle, rel=1e-2)
        assert rhp / moment == pytest.approx(2.0, rel=1e-2)
        assert report.criteria["rhp measure I"][2][1] == f"ratio I/M = {rhp / moment:.17g}"
        text = open(report.report_path).read()
        assert "moment measure M" in text and "ratio I/M" in text
        lines = open(report.output_paths["compare"]).read().splitlines()
        assert lines[0] == "t,f,g"
        assert len(lines) == 1 + 801

    def test_ratio_line_when_only_the_moment_measure_vanishes(self, tmp_path):
        config = load_scenario(ETERNAL_PAULI)
        knots = np.array(config.dissipators[2].rate.knots)
        assert np.array_equal(knots[:, 0], np.linspace(0.0, 3.0, 301))
        assert np.allclose(knots[:, 1], -np.tanh(knots[:, 0]), rtol=1e-15, atol=0.0)
        # g = 2 tanh t stays near 2 to the end of the grid, so I is truncated.
        with pytest.warns(UserWarning, match="^trace-norm rate g is still 1.988e"):
            report = run_scenario(config, str(tmp_path / "out"))
        assert report.criteria["moment measure M"][0] == 0.0
        assert report.criteria["rhp measure I"][0] == pytest.approx(4.42, abs=5e-3)
        assert report.criteria["rhp measure I"][2][1] == (
            "ratio I/M: n/a (M vanishes while I does not)")
        assert not report.criteria["witness"][1]
        assert report.verdict == "non-Markovian"
        assert report.detected_by == ("rhp measure I",)
        text = open(report.report_path).read()
        assert "ratio I/M: n/a (M vanishes while I does not)\n" in text
        assert "vanish;" not in text
        assert "verdict: non-Markovian\ndetected by: rhp measure I\n" in text

    def test_determinism(self, tmp_path):
        config = parse_scenario(MARKOVIAN)
        first = run_scenario(config, str(tmp_path / "a"))
        second = run_scenario(config, str(tmp_path / "b"))
        a = open(first.output_paths["witness"], "rb").read()
        b = open(second.output_paths["witness"], "rb").read()
        assert a == b

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        config = parse_scenario(FAILS_LATE)
        with pytest.raises(ValueError, match="outside the tabulated range"):
            run_scenario(config, str(tmp_path))
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
        # A file that cannot be written is a config error naming it; it was
        # the OSError itself, which main reported as a numerical failure.
        with pytest.raises(ConfigError) as info:
            run_scenario(parse_scenario(MARKOVIAN), str(tmp_path))
        assert len(calls) == failing_call
        assert str(info.value) == f"cannot write output {calls[-1]!r}: disk full"
        assert list(tmp_path.iterdir()) == []

    def test_a_failure_that_is_not_an_oserror_removes_what_the_run_wrote(
            self, tmp_path, capsys, monkeypatch):
        # Raised after the witness CSV is written, before the report.
        def broken_report(report):
            raise RuntimeError("report failed")

        monkeypatch.setattr(cli, "_report_text", broken_report)
        out = tmp_path / "new" / "sub"
        assert main(["witness", "markovian_control", "--quiet", "--out-dir", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "numerical failure in scenario 'markovian_control': report failed\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_temp_file_that_cannot_be_removed_leaves_the_first_error(self, tmp_path,
                                                                         monkeypatch):
        def full_disk(src, dst):
            raise OSError("disk full")

        def busy(path):
            raise OSError(f"cannot remove {path}")

        monkeypatch.setattr(os, "replace", full_disk)
        monkeypatch.setattr(os, "unlink", busy)
        path = tmp_path / "out.csv"
        with pytest.raises(OSError, match="disk full"):
            cli._write_atomic(str(path), "t\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv.tmp"]


class TestCriteria:
    """The run's criteria come from one table, `cli.CRITERIA`."""

    def test_the_table_rows(self, tmp_path):
        assert [(name, sweeps) for name, sweeps, _ in cli.CRITERIA] == [
            ("witness", False), ("moment measure M", False), ("rhp measure I", False),
            ("divisibility scan", True)]
        report = run_scenario(parse_scenario(SMALL_WITNESS), str(tmp_path))
        assert list(report.criteria) == [name for name, _, _ in cli.CRITERIA]
        witness = np.loadtxt(report.output_paths["witness"], delimiter=",", skiprows=1)[:, -1]
        scan = np.loadtxt(report.output_paths["divisibility"], delimiter=",", skiprows=1)[:, 1]
        # Each row's scalar: the largest witness value, M, I and the smallest
        # bridge eigenvalue. M quantifies but never detects.
        scalars = [value for value, _, _ in report.criteria.values()]
        assert scalars[0] == np.max(witness) and scalars[3] == np.min(scan)
        assert scalars[1] > 0.0 and scalars[2] > 0.0
        assert [hit for _, hit, _ in report.criteria.values()] == [True, False, True, True]
        assert report.detected_by == ("witness", "rhp measure I", "divisibility scan")

    def test_a_row_added_to_the_table_reaches_the_report_and_the_exit_code(
            self, tmp_path, capsys, monkeypatch):
        row = ("always", False, lambda series, measures, scan: (1.0, True, ["always: yes"]))
        out = str(tmp_path / "out")
        assert main(["witness", "markovian_control", "--out-dir", out]) == 0
        before = capsys.readouterr().out
        monkeypatch.setattr(cli, "CRITERIA", cli.CRITERIA + (row,))
        assert main(["witness", "markovian_control", "--out-dir", out]) == 10
        text = capsys.readouterr().out
        assert text == before.replace(
            "verdict: Markovian-consistent\ndetected by: none\n",
            "verdict: non-Markovian\ndetected by: always\n").replace(
            "ratio I/M: n/a (both measures vanish; dynamics is Markovian)\n",
            "ratio I/M: n/a (both measures vanish; dynamics is Markovian)\nalways: yes\n")
        assert open(os.path.join(out, "markovian_control_report.txt")).read() == text

    @pytest.mark.parametrize("command, sweeps", [("witness", 0), ("compare", 0),
                                                 ("divisibility", 1)])
    def test_a_row_that_reads_the_sweep_runs_only_for_divisibility(
            self, tmp_path, monkeypatch, command, sweeps):
        # A run sweeps only when a row it runs reads the sweep.
        seen = []

        def sweeping(series, measures, scan):
            seen.append(scan)
            return float(scan.min_eigenvalues.min()), False, ["sweeping: ran"]

        monkeypatch.setattr(cli, "CRITERIA", cli.CRITERIA[:3] + (("sweeping", True, sweeping),))
        calls = count_sweeps(monkeypatch)
        config = parse_scenario(MARKOVIAN.replace("outputs = witness", f"outputs = {command}"))
        report = run_scenario(config, str(tmp_path))
        assert len(calls) == sweeps and len(seen) == sweeps
        assert ("sweeping" in report.criteria) == bool(sweeps)
        assert ("sweeping: ran\n" in open(report.report_path).read()) == bool(sweeps)


def record_generators(monkeypatch) -> list:
    """Collect every generator that config builds from here on."""
    made = []

    class Recorded(LindbladGenerator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(config_module, "LindbladGenerator", Recorded)
    return made


class TestGeneratorTables:
    """A generator's tables are built by the computations that read them."""

    FIELDS = {"dim", "hamiltonian", "operators", "dissipators"}

    def test_parsing_and_validating_a_config_build_no_generator(self, tmp_path, monkeypatch,
                                                                capsys):
        # Parsing used to build a generator only to check the Hamiltonian.
        made = record_generators(monkeypatch)
        parse_scenario(SMALL_WITNESS)
        assert main(["validate", write_cfg(tmp_path, SMALL_WITNESS)]) == 0
        assert made == []
        capsys.readouterr()

    @pytest.mark.parametrize("outputs, built", [
        ("witness", {"small_time_tables"}),
        ("compare", {"small_time_tables"}),
        ("divisibility", {"small_time_tables", "transfer_blocks"})])
    def test_a_run_builds_one_generator_and_only_what_it_reads(self, tmp_path, monkeypatch,
                                                               outputs, built):
        # Every run computes the measures, which read the small-time tables;
        # those come from the jump operators alone, and only the bridge scan
        # builds the transfer blocks, from the operators too.
        made = record_generators(monkeypatch)
        path = write_cfg(tmp_path, SMALL_WITNESS)
        assert main([outputs, path, "--out-dir", str(tmp_path), "--quiet"]) == 10
        assert len(made) == 1
        assert set(vars(made[0])) - self.FIELDS == built


class TestMainExitCodes:
    def test_a_regular_file_named_after_a_bundled_scenario_is_read(self, tmp_path, capsys,
                                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "example1").write_text(MARKOVIAN)
        assert main(["validate", "example1"]) == 0
        assert capsys.readouterr() == ("example1: OK (scenario 'control')\n", "")

    @pytest.mark.parametrize("existing", [False, True])
    def test_a_failed_write_is_1_and_leaves_no_directory_it_made(
            self, tmp_path, capsys, monkeypatch, existing):
        # It was reported as a numerical failure (exit 2) and left new/sub.
        # Only the directories the run made are removed: a kept/ that was
        # there before stays, with what it held.
        base = tmp_path / "kept" if existing else tmp_path
        if existing:
            base.mkdir()
            (base / "note.txt").write_text("kept\n")

        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        out = base / "new" / "sub"
        assert main(["witness", "markovian_control", "--out-dir", str(out)]) == 1
        written = str(out / "markovian_control_witness.csv")
        assert capsys.readouterr() == (
            "", f"config error: cannot write output {written!r}: No space left on device\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == (
            ["kept", "note.txt"] if existing else [])

    def test_non_markovian_is_10(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SMALL_WITNESS)
        assert main(["witness", path, "--out-dir", str(tmp_path), "--quiet"]) == 10
        capsys.readouterr()

    WITNESS_AND_I = "witness, rhp measure I"

    # Every bundled scenario and the three test configs under each computing
    # command: the criteria that detect, as `detected by` prints them for
    # witness, compare and divisibility.
    @pytest.mark.parametrize("config, detected", [
        ("example1", (WITNESS_AND_I,) * 2 + (WITNESS_AND_I + ", divisibility scan",)),
        ("example2", (WITNESS_AND_I,) * 2 + (WITNESS_AND_I + ", divisibility scan",)),
        ("markovian_control", ("none",) * 3),
        ("ohmic_compare", ("none",) * 3),
        (QUTRIT_EXPCOS, (WITNESS_AND_I,) * 2 + (WITNESS_AND_I + ", divisibility scan",)),
        # The first-order witness is silent on this channel at every t; I,
        # which every run computes, and the scan are not.
        (ETERNAL_PAULI, ("rhp measure I",) * 2 + ("rhp measure I, divisibility scan",)),
        # Likewise on this qutrit, where L_1's negative rate never outweighs
        # both operators' positive ones in <Phi+|X_D|Phi+>.
        (QUTRIT_COUPLED, ("rhp measure I",) * 2 + ("rhp measure I, divisibility scan",)),
    ], ids=["example1", "example2", "markovian_control", "ohmic_compare", "qutrit_expcos",
            "eternal_pauli", "qutrit_coupled"])
    def test_every_computed_criterion_decides_the_exit_code(self, tmp_path, capsys, config,
                                                             detected):
        out = str(tmp_path / "out")
        for command, criteria in zip(("witness", "compare", "divisibility"), detected):
            with warnings.catch_warnings(record=True) as records:
                warnings.simplefilter("always")
                code = main([command, config, "--out-dir", out])
            assert code == (0 if criteria == "none" else 10)
            verdict = "Markovian-consistent" if criteria == "none" else "non-Markovian"
            text = capsys.readouterr().out
            assert f"verdict: {verdict}\ndetected by: {criteria}\n" in text
            assert ("witness violation intervals: none\n" in text) == ("witness" not in criteria)
            if config == ETERNAL_PAULI:
                # Every run reads g, whose tail has not decayed.
                messages = [str(r.message) for r in records]
                assert len(messages) == 1
                assert messages[0].startswith("trace-norm rate g is still 1.988e+00")
            if config == QUTRIT_COUPLED:
                # Its rates have decayed by t_max, and nothing else warns.
                assert records == []
        capsys.readouterr()

    @pytest.mark.parametrize("output", ["measure", "rhp"])
    def test_a_removed_output_in_a_config_is_1_and_names_compare(self, tmp_path, capsys,
                                                                 output):
        path = write_cfg(tmp_path, MARKOVIAN.replace("outputs = witness", f"outputs = {output}"))
        assert main(["witness", path, "--out-dir", str(tmp_path / "out")]) == 1
        assert (f"unknown output '{output}'; expected from ('witness', 'compare', "
                "'divisibility')") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_qutrit_divisibility_matches_the_step_by_step_oracle(self, tmp_path, capsys):
        config = load_scenario(QUTRIT_EXPCOS)
        assert config.dimension == 3 and config.mode == "finite-interval"
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            assert main(["divisibility", QUTRIT_EXPCOS, "--out-dir", str(tmp_path),
                         "--quiet"]) == 10
        # The measures every run computes warn that the rates have not
        # decayed by t_max, naming the line of cli.py that called the library.
        messages = [str(r.message) for r in records]
        assert len(messages) == 1
        assert messages[0].startswith("moment rate f is still 1.583e-02")
        assert records[0].filename == cli.__file__
        capsys.readouterr()
        table = np.loadtxt(tmp_path / "qutrit_expcos_divisibility.csv", delimiter=",",
                           skiprows=1)
        grid = np.linspace(0.0, config.t_max, config.points)
        assert np.array_equal(table[:, 0], grid)
        want = reference_bridge_spectra(build_generator(config), grid, config.epsilon)[:, 0]
        assert np.max(np.abs(table[:, 1] - want)) < 1e-13
        # The oracle alone gives the same verdict: some bridge is not CP.
        assert np.min(want) < -detect._SCAN_CP_TOL

    def test_coupled_qutrit_g_matches_the_eigensolve_oracle(self, tmp_path, capsys):
        # Operators that are not trace-orthogonal: g comes from the stacked
        # solve over both, not from one eigenvalue per operator.
        config = load_scenario(QUTRIT_COUPLED)
        gen = build_generator(config)
        assert gen.small_time_tables.off_bell.shape == (2, 2, 2)
        assert main(["compare", QUTRIT_COUPLED, "--out-dir", str(tmp_path), "--quiet"]) == 10
        capsys.readouterr()
        table = np.loadtxt(tmp_path / "qutrit_coupled_compare.csv", delimiter=",",
                           skiprows=1)
        grid = np.linspace(0.0, config.t_max, config.points)
        assert np.array_equal(table[:, 0], grid)
        assert np.max(table[:, 2]) > 0.0
        assert np.max(np.abs(table[:, 2] - reference_rhp_rates(gen, grid))) < 1e-12

    def test_markovian_is_0(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MARKOVIAN)
        assert main(["witness", path, "--out-dir", str(tmp_path), "--quiet"]) == 0
        capsys.readouterr()

    def test_validate_is_0(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MARKOVIAN)
        assert main(["validate", path]) == 0
        assert "OK" in capsys.readouterr().out



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

    def test_epsilon_override(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MARKOVIAN)
        assert main(["witness", path, "--out-dir", str(tmp_path / "cli"), "--epsilon", "0.004",
                     "--grid-points", "37", "--quiet"]) == 0
        config = parse_scenario(MARKOVIAN)._replace(epsilon=0.004, points=37)
        report = run_scenario(config, str(tmp_path / "direct"))
        for name in ("control_witness.csv", "control_report.txt"):
            got = (tmp_path / "cli" / name).read_text()
            want = (tmp_path / "direct" / name).read_text()
            assert got == want.replace(str(tmp_path / "direct"), str(tmp_path / "cli"))
        assert "epsilon = 0.004\n" in open(report.report_path).read()
        capsys.readouterr()

    # A value is taken as written, so a negative one reaches the config key's
    # range check; argparse took "-1e-3" for an option, a usage error.
    @pytest.mark.parametrize("value, shown", [("-1", "-1.0"), ("-1e-3", "-0.001")])
    def test_epsilon_override_rejected_when_invalid(self, tmp_path, capsys, value, shown):
        path = write_cfg(tmp_path, MARKOVIAN)
        out = tmp_path / "out"
        assert main(["witness", path, "--epsilon", value, "--out-dir", str(out)]) == 1
        assert capsys.readouterr() == ("", "config error: --epsilon: key 'epsilon': value must "
                                           f"be positive and finite, got {shown}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["witness", "compare", "divisibility"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_epsilon_override_is_a_config_error(self, tmp_path, capsys,
                                                            command, value):
        # A NaN epsilon used to pass the check and give example1, which is
        # non-Markovian, a Markovian verdict (exit 0).
        out = str(tmp_path / "out")
        assert main([command, "example1", "--epsilon", value, "--out-dir", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"config error: --epsilon: key 'epsilon': value must be "
                                f"finite, got '{value}'\n")
        assert captured.out == "" and not os.path.exists(out)

    # Each spelling is read as a file value and as the matching override, and
    # one rule reads both. A row gives the spelling and whether grid.points
    # and epsilon take it. --grid-points used to take 1_000 and a fullwidth
    # 2000 through int(), which the config refused.
    SPELLINGS = [
        ("1_000", False, False), ("\uff12\uff10\uff10\uff10", False, False),
        ("2.5", False, True), ("abc", False, False), ("1", False, True), ("0", False, False),
        ("-1e-3", False, False), ("nan", False, False), ("inf", False, False),
        ("37", True, True), ("+7", True, True), ("0.004", False, True),
    ]

    @pytest.mark.filterwarnings("ignore:small-time expansion is dubious")
    @pytest.mark.parametrize("option, key, line", [
        ("--grid-points", "grid.points", "grid.points = 200"),
        ("--epsilon", "epsilon", "epsilon = 0.001")], ids=["grid-points", "epsilon"])
    @pytest.mark.parametrize("value, points_ok, epsilon_ok", SPELLINGS,
                             ids=[ascii(value) for value, _, _ in SPELLINGS])
    def test_a_file_value_and_its_override_are_read_by_one_rule(
            self, tmp_path, capsys, monkeypatch, option, key, line, value, points_ok,
            epsilon_ok):
        ran = []

        def recording_run(config, **kwargs):
            ran.append(config)
            return run_scenario(config, **kwargs)

        monkeypatch.setattr(cli, "run_scenario", recording_run)
        out = tmp_path / "out"
        code = main(["witness", write_cfg(tmp_path, MARKOVIAN), option, value,
                     "--out-dir", str(out), "--quiet"])
        err = capsys.readouterr().err
        assert line in MARKOVIAN
        try:
            from_file = parse_scenario(MARKOVIAN.replace(line, f"{key} = {value}"))
        except ConfigError as exc:
            assert not (points_ok if key == "grid.points" else epsilon_ok)
            assert str(exc).startswith(f"key '{key}': ")
            assert (code, err) == (1, f"config error: {option}: {exc}\n")
            assert ran == [] and not out.exists()
        else:
            assert points_ok if key == "grid.points" else epsilon_ok
            assert code in (0, 10) and ran == [from_file] and out.is_dir()

    @pytest.mark.parametrize("option, value, old, new", [
        ("--epsilon", "0.001", "epsilon = 0.001", "epsilon = 0"),
        ("--grid-points", "37", "grid.points = 200", "grid.points = 1_000")])
    def test_a_bad_file_value_that_an_override_replaces_is_still_refused(
            self, tmp_path, capsys, option, value, old, new):
        # The file is parsed whole before any override is applied.
        assert old in MARKOVIAN
        path = write_cfg(tmp_path, MARKOVIAN.replace(old, new))
        out = tmp_path / "out"
        assert main(["witness", path, option, value, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        key = old.split(" = ")[0]
        assert err.startswith(f"config error: {path}: key '{key}': ") and err.count("\n") == 1
        assert not out.exists()

    def test_validate_with_a_bad_override_is_1(self, capsys):
        # It used to print OK and exit 0.
        assert main(["validate", "example1", "--grid-points", "1_000"]) == 1
        assert capsys.readouterr() == ("", "config error: --grid-points: key 'grid.points': "
                                           "numbers are written in ASCII digits with no '_', "
                                           "got '1_000'\n")

    def test_report_printed_unless_quiet(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MARKOVIAN)
        main(["witness", path, "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "verdict: Markovian-consistent" in out
        assert out == (tmp_path / "control_report.txt").read_text()
        main(["witness", path, "--out-dir", str(tmp_path), "--quiet"])
        assert capsys.readouterr().out == ""
        # Only main prints: the library call writes its files and no text.
        run_scenario(parse_scenario(MARKOVIAN), str(tmp_path / "library"))
        assert capsys.readouterr().out == ""


class TestEntry:
    """Every launch of the command line runs `entry`, which freezes the
    collector's heap after `main` has returned; `main` leaves it alone."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def fake_main(argv=None):
            calls.append(("main", argv))
            return 10

        monkeypatch.setattr(cli, "main", fake_main)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append(("freeze",)))
        return calls

    def test_returns_mains_code_and_freezes_once_after_main(self, calls):
        assert entry(["compare", "example1"]) == 10
        assert calls == [("main", ["compare", "example1"]), ("freeze",)]

    def test_python_dash_m_runs_entry(self, calls):
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("choi_moments", run_name="__main__")
        assert exit_info.value.code == 10
        assert calls == [("main", None), ("freeze",)]

    def test_the_installed_script_runs_entry(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert 'choi-moments = "choi_moments.cli:entry"' in pyproject.read_text().splitlines()

    def test_main_leaves_the_collector_alone(self, tmp_path, capsys):
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        path = write_cfg(tmp_path, MARKOVIAN)
        assert main(["witness", path, "--out-dir", str(tmp_path), "--quiet"]) == 0
        assert main(["validate", path]) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
        capsys.readouterr()


class TestParser:
    """The command-line grammar of the usage line, row by row (values, exit
    codes, help and version). The spellings that only argparse took (unique
    prefixes, "-h" bundles, "--" to end the options) are usage errors."""

    # Each row's command and config are "witness" and "ex" unless it names
    # them; every other key is an option's spelling.
    PARSED = [
        (["witness", "ex", "--out-dir=D"], {"--out-dir": "D"}),
        (["witness", "ex", "--out-dir", "D"], {"--out-dir": "D"}),
        (["witness", "ex", "--out-dir="], {"--out-dir": ""}),
        (["witness", "ex", "--out-dir", "-1"], {"--out-dir": "-1"}),
        (["witness", "ex", "--out-dir", "-x y"], {"--out-dir": "-x y"}),
        (["witness", "ex", "--grid-points", "+7"], {"--grid-points": "+7"}),
        (["witness", "ex", "--grid-points", "1_000"], {"--grid-points": "1_000"}),
        (["witness", "ex", "--grid-points", "-1"], {"--grid-points": "-1"}),
        (["witness", "ex", "--epsilon=-1"], {"--epsilon": "-1"}),
        (["witness", "--epsilon", "-1", "ex"], {"--epsilon": "-1"}),
        (["witness", "ex", "--epsilon", "1e-3", "--epsilon", "2"], {"--epsilon": "2"}),
        (["witness", "--quiet", "ex"], {"--quiet": True}),
        (["validate", "ex", "--quiet"], {"command": "validate", "--quiet": True}),
        (["witness", "--out-dir", "D", "--grid-points", "9", "ex", "--quiet"],
         {"--out-dir": "D", "--grid-points": "9", "--quiet": True}),
        (["witness", "-1"], {"config": "-1"}),
        (["witness", "-"], {"config": "-"}),
        (["witness", "ex", "--epsilon", "-1e-3"], {"--epsilon": "-1e-3"}),
        (["witness", "ex", "--out-dir", "-h-not-help"], {"--out-dir": "-h-not-help"}),
    ]

    HELP = [["-h"], ["--help"], ["-h", "witness"], ["witness", "-h"],
            ["witness", "ex", "-h"], ["witness", "ex", "--bogus", "-h"],
            ["witness", "ex", "-h", "--grid-points", "2.5"], ["compare", "ex", "--quiet", "--help"],
            ["foo", "-h"], ["witness", "--", "-h"], ["witness", "ex", "--grid-points", "2.5", "-h"],
            ["witness", "ex", "--out-dir", "-h"]]

    VERSION = [["--version"], ["--version", "witness"]]

    USAGE_ERRORS = [
        ([], "the following arguments are required: command"),
        (["foo", "ex"], "argument command: invalid choice: 'foo' (choose from 'witness', "
                        "'divisibility', 'compare', 'validate')"),
        (["measure", "example1"], "invalid choice: 'measure'"),
        (["rhp", "example1"], "invalid choice: 'rhp'"),
        (["WITNESS", "ex"], "invalid choice: 'WITNESS'"),
        (["witness"], "the following arguments are required: config"),
        (["validate", "--quiet"], "the following arguments are required: config"),
        (["witness", "ex", "extra"], "unrecognized arguments: extra"),
        (["witness", "ex", "--bogus"], "unrecognized arguments: --bogus"),
        (["witness", "ex", "-q"], "unrecognized arguments: -q"),
        (["witness", "ex", "--version"], "unrecognized arguments: --version"),
        (["--quiet", "witness", "ex"], "unrecognized arguments: --quiet"),
        (["witness", "ex", "--out-dir"], "argument --out-dir: expected one argument"),
        (["witness", "ex", "--out-dir", "--quiet"], "argument --out-dir: expected one argument"),
        # Spellings that argparse took and the usage line does not name.
        (["witness", "ex", "--eps", "0.1"], "unrecognized arguments: --eps 0.1"),
        (["witness", "ex", "--out", "D"], "unrecognized arguments: --out D"),
        (["witness", "ex", "--o=D"], "unrecognized arguments: --o=D"),
        (["witness", "ex", "--grid", "5"], "unrecognized arguments: --grid 5"),
        (["witness", "ex", "--ep", "-.5"], "unrecognized arguments: --ep -.5"),
        (["witness", "ex", "--q"], "unrecognized arguments: --q"),
        (["witness", "ex", "--h"], "unrecognized arguments: --h"),
        (["witness", "ex", "-hq"], "unrecognized arguments: -hq"),
        (["witness", "ex", "--quiet=1"], "unrecognized arguments: --quiet=1"),
        (["witness", "ex", "--"], "unrecognized arguments: --"),
        (["witness", "ex", "--", "--quiet"], "unrecognized arguments: --"),
        (["-hh"], "invalid choice: '-hh'"),
        (["-x"], "invalid choice: '-x'"),
        (["--he"], "the following arguments are required: command"),
        (["--v"], "the following arguments are required: command"),
        (["--version=1"], "the following arguments are required: command"),
    ]

    @pytest.mark.parametrize("argv, fields", PARSED, ids=[" ".join(argv) for argv, _ in PARSED])
    def test_parsed_values(self, argv, fields):
        options = dict(fields)
        want = (options.pop("command", "witness"), options.pop("config", "ex"), options)
        assert cli._parse_args(argv) == want

    def test_argv_defaults_to_the_process_arguments(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["choi-moments", "compare", "example2", "--quiet"])
        assert cli._parse_args(None) == ("compare", "example2", {"--quiet": True})

    def test_double_dash_does_not_end_the_options(self, capsys):
        # argparse read "--quiet" after "--" as a third positional.
        assert main(["witness", "ex", "--", "--quiet"]) == 1
        assert capsys.readouterr().err.splitlines()[1] == (
            "choi-moments: error: unrecognized arguments: --")

    @pytest.mark.parametrize("argv", HELP, ids=" ".join)
    def test_help_anywhere_prints_the_one_help_text_and_exits_0(self, argv, capsys):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == cli._HELP and captured.err == ""

    def test_the_help_text_lists_the_commands_and_options(self):
        lines = cli._HELP.splitlines()
        assert lines[0] == ("usage: choi-moments [-h] [--version] COMMAND CONFIG "
                            "[--out-dir DIR] [--grid-points N] [--epsilon EPS] [--quiet]")
        start = lines.index("commands:") + 1
        commands = [line.split()[0] for line in lines[start:lines.index("", start)]]
        assert commands == ["witness", "divisibility", "compare", "validate"]
        for name, text in [("witness", "report the witness, M and I; write the witness series"),
                           ("divisibility",
                            "also scan bridge maps; write their minimum Choi eigenvalues"),
                           ("compare", "report the witness, M and I; write the rate series f, g"),
                           ("validate", "parse and validate the config, run nothing")]:
            assert f"  {name:<16} {text}" in lines
        for option in ("--out-dir DIR", "--grid-points N", "--epsilon EPS", "--quiet",
                       "-h, --help", "--version", "example1, example2, ohmic_compare"):
            assert option in cli._HELP

    @pytest.mark.parametrize("argv", VERSION, ids=" ".join)
    def test_version(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr() == ("choi-moments 0.1.0\n", "")

    # These were usage errors while the parser converted values itself; the
    # value is now read by its config key's rule, as in a file.
    WRONG_TYPE = [
        (["witness", "example1", "--grid-points", "2.5"],
         "--grid-points: key 'grid.points': expected an integer, got '2.5'"),
        (["witness", "example1", "--grid-points="],
         "--grid-points: key 'grid.points': expected an integer, got ''"),
        (["witness", "example1", "--epsilon", "abc"],
         "--epsilon: key 'epsilon': expected a number, got 'abc'"),
    ]

    @pytest.mark.parametrize("argv, message", WRONG_TYPE, ids=[" ".join(a) for a, _ in WRONG_TYPE])
    def test_an_option_value_of_the_wrong_type_is_a_config_error(self, tmp_path, argv, message,
                                                                  capsys):
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == 1
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                             ids=[" ".join(argv) or "none" for argv, _ in USAGE_ERRORS])
    def test_usage_errors_exit_1_with_the_usage_line(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        usage, error = captured.err.splitlines()
        assert usage == cli._HELP.splitlines()[0]
        assert error.startswith("choi-moments: error: ") and message in error
        assert captured.out == ""



def python_with(code, *args):
    """Run `python -S -c code` on the package sources and numpy, with site
    skipped, so no module is loaded before the code runs but the
    interpreter's own."""
    path = os.pathsep.join([str(Path(choi.__file__).resolve().parents[1]),
                            str(Path(np.__file__).resolve().parents[1])])
    return subprocess.run([sys.executable, "-S", "-c", code, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


class TestStartUp:
    """What a command-line process loads and runs beyond the work itself."""

    MODULES = """
import sys
before = set(sys.modules)
import choi_moments
assert "choi_moments.cli" not in sys.modules
from choi_moments import cli
assert cli.main(["validate", "example1", "--quiet"]) == 0
print(" ".join(sorted(set(sys.modules) - before)))
"""

    def test_import_and_validate_load_no_parser_dataclass_or_resources_module(self):
        result = python_with(self.MODULES)
        assert result.returncode == 0, result.stderr
        loaded = set(result.stdout.split())
        assert "choi_moments.cli" in loaded
        assert not {"argparse", "gettext", "locale", "dataclasses", "copy",
                    "importlib.resources"} & loaded

    def test_importing_the_package_does_not_import_the_cli(self):
        # The command-line layer's names live in choi_moments.cli alone.
        result = python_with("import sys, choi_moments\n"
                             "print('choi_moments.cli' in sys.modules)\n"
                             "print([hasattr(choi_moments, name) or name in choi_moments.__all__\n"
                             "       for name in ('RunReport', 'run_scenario')])\n")
        assert result.stdout == "False\n[False, False]\n", result.stderr



@pytest.mark.skipif(sys.platform != "linux", reason="reads a child's ru_maxrss in kB")
def test_a_long_bridge_sweep_peaks_below_64_mb(tmp_path):
    # divisibility example1 at --epsilon 1 sweeps 2000 windows of 1000 RK4
    # steps. Its half-step rates used to be one array, copied into the sweep
    # memo's key, and the process peaked at 245 MB; evaluated one chunk at a
    # time, they leave it near 32 MB. Each window's RK4 temporaries, about
    # 1 MB, used to go back to the system and be faulted in again by the
    # next: about 440 000 minor faults, against about 5 000 with buffers
    # the windows share. A child's ru_maxrss starts from its parent's
    # high-water mark, so a small launcher starts the run.
    launcher = ("import os, sys; pid = os.spawnv(os.P_NOWAIT, sys.executable, "
                "[sys.executable, '-m', 'choi_moments', *sys.argv[1:]]); "
                "_, status, usage = os.wait4(pid, 0); "
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_minflt)")
    result = subprocess.run(
        [sys.executable, "-c", launcher, "divisibility", "example1", "--epsilon", "1",
         "--quiet", "--out-dir", str(tmp_path)], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(choi.__file__).resolve().parents[1])))
    code, kilobytes, faults = map(int, result.stdout.split())
    assert code == 10, result.stderr
    assert kilobytes < 64 * 1024
    assert faults < 50_000


class TestCsv:
    # Old writer: one f"{x:.17g}" per value.
    @staticmethod
    def per_value(header, columns):
        lines = [",".join(header)]
        lines += [",".join(f"{x:.17g}" for x in row) for row in zip(*columns)]
        return "\n".join(lines) + "\n"

    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1]

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 7), (40, 1), (40, 7), (3, 2)])
    def test_matches_a_per_value_format(self, rows, cols):
        rng = np.random.default_rng(100 * rows + cols)
        # Arbitrary bit patterns: subnormals, huge and tiny values, NaNs with
        # either sign bit.
        values = rng.integers(0, 2**64, rows * cols, dtype=np.uint64).view(np.float64)
        values[:len(self.SPECIAL)] = self.SPECIAL[:rows * cols]
        columns = list(values.reshape(rows, cols).T)
        header = [f"c{j}" for j in range(cols)]
        assert _csv(header, columns) == self.per_value(header, columns)

    def test_specials(self):
        assert _csv(["t", "x"], [np.array(self.SPECIAL[:4]), np.array(self.SPECIAL[3:])]) == (
            "t,x\nnan,-0\ninf,4.9406564584124654e-324\n"
            "-inf,1.7976931348623157e+308\n-0,0.10000000000000001\n")
