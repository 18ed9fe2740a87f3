"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import choi_moments
from choi_moments.choi import propagate_map
from choi_moments.detect import (
    VIOLATION_THRESHOLD,
    _rate_limits,
    lambda_moments,
    measure_report,
    moment_witness,
    witness_series,
)
from choi_moments.lindblad import rates_at
from choi_moments.rates import ConstantRate, ExpCosRate, LorentzianRate, OhmicDephasingRate
from helpers import (
    dephasing_generator,
    first_order_choi,
    isotropic_pauli_generator,
    random_kraus_choi,
    random_psd_unit_trace,
    random_unital_generator,
    reference_choi,
    renyi_entropy,
    schatten_norm,
)


def _verdict(num: int, ok: bool, description: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {status}: {description}"
    if detail:
        line += f" ({detail})"
    print("\n" + line)
    assert ok, line


def _mismatches_near_boundaries(grid, observed, expected, boundaries, spacing):
    """True iff every observed/expected disagreement sits within one grid
    spacing of a boundary of the expected set."""
    for t in grid[observed != expected]:
        if np.min(np.abs(np.asarray(boundaries) - t)) > spacing + 1e-12:
            return False
    return True


def test_criterion_1_fig1_sign_pattern():
    start = time.monotonic()
    gen = isotropic_pauli_generator(ExpCosRate(k=1.0))
    grid = np.linspace(0.0, 2.0 * np.pi, 2000)
    series = witness_series(gen, grid, 1e-3)
    elapsed = time.monotonic() - start

    spacing = grid[1] - grid[0]
    gamma = np.exp(-grid) * np.cos(grid)
    sign_ok = _mismatches_near_boundaries(
        grid,
        series.values > VIOLATION_THRESHOLD,
        gamma < 0.0,
        [np.pi / 2, 3 * np.pi / 2],
        spacing,
    )
    crossing_ok = (
        len(series.violations) == 1
        and abs(series.violations[0][0] - np.pi / 2) <= spacing + 1e-12
    )
    _verdict(
        1,
        sign_ok and crossing_ok and elapsed < 10.0,
        "witness positive exactly where the common oscillating rate is negative, "
        "first crossing at pi/2",
        f"sign_ok={sign_ok}, crossing_ok={crossing_ok}, runtime={elapsed:.2f}s",
    )


def test_criterion_2_fig2_sign_pattern_and_control():
    start = time.monotonic()
    lam, gamma0 = 1.5, 1.0
    gen = dephasing_generator(LorentzianRate(lam=lam, gamma0=gamma0, k=1.0))
    grid = np.linspace(0.0, 10.0, 2000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # grid points near the rate pole
        series = witness_series(gen, grid, 1e-3)
    spacing = grid[1] - grid[0]

    # Boundaries of the negative-rate window: the pole of the oscillatory
    # branch and its next zero.
    g_abs = math.sqrt(2.0 * gamma0 * lam - lam * lam)
    pole = (2.0 / g_abs) * (math.pi - math.atan2(g_abs, lam))
    zero = 2.0 * math.pi / g_abs
    sign_ok = _mismatches_near_boundaries(
        grid,
        series.values > VIOLATION_THRESHOLD,
        series.rates[:, 0] < 0.0,
        [pole, zero],
        spacing,
    )

    control = dephasing_generator(LorentzianRate(lam=2.0, gamma0=1.0, k=1.0))
    control_series = witness_series(control, grid, 1e-3)
    elapsed = time.monotonic() - start
    _verdict(
        2,
        sign_ok and len(series.violations) > 0 and control_series.violations == ()
        and elapsed < 10.0,
        "Lorentzian dephasing violations coincide with the negative-rate window; "
        "critically damped control stays clean",
        f"sign_ok={sign_ok}, violations={len(series.violations)}, "
        f"control={len(control_series.violations)}, runtime={elapsed:.2f}s",
    )


def test_criterion_3_dephasing_rate_formulas():
    worst_f = worst_g = 0.0
    for gamma in np.linspace(-2.0, 2.0, 81):
        gen = dephasing_generator(ConstantRate(float(gamma)))
        f, g = _rate_limits(gen, rates_at(gen, [0.0]))
        worst_f = max(worst_f, abs(float(f[0]) - max(0.0, -gamma)))
        worst_g = max(worst_g, abs(float(g[0]) - max(0.0, -2.0 * gamma)))
    _verdict(
        3,
        worst_f <= 5e-4 and worst_g <= 5e-4,
        "instantaneous rates match the dephasing case formulas max(0,-gamma) "
        "and max(0,-2gamma)",
        f"worst |f err|={worst_f:.2e}, worst |g err|={worst_g:.2e}",
    )


def test_criterion_4_measure_relation():
    oracle = (np.exp(-np.pi / 2) + np.exp(-3 * np.pi / 2)) / (
        2.0 * (1.0 - np.exp(-2.0 * np.pi))
    )
    rep = measure_report(dephasing_generator(ExpCosRate(k=1.0)), 20.0, 2001)
    m_ok = abs(rep.moment_measure - oracle) <= 0.005 * oracle
    i_ok = abs(rep.rhp_measure - 2.0 * oracle) <= 0.005 * 2.0 * oracle
    ratio_ok = abs(rep.ratio - 2.0) <= 0.01 * 2.0

    # Ohmic reservoir at omega_c = 1, T = 5: its rate is non-negative at every
    # temperature, so both measures vanish and the factor-of-two relation
    # holds in its degenerate form I = 2M = 0 (checked as a relation, which is
    # well defined there; a quotient would be 0/0).
    ohmic = measure_report(
        dephasing_generator(OhmicDephasingRate(omega_c=1.0, temperature=5.0)), 20.0, 801
    )
    ohmic_relation_ok = abs(ohmic.rhp_measure - 2.0 * ohmic.moment_measure) <= max(
        0.01 * max(ohmic.rhp_measure, 2.0 * ohmic.moment_measure), 1e-9
    )
    ohmic_markovian = ohmic.moment_measure <= 1e-9 and ohmic.rhp_measure <= 1e-9
    _verdict(
        4,
        m_ok and i_ok and ratio_ok and ohmic_relation_ok,
        "measures match the lobe-sum oracle and the factor-of-two relation",
        f"M={rep.moment_measure:.6f} (oracle {oracle:.6f}), I={rep.rhp_measure:.6f}, "
        f"I/M={rep.ratio:.4f}; ohmic M={ohmic.moment_measure:.2e}, "
        f"I={ohmic.rhp_measure:.2e} (degenerate: both vanish={ohmic_markovian})",
    )


def test_criterion_5_witness_soundness_and_random_channels():
    rng = np.random.default_rng(50)
    worst = -np.inf
    for _ in range(1000):
        worst = max(worst, moment_witness(random_psd_unit_trace(rng, 4)))
    for dim in (9, 16):
        for _ in range(200):
            worst = max(worst, moment_witness(random_psd_unit_trace(rng, dim)))
    sound = worst <= 1e-12

    channels_ok = True
    for _ in range(100):
        d = int(rng.integers(2, 5))
        choi = random_kraus_choi(rng, d, int(rng.integers(1, 5)))
        channels_ok = channels_ok and moment_witness(choi) <= VIOLATION_THRESHOLD
        channels_ok = channels_ok and abs(lambda_moments(choi)[0] - 1.0) <= 1e-12
    _verdict(
        5,
        sound and channels_ok,
        "1000+400 random states satisfy r2^2 <= r3; 100 random channels have a "
        "witness below threshold and unit first moment",
        f"max witness={worst:.2e}, channels_ok={channels_ok}",
    )


def _accumulated_choi_moments(gen, grid):
    """[r2, r3] of the Choi state of Lambda(t, 0) at each grid time, built by
    composing the step maps Lambda(t_{i+1}, t_i)."""
    phi = np.eye(gen.dim * gen.dim, dtype=complex)
    moments = [lambda_moments(reference_choi(phi))[1:3]]
    for a, b in zip(grid[:-1], grid[1:]):
        phi = propagate_map(gen, float(a), float(b)) @ phi
        moments.append(lambda_moments(reference_choi(phi))[1:3])
    return np.array(moments)


def test_criterion_6_monotonicity_suite():
    """Entropy, norm, and Choi-moment monotonicity along divisible unital dynamics.

    Along CP-divisible unital dynamics C(t) = (id x Lambda(t, s)) C(s), and
    id x Lambda(t, s) is unital and CPTP, so the moments r2 and r3 of the Choi
    state of the accumulated map Lambda(t, 0) never increase, and every step
    map Lambda(t + h, t) passes the paper's criterion r2^2 - r3 <= threshold.
    The moment clause is shown able to fail on expcos dephasing, which is
    unital but CP-indivisible. The witness r2^2 - r3 of the accumulated map
    itself is not monotone: for constant-rate dephasing it equals
    (k^4 - k^2)/4 with k = exp(-2 gamma t), which falls to -1/16 and rises
    back toward zero; that closed form is asserted here too.
    """
    start = time.monotonic()
    slack = 1e-9
    rng = np.random.default_rng(51)
    grid = np.linspace(0.0, 5.0, 500)
    h = float(grid[1] - grid[0])
    entropy_ok = True
    norms_ok = True
    max_moment_increase = -np.inf
    max_step_witness = -np.inf
    for case in range(20):
        dim = 2 if case < 14 else 3
        gen = random_unital_generator(rng, dim, n_ops=2)
        step = propagate_map(gen, 0.0, h)
        # Constant rates: Lambda(t + h, t) is the same step map at every t.
        max_step_witness = max(max_step_witness, moment_witness(reference_choi(step)))
        rho_vec = random_psd_unit_trace(rng, dim).reshape(-1)
        phi = np.eye(dim * dim, dtype=complex)
        entropies = {2.0: [], 3.0: []}
        norms = {2.0: [], 3.0: []}
        moments = []
        for _ in grid:
            rho = rho_vec.reshape(dim, dim)
            rho = 0.5 * (rho + rho.conj().T)
            for p in (2.0, 3.0):
                entropies[p].append(renyi_entropy(rho, p))
                norms[p].append(schatten_norm(rho, p))
            moments.append(lambda_moments(reference_choi(phi))[1:3])
            rho_vec = step @ rho_vec
            phi = step @ phi
        for p in (2.0, 3.0):
            entropy_ok &= bool(np.all(np.diff(entropies[p]) >= -slack))
            norms_ok &= bool(np.all(np.diff(norms[p]) <= slack))
        max_moment_increase = max(max_moment_increase, float(np.diff(moments, axis=0).max()))
    moments_ok = max_moment_increase <= slack
    step_ok = max_step_witness <= VIOLATION_THRESHOLD

    control = _accumulated_choi_moments(
        dephasing_generator(ExpCosRate(k=1.0)), np.linspace(0.0, 2.0 * np.pi, 500)
    )
    control_increase = float(np.diff(control, axis=0).max())
    control_ok = control_increase > slack

    gamma = 0.5
    dephasing = _accumulated_choi_moments(dephasing_generator(ConstantRate(gamma)), grid)
    k = np.exp(-2.0 * gamma * grid)
    closed_form_err = float(
        np.max(np.abs(dephasing[:, 0] ** 2 - dephasing[:, 1] - (k**4 - k**2) / 4.0))
    )
    closed_form_ok = closed_form_err <= 1e-12
    elapsed = time.monotonic() - start
    _verdict(
        6,
        entropy_ok and norms_ok and moments_ok and step_ok and control_ok
        and closed_form_ok and elapsed < 60.0,
        "Renyi entropies non-decreasing, state norms and accumulated-map Choi "
        "moments r2, r3 non-increasing, step-map witness below threshold on 20 "
        "divisible unital generators; the moment clause flags CP-indivisible "
        "expcos dephasing; constant-dephasing witness matches (k^4 - k^2)/4",
        f"entropy_ok={entropy_ok}, norms_ok={norms_ok}, "
        f"max moment step increase={max_moment_increase:.3e}, "
        f"max step-map witness={max_step_witness:.3e}, "
        f"expcos moment step increase={control_increase:.3e}, "
        f"closed-form err={closed_form_err:.2e}, runtime={elapsed:.1f}s",
    )


def test_criterion_7_integration_quality():
    doubling_ok = True
    worst_doubling = 0.0
    cases = [
        (isotropic_pauli_generator(ExpCosRate(k=1.0)), 2.0 * np.pi),
        (dephasing_generator(LorentzianRate(lam=1.5, gamma0=1.0, k=1.0)), 5.0),
        (dephasing_generator(ConstantRate(1.0)), 3.0),
    ]
    for gen, horizon in cases:
        base = propagate_map(gen, 0.0, horizon)
        fine = propagate_map(gen, 0.0, horizon, steps=2 * round(1000 * horizon))
        diff = float(np.max(np.abs(base - fine)))
        worst_doubling = max(worst_doubling, diff)
        doubling_ok &= diff < 1e-8

    order_ok = True
    worst_ratio = 0.0
    for gen, t in (
        (dephasing_generator(ExpCosRate(k=1.0)), 0.7),
        (isotropic_pauli_generator(ExpCosRate(k=1.0)), 0.3),
    ):
        for eps in (1e-2, 1e-3, 1e-4):
            lin = first_order_choi(gen, t, eps)
            full = reference_choi(propagate_map(gen, t, t + eps))
            diff = float(np.max(np.abs(lin - full)))
            worst_ratio = max(worst_ratio, diff / eps**2)
            order_ok &= diff < 10.0 * eps**2
    _verdict(
        7,
        doubling_ok and order_ok,
        "step-doubling moves the propagator by < 1e-8; first-order and "
        "propagated Choi states differ by < 10 eps^2",
        f"worst doubling diff={worst_doubling:.2e}, worst diff/eps^2={worst_ratio:.2f}",
    )


ETERNAL_PAULI = os.path.join(os.path.dirname(__file__), "data", "eternal_pauli.cfg")


def _run_cli(args, **kwargs):
    # The child imports the same package as the tests, installed or not.
    src = os.path.dirname(os.path.dirname(choi_moments.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "choi_moments", *args],
        capture_output=True, text=True, env=env, **kwargs,
    )


def test_criterion_8_determinism_and_exit_codes(tmp_path):
    expected_codes = {
        ("witness", "example1"): 10,
        ("witness", "example2"): 10,
        ("witness", "markovian_control"): 0,
        ("compare", "ohmic_compare"): 0,
        # Phi(t, 0) of these two loses invertibility inside the grid, but
        # every bridge map of the scan is well defined.
        ("divisibility", "example2"): 10,
        ("divisibility", "ohmic_compare"): 0,
        # The first-order witness is silent on the eternally non-Markovian
        # Pauli channel; I, which every run computes, and the scan detect it,
        # and either sets the code.
        ("witness", ETERNAL_PAULI): 10,
        ("compare", ETERNAL_PAULI): 10,
        ("divisibility", ETERNAL_PAULI): 10,
    }
    codes_ok = True
    observed = {}
    for (command, name), expected in expected_codes.items():
        extra = ["--grid-points", "200"] if command == "divisibility" else []
        label = os.path.basename(name)
        result = _run_cli([command, name, "--out-dir", str(tmp_path / command / label),
                           "--quiet", *extra])
        observed[f"{command} {label}"] = result.returncode
        codes_ok &= result.returncode == expected

    # Byte-identical CSVs across repeated runs of one config.
    determinism_ok = True
    for name in ("example1", "markovian_control"):
        again = tmp_path / f"{name}_again"
        _run_cli(["witness", name, "--out-dir", str(again), "--quiet"])
        first = (tmp_path / "witness" / name / f"{name}_witness.csv").read_bytes()
        second = (again / f"{name}_witness.csv").read_bytes()
        determinism_ok &= first == second

    bad = tmp_path / "bad.cfg"
    bad.write_text("version = 1\nname = broken\n")
    config_error = _run_cli(["witness", str(bad)]).returncode == 1

    late = tmp_path / "late.cfg"
    late.write_text(
        "version = 1\nname = late\ngenerator.dimension = 2\n"
        "dissipator.1.operator = sigma_z\ndissipator.1.rate.model = tabulated\n"
        "dissipator.1.rate.knots = 0.0:1.0 2.0:1.0\n"
        "epsilon = 0.001\ngrid.t_max = 2.0\ngrid.points = 20\n"
        "mode = small-time\noutputs = divisibility\n"
    )
    numerical_error = _run_cli(
        ["divisibility", str(late), "--out-dir", str(tmp_path / "late"), "--quiet"]
    ).returncode == 2

    _verdict(
        8,
        codes_ok and determinism_ok and config_error and numerical_error,
        "bundled scenarios honor the exit-code contract and rerun byte-identically",
        f"codes={observed}, determinism={determinism_ok}, "
        f"config_error_1={config_error}, numerical_error_2={numerical_error}",
    )
