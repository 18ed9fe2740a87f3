"""Scenario specs of the benchmark workloads, generated from a seed.

A `Spec` holds everything the benchmark needs to know about one scenario:
the generator (Hamiltonian, jump operators, rate-model parameters), the grid
and the mode. It renders itself as a scenario config document, which the
program under test parses; the oracles in `oracles.py` read the same spec.

The structure of each generated workload (dimensions, number of jump
operators, rate-model kinds, grid sizes) is fixed, so every seed asks for the
same amount of work; the seed draws the parameter values and the operators.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PAULI = {
    "sigma_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "sigma_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "sigma_z": np.array([[1, 0], [0, -1]], dtype=complex),
}

BUNDLED = ("example1", "example2", "markovian_control", "ohmic_compare")


@dataclass(frozen=True)
class Spec:
    name: str
    dim: int
    hamiltonian: np.ndarray          # (d, d) complex
    operators: tuple[str, ...]       # Pauli names or "custom-matrix"
    jumps: tuple[np.ndarray, ...]    # (d, d) complex, one per dissipator
    rates: tuple[dict, ...]          # {"model": ..., parameters}, one per dissipator
    epsilon: float
    t_max: float
    points: int
    mode: str

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.points)

    def to_text(self) -> str:
        lines = ["version = 1", f"name = {self.name}", f"generator.dimension = {self.dim}"]
        if np.any(self.hamiltonian):
            lines.append("generator.hamiltonian = " + _entries(self.hamiltonian))
        else:
            lines.append("generator.hamiltonian = zero")
        for i, (op, jump, rate) in enumerate(zip(self.operators, self.jumps, self.rates), 1):
            lines.append(f"dissipator.{i}.operator = {op}")
            if op == "custom-matrix":
                lines.append(f"dissipator.{i}.matrix = " + _entries(jump))
            for key, value in rate.items():
                if key == "knots":
                    value = " ".join(f"{t!r}:{g!r}" for t, g in value)
                lines.append(f"dissipator.{i}.rate.{key} = {value}")
        lines += [
            f"epsilon = {self.epsilon!r}",
            f"grid.t_max = {self.t_max!r}",
            f"grid.points = {self.points}",
            f"mode = {self.mode}",
            "outputs = witness",
        ]
        return "\n".join(lines) + "\n"


def _entries(m: np.ndarray) -> str:
    return " ".join(repr(complex(v)).strip("()") for v in m.reshape(-1))


def bundled_spec(src: Path, name: str) -> Spec:
    """Read a bundled scenario file with a plain key = value reader."""
    pairs = {}
    for line in (src / "choi_moments" / "scenarios" / f"{name}.cfg").read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            pairs[key.strip()] = value.strip()
    operators, rates = [], []
    index = 1
    while f"dissipator.{index}.operator" in pairs:
        prefix = f"dissipator.{index}.rate."
        operators.append(pairs[f"dissipator.{index}.operator"])
        rates.append({key[len(prefix):]: value for key, value in pairs.items()
                      if key.startswith(prefix)})
        index += 1
    if pairs["generator.hamiltonian"] != "zero" or pairs["generator.dimension"] != "2":
        raise ValueError(f"bundled scenario {name} is not a Pauli-channel qubit")
    rates = tuple({key: value if key == "model" else float(value) for key, value in r.items()}
                  for r in rates)
    return Spec(
        name=name, dim=2, hamiltonian=np.zeros((2, 2), dtype=complex),
        operators=tuple(operators), jumps=tuple(PAULI[op] for op in operators),
        rates=rates, epsilon=float(pairs["epsilon"]), t_max=float(pairs["grid.t_max"]),
        points=int(pairs["grid.points"]), mode=pairs["mode"],
    )


# small_time_sweep: Pauli-channel qubits, one slot per (rate kinds, grid points).
SWEEP_SLOTS = (
    (("expcos",), 2000),
    (("expcos", "lorentzian_over", "constant"), 3000),
    (("lorentzian_under",), 2000),
    (("lorentzian_over",), 1000),
    (("tabulated", "constant"), 4000),
    (("constant", "expcos"), 1000),
)

# propagation_qudit: (d, rate kinds per jump operator, t_max, grid points).
# Rates of the non-Markovian slots share one expcos profile, so the negative
# window is seen by every jump operator and the witness fires there.
QUDIT_SLOTS = (
    (2, ("expcos", "expcos", "expcos"), 2.0, 400),
    (3, ("lorentzian_over", "tabulated_pos"), 2.0, 400),
    (4, ("lorentzian_over",), 2.0, 400),
    (8, ("expcos", "expcos"), 0.5, 100),
)


def _rate(rng, kind: str, grid: np.ndarray, expcos_k: float) -> dict:
    if kind == "expcos":
        return {"model": "expcos", "k": expcos_k}
    if kind == "constant":
        return {"model": "constant", "value": float(rng.uniform(-0.5, 1.0))}
    if kind == "lorentzian_over":
        lam = float(rng.uniform(2.5, 5.0))
        return {"model": "lorentzian", "lambda": lam,
                "gamma0": float(rng.uniform(0.1, 0.45)) * lam, "k": float(rng.uniform(0.5, 2.0))}
    if kind == "lorentzian_under":
        lam = float(rng.uniform(0.5, 1.5))
        return {"model": "lorentzian", "lambda": lam,
                "gamma0": float(rng.uniform(0.6, 1.5)) * lam, "k": float(rng.uniform(0.5, 1.5))}
    if kind in ("tabulated", "tabulated_pos"):
        # Knots sit on grid times, so no window [t, t + epsilon] holds a kink
        # (where any fixed-step integrator loses its order); the last lies
        # past t_max because finite-interval windows reach t_max + epsilon.
        inner = np.sort(rng.choice(grid[1:-1], 6, replace=False))
        times = np.concatenate(([0.0], inner, [grid[-1] + 0.01]))
        low = -0.5 if kind == "tabulated" else 0.05
        return {"model": "tabulated",
                "knots": tuple((float(t), float(rng.uniform(low, 1.0))) for t in times)}
    raise ValueError(kind)


def first_lorentzian_pole(rate: dict) -> float:
    """Time of the first pole of an underdamped Lorentzian rate."""
    lam, g0, k = rate["lambda"], rate["gamma0"], rate["k"]
    g_abs = math.sqrt(2.0 * g0 * lam - lam * lam)
    return (2.0 / (k * g_abs)) * (math.pi - math.atan2(g_abs, lam))


def sweep_specs(seed: int) -> list[Spec]:
    """Pauli-channel qubit generators for the small-time sweep."""
    rng = np.random.default_rng([seed, 1])
    specs = []
    for index, (kinds, points) in enumerate(SWEEP_SLOTS):
        t_max = float(rng.uniform(4.0, 8.0))
        operators = tuple(str(op) for op in rng.permutation(sorted(PAULI))[: len(kinds)])
        grid = np.linspace(0.0, t_max, points)
        rates = [_rate(rng, kind, grid, float(rng.uniform(0.5, 2.0))) for kind in kinds]
        if "lorentzian_under" in kinds:
            # The rate is unbounded at its poles; the horizon stops short of the first.
            t_max = 0.8 * first_lorentzian_pole(rates[kinds.index("lorentzian_under")])
        specs.append(Spec(f"sweep{index}", 2, np.zeros((2, 2), dtype=complex), operators,
                          tuple(PAULI[op] for op in operators), tuple(rates),
                          1e-3, t_max, points, "small-time"))
    return specs


def qudit_specs(seed: int) -> list[Spec]:
    """custom-matrix generators with random H and jump operators, d = 2, 3, 4, 8."""
    rng = np.random.default_rng([seed, 2])
    specs = []
    for d, kinds, t_max, points in QUDIT_SLOTS:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = 0.5 * (g + g.conj().T)
        h *= float(rng.uniform(0.5, 2.0)) / np.linalg.norm(h, 2)
        jumps = []
        for _ in kinds:
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            jumps.append(a / np.linalg.norm(a, 2))
        # The expcos window (pi/2, 3pi/2) / k must fall inside the horizon.
        expcos_k = float(rng.uniform(1.2, 2.0)) * (2.0 / t_max)
        rates = [_rate(rng, kind, np.linspace(0.0, t_max, points), expcos_k) for kind in kinds]
        specs.append(Spec(f"qudit_d{d}", d, h, ("custom-matrix",) * len(kinds), tuple(jumps),
                          tuple(rates), 1e-3, t_max, points, "finite-interval"))
    return specs
