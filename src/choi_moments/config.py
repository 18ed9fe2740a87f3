"""Scenario configuration: a flat key = value document with dotted sections.

The format is deliberately trivial to parse and diff:

    version = 1
    name = example1
    generator.dimension = 2
    generator.hamiltonian = zero
    dissipator.1.operator = sigma_x
    dissipator.1.rate.model = expcos
    dissipator.1.rate.k = 1.0
    epsilon = 0.001
    grid.t_max = 6.283185307179586
    grid.points = 2000
    mode = small-time
    outputs = witness

Full-line comments start with '#'. Unknown keys are rejected rather than
silently ignored, and every value is validated against the schema.
"""

import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .lindblad import LindbladGenerator, named_operator
from .rates import (
    ConstantRate,
    ExpCosRate,
    LorentzianRate,
    OhmicDephasingRate,
    RateModel,
    TabulatedRate,
)

__all__ = [
    "ConfigError",
    "DissipatorSpec",
    "ScenarioConfig",
    "parse_scenario",
    "render_scenario",
    "load_scenario",
    "build_generator",
    "bundled_scenario_path",
    "BUNDLED_SCENARIOS",
]

CONFIG_VERSION = 1
OPERATOR_NAMES = ("sigma_x", "sigma_y", "sigma_z", "lowering", "raising", "custom-matrix")
OUTPUT_NAMES = ("witness", "measure", "rhp", "divisibility", "compare")
MODE_NAMES = ("small-time", "finite-interval")
BUNDLED_SCENARIOS = ("example1", "example2", "ohmic_compare", "markovian_control")

_RATE_PARAM_KEYS = {
    "constant": ("value",),
    "expcos": ("k",),
    "lorentzian": ("lambda", "gamma0", "k"),
    "ohmic": ("omega_c", "temperature"),
    "tabulated": ("knots",),
}

_TOP_LEVEL_KEYS = (
    "version",
    "name",
    "generator.dimension",
    "generator.hamiltonian",
    "epsilon",
    "grid.t_max",
    "grid.points",
    "mode",
    "outputs",
)


class ConfigError(ValueError):
    """A scenario document violates the schema."""


@dataclass(frozen=True)
class DissipatorSpec:
    """One dissipator: a named or custom operator plus its rate model."""

    operator: str
    rate: RateModel
    matrix: tuple[complex, ...] | None = None  # row-major, custom-matrix only


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    dimension: int
    hamiltonian: tuple[complex, ...] | None  # row-major entries; None = zero
    dissipators: tuple[DissipatorSpec, ...]
    epsilon: float
    t_max: float
    points: int
    mode: str
    outputs: tuple[str, ...]


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"key {key!r}: value must be finite, got {raw!r}")
    return value


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None


def _parse_complex_entries(key: str, raw: str) -> tuple[complex, ...]:
    entries = []
    for token in raw.split():
        try:
            entries.append(complex(token))
        except ValueError:
            raise ConfigError(
                f"key {key!r}: expected complex entries like '1', '0.5j' or "
                f"'(1+2j)', got token {token!r}"
            ) from None
    return tuple(entries)


def _parse_knots(key: str, raw: str) -> tuple[tuple[float, float], ...]:
    knots = []
    for token in raw.split():
        parts = token.split(":")
        if len(parts) != 2:
            raise ConfigError(f"key {key!r}: expected 't:gamma' pairs, got {token!r}")
        knots.append((_parse_float(key, parts[0]), _parse_float(key, parts[1])))
    return tuple(knots)


def _build_rate(index: int, model: str, params: dict[str, str]) -> RateModel:
    prefix = f"dissipator.{index}.rate"
    known = _RATE_PARAM_KEYS.get(model)
    if known is None:
        raise ConfigError(
            f"key {prefix}.model: unknown rate model {model!r}; "
            f"expected one of {sorted(_RATE_PARAM_KEYS)}"
        )
    for param in params:
        if param not in known:
            raise ConfigError(
                f"unknown key {prefix}.{param!r} for rate model {model!r}; "
                f"expected parameters {known}"
            )
    try:
        if model == "constant":
            if "value" not in params:
                raise ConfigError(f"rate model 'constant' requires {prefix}.value")
            return ConstantRate(_parse_float(f"{prefix}.value", params["value"]))
        if model == "expcos":
            return ExpCosRate(_parse_float(f"{prefix}.k", params.get("k", "1.0")))
        if model == "lorentzian":
            for need in ("lambda", "gamma0"):
                if need not in params:
                    raise ConfigError(f"rate model 'lorentzian' requires {prefix}.{need}")
            return LorentzianRate(
                lam=_parse_float(f"{prefix}.lambda", params["lambda"]),
                gamma0=_parse_float(f"{prefix}.gamma0", params["gamma0"]),
                k=_parse_float(f"{prefix}.k", params.get("k", "1.0")),
            )
        if model == "ohmic":
            return OhmicDephasingRate(
                omega_c=_parse_float(f"{prefix}.omega_c", params.get("omega_c", "1.0")),
                temperature=_parse_float(
                    f"{prefix}.temperature", params.get("temperature", "0.0")
                ),
            )
        if "knots" not in params:
            raise ConfigError(f"rate model 'tabulated' requires {prefix}.knots")
        return TabulatedRate(_parse_knots(f"{prefix}.knots", params["knots"]))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{prefix}: {exc}") from None


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario document."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {line!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value

    if "version" not in pairs:
        raise ConfigError("missing mandatory key 'version'")
    version = _parse_int("version", pairs.pop("version"))
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version}; expected {CONFIG_VERSION}")

    # Group dissipator.N.* keys.
    dissipator_params: dict[int, dict[str, str]] = {}
    for key in list(pairs):
        parts = key.split(".")
        if parts[0] != "dissipator":
            continue
        if len(parts) < 3 or not parts[1].isdigit():
            raise ConfigError(
                f"unknown key {key!r}; dissipator keys look like 'dissipator.<n>.operator'"
            )
        dissipator_params.setdefault(int(parts[1]), {})[".".join(parts[2:])] = pairs.pop(key)

    for key in pairs:
        if key not in _TOP_LEVEL_KEYS:
            raise ConfigError(f"unknown key {key!r}; expected one of {_TOP_LEVEL_KEYS}")
    for required in ("name", "generator.dimension", "epsilon",
                     "grid.t_max", "grid.points", "mode", "outputs"):
        if required not in pairs:
            raise ConfigError(f"missing mandatory key {required!r}")

    dimension = _parse_int("generator.dimension", pairs["generator.dimension"])
    if dimension < 2:
        raise ConfigError(f"generator.dimension must be >= 2, got {dimension}")

    ham_raw = pairs.get("generator.hamiltonian", "zero")
    if ham_raw == "zero":
        hamiltonian = None
    else:
        hamiltonian = _parse_complex_entries("generator.hamiltonian", ham_raw)
        if len(hamiltonian) != dimension * dimension:
            raise ConfigError(
                f"generator.hamiltonian has {len(hamiltonian)} entries; "
                f"dimension {dimension} needs {dimension * dimension} (row-major)"
            )

    if sorted(dissipator_params) != list(range(1, len(dissipator_params) + 1)):
        raise ConfigError(
            f"dissipator indices must be 1..K without gaps, got {sorted(dissipator_params)}"
        )
    dissipators = []
    for index in sorted(dissipator_params):
        params = dissipator_params[index]
        prefix = f"dissipator.{index}"
        if "operator" not in params:
            raise ConfigError(f"missing mandatory key '{prefix}.operator'")
        operator = params.pop("operator")
        if operator not in OPERATOR_NAMES:
            raise ConfigError(
                f"key {prefix}.operator: unknown operator {operator!r}; "
                f"expected one of {OPERATOR_NAMES}"
            )
        matrix = None
        if operator == "custom-matrix":
            if "matrix" not in params:
                raise ConfigError(f"operator 'custom-matrix' requires '{prefix}.matrix'")
            matrix = _parse_complex_entries(f"{prefix}.matrix", params.pop("matrix"))
            if len(matrix) != dimension * dimension:
                raise ConfigError(
                    f"{prefix}.matrix has {len(matrix)} entries; "
                    f"dimension {dimension} needs {dimension * dimension} (row-major)"
                )
        elif "matrix" in params:
            raise ConfigError(
                f"unknown key '{prefix}.matrix' (only valid with operator = custom-matrix)"
            )
        elif dimension != 2:
            raise ConfigError(
                f"key {prefix}.operator: {operator!r} is a qubit operator but "
                f"generator.dimension = {dimension}"
            )
        if "rate.model" not in params:
            raise ConfigError(f"missing mandatory key '{prefix}.rate.model'")
        model = params.pop("rate.model")
        rate_params = {}
        for key in list(params):
            if not key.startswith("rate."):
                raise ConfigError(f"unknown key '{prefix}.{key}'")
            rate_params[key[len("rate."):]] = params.pop(key)
        dissipators.append(
            DissipatorSpec(operator=operator, rate=_build_rate(index, model, rate_params),
                           matrix=matrix)
        )

    epsilon = _parse_float("epsilon", pairs["epsilon"])
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be > 0, got {epsilon}")
    t_max = _parse_float("grid.t_max", pairs["grid.t_max"])
    if t_max <= 0:
        raise ConfigError(f"grid.t_max must be > 0, got {t_max}")
    points = _parse_int("grid.points", pairs["grid.points"])
    if points < 2:
        raise ConfigError(f"grid.points must be >= 2, got {points}")
    mode = pairs["mode"]
    if mode not in MODE_NAMES:
        raise ConfigError(f"key 'mode': expected one of {MODE_NAMES}, got {mode!r}")
    outputs = tuple(pairs["outputs"].split())
    if not outputs:
        raise ConfigError("key 'outputs': at least one output is required")
    for output in outputs:
        if output not in OUTPUT_NAMES:
            raise ConfigError(
                f"key 'outputs': unknown output {output!r}; expected from {OUTPUT_NAMES}"
            )
    if len(set(outputs)) != len(outputs):
        raise ConfigError(f"key 'outputs': duplicate entries in {outputs}")

    config = ScenarioConfig(
        name=pairs["name"],
        dimension=dimension,
        hamiltonian=hamiltonian,
        dissipators=tuple(dissipators),
        epsilon=epsilon,
        t_max=t_max,
        points=points,
        mode=mode,
        outputs=outputs,
    )
    build_generator(config)  # surfaces operator/dimension mismatches early
    return config


def _format_complex(value: complex) -> str:
    return repr(complex(value)).strip("()")


def _rate_lines(prefix: str, rate: RateModel) -> list[str]:
    if isinstance(rate, ConstantRate):
        return [f"{prefix}.model = constant", f"{prefix}.value = {rate.value!r}"]
    if isinstance(rate, ExpCosRate):
        return [f"{prefix}.model = expcos", f"{prefix}.k = {rate.k!r}"]
    if isinstance(rate, LorentzianRate):
        return [
            f"{prefix}.model = lorentzian",
            f"{prefix}.lambda = {rate.lam!r}",
            f"{prefix}.gamma0 = {rate.gamma0!r}",
            f"{prefix}.k = {rate.k!r}",
        ]
    if isinstance(rate, OhmicDephasingRate):
        return [
            f"{prefix}.model = ohmic",
            f"{prefix}.omega_c = {rate.omega_c!r}",
            f"{prefix}.temperature = {rate.temperature!r}",
        ]
    knots = " ".join(f"{t!r}:{g!r}" for t, g in rate.knots)
    return [f"{prefix}.model = tabulated", f"{prefix}.knots = {knots}"]


def render_scenario(config: ScenarioConfig) -> str:
    """Serialize a config to the canonical document form.

    parse_scenario(render_scenario(config)) reproduces the config exactly
    (floats are written with full round-trip precision).
    """
    lines = [
        f"version = {CONFIG_VERSION}",
        f"name = {config.name}",
        f"generator.dimension = {config.dimension}",
    ]
    if config.hamiltonian is None:
        lines.append("generator.hamiltonian = zero")
    else:
        lines.append(
            "generator.hamiltonian = "
            + " ".join(_format_complex(v) for v in config.hamiltonian)
        )
    for i, spec in enumerate(config.dissipators, start=1):
        lines.append(f"dissipator.{i}.operator = {spec.operator}")
        if spec.matrix is not None:
            lines.append(
                f"dissipator.{i}.matrix = "
                + " ".join(_format_complex(v) for v in spec.matrix)
            )
        lines.extend(_rate_lines(f"dissipator.{i}.rate", spec.rate))
    lines += [
        f"epsilon = {config.epsilon!r}",
        f"grid.t_max = {config.t_max!r}",
        f"grid.points = {config.points}",
        f"mode = {config.mode}",
        f"outputs = {' '.join(config.outputs)}",
    ]
    return "\n".join(lines) + "\n"


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return parse_scenario(handle.read())
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def build_generator(config: ScenarioConfig) -> LindbladGenerator:
    """Materialize the Lindblad generator described by a config."""
    d = config.dimension
    if config.hamiltonian is None:
        hamiltonian = np.zeros((d, d), dtype=complex)
    else:
        hamiltonian = np.array(config.hamiltonian, dtype=complex).reshape(d, d)
    dissipators = []
    # Equal rate models become one object, which `rates_at` evaluates once.
    shared = {}
    for spec in config.dissipators:
        if spec.operator == "custom-matrix":
            op = np.array(spec.matrix, dtype=complex).reshape(d, d)
        else:
            op = named_operator(spec.operator, d)
        dissipators.append((op, shared.setdefault(spec.rate, spec.rate)))
    try:
        return LindbladGenerator(d, hamiltonian, tuple(dissipators))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def bundled_scenario_path(name: str) -> str:
    """Filesystem path of one of the scenarios shipped with the package."""
    if name not in BUNDLED_SCENARIOS:
        raise ConfigError(
            f"unknown bundled scenario {name!r}; available: {BUNDLED_SCENARIOS}"
        )
    path = resources.files("choi_moments").joinpath(f"scenarios/{name}.cfg")
    return os.fspath(path)
