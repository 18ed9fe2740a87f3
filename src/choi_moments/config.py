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
from typing import NamedTuple

import numpy as np

from .lindblad import (NAMED_OPERATORS, LindbladGenerator, require_count, require_hermitian,
                       require_positive)
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
    "override",
    "render_scenario",
    "load_scenario",
    "build_generator",
    "bundled_scenario_path",
    "BUNDLED_SCENARIOS",
]

CONFIG_VERSION = 1
OPERATOR_NAMES = (*NAMED_OPERATORS, "custom-matrix")
OUTPUT_NAMES = ("witness", "compare", "divisibility")
MODE_NAMES = ("small-time", "finite-interval")
BUNDLED_SCENARIOS = ("example1", "example2", "ohmic_compare", "markovian_control")

# Rate models by config name: the class and its config keys, in constructor
# order. Each key sets the constructor field at its position (only `lambda`
# is spelled `lam` there), and a key is optional exactly when that field
# has a default.
_RATE_MODELS = {
    "constant": (ConstantRate, ("value",)),
    "expcos": (ExpCosRate, ("k",)),
    "lorentzian": (LorentzianRate, ("lambda", "gamma0", "k")),
    "ohmic": (OhmicDephasingRate, ("omega_c", "temperature")),
    "tabulated": (TabulatedRate, ("knots",)),
}
_RATE_MODEL_NAMES = {cls: name for name, (cls, _) in _RATE_MODELS.items()}

class ConfigError(ValueError):
    """A scenario document violates the schema."""


class DissipatorSpec(NamedTuple):
    """One dissipator: a named or custom operator plus its rate model."""

    operator: str
    rate: RateModel
    matrix: tuple[complex, ...] | None = None  # row-major, custom-matrix only


class ScenarioConfig(NamedTuple):
    """A parsed and validated scenario document (see `parse_scenario`); the
    fields mirror its keys, and `render_scenario` writes it back."""

    name: str
    dimension: int
    hamiltonian: tuple[complex, ...] | None  # row-major entries; None = zero
    dissipators: tuple[DissipatorSpec, ...]
    epsilon: float
    t_max: float
    points: int
    mode: str
    outputs: tuple[str, ...]


def _require_plain_number(token: str) -> None:
    """Refuse the spellings Python's number parsers accept beyond the one
    `render_scenario` writes: digit separators and non-ASCII digits."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"numbers are written in ASCII digits with no '_', got {token!r}")


def _parse_float(raw: str) -> float:
    _require_plain_number(raw)
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"value must be finite, got {raw!r}")
    return value


def _parse_int(raw: str) -> int:
    _require_plain_number(raw)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _parse_matrix(raw: str, dimension: int, hermitian: bool = False) -> tuple[complex, ...]:
    """The d x d row-major entries of a matrix value, each finite; Hermitian if asked."""
    entries = []
    for token in raw.split():
        _require_plain_number(token)
        try:
            value = complex(token)
        except ValueError:
            raise ValueError(f"expected complex entries like '1', '0.5j' or '(1+2j)', "
                             f"got token {token!r}") from None
        if not np.isfinite(value):
            raise ValueError(f"entries must be finite, got token {token!r}")
        entries.append(value)
    if len(entries) != dimension * dimension:
        raise ValueError(f"{len(entries)} entries; dimension {dimension} needs "
                         f"{dimension * dimension} (row-major)")
    if hermitian:
        require_hermitian(np.reshape(entries, (dimension, dimension)))
    return tuple(entries)


def _parse_knots(raw: str) -> tuple[tuple[float, float], ...]:
    knots = []
    for token in raw.split():
        parts = token.split(":")
        if len(parts) != 2:
            raise ValueError(f"expected 't:gamma' pairs, got {token!r}")
        knots.append((_parse_float(parts[0]), _parse_float(parts[1])))
    return tuple(knots)


def _keyed(key: str, parse, raw, *args):
    """parse(raw, *args), a ValueError from which is raised as a ConfigError
    naming key; a ConfigError, which names its key already, passes as it is."""
    try:
        return parse(raw, *args)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None


def _build_rate(index: int, model: str, params: dict[str, str]) -> RateModel:
    prefix = f"dissipator.{index}.rate"
    if model not in _RATE_MODELS:
        raise ConfigError(
            f"key {prefix}.model: unknown rate model {model!r}; "
            f"expected one of {sorted(_RATE_MODELS)}"
        )
    cls, known = _RATE_MODELS[model]
    for param in params:
        if param not in known:
            raise ConfigError(
                f"unknown key {prefix}.{param!r} for rate model {model!r}; "
                f"expected parameters {known}"
            )
    required = known[:len(known) - len(cls.__init__.__defaults__ or ())]
    for need in required:
        if need not in params:
            raise ConfigError(f"rate model {model!r} requires {prefix}.{need}")
    fields = {}
    for key, field in zip(known, cls._fields):
        if key in params:
            parse = _parse_knots if key == "knots" else _parse_float
            fields[field] = _keyed(f"{prefix}.{key}", parse, params[key])
    return _keyed(prefix, lambda given: cls(**given), fields)


def require_file_name(name: str) -> str:
    """A scenario name, refused unless a file name: it names the run's output files."""
    if name in ("", ".", "..") or any(c and c in name for c in (os.sep, os.altsep, "\0")):
        raise ConfigError(f"key 'name': expected a file name, not a path, got {name!r}")
    return name


def require_outputs(outputs: tuple[str, ...]) -> tuple[str, ...]:
    """A config's outputs, refused unless one or more distinct names of
    OUTPUT_NAMES: each names a CSV that a run writes."""
    if not outputs:
        raise ConfigError("key 'outputs': at least one output is required")
    for output in outputs:
        if output not in OUTPUT_NAMES:
            raise ConfigError(
                f"key 'outputs': unknown output {output!r}; expected from {OUTPUT_NAMES}"
            )
    if len(set(outputs)) != len(outputs):
        raise ConfigError(f"key 'outputs': duplicate entries in {outputs}")
    return outputs


def _count(raw: str) -> int:
    return require_count("value", _parse_int(raw), 2)


def _positive(raw: str) -> float:
    value = _parse_float(raw)
    require_positive("value", value)
    return value


def _mode(raw: str) -> str:
    if raw not in MODE_NAMES:
        raise ValueError(f"expected one of {MODE_NAMES}, got {raw!r}")
    return raw


# The top-level keys but `version`, read first, and `generator.hamiltonian`,
# whose length depends on the dimension: each key's ScenarioConfig field and
# the one function that parses its text and checks its range. A document
# (`parse_scenario`) and an override (`override`) both read a value here.
_KEYS = {
    "name": ("name", require_file_name),
    "generator.dimension": ("dimension", _count),
    "epsilon": ("epsilon", _positive),
    "grid.t_max": ("t_max", _positive),
    "grid.points": ("points", _count),
    "mode": ("mode", _mode),
    "outputs": ("outputs", lambda raw: require_outputs(tuple(raw.split()))),
}


def override(config: ScenarioConfig, key: str, raw: str) -> ScenarioConfig:
    """A copy of config whose value of the top-level key, one of `_KEYS`, is
    read from raw by the rule that reads it in a document. A value that the
    rule refuses is a ConfigError naming the key."""
    field, parse = _KEYS[key]
    return config._replace(**{field: _keyed(key, parse, raw)})


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario document: a top-level value by
    its key's rule in `_KEYS`, as `override` reads it. A refused value is a
    ConfigError naming its key. Every check that `build_generator` makes is
    made here, with no generator built."""
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
    version = _keyed("version", _parse_int, pairs.pop("version"))
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version}; expected {CONFIG_VERSION}")

    # Group dissipator.N.* keys.
    dissipator_params: dict[int, dict[str, str]] = {}
    for key in list(pairs):
        parts = key.split(".")
        if parts[0] != "dissipator":
            continue
        index = parts[1] if len(parts) > 2 else ""  # one spelling per dissipator
        if not (index.isascii() and index.isdigit() and index == str(int(index))):
            raise ConfigError(f"unknown key {key!r}; dissipator keys look like "
                              "'dissipator.<n>.operator', n in ASCII digits, no leading zero")
        dissipator_params.setdefault(int(index), {})[".".join(parts[2:])] = pairs.pop(key)

    ham_raw = pairs.pop("generator.hamiltonian", "zero")
    for key in pairs:
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}; expected one of "
                              f"{('version', 'generator.hamiltonian', *_KEYS)}")
    for key in _KEYS:
        if key not in pairs:
            raise ConfigError(f"missing mandatory key {key!r}")
    values = {field: _keyed(key, parse, pairs[key]) for key, (field, parse) in _KEYS.items()}
    dimension = values["dimension"]
    hamiltonian = None if ham_raw == "zero" else _keyed(
        "generator.hamiltonian", _parse_matrix, ham_raw, dimension, True)

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
            matrix = _keyed(f"{prefix}.matrix", _parse_matrix, params.pop("matrix"), dimension)
        elif "matrix" in params:
            raise ConfigError(
                f"unknown key '{prefix}.matrix' (only valid with operator = custom-matrix)"
            )
        elif len(NAMED_OPERATORS[operator]) != dimension:
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
    return ScenarioConfig(hamiltonian=hamiltonian, dissipators=tuple(dissipators), **values)


def _format_complex(value: complex) -> str:
    return repr(complex(value)).strip("()")


def _rate_lines(prefix: str, rate: RateModel) -> list[str]:
    model = _RATE_MODEL_NAMES[type(rate)]
    lines = [f"{prefix}.model = {model}"]
    for key, value in zip(_RATE_MODELS[model][1], rate._astuple()):
        text = " ".join(f"{t!r}:{g!r}" for t, g in value) if key == "knots" else repr(float(value))
        lines.append(f"{prefix}.{key} = {text}")
    return lines


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
        f"epsilon = {float(config.epsilon)!r}",
        f"grid.t_max = {float(config.t_max)!r}",
        f"grid.points = {int(config.points)}",
        f"mode = {config.mode}",
        f"outputs = {' '.join(config.outputs)}",
    ]
    return "\n".join(lines) + "\n"


def load_scenario(path: str) -> ScenarioConfig:
    """Parse the config file at path, whole: the command line applies each
    `override` to the result, so a file value one replaces is still checked.
    A file that cannot be opened (a directory, say) or is not UTF-8 text is
    a ConfigError naming the path, as is a config that does not parse. A
    leading UTF-8 byte-order mark is not part of the text."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    try:
        return parse_scenario(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def build_generator(config: ScenarioConfig) -> LindbladGenerator:
    """Materialize the Lindblad generator described by a config. One that
    `parse_scenario` returned passed every check the generator makes. A
    named operator is its `NAMED_OPERATORS` constant, which the generator
    copies, and the generator shares equal rate models itself."""
    d = config.dimension
    if config.hamiltonian is None:
        hamiltonian = np.zeros((d, d), dtype=complex)
    else:
        hamiltonian = np.array(config.hamiltonian, dtype=complex).reshape(d, d)
    dissipators = []
    for spec in config.dissipators:
        if spec.operator == "custom-matrix":
            op = np.array(spec.matrix, dtype=complex).reshape(d, d)
        else:
            op = NAMED_OPERATORS[spec.operator]
        dissipators.append((op, spec.rate))
    return LindbladGenerator(d, hamiltonian, tuple(dissipators))


def bundled_scenario_path(name: str) -> str:
    """Filesystem path of one of the scenarios shipped with the package."""
    if name not in BUNDLED_SCENARIOS:
        raise ConfigError(
            f"unknown bundled scenario {name!r}; available: {BUNDLED_SCENARIOS}"
        )
    return os.path.join(os.path.dirname(__file__), "scenarios", f"{name}.cfg")
