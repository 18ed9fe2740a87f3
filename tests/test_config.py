import itertools

import numpy as np
import pytest

from choi_moments.config import (
    ConfigError,
    DissipatorSpec,
    ScenarioConfig,
    build_generator,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
    render_scenario,
)
from choi_moments.rates import ConstantRate, ExpCosRate, LorentzianRate, TabulatedRate

MINIMAL = """
version = 1
name = minimal
generator.dimension = 2
dissipator.1.operator = sigma_z
dissipator.1.rate.model = constant
dissipator.1.rate.value = 1.0
epsilon = 0.001
grid.t_max = 5.0
grid.points = 100
mode = small-time
outputs = witness
"""


class TestBundledScenarios:
    def test_example1_matches_three_pauli_setup(self):
        config = load_scenario(bundled_scenario_path("example1"))
        assert config.dimension == 2
        assert config.hamiltonian is None
        assert [d.operator for d in config.dissipators] == ["sigma_x", "sigma_y", "sigma_z"]
        assert all(d.rate == ExpCosRate(k=1.0) for d in config.dissipators)
        assert config.epsilon == 0.001
        assert config.points == 2000
        assert config.mode == "small-time"

    def test_example2_matches_lorentzian_setup(self):
        config = load_scenario(bundled_scenario_path("example2"))
        assert [d.operator for d in config.dissipators] == ["sigma_z"]
        assert config.dissipators[0].rate == LorentzianRate(lam=1.5, gamma0=1.0, k=1.0)
        assert config.epsilon == 0.001

    def test_all_bundled_parse_and_build(self):
        for name in ("example1", "example2", "ohmic_compare", "markovian_control"):
            config = load_scenario(bundled_scenario_path(name))
            gen = build_generator(config)
            assert gen.dim == config.dimension

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigError, match="unknown bundled scenario"):
            bundled_scenario_path("examples")


class TestParseValidation:
    def test_minimal_parses(self):
        config = parse_scenario(MINIMAL)
        assert config.name == "minimal"
        assert config.dissipators == (
            DissipatorSpec(operator="sigma_z", rate=ConstantRate(1.0)),
        )

    def test_missing_version(self):
        text = "\n".join(l for l in MINIMAL.splitlines() if not l.startswith("version"))
        with pytest.raises(ConfigError, match="version"):
            parse_scenario(text)

    def test_wrong_version(self):
        with pytest.raises(ConfigError, match="unsupported config version"):
            parse_scenario(MINIMAL.replace("version = 1", "version = 9"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'grid.tmax'"):
            parse_scenario(MINIMAL + "grid.tmax = 3\n")

    def test_unknown_rate_parameter_rejected(self):
        with pytest.raises(ConfigError, match="dissipator.1.rate"):
            parse_scenario(MINIMAL + "dissipator.1.rate.width = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_scenario(MINIMAL + "name = other\n")

    def test_operator_dimension_mismatch(self):
        text = MINIMAL.replace("generator.dimension = 2", "generator.dimension = 3")
        with pytest.raises(ConfigError, match="qubit operator"):
            parse_scenario(text)

    def test_unknown_operator(self):
        with pytest.raises(ConfigError, match="unknown operator"):
            parse_scenario(MINIMAL.replace("sigma_z", "sigma_q"))

    def test_unknown_rate_model(self):
        with pytest.raises(ConfigError, match="unknown rate model"):
            parse_scenario(MINIMAL.replace("constant", "linear"))

    def test_bad_epsilon(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_scenario(MINIMAL.replace("epsilon = 0.001", "epsilon = 0"))

    def test_bad_points(self):
        with pytest.raises(ConfigError, match="grid.points"):
            parse_scenario(MINIMAL.replace("grid.points = 100", "grid.points = 1"))

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_scenario(MINIMAL.replace("small-time", "instant"))

    def test_bad_output(self):
        with pytest.raises(ConfigError, match="unknown output"):
            parse_scenario(MINIMAL.replace("outputs = witness", "outputs = plots"))

    @pytest.mark.parametrize("output", ["measure", "rhp"])
    def test_removed_output_names_compare(self, output):
        with pytest.raises(ConfigError, match=rf"unknown output '{output}'; expected from "
                                              r"\('witness', 'compare', 'divisibility'\)"):
            parse_scenario(MINIMAL.replace("outputs = witness", f"outputs = {output}"))

    def test_duplicate_output(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario(MINIMAL.replace("outputs = witness", "outputs = witness witness"))

    def test_dissipator_index_gap(self):
        text = MINIMAL + (
            "dissipator.3.operator = sigma_x\n"
            "dissipator.3.rate.model = constant\n"
            "dissipator.3.rate.value = 1.0\n"
        )
        with pytest.raises(ConfigError, match="1..K without gaps"):
            parse_scenario(text)

    def test_custom_matrix_entry_count(self):
        text = MINIMAL.replace(
            "dissipator.1.operator = sigma_z",
            "dissipator.1.operator = custom-matrix\ndissipator.1.matrix = 0 1 0",
        )
        with pytest.raises(ConfigError, match="entries"):
            parse_scenario(text)

    @pytest.mark.parametrize("key, lines", [
        ("generator.hamiltonian",
         "dissipator.1.operator = sigma_z\ngenerator.hamiltonian = nan 0 0 0"),
        ("generator.hamiltonian",
         "dissipator.1.operator = sigma_z\ngenerator.hamiltonian = 0 (1+infj) (1-infj) 0"),
        ("dissipator.1.matrix",
         "dissipator.1.operator = custom-matrix\ndissipator.1.matrix = 0 1 -inf 0"),
    ])
    def test_non_finite_matrix_entry_names_the_key(self, key, lines):
        text = MINIMAL.replace("dissipator.1.operator = sigma_z", lines)
        with pytest.raises(ConfigError, match=f"key '{key}': entries must be finite"):
            parse_scenario(text)

    def test_matrix_key_requires_custom_operator(self):
        with pytest.raises(ConfigError, match="custom-matrix"):
            parse_scenario(MINIMAL + "dissipator.1.matrix = 0 1 1 0\n")

    def test_hamiltonian_entry_count(self):
        with pytest.raises(ConfigError, match="generator.hamiltonian"):
            parse_scenario(MINIMAL + "generator.hamiltonian = 1 0\n")

    def test_non_hermitian_hamiltonian_rejected(self):
        with pytest.raises(ConfigError, match="Hermitian"):
            parse_scenario(MINIMAL + "generator.hamiltonian = 0 1 0 0\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_scenario(MINIMAL + "just some words\n")


class TestRoundTrip:
    def cases(self):
        base = parse_scenario(MINIMAL)
        custom = ScenarioConfig(
            name="custom",
            dimension=2,
            hamiltonian=(0.5 + 0j, 0.25 - 0.5j, 0.25 + 0.5j, -0.5 + 0j),
            dissipators=(
                DissipatorSpec(
                    operator="custom-matrix",
                    rate=TabulatedRate(knots=((0.0, 0.3), (1.0, -0.2), (2.5, 0.1))),
                    matrix=(0j, 1 + 0j, 0j, 0j),
                ),
                DissipatorSpec(operator="sigma_x", rate=ExpCosRate(k=2.25)),
            ),
            epsilon=1e-4,
            t_max=np.pi,
            points=321,
            mode="finite-interval",
            outputs=("witness", "divisibility"),
        )
        return [base, custom]

    def test_parse_render_round_trip(self):
        for config in self.cases():
            assert parse_scenario(render_scenario(config)) == config

    def test_round_trip_preserves_full_float_precision(self):
        config = self.cases()[1]
        again = parse_scenario(render_scenario(config))
        assert again.t_max == config.t_max  # exact, not approximate

    def test_replace_makes_a_new_config(self):
        config = parse_scenario(MINIMAL)
        changed = config._replace(points=37, epsilon=0.002)
        assert (changed.points, changed.epsilon) == (37, 0.002)
        assert (config.points, config.epsilon) == (100, 0.001)
        assert changed._replace(points=100, epsilon=0.001) == config
        assert parse_scenario(render_scenario(changed)) == changed
        with pytest.raises(ValueError, match="unexpected field"):
            config._replace(grid_points=3)


# Per rate model: its required keys with values, its optional keys with a
# non-default value, and the default an omitted optional key takes.
RATE_MODEL_KEYS = {
    "constant": ({"value": "-0.25"}, {}),
    "expcos": ({}, {"k": ("2.5", "1.0")}),
    "lorentzian": ({"lambda": "1.5", "gamma0": "1.0"}, {"k": ("2.0", "1.0")}),
    "ohmic": ({}, {"omega_c": ("2.0", "1.0"), "temperature": ("0.5", "0.0")}),
    "tabulated": ({"knots": "0.0:0.5 1.0:-0.25 3.0:1.0"}, {}),
}


def rate_document(model: str, params: dict[str, str]) -> str:
    text = MINIMAL.replace("dissipator.1.rate.value = 1.0\n", "")
    text = text.replace("rate.model = constant", f"rate.model = {model}")
    return text + "".join(f"dissipator.1.rate.{key} = {value}\n" for key, value in params.items())


def optional_choices():
    for model, (required, optional) in RATE_MODEL_KEYS.items():
        for given in itertools.product((False, True), repeat=len(optional)):
            chosen = dict(zip(optional, given))
            label = "".join(f"-{k}={'given' if g else 'omitted'}" for k, g in chosen.items())
            yield pytest.param(model, chosen, id=model + label)


class TestRateModelTable:
    """Every model parses and renders through one table; its messages stay put."""

    @pytest.mark.parametrize("model, given", optional_choices())
    def test_round_trip_with_optional_keys_omitted_or_given(self, model, given):
        required, optional = RATE_MODEL_KEYS[model]
        params = dict(required)
        params.update({key: optional[key][0] for key, on in given.items() if on})
        config = parse_scenario(rate_document(model, params))
        text = render_scenario(config)
        assert parse_scenario(text) == config
        assert render_scenario(parse_scenario(text)) == text
        for key, on in given.items():
            value = optional[key][0 if on else 1]
            assert f"dissipator.1.rate.{key} = {value}\n" in text

    @pytest.mark.parametrize("model", [m for m, (required, _) in RATE_MODEL_KEYS.items()
                                       if required])
    def test_missing_required_key(self, model):
        required, _ = RATE_MODEL_KEYS[model]
        for key in required:
            params = {k: v for k, v in required.items() if k != key}
            with pytest.raises(ConfigError) as info:
                parse_scenario(rate_document(model, params))
            assert str(info.value) == f"rate model {model!r} requires dissipator.1.rate.{key}"

    @pytest.mark.parametrize("model, known", [
        pytest.param("constant", "('value',)", id="constant"),
        pytest.param("expcos", "('k',)", id="expcos"),
        pytest.param("lorentzian", "('lambda', 'gamma0', 'k')", id="lorentzian"),
        pytest.param("ohmic", "('omega_c', 'temperature')", id="ohmic"),
        pytest.param("tabulated", "('knots',)", id="tabulated"),
    ])
    def test_unknown_key(self, model, known):
        params = dict(RATE_MODEL_KEYS[model][0], lam="1.5")
        with pytest.raises(ConfigError) as info:
            parse_scenario(rate_document(model, params))
        assert str(info.value) == (
            f"unknown key dissipator.1.rate.'lam' for rate model {model!r}; "
            f"expected parameters {known}"
        )


class TestBuildGenerator:
    def test_custom_matrix_materializes(self):
        config = self.config_with_custom()
        gen = build_generator(config)
        assert np.array_equal(gen.dissipators[0][0], np.array([[0, 1], [0, 0]]))

    def config_with_custom(self):
        text = MINIMAL.replace(
            "dissipator.1.operator = sigma_z",
            "dissipator.1.operator = custom-matrix\ndissipator.1.matrix = 0 1 0 0",
        )
        return parse_scenario(text)

    def test_hamiltonian_entries(self):
        config = parse_scenario(MINIMAL + "generator.hamiltonian = 1 0 0 -1\n")
        gen = build_generator(config)
        assert np.allclose(gen.hamiltonian, np.diag([1.0, -1.0]))

    def test_equal_rate_models_share_one_object(self):
        gen = build_generator(load_scenario(bundled_scenario_path("example1")))
        rates = [rate for _, rate in gen.dissipators]
        assert all(rate is rates[0] for rate in rates)
        text = MINIMAL + (
            "dissipator.2.operator = sigma_x\n"
            "dissipator.2.rate.model = expcos\ndissipator.2.rate.k = 2.0\n"
        )
        gen = build_generator(parse_scenario(text))
        assert gen.dissipators[0][1] is not gen.dissipators[1][1]

    def test_models_of_different_types_with_equal_fields_stay_apart(self):
        # ConstantRate(1.0) and ExpCosRate(k=1.0) both hold one field 1.0.
        text = MINIMAL + (
            "dissipator.2.operator = sigma_x\n"
            "dissipator.2.rate.model = expcos\ndissipator.2.rate.k = 1.0\n"
            "dissipator.3.operator = sigma_y\n"
            "dissipator.3.rate.model = constant\ndissipator.3.rate.value = 1.0\n"
        )
        rates = [rate for _, rate in build_generator(parse_scenario(text)).dissipators]
        assert rates == [ConstantRate(1.0), ExpCosRate(k=1.0), ConstantRate(1.0)]
        assert rates[0] is rates[2] and rates[1] is not rates[0]
