import itertools
import re

import numpy as np
import pytest

from choi_moments.config import (
    ConfigError,
    DissipatorSpec,
    ScenarioConfig,
    build_generator,
    bundled_scenario_path,
    load_scenario,
    override,
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


class TestLoadScenario:
    """A file that cannot be read as a config is a ConfigError naming its path."""

    def test_a_directory(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            load_scenario(str(tmp_path))
        assert str(info.value) == f"{tmp_path}: cannot read: Is a directory"

    def test_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bin.cfg"
        path.write_bytes(MINIMAL.encode() + b"# \xff\n")
        with pytest.raises(ConfigError) as info:
            load_scenario(str(path))
        assert str(info.value).startswith(
            f"{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position ")

    def test_a_leading_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        # It used to be read as part of the first line, here a comment, which
        # then was refused as not 'key = value'.
        original = bundled_scenario_path("example1")
        path = tmp_path / "bom.cfg"
        with open(original, "rb") as handle:
            path.write_bytes(b"\xef\xbb\xbf" + handle.read())
        assert load_scenario(str(path)) == load_scenario(original)

    def test_a_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            load_scenario(str(tmp_path / "absent.cfg"))
        assert str(info.value) == f"{tmp_path / 'absent.cfg'}: cannot read: No such file or directory"


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

    @pytest.mark.parametrize("key", ["name", "generator.dimension", "epsilon", "grid.t_max",
                                     "grid.points", "mode", "outputs"])
    def test_missing_key_rejected(self, key):
        text = "\n".join(l for l in MINIMAL.splitlines() if not l.startswith(f"{key} ="))
        with pytest.raises(ConfigError, match=rf"^missing mandatory key '{re.escape(key)}'$"):
            parse_scenario(text)

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

    @pytest.mark.parametrize("name", ["../escaped", "sub/dir/x", "/abs", "x/", ".", "..",
                                      "a\0b"])
    def test_a_name_that_is_not_a_file_name_is_refused(self, name):
        # The name is joined into the output paths, so a path would escape --out-dir.
        with pytest.raises(ConfigError, match=r"key 'name': expected a file name, not a path"):
            parse_scenario(MINIMAL.replace("name = minimal", f"name = {name}"))

    def test_an_empty_name_is_refused(self):
        with pytest.raises(ConfigError, match="empty key or value"):
            parse_scenario(MINIMAL.replace("name = minimal", "name ="))

    @pytest.mark.parametrize("name", ["example1", "markovian_control", "sweep12", "qudit_d8",
                                      "a.b", "...", "x y", "-x"])
    def test_file_names_are_accepted(self, name):
        assert parse_scenario(MINIMAL.replace("name = minimal", f"name = {name}")).name == name

    def test_dissipator_index_gap(self):
        text = MINIMAL + (
            "dissipator.3.operator = sigma_x\n"
            "dissipator.3.rate.model = constant\n"
            "dissipator.3.rate.value = 1.0\n"
        )
        with pytest.raises(ConfigError, match="1..K without gaps"):
            parse_scenario(text)

    @pytest.mark.parametrize("index", ["01", "00", "\u00b2", "\uff11", "\u0663"])
    def test_a_dissipator_index_spelled_another_way_is_refused(self, index):
        # A leading zero would name dissipator 1 a second time, and a
        # non-ASCII digit (superscript two, fullwidth one, Arabic-Indic
        # three) is a digit to str.isdigit that int() may refuse.
        key = f"dissipator.{index}.operator"
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_scenario(MINIMAL + f"{key} = sigma_x\n")

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

    @pytest.mark.parametrize("old, new, message", [
        ("dissipator.1.operator = sigma_z",
         "dissipator.1.operator = custom-matrix\ndissipator.1.matrix = 0 1 x 0",
         "key 'dissipator.1.matrix': expected complex entries like '1', '0.5j' or '(1+2j)', "
         "got token 'x'"),
        ("dissipator.1.rate.model = constant\ndissipator.1.rate.value = 1.0",
         "dissipator.1.rate.model = tabulated\ndissipator.1.rate.knots = 0.0:1.0 9.0",
         "key 'dissipator.1.rate.knots': expected 't:gamma' pairs, got '9.0'"),
        ("dissipator.1.operator = sigma_z\n", "",
         "missing mandatory key 'dissipator.1.operator'"),
        ("dissipator.1.operator = sigma_z", "dissipator.1.operator = custom-matrix",
         "operator 'custom-matrix' requires 'dissipator.1.matrix'"),
        ("dissipator.1.rate.model = constant\n", "",
         "missing mandatory key 'dissipator.1.rate.model'"),
        ("outputs = witness", "outputs = witness\ndissipator.1.strength = 2",
         "unknown key 'dissipator.1.strength'"),
    ], ids=["bad complex token", "knot without a colon", "no operator",
            "custom-matrix without matrix", "no rate model", "unknown dissipator key"])
    def test_a_refused_dissipator_value_names_its_key(self, old, new, message):
        assert old in MINIMAL
        with pytest.raises(ConfigError) as info:
            parse_scenario(MINIMAL.replace(old, new))
        assert str(info.value) == message


# Python's int, float and complex also read digit separators and non-ASCII
# digits; a config has one spelling, the one render_scenario writes.
TABULATED = MINIMAL.replace(
    "dissipator.1.rate.model = constant\ndissipator.1.rate.value = 1.0",
    "dissipator.1.rate.model = tabulated\ndissipator.1.rate.knots = 0.0:1.0 9.0:1.0")
CUSTOM = MINIMAL.replace("dissipator.1.operator = sigma_z",
                         "dissipator.1.operator = custom-matrix\ndissipator.1.matrix = 0 1 0 0")


class TestNumberSpelling:
    @pytest.mark.parametrize("text, old, new, key", [
        (MINIMAL, "grid.points = 100", "grid.points = 1_000", "grid.points"),
        (MINIMAL, "grid.points = 100", "grid.points = \uff12\uff10\uff10\uff10", "grid.points"),
        (MINIMAL, "generator.dimension = 2", "generator.dimension = \u0662",
         "generator.dimension"),
        (MINIMAL, "version = 1", "version = \uff11", "version"),
        (MINIMAL, "grid.t_max = 5.0", "grid.t_max = 5_0.0", "grid.t_max"),
        (MINIMAL, "epsilon = 0.001", "epsilon = 0.00\uff11", "epsilon"),
        (MINIMAL, "rate.value = 1.0", "rate.value = \uff11.\uff15", "dissipator.1.rate.value"),
        (TABULATED, "9.0:1.0", "9.0:1_0.0", "dissipator.1.rate.knots"),
        (TABULATED, "9.0:1.0", "\uff19.0:1.0", "dissipator.1.rate.knots"),
        (CUSTOM, "matrix = 0 1 0 0", "matrix = 0 1_0j 0 0", "dissipator.1.matrix"),
        (MINIMAL, "outputs = witness", "outputs = witness\ngenerator.hamiltonian = \uff11 0 0 -1",
         "generator.hamiltonian"),
    ], ids=["int-underscore", "int-fullwidth", "int-arabic-indic", "version-fullwidth",
            "float-underscore", "float-fullwidth", "rate-fullwidth", "knot-underscore",
            "knot-fullwidth", "complex-underscore", "complex-fullwidth"])
    def test_another_spelling_is_refused_naming_the_key(self, text, old, new, key):
        assert old in text
        with pytest.raises(ConfigError, match=rf"^key '{key}': numbers are written in ASCII "
                                              r"digits with no '_', got "):
            parse_scenario(text.replace(old, new))

    def test_signs_exponents_and_parenthesized_complex_still_parse(self):
        text = MINIMAL.replace("epsilon = 0.001", "epsilon = 1e-3").replace(
            "rate.value = 1.0", "rate.value = -1")
        config = parse_scenario(text + "generator.hamiltonian = 1 (1+2j) (1-2j) -1\n")
        assert config.epsilon == 1e-3
        assert config.dissipators[0].rate == ConstantRate(-1.0)
        assert config.hamiltonian == (1, 1 + 2j, 1 - 2j, -1)
        knots = parse_scenario(TABULATED.replace("0.0:1.0 9.0:1.0", "0:-1 1e1:2.5e-1"))
        assert knots.dissipators[0].rate == TabulatedRate(knots=((0.0, -1.0), (10.0, 0.25)))


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
        # Numbers made in code with numpy are written as plain numbers.
        numpy_scalars = base._replace(
            dissipators=(DissipatorSpec("sigma_z", ExpCosRate(k=np.float64(2.0))),),
            epsilon=np.float64(1e-3), t_max=np.float64(3.0), points=np.int64(50))
        return [base, custom, numpy_scalars]

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


class TestOverride:
    """An override of a top-level key reads its text by the rule a document's
    value of that key is read by."""

    @pytest.mark.parametrize("key, raw", [
        ("name", "other"), ("generator.dimension", "2"), ("epsilon", "2e-3"),
        ("grid.t_max", "3.5"), ("grid.points", "+37"), ("mode", "finite-interval"),
        ("outputs", "compare witness")])
    def test_equals_the_document_with_that_value(self, key, raw):
        pattern = rf"^{re.escape(key)} = .*$"
        assert re.search(pattern, MINIMAL, flags=re.M)
        want = parse_scenario(re.sub(pattern, f"{key} = {raw}", MINIMAL, flags=re.M))
        assert override(parse_scenario(MINIMAL), key, raw) == want

    @pytest.mark.parametrize("key, raw, message", [
        ("generator.dimension", "1", "value must be >= 2, got 1"),
        ("grid.points", "1_000", "numbers are written in ASCII digits with no '_', got '1_000'"),
        ("grid.t_max", "-inf", "value must be finite, got '-inf'"),
        ("epsilon", "0", "value must be positive and finite, got 0.0"),
        ("mode", "instant", "expected one of ('small-time', 'finite-interval'), got 'instant'"),
        ("outputs", "measure", "unknown output 'measure'"),
        ("name", "../x", "expected a file name, not a path, got '../x'")])
    def test_a_refused_value_is_the_documents_error(self, key, raw, message):
        with pytest.raises(ConfigError) as info:
            override(parse_scenario(MINIMAL), key, raw)
        assert str(info.value).startswith(f"key {key!r}: {message}")
        with pytest.raises(ConfigError) as in_document:
            parse_scenario(re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {raw}", MINIMAL,
                                  flags=re.M))
        assert str(in_document.value) == str(info.value)

    @pytest.mark.parametrize("key", ["version", "generator.hamiltonian", "grid.tmax", "points"])
    def test_only_a_key_with_a_rule_of_its_own_has_an_override(self, key):
        # version is checked before any other key, and the Hamiltonian's
        # length depends on the dimension.
        with pytest.raises(KeyError):
            override(parse_scenario(MINIMAL), key, "1")


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
