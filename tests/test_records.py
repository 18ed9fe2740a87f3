"""The package's result and config records: immutable NamedTuples.

Every `@dataclass` class costs each process that imports the package the
generation and compilation of its methods; a NamedTuple costs a fraction of
that. The rate models validate on construction and are slotted classes
(`rates.RateModel`); `LindbladGenerator`, whose cached tables need an
instance __dict__, is a plain class that refuses assignment.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import choi_moments
from choi_moments.cli import RunReport, run_scenario
from choi_moments.config import (
    DissipatorSpec,
    ScenarioConfig,
    bundled_scenario_path,
    load_scenario,
)
from choi_moments.detect import (
    DivisibilityReport,
    MeasureReport,
    WitnessSeries,
    cp_divisibility_scan,
    measure_report,
    witness_series,
)
from choi_moments.lindblad import LindbladGenerator
from choi_moments.rates import ConstantRate, ExpCosRate
from helpers import dephasing_generator

RECORDS = (WitnessSeries, MeasureReport, DivisibilityReport, RunReport,
           DissipatorSpec, ScenarioConfig)


def package_modules():
    # __main__ runs the CLI on import.
    return [importlib.import_module(f"choi_moments.{info.name}")
            for info in pkgutil.iter_modules(choi_moments.__path__)
            if info.name != "__main__"]


def test_no_package_class_is_a_dataclass():
    classes = {obj for module in package_modules() for obj in vars(module).values()
               if inspect.isclass(obj) and obj.__module__.startswith("choi_moments.")}
    assert LindbladGenerator in classes
    assert not {cls for cls in classes if dataclasses.is_dataclass(cls)}


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_named_tuples(record):
    assert issubclass(record, tuple) and record._fields
    assert not dataclasses.is_dataclass(record)


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    gen = dephasing_generator(ExpCosRate(k=1.0))
    grid = np.linspace(0.0, 1.0, 11)
    config = load_scenario(bundled_scenario_path("markovian_control"))
    out = str(tmp_path_factory.mktemp("out"))
    return [witness_series(gen, grid, 1e-3),
            measure_report(gen, 6.0, 61), cp_divisibility_scan(gen, grid, 1e-3),
            run_scenario(config._replace(points=20), out),
            config.dissipators[0], config]


def test_every_record_has_an_instance(instances):
    assert [type(record) for record in instances] == list(RECORDS)


@pytest.mark.parametrize("index", range(len(RECORDS)), ids=[r.__name__ for r in RECORDS])
def test_fields_cannot_be_assigned(instances, index):
    record = instances[index]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_properties_equality_and_repr():
    report = MeasureReport(0.5, 1.0, np.zeros(2), np.zeros(2), np.zeros(2))
    assert report.ratio == 2.0
    assert np.isnan(report._replace(moment_measure=0.0).ratio)
    assert DivisibilityReport(np.zeros(2), 0.1, np.zeros(2), "CP-divisible").is_divisible
    series = WitnessSeries(np.zeros(2), 1e-3, "small-time", np.zeros(2), np.zeros(2),
                           np.zeros(2), np.zeros((2, 1)), ((0.0, 1.0),))
    assert series.is_non_markovian and not series._replace(violations=()).is_non_markovian
    spec = DissipatorSpec("sigma_z", ConstantRate(1.0))
    assert spec.matrix is None
    assert spec == DissipatorSpec("sigma_z", ConstantRate(1.0))
    assert spec != DissipatorSpec("sigma_x", ConstantRate(1.0))
    assert repr(spec) == ("DissipatorSpec(operator='sigma_z', rate=ConstantRate(value=1.0), "
                          "matrix=None)")
