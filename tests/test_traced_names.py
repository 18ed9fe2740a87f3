"""The module attributes that the benchmark's tracer (`bench/tracing.py`,
`SPANS` and `LEAVES`) replaces by name. If one is renamed or dropped, every
traced benchmark run fails with an AttributeError, so they are listed here
rather than read from `bench/`.
"""

import importlib

import pytest

TRACED = (
    ("choi_moments.config", "load_scenario"),
    ("choi_moments.config", "build_generator"),
    ("choi_moments.cli", "load_scenario"),
    ("choi_moments.cli", "build_generator"),
    ("choi_moments.cli", "run_scenario"),
    ("choi_moments.cli", "witness_series"),
    ("choi_moments.cli", "measure_report"),
    ("choi_moments.cli", "cp_divisibility_scan"),
    ("choi_moments.detect", "witness_series"),
    ("choi_moments.detect", "measure_report"),
    ("choi_moments.detect", "cp_divisibility_scan"),
    ("choi_moments.lindblad", "rate_eval"),
    ("choi_moments.choi", "rates_at"),
)


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_attribute_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name))
