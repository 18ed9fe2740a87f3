"""The module attributes that the benchmark's tracer (`bench/tracing.py`,
`SPANS` and `LEAVES`) replaces by name. If one is renamed or dropped, every
traced benchmark run fails with an AttributeError, so they are listed here
rather than read from `bench/`.
"""

import importlib

import numpy as np
import pytest

from choi_moments import choi
from choi_moments.lindblad import SIGMA_Z, LindbladGenerator
from choi_moments.rates import ExpCosRate

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


def test_the_kernel_evaluates_rates_through_the_module_global(monkeypatch):
    # The tracer counts `lindblad.rates_at.calls` by replacing choi.rates_at,
    # so the RK4 kernel must look the name up on every chunk it evaluates.
    # At d = 2 a chunk holds 1024 step maps.
    shapes = []
    rates_at = choi.rates_at

    def counted(gen, t):
        shapes.append(np.shape(t))
        return rates_at(gen, t)

    monkeypatch.setattr(choi, "rates_at", counted)
    choi._sweep.cache_clear()
    gen = LindbladGenerator(2, np.zeros((2, 2)), ((SIGMA_Z, ExpCosRate()),))
    choi.bridge_moments(gen, np.linspace(0.0, 1.0, 1030), 1e-3)
    assert shapes == [(1024, 3), (6, 3)]
    shapes.clear()
    choi.propagate_map(gen, 0.0, 1.5)
    assert shapes == [(1, 2049), (1, 953)]
