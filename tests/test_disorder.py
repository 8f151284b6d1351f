import numpy as np
import pytest

from mblchain.disorder import (DisorderSpec, SeedPlan, constant_field,
                               sample_field)
from mblchain.errors import ConfigurationError


def test_uniform_support_and_scaling():
    spec = DisorderSpec(kind="uniform", support_min=0.0, support_max=1.0,
                        coupling=4.0)
    field = sample_field(spec, 5000, SeedPlan(7), 0)
    assert field.min() >= 0.0
    assert field.max() <= 4.0
    assert abs(field.mean() - 2.0) < 0.1  # coupling * (0 + 1) / 2


def test_determinism_and_stream_independence():
    spec = DisorderSpec()
    plan = SeedPlan(42)
    a = sample_field(spec, 64, plan, 3)
    b = sample_field(spec, 64, plan, 3)
    c = sample_field(spec, 64, plan, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # order independence: index streams do not share state
    later = sample_field(spec, 64, plan, 3)
    assert np.array_equal(a, later)


def test_tagged_substreams_differ():
    plan = SeedPlan(42)
    assert plan.stream_seed(1, tag=0) != plan.stream_seed(1, tag=1)
    g = plan.generator(1, tag=1)
    h = plan.generator(1, tag=1)
    assert g.integers(0, 1 << 30) == h.integers(0, 1 << 30)


def test_constant_field():
    field = constant_field(0.7, 4)
    assert np.array_equal(field, np.full(4, 0.7))
    spec = DisorderSpec(kind="constant", support_min=0.3, support_max=0.3)
    field = sample_field(spec, 6, SeedPlan(1), 0)
    assert np.array_equal(field, np.full(6, 0.3))
    # a plain float64 vector, also from integer settings
    spec = DisorderSpec(kind="constant", support_min=2, support_max=2, coupling=1)
    field = sample_field(spec, 3, SeedPlan(1), 0)
    assert field.dtype == np.float64 and np.array_equal(field, [2.0, 2.0, 2.0])


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        DisorderSpec(kind="weird")
    with pytest.raises(ConfigurationError):
        DisorderSpec(support_min=2.0, support_max=1.0)
    with pytest.raises(ConfigurationError):
        DisorderSpec(coupling=-1.0)
    with pytest.raises(ConfigurationError):
        DisorderSpec(support_min=-1.0).require_nonnegative()
    with pytest.raises(ConfigurationError):
        SeedPlan(5).stream_seed(-1)
    with pytest.raises(ConfigurationError, match="seed -1 is negative"):
        SeedPlan(-1)
    # a scaled support past the range of a double, or a support wider than it
    for kwargs in (dict(coupling=1e308, support_max=1e308),
                   dict(coupling=2.0, support_min=-1e308),
                   dict(support_min=-1e308, support_max=1e308),
                   dict(kind="constant", support_min=1e200, support_max=1e200,
                        coupling=1e200)):
        with pytest.raises(ConfigurationError, match="overflows"):
            DisorderSpec(**kwargs)
    assert DisorderSpec(support_min=-1e307, support_max=1e307, coupling=10.0)
