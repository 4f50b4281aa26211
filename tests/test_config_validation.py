"""Every numeric knob of the loop's configs rejects NaN, ±inf and -1.

A NaN compares False against everything, so a validator written as
``if x <= 0: raise`` lets it through and the run misbehaves silently
(``threshold_factor=nan`` never flags a worker).  Each table below feeds
every numeric field of one config the four values, which are invalid for
all of them, and expects a ``ValueError`` naming the field.
"""

import dataclasses
import math

import pytest

from repro.core import ControllerConfig
from repro.core.elasticity import AutoscalePolicy, RateControlConfig

BAD = (math.nan, math.inf, -math.inf, -1)


def _cases(cls):
    numeric = [
        f.name for f in dataclasses.fields(cls) if f.type in ("int", "float")
    ]
    return [(name, value) for name in numeric for value in BAD]


def _rejects(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{name: value}).validate()


@pytest.mark.parametrize("name, value", _cases(ControllerConfig))
def test_controller_config_rejects(name, value):
    _rejects(ControllerConfig, name, value)


@pytest.mark.parametrize("name, value", _cases(AutoscalePolicy))
def test_autoscale_policy_rejects(name, value):
    _rejects(AutoscalePolicy, name, value)


@pytest.mark.parametrize("name, value", _cases(RateControlConfig))
def test_rate_control_config_rejects(name, value):
    _rejects(RateControlConfig, name, value)


def test_tables_cover_every_numeric_field():
    assert len(_cases(ControllerConfig)) == 4 * 11
    assert len(_cases(AutoscalePolicy)) == 4 * 9
    assert len(_cases(RateControlConfig)) == 4 * 5


@pytest.mark.parametrize("cls", [ControllerConfig, AutoscalePolicy, RateControlConfig])
def test_defaults_pass(cls):
    cls().validate()
