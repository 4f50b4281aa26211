"""Every numeric knob of the loop's configs rejects NaN, ±inf and -1.

A NaN compares False against everything, so a validator written as
``if x <= 0: raise`` lets it through and the run misbehaves silently
(``threshold_factor=nan`` never flags a worker).  Each table below feeds
every numeric field of one config the four values, which are invalid for
all of them, and expects a ``ValueError`` naming the field.  The apps'
window and cost knobs get the same treatment in one last table.
"""

import dataclasses
import math

import pytest

from repro.apps.continuous_query import ContinuousQuery, QueryBolt
from repro.apps.url_count import WindowedCountBolt
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


#: "Component.field" -> (build with the field set to a value, bad values).
#: A NaN window would also split QueryBolt's shared windows, since
#: NaN != NaN as a dict key.  A threshold may be infinite, never NaN.
APP_FIELDS = {
    "ContinuousQuery.window_seconds": (
        lambda v: ContinuousQuery("q", window_seconds=v), BAD + (0,)
    ),
    "ContinuousQuery.threshold": (
        lambda v: ContinuousQuery("q", threshold=v), (math.nan,)
    ),
    "QueryBolt.cpu_cost": (
        lambda v: QueryBolt([ContinuousQuery("q")], cpu_cost=v), BAD + (0,)
    ),
    "WindowedCountBolt.window_seconds": (
        lambda v: WindowedCountBolt(window_seconds=v), BAD + (0,)
    ),
    "WindowedCountBolt.cpu_cost": (
        lambda v: WindowedCountBolt(cpu_cost=v), BAD + (0,)
    ),
}


@pytest.mark.parametrize(
    "target, value",
    [(target, v) for target, (_, bad) in APP_FIELDS.items() for v in bad],
)
def test_app_components_reject(target, value):
    build, _ = APP_FIELDS[target]
    with pytest.raises(ValueError, match=target.split(".")[1]):
        build(value)
