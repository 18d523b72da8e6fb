"""The launch-cycle math of the measured cost table: FC batches above
the scratchpad's resident cap price as back-to-back waves, and a
missing column is a structured error."""

import pytest

from repro.errors import ConfigError
from repro.serve.costmodel import ServiceCostTable


def _table(max_batch=4, fc_cap=4, degraded=False):
    cycles = {}
    for b in range(1, fc_cap + 1):
        cycles[("fc", b, False)] = 1000.0 + 100.0 * b
        if degraded:
            cycles[("fc", b, True)] = 1500.0 + 100.0 * b
    cycles[("bp", 1, False)] = 500.0
    if degraded:
        cycles[("bp", 1, True)] = 700.0
    return ServiceCostTable(cycles=cycles, model_bytes={"fc": 1, "bp": 1},
                            tile_bytes={"fc": 0, "bp": 4}, quick=True,
                            max_batch=max_batch, fc_cap=fc_cap)


def test_fc_batch_above_cap_prices_as_waves():
    t = _table(max_batch=11, fc_cap=4)
    # 11 = 2 full waves of 4 + a remainder wave of 3.
    expected = 2 * t.cycles[("fc", 4, False)] + t.cycles[("fc", 3, False)]
    assert t.launch_cycles("fc", 11) == expected
    # An exact multiple has no remainder wave.
    assert t.launch_cycles("fc", 8) == 2 * t.cycles[("fc", 4, False)]


def test_fc_batch_within_cap_is_direct_lookup():
    t = _table()
    assert t.launch_cycles("fc", 3) == t.cycles[("fc", 3, False)]


def test_unknown_kind_raises_config_error():
    t = _table()
    with pytest.raises(ConfigError, match="no healthy entry"):
        t.launch_cycles("conv", 1)


def test_missing_degraded_column_raises_config_error():
    t = _table(degraded=False)
    with pytest.raises(ConfigError, match="no degraded entry"):
        t.launch_cycles("fc", 2, degraded=True)


def test_degraded_column_used_when_present():
    t = _table(degraded=True)
    assert t.launch_cycles("fc", 2, degraded=True) == 1700.0
    assert t.launch_cycles("bp", 3, degraded=True) == 3 * 700.0


def test_batch_below_one_raises():
    with pytest.raises(ConfigError, match="must be >= 1"):
        _table().launch_cycles("fc", 0)
