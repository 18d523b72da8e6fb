"""Config knobs: each field declares its kind and bound, and one checker
refuses a value outside it with a dotted message."""

import json
import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.faults.config import FaultConfig
from repro.memory.timing import FIGURE5_CONFIGS, DramTiming, MemoryConfig
from repro.noc.torus import NoCConfig
from repro.pe.config import PEConfig
from repro.serve.autoscale import AutoscaleConfig
from repro.serve.failures import FailureConfig
from repro.serve.fleet import ServeConfig
from repro.serve.resilience import ResilienceConfig
from repro.serve.workload import WorkloadConfig
from repro.system.config import VIPConfig


@pytest.mark.parametrize("config, kwargs, message", [
    # Each was accepted before the fields declared their bounds; a fleet
    # with max_retries=2.5 or a failure seed of 2.5 simulated silently.
    (ServeConfig, dict(max_wait_cycles=0.0),
     "config.max_wait_cycles: must be > 0, got 0.0"),
    (FailureConfig, dict(seed=2.5), "failures.seed: must be an integer, "
     "got 2.5"),
    (FailureConfig, dict(seed=math.nan), "failures.seed: must be an "
     "integer, got nan"),
    (FailureConfig, dict(seed=math.inf), "failures.seed: must be an "
     "integer, got inf"),
    (ResilienceConfig, dict(max_retries=2.5), "resilience.max_retries: "
     "must be a nonnegative integer, got 2.5"),
    (ResilienceConfig, dict(max_retries=math.nan), "resilience.max_retries:"
     " must be a nonnegative integer, got nan"),
    (ResilienceConfig, dict(breaker_failure_threshold=1.5),
     "resilience.breaker_failure_threshold: must be a positive integer, "
     "got 1.5"),
    (ResilienceConfig, dict(breaker_failure_threshold=math.inf),
     "resilience.breaker_failure_threshold: must be a positive integer, "
     "got inf"),
    (AutoscaleConfig, dict(min_chips=1.5), "autoscale.min_chips: must be a "
     "positive integer, got 1.5"),
    (AutoscaleConfig, dict(max_chips=8.5), "autoscale.max_chips: must be a "
     "positive integer, got 8.5"),
    (AutoscaleConfig, dict(max_chips=math.inf), "autoscale.max_chips: must "
     "be a positive integer, got inf"),
    (AutoscaleConfig, dict(max_step=math.nan), "autoscale.max_step: must "
     "be a positive integer, got nan"),
    # The fault and simulator configs.
    (FaultConfig, dict(ecc_correction_cycles=math.nan),
     "faults.ecc_correction_cycles: must be a finite number, got nan"),
    (FaultConfig, dict(retention_interval_cycles=math.nan),
     "faults.retention_interval_cycles: must be a finite number, got nan"),
    (FaultConfig, dict(noc_max_retries=2.5), "faults.noc_max_retries: must "
     "be a nonnegative integer, got 2.5"),
    (PEConfig, dict(clock_ghz=math.nan), "pe.clock_ghz: must be a finite "
     "number, got nan"),
    (PEConfig, dict(arc_entries=2.5), "pe.arc_entries: must be a positive "
     "integer, got 2.5"),
    (NoCConfig, dict(hop_cycles=-3), "noc.hop_cycles: must be a "
     "nonnegative integer, got -3"),
    (DramTiming, dict(tCL=-5.0), "memory.timing.tCL: must be >= 0, "
     "got -5.0"),
    # 80.0 PEs; a list mix raised a raw TypeError.
    (VIPConfig, dict(pes_per_vault=2.5), "system.pes_per_vault: must be a "
     "positive integer, got 2.5"),
    (WorkloadConfig, dict(mix=["bp"]), "workload.mix: expected a string, "
     "got ['bp']"),
    # Values refused before, now with the dotted field.
    (FaultConfig, dict(dram_read_flip_rate=1.5),
     "faults.dram_read_flip_rate: must be <= 1, got 1.5"),
    (FaultConfig, dict(ecc_double_bit="explode"),
     "faults.ecc_double_bit: unknown value 'explode'; choose from "
     "('raise', 'count')"),
    (PEConfig, dict(clock_ghz=0.0), "pe.clock_ghz: must be > 0, got 0.0"),
    (NoCConfig, dict(rows=0), "noc.rows: must be a positive integer, got 0"),
    (MemoryConfig, dict(vaults=0), "memory.vaults: must be a positive "
     "integer, got 0"),
    (DramTiming, dict(tCK=0.0), "memory.timing.tCK: must be > 0, got 0.0"),
    # The checks that stay hand-written take the same form.
    (PEConfig, dict(datapath_bits=12), "pe.datapath_bits: must be a whole "
     "number of bytes, got 12"),
    (MemoryConfig, dict(vaults=24), "memory.vaults: must be a power of two, "
     "got 24"),
    (MemoryConfig, dict(column_bytes=512), "memory.column_bytes: must be <= "
     "row_bytes (256), got 512"),
])
def test_a_value_outside_its_declaration_is_refused(config, kwargs,
                                                    message):
    with pytest.raises(ConfigError) as info:
        config(**kwargs)
    assert str(info.value) == message


def test_every_existing_simulator_config_is_accepted():
    for make in FIGURE5_CONFIGS.values():
        assert VIPConfig(memory=make()).memory == make()
    assert FaultConfig(seed=7, dram_read_flip_rate=1e-6, ecc=True,
                       ecc_correction_cycles=0.0, ecc_double_bit="count")


def test_a_count_is_kept_as_the_int_it_holds():
    config = PEConfig(arc_entries=np.int64(4), datapath_bits=np.uint8(32))
    assert (config.arc_entries, config.datapath_bits) == (4, 32)
    assert type(config.arc_entries) is int and type(config.datapath_bits) \
        is int
    assert type(FailureConfig(seed=np.int32(-3)).seed) is int


@pytest.mark.parametrize("config, kwargs, message", [
    # Each was accepted before: a float chip id matched no chip, so a
    # fail-stop config read as enabled and never failed one.
    (FailureConfig, dict(fail_stop_chips=(0.5,)),
     "failures.fail_stop_chips: expected integer chip ids, got (0.5,)"),
    (FailureConfig, dict(fail_slow_chips=(0, 1.0)),
     "failures.fail_slow_chips: expected integer chip ids, got (0, 1.0)"),
    (FailureConfig, dict(transient_chips=(True,)),
     "failures.transient_chips: expected integer chip ids, got (True,)"),
    (ServeConfig, dict(chips=2, degraded_chips=(0.5,)),
     "config.degraded_chips: expected integer chip ids, got (0.5,)"),
    (ServeConfig, dict(chips=2, degraded_chips=(True,)),
     "config.degraded_chips: expected integer chip ids, got (True,)"),
    (FailureConfig, dict(domains=((True,),)),
     "failures.domains[0]: expected integer chip ids, got (True,)"),
    (FailureConfig, dict(domains=((0, 1), (2, 3.0))),
     "failures.domains[1]: expected integer chip ids, got (2, 3.0)"),
])
def test_a_chip_id_that_is_not_an_integer_is_refused(config, kwargs,
                                                     message):
    with pytest.raises(ConfigError) as info:
        config(**kwargs)
    assert str(info.value) == message


def test_a_chip_id_is_kept_as_the_int_it_holds():
    failures = FailureConfig(fail_stop_chips=(np.int64(1),),
                             domains=((np.int32(0), 1),))
    config = ServeConfig(chips=2, degraded_chips=[np.uint8(1)],
                         failures=failures)
    assert config.degraded_chips == (1,) and failures.domains == ((0, 1),)
    assert type(config.degraded_chips[0]) is int
    assert type(failures.fail_stop_chips[0]) is int
    assert type(failures.domains[0][0]) is int
    json.dumps(failures.as_dict())
