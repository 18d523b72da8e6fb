"""The serving fleet, split into data / dispatch-policy / event-loop
halves:

* :mod:`repro.serve.fleet.records` — config and run records
  (:class:`ServeConfig`, :class:`ChipState`, :class:`RequestRecord`,
  :class:`BatchRecord`, :class:`FleetResult`) and the checks on a trace;
  the :class:`RecordTable` and :class:`EntryTable` a run packs them
  into are :mod:`repro.serve.rows`'.
* :mod:`repro.serve.fleet.dispatch` — scheduling primitives,
  decision-tree contexts, launch math, and kill/retry/hedge resolution.
* :mod:`repro.serve.fleet.core` — :class:`FleetSimulator`, the
  deterministic event loop that drives them.

The public surface is unchanged from the original single-module
``repro.serve.fleet``: import everything from here.
"""

from repro.serve.fleet.core import (
    OUTCOMES,
    POLICIES,
    BatchRecord,
    ChipState,
    EntryTable,
    FleetResult,
    FleetSimulator,
    RecordTable,
    RequestRecord,
    ServeConfig,
)

__all__ = [
    "OUTCOMES", "POLICIES", "BatchRecord", "ChipState", "EntryTable",
    "FleetResult", "FleetSimulator", "RecordTable", "RequestRecord",
    "ServeConfig",
]
