"""Latency/throughput rollups over per-request serving records.

All math is defined here, test-covered on hand-built latency sets, and
shared by the report builder and the bench:

* :func:`percentile` — linear interpolation between closest ranks (the
  numpy ``linear`` method, implemented locally so its edge cases — n=1,
  p beyond the rank range — are pinned by unit tests rather than
  inherited).  p99.9 interpolates like any other rank: with n < 1001
  samples it leans on the max order statistic, which the unit tests pin
  explicitly.  :func:`percentile_sorted` reads a rank of a list that is
  already sorted, so a rollup sorts its latencies once.
* Throughput = served requests / makespan, converted to requests per
  *service second* through the configured clock (cycles / 1.25e9).
  **Goodput** counts only requests served *within the SLO* — the two
  split exactly when failures push latencies past the deadline.
* **Availability** is the fraction of all admitted requests (served,
  shed, and expired alike) that completed within the SLO — the
  user-facing "did my request come back in time" number that
  fault-injection sweeps plot against fault rate.
* SLO-violation rate is the fraction of **served** requests whose
  end-to-end latency exceeds the SLO; shed and expired requests count
  separately (they are availability failures, not latency ones).
  With zero served requests the violation rate is reported as 0.0 and
  every latency percentile as ``None``.
* Wasted cycles split by cause: ``retry_wasted_cycles`` were burned by
  launches a fail-stop killed; ``hedge_wasted_cycles`` by hedge races
  (the loser's burned span, plus hedge launches that were themselves
  killed).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.errors import ConfigError
from repro.serve.fleet.records import (
    BatchRecord,
    EntryTable,
    RecordTable,
    RequestRecord,
)
from repro.serve.rows import CHUNK_ROWS

#: Percentiles every report carries.
REPORT_PERCENTILES = (50.0, 95.0, 99.0, 99.9)


def percentile(values, p: float) -> float:
    """The ``p``-th percentile of ``values``, linear interpolation.

    ``rank = p/100 * (n-1)``; the result interpolates between the two
    closest order statistics.  n=1 returns the single value for every
    ``p``; an empty input is a :class:`ConfigError`.
    """
    return percentile_sorted(sorted(values), p)


def percentile_sorted(data, p: float) -> float:
    """:func:`percentile` of ``data``, a list or 1-D array already in
    ascending order: callers that read several ranks of one set sort it
    once.  The ranks are read as builtin floats."""
    if not 0.0 <= p <= 100.0:
        raise ConfigError(f"percentile must be in [0, 100], got {p}")
    if not len(data):
        raise ConfigError("percentile of an empty set")
    rank = p / 100.0 * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return float(data[lo]) * (1.0 - frac) + float(data[hi]) * frac


def _ordered_sum(values: np.ndarray):
    """``sum`` over ``values`` as builtin floats, in order: the sequence
    a list of them would give, so Python 3.12's compensated ``sum``
    rounds the same way; converted a chunk at a time."""
    return sum(chain.from_iterable(
        values[i:i + CHUNK_ROWS].tolist()
        for i in range(0, len(values), CHUNK_ROWS)))


def served_chunks(served: np.ndarray):
    """The positions of the records ``served`` (a mask over a record
    table) marks, one chunk of :data:`~repro.serve.rows.CHUNK_ROWS`
    records at a time."""
    for start in range(0, len(served), CHUNK_ROWS):
        yield start + np.flatnonzero(served[start:start + CHUNK_ROWS])


def _mean_gap(records: RecordTable, served: np.ndarray, n: int,
              later: str, earlier: str) -> float:
    """The mean of ``later - earlier`` over the ``n`` served records:
    ``sum`` over the differences as builtin floats in record order,
    gathered a chunk at a time."""
    if not n:
        return 0.0
    return sum(chain.from_iterable(
        (records.column(later, rows) - records.column(earlier, rows))
        .tolist() for rows in served_chunks(served))) / n


def served_latencies(records: RecordTable, served: np.ndarray):
    """``finish - arrival`` of the records ``served`` marks, one array
    per chunk of records."""
    for rows in served_chunks(served):
        yield records.column("finish", rows) - records.column("arrival", rows)


def latency_column(chunks, n: int) -> np.ndarray:
    """The ``n`` latencies ``chunks`` yields a chunk at a time (arrays,
    in record order), in one array: a rollup holds this column and one
    chunk, not the columns it is gathered from.  Callers sort it in
    place once they have dropped what they gathered it with.

    The default (unstable) sort gives the array a stable one would, and
    needs no merge buffer: a latency is ``finish - arrival`` with finish
    at or after arrival, so it is never NaN nor -0.0, and equal float64
    values are then the same bits."""
    latencies = np.empty(n)
    at = 0
    for chunk in chunks:
        latencies[at:at + len(chunk)] = chunk
        at += len(chunk)
    return latencies


@dataclass(frozen=True)
class ServeMetrics:
    """The serving rollup for one simulated run."""

    total: int
    served: int
    shed: int
    shed_rate: float
    #: Requests dropped after admission (deadline passed mid-retry or
    #: the retry budget ran out) — zero without failures.
    expired: int
    makespan_cycles: float
    throughput_rps: float
    #: Requests served within the SLO, per service second.
    goodput_rps: float
    #: Fraction of all admitted requests served within the SLO.
    availability: float
    #: latency percentiles in cycles; ``None`` when nothing was served.
    latency_p50: float | None
    latency_p95: float | None
    latency_p99: float | None
    latency_p999: float | None
    mean_batch_wait: float
    mean_queue_wait: float
    mean_service: float
    mean_batch_size: float
    slo_cycles: float
    slo_violations: int
    slo_violation_rate: float
    #: Launch attempts a fail-stop killed / hedge launches raced.
    retries: int
    hedges: int
    #: Chip cycles burned by killed attempts / by hedge races.
    retry_wasted_cycles: float
    hedge_wasted_cycles: float
    clock_ghz: float

    def cycles_to_ms(self, cycles: float | None) -> float | None:
        if cycles is None:
            return None
        return cycles / (self.clock_ghz * 1e6)

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "served": self.served,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "expired": self.expired,
            "makespan_cycles": self.makespan_cycles,
            "makespan_ms": self.cycles_to_ms(self.makespan_cycles),
            "throughput_rps": self.throughput_rps,
            "goodput_rps": self.goodput_rps,
            "availability": self.availability,
            "latency_cycles": {
                "p50": self.latency_p50,
                "p95": self.latency_p95,
                "p99": self.latency_p99,
                "p999": self.latency_p999,
            },
            "latency_ms": {
                "p50": self.cycles_to_ms(self.latency_p50),
                "p95": self.cycles_to_ms(self.latency_p95),
                "p99": self.cycles_to_ms(self.latency_p99),
                "p999": self.cycles_to_ms(self.latency_p999),
            },
            "mean_batch_wait_cycles": self.mean_batch_wait,
            "mean_queue_wait_cycles": self.mean_queue_wait,
            "mean_service_cycles": self.mean_service,
            "mean_batch_size": self.mean_batch_size,
            "slo_cycles": self.slo_cycles,
            "slo_ms": self.cycles_to_ms(self.slo_cycles),
            "slo_violations": self.slo_violations,
            "slo_violation_rate": self.slo_violation_rate,
            "retries": self.retries,
            "hedges": self.hedges,
            "retry_wasted_cycles": self.retry_wasted_cycles,
            "hedge_wasted_cycles": self.hedge_wasted_cycles,
        }


def compute_metrics(records, batches, makespan_cycles: float,
                    slo_cycles: float, clock_ghz: float = 1.25) -> ServeMetrics:
    """Roll per-request records and batch records into a ServeMetrics.

    ``records`` and ``batches`` are record tables (a list or any iterable
    of records is packed into one first) and the rollup reads their
    fields one at a time, a served record's launch fields through its
    launch row: it never copies a table.  It gathers the served records'
    fields a chunk at a time, so besides a few masks it holds one
    latency column and one chunk.  A request's outcome is ``shed`` when
    its shed flag is set, else its outcome field.  Each mean and waste
    total is Python's ``sum`` over builtin floats in record order, the
    values a per-record loop would add, so every float is unchanged;
    every field is a builtin ``int``, ``float`` or None.
    """
    if slo_cycles <= 0:
        raise ConfigError("slo_cycles must be positive")
    if not isinstance(records, EntryTable):
        records = EntryTable(RequestRecord, records)
    if not isinstance(batches, RecordTable):
        batches = RecordTable(BatchRecord, batches)
    total = len(records)
    shed_flag = records.column("shed")
    served = records.matches("outcome", "served") & ~shed_flag
    shed = int((records.matches("outcome", "shed") | shed_flag).sum())
    expired = int((records.matches("outcome", "expired") & ~shed_flag).sum())
    del shed_flag
    n = int(served.sum())
    mean_batch_wait = _mean_gap(records, served, n, "dispatch", "arrival")
    mean_queue_wait = _mean_gap(records, served, n, "start", "dispatch")
    mean_service = _mean_gap(records, served, n, "finish", "start")
    # The launch rollup's masks go before the latency column is filled,
    # so the column is the rollup's peak.
    hedge = batches.column("hedge")
    launched = batches.matches("outcome", "served")
    killed = batches.matches("outcome", "killed")
    retry_kills = killed & ~hedge
    hedge_losses = batches.matches("outcome", "hedge-loser") | (killed & hedge)
    n_launched = int(launched.sum())
    # Batch sizes are ints, so their sum is exact in any order.
    size_total = int(batches.column("size", launched).sum())
    retries, hedges = int(retry_kills.sum()), int(hedge.sum())
    retry_wasted = _ordered_sum(batches.column("waste", retry_kills))
    hedge_wasted = _ordered_sum(batches.column("waste", hedge_losses))
    del hedge, launched, killed, retry_kills, hedge_losses
    latencies = latency_column(served_latencies(records, served), n)
    del served
    latencies.sort()  # in place: see latency_column
    if n:
        p50, p95, p99, p999 = (percentile_sorted(latencies, p)
                               for p in REPORT_PERCENTILES)
    else:
        p50 = p95 = p99 = p999 = None
    violations = n - int(np.searchsorted(latencies, slo_cycles,
                                         side="right"))
    in_slo = n - violations
    seconds = makespan_cycles / (clock_ghz * 1e9)
    throughput = n / seconds if seconds > 0 else 0.0
    goodput = in_slo / seconds if seconds > 0 else 0.0
    return ServeMetrics(
        total=total,
        served=n,
        shed=shed,
        shed_rate=shed / total if total else 0.0,
        expired=expired,
        makespan_cycles=makespan_cycles,
        throughput_rps=throughput,
        goodput_rps=goodput,
        availability=in_slo / total if total else 0.0,
        latency_p50=p50,
        latency_p95=p95,
        latency_p99=p99,
        latency_p999=p999,
        mean_batch_wait=mean_batch_wait,
        mean_queue_wait=mean_queue_wait,
        mean_service=mean_service,
        mean_batch_size=size_total / n_launched if n_launched else 0.0,
        slo_cycles=slo_cycles,
        slo_violations=violations,
        slo_violation_rate=violations / n if n else 0.0,
        retries=retries,
        hedges=hedges,
        retry_wasted_cycles=retry_wasted,
        hedge_wasted_cycles=hedge_wasted,
        clock_ghz=clock_ghz,
    )


def chip_utilization(chips, makespan_cycles: float) -> list[dict]:
    """Per-chip accounting rows (utilization against the run makespan)."""
    rows = []
    for chip in chips:
        rows.append({
            "chip": chip.chip_id,
            "degraded": chip.degraded,
            "busy_cycles": chip.busy_cycles,
            "reload_cycles": chip.reload_cycles,
            "utilization": (chip.busy_cycles / makespan_cycles
                            if makespan_cycles > 0 else 0.0),
            "batches": chip.batches,
            "requests": chip.requests,
            "kills": getattr(chip, "kills", 0),
        })
    return rows
