"""Full-system co-simulation: PEs + torus + HMC + full-empty sync.

The simulator is *conservatively scheduled*: all PEs share one global event
loop that always advances the PE with the smallest local clock, so shared
resources (DRAM banks, the per-vault data TSVs, torus links) observe
requests in approximately nondecreasing time order, and producer-consumer
synchronization through full-empty variables is resolved in global time
order.

Memory path of one request from PE ``p`` in vault ``v`` to address ``a`` in
vault ``u``::

    PE --star--> vault-v router --torus (if u != v)--> vault-u controller
       --DRAM service--> --torus back--> --star--> PE

Column requests within one ``ld.sram``/``st.sram`` are paced one per cycle
out of the PE's address generator, exactly as in the single-PE port.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import DeadlockError, SimulationError
from repro.isa.program import Program
from repro.memory.hmc import HMC
from repro.noc.torus import TorusNetwork
from repro.pe.counters import PECounters
from repro.pe.pe import PE, PEStatus
from repro.system.config import VIPConfig

#: Bytes of header carried by a NoC request/response message.
_HEADER_BYTES = 16


@dataclass
class ChipResult:
    """Outcome of a full-system run."""

    #: The chip clock when the run ended, not the run's length: a chip's
    #: PE clocks start from wherever its last run left them (``PE.load``
    #: does not reset them), so back-to-back runs on one chip report
    #: cumulative times.  A sequence of runs lasts its last ``cycles``.
    cycles: float
    counters: PECounters
    pe_cycles: list[float]
    bytes_moved: int
    achieved_bandwidth_gbps: float
    noc_messages: int

    def seconds(self, clock_ghz: float = 1.25) -> float:
        return self.cycles * 1e-9 / clock_ghz


@dataclass(frozen=True)
class PEBlockInfo:
    """Why one PE cannot make progress (one row of a BlockedReport)."""

    pe_id: int
    pc: int
    instruction: str
    cause: str
    detail: str = ""


@dataclass(frozen=True)
class BlockedReport:
    """Structured snapshot of every stuck PE at the moment a run fails.

    Attached to :class:`~repro.errors.DeadlockError` (``err.report``) and
    to the max-steps :class:`~repro.errors.SimulationError`, so callers
    can inspect blocking causes programmatically instead of parsing the
    message text.
    """

    entries: tuple[PEBlockInfo, ...] = field(default_factory=tuple)

    def render(self) -> str:
        lines = []
        for e in self.entries:
            line = (f"  PE {e.pe_id}: pc={e.pc} [{e.instruction}] "
                    f"cause={e.cause}")
            if e.detail:
                line += f" ({e.detail})"
            lines.append(line)
        return "\n".join(lines)


class _ChipPort:
    """The memory port handed to each PE by the chip.

    One of these exists per PE and sits on the ``ld.sram``/``st.sram``
    per-burst hot path, so it is slot-ed and keeps direct references to the
    chip's HMC/NoC (stable for the chip's lifetime) rather than chasing
    ``chip.*`` attribute chains per request.
    """

    __slots__ = ("chip", "vault", "hmc", "noc", "star", "_tr", "_fl",
                 "_home_ctl")

    def __init__(self, chip: "Chip", vault: int):
        self.chip = chip
        self.vault = vault
        self.hmc = chip.hmc
        self.noc = chip.noc
        self.star = chip.config.noc.star_cycles
        self._tr = chip.trace if chip.trace.enabled else None
        self._fl = chip.faults if chip.faults.enabled else None
        # Local-vault bursts dominate; bind that controller once.
        self._home_ctl = chip.hmc.vaults[vault]

    def access(self, pe_id, time, addr, nbytes, is_write, data=None):
        hmc = self.hmc
        if is_write and data is not None:
            hmc.store.write(addr, data)
        noc = self.noc
        t0 = noc.pe_to_vault(time, _HEADER_BYTES)
        done = time
        home = self.vault
        star = self.star
        vaults = hmc.vaults
        request_time = t0  # one request per cycle address generation
        for _, piece_len, vault_id, bank, row in hmc.mapper.split_decoded(addr, nbytes):
            if vault_id != home:
                payload_out = piece_len if is_write else 0
                served = vaults[vault_id].access(
                    noc.transfer(request_time, home, vault_id,
                                 _HEADER_BYTES + payload_out),
                    bank, row, piece_len, is_write,
                )
                payload_back = 0 if is_write else piece_len
                served = noc.transfer(
                    served, vault_id, home, _HEADER_BYTES + payload_back
                )
            else:
                served = self._home_ctl.access(
                    request_time, bank, row, piece_len, is_write
                )
            served += star
            if served > done:
                done = served
            request_time += 1
        out = None
        if not is_write:
            out = hmc.store.read(addr, nbytes)
            if self._fl is not None:
                done = self._fl.dram_read(pe_id, addr, out, done)
        if self._tr is not None:
            self._tr.mem(pe_id, time, done - time, addr, nbytes, is_write)
        return done, out

    def _fe_latency(self, addr: int) -> float:
        """One-way latency estimate for a full-empty operation."""
        chip = self.chip
        target = chip.hmc.vault_of(addr)
        star = chip.config.noc.star_cycles
        if target == self.vault:
            return 2 * star
        hops = chip.noc.hops(self.vault, target) + chip.noc.hops(target, self.vault)
        return 2 * star + hops * chip.config.noc.hop_cycles

    def fe_load(self, pe_id, time, addr):
        entry = self.chip.fe_pop(addr)
        if entry is None:
            return None
        value, ready = entry
        return max(time, ready) + self._fe_latency(addr), value

    def fe_store(self, pe_id, time, addr, value):
        done = time + self._fe_latency(addr)
        self.chip.fe_push(addr, value, done)
        return done


class Chip:
    """The 128-PE VIP system (or any smaller slice of it).

    Args:
        config: system configuration; defaults to the paper's.
        num_pes: simulate only the first ``num_pes`` engines (e.g. 4 for a
            single-vault independent-tile run).  Defaults to all of them.
    """

    def __init__(self, config: VIPConfig | None = None, num_pes: int | None = None):
        self.config = config or VIPConfig()
        self.trace = self.config.trace
        self.faults = self.config.faults
        if self.faults.enabled:
            self.faults.bind_trace(self.trace)
        self.hmc = HMC(self.config.memory, trace=self.trace, faults=self.faults)
        self.noc = TorusNetwork(self.config.noc, trace=self.trace,
                                faults=self.faults)
        total = self.config.num_pes
        if num_pes is None:
            num_pes = total
        if not 1 <= num_pes <= total:
            raise SimulationError(f"num_pes must be in [1, {total}]")
        self.pes = [
            PE(
                self.config.pe,
                memory=_ChipPort(self, self.config.vault_of_pe(i)),
                pe_id=i,
            )
            for i in range(num_pes)
        ]
        self._fe_queues: dict[int, list[tuple[int, float]]] = {}
        # Bumped on every fe_push; lets the scheduler skip the blocked-PE
        # wake scan when no store could possibly have freed anyone.
        self._fe_version = 0

    # -- full-empty plumbing -------------------------------------------

    def fe_push(self, addr: int, value: int, ready: float) -> None:
        self._fe_queues.setdefault(addr, []).append((value, ready))
        self._fe_version += 1

    def fe_pop(self, addr: int) -> tuple[int, float] | None:
        queue = self._fe_queues.get(addr)
        if not queue:
            return None
        return queue.pop(0)

    def fe_pending(self, addr: int) -> bool:
        return bool(self._fe_queues.get(addr))

    # -- diagnostics -----------------------------------------------------

    def blocked_report(self, pe_ids=None) -> BlockedReport:
        """Snapshot why each listed PE (default: all non-halted) is stuck."""
        if pe_ids is None:
            pe_ids = [
                pe.pe_id for pe in self.pes if pe.status is not PEStatus.HALTED
            ]
        entries = []
        for pe_id in sorted(pe_ids):
            pe = self.pes[pe_id]
            if pe.program is not None and 0 <= pe.pc < len(pe.program):
                instruction = pe.program[pe.pc].render()
            else:
                instruction = "<no instruction>"
            cause, detail = pe.describe_stall()
            entries.append(
                PEBlockInfo(pe_id=pe_id, pc=pe.pc, instruction=instruction,
                            cause=cause, detail=detail)
            )
        return BlockedReport(entries=tuple(entries))

    # -- simulation ------------------------------------------------------

    def run(
        self,
        programs: dict[int, Program] | list[Program],
        max_steps: int = 500_000_000,
    ) -> ChipResult:
        """Run one program per PE to completion.

        ``programs`` maps pe_id -> Program (PEs without one stay halted) or
        is a list applied to PEs in order.
        """
        if isinstance(programs, list):
            programs = dict(enumerate(programs))
        active: list[tuple[float, int]] = []
        for pe_id, program in programs.items():
            if pe_id >= len(self.pes):
                raise SimulationError(f"no PE {pe_id} in this chip")
            self.pes[pe_id].load(program)
            heapq.heappush(active, (0.0, pe_id))
        blocked: set[int] = set()
        steps = 0
        pes = self.pes
        # next_issue_lower_bound reads only PE-local state, so a parked
        # PE's bound cannot change until it steps (or is resumed): cache it
        # keyed by the PE's state version instead of recomputing per poll.
        # Only a bound that parks its PE is cached; one that lets the PE
        # step is stale after the step.
        bound_cache: list[tuple[int, float]] = [(-1, 0.0)] * len(pes)
        fe_seen = self._fe_version
        running = PEStatus.RUNNING
        heappop, heappush = heapq.heappop, heapq.heappush
        while active:
            _, pe_id = heappop(active)
            pe = pes[pe_id]
            if pe.status is running:
                # Conservative ordering: execute only when this PE's next
                # instruction issues no later than every other PE's bound;
                # otherwise re-queue at the refined time.  This keeps
                # mutations of shared DRAM/NoC state in global time order
                # even when one instruction stalls for hundreds of cycles.
                # With no other runnable PE the bound is irrelevant (the
                # reference loop steps immediately too): idle-skip it.
                if active:
                    version, bound = bound_cache[pe_id]
                    if version != pe._version:
                        bound = pe.next_issue_lower_bound()
                    if bound > active[0][0]:
                        bound_cache[pe_id] = (pe._version, bound)
                        heappush(active, (bound, pe_id))
                        continue
                pe.step()
                steps += 1
                if pe.status is running:
                    # Span run-ahead: step straight through PE-local
                    # instructions (the PE's ``_local`` flags), but only
                    # while this PE would provably be the next heap pop AND
                    # pass the conservative bound check — a mechanical
                    # shortcut over the requeue/pop cycle that replays the
                    # pop-by-pop sequence exactly (local instructions touch
                    # no shared state, and no other PE could have run in
                    # between).  The heap does not change during the span,
                    # so its head is read once.
                    head = active[0] if active else None
                    flags = pe._local
                    while head is None or (pe.clock, pe_id) < head:
                        pc = pe.pc
                        if not (0 <= pc < len(flags) and flags[pc]):
                            break
                        if head is not None:
                            bound = pe.next_issue_lower_bound()
                            if bound > head[0]:
                                bound_cache[pe_id] = (pe._version, bound)
                                break
                        pe.step()
                        steps += 1
                        if steps > max_steps or pe.status is not running:
                            break
                if steps > max_steps:
                    report = self.blocked_report(
                        sorted({pe_id for _, pe_id in active} | blocked | {pe_id})
                    )
                    err = SimulationError(
                        f"exceeded {max_steps} chip steps; live PEs:\n"
                        f"{report.render()}"
                    )
                    err.report = report
                    raise err
            if pe.status is running:
                heappush(active, (pe.clock, pe_id))
            elif pe.status is PEStatus.BLOCKED:
                blocked.add(pe_id)
            # A store may have freed blocked PEs; wake the eligible ones.
            # Only fe_push can make a waiter eligible (a PE blocks only on
            # an empty queue), so the scan is skipped until one happens.
            if blocked and fe_seen != self._fe_version:
                fe_seen = self._fe_version
                for waiting_id in list(blocked):
                    waiter = pes[waiting_id]
                    addr = waiter.blocked_addr
                    if addr is not None and self.fe_pending(addr):
                        port: _ChipPort = waiter.memory  # type: ignore[assignment]
                        value, ready = self.fe_pop(addr)  # type: ignore[misc]
                        done = max(waiter.clock, ready) + port._fe_latency(addr)
                        waiter.resume_fe(done, value)
                        blocked.discard(waiting_id)
                        heappush(active, (waiter.clock, waiting_id))
            if not active and blocked:
                report = self.blocked_report(blocked)
                raise DeadlockError(
                    f"all PEs blocked on full-empty variables:\n"
                    f"{report.render()}",
                    report=report,
                )
        if blocked:
            report = self.blocked_report(blocked)
            raise DeadlockError(
                f"PEs {sorted(blocked)} still blocked at end of run:\n"
                f"{report.render()}",
                report=report,
            )
        return self._result([pe_id for pe_id in programs])

    def _result(self, pe_ids: list[int]) -> ChipResult:
        cycles = max(self.pes[i].result().cycles for i in pe_ids)
        counters = PECounters.sum(self.pes[i].counters for i in pe_ids)
        return ChipResult(
            cycles=cycles,
            counters=counters,
            pe_cycles=[self.pes[i].result().cycles for i in pe_ids],
            bytes_moved=self.hmc.total_bytes_moved,
            achieved_bandwidth_gbps=self.hmc.achieved_bandwidth_gbps(cycles),
            noc_messages=self.noc.stats.messages,
        )
