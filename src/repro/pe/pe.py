"""The VIP processing-engine simulator.

Execution-driven and timestamp-based: every instruction is functionally
executed (bit-accurate fixed point) and assigned issue/completion times
from a resource model that covers

* the unified in-order fetch/decode/issue front end (1 instruction/cycle;
  a stalled instruction stalls everything behind it, Section III-B);
* scalar register valid bits (reads of a register stall until the producing
  instruction completes);
* the vector pipeline (vertical + horizontal units, chunked streaming of
  long vectors, multi-cycle multiplies);
* the ARC interlock between in-flight scratchpad loads and anything that
  touches an overlapping scratchpad range, including its 20-entry capacity;
* the load-store unit (64 outstanding requests, dedicated scratchpad port
  moving 8 bytes per cycle);
* DRAM/NoC response times provided by the attached memory port.

Instructions issue in order and may complete out of order, exactly as the
paper describes.  There are no caches and no precise exceptions.
"""

from __future__ import annotations

import enum
import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError, TimingHazardError
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.pe.arc import ArrayRangeCheck
from repro.pe.batch import VectorOpQueue, local_steps
from repro.pe.config import HazardMode, PEConfig
from repro.pe.decode import (
    SHAPE_MV,
    SHAPE_NONE,
    SHAPE_VS,
    SHAPE_VV,
    TAIL_LSU_CAP,
    TAIL_MEMFENCE,
    TAIL_NONE,
    TAIL_V_DRAIN,
    TAIL_VEC_PIPE,
    DecodedInstr,
    predecode,
)
from repro.pe.counters import PECounters
from repro.pe.memoryif import FlatMemory, as_bytes, from_bytes
from repro.pe.scalar_unit import branch_taken, scalar_alu, to_signed
from repro.pe.vector_unit import (
    SHORT_VECTOR_ELEMENTS,
    ScratchpadView,
    short_vector_op,
    vector_timing,
)


class PEStatus(enum.Enum):
    RUNNING = "running"
    BLOCKED = "blocked"  # waiting on a full-empty variable
    HALTED = "halted"


class _SpanTimes:
    """Ready times for scratchpad byte ranges, kept as live intervals.

    Semantically equivalent to a per-byte float64 array updated with
    ``np.maximum(arr[start:end], time)`` and queried with
    ``arr[start:end].max()``: the per-byte value is the max time over
    recorded intervals covering that byte, so a range query equals the max
    time over intervals overlapping the range.  The interval form turns
    two numpy slice ufunc calls per operand into a short Python scan —
    only the handful of in-flight producers/readers are ever live.

    Spans are kept as ``(-time, start, end)`` in sorted order, latest
    first.  A query walks from the latest span and stops at the first
    overlap (no later span can be larger) or as soon as times fall to the
    floor (no later span can raise it).  Queries return ``floor``
    unchanged when nothing overlaps, matching the zero-initialised array
    (times are nonnegative).

    Spans whose time is ``<= now`` at record time are dropped: every later
    query's floor is at least the (monotone) PE clock, which is beyond
    ``now`` by then, so an expired span can never raise a result.  They
    form the tail of the list, so one bisection finds them.
    """

    __slots__ = ("_spans",)

    def __init__(self):
        self._spans: list[tuple[float, int, int]] = []

    def record(self, start: int, end: int, time: float, now: float) -> None:
        if end <= start:
            return
        spans = self._spans
        if spans and -spans[-1][0] <= now:
            del spans[bisect_left(spans, (-now,)):]
        insort(spans, (-time, start, end))

    def max_over(self, start: int, end: int, floor: float) -> float:
        for neg, s, e in self._spans:
            if -neg <= floor:
                return floor
            if s < end and start < e:
                return -neg
        return floor


@dataclass
class PEResult:
    """Outcome of a PE run."""

    cycles: float
    counters: PECounters
    status: PEStatus

    def seconds(self, clock_ghz: float = 1.25) -> float:
        return self.cycles * 1e-9 / clock_ghz


class PE:
    """One VIP processing engine.

    Args:
        config: a :class:`PEConfig`, or any object with a ``.pe`` attribute
            holding one (e.g. :class:`repro.system.VIPConfig`).
        memory: a memory port (see ``repro.pe.memoryif``); defaults to an
            idealized :class:`FlatMemory`.
        pe_id: identity reported to the memory port.
    """

    def __init__(self, config=None, memory=None, pe_id: int = 0):
        if config is None:
            config = PEConfig()
        if hasattr(config, "pe"):
            config = config.pe
        self.config: PEConfig = config
        self.memory = memory if memory is not None else FlatMemory()
        self.pe_id = pe_id
        self.reset()

    # ------------------------------------------------------------------
    # state management

    def reset(self) -> None:
        cfg = self.config
        self.program: Program | None = None
        self.pc = 0
        self.clock = 0.0
        self.status = PEStatus.HALTED
        self.regs = [0] * cfg.num_registers
        self.reg_time = [0.0] * cfg.num_registers
        self.scratchpad = np.zeros(cfg.scratchpad_bytes, dtype=np.uint8)
        self.sp = ScratchpadView(self.scratchpad)
        self._sp_wtime = _SpanTimes()
        self._sp_rtime = _SpanTimes()
        self.vl = 1
        self.mr = 1
        self.fx = 0
        self._vec_pipe_free = 0.0
        self._vec_last_done = 0.0
        # Per-PE memo over vector_timing: the lru_cache key hashes the
        # frozen PEConfig on every lookup, which is measurable at one
        # call per vector instruction; the config never changes per PE.
        self._vec_timing: dict = {}
        self._lsu_port_free = 0.0
        self._outstanding: list[float] = []
        # Cache the trace sink as None-when-disabled so the hot path pays a
        # single identity check per instruction when tracing is off.
        self._tr = cfg.trace if cfg.trace.enabled else None
        # Same pattern for the fault injector (repro.faults).
        self._fl = cfg.faults if cfg.faults.enabled else None
        if self._fl is not None:
            self._fl.sp_power_on(self)
        self._hazard_on = cfg.hazard_mode is not HazardMode.IGNORE
        self._dpb = cfg.datapath_bytes
        # Applies long and 64-bit vector instructions (repro.pe.batch).
        self._vq = VectorOpQueue()
        self.arc = ArrayRangeCheck(cfg.arc_entries, pe_id=self.pe_id,
                                   trace=cfg.trace)
        self.counters = PECounters()
        self._blocked_on: tuple[int, float] | None = None  # (addr, issue time)
        self._end_time = 0.0
        self._dec: list[DecodedInstr] | None = None
        # Per-pc flags of PE-local instructions, which the chip scheduler
        # may step through without a heap round trip (run-ahead).
        self._local: list[bool] = []
        # Bumped whenever PE state may change; lets the chip scheduler cache
        # next_issue_lower_bound (which reads only PE-local state).
        self._version = 0
        # Operand scan of the last issue bound: per scratchpad range, its
        # ARC clear time and write-ready time at the clock, valid for the
        # step that runs at state version _scan_at.
        self._scan: list[float] = []
        self._scan_at = -1

    def load(self, program: Program) -> None:
        """Load a program, clearing execution state but keeping scratchpad
        and register contents (so callers can pre-stage data)."""
        if len(program) > self.config.instruction_buffer_entries:
            raise SimulationError(
                f"program of {len(program)} instructions exceeds the "
                f"{self.config.instruction_buffer_entries}-entry buffer"
            )
        self.program = program
        self.pc = 0
        self.status = PEStatus.RUNNING
        self._blocked_on = None
        self._version += 1
        self._dec = predecode(program, PE._DISPATCH)
        self._local = local_steps(program)

    def run(self, program: Program | None = None, max_steps: int = 200_000_000) -> PEResult:
        """Run to completion (single-PE convenience wrapper)."""
        if program is not None:
            self.load(program)
        if self.program is None:
            raise SimulationError("no program loaded")
        steps = 0
        while self.status is PEStatus.RUNNING:
            if steps >= max_steps:
                raise SimulationError(f"exceeded {max_steps} simulation steps")
            self.step()
            steps += 1
        if self.status is PEStatus.BLOCKED:
            raise SimulationError("PE blocked on full-empty variable at end of run")
        return self.result()

    def result(self) -> PEResult:
        return PEResult(cycles=self._end_time, counters=self.counters, status=self.status)

    # ------------------------------------------------------------------
    # stepping

    def step(self) -> PEStatus:
        """Execute one instruction (or stay blocked)."""
        if self.status is not PEStatus.RUNNING:
            return self.status
        self._version += 1
        pc = self.pc
        dec = self._dec
        if not 0 <= pc < len(dec):
            raise self._ran_off()
        d = dec[pc]
        if self._tr is not None:
            return self._step_traced(d.handler, d.instr)
        d.handler(self, d.instr)
        return self.status

    def _ran_off(self) -> SimulationError:
        return SimulationError(
            f"PE {self.pe_id} ran off the instruction buffer at pc={self.pc}; "
            "missing 'halt'?"
        )

    def _step_traced(self, handler, instr: Instruction) -> PEStatus:
        """Run ``handler`` on ``instr``, emitting an ``instr`` event carrying
        the counter deltas (including per-cause stall attribution)."""
        before = self.counters.snapshot()
        t0 = self.clock
        handler(self, instr)
        deltas = self.counters.delta(before)
        # A blocked ld.fe retires nothing; its event is emitted on resume.
        if deltas.get("instructions"):
            self._tr.instr(self.pe_id, instr.mnemonic, t0,
                           max(self.clock - t0, 0.0), deltas)
        return self.status

    def next_issue_lower_bound(self) -> float:
        """A side-effect-free lower bound on the next instruction's issue
        time.

        Used by the full-system scheduler to keep shared-resource accesses
        (DRAM banks, torus links) approximately ordered in global time: a
        PE whose next instruction stalls far into the future must not
        mutate shared state before other PEs catch up.  The bound accounts
        for register valid bits, ARC interlocks, scratchpad data hazards,
        vector-pipe occupancy, and LSU capacity — every stall source that
        is knowable without executing, as ``repro.pe.decode`` resolved it
        per instruction.  It changes no simulated state.

        The operand scan (:meth:`_operand_scan`) is kept in :attr:`_scan`
        for the step that runs next at this state version, which applies
        it instead of scanning again.
        """
        if self.status is not PEStatus.RUNNING:
            return self.clock
        pc = self.pc
        dec = self._dec
        if not 0 <= pc < len(dec):
            return self.clock
        d = dec[pc]
        t = self.clock
        reg_time = self.reg_time
        for r in d.lb_regs:
            rt = reg_time[r]
            if rt > t:
                t = rt
        if d.lb_shape != SHAPE_NONE:
            scan = self._scan = self._operand_scan(self._operand_ranges(d))
            self._scan_at = self._version + 1
            for value in scan:
                if value > t:
                    t = value

        tail = d.lb_tail
        if tail != TAIL_NONE:
            if tail == TAIL_VEC_PIPE:
                if self._vec_pipe_free > t:
                    t = self._vec_pipe_free
            elif tail == TAIL_LSU_CAP:
                if len(self._outstanding) >= self.config.max_outstanding_mem:
                    t = max(t, min(self._outstanding))
            elif tail == TAIL_V_DRAIN:
                if self._vec_last_done > t:
                    t = self._vec_last_done
            else:  # TAIL_MEMFENCE
                if self._outstanding:
                    t = max(t, max(self._outstanding))
        return t

    def _operand_ranges(self, d: DecodedInstr) -> tuple[tuple[int, int], ...]:
        """The ``(start, nbytes)`` scratchpad ranges the instruction of
        ``d`` touches at the current ``vl``/``mr`` and register values,
        in the order its handler checks them."""
        shape = d.lb_shape
        if shape == SHAPE_NONE:
            return ()
        instr = d.instr
        esz = d.esz
        regs = self.regs
        if shape == SHAPE_MV:
            return (
                (regs[instr.rs1] if instr.rs1 else 0, self.mr * self.vl * esz),
                (regs[instr.rs2] if instr.rs2 else 0, self.vl * esz),
                (regs[instr.rd] if instr.rd else 0, self.mr * esz),
            )
        if shape == SHAPE_VV:
            n = self.vl * esz
            return (
                (regs[instr.rs1] if instr.rs1 else 0, n),
                (regs[instr.rs2] if instr.rs2 else 0, n),
                (regs[instr.rd] if instr.rd else 0, n),
            )
        if shape == SHAPE_VS:
            n = self.vl * esz
            return (
                (regs[instr.rs1] if instr.rs1 else 0, n),
                (regs[instr.rs2] if instr.rs2 else 0, esz),
                (regs[instr.rd] if instr.rd else 0, n),
            )
        # SHAPE_LDST_SRAM
        count = regs[instr.rs2] if instr.rs2 else 0
        if count < 0:
            return ()
        return ((regs[instr.rd] if instr.rd else 0, count * esz),)

    # -- helpers --------------------------------------------------------

    def _reg_ready(self, t: float, *regs: int) -> float:
        for r in regs:
            rt = self.reg_time[r]
            if rt > t:
                self.counters.stall_operand += rt - t
                t = rt
        return t

    def _read_reg(self, r: int) -> int:
        return 0 if r == 0 else self.regs[r]

    def _write_reg(self, r: int, value: int, ready: float) -> None:
        if r == 0:
            return
        self.regs[r] = to_signed(value)
        self.reg_time[r] = ready

    def _operand_scan(self, ranges) -> list[float]:
        """Each scratchpad range's ARC clear time and write-ready time,
        read with the clock as floor: ``[cleared, ready]`` per range, the
        clock for a range that is empty or off the scratchpad.

        For any ``t >= clock``, ``overlap_clear_time(r, t)`` and
        ``max_over(r, t)`` equal ``max(t, value)``, so a step applies
        these values in its own stall order, exactly as if it queried at
        its running issue time.
        """
        clock = self.clock
        size = self.scratchpad.size
        arc = self.arc
        arc_overlap = (arc.overlap_clear_time if arc.latest_clear > clock
                       else None)
        max_over = self._sp_wtime.max_over if self._hazard_on else None
        scan = []
        for start, nbytes in ranges:
            cleared = ready = clock
            if 0 < nbytes and 0 <= start and start + nbytes <= size:
                if arc_overlap is not None:
                    cleared = arc_overlap(start, nbytes, clock)
                if max_over is not None:
                    ready = max_over(start, start + nbytes, clock)
            scan += (cleared, ready)
        return scan

    def _arc_wait(self, t: float, cleared: float, start: int,
                  nbytes: int) -> float:
        """Stall until the in-flight loads overlapping ``[start,
        start + nbytes)`` clear at ``cleared > t``."""
        self.counters.stall_arc += cleared - t
        if self._tr is not None:
            self._tr.arc_interlock(self.pe_id, t, cleared - t, start, nbytes)
        return cleared

    def _hazard_wait(self, t: float, ready: float) -> float:
        """Stall (or raise) until scratchpad data is ready at ``ready > t``:
        a source not yet produced, or a destination that in-flight readers
        still hold (write-after-read)."""
        if self.config.hazard_mode is HazardMode.ERROR:
            raise TimingHazardError(
                f"pc={self.pc}: scratchpad data not ready until cycle "
                f"{ready:.1f} but instruction issues at {t:.1f}"
            )
        self.counters.stall_hazard += ready - t
        return ready

    def _lsu_slot(self, t: float) -> float:
        """Stall until the load-store unit has a free outstanding slot."""
        while self._outstanding and self._outstanding[0] <= t:
            heapq.heappop(self._outstanding)
        if len(self._outstanding) >= self.config.max_outstanding_mem:
            freed = heapq.heappop(self._outstanding)
            if freed > t:
                self.counters.stall_lsu += freed - t
                t = freed
        return t

    def _retire(self, issue: float) -> None:
        self.counters.instructions += 1
        clock = issue + 1.0
        self.clock = clock
        self.pc += 1
        if clock > self._end_time:
            self._end_time = clock

    def _track_end(self, done: float) -> None:
        if done > self._end_time:
            self._end_time = done

    # -- vector instructions --------------------------------------------

    def _exec_vector(self, instr: Instruction) -> None:
        counters = self.counters
        t = self._reg_ready(self.clock, instr.rd, instr.rs1, instr.rs2)
        dst = self._read_reg(instr.rd)
        src1 = self._read_reg(instr.rs1)
        src2 = self._read_reg(instr.rs2)

        opcode = instr.opcode
        vop = instr.vop
        width = instr.width
        esz = width >> 3
        cols = self.vl
        if opcode is Opcode.MV:
            rows = self.mr
            n1 = rows * cols * esz
            n2 = cols * esz
            nd = rows * esz
        else:
            rows = 1
            n1 = nd = cols * esz
            n2 = n1 if opcode is Opcode.VV else esz
        size = self.scratchpad.size
        if (src1 < 0 or src1 + n1 > size or src2 < 0 or src2 + n2 > size
                or dst < 0 or dst + nd > size):
            # Error text (with the instruction mnemonic) is built only on
            # the failing path; the mnemonic property is an f-string.
            for start, nbytes in ((src1, n1), (src2, n2), (dst, nd)):
                self.sp.check_range(start, nbytes, f"{instr.mnemonic} operand")

        # ARC interlock over src1, src2, dst, then data hazards: sources
        # wait for their producers, the destination also for in-flight
        # readers.  The issue bound has usually scanned the operands.
        if self._scan_at == self._version:
            scan = self._scan
        else:
            scan = self._operand_scan(((src1, n1), (src2, n2), (dst, nd)))
        a1, w1, a2, w2, a3, w3 = scan
        if a1 > t:
            t = self._arc_wait(t, a1, src1, n1)
        if a2 > t:
            t = self._arc_wait(t, a2, src2, n2)
        if a3 > t:
            t = self._arc_wait(t, a3, dst, nd)
        if self._hazard_on:
            ready = w1 if w1 > t else t
            if w2 > ready:
                ready = w2
            if ready > t:
                t = self._hazard_wait(t, ready)
            ready = self._sp_rtime.max_over(dst, dst + nd,
                                            w3 if w3 > t else t)
            if ready > t:
                t = self._hazard_wait(t, ready)
        if self._vec_pipe_free > t:
            counters.stall_vector_pipe += self._vec_pipe_free - t
            t = self._vec_pipe_free

        is_mv = opcode is Opcode.MV
        tkey = (vop, is_mv, cols, rows, width)
        timing = self._vec_timing.get(tkey)
        if timing is None:
            vt = vector_timing(self.config, vop, is_mv, cols, rows, width)
            timing = self._vec_timing[tkey] = (vt.occupancy, vt.done)
        occupancy, latency = timing
        self._vec_pipe_free = t + occupancy
        done = t + latency
        if done > self._vec_last_done:
            self._vec_last_done = done

        self._vector_effect(opcode, vop, instr.hop, width, rows, cols,
                            src1, src2, dst)
        if is_mv:
            counters.vector_alu_ops += rows * cols * (1 if vop == "nop" else 2)
        else:
            counters.vector_alu_ops += cols

        if self._fl is not None:
            self._fl.vector_result(self, [(dst, nd)], width, t)

        self._sp_wtime.record(dst, dst + nd, done, t)
        read_done = t + occupancy
        rtime = self._sp_rtime
        rtime.record(src1, src1 + n1, read_done, t)
        rtime.record(src2, src2 + n2, read_done, t)
        counters.vector_instructions += 1
        self._track_end(done)
        self._retire(t)

    def _vector_effect(self, opcode, vop, hop, width, rows, cols,
                       src1, src2, dst) -> None:
        """Apply one vector instruction's scratchpad effect, in the step
        that issues it.

        Short vectors are computed as Python integers; long and 64-bit
        ones as one NumPy computation, pushed through the one-op
        :class:`~repro.pe.batch.VectorOpQueue` and flushed at once.  Kept
        apart from :meth:`_exec_vector` so that ``ReferencePE`` can run
        every op through ``ScratchpadView`` instead.
        """
        if rows * cols <= SHORT_VECTOR_ELEMENTS and width <= 32:
            short_vector_op(self.scratchpad, opcode, vop, hop, width,
                            rows, cols, self.fx, src1, src2, dst)
        else:
            vq = self._vq
            vq.push(self, opcode, vop, hop, width, rows, cols,
                    src1, src2, dst)
            vq.flush(self)

    def _exec_v_drain(self, instr: Instruction) -> None:
        t = max(self.clock, self._vec_last_done)
        self.counters.vector_instructions += 1
        self._retire(t)

    def _exec_set(self, instr: Instruction) -> None:
        t = self.clock
        if instr.imm is not None:
            value = instr.imm
        else:
            t = self._reg_ready(t, instr.rs1)
            value = self._read_reg(instr.rs1)
        if instr.opcode is Opcode.SET_VL:
            if not 1 <= value <= self.config.scratchpad_bytes:
                raise SimulationError(f"set.vl {value} out of range")
            self.vl = value
        elif instr.opcode is Opcode.SET_MR:
            if not 1 <= value <= self.config.scratchpad_bytes:
                raise SimulationError(f"set.mr {value} out of range")
            self.mr = value
        else:  # SET_FX
            if not 0 <= value <= 63:
                raise SimulationError(f"set.fx {value} out of range")
            self.fx = value
        self.counters.scalar_instructions += 1
        self._retire(t)

    # -- scalar instructions --------------------------------------------

    def _exec_alu(self, instr: Instruction) -> None:
        if instr.imm is not None:
            t = self._reg_ready(self.clock, instr.rs1)
            b = instr.imm
        else:
            t = self._reg_ready(self.clock, instr.rs1, instr.rs2)
            b = self._read_reg(instr.rs2)
        value = scalar_alu(instr.sop, self._read_reg(instr.rs1), b)
        self._write_reg(instr.rd, value, t + 1.0)
        self.counters.scalar_instructions += 1
        self._retire(t)

    def _exec_mov(self, instr: Instruction) -> None:
        t = self._reg_ready(self.clock, instr.rs1)
        self._write_reg(instr.rd, self._read_reg(instr.rs1), t + 1.0)
        self.counters.scalar_instructions += 1
        self._retire(t)

    def _exec_movi(self, instr: Instruction) -> None:
        t = self.clock
        self._write_reg(instr.rd, instr.imm, t + 1.0)
        self.counters.scalar_instructions += 1
        self._retire(t)

    def _exec_branch(self, instr: Instruction) -> None:
        t = self._reg_ready(self.clock, instr.rs1, instr.rs2)
        taken = branch_taken(instr.sop, self._read_reg(instr.rs1), self._read_reg(instr.rs2))
        self.counters.scalar_instructions += 1
        self.counters.branches += 1
        self.counters.instructions += 1
        if taken:
            self.counters.branches_taken += 1
            self.pc = instr.imm
            self.clock = t + 1.0 + self.config.branch_taken_penalty
        else:
            self.pc += 1
            self.clock = t + 1.0
        self._end_time = max(self._end_time, self.clock)

    def _exec_jmp(self, instr: Instruction) -> None:
        self.counters.scalar_instructions += 1
        self.counters.branches += 1
        self.counters.branches_taken += 1
        self.counters.instructions += 1
        self.pc = instr.imm
        self.clock = self.clock + 1.0 + self.config.branch_taken_penalty
        self._end_time = max(self._end_time, self.clock)

    # -- load-store instructions -----------------------------------------

    def _exec_ld_sram(self, instr: Instruction) -> None:
        counters = self.counters
        t = self._reg_ready(self.clock, instr.rd, instr.rs1, instr.rs2)
        sp_dst = self._read_reg(instr.rd)
        dram_src = self._read_reg(instr.rs1)
        count = self._read_reg(instr.rs2)
        if count < 0:
            raise SimulationError(f"ld.sram negative element count {count}")
        nbytes = count * (instr.width >> 3)
        end = sp_dst + nbytes
        if sp_dst < 0 or end > self.scratchpad.size:
            self.sp.check_range(sp_dst, nbytes, "ld.sram destination")

        # ARC interlock, then the destination waits for its producers and
        # in-flight readers (see _exec_vector for the scan).
        if self._scan_at == self._version:
            cleared, ready = self._scan
        else:
            cleared, ready = self._operand_scan(((sp_dst, nbytes),))
        if cleared > t:
            t = self._arc_wait(t, cleared, sp_dst, nbytes)
        if self._hazard_on and nbytes:
            ready = self._sp_rtime.max_over(sp_dst, end,
                                            ready if ready > t else t)
            if ready > t:
                t = self._hazard_wait(t, ready)
        t = self._lsu_slot(t)
        free_at = self.arc.earliest_free_time(t)
        if free_at > t:
            counters.stall_arc += free_at - t
            if self._tr is not None:
                self._tr.arc_full(self.pe_id, t, free_at - t, sp_dst, nbytes)
            t = free_at

        done, data = self.memory.access(self.pe_id, t, dram_src, nbytes, False, None)
        dpb = self._dpb
        port_start = max(done, self._lsu_port_free)
        done = port_start + (nbytes + dpb - 1) // dpb
        self._lsu_port_free = done

        if nbytes:
            self.scratchpad[sp_dst:end] = data
            if self._fl is not None:
                self._fl.sp_write(self, sp_dst, nbytes, t)
            self._sp_wtime.record(sp_dst, end, done, t)
            self.arc.insert(sp_dst, nbytes, done, t)
        heapq.heappush(self._outstanding, done)
        counters.loadstore_instructions += 1
        counters.dram_bytes_read += nbytes
        counters.dram_requests += (nbytes + 31) // 32 or 1
        if self._tr is not None:
            self._tr.lsu(self.pe_id, "ld.sram", t, done - t, dram_src, nbytes, False)
        self._track_end(done)
        self._retire(t)

    def _exec_st_sram(self, instr: Instruction) -> None:
        counters = self.counters
        t = self._reg_ready(self.clock, instr.rd, instr.rs1, instr.rs2)
        sp_src = self._read_reg(instr.rd)
        dram_dst = self._read_reg(instr.rs1)
        count = self._read_reg(instr.rs2)
        if count < 0:
            raise SimulationError(f"st.sram negative element count {count}")
        nbytes = count * (instr.width >> 3)
        end = sp_src + nbytes
        if sp_src < 0 or end > self.scratchpad.size:
            self.sp.check_range(sp_src, nbytes, "st.sram source")

        # ARC interlock, then the source waits for its producers.
        if self._scan_at == self._version:
            cleared, ready = self._scan
        else:
            cleared, ready = self._operand_scan(((sp_src, nbytes),))
        if cleared > t:
            t = self._arc_wait(t, cleared, sp_src, nbytes)
        if self._hazard_on and ready > t:
            t = self._hazard_wait(t, ready)
        t = self._lsu_slot(t)

        dpb = self._dpb
        port_start = max(t, self._lsu_port_free)
        drained = port_start + (nbytes + dpb - 1) // dpb
        self._lsu_port_free = drained
        if nbytes:
            self._sp_rtime.record(sp_src, end, drained, t)
        data = self.scratchpad[sp_src:end].copy()
        done, _ = self.memory.access(self.pe_id, drained, dram_dst, nbytes, True, data)
        heapq.heappush(self._outstanding, done)
        counters.loadstore_instructions += 1
        counters.dram_bytes_written += nbytes
        counters.dram_requests += (nbytes + 31) // 32 or 1
        if self._tr is not None:
            self._tr.lsu(self.pe_id, "st.sram", t, done - t, dram_dst, nbytes, True)
        self._track_end(done)
        self._retire(t)

    def _exec_ld_reg(self, instr: Instruction) -> None:
        t = self._reg_ready(self.clock, instr.rs1)
        t = self._lsu_slot(t)
        addr = self._read_reg(instr.rs1)
        done, data = self.memory.access(self.pe_id, t, addr, 8, False, None)
        self._write_reg(instr.rd, from_bytes(data), done)
        heapq.heappush(self._outstanding, done)
        self.counters.loadstore_instructions += 1
        self.counters.dram_bytes_read += 8
        self.counters.dram_requests += 1
        if self._tr is not None:
            self._tr.lsu(self.pe_id, "ld.reg", t, done - t, addr, 8, False)
        self._track_end(done)
        self._retire(t)

    def _exec_st_reg(self, instr: Instruction) -> None:
        t = self._reg_ready(self.clock, instr.rd, instr.rs1)
        t = self._lsu_slot(t)
        addr = self._read_reg(instr.rs1)
        done, _ = self.memory.access(
            self.pe_id, t, addr, 8, True, as_bytes(self._read_reg(instr.rd))
        )
        heapq.heappush(self._outstanding, done)
        self.counters.loadstore_instructions += 1
        self.counters.dram_bytes_written += 8
        self.counters.dram_requests += 1
        if self._tr is not None:
            self._tr.lsu(self.pe_id, "st.reg", t, done - t, addr, 8, True)
        self._track_end(done)
        self._retire(t)

    def _exec_ld_fe(self, instr: Instruction) -> None:
        t = self._reg_ready(self.clock, instr.rs1)
        addr = self._read_reg(instr.rs1)
        response = self.memory.fe_load(self.pe_id, t, addr)
        if response is None:
            self.status = PEStatus.BLOCKED
            self._blocked_on = (addr, t)
            return
        done, value = response
        self._finish_fe_load(instr, t, done, value)

    def _finish_fe_load(self, instr: Instruction, t: float, done: float, value: int) -> None:
        # The PE truly blocks on an acquire: issue resumes when data arrives.
        if self._tr is not None:
            self._tr.sync(self.pe_id, "load", t, max(done - t, 0.0),
                          self._read_reg(instr.rs1), value)
        if done > t:
            self.counters.stall_sync += done - t
            t = done
        self._write_reg(instr.rd, value, done)
        self.counters.loadstore_instructions += 1
        self._track_end(done)
        self._retire(t)

    def resume_fe(self, done: float, value: int) -> None:
        """Complete a blocked ``ld.fe`` (called by the system scheduler)."""
        if self.status is not PEStatus.BLOCKED or self._blocked_on is None:
            raise SimulationError("resume_fe on a PE that is not blocked")
        assert self.program is not None
        self._version += 1
        instr = self.program[self.pc]
        _, issue_time = self._blocked_on
        self._blocked_on = None
        self.status = PEStatus.RUNNING
        if self._tr is not None:
            # The blocked step emitted nothing; attribute the instruction
            # (and its sync stall) here, where the wait is finally known.
            before = self.counters.snapshot()
            self._finish_fe_load(instr, issue_time, done, value)
            self._tr.instr(self.pe_id, instr.mnemonic, issue_time,
                           max(self.clock - issue_time, 0.0),
                           self.counters.delta(before))
            return
        self._finish_fe_load(instr, issue_time, done, value)

    @property
    def blocked_addr(self) -> int | None:
        return self._blocked_on[0] if self._blocked_on else None

    def describe_stall(self) -> tuple[str, str]:
        """Name the dominant source holding back the next instruction.

        Side-effect-free diagnostic used by the chip's ``BlockedReport``
        when a run deadlocks or exhausts its step budget.  Returns a
        ``(cause, detail)`` pair such as ``("full-empty", "addr=0x80")``
        or ``("arc", "sp[0:512] busy until 1234.0")``; ``("ready", "")``
        means nothing currently stalls this PE.
        """
        if self._blocked_on is not None:
            addr, issued = self._blocked_on
            return "full-empty", f"addr={addr:#x} (issued at {issued:.1f})"
        if self.status is not PEStatus.RUNNING or self.program is None:
            return self.status.value, ""
        if not 0 <= self.pc < len(self._dec):
            return "pc-out-of-range", f"pc={self.pc}"
        d = self._dec[self.pc]
        t = self.clock
        cause, detail = "ready", ""

        for r in d.lb_regs:
            if self.reg_time[r] > t:
                t = self.reg_time[r]
                cause, detail = "register", f"r{r} ready at {t:.1f}"

        # The scan is floored at the clock: a value raises the running
        # time exactly when the query at that time would.
        ranges = self._operand_ranges(d)
        scan = self._operand_scan(ranges)
        for i, (start, nbytes) in enumerate(ranges):
            cleared, ready = scan[2 * i], scan[2 * i + 1]
            if cleared > t:
                t = cleared
                cause = "arc"
                detail = f"sp[{start}:{start + nbytes}] busy until {t:.1f}"
            if ready > t:
                t = ready
                cause = "sp-hazard"
                detail = f"sp[{start}:{start + nbytes}] written at {t:.1f}"

        tail = d.lb_tail
        outstanding = self._outstanding
        if tail == TAIL_VEC_PIPE:
            if self._vec_pipe_free > t:
                t = self._vec_pipe_free
                cause, detail = "vector-pipe", f"free at {t:.1f}"
        elif tail == TAIL_V_DRAIN:
            if self._vec_last_done > t:
                t = self._vec_last_done
                cause, detail = "vector-drain", f"last result at {t:.1f}"
        elif tail == TAIL_MEMFENCE:
            if outstanding and max(outstanding) > t:
                t = max(outstanding)
                cause, detail = "lsu", f"{len(outstanding)} outstanding, last at {t:.1f}"
        elif tail == TAIL_LSU_CAP:
            if (len(outstanding) >= self.config.max_outstanding_mem
                    and min(outstanding) > t):
                t = min(outstanding)
                cause, detail = "lsu", f"all {len(outstanding)} slots busy until {t:.1f}"
        return cause, detail

    def _exec_st_fe(self, instr: Instruction) -> None:
        t = self._reg_ready(self.clock, instr.rd, instr.rs1)
        addr = self._read_reg(instr.rs1)
        done = self.memory.fe_store(self.pe_id, t, addr, self._read_reg(instr.rd))
        if self._tr is not None:
            self._tr.sync(self.pe_id, "store", t, done - t, addr,
                          self._read_reg(instr.rd))
        heapq.heappush(self._outstanding, done)
        self.counters.loadstore_instructions += 1
        self._track_end(done)
        self._retire(t)

    def _exec_memfence(self, instr: Instruction) -> None:
        t = self.clock
        if self._outstanding:
            last = max(self._outstanding)
            if last > t:
                self.counters.stall_lsu += last - t
                t = last
            self._outstanding.clear()
        self.counters.loadstore_instructions += 1
        self._retire(t)

    def _exec_halt(self, instr: Instruction) -> None:
        t = max(self.clock, self._vec_last_done, self._lsu_port_free)
        if self._outstanding:
            t = max(t, max(self._outstanding))
        self.counters.instructions += 1
        self.status = PEStatus.HALTED
        self.clock = t
        self._end_time = max(self._end_time, t)

    def _exec_nop(self, instr: Instruction) -> None:
        self.counters.scalar_instructions += 1
        self._retire(self.clock)

    _DISPATCH = {
        Opcode.SET_VL: _exec_set,
        Opcode.SET_MR: _exec_set,
        Opcode.SET_FX: _exec_set,
        Opcode.V_DRAIN: _exec_v_drain,
        Opcode.MV: _exec_vector,
        Opcode.VV: _exec_vector,
        Opcode.VS: _exec_vector,
        Opcode.ALU: _exec_alu,
        Opcode.MOV: _exec_mov,
        Opcode.MOVI: _exec_movi,
        Opcode.BRANCH: _exec_branch,
        Opcode.JMP: _exec_jmp,
        Opcode.LD_SRAM: _exec_ld_sram,
        Opcode.ST_SRAM: _exec_st_sram,
        Opcode.LD_REG: _exec_ld_reg,
        Opcode.ST_REG: _exec_st_reg,
        Opcode.LD_FE: _exec_ld_fe,
        Opcode.ST_FE: _exec_st_fe,
        Opcode.MEMFENCE: _exec_memfence,
        Opcode.HALT: _exec_halt,
        Opcode.NOP: _exec_nop,
    }
