"""Reproduction of "VIP: A Versatile Inference Processor" (HPCA 2019).

This package implements, in pure Python, the full system described in the
paper: the VIP instruction set and assembler, a cycle-approximate
execution-driven simulator of the VIP processing engine (PE), an HMC-like
3D-stacked DRAM timing model, an 8x4 2D-torus network-on-chip, a 128-PE
full-system co-simulator, the three workload families the paper evaluates
(min-sum belief propagation on grid MRFs, VGG-16/19 CNNs, and MLP
fully-connected layers), kernel generators that emit VIP assembly for those
workloads, analytic baseline models (Titan X, Eyeriss, Tile-BP, ...), and a
paper suite (``python -m repro.experiments``) that regenerates every table
and figure in the paper's evaluation.

Quickstart::

    from repro import Assembler, PE, VIPConfig

    asm = '''
        set.vl 16
        v.v.add[16] r1, r2, r3
        halt
    '''
    pe = PE(VIPConfig())
    program = Assembler().assemble(asm)
    result = pe.run(program)
    print(result.cycles)
"""

from repro.errors import (
    AssemblerError,
    EncodingError,
    ReproError,
    SimulationError,
    TimingHazardError,
)
from repro.fixedpoint import FixedPointFormat, from_fixed, to_fixed
from repro.isa import Assembler, Instruction, Opcode, Program, disassemble
from repro.pe import PE, PEResult
from repro.system import Chip, VIPConfig

__all__ = [
    "Assembler",
    "AssemblerError",
    "Chip",
    "EncodingError",
    "Instruction",
    "Opcode",
    "PE",
    "PEResult",
    "Program",
    "ReproError",
    "SimulationError",
    "TimingHazardError",
    "VIPConfig",
    "disassemble",
    "FixedPointFormat",
    "from_fixed",
    "to_fixed",
]

__version__ = "1.0.0"
