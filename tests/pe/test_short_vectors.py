"""Each vector path must compute exactly what the eager reference does.

``short_vector_op`` runs MV/VV/VS instructions of at most 32 elements and
width <= 32 bits on Python integers; ``long_vector_op`` runs the longer
and 64-bit ones as one NumPy computation.  The oracle is the eager op
the reference interpreter runs, ``repro.pe.reference.eager_vector_op``:
``ScratchpadView.read_vector`` -> ``apply_vertical`` (->
``apply_horizontal``) -> ``write_vector``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.isa import assemble
from repro.isa.instructions import Opcode
from repro.pe import PE, FlatMemory
from repro.pe.batch import VectorOpQueue
from repro.pe.reference import ReferencePE, eager_vector_op as reference_op
from repro.pe.vector_unit import (
    SHORT_VECTOR_ELEMENTS,
    long_vector_op,
    short_vector_op,
)

SP_BYTES = 4096
VOPS = ("add", "sub", "mul", "min", "max", "nop")
HOPS = ("add", "min", "max")
#: Largest long op drawn, in elements.
LONG_ELEMENTS = 256


def _shape(draw, opcode, least, most):
    """``(rows, cols)`` of an ``opcode`` op of ``least``..``most``
    elements."""
    if opcode is not Opcode.MV:
        return 1, draw(st.integers(least, most))
    rows = draw(st.integers(1, most))
    cols = draw(st.integers(-(-least // rows), most // rows))
    return rows, cols


@st.composite
def vector_ops(draw):
    """Short ops, long ops (33-256 elements at 8-32 bits) and 64-bit ops
    of 1-256 elements."""
    opcode = draw(st.sampled_from((Opcode.MV, Opcode.VV, Opcode.VS)))
    kind = draw(st.sampled_from(("short", "long", "64-bit")))
    if kind == "short":
        width = draw(st.sampled_from((8, 16, 32)))
        rows, cols = _shape(draw, opcode, 1, SHORT_VECTOR_ELEMENTS)
    elif kind == "long":
        width = draw(st.sampled_from((8, 16, 32)))
        rows, cols = _shape(draw, opcode, SHORT_VECTOR_ELEMENTS + 1,
                            LONG_ELEMENTS)
    else:
        width = 64
        rows, cols = _shape(draw, opcode, 1, LONG_ELEMENTS)
    esz = width // 8
    if opcode is Opcode.MV:
        n1, n2, nd = rows * cols * esz, cols * esz, rows * esz
    else:
        n1 = nd = cols * esz
        n2 = n1 if opcode is Opcode.VV else esz

    def odd(nbytes):
        return st.integers(0, (SP_BYTES - nbytes - 1) // 2).map(
            lambda k: 2 * k + 1)

    src1 = draw(odd(n1))
    src2 = draw(odd(n2))
    # The destination overlaps a source (at any byte offset) or lies at
    # an odd address of its own.
    dst = draw(st.one_of(
        odd(nd),
        st.integers(max(0, src1 - nd + 1), min(SP_BYTES - nd, src1 + n1 - 1)),
        st.integers(max(0, src2 - nd + 1), min(SP_BYTES - nd, src2 + n2 - 1)),
    ))
    return dict(opcode=opcode, vop=draw(st.sampled_from(VOPS)),
                hop=draw(st.sampled_from(HOPS)), width=width, rows=rows,
                cols=cols, fx=draw(st.integers(0, 63)),
                src1=src1, src2=src2, dst=dst)


@settings(derandomize=True, max_examples=1800, deadline=None)
@given(op=vector_ops(), seed=st.integers(0, 2**32 - 1))
def test_short_path_matches_eager_reference(op, seed):
    """``PE._vector_effect`` (the short path up to 32 elements at <= 32
    bits, the long path beyond) leaves the reference's bytes."""
    data = np.random.default_rng(seed).integers(0, 256, SP_BYTES,
                                                dtype=np.uint8)
    expected = data.copy()
    reference_op(expected, **op)
    pe = PE()
    pe.scratchpad = data
    pe.fx = op.pop("fx")
    pe._vector_effect(**op)
    assert pe._vq.op is None
    assert np.array_equal(data, expected), op


@pytest.mark.parametrize("opcode,vop,hop,message", [
    (Opcode.VV, "div", None, "unknown vertical op 'div'"),
    (Opcode.MV, "div", "add", "unknown vertical op 'div'"),
    (Opcode.MV, "add", "avg", "unknown horizontal op 'avg'"),
])
def test_unknown_ops_raise_the_reference_error(opcode, vop, hop, message):
    op = dict(opcode=opcode, vop=vop, hop=hop, width=16, rows=2, cols=4,
              fx=0, src1=1, src2=33, dst=65)
    if opcode is not Opcode.MV:
        op["rows"] = 1
    data = np.zeros(SP_BYTES, dtype=np.uint8)
    for vector_op in (reference_op, short_vector_op, long_vector_op):
        with pytest.raises(SimulationError, match=message):
            vector_op(data, **op)


@pytest.mark.parametrize("vl,width,queued", [
    (SHORT_VECTOR_ELEMENTS, 16, False),
    (SHORT_VECTOR_ELEMENTS + 1, 16, True),
    (2, 64, True),
])
def test_long_and_64_bit_ops_still_queue(monkeypatch, vl, width, queued):
    """Ops past 32 elements or at 64 bits go through ``VectorOpQueue``;
    the rest never reach it, and PE leaves the same bytes as the
    eager ReferencePE."""
    pushes = []
    original = VectorOpQueue.push

    def counting_push(self, pe, *args, **kwargs):
        pushes.append(args)
        return original(self, pe, *args, **kwargs)

    monkeypatch.setattr(VectorOpQueue, "push", counting_push)
    program = assemble(f"""
        set.vl {vl}
        mov.imm r1, 1
        mov.imm r2, 301
        mov.imm r3, 3
        v.v.add[{width}] r3, r1, r2
        halt
    """)
    scratchpads = {}
    for pe_class in (PE, ReferencePE):
        pe = pe_class(memory=FlatMemory())
        pe.scratchpad[:] = np.random.default_rng(7).integers(
            0, 256, pe.scratchpad.size, dtype=np.uint8)
        pe.run(program)
        scratchpads[pe_class] = pe.scratchpad.copy()
    assert len(pushes) == (1 if queued else 0)
    assert np.array_equal(scratchpads[PE], scratchpads[ReferencePE])
