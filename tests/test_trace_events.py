"""Tests for the MemoryTrace container."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace import MemOp, MemoryTrace, TraceBuilder


def _mixed_trace():
    return MemoryTrace(
        pc=[0, 1, 0, 2],
        addr=[0, 64, 128, 192],
        op=[MemOp.LOAD, MemOp.STORE, MemOp.PREFETCH, MemOp.PREFETCH_NTA],
    )


class TestMemOp:
    def test_demand_classification(self):
        assert MemOp.LOAD.is_demand and MemOp.STORE.is_demand
        assert not MemOp.PREFETCH.is_demand


class TestMemoryTrace:
    def test_basic_counts(self):
        t = _mixed_trace()
        assert len(t) == 4
        assert t.n_demand == 2
        assert t.n_prefetch == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            MemoryTrace([0], [0, 1], [0])

    def test_negative_addr_rejected(self):
        with pytest.raises(TraceError):
            MemoryTrace([0], [-1], [0])

    def test_bad_op_rejected(self):
        with pytest.raises(TraceError):
            MemoryTrace([0], [0], [7])

    def test_arrays_readonly(self):
        t = _mixed_trace()
        with pytest.raises(ValueError):
            t.addr[0] = 5

    def test_line_addr(self):
        t = MemoryTrace.loads([0, 0, 0], [0, 63, 64])
        assert t.line_addr(64).tolist() == [0, 0, 1]

    def test_line_addr_bad_line_size(self):
        t = _mixed_trace()
        with pytest.raises(TraceError):
            t.line_addr(48)

    def test_demand_only_strips_prefetches(self):
        t = _mixed_trace()
        d = t.demand_only()
        assert len(d) == 2
        assert d.n_prefetch == 0
        assert d.addr.tolist() == [0, 64]

    def test_select(self):
        t = _mixed_trace()
        sel = t.select(t.pc == 0)
        assert len(sel) == 2

    def test_select_bad_mask(self):
        t = _mixed_trace()
        with pytest.raises(TraceError):
            t.select(np.array([True]))

    def test_slicing(self):
        t = _mixed_trace()
        assert len(t[1:3]) == 2
        assert t[1:3].addr.tolist() == [64, 128]

    def test_non_slice_index_rejected(self):
        with pytest.raises(TraceError):
            _mixed_trace()[0]

    def test_concat(self):
        t = _mixed_trace()
        cc = MemoryTrace.concat([t, t])
        assert len(cc) == 8
        assert cc[0:4] == t

    def test_concat_empty(self):
        assert len(MemoryTrace.concat([])) == 0

    def test_equality(self):
        assert _mixed_trace() == _mixed_trace()
        assert not (_mixed_trace() == _mixed_trace()[0:2])

    def test_footprint_lines(self):
        t = MemoryTrace.loads([0, 0, 0, 0], [0, 8, 64, 4096])
        assert t.footprint_lines(64) == 3

    def test_unique_pcs(self):
        assert _mixed_trace().unique_pcs().tolist() == [0, 1, 2]

    def test_iter_chunks(self):
        t = _mixed_trace()
        chunks = list(t.iter_chunks(3))
        assert [len(c) for c in chunks] == [3, 1]
        assert MemoryTrace.concat(chunks) == t

    def test_iter_chunks_bad(self):
        with pytest.raises(TraceError):
            list(_mixed_trace().iter_chunks(0))

    def test_repr(self):
        assert "n=4" in repr(_mixed_trace())


class TestTraceBuilder:
    def test_empty(self):
        assert len(TraceBuilder().build()) == 0

    def test_append_uniform(self):
        b = TraceBuilder()
        b.append_uniform(3, np.array([0, 64, 128]), MemOp.LOAD)
        t = b.build()
        assert t.pc.tolist() == [3, 3, 3]
        assert t.n_demand == 3

    def test_mismatched_block_rejected(self):
        b = TraceBuilder()
        with pytest.raises(TraceError):
            b.append_block(np.array([1]), np.array([1, 2]), np.array([0]))

    def test_order_preserved(self):
        b = TraceBuilder()
        b.append_uniform(0, np.array([0]), MemOp.LOAD)
        b.append_uniform(1, np.array([64]), MemOp.STORE)
        t = b.build()
        assert t.pc.tolist() == [0, 1]
        assert t.op.tolist() == [int(MemOp.LOAD), int(MemOp.STORE)]
