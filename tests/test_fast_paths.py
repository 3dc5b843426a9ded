"""The two count-oriented fast paths: vectorized predicate-free path
counts and block-at-a-time batched extends."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.data import GraphData
from repro.graphs.schema import GraphSchema
from repro.proc.lbp import _try_vectorized_count, compile_lbp, run_lbp
from repro.proc.operators import PhysBatchExtend
from repro.proc.plan import Predicate as Pr
from repro.proc.plan import QueryEdge as E
from repro.proc.plan import QuerySpec, compile_logical
from repro.proc.volcano import ColumnarAdapter, run_volcano
from repro.storage.graph_store import GraphStore, StorageConfig


def _count_spec(hops, label="knows", vlabel="Person"):
    vars_ = [chr(ord("a") + i) for i in range(hops + 1)]
    return QuerySpec(
        f"c{hops}", {v: vlabel for v in vars_},
        [E(vars_[i], vars_[i + 1], label) for i in range(hops)],
        [], "count",
    )


class TestVectorizedCount:
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_matches_volcano(self, ldbc_store, hops):
        spec = _count_spec(hops)
        fast = _try_vectorized_count(ldbc_store, spec, None)
        slow = run_volcano(ColumnarAdapter(ldbc_store), spec)
        assert fast == slow

    def test_single_cardinality_chain(self, ldbc_store):
        spec = QuerySpec(
            "r", {"c0": "Comment", "c1": "Comment", "c2": "Comment"},
            [E("c0", "c1", "replyOf"), E("c1", "c2", "replyOf")],
            [], "count",
        )
        fast = _try_vectorized_count(ldbc_store, spec, None)
        assert fast == run_volcano(ColumnarAdapter(ldbc_store), spec)

    def test_mixed_labels_bwd(self, ldbc_store):
        spec = QuerySpec(
            "m", {"p": "Person", "c": "Comment"},
            [E("c", "p", "hasCreator")], [], "count", ["p", "c"],
        )
        fast = _try_vectorized_count(ldbc_store, spec, None)
        assert fast == run_volcano(ColumnarAdapter(ldbc_store), spec)

    def test_declines_predicates(self, ldbc_store):
        spec = QuerySpec(
            "p", {"a": "Person", "b": "Person"},
            [E("a", "b", "knows", "e")], [Pr("e", "date", ">", 0)], "count",
        )
        assert _try_vectorized_count(ldbc_store, spec, None) is None

    def test_declines_star(self, ldbc_store):
        spec = QuerySpec(
            "s", {"p": "Person", "o": "Org", "c": "Comment"},
            [E("p", "o", "workAt"), E("p", "c", "likes")], [], "count",
        )
        assert _try_vectorized_count(ldbc_store, spec, None) is None
        # The general engine still answers it (checked vs Volcano).
        assert run_lbp(ldbc_store, spec) == run_volcano(
            ColumnarAdapter(ldbc_store), spec
        )

    def test_scan_range(self, ldbc_store):
        spec = _count_spec(2)
        n = ldbc_store.n_vertices["Person"]
        parts = [
            _try_vectorized_count(ldbc_store, spec, (lo, min(lo + 13, n)))
            for lo in range(0, n, 13)
        ]
        assert sum(parts) == _try_vectorized_count(ldbc_store, spec, None)


def _complete_digraph(n):
    """n vertices, every ordered pair (self-loops included) an n-n edge."""
    sch = GraphSchema()
    sch.add_vertex("V")
    sch.add_edge("e", "V", "V", "n-n")
    src, dst = np.divmod(np.arange(n * n), n)
    data = GraphData(
        sch,
        {"V": pd.DataFrame({"_id": range(n)})},
        {"e": pd.DataFrame({"src": src, "dst": dst})},
    )
    data.validate()
    return data


def test_count_exact_past_2_pow_53():
    store = GraphStore.build(_complete_digraph(63), StorageConfig.gf_cl())
    got = run_lbp(store, _count_spec(8, label="e", vlabel="V"))
    assert type(got) is int
    assert got == 63**9 == 15633814156853823 > 2**53


_CONFIGS = {
    "gf_cl": StorageConfig.gf_cl(),
    "no_null_compress": StorageConfig(),
    "single_card_csr": StorageConfig(single_card_as_vcol=False),
}

_PATHS = {
    "knows_3hop": _count_spec(3),
    # Backward over a CSR, then forward over hasCreator (a vertex column
    # unless single-card edges are forced into CSRs).
    "hasCreator_bwd": QuerySpec(
        "hc", {"p": "Person", "c": "Comment", "q": "Person"},
        [E("c", "p", "hasCreator"), E("c", "q", "hasCreator")],
        [], "count", ["p", "c", "q"],
    ),
    # Root comments have no replyOf: NULLs in the middle hops.
    "replyOf_chain": QuerySpec(
        "r", {f"c{i}": "Comment" for i in range(4)},
        [E(f"c{i}", f"c{i + 1}", "replyOf") for i in range(3)],
        [], "count",
    ),
}


@pytest.fixture(scope="module", params=list(_CONFIGS))
def any_store(request, ldbc):
    return GraphStore.build(ldbc, _CONFIGS[request.param])


class TestSparseFrontier:
    @pytest.mark.parametrize("path", list(_PATHS))
    def test_partition_sums_to_whole(self, any_store, path):
        spec = _PATHS[path]
        n = any_store.n_vertices[compile_logical(spec)[0].label]
        cuts = np.unique([0, 1, 2, 7, 40, n // 3, n // 2 + 5, n - 1, n])
        parts = [
            _try_vectorized_count(any_store, spec, (int(lo), int(hi)))
            for lo, hi in zip(cuts, cuts[1:])
        ]
        whole = _try_vectorized_count(any_store, spec, None)
        assert all(type(c) is int for c in parts)
        assert whole > 0 and sum(parts) == whole
        adapter = ColumnarAdapter(any_store)
        for rng in [(0, 7), (n // 3, n // 3 + 25), (n - 1, n)]:
            assert _try_vectorized_count(any_store, spec, rng) == run_volcano(
                adapter, spec, scan_range=rng
            )

    def test_frontier_dies_out(self, any_store, ldbc):
        spec = _PATHS["replyOf_chain"]
        reply = ldbc.etables["replyOf"]
        parent = dict(zip(reply["src"], reply["dst"]))
        root = next(c for c in range(len(ldbc.vtables["Comment"]))
                    if c not in parent)
        # Dies at the first hop, and (from a reply to a root) at the second.
        child_of_root = next(c for c, p in parent.items() if p not in parent)
        for c in (root, int(child_of_root)):
            assert _try_vectorized_count(any_store, spec, (c, c + 1)) == 0


class TestBatchExtend:
    def _ops(self, store, spec):
        scan, _ = compile_lbp(store, spec)
        out, op = [], scan
        while op is not None:
            out.append(op)
            op = op.next
        return out

    def test_projection_plans_use_batch_extends(self, ldbc_store):
        spec = QuerySpec(
            "q", {"a": "Person", "b": "Person", "c": "Person"},
            [E("a", "b", "knows"), E("b", "c", "knows")],
            [Pr("a", "id", "=", 1), Pr("c", "gender", "=", "f")],
            [("c", "fName")],
        )
        ops = self._ops(ldbc_store, spec)
        batches = [o for o in ops if isinstance(o, PhysBatchExtend)]
        assert len(batches) == 2
        # The terminal batch absorbed the c filter and the RETURN gather.
        assert batches[-1].preds and batches[-1].vprop_reads

    def test_batch_restores_chunk_state(self, ldbc_store):
        from repro.proc.chunk import Block, IntermediateChunk, ListGroup
        from repro.proc.operators import CountSink

        es = ldbc_store.edge("knows")
        ext = PhysBatchExtend("a", "b", None, es, "fwd", [], [], [])
        sink = CountSink()
        ext.next = sink
        chunk = IntermediateChunk()
        chunk.push_group(
            ListGroup({"a": Block(np.arange(20, dtype=np.int64))}, 20)
        )
        before = (len(chunk.groups), dict(chunk.key_group),
                  chunk.groups[0].cur_idx, set(chunk.groups[0].blocks))
        ext.consume(chunk)
        after = (len(chunk.groups), dict(chunk.key_group),
                 chunk.groups[0].cur_idx, set(chunk.groups[0].blocks))
        assert before == after
        assert sink.count > 0

    def test_batch_on_flat_group(self, ldbc_store):
        from repro.proc.chunk import Block, IntermediateChunk, ListGroup
        from repro.proc.operators import CountSink

        es = ldbc_store.edge("knows")
        ext = PhysBatchExtend("a", "b", None, es, "fwd", [], [], [])
        sink = CountSink()
        ext.next = sink
        chunk = IntermediateChunk()
        chunk.push_group(
            ListGroup({"a": Block(np.arange(5, dtype=np.int64))}, 5,
                      cur_idx=2)
        )
        ext.consume(chunk)
        assert sink.count == es.csr("fwd").degree(2)
