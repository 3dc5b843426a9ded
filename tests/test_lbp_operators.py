"""Operator-level LBP tests: fusion decisions, state restore, views."""
import numpy as np
import pytest

from repro.bench.queries_job import JOB_QUERIES
from repro.graphs.datasets import imdb_lite
from repro.proc import expressions
from repro.proc.chunk import Block, IntermediateChunk, ListGroup
from repro.proc.lbp import compile_lbp, run_lbp
from repro.proc.operators import (
    CollectSink,
    CountSink,
    PhysCountColumnExtend,
    PhysCountListExtend,
    PhysExtendFilterCount,
    PhysFilter,
    PhysListExtend,
    PhysScan,
    PhysVertexPropRead,
    concat_ranges,
)
from repro.proc.plan import Predicate as Pr
from repro.proc.plan import QueryEdge as E
from repro.proc.plan import QuerySpec
from repro.proc.volcano import ColumnarAdapter, run_volcano
from repro.storage.graph_store import GraphStore, StorageConfig


def _ops(store, spec):
    scan, _ = compile_lbp(store, spec)
    out, op = [], scan
    while op is not None:
        out.append(op)
        op = op.next
    return out


class TestConcatRanges:
    def test_contiguous_detected(self):
        starts = np.array([0, 3, 7])
        ends = np.array([3, 7, 9])
        idx, contig, lens = concat_ranges(starts, ends)
        assert idx is None and contig == (0, 9)
        assert list(lens) == [3, 4, 2]

    def test_contiguous_with_empty_lists(self):
        starts = np.array([0, 3, 3, 7])
        ends = np.array([3, 3, 7, 9])
        idx, contig, lens = concat_ranges(starts, ends)
        assert contig == (0, 9)

    def test_empty_lists_do_not_hide_gaps(self):
        # Null-compressed empties read (0, 0) and do not break a run...
        _, contig, _ = concat_ranges(np.array([0, 0, 3]), np.array([3, 0, 5]))
        assert contig == (0, 5)
        # ...and an empty list sitting at 5 does not bridge the gap [3, 5).
        idx, contig, _ = concat_ranges(np.array([0, 5, 5]), np.array([3, 5, 8]))
        assert contig is None
        assert list(idx) == [0, 1, 2, 5, 6, 7]

    def test_non_contiguous_index(self):
        starts = np.array([5, 0])
        ends = np.array([7, 2])
        idx, contig, lens = concat_ranges(starts, ends)
        assert contig is None
        assert list(idx) == [5, 6, 0, 1]

    def test_all_empty(self):
        idx, contig, lens = concat_ranges(np.array([4, 4]), np.array([4, 4]))
        assert len(idx) == 0 and contig is None


class TestFusion:
    def test_count_khop_fuses_terminal_extend(self, ldbc_store):
        spec = QuerySpec(
            "q", {"a": "Person", "b": "Person"},
            [E("a", "b", "knows")], [], "count",
        )
        assert isinstance(_ops(ldbc_store, spec)[-1], PhysCountListExtend)

    def test_count_single_card_fuses_column_extend(self, ldbc_store):
        spec = QuerySpec(
            "q", {"c": "Comment", "p": "Person"},
            [E("c", "p", "hasCreator")], [], "count",
        )
        assert isinstance(_ops(ldbc_store, spec)[-1], PhysCountColumnExtend)

    def test_edge_filter_tail_fuses(self, ldbc_store):
        spec = QuerySpec(
            "q", {"a": "Person", "b": "Person"},
            [E("a", "b", "knows", "e")], [Pr("e", "date", ">", 5)], "count",
        )
        assert isinstance(_ops(ldbc_store, spec)[-1], PhysExtendFilterCount)

    def test_vertex_filter_tail_batches_not_count_fuses(self, ldbc_store):
        # A vertex-property filter cannot use the factorized-count tail;
        # it is absorbed into a block-at-a-time PhysBatchExtend instead.
        from repro.proc.operators import PhysBatchExtend

        spec = QuerySpec(
            "q", {"a": "Person", "b": "Person"},
            [E("a", "b", "knows")], [Pr("b", "gender", "=", "f")], "count",
        )
        ops = _ops(ldbc_store, spec)
        assert isinstance(ops[-1], CountSink)
        batch = [o for o in ops if isinstance(o, PhysBatchExtend)]
        assert len(batch) == 1
        assert batch[0].vprop_reads and batch[0].preds

    def test_projection_never_fuses(self, ldbc_store):
        spec = QuerySpec(
            "q", {"a": "Person", "b": "Person"},
            [E("a", "b", "knows", "e")], [Pr("e", "date", ">", 5)],
            [("b", "id")],
        )
        assert isinstance(_ops(ldbc_store, spec)[-1], CollectSink)

    def test_mirrored_rhs_predicate_fuses(self, ldbc_store):
        spec = QuerySpec(
            "q", {"a": "Person", "b": "Person", "c": "Person"},
            [E("a", "b", "knows", "e1"), E("b", "c", "knows", "e2")],
            [Pr("e1", "date", ">", 5),
             Pr("e2", "date", ">", None, rhs_var="e1", rhs_prop="date")],
            "count", ["c", "b", "a"],
        )
        assert isinstance(_ops(ldbc_store, spec)[-1], PhysExtendFilterCount)


class TestStateRestore:
    """Operators must leave the chunk exactly as they found it."""

    def _capture(self, chunk):
        return (
            len(chunk.groups),
            {k: v for k, v in chunk.key_group.items()},
            [g.cur_idx for g in chunk.groups],
            [set(g.blocks) for g in chunk.groups],
        )

    def test_list_extend_restores(self, ldbc_store):
        es = ldbc_store.edge("knows")
        ext = PhysListExtend("a", "b", None, es, "fwd", [])
        sink = CountSink()
        ext.next = sink
        chunk = IntermediateChunk()
        chunk.push_group(
            ListGroup({"a": Block(np.arange(10, dtype=np.int64))}, 10)
        )
        before = self._capture(chunk)
        ext.consume(chunk)
        assert self._capture(chunk) == before

    def test_filter_restores(self, ldbc_store):
        f = PhysFilter(Pr("a", "x", ">", 3))
        sink = CountSink()
        f.next = sink
        chunk = IntermediateChunk()
        chunk.push_group(
            ListGroup(
                {"a": Block(np.arange(5, dtype=np.int64)),
                 "a.x": Block(np.arange(5, dtype=np.int64))},
                5,
            )
        )
        before = self._capture(chunk)
        f.consume(chunk)
        assert self._capture(chunk) == before
        assert sink.count == 1  # only value 4 passes


class TestZeroCopyViews:
    def test_list_extend_blocks_are_csr_views(self, ldbc_store):
        es = ldbc_store.edge("knows")
        csr = es.csr("fwd")
        seen = []

        class Probe(CountSink):
            def consume(self, chunk):
                g = chunk.groups[-1]
                seen.append(g.blocks["b"].data)
                super().consume(chunk)

        ext = PhysListExtend("a", "b", None, es, "fwd", [])
        ext.next = Probe()
        chunk = IntermediateChunk()
        chunk.push_group(
            ListGroup({"a": Block(np.arange(5, dtype=np.int64))}, 5)
        )
        ext.consume(chunk)
        for arr in seen:
            assert arr.base is csr.nbr or arr.base is csr.nbr.base


class TestFilterCombinations:
    def _run(self, chunk_builder, pred):
        f = PhysFilter(pred)
        sink = CountSink()
        f.next = sink
        f.consume(chunk_builder())
        return sink.count

    def test_flat_flat(self):
        def build():
            c = IntermediateChunk()
            c.push_group(ListGroup(
                {"a.x": Block(np.array([1, 9]))}, 2, cur_idx=1))
            return c
        assert self._run(build, Pr("a", "x", ">", 5)) == 1
        assert self._run(build, Pr("a", "x", "<", 5)) == 0

    def test_list_flat(self):
        def build():
            c = IntermediateChunk()
            c.push_group(ListGroup(
                {"a.x": Block(np.array([7]))}, 1, cur_idx=0))
            c.push_group(ListGroup(
                {"b.y": Block(np.array([1, 8, 9]))}, 3))
            return c
        # b.y > a.x -> two of three pass
        assert self._run(
            build, Pr("b", "y", ">", None, rhs_var="a", rhs_prop="x")
        ) == 2
        # a.x > b.y (flat lhs vs unflat rhs -> mirrored) -> one passes
        assert self._run(
            build, Pr("a", "x", ">", None, rhs_var="b", rhs_prop="y")
        ) == 1

    def test_list_list_same_group(self):
        def build():
            c = IntermediateChunk()
            c.push_group(ListGroup(
                {"a.x": Block(np.array([1, 5, 9])),
                 "a.y": Block(np.array([2, 5, 3]))}, 3))
            return c
        assert self._run(
            build, Pr("a", "x", "<", None, rhs_var="a", rhs_prop="y")
        ) == 1
        assert self._run(
            build, Pr("a", "x", "=", None, rhs_var="a", rhs_prop="y")
        ) == 1

    def test_list_list_different_groups_raises(self):
        def build():
            c = IntermediateChunk()
            c.push_group(ListGroup({"a.x": Block(np.array([1, 5]))}, 2))
            c.push_group(ListGroup({"b.y": Block(np.array([2, 5, 3]))}, 3))
            return c
        with pytest.raises(NotImplementedError, match="one group"):
            self._run(
                build, Pr("a", "x", "<", None, rhs_var="b", rhs_prop="y")
            )


def test_scan_block_boundaries(ldbc_store):
    sizes = []

    class Probe(CountSink):
        def consume(self, chunk):
            sizes.append(chunk.groups[0].size)

    scan = PhysScan("a", 2500, block_size=1024)
    scan.next = Probe()
    scan.run()
    assert sizes == [1024, 1024, 452]


def _count_dictionary_masks(monkeypatch) -> list:
    """Record every dictionary-side mask computation."""
    calls = []
    real = expressions._dictionary_mask

    def counted(op, dictionary, lit):
        calls.append((op, dictionary, lit))
        return real(op, dictionary, lit)

    monkeypatch.setattr(expressions, "_dictionary_mask", counted)
    return calls


class _Rows(CountSink):
    """Sink that keeps the decoded values of ``key`` of every tuple."""

    def __init__(self, key):
        super().__init__()
        self.key, self.rows = key, []

    def consume(self, chunk):
        g = chunk.group_of(self.key)
        blk = g.blocks[self.key]
        idx = [g.cur_idx] if g.is_flat else range(g.size)
        self.rows.extend(blk.scalar(i) for i in idx)


class TestDictMaskMemo:
    DICT = np.array(["ab", "cd", "ef"], dtype=object)

    @staticmethod
    def _filter(pred, key):
        f = PhysFilter(pred)
        f.next = _Rows(key)
        return f

    @staticmethod
    def _list_chunk(codes, dictionary, nulls=None):
        c = IntermediateChunk()
        c.push_group(ListGroup(
            {"v.p": Block(np.asarray(codes, dtype=np.uint8), nulls,
                          dictionary)},
            len(codes),
        ))
        return c

    def test_many_blocks_evaluate_the_dictionary_once(self, monkeypatch):
        calls = _count_dictionary_masks(monkeypatch)
        f = self._filter(Pr("v", "p", "<>", "cd"), "v.p")
        rng = np.random.default_rng(3)
        want = []
        for _ in range(8):
            codes = rng.integers(0, 4, 40)  # code 3 = NULL
            nulls = codes == 3
            f.consume(self._list_chunk(codes, self.DICT, nulls))
            want += [self.DICT[c] for c in codes if c in (0, 2)]
        assert len(calls) == 1
        assert f.next.rows == want

    def test_new_dictionary_object_recomputes(self, monkeypatch):
        calls = _count_dictionary_masks(monkeypatch)
        f = self._filter(Pr("v", "p", "=", "cd"), "v.p")
        other = np.array(["cd", "ab"], dtype=object)  # "cd" is code 0 here
        same_values = self.DICT.copy()
        for d in (self.DICT, other, self.DICT, other, same_values):
            f.consume(self._list_chunk([0, 1, 0, 1], d))
        assert f.next.rows == ["cd"] * 10
        assert len(calls) == 5

    def test_changing_flat_rhs(self, monkeypatch):
        calls = _count_dictionary_masks(monkeypatch)
        # v.p = u.q, with u flat: each u row is a new literal.
        f = self._filter(Pr("v", "p", "=", None, rhs_var="u", rhs_prop="q"),
                         "v.p")
        u_codes = [0, 2, 2, 1, 3, 0]  # code 3 = NULL
        c = IntermediateChunk()
        c.push_group(ListGroup(
            {"u.q": Block(np.array(u_codes, dtype=np.uint8),
                          np.array(u_codes) == 3, self.DICT)},
            len(u_codes),
        ))
        c.push_group(ListGroup(
            {"v.p": Block(np.array([2, 1, 0, 2, 2], dtype=np.uint8), None,
                          self.DICT)},
            5,
        ))
        per_row = []
        for i in range(len(u_codes)):
            c.groups[0].cur_idx = i
            before = len(f.next.rows)
            f.consume(c)
            per_row.append(f.next.rows[before:])
        assert per_row == [
            ["ab"], ["ef"] * 3, ["ef"] * 3, ["cd"], [], ["ab"],
        ]
        # The entry is replaced whenever the literal changes (NULL rows
        # never evaluate).
        assert [lit for _, _, lit in calls] == ["ab", "ef", "cd", "ab"]

    def test_mirrored_flat_lhs(self, monkeypatch):
        _count_dictionary_masks(monkeypatch)
        # u.q < v.p with u flat evaluates v.p > u.q on v's dictionary.
        f = self._filter(Pr("u", "q", "<", None, rhs_var="v", rhs_prop="p"),
                         "v.p")
        c = IntermediateChunk()
        c.push_group(ListGroup(
            {"u.q": Block(np.array(["ab", "cd"], dtype=object))}, 2))
        c.push_group(ListGroup(
            {"v.p": Block(np.array([0, 1, 2], dtype=np.uint8), None,
                          self.DICT)},
            3,
        ))
        got = []
        for i in range(2):
            c.groups[0].cur_idx = i
            before = len(f.next.rows)
            f.consume(c)
            got.append(f.next.rows[before:])
        assert got == [["cd", "ef"], ["ef"]]

    def test_one_mask_per_predicate_site_per_query(
        self, monkeypatch, imdb_store
    ):
        # Small blocks: many blocks reach every predicate site.
        calls = _count_dictionary_masks(monkeypatch)
        for spec in JOB_QUERIES:
            want = run_lbp(imdb_store, spec)
            calls.clear()
            assert run_lbp(imdb_store, spec, block_size=16) == want, spec.name
            assert len(calls) <= len(spec.predicates), spec.name

    def test_two_compiles_on_stores_with_different_dictionaries(
        self, imdb_store
    ):
        other = GraphStore.build(
            imdb_lite(sf=0.02, seed=11), StorageConfig.gf_cl()
        )
        assert (
            other.vprop_column("keyword", "keyword").dictionary
            is not imdb_store.vprop_column("keyword", "keyword").dictionary
        )
        for spec in JOB_QUERIES:
            # Both pipelines are compiled before either runs.
            pipes = [
                (store, *compile_lbp(store, spec, block_size=64))
                for store in (imdb_store, other, imdb_store)
            ]
            for store, scan, sink in pipes:
                scan.run()
                want = run_volcano(ColumnarAdapter(store), spec)
                assert sink.count == want, spec.name
