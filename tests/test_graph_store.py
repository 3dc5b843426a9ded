"""GraphStore: Table 1 storage decisions, Fig 6 factoring, Table 2 axes."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.data import GraphData
from repro.graphs.schema import GraphSchema, PropSpec
from repro.proc.chunk import Block
from repro.storage.graph_store import GraphStore, StorageConfig
from repro.storage.rv_model import rv_memory_report


def _mini():
    sch = GraphSchema()
    sch.add_vertex("A", PropSpec("x"))
    sch.add_vertex("B", PropSpec("y"))
    sch.add_edge("nn", "A", "B", "n-n", PropSpec("p"))
    sch.add_edge("nn_noprop", "A", "B", "n-n")
    sch.add_edge("n1", "A", "B", "n-1", PropSpec("q"))
    sch.add_edge("one_n", "A", "B", "1-n", PropSpec("r"))
    sch.add_edge("one_one", "A", "B", "1-1", PropSpec("s"))
    vt = {
        "A": pd.DataFrame({"_id": range(4), "x": [1, 2, 3, 4]}),
        "B": pd.DataFrame({"_id": range(4), "y": [5, 6, 7, 8]}),
    }
    et = {
        "nn": pd.DataFrame({"src": [0, 0, 1], "dst": [1, 2, 1], "p": [9, 8, 7]}),
        "nn_noprop": pd.DataFrame({"src": [0, 1], "dst": [0, 0]}),
        "n1": pd.DataFrame({"src": [0, 2], "dst": [1, 1], "q": [1, 2]}),
        "one_n": pd.DataFrame({"src": [0, 0], "dst": [1, 2], "r": [3, 4]}),
        "one_one": pd.DataFrame({"src": [1, 2], "dst": [3, 0], "s": [5, 6]}),
    }
    data = GraphData(sch, vt, et)
    data.validate()
    return data


@pytest.fixture(scope="module")
def store():
    return GraphStore.build(_mini(), StorageConfig.gf_cl())


class TestTable1Decisions:
    """Storage choices per Table 1 of the paper."""

    def test_nn_edges_use_csr_both_directions(self, store):
        es = store.edge("nn")
        assert es.fwd_kind == "csr" and es.bwd_kind == "csr"
        assert es.eprop_kind == "pages"

    def test_n1_forward_is_vertex_column(self, store):
        es = store.edge("n1")
        assert es.fwd_kind == "vcol" and es.bwd_kind == "csr"
        assert es.eprop_kind == "src_vcol"

    def test_1n_backward_is_vertex_column(self, store):
        es = store.edge("one_n")
        assert es.fwd_kind == "csr" and es.bwd_kind == "vcol"
        assert es.eprop_kind == "dst_vcol"

    def test_11_both_directions_vertex_columns(self, store):
        es = store.edge("one_one")
        assert es.fwd_kind == "vcol" and es.bwd_kind == "vcol"
        assert es.eprop_kind == "src_vcol"

    def test_single_card_override_uses_csr(self):
        st = GraphStore.build(
            _mini(), StorageConfig(single_card_as_vcol=False)
        )
        assert st.edge("n1").fwd_kind == "csr"
        assert st.edge("n1").eprop_kind == "src_vcol"


class TestFig6SlotFactoring:
    """Positional offsets are stored only when they are needed."""

    def test_nn_with_props_stores_slots(self, store):
        assert store.edge("nn").csr("fwd").slots is not None

    def test_nn_without_props_omits_slots(self, store):
        assert store.edge("nn_noprop").csr("fwd").slots is None

    def test_single_cardinality_omits_slots(self, store):
        # 1-n forward lives in a CSR but the edge property is addressed
        # by the destination vertex, so no slot is stored.
        assert store.edge("one_n").csr("fwd").slots is None

    def test_old_id_scheme_stores_8_byte_edge_ids(self):
        st = GraphStore.build(
            _mini(), StorageConfig(new_ids=False, zero_suppress=False)
        )
        csr = st.edge("nn").csr("fwd")
        assert csr.edge_ids is not None and csr.edge_ids.dtype == np.int64
        assert csr.slots is None


def _mini_with_nulls():
    """``_mini()`` with one NULL property on every labelled edge."""
    data = _mini()
    for label, prop, row in (
        ("nn", "p", 0), ("n1", "q", 0), ("one_n", "r", 1), ("one_one", "s", 0),
    ):
        col = data.etables[label][prop].astype(object)
        col.iloc[row] = None
        data.etables[label][prop] = col
    return data


_READ_CONFIGS = {
    "gf_cl": StorageConfig.gf_cl(),
    "edge_columns": StorageConfig(edge_prop_storage="edge_columns"),
    "csr_single_card": StorageConfig(single_card_as_vcol=False),
    # Two lists per page, so a page address depends on the list's owner.
    "pages_k2": StorageConfig(null_compress=True, k=2),
}
_LABELLED = {"nn": "p", "n1": "q", "one_n": "r", "one_one": "s"}


@pytest.fixture(scope="module", params=list(_READ_CONFIGS))
def null_store(request):
    data = _mini_with_nulls()
    return data, GraphStore.build(data, _READ_CONFIGS[request.param])


def _expected(data, label, prop):
    """The edge table as sorted (src, dst, value-or-None) triples."""
    t = data.etables[label]
    return sorted(
        (int(s), int(d), None if pd.isna(v) else int(v))
        for s, d, v in zip(t["src"], t["dst"], t[prop])
    )


def _triples(direction, owners, nbrs, vals, nulls, col):
    """(src, dst, value-or-None) triples of a block read."""
    decoded = Block.of_column(vals, nulls, col).decoded()
    out = []
    for o, n, v in zip(owners, nbrs, decoded):
        s, d = (o, n) if direction == "fwd" else (n, o)
        out.append((int(s), int(d), None if v is None else int(v)))
    return sorted(out)


class TestEdgePropertyReads:
    @pytest.mark.parametrize("direction", ["fwd", "bwd"])
    @pytest.mark.parametrize("label", list(_LABELLED))
    def test_batch_read_matches_edge_table(self, null_store, label, direction):
        data, store = null_store
        es, prop = store.edge(label), _LABELLED[label]
        el = data.schema.edges[label]
        n_in = store.n_vertices[el.src if direction == "fwd" else el.dst]
        srcs = np.arange(n_in)
        want = _expected(data, label, prop)
        if es.storage_kind(direction) == "vcol":
            nbr, no_edge = es.nbr_vcol(direction).get_many(srcs)
            vals, nulls, col = es.read_eprops(
                prop, direction, srcs, None, None, nbr
            )
            has = ~no_edge
            got = _triples(
                direction, srcs[has], nbr[has], vals[has], nulls[has], col
            )
            assert got == want
            return
        csr = es.csr(direction)
        starts, ends = csr.ranges_of(srcs)
        lens = ends - starts
        idx = np.concatenate(
            [np.arange(s, e, dtype=np.int64) for s, e in zip(starts, ends)]
        )
        run = (int(idx[0]), int(idx[-1]) + 1)
        assert (idx == np.arange(*run)).all()  # a full scan is one run
        owners, nbr = np.repeat(srcs, lens), csr.nbr[idx]
        for pos in (run, idx):
            for given_nbr in (None, nbr):
                got = _triples(direction, owners, nbr, *es.read_eprops(
                    prop, direction, srcs, lens, pos, given_nbr
                ))
                assert got == want
        # One adjacency list at a time, as ListExtend reads it.
        got = []
        for v, s, e in zip(srcs, starts, ends):
            if s == e:
                continue
            s, e = int(s), int(e)
            block = es.read_eprops(
                prop, direction, int(v), e - s, (s, e), csr.nbr[s:e]
            )
            got += _triples(direction, [v] * (e - s), csr.nbr[s:e], *block)
        assert sorted(got) == want

    @pytest.mark.parametrize("direction", ["fwd", "bwd"])
    @pytest.mark.parametrize("label", list(_LABELLED))
    def test_scalar_read_matches_edge_table(self, null_store, label, direction):
        data, store = null_store
        es, prop = store.edge(label), _LABELLED[label]
        el = data.schema.edges[label]
        n_in = store.n_vertices[el.src if direction == "fwd" else el.dst]
        got = []
        for v in range(n_in):
            if es.storage_kind(direction) == "vcol":
                nbr = es.nbr_vcol(direction).get_one(v)
                edges = [] if nbr is None else [(int(nbr), None)]
            else:
                csr = es.csr(direction)
                s, e = csr.range_of(v)
                edges = [(int(csr.nbr[i]), i) for i in range(s, e)]
            for nbr, pos in edges:
                val = es.read_eprop_one(
                    prop, es.edge_ref(direction, v, nbr, pos)
                )
                src, dst = (v, nbr) if direction == "fwd" else (nbr, v)
                got.append((src, dst, None if val is None else int(val)))
        assert sorted(got) == _expected(data, label, prop)

    def test_nn_pages_fwd(self, store):
        es = store.edge("nn")
        csr = es.csr("fwd")
        s, e = csr.range_of(0)
        vals, nulls, _ = es.eprops.read_fwd_range("p", s, e)
        assert sorted(vals.astype(int)) == [8, 9]

    def test_n1_prop_by_source_offset(self, store):
        col = store.edge("n1").eprops["q"]
        assert col.get_one(0) == 1 and col.get_one(2) == 2
        assert col.get_one(1) is None

    def test_1n_prop_by_destination_offset(self, store):
        col = store.edge("one_n").eprops["r"]
        assert col.get_one(1) == 3 and col.get_one(2) == 4


class TestMemoryReport:
    def test_components_positive_and_sum(self, store):
        rep = store.memory_report()
        assert rep["total"] == (
            rep["vertex_props"] + rep["edge_props"]
            + rep["fwd_adj"] + rep["bwd_adj"]
        )
        assert all(v > 0 for v in rep.values())

    def test_ablation_totals_shrink_at_scale(self):
        from repro.graphs.datasets import ldbc_lite

        data = ldbc_lite(sf=0.05)
        totals = [rv_memory_report(data)["total"]]
        for _, cfg in StorageConfig.ablation_steps():
            totals.append(GraphStore.build(data, cfg).memory_report()["total"])
        # Each optimization reduces (or ~keeps) the footprint; GF-CL is
        # much smaller than GF-RV (Table 2 shape).
        for a, b in zip(totals, totals[1:]):
            assert b <= a * 1.02
        assert totals[-1] < totals[0] / 1.8

    def test_old_ids_single_card_accounting(self):
        st = GraphStore.build(
            _mini(), StorageConfig(new_ids=False, zero_suppress=False)
        )
        assert st.edge("n1").extra_id_bytes == 8 * 2


def test_build_via_spark(spark):
    data = _mini()
    st_local = GraphStore.build(data, StorageConfig.gf_cl())
    st_spark = GraphStore.build(data, StorageConfig.gf_cl(), spark=spark)
    assert st_spark.memory_report() == st_local.memory_report()
    for name in data.schema.edges:
        a, b = st_local.edge(name), st_spark.edge(name)
        if a.fwd_kind == "csr":
            assert (a.csr("fwd").offsets == b.csr("fwd").offsets).all()
            assert sorted(a.csr("fwd").nbr) == sorted(b.csr("fwd").nbr)
