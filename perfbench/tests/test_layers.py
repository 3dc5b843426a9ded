from perfbench.layers import ancestor_index, layer_metrics, self_times


def span(name, start, end, parent=-1, req=0, n=0, out=None):
    return [name, start, end, parent, req, n, out]


def test_self_time_on_span_tree():
    spans = [
        span("request", 0.0, 10.0),           # 0
        span("op.PhysScan", 1.0, 9.0, 0),      # 1
        span("op.PhysBatchExtend", 2.0, 5.0, 1, n=4),  # 2
        span("CSR.ranges_of", 2.5, 3.0, 2),    # 3
        span("op.CountSink", 6.0, 8.0, 1, n=7, out=7),  # 4
    ]
    st = self_times(spans)
    assert st == [2.0, 3.0, 2.5, 0.5, 2.0]
    assert abs(sum(st) - 10.0) < 1e-12  # self times partition the root


def test_self_time_counts_overlapping_children_once():
    spans = [span("request", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == 5.0


def test_ancestor_index():
    spans = [
        span("storage.build", 0, 4, req=-1),
        span("CSR.__init__", 1, 2, 0, req=-1),
        span("other", 5, 6, req=-1),
    ]
    assert ancestor_index(spans, "storage.build") == [0, 0, -1]


def test_operator_tuples_and_per_request_normalization():
    spans = [
        span("request", 0.0, 10.0, req=0),
        span("op.PhysScan", 1.0, 9.0, 0),
        span("op.PhysBatchExtend", 2.0, 5.0, 1, n=4),
        span("op.CountSink", 3.0, 4.0, 2, n=6, out=6),
        span("request", 10.0, 20.0, req=1),
        span("op.CollectSink", 11.0, 12.0, 4, req=1, n=3),
        span("op.CollectSink.result", 13.0, 16.0, 4, req=1),
    ]
    m = layer_metrics(spans, 2, chunk_stats=(10, 2, 3))
    assert m["proc.op.PhysScan.tuples_out"] == 2.0  # 4 tuples / 2 requests
    assert m["proc.op.PhysBatchExtend.tuples_out"] == 3.0
    assert m["proc.op.CountSink.tuples_out"] == 3.0
    assert m["proc.op.CollectSink.tuples_out"] == 1.5
    assert m["proc.op.PhysScan.calls"] == 0.5
    assert m["proc.op.CollectSink.calls"] == 0.5  # result() is not a call
    assert m["proc.op.CollectSink.self_s"] == 2.0  # (1 + 3) / 2
    assert m["proc.chunk.unflat_share"] == 0.2
    assert m["proc.chunk.max_groups"] == 3.0
    # Request self time not covered by any span: (10 - 8) + (10 - 4).
    assert m["proc.unattributed_s"] == 4.0
