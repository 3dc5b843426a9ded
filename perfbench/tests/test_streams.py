import dataclasses
from collections import Counter

import pytest

from perfbench.oracle import Slot
from perfbench.spec import WORKLOADS
from perfbench.streams import make_stream, stream_hash, templates
from repro.graphs.datasets import imdb_lite, ldbc_lite, wiki_like

DATA = {
    "ldbc_interactive": lambda: ldbc_lite(sf=0.02),
    "job_star": lambda: imdb_lite(sf=0.02),
    "khop_paths": lambda: wiki_like(sf=0.05),
    "spark_offload": lambda: ldbc_lite(sf=0.02),
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def wl_data(request):
    return WORKLOADS[request.param], DATA[request.param]()


def test_same_seed_same_stream(wl_data):
    wl, data = wl_data
    a = make_stream(wl, data, 120, seed=3)
    b = make_stream(wl, data, 120, seed=3)
    assert [r.key() for r in a] == [r.key() for r in b]
    assert stream_hash(a) == stream_hash(b)
    assert [r.spec for r in a] == [r.spec for r in b]


def test_other_seed_other_stream(wl_data):
    wl, data = wl_data
    assert stream_hash(make_stream(wl, data, 120, seed=3)) != stream_hash(
        make_stream(wl, data, 120, seed=4)
    )


def test_program_sees_only_bound_literals(wl_data):
    wl, data = wl_data
    for r in make_stream(wl, data, 60, seed=5):
        assert not any(isinstance(p.value, Slot) for p in r.spec.predicates)
        if r.scan_range is not None:
            lo, hi = r.scan_range
            n = len(data.vtables[r.spec.vertices[r.spec.join_order[0]]])
            assert 0 <= lo < hi <= n


def test_templates_equally_often(wl_data):
    wl, data = wl_data
    n_t = len(templates(wl.name))
    stream = make_stream(wl, data, 3 * n_t + 1, seed=1)
    counts = Counter(r.template for r in stream if r.kind != "build")
    assert len(counts) == n_t
    assert max(counts.values()) - min(counts.values()) <= 1


def test_spark_deck_cycles_have_one_build():
    wl, data = WORKLOADS["spark_offload"], DATA["spark_offload"]()
    cycle = len(templates(wl.name)) + 1
    stream = make_stream(wl, data, 4 * cycle, seed=2)
    for c in range(4):
        kinds = Counter(r.kind for r in stream[c * cycle:(c + 1) * cycle])
        assert kinds == {"build": 1, "distributed": cycle - 1}


def test_fixed_request_count_scales_with_seconds():
    wl = WORKLOADS["khop_paths"]
    assert wl.n_requests(8) == 2 * wl.n_requests(4)
    assert dataclasses.replace(wl, rate=0.01).n_requests(1) == 1
