import pandas as pd
import pytest

from perfbench.oracle import Oracle, exact_count
from perfbench.streams import ldbc_templates
from repro.graphs.datasets import ldbc_lite
from repro.proc.lbp import run_lbp
from repro.storage.graph_store import GraphStore, StorageConfig


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    data = ldbc_lite(sf=0.02)
    store = GraphStore.build(data, StorageConfig.gf_cl())
    oracle = Oracle(data, join_order=True, tmp_dir=str(tmp_path_factory.mktemp("duck")))
    yield data, store, {t.name: t for t in ldbc_templates()}, oracle
    oracle.close()


def test_exact_count_accepts_only_integers():
    assert exact_count(2**60 + 1) == 2**60 + 1
    assert exact_count(3.0) is None
    assert exact_count("3") is None
    assert exact_count(True) is None


def _reqs(data, n=4):
    return [({"person": int(i)}, None) for i in data.vtables["Person"]["id"][:n]]


def _bound(t, params):
    from perfbench.oracle import bind
    return bind(t.spec, params)


def test_projection_check_accepts_program_rows(env):
    data, store, ts, oracle = env
    t = ts["IS03"]
    reqs = _reqs(data)
    frames = [run_lbp(store, _bound(t, p)) for p, _ in reqs]
    assert oracle.row_mismatches(t.spec, reqs, frames) == set()


def test_projection_check_finds_changed_missing_and_extra_rows(env):
    data, store, ts, oracle = env
    t = ts["IS03"]
    reqs = _reqs(data)
    frames = [run_lbp(store, _bound(t, p)) for p, _ in reqs]
    k = next(i for i, f in enumerate(frames) if len(f) >= 2)
    changed = [f.copy() for f in frames]
    changed[k].iloc[0, 0] = changed[k].iloc[0, 0] + 1
    assert oracle.row_mismatches(t.spec, reqs, changed) == {k}
    missing = list(frames)
    missing[k] = frames[k].iloc[1:]
    assert oracle.row_mismatches(t.spec, reqs, missing) == {k}
    extra = list(frames)
    extra[k] = pd.concat([frames[k], frames[k].iloc[:1]])
    assert oracle.row_mismatches(t.spec, reqs, extra) == {k}


def test_projection_check_rejects_numbers_rendered_as_text(env):
    data, store, ts, oracle = env
    t = ts["IS03"]
    reqs = _reqs(data)
    frames = [run_lbp(store, _bound(t, p)) for p, _ in reqs]
    as_text = [f.astype(str) for f in frames]
    assert oracle.row_mismatches(t.spec, reqs, as_text) == set(range(len(reqs)))


def test_count_check_is_exact(env):
    data, store, ts, oracle = env
    t = ts["IC05"]
    from perfbench.oracle import bind
    import dataclasses
    spec = dataclasses.replace(t.spec, returns="count")
    reqs = _reqs(data)
    want = oracle.counts(spec, reqs)
    got = [run_lbp(store, bind(spec, p)) for p, _ in reqs]
    assert [exact_count(g) for g in got] == want
    assert all(type(w) is int for w in want)
