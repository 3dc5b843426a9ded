"""Seeded request streams.

A stream is a list of :class:`Request`. The same workload, seed and
request count give a byte-identical stream (:func:`stream_hash`). The
program only ever sees the bound :class:`QuerySpec`, the ``scan_range``
and the literals in it.
"""
from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field

import numpy as np

from perfbench.oracle import Slot, bind
from perfbench.spec import KHOP_WIDTHS, SPARK_TEMPLATES, Workload
from repro.proc.plan import QuerySpec

DATE_LO, DATE_HI = 1_200_000_000, 1_550_000_000  # edge timestamp domain


@dataclass(frozen=True)
class Template:
    name: str
    spec: QuerySpec  # predicate values may be Slot(...)
    width: int | None = None  # scan_range width, None = whole label
    #: Start ranges of backward plans are drawn from the upper half of
    #: the id space: ``wiki_like`` in-degrees are Zipf over the id, so a
    #: start at a hub would cost 10^3x a typical request. Hubs are still
    #: reached as neighbours.
    upper_half: bool = False


@dataclass(frozen=True)
class Request:
    rid: int
    kind: str  # 'lbp' | 'distributed' | 'build'
    template: str
    params: tuple = ()  # (slot, value) pairs
    scan_range: tuple[int, int] | None = None
    spec: QuerySpec | None = field(default=None, compare=False)

    def key(self) -> str:
        return f"{self.rid}|{self.kind}|{self.template}|{self.params}|{self.scan_range}"


def _rng(workload: str, seed: int, salt: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), salt])


def _deck(n_items: int, n: int, rng) -> list[int]:
    """``n`` draws, each item equally often (±1): concatenated seeded
    permutations."""
    out: list[int] = []
    while len(out) < n:
        out.extend(int(i) for i in rng.permutation(n_items))
    return out[:n]


# -- templates -----------------------------------------------------------------


def ldbc_templates() -> list[Template]:
    """The 18 IS/IC queries with their entity-id literal as a slot."""
    import dataclasses

    from repro.bench.queries_ldbc import ALL_LDBC

    out = []
    for q in ALL_LDBC:
        preds = []
        for p in q.predicates:
            if p.prop == "id" and p.op == "=" and p.rhs_var is None:
                label = q.vertices[p.var]
                p = dataclasses.replace(p, value=Slot(label.lower()))
            preds.append(p)
        out.append(Template(q.name, dataclasses.replace(q, predicates=preds)))
    return out


def job_templates() -> list[Template]:
    from repro.bench.queries_job import JOB_QUERIES

    return [Template(q.name, q) for q in JOB_QUERIES]


def khop_templates() -> list[Template]:
    """Table 5 FILTER / COUNT(*) at 1-3 hops, Table 3 fwd/bwd at 1-2 hops,
    with the date threshold as a slot."""
    import dataclasses

    from repro.bench.lbp_vs_volcano import khop_count_spec, khop_filter_spec
    from repro.bench.prop_pages import khop_spec

    def thr(spec):
        return dataclasses.replace(spec, predicates=[
            dataclasses.replace(p, value=Slot("thr")) if p.rhs_var is None
            else p for p in spec.predicates
        ])

    specs = {}
    for h in (1, 2, 3):
        specs[f"filter_{h}hop"] = thr(khop_filter_spec("link", "node", "timestamp", h))
        specs[f"count_{h}hop"] = khop_count_spec("link", "node", h)
    for h in (1, 2):
        for d in ("fwd", "bwd"):
            specs[f"t3_{d}_{h}hop"] = thr(
                khop_spec("link", "node", "timestamp", h, direction=d)
            )
    return [
        Template(name, s, KHOP_WIDTHS[name], upper_half="_bwd_" in name)
        for name, s in specs.items()
    ]


def templates(workload: str) -> list[Template]:
    return {
        "ldbc_interactive": ldbc_templates,
        "job_star": job_templates,
        "khop_paths": khop_templates,
        "spark_offload": lambda: [
            t for t in ldbc_templates() if t.name in SPARK_TEMPLATES
        ],
    }[workload]()


# -- streams -------------------------------------------------------------------


def _draw_params(t: Template, data, rng) -> dict:
    params = {}
    for p in t.spec.predicates:
        if not isinstance(p.value, Slot):
            continue
        name = p.value.name
        if name == "thr":
            params[name] = int(rng.integers(DATE_LO, DATE_HI))
        else:  # an entity id of the slot's vertex label
            ids = data.vtables[t.spec.vertices[p.var]]["id"].to_numpy()
            params[name] = int(ids[rng.integers(0, len(ids))])
    return params


def _request(rid, kind, t: Template, data, rng) -> Request:
    params = _draw_params(t, data, rng)
    scan_range = None
    if t.width is not None:
        n = len(data.vtables[t.spec.vertices[t.spec.join_order[0]]])
        lo_min = n // 2 if t.upper_half else 0
        width = min(t.width, n - lo_min)  # tiny test graphs
        lo = int(rng.integers(lo_min, n - width + 1))
        scan_range = (lo, lo + width)
    return Request(
        rid, kind, t.name, tuple(sorted(params.items())), scan_range,
        bind(t.spec, params),
    )


def make_stream(wl: Workload, data, n: int, seed: int, *, salt: int = 0) -> list[Request]:
    """The measured request sequence of one run (``salt`` != 0 gives
    independent streams, e.g. for warm-up)."""
    ts = templates(wl.name)
    rng = _rng(wl.name, seed, salt)
    if wl.name != "spark_offload":
        return [
            _request(i, "lbp", ts[j], data, rng)
            for i, j in enumerate(_deck(len(ts), n, rng))
        ]
    # Each cycle of the deck holds every template once and one Spark
    # build, so every run of whole cycles has the same composition. A
    # build carries a template too: that query runs on the new store as
    # part of the build's correctness check.
    out = []
    for i, j in enumerate(_deck(len(ts) + 1, n, rng)):
        if j == len(ts):
            out.append(_request(i, "build", ts[int(rng.integers(len(ts)))], data, rng))
        else:
            out.append(_request(i, "distributed", ts[j], data, rng))
    return out


def stream_hash(stream: list[Request]) -> str:
    h = hashlib.sha256()
    for r in stream:
        h.update(r.key().encode())
        h.update(b"\n")
    return h.hexdigest()
