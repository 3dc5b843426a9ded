"""Per-layer metrics computed from a span list (see :mod:`perfbench.tracing`).

Self time of a span is its duration minus the time its child spans
cover. Request-scoped metrics are totals over the spans of measured
requests (``request >= 0``) divided by the number of requests.
"""
from __future__ import annotations

from collections import defaultdict
from statistics import mean

from perfbench.spec import BUILD_FUNCS, OPERATORS, READ_FUNCS
from perfbench.tracing import END, N, NAME, OUT, PARENT, REQ, START

#: Span name prefix -> layer (module) for the busy-time share table.
LAYER_OF = [
    ("request", "unattributed"),
    ("graphs.", "repro.graphs"),
    ("storage.", "repro.storage"),
    ("CSR.", "repro.storage"),
    ("JacobsonIndex.", "repro.storage"),
    ("PropertyPages.", "repro.storage"),
    ("VertexColumn.", "repro.storage"),
    ("DictionaryColumn.", "repro.storage"),
    ("plan.", "repro.proc.plan"),
    ("lbp.compile_lbp", "repro.proc.plan"),
    ("lbp.", "repro.proc.lbp"),
    ("op.", "repro.proc.operators"),
    ("chunk.", "repro.proc.chunk"),
    ("expr.", "repro.proc.expressions"),
    ("distributed.", "repro.proc.distributed"),
    ("spark.", "repro.proc.distributed"),
]


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_OF:
        if name.startswith(prefix):
            return layer
    return "other"


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the union of the child spans' intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s[START]), min(hi, s[END])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s[END] - s[START]) - covered)
    return out


def ancestor_index(spans: list[list], name: str) -> list[int]:
    """For each span, the index of its nearest ancestor-or-self called
    ``name`` (-1 if none). Parents precede children in the list."""
    out = []
    for i, s in enumerate(spans):
        if s[NAME] == name:
            out.append(i)
        elif s[PARENT] >= 0:
            out.append(out[s[PARENT]])
        else:
            out.append(-1)
    return out


def busy_shares(spans: list[list], selfs: list[float]) -> dict[str, float]:
    """Share of busy time (request spans) spent in each layer's self time."""
    busy = sum(s[END] - s[START] for s in spans if s[NAME] == "request")
    acc: dict[str, float] = defaultdict(float)
    for s, st in zip(spans, selfs):
        if s[REQ] >= 0:
            acc[layer_of(s[NAME])] += st
    return {k: v / busy for k, v in sorted(acc.items())} if busy else {}


def layer_metrics(
    spans: list[list],
    n_requests: int,
    *,
    chunk_stats: tuple[int, int, int],
) -> dict[str, float]:
    """Per-layer metrics that follow from the spans alone.

    ``chunk_stats`` is ``(consumes, multi_unflat, max_groups)`` as
    counted by the tracer at operator boundaries.
    """
    selfs = self_times(spans)
    per_req = 1.0 / max(1, n_requests)
    m: dict[str, float] = {}

    # Setup-scoped: generator and per-build breakdown.
    gens = [s[END] - s[START] for s in spans if s[NAME] == "graphs.gen"]
    m["graphs.gen_s"] = mean(gens) if gens else 0.0
    build_of = ancestor_index(spans, "storage.build")
    n_builds = sum(1 for s in spans if s[NAME] == "storage.build")
    func_metric = {f: k for k, fs in BUILD_FUNCS.items() for f in fs}
    build_tot: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        k = func_metric.get(s[NAME])
        if k and build_of[i] >= 0:
            build_tot[k] += selfs[i]
    for k in BUILD_FUNCS:
        m[k] = build_tot[k] / n_builds if n_builds else 0.0

    # Request-scoped.
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    elems: dict[str, int] = defaultdict(int)
    tuples_out: dict[str, int] = defaultdict(int)
    top_compile = 0.0
    for i, s in enumerate(spans):
        if s[REQ] < 0:
            continue
        name = s[NAME]
        calls[name] += 1
        self_s[name] += selfs[i]
        elems[name] += s[N] or 0
        dur = s[END] - s[START]
        incl_s[name] += dur
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if name.startswith("op."):
            if s[OUT] is not None:
                tuples_out[name] += s[OUT]
            elif name == "op.CollectSink":
                tuples_out[name] += s[N] or 0
            if parent is not None and parent[NAME].startswith("op."):
                tuples_out[parent[NAME]] += s[N] or 0
        if name in ("lbp.compile_lbp", "plan.compile_logical") and not (
            parent is not None and parent[NAME] == "lbp.compile_lbp"
        ):
            top_compile += dur

    for prefix, funcs in READ_FUNCS.items():
        m[f"{prefix}.calls"] = sum(calls[f] for f in funcs) * per_req
        m[f"{prefix}.s"] = sum(self_s[f] for f in funcs) * per_req
        m[f"{prefix}.elems"] = sum(elems[f] for f in funcs) * per_req
    seq = m["storage.pages.read_seq.elems"]
    rnd = m["storage.pages.read_random.elems"]
    m["storage.pages.seq_share"] = seq / (seq + rnd) if seq + rnd else 0.0
    m["proc.plan.compile_s"] = top_compile * per_req
    runs = calls["lbp.run_lbp"]
    m["proc.lbp.fastpath_share"] = (
        1.0 - calls["lbp.compile_lbp"] / runs if runs else 0.0
    )
    for op in OPERATORS:
        name = f"op.{op}"
        m[f"proc.op.{op}.self_s"] = (self_s[name] + self_s[f"{name}.result"]) * per_req
        m[f"proc.op.{op}.calls"] = calls[name] * per_req
        m[f"proc.op.{op}.tuples_out"] = tuples_out[name] * per_req
    consumes, multi_unflat, max_groups = chunk_stats
    m["proc.chunk.max_groups"] = float(max_groups)
    m["proc.chunk.unflat_share"] = multi_unflat / consumes if consumes else 0.0
    m["proc.chunk.flatten_s"] = incl_s["chunk.flatten_columns"] * per_req
    m["proc.expr.literal_s"] = incl_s["expr.literal"] * per_req
    m["proc.expr.pair_s"] = incl_s["expr.pair"] * per_req

    # Spark calls count only inside run_distributed.
    dist_of = ancestor_index(spans, "distributed.run")
    spark_s: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s[REQ] < 0 or dist_of[i] < 0 or not s[NAME].startswith("spark."):
            continue
        parent = spans[s[PARENT]]
        if parent[NAME] == s[NAME]:
            continue  # nested action (sum -> fold -> collect)
        spark_s[s[NAME]] += s[END] - s[START]
    m["distributed.broadcast_s"] = spark_s["spark.broadcast"] * per_req
    m["distributed.job_s"] = spark_s["spark.rdd_action"] * per_req
    m["distributed.result_df_s"] = spark_s["spark.create_df"] * per_req

    m["proc.unattributed_s"] = self_s["request"] * per_req
    return m
