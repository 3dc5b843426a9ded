"""What the benchmark measures: workloads, metrics and the layer map.

This module is the single source of truth for the workload table and
the metric names; ``BENCHMARK.json`` at the repository root lists the
same names (checked by ``perfbench/tests/test_spec.py``).
"""
from __future__ import annotations

from dataclasses import dataclass

#: The seed later changes use to confirm a claim. Tuning and the
#: acceptance runs use seeds 1-10; this one stays held out.
HELD_OUT_SEED = 9001

#: ``khop_paths`` start-range widths (vertices), per shape. Chosen so no
#: shape takes more than half of the busy time and so the DuckDB check
#: of a run stays within a few seconds (it enumerates every path).
KHOP_WIDTHS = {
    "filter_1hop": 256,
    "filter_2hop": 32,
    "filter_3hop": 4,
    "count_1hop": 64,
    "count_2hop": 16,
    "count_3hop": 1,
    "t3_fwd_1hop": 256,
    "t3_bwd_1hop": 256,
    "t3_fwd_2hop": 32,
    "t3_bwd_2hop": 32,
}


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # generator in repro.graphs.datasets
    sf: float
    #: Requests per measured second. A run sends ``round(rate * seconds)``
    #: requests, so both commits of a comparison send the same number.
    rate: float
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int
    why: str

    def n_requests(self, seconds: float) -> int:
        return max(1, round(self.rate * seconds))


#: ``qps`` and ``latency_p50_ms`` are medians over contiguous slices of
#: the stream, each of at least this many requests (at most
#: ``MAX_SLICES``), so a burst of load from outside moves one slice, not
#: the run.
SLICE_MIN = 100
MAX_SLICES = 8


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ldbc_interactive", "ldbc_lite", 1.0,
            200.0, 5,
            "short selective projection queries: plan compile, vertex "
            "columns, single-card extends, Jacobson rank, CollectSink",
        ),
        Workload(
            "job_star", "imdb_lite", 0.3,
            125.0, 5,
            "star joins around title with string and IN predicates on n-n "
            "edge properties and dictionary columns",
        ),
        Workload(
            "khop_paths", "wiki_like", 10.0,
            50.0, 2,
            "large throughput-bound k-hop scans: batch extend, page reads, "
            "Jacobson rank, factorized count; store exceeds L3",
        ),
        Workload(
            "spark_offload", "ldbc_lite", 0.3,
            1.5, 3,
            "the only workload on repro.proc.distributed and the Spark "
            "build; control for LBP-only changes",
        ),
    )
}

#: run_distributed templates of spark_offload. Its deck cycles through
#: these five and one Spark build, so a 12-request run (1.5/s for 8 s)
#: holds two whole cycles. Task launch dominates every template; the
#: five differ in result size and hop count.
SPARK_TEMPLATES = ("IS03", "IS07", "IC02", "IC05", "IC09")

# -- metrics -------------------------------------------------------------------

#: (name, unit, better, bound). ``latency_tail_ms`` is the highest of
#: p99 / p90 / p50 that keeps at least ten samples beyond it at the
#: run's fixed request count; ``success_rate`` is 1 - error_rate.
#: Timings get the largest bound allowed: on the shared 4-core VM the
#: benchmark was tuned on, the same seed on the same commit ran up to
#: 40 % slower from one minute to the next. Even after the host-speed
#: normalization of :mod:`perfbench.calibrate`, quartile spreads over
#: ten seeds reached 0.15. ``store_mb`` is a deterministic count.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("qps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("success_rate", "fraction", "higher", 0.01),
    ("build_s", "s", "lower", 0.25),
    ("store_mb", "MB", "lower", 0.01),
]

READ_FUNCS = {
    # metric prefix -> traced functions
    "storage.csr.ranges_of": ["CSR.ranges_of"],
    "storage.jacobson.rank": [
        "JacobsonIndex.rank", "JacobsonIndex.is_set",
        "JacobsonIndex.unpack_all",
    ],
    "storage.pages.read_seq": [
        "PropertyPages.read_fwd_range", "PropertyPages.read_fwd_positions",
    ],
    "storage.pages.read_random": ["PropertyPages.read_at"],
    "storage.vcol.get_many": ["VertexColumn.get_many"],
    "storage.dict.decode": ["DictionaryColumn.decode"],
    "storage.dict.eval_on_dictionary": ["DictionaryColumn.eval_on_dictionary"],
}

BUILD_FUNCS = {
    "storage.build.csr_s": ["CSR.__init__"],
    "storage.build.pages_s": ["PropertyPages.build"],
    "storage.build.vcol_s": [
        "VertexColumn.from_series", "VertexColumn.from_offsets",
    ],
    "storage.build.jacobson_s": ["JacobsonIndex.__init__"],
    "storage.build.dict_s": ["DictionaryColumn.encode"],
}

OPERATORS = [
    "PhysScan", "PhysVertexPropRead", "PhysBatchExtend", "PhysColumnExtend",
    "PhysListExtend", "PhysFilter", "PhysExtendFilterCount",
    "PhysCountListExtend", "PhysCountColumnExtend", "CountSink",
    "CollectSink",
]


def per_layer_metrics() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, what it should move) for the traced run."""
    m = [("graphs.gen_s", "s", "lower", "setup_s, all workloads")]
    moves = {
        "storage.build.csr_s": "build_s on khop_paths",
        "storage.build.pages_s": "build_s on khop_paths",
        "storage.build.vcol_s": "build_s on ldbc_interactive",
        "storage.build.jacobson_s": "build_s on ldbc_interactive",
        "storage.build.dict_s": "build_s on job_star",
    }
    for name in BUILD_FUNCS:
        m.append((name, "s", "lower", moves[name]))
    m.append(("storage.build.spark_sort_s", "s", "lower",
              "build_s on spark_offload"))
    for part in ("vertex_props", "edge_props", "fwd_adj", "bwd_adj"):
        m.append((f"storage.bytes.{part}", "B", "lower",
                  "store_mb, all workloads"))
    read_moves = {
        "storage.csr.ranges_of": "qps on khop_paths",
        "storage.jacobson.rank": "qps on khop_paths; latency_p50_ms on "
                                 "ldbc_interactive",
        "storage.pages.read_seq": "qps on khop_paths",
        "storage.pages.read_random": "qps on khop_paths",
        "storage.vcol.get_many": "latency_p50_ms on ldbc_interactive",
        "storage.dict.decode": "qps on job_star",
        "storage.dict.eval_on_dictionary": "qps on job_star",
    }
    for prefix in READ_FUNCS:
        mv = read_moves[prefix]
        m.append((f"{prefix}.calls", "calls/req", "lower", mv))
        m.append((f"{prefix}.s", "s/req", "lower", mv))
        m.append((f"{prefix}.elems", "elems/req", "lower", mv))
    m.append(("storage.pages.seq_share", "fraction", "higher",
              "qps on khop_paths"))
    m.append(("proc.plan.compile_s", "s/req", "lower",
              "latency_p50_ms on ldbc_interactive; qps on khop_paths"))
    m.append(("proc.lbp.fastpath_share", "fraction", "higher",
              "qps on khop_paths"))
    op_moves = {
        "PhysBatchExtend": "qps on khop_paths",
        "PhysFilter": "qps on job_star",
        "PhysExtendFilterCount": "qps on job_star",
        "CollectSink": "latency_tail_ms on ldbc_interactive",
    }
    for op in OPERATORS:
        mv = op_moves.get(op, "latency_p50_ms or qps; 0 calls = dead code")
        m.append((f"proc.op.{op}.self_s", "s/req", "lower", mv))
        m.append((f"proc.op.{op}.calls", "calls/req", "lower", mv))
        m.append((f"proc.op.{op}.tuples_out", "tuples/req", "lower", mv))
    m += [
        ("proc.chunk.max_groups", "count", "higher", "qps on job_star"),
        ("proc.chunk.unflat_share", "fraction", "higher", "qps on job_star"),
        ("proc.chunk.flatten_s", "s/req", "lower",
         "latency_tail_ms on ldbc_interactive"),
        ("proc.expr.literal_s", "s/req", "lower", "qps on job_star"),
        ("proc.expr.pair_s", "s/req", "lower", "qps on khop_paths"),
        ("distributed.broadcast_s", "s/req", "lower",
         "latency_p50_ms and qps on spark_offload"),
        ("distributed.job_s", "s/req", "lower",
         "latency_p50_ms and qps on spark_offload"),
        ("distributed.result_df_s", "s/req", "lower",
         "latency_p50_ms and qps on spark_offload"),
        ("distributed.store_pickle_mb", "MB", "lower",
         "latency_p50_ms on spark_offload"),
        ("distributed.overhead_ratio", "ratio", "lower",
         "qps on spark_offload"),
        ("proc.unattributed_s", "s/req", "lower",
         "interpreter and glue cost, all workloads"),
        ("oracle.check_s", "s", "lower", "never timed into latency"),
        ("oracle.mismatches", "count", "lower", "success_rate"),
        ("trace.overhead_frac", "fraction", "lower",
         "tracing cost: 1 - traced qps / untraced qps"),
    ]
    return m
