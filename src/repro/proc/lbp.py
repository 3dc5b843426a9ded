"""LBP plan compilation and execution (paper §6).

``compile_lbp`` turns the logical plan of a :class:`QuerySpec` into a
pipeline of physical operators over a :class:`GraphStore`:

- ExtendStep → :class:`PhysListExtend` (CSR side) or
  :class:`PhysColumnExtend` (vertex-column side), per Table 1 storage;
  edge properties the query needs are materialized at the extend.
- Vertex properties referenced by a filter or RETURN are gathered by a
  :class:`PhysVertexPropRead` inserted right before first use.
- A terminal extend followed only by count(*) is fused into
  :class:`PhysCountListExtend` / :class:`PhysCountColumnExtend` so the
  last hop is aggregated directly from the factorized representation.

``run_lbp`` executes the pipeline single-threaded and returns an int
(count) or a pandas DataFrame (projections). The Spark-parallel variant
lives in :mod:`repro.proc.distributed`.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.proc.operators import (
    _MIRROR,
    CollectSink,
    CountSink,
    Operator,
    PhysBatchExtend,
    PhysColumnExtend,
    PhysCountColumnExtend,
    PhysCountListExtend,
    PhysExtendFilterCount,
    PhysFilter,
    PhysListExtend,
    PhysScan,
    PhysVertexPropRead,
    concat_ranges,
)
from repro.proc.plan import (
    ExtendStep,
    FilterStep,
    Predicate,
    QuerySpec,
    ScanStep,
    compile_logical,
    needed_eprops,
)
from repro.storage.graph_store import GraphStore


def compile_lbp(
    store: GraphStore,
    spec: QuerySpec,
    *,
    scan_range: tuple[int, int] | None = None,
    block_size: int = 1024,
) -> tuple[PhysScan, Operator]:
    steps = compile_logical(spec)
    ops: list[Operator] = []
    produced: set[str] = set()

    def ensure_vprop(var: str, prop: str) -> None:
        key = f"{var}.{prop}"
        if key in produced or var not in spec.vertices:
            return  # edge props are produced by their extend
        vcol = store.vprop_column(spec.vertices[var], prop)
        ops.append(PhysVertexPropRead(var, prop, vcol))
        produced.add(key)

    def bind_return_props(var: str) -> None:
        # RETURN properties are gathered as soon as the variable is
        # bound: one vectorized gather per chunk instead of one per
        # downstream emit (the blocks ride along through flattening).
        if spec.returns == "count":
            return
        for v, prop in spec.returns:
            if v == var and v in spec.vertices:
                ensure_vprop(v, prop)

    for step in steps:
        if isinstance(step, ScanStep):
            n = store.n_vertices[step.label]
            lo, hi = scan_range if scan_range else (0, n)
            ops.append(
                PhysScan(step.var, n, block_size=block_size, lo=lo, hi=hi)
            )
            bind_return_props(step.var)
        elif isinstance(step, ExtendStep):
            estore = store.edge(step.edge.label)
            eprops = needed_eprops(spec, step.edge.var) if step.edge.var else []
            for p in eprops:
                produced.add(f"{step.edge.var}.{p}")
            cls = (
                PhysColumnExtend
                if estore.storage_kind(step.direction) == "vcol"
                else PhysListExtend
            )
            ops.append(
                cls(
                    step.src_var,
                    step.out_var,
                    step.edge.var,
                    estore,
                    step.direction,
                    eprops,
                )
            )
            bind_return_props(step.out_var)
        elif isinstance(step, FilterStep):
            ensure_vprop(step.pred.var, step.pred.prop)
            if step.pred.rhs_var:
                ensure_vprop(step.pred.rhs_var, step.pred.rhs_prop)
            ops.append(PhysFilter(step.pred))
        else:
            raise TypeError(step)

    if spec.returns == "count":
        sink = _fuse_count_tail(ops)
        if sink is None:
            sink = CountSink()
            ops.append(sink)
    else:
        keys, names = [], []
        for var, prop in spec.returns:
            ensure_vprop(var, prop)
            keys.append(f"{var}.{prop}")
            names.append(f"{var}_{prop}")
        sink = CollectSink(keys, names)
        ops.append(sink)

    ops = _fuse_batch_extends(ops)
    for a, b in zip(ops, ops[1:]):
        a.next = b
    return ops[0], sink


def _fuse_batch_extends(ops: list[Operator]) -> list[Operator]:
    """Fuse each ListExtend with its adjacent out-var property reads and
    filters into a block-at-a-time :class:`PhysBatchExtend` (see its
    docstring for why this is the faithful vectorized form of LBP's
    flatten-and-iterate on non-terminal extends)."""
    out: list[Operator] = []
    i = 0
    while i < len(ops):
        op = ops[i]
        if not isinstance(op, PhysListExtend):
            out.append(op)
            i += 1
            continue
        vreads: list[tuple[str, object]] = []
        preds = []
        j = i + 1
        while j < len(ops):
            nxt = ops[j]
            if (
                isinstance(nxt, PhysVertexPropRead)
                and nxt.var == op.out_var
            ):
                vreads.append((nxt.prop, nxt.vcol))
                j += 1
                continue
            if isinstance(nxt, PhysFilter):
                preds.append(nxt.pred)
                j += 1
                continue
            break
        out.append(
            PhysBatchExtend(
                op.src_var, op.out_var, op.edge_var, op.estore,
                op.direction, op.eprops, vreads, preds,
            )
        )
        i = j
    return out


def _fuse_count_tail(ops: list[Operator]):
    """Fuse a count(*) plan tail in place; returns the sink or None.

    Two fusions (paper §6.2, aggregation on the factorized form):
    - terminal extend with no property reads → count adjacency-list
      lengths (:class:`PhysCountListExtend` / `PhysCountColumnExtend`);
    - terminal ListExtend + filters *only on that edge's properties* →
      block-at-a-time :class:`PhysExtendFilterCount`.
    """
    last = ops[-1]
    if isinstance(last, (PhysListExtend, PhysColumnExtend)) and not last.eprops:
        fused_cls = (
            PhysCountListExtend
            if isinstance(last, PhysListExtend)
            else PhysCountColumnExtend
        )
        sink = fused_cls(last.src_var, last.estore, last.direction)
        ops[-1] = sink
        return sink
    # Trailing run of filters over the final ListExtend's edge properties.
    i = len(ops) - 1
    preds = []
    while i >= 0 and isinstance(ops[i], PhysFilter):
        preds.append(ops[i].pred)
        i -= 1
    preds.reverse()
    if not preds or i < 0 or not isinstance(ops[i], PhysListExtend):
        return None
    ext = ops[i]
    norm = []
    for p in preds:
        if (
            p.var != ext.edge_var
            and p.rhs_var == ext.edge_var
            and p.op in _MIRROR
        ):
            # a.x OP e.y  →  e.y mirror(OP) a.x, so the fused edge is lhs.
            p = Predicate(
                p.rhs_var, p.rhs_prop, _MIRROR[p.op],
                rhs_var=p.var, rhs_prop=p.prop,
            )
        norm.append(p)
    preds = norm
    for p in preds:
        if p.var != ext.edge_var:
            return None
        if p.rhs_var in (ext.edge_var, ext.out_var):
            return None
    if set(ext.eprops) - {p.prop for p in preds}:
        return None
    sink = PhysExtendFilterCount(
        ext.src_var, ext.estore, ext.direction, ext.edge_var, preds
    )
    del ops[i:]
    ops.append(sink)
    return sink


def _try_vectorized_count(
    store: GraphStore,
    spec: QuerySpec,
    scan_range: tuple[int, int] | None,
):
    """Fully-factorized count(*) of a predicate-free path query.

    With no predicates and count(*) output, the factorized count never
    needs tuples at all: it is the repeated product-of-list-sizes of
    §6.2, computed level by level as a weighted propagation
    (``w_next[nbr] += w[v]`` over each adjacency list). This is why the
    paper's GF-CL COUNT(*) runtimes barely grow with the hop count
    (Table 5).

    The frontier is sparse: ``(ids, w)`` holds only the vertices reached
    so far and their path counts, so a hop reads just the adjacency
    lists of those vertices and the cost is proportional to the edges
    reachable from the start range, not to the graph. Weights are exact
    int64 sums. The last hop scatters nothing: it is the dot product of
    ``w`` with the frontier's degrees. Returns None when the plan shape
    doesn't apply.
    """
    if spec.returns != "count" or spec.predicates:
        return None
    steps = compile_logical(spec)
    prev_out = None
    for s in steps:
        if isinstance(s, ScanStep):
            prev_out = s.var
        elif isinstance(s, ExtendStep):
            if s.src_var != prev_out:  # star shapes use the general engine
                return None
            prev_out = s.out_var
        else:
            return None
    n0 = store.n_vertices[steps[0].label]
    lo, hi = scan_range if scan_range else (0, n0)
    ids = np.arange(lo, hi, dtype=np.int64)
    w = np.ones(len(ids), dtype=np.int64)
    for hop, s in enumerate(steps[1:], start=2):
        es = store.edge(s.edge.label)
        last = hop == len(steps)
        if es.storage_kind(s.direction) == "csr":
            csr = es.csr(s.direction)
            starts, ends = csr.ranges_of(ids)
            if last:
                return int(w @ (ends - starts))
            idx, contig, lens = concat_ranges(starts, ends)
            nbrs = csr.nbr[slice(*contig)] if idx is None else csr.nbr[idx]
            w = np.repeat(w, lens)
        else:
            # A NULL reads as neighbour 0; zeroing its weight is one
            # streaming pass, where dropping it would be a masked copy.
            nbrs, nulls = es.nbr_vcol(s.direction).get_many(ids)
            w = w * ~nulls
            if last:
                return int(w.sum())
        if not w.any():
            return 0
        acc = np.zeros(
            store.n_vertices[spec.vertices[s.out_var]], dtype=np.int64
        )
        np.add.at(acc, nbrs, w)
        ids = np.flatnonzero(acc > 0)
        w = acc[ids]
    return int(w.sum())


def run_lbp(
    store: GraphStore,
    spec: QuerySpec,
    *,
    scan_range: tuple[int, int] | None = None,
    block_size: int = 1024,
):
    """Execute a spec; returns an int for count(*), else a DataFrame."""
    fast = _try_vectorized_count(store, spec, scan_range)
    if fast is not None:
        return fast
    scan, sink = compile_lbp(
        store, spec, scan_range=scan_range, block_size=block_size
    )
    scan.run()
    if isinstance(sink, CollectSink):
        return sink.result()
    return sink.count


def run_lbp_df(store: GraphStore, spec: QuerySpec, **kw) -> pd.DataFrame:
    """Like :func:`run_lbp` but always a DataFrame (count → one row
    ``cnt``), matching the oracle's SQL output shape."""
    res = run_lbp(store, spec, **kw)
    if isinstance(res, pd.DataFrame):
        return res
    return pd.DataFrame({"cnt": [res]})
