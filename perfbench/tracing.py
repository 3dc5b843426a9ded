"""Spans around the public entry points of each layer, recorded from the
benchmark's side without editing the program.

:class:`Tracer` replaces functions and methods of ``repro`` (and, on the
Spark workload, of PySpark) with wrappers that record one span per call:
``[name, start, end, parent, request, n, out]``. ``n`` is the element
count the call handled (input tuples for an operator) and ``out`` the
count an aggregating operator added. :meth:`Tracer.uninstall` puts every
original back. Spans stay in memory until :meth:`Tracer.dump`.
"""
from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from perfbench.spec import OPERATORS

NAME, START, END, PARENT, REQ, N, OUT = range(7)


def _len(x) -> int:
    return int(np.size(x))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1  # request id of the spans being recorded
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Chunk shape seen at operator boundaries.
        self.consumes = 0
        self.multi_unflat = 0
        self.max_groups = 0

    # -- spans -------------------------------------------------------------

    def open(self, name: str, n: int = 0) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.request, n, None])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self._stack.pop()
        self.spans[i][END] = perf_counter()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield self.spans[i]
        finally:
            self.close(i)

    def dump(self, path) -> None:
        keys = ["name", "start", "end", "parent", "request", "n", "out"]
        with open(path, "w") as f:
            json.dump({"fields": keys, "spans": self.spans}, f)

    # -- patching ------------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def wrap(self, owner, attr: str, name: str, elems=None) -> None:
        """Record a span per call of ``owner.attr``; ``elems(args,
        result)`` gives the span's element count."""
        tracer = self

        def make(func):
            @functools.wraps(func)
            def traced(*args, **kwargs):
                i = tracer.open(name)
                res = None
                try:
                    res = func(*args, **kwargs)
                    return res
                finally:
                    tracer.close(i)
                    if elems is not None:
                        tracer.spans[i][N] = elems(args, res)
            return traced

        self._replace(owner, attr, make)

    def wrap_operator(self, cls, attr: str = "consume") -> None:
        """Operator spans: ``n`` = tuples in the chunk handed to the
        operator, ``out`` = growth of the operator's ``count``."""
        tracer = self
        name = f"op.{cls.__name__}"

        def make(func):
            @functools.wraps(func)
            def traced(op, *args):
                n = 0
                if args and tracer.request >= 0:
                    chunk = args[0]
                    n = chunk.tuple_count()
                    tracer.consumes += 1
                    groups = chunk.groups
                    tracer.max_groups = max(tracer.max_groups, len(groups))
                    if sum(1 for g in groups if not g.is_flat) > 1:
                        tracer.multi_unflat += 1
                before = getattr(op, "count", None)
                i = tracer.open(name, n)
                try:
                    return func(op, *args)
                finally:
                    tracer.close(i)
                    if before is not None:
                        tracer.spans[i][OUT] = op.count - before
            return traced

        self._replace(cls, attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def install_repro(tracer: Tracer, *, lbp_functions: bool = True) -> None:
    """Wrap the public entry points of repro.graphs / storage / proc.

    ``lbp_functions=False`` leaves the module-level functions of
    ``repro.proc.lbp`` alone: ``run_distributed`` ships ``run_lbp`` to
    Spark workers, and cloudpickle would serialize a replaced module
    attribute by value, tracer included.
    """
    from repro.proc import chunk, distributed, lbp, operators
    from repro.storage import compression, csr, null_compression
    from repro.storage import property_pages, vertex_column
    from repro.storage.graph_store import GraphStore

    w = tracer.wrap
    # storage: build
    w(GraphStore, "build", "storage.build")
    w(csr.CSR, "__init__", "CSR.__init__")
    w(property_pages.PropertyPages, "build", "PropertyPages.build")
    w(vertex_column.VertexColumn, "from_series", "VertexColumn.from_series")
    w(vertex_column.VertexColumn, "from_offsets", "VertexColumn.from_offsets")
    w(null_compression.JacobsonIndex, "__init__", "JacobsonIndex.__init__")
    w(compression.DictionaryColumn, "encode", "DictionaryColumn.encode")
    # storage: reads
    first = lambda a, r: _len(a[1])  # noqa: E731  (self, idx, ...)
    w(csr.CSR, "ranges_of", "CSR.ranges_of", first)
    w(null_compression.JacobsonIndex, "rank", "JacobsonIndex.rank", first)
    w(null_compression.JacobsonIndex, "is_set", "JacobsonIndex.is_set", first)
    w(null_compression.JacobsonIndex, "unpack_all", "JacobsonIndex.unpack_all",
      lambda a, r: 0 if r is None else _len(r))
    pp = property_pages.PropertyPages
    w(pp, "read_fwd_range", "PropertyPages.read_fwd_range",
      lambda a, r: int(a[3]) - int(a[2]))
    w(pp, "read_fwd_positions", "PropertyPages.read_fwd_positions",
      lambda a, r: _len(a[2]))
    w(pp, "read_at", "PropertyPages.read_at", lambda a, r: _len(a[3]))
    w(vertex_column.VertexColumn, "get_many", "VertexColumn.get_many", first)
    w(compression.DictionaryColumn, "decode", "DictionaryColumn.decode", first)
    w(compression.DictionaryColumn, "eval_on_dictionary",
      "DictionaryColumn.eval_on_dictionary", lambda a, r: len(a[0].values))
    # proc: plan, executor, operators, chunks, expressions
    # lbp and operators call these through their own module globals.
    if lbp_functions:
        w(lbp, "run_lbp", "lbp.run_lbp")
        w(lbp, "compile_lbp", "lbp.compile_lbp")
        w(lbp, "compile_logical", "plan.compile_logical")
    for name in OPERATORS:
        cls = getattr(operators, name)
        tracer.wrap_operator(cls, "run" if name == "PhysScan" else "consume")
    # The result frame is CollectSink's work too (counted in its self_s).
    w(operators.CollectSink, "result", "op.CollectSink.result")
    w(chunk.IntermediateChunk, "flatten_columns", "chunk.flatten_columns")
    w(operators, "eval_block_vs_literal", "expr.literal")
    w(operators, "eval_block_vs_block", "expr.pair")
    w(distributed, "run_distributed", "distributed.run")


def install_spark(tracer: Tracer) -> None:
    """Wrap the Spark calls made by ``run_distributed``."""
    from pyspark import RDD, SparkContext
    from pyspark.sql import SparkSession

    tracer.wrap(SparkContext, "broadcast", "spark.broadcast")
    tracer.wrap(RDD, "sum", "spark.rdd_action")
    tracer.wrap(RDD, "collect", "spark.rdd_action")
    tracer.wrap(SparkSession, "createDataFrame", "spark.create_df")
