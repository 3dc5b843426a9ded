"""One benchmark run: set up, send the request stream in a closed loop,
check every answer against DuckDB, print the metrics.

Load model: one process, one client; each request is sent when the
previous one has returned. A run sends a fixed number of requests,
``round(rate * seconds)`` (see :mod:`perfbench.spec`), so both commits
of a comparison time the same requests and the same percentiles.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the
same stream untraced and then traced, and prints the per-layer metrics
(plus ``trace.overhead_frac``) and each layer's share of busy time.
"""
from __future__ import annotations

import argparse
import gc
import json
import pickle
import statistics
import sys
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import pandas as pd

from perfbench import calibrate, sparkenv, stats
from perfbench.layers import busy_shares, layer_metrics, self_times
from perfbench.oracle import Oracle, exact_count
from perfbench.spec import (
    END_TO_END, MAX_SLICES, SLICE_MIN, WORKLOADS, Workload, per_layer_metrics,
)
from perfbench.streams import make_stream, stream_hash, templates
from perfbench.tracing import Tracer, install_repro, install_spark

SPARK = "spark_offload"


class Bench:
    def __init__(
        self, workload: str, seed: int, seconds: float, out: Path,
        wl: Workload | None = None,
    ) -> None:
        self.wl = wl or WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.out = out
        self.templates = {t.name: t for t in templates(workload)}
        self.spark = None
        self.data = self.store = self.oracle = None
        self.setup_times: list[float] = []
        self.build_times: list[float] = []

    def close(self) -> None:
        if self.oracle is not None:
            self.oracle.close()
        if self.wl.name == SPARK:
            sparkenv.shutdown(self.spark)
            self.spark = None

    # -- set-up ----------------------------------------------------------------

    def setup(self, tracer: Tracer | None = None) -> None:
        """Everything before the first timed request; timed as a whole."""
        from repro.graphs import datasets
        from repro.storage.graph_store import GraphStore, StorageConfig

        if self.oracle is not None:
            self.oracle.close()
        self.data = self.store = self.oracle = None
        gc.collect()
        t0 = perf_counter()
        if self.wl.name == SPARK:
            if self.spark is not None:
                self.spark.stop()
            self.spark = sparkenv.start()
        gen = getattr(datasets, self.wl.dataset)
        with tracer.span("graphs.gen") if tracer else nullcontext():
            data = gen(sf=self.wl.sf)
        tb = perf_counter()
        store = GraphStore.build(data, StorageConfig.gf_cl(), spark=self.spark)
        build = perf_counter() - tb
        tmp = self.out / "duckdb"
        tmp.mkdir(parents=True, exist_ok=True)
        oracle = Oracle(data, join_order=self.wl.name != "khop_paths",
                        tmp_dir=str(tmp))
        self.data, self.store, self.oracle = data, store, oracle
        for r in self.warmup_stream():
            self.execute(r)
        self.setup_times.append(perf_counter() - t0)
        self.build_times.append(build)

    def warmup_stream(self):
        stream = make_stream(self.wl, self.data, len(self.templates),
                             self.seed, salt=1)
        if self.wl.name == SPARK:
            return [r for r in stream if r.kind == "distributed"][:1]
        return stream

    # -- requests ----------------------------------------------------------------

    def execute(self, r):
        # Module attributes, so a traced run sees its wrappers.
        from repro.proc import distributed, lbp
        from repro.storage.graph_store import GraphStore, StorageConfig

        if r.kind == "lbp":
            return lbp.run_lbp(self.store, r.spec, scan_range=r.scan_range)
        if r.kind == "distributed":
            return distributed.run_distributed(self.spark, self.store, r.spec)
        if r.kind == "build":
            return GraphStore.build(self.data, StorageConfig.gf_cl(), spark=self.spark)
        raise ValueError(r.kind)

    def measure(self, stream, tracer: Tracer | None = None):
        lat, results = [], []
        for r in stream:
            if tracer is not None:
                tracer.request = r.rid
                span = tracer.open("request")
            t0 = perf_counter()
            try:
                res, err = self.execute(r), None
            except Exception as e:  # counted in error_rate, never dropped
                res, err = None, f"{type(e).__name__}: {e}"
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
                tracer.request = -1
            lat.append(dt)
            results.append((res, err))
        return lat, results

    # -- correctness -------------------------------------------------------------

    def check(self, stream, results) -> tuple[int, int, list[str]]:
        """(raised, mismatched, notes). Runs outside any timed section."""
        from repro.proc import lbp

        answers, notes, raised = [], [], 0
        ref_report = self.store.memory_report()
        for r, (res, err) in zip(stream, results):
            if err is None and r.kind == "build":
                # A build is correct when it matches the set-up store and
                # answers its request's query like DuckDB.
                try:
                    if res.memory_report() != ref_report:
                        err = "memory_report differs from the set-up store"
                    else:
                        res = lbp.run_lbp(res, r.spec, scan_range=r.scan_range)
                except Exception as e:
                    err = f"{type(e).__name__}: {e}"
            if err is not None:
                raised += 1
                notes.append(f"request {r.rid} {r.template} raised {err}")
                res = None
            elif hasattr(res, "toPandas"):  # a Spark DataFrame
                res = res.toPandas()
            answers.append(res)
        by_template = defaultdict(list)
        for i, r in enumerate(stream):
            if answers[i] is not None:
                by_template[r.template].append(i)
        bad: list[int] = []
        for name, idx in by_template.items():
            spec = self.templates[name].spec
            if spec.returns == "count":
                reqs = [(dict(stream[i].params), stream[i].scan_range) for i in idx]
                want = self.oracle.counts(spec, reqs)
                bad += [i for i, w in zip(idx, want)
                        if exact_count(answers[i]) != w]
            else:
                # A projection that is not a DataFrame is wrong as is.
                bad += [i for i in idx if not isinstance(answers[i], pd.DataFrame)]
                idx = [i for i in idx if isinstance(answers[i], pd.DataFrame)]
                if idx:
                    reqs = [(dict(stream[i].params), stream[i].scan_range) for i in idx]
                    frames = [answers[i] for i in idx]
                    bad += [idx[k] for k in self.oracle.row_mismatches(spec, reqs, frames)]
        for i in sorted(bad):
            notes.append(f"request {stream[i].rid} {stream[i].template} "
                         "differs from DuckDB")
        return raised, len(bad), notes

    # -- runs --------------------------------------------------------------------

    def stream(self):
        n = self.wl.n_requests(self.seconds)
        return make_stream(self.wl, self.data, n, self.seed)

    def run_untraced(self) -> dict:
        """Set-ups and measured slices alternate: each set-up is followed
        by its share of the stream's slices, which are then checked
        against DuckDB. The timed slices so span most of the run.

        Every set-up and slice is bracketed by host speed probes
        (:mod:`perfbench.calibrate`); its timings are divided by the
        slowdown the probes saw, so a shared host's drift cancels."""
        lat, raised, mismatched, notes = [], 0, 0, []
        setup_slow, slice_slow, slice_lat = [], [], []
        stream = bounds = None
        last = self.wl.setups - 1
        for j in range(self.wl.setups):
            slow, _ = calibrate.bracket(self.setup)
            setup_slow.append(slow)
            if stream is None:
                stream = self.stream()
                bounds = stats.slice_bounds(len(stream), SLICE_MIN, MAX_SLICES)
            k = len(bounds) - 1
            # Slices of this set-up; the last set-up gets the final slice.
            mine = [i for i in range(k) if last - (k - 1 - i) * (last + 1) // k == j]
            if not mine:
                continue
            part = stream[bounds[mine[0]]:bounds[mine[-1] + 1]]
            results = []
            for i in mine:
                slow, (part_lat, part_res) = calibrate.bracket(
                    self.measure, stream[bounds[i]:bounds[i + 1]]
                )
                slice_slow.append(slow)
                slice_lat.append([x * 1e3 / slow for x in part_lat])
                lat += part_lat
                results += part_res
            r, m, nt = self.check(part, results)
            raised, mismatched, notes = raised + r, mismatched + m, notes + nt
        n = len(stream)
        failed = raised + mismatched
        q = stats.tail_percentile(n)
        lat_ms = [x for part in slice_lat for x in part]
        # Builds after the first set-up's, plus Spark builds sent as requests.
        builds = [b / f for b, f in zip(self.build_times, setup_slow)][1:] or [
            self.build_times[0] / setup_slow[0]
        ]
        builds += [
            x / 1e3 for r, x in zip(stream, lat_ms) if r.kind == "build"
        ]
        metrics = {
            "setup_s": statistics.median(
                t / f for t, f in zip(self.setup_times, setup_slow)
            ),
            "qps": statistics.median(1e3 * len(p) / sum(p) for p in slice_lat),
            "latency_p50_ms": statistics.median(
                stats.percentile(p, 50) for p in slice_lat
            ),
            "latency_tail_ms": stats.percentile(lat_ms, q),
            "success_rate": 1.0 - failed / n,
            "build_s": statistics.median(builds),
            "store_mb": self.store.memory_report()["total"] / 1e6,
        }
        info = [
            f"workload={self.wl.name} seed={self.seed} requests={n} "
            f"stream_sha256={stream_hash(stream)}",
            f"raw: setups={len(self.setup_times)} setup_s="
            + ",".join(f"{x:.4f}" for x in self.setup_times)
            + " build_s=" + ",".join(f"{x:.4f}" for x in self.build_times)
            + f" qps={n / sum(lat):.4f}",
            "host slowdown per set-up: "
            + ",".join(f"{x:.3f}" for x in setup_slow)
            + "; per slice: " + ",".join(f"{x:.3f}" for x in slice_slow)
            + f" (probe nominal {calibrate.NOMINAL_S * 1e3:.3f} ms); the timings "
            "below and in the JSON are divided by them",
        ]
        for pq in (50, 90, 99):
            if pq == 50 or stats.reportable(n, pq):
                info.append(
                    f"latency_p{pq}_ms={stats.percentile(lat_ms, pq):.4f} (n={n})"
                )
            else:
                info.append(f"latency_p{pq}_ms not reported: n={n} leaves fewer "
                            "than 10 samples beyond it")
        info.append(f"latency_tail_ms is p{q} (n={n}); qps and latency_p50_ms "
                    f"are medians over {len(slice_lat)} slices: qps="
                    + ",".join(f"{1e3 * len(p) / sum(p):.2f}" for p in slice_lat))
        info.append(f"error_rate={failed / n:.6f} (raised={raised} "
                    f"mismatched={mismatched} attempted={n})")
        info += notes[:20]
        units = {name: unit for name, unit, _, _ in END_TO_END}
        return self._result(info, n, failed, metrics, units)

    def run_traced(self) -> dict:
        tracer = Tracer()
        spark = self.wl.name == SPARK

        def install():
            install_repro(tracer, lbp_functions=not spark)
            if spark:
                install_spark(tracer)

        install()
        try:
            for _ in range(self.wl.setups):
                self.setup(tracer)
        finally:
            tracer.uninstall()
        stream = self.stream()
        n = len(stream)
        lat0, res0 = self.measure(stream)
        install()
        try:
            lat1, res1 = self.measure(stream, tracer)
        finally:
            tracer.uninstall()
        t0 = perf_counter()
        raised, mismatched, notes = self.check(stream, res1)
        check_s = perf_counter() - t0
        r0, m0, notes0 = self.check(stream, res0)
        failed = raised + mismatched + r0 + m0

        m = layer_metrics(
            tracer.spans, n,
            chunk_stats=(tracer.consumes, tracer.multi_unflat, tracer.max_groups),
        )
        report = self.store.memory_report()
        for part in ("vertex_props", "edge_props", "fwd_adj", "bwd_adj"):
            m[f"storage.bytes.{part}"] = float(report[part])
        m["storage.build.spark_sort_s"] = 0.0
        m["distributed.store_pickle_mb"] = 0.0
        m["distributed.overhead_ratio"] = 0.0
        if spark:
            m.update(self._spark_extras(stream, lat0))
        m["oracle.check_s"] = check_s
        m["oracle.mismatches"] = float(mismatched + m0)
        m["trace.overhead_frac"] = 1.0 - sum(lat0) / sum(lat1)

        spans_path = self.out / f"trace_{self.wl.name}_{self.seed}.json"
        tracer.dump(spans_path)
        shares = busy_shares(tracer.spans, self_times(tracer.spans))
        info = [
            f"workload={self.wl.name} seed={self.seed} requests={n} "
            f"stream_sha256={stream_hash(stream)} traced",
            f"spans={len(tracer.spans)} written to {spans_path.name}",
            "share of busy time (self time per layer):",
        ] + [f"  {layer:28s} {share:7.2%}" for layer, share in shares.items()]
        info += (notes + notes0)[:20]
        units = {name: unit for name, unit, _, _ in per_layer_metrics()}
        return self._result(info, 2 * n, failed, m, units)

    def _spark_extras(self, stream, lat) -> dict:
        """Spark-only layer numbers, from untimed side measurements."""
        from repro.proc import lbp
        from repro.storage.graph_store import GraphStore, StorageConfig

        numpy_builds = []
        for _ in range(3):
            t0 = perf_counter()
            GraphStore.build(self.data, StorageConfig.gf_cl())
            numpy_builds.append(perf_counter() - t0)
        spark_builds = self.build_times[1:] + [
            dt for r, dt in zip(stream, lat) if r.kind == "build"
        ]
        dist, local = defaultdict(list), defaultdict(list)
        for r, dt in zip(stream, lat):
            if r.kind != "distributed":
                continue
            reps = []
            for _ in range(3):
                t0 = perf_counter()
                lbp.run_lbp(self.store, r.spec)
                reps.append(perf_counter() - t0)
            dist[r.template].append(dt)
            local[r.template].append(statistics.median(reps))
        ratios = [
            statistics.median(dist[t]) / statistics.median(local[t]) for t in dist
        ]
        return {
            "storage.build.spark_sort_s": statistics.median(spark_builds)
            - statistics.median(numpy_builds),
            "distributed.store_pickle_mb": len(
                pickle.dumps(self.store, protocol=pickle.HIGHEST_PROTOCOL)
            ) / 1e6,
            "distributed.overhead_ratio": statistics.median(ratios) if ratios else 0.0,
        }

    @staticmethod
    def _result(info, attempted, failed, metrics, units) -> dict:
        return {
            "info": info,
            "result": {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": float(metrics[k]), "unit": units[k]} for k in units
                },
            },
        }


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv, out: Path) -> int:
    args = parse_args(argv)
    out.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds, out)
    try:
        res = bench.run_traced() if args.trace else bench.run_untraced()
    finally:
        bench.close()
    for line in res["info"]:
        print(line)
    sys.stdout.flush()
    print(json.dumps(res["result"]))
    return 0
