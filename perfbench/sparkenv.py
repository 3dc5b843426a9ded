"""Spark for the ``spark_offload`` workload: local mode, two cores, all
scratch files under the benchmark's output directory, and ``repro`` on
the Python workers' path."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

CORES = 2


def configure(src: Path, out: Path) -> None:
    """Set the environment the JVM and the Python workers inherit. Must
    run before pyspark launches its gateway."""
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(out / "spark")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    # Workers unpickle repro objects; without this they fail with
    # ModuleNotFoundError: repro.
    paths = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    # No JVM perf-data file (the launcher JVM included): it would go to
    # /tmp whatever java.io.tmpdir says.
    os.environ["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory 2g "
        f"--driver-java-options '-Djava.io.tmpdir={tmp}' "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )


def start():
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{CORES}]")
        .config("spark.sql.shuffle.partitions", str(2 * CORES))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.local.dir", os.environ["SPARK_LOCAL_DIRS"])
        .getOrCreate()
    )


def shutdown(spark) -> None:
    """Stop the session, then the JVM, and wait for it to exit (its
    Python worker daemon exits with it)."""
    from pyspark import SparkContext

    if spark is not None:
        spark.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    gw.shutdown()
    proc = getattr(gw, "proc", None)
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
