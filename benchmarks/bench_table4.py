"""Table 4 benchmark: vertex columns vs CSR for single-cardinality
edges (§8.4)."""
import pytest

from repro.bench.record import record
from repro.bench.single_card import format_table4, table4
from repro.graphs.datasets import ldbc_lite


def test_table4_single_card(benchmark):
    data = ldbc_lite(sf=1.0)

    def run():
        return table4(data, repeats=2)

    df = benchmark.pedantic(run, rounds=1, iterations=1)
    record("table4", format_table4(df))
    # Shape: V-COL beats CSR on memory in both compression settings,
    # and NULL compression shrinks the half-empty replyOf storage.
    assert df.loc["V-COL-UNC", "mem_bytes"] < df.loc["CSR-UNC", "mem_bytes"]
    assert df.loc["V-COL-C", "mem_bytes"] < df.loc["CSR-C", "mem_bytes"]
    assert df.loc["V-COL-C", "mem_bytes"] < df.loc["V-COL-UNC", "mem_bytes"]
    for h in (2, 3):
        assert (
            df.loc["V-COL-UNC", f"{h}-hop_s"] < df.loc["CSR-UNC", f"{h}-hop_s"]
        )
