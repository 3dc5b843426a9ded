"""Table 2 benchmark: memory reduction per storage optimization (§8.2)."""
import pytest

from repro.bench.memory import format_table2, table2, table2_with_factors
from repro.bench.record import record
from repro.graphs.datasets import imdb_lite, ldbc_lite

SF = 0.3


@pytest.mark.parametrize("name,maker", [("ldbc", ldbc_lite), ("imdb", imdb_lite)])
def test_table2_memory(benchmark, name, maker):
    data = maker(sf=SF)

    def run():
        return table2(data)

    df = benchmark.pedantic(run, rounds=1, iterations=1)
    record(f"table2_{name}", format_table2(df, f"{name}_lite sf={SF}"))
    w = table2_with_factors(df)
    assert w.loc["total", "GF-CL ×"] > 1.5  # paper: 2.36x / 2.03x
