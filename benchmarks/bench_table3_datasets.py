"""Bench for paper Tables 3 & 4: lite dataset construction + statistics."""
from repro.experiments.harness import run


def test_table3_and_4_datasets(benchmark):
    t3, t4 = benchmark.pedantic(
        lambda: (run("table3_datasets"), run("table4_evolving_datasets")),
        rounds=1, iterations=1,
    )
    assert len(t3) == 7 and len(t4) == 2
    assert set(t3.type) == {"directed", "undirected"}
