"""Long-format distributed matrices: every op the benchmark tracer patches,
against numpy."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.generators import erdos_renyi
from repro.linalg.longmat import LongMatrix


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


def test_roundtrip(spark, rng):
    a = rng.standard_normal((17, 4))
    a[3] = 0.0  # a zero row must survive the implicit-zero representation
    m = LongMatrix.from_numpy(spark, a)
    np.testing.assert_allclose(m.to_numpy(), a)


def test_roundtrip_all_zero(spark):
    a = np.zeros((5, 3))
    np.testing.assert_allclose(LongMatrix.from_numpy(spark, a).to_numpy(), a)


def test_spmm_matches_numpy(spark, rng):
    g = erdos_renyi(30, 90, directed=True, seed=1)
    arcs = spark.createDataFrame(
        pd.DataFrame({"src": g.arcs[:, 0], "dst": g.arcs[:, 1]})
    )
    x = rng.standard_normal((30, 3))
    got = LongMatrix.from_numpy(spark, x).spmm(arcs, 30).to_numpy()
    np.testing.assert_allclose(got, g.adjacency() @ x, atol=1e-10)


def test_spmm_weighted_matches_transition(spark, rng):
    g = erdos_renyi(25, 80, seed=2)
    src, dst = g.arcs.T
    arcs = spark.createDataFrame(
        pd.DataFrame({"src": src, "dst": dst, "p": 1.0 / g.d_out[src]})
    )
    x = rng.standard_normal((25, 4))
    got = (
        LongMatrix.from_numpy(spark, x)
        .spmm(arcs, 25, weight_col="p")
        .to_numpy()
    )
    np.testing.assert_allclose(got, g.transition() @ x, atol=1e-10)


def test_gram(spark, rng):
    a = rng.standard_normal((40, 3))
    b = rng.standard_normal((40, 5))
    ma, mb = LongMatrix.from_numpy(spark, a), LongMatrix.from_numpy(spark, b)
    np.testing.assert_allclose(ma.gram(mb), a.T @ b, atol=1e-10)
    np.testing.assert_allclose(ma.gram(ma), a.T @ a, atol=1e-10)


def test_checkpoint_preserves_values(spark, rng):
    a = rng.standard_normal((9, 3))
    m = LongMatrix.from_numpy(spark, a).checkpoint()
    np.testing.assert_allclose(m.to_numpy(), a)
