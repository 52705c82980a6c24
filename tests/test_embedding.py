"""Embedding container semantics."""
import numpy as np
import pytest

from repro.embedding import Embedding


@pytest.fixture
def dual():
    rng = np.random.default_rng(0)
    return Embedding(X=rng.normal(size=(10, 4)), Y=rng.normal(size=(10, 4)))


def test_score_pairs_dual(dual):
    pairs = np.array([[0, 1], [3, 7]])
    want = [dual.X[0] @ dual.Y[1], dual.X[3] @ dual.Y[7]]
    np.testing.assert_allclose(dual.score_pairs(pairs), want)
    assert dual.right is dual.Y


def test_score_pairs_single():
    rng = np.random.default_rng(1)
    emb = Embedding(X=rng.normal(size=(6, 3)))
    pairs = np.array([[2, 5]])
    assert emb.score_pairs(pairs)[0] == pytest.approx(emb.X[2] @ emb.X[5])
    assert not emb.dual and emb.right is emb.X


def test_features_normalized(dual):
    f = dual.features()
    assert f.shape == (10, 8)
    np.testing.assert_allclose(np.linalg.norm(f[:, :4], axis=1), 1.0)
    np.testing.assert_allclose(np.linalg.norm(f[:, 4:], axis=1), 1.0)


def test_features_zero_row_safe():
    emb = Embedding(X=np.zeros((3, 2)))
    assert np.isfinite(emb.features()).all()


def test_nrp_and_approxppr_share_features():
    # the paper: after normalization NRP and ApproxPPR have the same
    # classification features (weights scale rows, normalization removes it)
    rng = np.random.default_rng(2)
    X, Y = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
    wf, wb = rng.random(8) + 0.5, rng.random(8) + 0.5
    a = Embedding(X=X, Y=Y).features()
    b = Embedding(X=wf[:, None] * X, Y=wb[:, None] * Y).features()
    np.testing.assert_allclose(a, b, atol=1e-12)
