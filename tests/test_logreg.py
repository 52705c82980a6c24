"""Logistic-regression substrate."""
import numpy as np
import pytest

from repro.ml.logreg import LogisticRegression, _sigmoid


def test_binary_separable():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(-2, 0.5, (50, 3)), rng.normal(2, 0.5, (50, 3))])
    y = np.array([0] * 50 + [1] * 50)
    clf = LogisticRegression().fit(X, y)
    assert (clf.predict(X) == y).mean() > 0.98


def test_multiclass():
    rng = np.random.default_rng(1)
    centers = np.array([[3, 0], [-3, 0], [0, 3]])
    X = np.vstack([rng.normal(c, 0.6, (40, 2)) for c in centers])
    y = np.repeat([5, 7, 9], 40)  # non-contiguous labels must round-trip
    clf = LogisticRegression().fit(X, y)
    pred = clf.predict(X)
    assert set(pred) <= {5, 7, 9}
    assert (pred == y).mean() > 0.95


def test_decision_function_shape_and_proba_range():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 4))
    y = rng.integers(0, 3, 30)
    clf = LogisticRegression(epochs=50).fit(X, y)
    assert clf.decision_function(X).shape == (30, 3)
    P = _sigmoid(clf.decision_function(X))
    assert np.all((P >= 0) & (P <= 1))


def test_predict_before_fit_raises():
    clf = LogisticRegression()
    with pytest.raises(AssertionError):
        clf.predict(np.zeros((2, 2)))


def test_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 3))
    y = rng.integers(0, 2, 50)
    w1 = LogisticRegression(epochs=60).fit(X, y).W
    w2 = LogisticRegression(epochs=60).fit(X, y).W
    np.testing.assert_array_equal(w1, w2)
