"""Supervised baselines and their separability across views."""

import numpy as np
import pytest

import mmvfl.optimizer as optimizer
from mmvfl.baselines import supfl_solve, supmvlfl_solve
from mmvfl.optimizer import (
    NonDecreasingObjectiveError,
    fit_sparse_transform,
    one_hot,
)

from oracles import fit_objective


def random_instance(seed, max_views=4):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, max_views + 1))
    nc = int(rng.integers(2, 4))
    n = max(int(rng.integers(20, 120)), nc * 3)
    views = [rng.standard_normal((n, int(rng.integers(3, 33)))) for _ in range(k)]
    labels = one_hot(np.arange(n) % nc, nc)
    beta = float(10.0 ** rng.uniform(-4, 0.7))
    return views, labels, beta


def test_supfl_zero_labels_rejected_but_zero_features_shrink():
    rng = np.random.default_rng(0)
    labels = one_hot(np.arange(9) % 3, 3)
    x = np.zeros((9, 4))
    w, _ = supfl_solve(x, labels, 0.5)
    assert np.max(np.abs(w)) == 0.0


def test_supfl_interpolates_with_tiny_weight():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    labels = one_hot(np.array([0, 1, 2]), 3)
    w, _ = supfl_solve(x, labels, 1e-10, tol=1e-14, max_iter=200)
    assert np.max(np.abs(x @ w - labels)) <= 1e-6


def test_supfl_matches_generic_sparse_fit():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 6))
    labels = one_hot(np.arange(20) % 2, 2)
    ours, trace = supfl_solve(x, labels, 0.3)
    generic, _, generic_trace = fit_sparse_transform(x, labels, 0.3)
    assert np.array_equal(ours, generic)
    assert trace == generic_trace


def test_supfl_beats_random_probes():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 6))
    labels = one_hot(np.arange(20) % 3, 3)
    w, trace = supfl_solve(x, labels, 0.4)
    scale = np.max(np.abs(w)) + 1.0
    for _ in range(100):
        probe = rng.standard_normal(w.shape) * scale
        assert fit_objective(x, labels, probe, 0.4) >= trace[-1]


def test_supmvlfl_single_view_equals_supfl():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((18, 5))
    labels = one_hot(np.arange(18) % 3, 3)
    joint, joint_trace = supmvlfl_solve([x], labels, 0.2)
    solo, solo_trace = supfl_solve(x, labels, 0.2)
    assert np.array_equal(joint[0], solo)
    assert joint_trace == solo_trace


def test_supmvlfl_identical_views_produce_identical_transforms():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((15, 4))
    labels = one_hot(np.arange(15) % 3, 3)
    transforms, _ = supmvlfl_solve([x, x.copy(), x.copy()], labels, 0.3)
    assert np.array_equal(transforms[0], transforms[1])
    assert np.array_equal(transforms[0], transforms[2])


def test_supmvlfl_separates_into_per_view_fits():
    """The joint objective is a sum of per-view terms, so running the
    same number of reweighted steps jointly or independently gives the
    same iterates; when the stopping rules fire at different rounds the
    results still agree to far below the 1e-10 bar."""
    matched_bitwise = 0
    for seed in range(20):
        views, labels, beta = random_instance(seed)
        joint, joint_trace = supmvlfl_solve(views, labels, beta,
                                            tol=1e-300, max_iter=4)
        for k, view in enumerate(views):
            solo, solo_trace = supfl_solve(view, labels, beta,
                                           tol=1e-300, max_iter=4)
            assert np.max(np.abs(joint[k] - solo)) <= 1e-10
            if len(joint_trace) == len(solo_trace):
                assert np.array_equal(joint[k], solo)
                matched_bitwise += 1
    assert matched_bitwise >= 40  # most instances run in lockstep


def test_supmvlfl_trace_descends():
    views, labels, _ = random_instance(21)
    _, trace = supmvlfl_solve(views, labels, 0.2)
    assert trace[-1] <= trace[0] + 1e-9
    assert np.diff(np.asarray(trace)).max(initial=0.0) <= 1e-9 * max(1.0, abs(trace[0]))


def test_supmvlfl_guard_fires_on_broken_solver(monkeypatch):
    views, labels, _ = random_instance(22)
    good = optimizer._penalized_solve
    calls = {"n": 0}

    def sabotage(gram, xty, diag, sparsity, work):
        calls["n"] += 1
        if calls["n"] > len(views):
            return np.full((gram.shape[0], xty.shape[1]), 50.0)
        return good(gram, xty, diag, sparsity, work)

    monkeypatch.setattr(optimizer, "_penalized_solve", sabotage)
    with pytest.raises(NonDecreasingObjectiveError):
        supmvlfl_solve(views, labels, 0.1, max_iter=4)


def test_supmvlfl_input_validation():
    rng = np.random.default_rng(23)
    labels = one_hot(np.arange(10) % 2, 2)
    views = [rng.standard_normal((10, 3)), rng.standard_normal((10, 4))]
    with pytest.raises(ValueError):
        supmvlfl_solve(views, labels, [0.1])  # one weight per view
    with pytest.raises(ValueError):
        supmvlfl_solve(views, labels, -1.0)
    with pytest.raises(ValueError):
        supmvlfl_solve([rng.standard_normal((9, 3))], labels, 0.1)  # row mismatch
