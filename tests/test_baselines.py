"""Supervised baselines and their separability across views."""

import numpy as np
import pytest

import mmvfl.baselines as baselines
import mmvfl.optimizer as optimizer
from mmvfl.baselines import supfl_solve, supmvlfl_solve
from mmvfl.optimizer import EPS, NonDecreasingObjectiveError, one_hot

from oracles import fit_objective, fit_sparse_transform, loop_reweight_diag, plain_solve_minimizer


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
    w, _, _ = supfl_solve(x, labels, 0.5)
    assert np.max(np.abs(w)) == 0.0


def test_supfl_interpolates_with_tiny_weight(monkeypatch):
    monkeypatch.setattr(baselines, "TOL", 1e-14)
    monkeypatch.setattr(baselines, "MAX_ITER", 200)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    labels = one_hot(np.array([0, 1, 2]), 3)
    w, _, _ = supfl_solve(x, labels, 1e-10)
    assert np.max(np.abs(x @ w - labels)) <= 1e-6


def test_supfl_matches_generic_sparse_fit():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 6))
    labels = one_hot(np.arange(20) % 2, 2)
    ours, trace, _ = supfl_solve(x, labels, 0.3)
    generic, _, generic_trace = fit_sparse_transform(x, labels, 0.3)
    assert np.array_equal(ours, generic)
    assert trace == generic_trace


def test_supfl_beats_random_probes():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 6))
    labels = one_hot(np.arange(20) % 3, 3)
    w, trace, _ = supfl_solve(x, labels, 0.4)
    scale = np.max(np.abs(w)) + 1.0
    for _ in range(100):
        probe = rng.standard_normal(w.shape) * scale
        assert fit_objective(x, labels, probe, 0.4) >= trace[-1]


def test_supmvlfl_single_view_equals_supfl():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((18, 5))
    labels = one_hot(np.arange(18) % 3, 3)
    joint, joint_trace, joint_converged = supmvlfl_solve([x], labels, 0.2)
    solo, solo_trace, solo_converged = supfl_solve(x, labels, 0.2)
    assert np.array_equal(joint[0], solo)
    assert joint_trace == solo_trace
    assert joint_converged and solo_converged


def test_supmvlfl_identical_views_produce_identical_transforms():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((15, 4))
    labels = one_hot(np.arange(15) % 3, 3)
    transforms, _, _ = supmvlfl_solve([x, x.copy(), x.copy()], labels, 0.3)
    assert np.array_equal(transforms[0], transforms[1])
    assert np.array_equal(transforms[0], transforms[2])


def test_supmvlfl_separates_into_per_view_fits(monkeypatch):
    """The joint objective is a sum of per-view terms, so running the
    same number of reweighted steps jointly or independently gives the
    same iterates; when the stopping rules fire at different rounds the
    results still agree to far below the 1e-10 bar."""
    monkeypatch.setattr(baselines, "TOL", 1e-300)
    monkeypatch.setattr(baselines, "MAX_ITER", 4)
    matched_bitwise = 0
    for seed in range(20):
        views, labels, beta = random_instance(seed)
        joint, joint_trace, _ = supmvlfl_solve(views, labels, beta)
        for k, view in enumerate(views):
            solo, solo_trace, _ = supfl_solve(view, labels, beta)
            assert np.max(np.abs(joint[k] - solo)) <= 1e-10
            if len(joint_trace) == len(solo_trace):
                assert np.array_equal(joint[k], solo)
                matched_bitwise += 1
    assert matched_bitwise >= 40  # most instances run in lockstep


def test_supmvlfl_trace_descends():
    views, labels, _ = random_instance(21)
    _, trace, _ = supmvlfl_solve(views, labels, 0.2)
    assert trace[-1] <= trace[0] + 1e-9
    assert np.diff(np.asarray(trace)).max(initial=0.0) <= 1e-9 * max(1.0, abs(trace[0]))


def test_supmvlfl_guard_fires_on_broken_solver(monkeypatch):
    views, labels, _ = random_instance(22)
    good = optimizer._cholesky_solve_in_place
    calls = {"n": 0}

    def sabotage(system, b, shift):
        calls["n"] += 1
        if calls["n"] > len(views):
            broken = np.full((system.shape[0], b.shape[1]), 50.0)
            return broken, system @ broken
        return good(system, b, shift)

    monkeypatch.setattr(optimizer, "_cholesky_solve_in_place", sabotage)
    monkeypatch.setattr(baselines, "MAX_ITER", 4)
    with pytest.raises(NonDecreasingObjectiveError):
        supmvlfl_solve(views, labels, 0.1)


def test_supmvlfl_guard_fires_on_a_view_whose_rise_another_view_outweighs(monkeypatch):
    """Each view's step is guarded on its own, as ``supfl_solve`` on that
    view would guard it: a rise of view 0's smoothed objective raises
    even when view 1 falls by more in the same iteration."""
    rng = np.random.default_rng(24)
    labels = one_hot(np.arange(40) % 2, 2)
    views = [rng.standard_normal((40, 5)), rng.standard_normal((40, 6))]
    beta = 0.1
    good = optimizer._cholesky_solve_in_place
    solves = []

    def sabotage(system, b, shift):
        w, gw = good(system, b, shift)
        if len(solves) == 1:  # view 1's first step, which nothing guards, lands far off
            w = np.full_like(w, 50.0)
        elif len(solves) == 2:  # view 0's second step climbs away from its first
            w = 3.0 * solves[0]
        solves.append(w)
        return w, system @ w

    monkeypatch.setattr(optimizer, "_cholesky_solve_in_place", sabotage)
    monkeypatch.setattr(baselines, "MAX_ITER", 4)
    with pytest.raises(NonDecreasingObjectiveError):
        supmvlfl_solve(views, labels, beta)
    assert len(solves) == 3  # view 1's second step never ran

    def smoothed(x, w):
        norms = np.linalg.norm(w, axis=1)
        return (float(np.sum((x @ w - labels) ** 2))
                + beta * optimizer.smoothed_row_penalty(norms))

    before = smoothed(views[0], solves[0])
    rise = smoothed(views[0], solves[2]) - before
    assert rise > optimizer.MONOTONICITY_SLACK * max(1.0, abs(before))
    fall = smoothed(views[1], solves[1]) - smoothed(views[1], plain_solve_minimizer(
        views[1], labels, loop_reweight_diag(solves[1], EPS), beta))
    assert fall > rise  # the summed objective falls


def test_supmvlfl_input_validation():
    rng = np.random.default_rng(23)
    labels = one_hot(np.arange(10) % 2, 2)
    views = [rng.standard_normal((10, 3)), rng.standard_normal((10, 4))]
    with pytest.raises(TypeError):
        supmvlfl_solve(views, labels, [0.1])  # one weight for every view
    with pytest.raises(ValueError):
        supmvlfl_solve(views, labels, -1.0)
    with pytest.raises(ValueError):
        supmvlfl_solve(views, labels, float("inf"))
    with pytest.raises(ValueError):
        supmvlfl_solve([rng.standard_normal((9, 3))], labels, 0.1)  # row mismatch


@pytest.mark.parametrize("beta", ["0.1", True])
def test_a_weight_that_is_not_a_number_is_refused(beta):
    rng = np.random.default_rng(25)
    labels = one_hot(np.arange(10) % 2, 2)
    views = [rng.standard_normal((10, 3)), rng.standard_normal((10, 4))]
    with pytest.raises(TypeError, match="real number"):
        supmvlfl_solve(views, labels, beta)
    with pytest.raises(TypeError, match="real number"):
        supfl_solve(views[0], labels, beta)
