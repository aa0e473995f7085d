"""Core training math: closed-form updates, the reweighted sparse solve,
objective bookkeeping, and the single-process reference loop."""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmvfl.optimizer as optimizer
from mmvfl.baselines import supmvlfl_solve
from mmvfl.numerics import SPD_RESIDUAL_TOL
from mmvfl.optimizer import (
    Hyperparams,
    NonDecreasingObjectiveError,
    ProblemShape,
    aggregate_consensus,
    check_one_hot,
    fit_sparse_transform,
    has_converged,
    local_objective_part,
    make_states,
    one_hot,
    owner_pseudo_label_update,
    pseudo_label_update,
    round_objective,
    run_reference,
)

from oracles import (
    fit_objective,
    gd_quadratic_minimizer,
    grid_minimize_scalar,
    loop_reweight_diag,
    loop_total_objective,
    plain_solve_minimizer,
    solve_transform,
    total_objective,
)


def random_states(seed, num_participants=3, num_samples=10, num_classes=3,
                  dims=(4, 5, 3), sparsity=0.1, consensus_penalty=2.0,
                  label_penalty=3.0):
    """Random mid-training states for objective bookkeeping tests."""
    rng = np.random.default_rng(seed)
    hyper = Hyperparams.uniform(num_participants, sparsity=sparsity,
                                consensus_penalty=consensus_penalty,
                                label_penalty=label_penalty)
    views = [rng.standard_normal((num_samples, d)) for d in dims[:num_participants]]
    labels = one_hot(np.arange(num_samples) % num_classes, num_classes)
    states = make_states(views, labels, hyper, seed=int(rng.integers(2**32)))
    for st in states:
        st.transform = rng.standard_normal(st.transform.shape)
        st.pseudo_labels = rng.standard_normal(st.pseudo_labels.shape)
    consensus = rng.standard_normal((num_samples, num_classes))
    return states, consensus, labels, hyper


# ---------------------------------------------------------------------------
# one-hot plumbing


def test_one_hot_roundtrip():
    labels = np.array([0, 2, 1, 2])
    y = one_hot(labels, 3)
    assert y.shape == (4, 3)
    assert np.array_equal(np.argmax(y, axis=1), labels)
    check_one_hot(y)


def test_check_one_hot_rejects_bad_rows():
    with pytest.raises(ValueError):
        check_one_hot(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        check_one_hot(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        check_one_hot(np.array([[0.0, 0.0]]))


# ---------------------------------------------------------------------------
# reweighting diagonal


def irls_diagonal(transform, eps):
    """The diagonal the kernel's first reweighted solve uses when it
    starts from ``transform``."""
    rng = np.random.default_rng(0)
    d, c = transform.shape
    _, diag, _ = fit_sparse_transform(rng.standard_normal((3 * d, d)),
                                      rng.standard_normal((3 * d, c)), 0.1,
                                      eps=eps, inner_max=1, init=transform)
    return diag


def test_irls_diagonal_examples():
    entry = irls_diagonal(np.array([[3.0, 4.0]]), 1e-12)[0]
    assert entry == pytest.approx(0.1, abs=1e-12)
    zero_row = irls_diagonal(np.array([[0.0, 0.0]]), 1e-6)[0]
    assert zero_row == pytest.approx(5e5, rel=1e-12)


def test_irls_diagonal_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = rng.standard_normal((4, 3))
        assert np.allclose(irls_diagonal(w, 1e-6), loop_reweight_diag(w, 1e-6),
                           rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# penalized transform solve


def test_solve_transform_identity_design_small_weight():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((6, 2))
    w = solve_transform(np.eye(6), z, np.ones(6), 1e-12)
    assert np.max(np.abs(w - z)) <= 1e-9


def test_solve_transform_zero_targets():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 3))
    w = solve_transform(x, np.zeros((8, 2)), np.ones(3), 0.5)
    assert np.max(np.abs(w)) == 0.0


def test_solve_transform_matches_lu_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n, d, c = 8, int(rng.integers(2, 6)), int(rng.integers(1, 4))
        x = rng.standard_normal((n, d))
        z = rng.standard_normal((n, c))
        diag = rng.uniform(0.1, 2.0, size=d)
        weight = float(rng.uniform(0.01, 5.0))
        ours = solve_transform(x, z, diag, weight)
        oracle = plain_solve_minimizer(x, z, diag, weight)
        assert np.max(np.abs(ours - oracle)) <= 1e-10


def test_solve_transform_matches_gradient_descent_oracle():
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.standard_normal((8, 3))
        z = rng.standard_normal((8, 2))
        diag = rng.uniform(0.2, 1.5, size=3)
        ours = solve_transform(x, z, diag, 0.1)
        oracle = gd_quadratic_minimizer(x, z, diag, 0.1)
        assert np.max(np.abs(ours - oracle)) <= 1e-6


def test_solve_transform_is_the_quadratic_minimizer():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((10, 4))
    z = rng.standard_normal((10, 3))
    diag = rng.uniform(0.1, 1.0, size=4)
    weight = 0.7
    w = solve_transform(x, z, diag, weight)

    def quad(m):
        return (float(np.sum((x @ m - z) ** 2))
                + weight * float(np.sum(diag[:, None] * m * m)))

    base = quad(w)
    for _ in range(100):
        direction = rng.standard_normal(w.shape)
        direction /= np.linalg.norm(direction)
        assert quad(w + 1e-3 * direction) >= base - 1e-12


# ---------------------------------------------------------------------------
# reweighted sparse fit


def test_fit_sparse_transform_fixed_point_stops_fast():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((12, 5))
    z = rng.standard_normal((12, 3))
    w, _, _ = fit_sparse_transform(x, z, 0.3, inner_tol=1e-12, inner_max=200)
    w2, _, trace = fit_sparse_transform(x, z, 0.3, init=w, inner_tol=1e-12,
                                        inner_max=200)
    assert len(trace) <= 3  # init eval plus at most two refreshes
    assert trace[-1] == pytest.approx(trace[0], abs=1e-12)


def test_fit_sparse_transform_beats_random_probes():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((20, 5))
    z = rng.standard_normal((20, 2))
    w, _, trace = fit_sparse_transform(x, z, 0.5)
    final = trace[-1]
    scale = np.max(np.abs(w)) + 1.0
    for _ in range(100):
        probe = rng.standard_normal(w.shape) * scale
        assert fit_objective(x, z, probe, 0.5) >= final


def test_fit_sparse_transform_large_weight_shrinks():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((15, 4))
    z = rng.standard_normal((15, 2))
    big, _, _ = fit_sparse_transform(x, z, 1e6)
    small, _, _ = fit_sparse_transform(x, z, 1e-5)
    assert np.linalg.norm(big) <= 1e-3 * np.linalg.norm(small)


def test_fit_sparse_transform_trace_descends_overall():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.standard_normal((15, 6))
        z = rng.standard_normal((15, 2))
        _, _, trace = fit_sparse_transform(x, z, float(rng.uniform(0.01, 1.0)))
        assert trace[-1] <= trace[0] + 1e-9
        rises = np.diff(np.asarray(trace))
        assert rises.max(initial=0.0) <= 1e-9 * max(1.0, abs(trace[0]))


def test_fit_sparse_transform_stationarity_of_returned_pair():
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = rng.standard_normal((12, 5))
        z = rng.standard_normal((12, 3))
        weight = float(rng.uniform(0.05, 2.0))
        w, diag, _ = fit_sparse_transform(x, z, weight)
        gradient = 2.0 * x.T @ (x @ w - z) + 2.0 * weight * diag[:, None] * w
        assert np.max(np.abs(gradient)) <= 1e-8 * (1.0 + np.linalg.norm(z))


def test_fit_sparse_transform_guard_fires_on_broken_solver(monkeypatch):
    rng = np.random.default_rng(13)
    x = rng.standard_normal((10, 4))
    z = rng.standard_normal((10, 2))
    good = optimizer._penalized_solve
    calls = {"n": 0}

    def sabotage(gram, xty, diag, sparsity, work):
        calls["n"] += 1
        if calls["n"] >= 2:
            return np.full((gram.shape[0], xty.shape[1]), 100.0)
        return good(gram, xty, diag, sparsity, work)

    monkeypatch.setattr(optimizer, "_penalized_solve", sabotage)
    with pytest.raises(NonDecreasingObjectiveError):
        fit_sparse_transform(x, z, 0.1, inner_max=5)


def test_fit_sparse_transform_deterministic():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((10, 4))
    z = rng.standard_normal((10, 2))
    a, _, ta = fit_sparse_transform(x, z, 0.2)
    b, _, tb = fit_sparse_transform(x, z, 0.2)
    assert np.array_equal(a, b)
    assert ta == tb


def _record_solves(monkeypatch):
    """Wrap the kernel's solve step; returns the list of (args, result)."""
    solves = []
    original = optimizer._penalized_solve

    def record(gram, xty, irls_diag, sparsity, work):
        result = original(gram, xty, irls_diag, sparsity, work)
        solves.append(((gram, xty, irls_diag, sparsity), result))
        return result

    monkeypatch.setattr(optimizer, "_penalized_solve", record)
    return solves


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 30), d=st.integers(1, 40), c=st.integers(1, 4),
       zero_rows=st.integers(0, 40), sparsity=st.floats(1e-3, 10.0),
       eps=st.sampled_from([1e-6, 1e-4, 1e-3]), seed=st.integers(0, 2**32 - 1))
def test_gram_form_objective_matches_residual_form_at_every_iterate(
        n, d, c, zero_rows, sparsity, eps, seed):
    # zero rows in the warm start put 1/(2 eps) on the first reweighting
    # diagonal; d > n leaves the gram singular
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    t = rng.standard_normal((n, c))
    init = rng.standard_normal((d, c))
    init[:zero_rows] = 0.0
    with pytest.MonkeyPatch.context() as patch:
        solves = _record_solves(patch)
        _, _, trace = fit_sparse_transform(x, t, sparsity, eps=eps, init=init, inner_max=8)
    gram, xty, t_sq = optimizer.gram_matrix(x), x.T @ t, float(np.sum(t * t))
    iterates = [init] + [w for _, w in solves]
    assert len(trace) == len(iterates)
    for value, w in zip(trace, iterates):
        # the Gram form cancels terms of this size, so its rounding error
        # scales with them where X is ill-conditioned and W large
        cancelled = float(np.sum(np.abs(w) * (np.abs(gram) @ np.abs(w) + 2.0 * np.abs(xty))))
        tolerance = 1e-12 * max(1.0, t_sq, cancelled)
        assert abs(value - fit_objective(x, t, w, sparsity)) <= tolerance
    if zero_rows:
        assert solves[0][0][2].max() == 1.0 / (2.0 * eps)


def test_every_kernel_solve_meets_the_residual_promise(monkeypatch):
    solves = _record_solves(monkeypatch)
    rng = np.random.default_rng(15)
    for n, d in ((40, 8), (12, 30), (25, 60)):
        x = rng.standard_normal((n, d))
        init = rng.standard_normal((d, 3))
        init[: d // 2] = 0.0
        fit_sparse_transform(x, rng.standard_normal((n, 3)), 0.05, init=init)
        labels = one_hot(np.arange(n) % 3, 3)
        supmvlfl_solve([x, rng.standard_normal((n, 5))], labels, 0.2)
    views, labels = tiny_problem(16)
    run_reference(views, labels, Hyperparams.uniform(2, sparsity=0.1), 16)
    assert len(solves) > 100
    for (gram, xty, irls_diag, sparsity), w in solves:
        a = gram + np.diag(sparsity * irls_diag)
        assert np.linalg.norm(a @ w - xty) <= SPD_RESIDUAL_TOL * np.linalg.norm(xty)


# ---------------------------------------------------------------------------
# pseudo-label and consensus updates


def test_owner_update_consensus_case():
    y = one_hot(np.array([0, 1, 2, 0]), 3)
    out = owner_pseudo_label_update(y, y, y, 5.0, 5.0)
    assert np.allclose(out, y, atol=1e-15)


def test_owner_update_scalar_examples():
    simple = owner_pseudo_label_update(
        np.array([[2.0]]), np.array([[1.0]]), np.array([[0.0]]), 1.0, 1.0)
    assert simple[0, 0] == pytest.approx(1.0, abs=1e-15)
    weighted = owner_pseudo_label_update(
        np.array([[2.0]]), np.array([[1.0]]), np.array([[4.0]]), 3.0, 2.0)
    assert weighted[0, 0] == pytest.approx(13.0 / 6.0, abs=1e-15)


def test_owner_update_matches_grid_search_oracle():
    rng = np.random.default_rng(15)
    for _ in range(50):
        a, c, y = rng.standard_normal(3) * 3.0
        zeta = float(rng.uniform(0.1, 10.0))
        eta = float(rng.uniform(0.1, 10.0))

        def objective(z):
            return (z - a) ** 2 + zeta * (z - c) ** 2 + eta * (z - y) ** 2

        oracle = grid_minimize_scalar(objective, -20.0, 20.0)
        ours = owner_pseudo_label_update(
            np.array([[a]]), np.array([[c]]), np.array([[y]]), zeta, eta)[0, 0]
        assert ours == pytest.approx(oracle, abs=1e-6)


def test_nonowner_update_scalar_and_limit():
    out = pseudo_label_update(np.array([[2.0]]), np.array([[1.0]]), 3.0)
    assert out[0, 0] == pytest.approx(1.25, abs=1e-15)
    rng = np.random.default_rng(16)
    projected = rng.standard_normal((5, 3))
    consensus = rng.standard_normal((5, 3))
    nearly_free = pseudo_label_update(projected, consensus, 1e-12)
    assert np.max(np.abs(nearly_free - projected)) <= 1e-10


def test_nonowner_update_matches_entrywise_calculus_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        projected = rng.standard_normal((6, 3))
        consensus = rng.standard_normal((6, 3))
        zeta = float(rng.uniform(0.05, 20.0))
        ours = pseudo_label_update(projected, consensus, zeta)
        oracle = np.empty_like(projected)
        for i in range(6):
            for j in range(3):
                oracle[i, j] = (projected[i, j] + zeta * consensus[i, j]) / (1.0 + zeta)
        assert np.max(np.abs(ours - oracle)) <= 1e-10


def test_consensus_examples_and_oracles():
    z0 = np.full((3, 2), 1.7)
    assert np.allclose(aggregate_consensus([z0, z0.copy(), z0.copy()], [1.0, 2.0, 5.0]), z0)

    a, b = np.zeros((1, 1)) + 1.0, np.zeros((1, 1)) + 5.0
    assert aggregate_consensus([a, b], [1.0, 1.0])[0, 0] == pytest.approx(3.0)
    weighted = aggregate_consensus([a, b], [1.0, 3.0])[0, 0]
    assert weighted == pytest.approx(4.0, abs=1e-15)

    def objective(z):
        return 1.0 * (z - 1.0) ** 2 + 3.0 * (z - 5.0) ** 2

    assert weighted == pytest.approx(grid_minimize_scalar(objective, -10, 10), abs=1e-6)


def test_consensus_matches_grid_search_on_random_scalars():
    rng = np.random.default_rng(18)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        values = rng.standard_normal(k) * 4.0
        weights = rng.uniform(0.1, 5.0, size=k)

        def objective(z):
            return sum(w * (z - v) ** 2 for w, v in zip(weights, values))

        oracle = grid_minimize_scalar(objective, -25.0, 25.0)
        ours = aggregate_consensus(
            [np.array([[v]]) for v in values], list(weights))[0, 0]
        assert ours == pytest.approx(oracle, abs=1e-6)


def test_consensus_invariant_under_weight_scaling():
    rng = np.random.default_rng(19)
    blocks = [rng.standard_normal((4, 2)) for _ in range(3)]
    weights = [0.5, 2.0, 3.5]
    base = aggregate_consensus(blocks, weights)
    scaled = aggregate_consensus(blocks, [17.0 * w for w in weights])
    assert np.max(np.abs(base - scaled)) <= 1e-12


# ---------------------------------------------------------------------------
# objective bookkeeping


def test_total_objective_zero_state():
    states, consensus, labels, _ = random_states(20, label_penalty=7.0)
    for st in states:
        st.transform[:] = 0.0
        st.pseudo_labels[:] = 0.0
    consensus[:] = 0.0
    n = labels.shape[0]
    assert total_objective(states, consensus) == pytest.approx(7.0 * n, rel=1e-12)


def test_total_objective_perfect_fit_leaves_sparsity_only():
    rng = np.random.default_rng(21)
    n, c = 6, 3
    labels = one_hot(np.arange(n) % c, c)
    hyper = Hyperparams.uniform(2, sparsity=0.4, consensus_penalty=2.0,
                                label_penalty=5.0)
    views = [np.eye(n), np.eye(n)]
    states = make_states(views, labels, hyper, seed=0)
    from mmvfl.numerics import l21_norm
    expected = 0.0
    for st in states:
        st.transform = labels.copy()  # identity view, so X W = Y exactly
        st.pseudo_labels = labels.copy()
        expected += st.sparsity * l21_norm(st.transform)
    assert total_objective(states, labels) == pytest.approx(expected, rel=1e-12)


def test_total_objective_matches_loop_oracle():
    for seed in range(10):
        states, consensus, labels, hyper = random_states(100 + seed)
        ours = total_objective(states, consensus)
        oracle = loop_total_objective(
            [st.features for st in states],
            [st.transform for st in states],
            [st.pseudo_labels for st in states],
            consensus, labels,
            list(hyper.sparsity), list(hyper.consensus_penalty),
            hyper.label_penalty)
        assert ours == pytest.approx(oracle, rel=1e-10)


def test_objective_scales_linearly_in_the_penalties():
    states, consensus, labels, hyper = random_states(22)
    base = total_objective(states, consensus)
    fit = sum(
        float(np.sum((st.features @ st.transform - st.pseudo_labels) ** 2))
        for st in states)
    for scale in (0.5, 3.0, 10.0):
        scaled_states, scaled_consensus, _, _ = random_states(22)
        for st in scaled_states:
            st.sparsity *= scale
            st.consensus_penalty *= scale
            if st.is_label_owner:
                st.label_penalty *= scale
        scaled = total_objective(scaled_states, scaled_consensus)
        assert scaled == pytest.approx(fit + scale * (base - fit), rel=1e-10)


def test_round_objective_matches_total_objective():
    states, consensus, _, _ = random_states(23)
    parts = [local_objective_part(st, st.features @ st.transform) for st in states]
    via_round = round_objective(parts, [st.pseudo_labels for st in states],
                                [st.consensus_penalty for st in states], consensus)
    assert via_round == total_objective(states, consensus)


def test_has_converged_rules():
    assert has_converged(5.0, 5.0, 1e-12)
    assert has_converged(1e8, 1e8 * (1 + 1e-7), 1e-6)
    assert not has_converged(1.0, 2.0, 1e-6)
    assert has_converged(0.0, 5e-7, 1e-6)  # absolute floor at small scale


# ---------------------------------------------------------------------------
# configuration validation


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams.uniform(2, sparsity=0.0)
    with pytest.raises(ValueError):
        Hyperparams.uniform(2, consensus_penalty=-1.0)
    with pytest.raises(ValueError):
        Hyperparams.uniform(2, label_penalty=0.0)
    with pytest.raises(ValueError):
        Hyperparams.uniform(2, eps=1e-2)
    with pytest.raises(ValueError):
        Hyperparams(sparsity=(0.1,), consensus_penalty=(1.0, 1.0), label_penalty=1.0)


def test_problem_shape_validation():
    with pytest.raises(ValueError):
        ProblemShape(num_participants=1, num_classes=3, num_samples=9, dims=(4,))
    with pytest.raises(ValueError):
        ProblemShape(num_participants=2, num_classes=1, num_samples=9, dims=(4, 4))
    with pytest.raises(ValueError):
        ProblemShape(num_participants=2, num_classes=3, num_samples=2, dims=(4, 4))


# ---------------------------------------------------------------------------
# reference loop


def tiny_problem(seed=0, num_samples=12, dims=(3, 4), num_classes=3):
    rng = np.random.default_rng(seed)
    views = [rng.standard_normal((num_samples, d)) for d in dims]
    labels = one_hot(np.arange(num_samples) % num_classes, num_classes)
    return views, labels


def test_run_reference_trace_non_increasing_and_bounded():
    views, labels = tiny_problem(0)
    hyper = Hyperparams.uniform(2, sparsity=0.1)
    result = run_reference(views, labels, hyper, 5)
    trace = np.asarray(result.objectives)
    assert len(trace) <= hyper.outer_max
    assert np.diff(trace).max(initial=0.0) <= 1e-9


def test_run_reference_is_deterministic():
    views, labels = tiny_problem(1)
    hyper = Hyperparams.uniform(2, sparsity=0.05)
    a = run_reference(views, labels, hyper, 9)
    b = run_reference(views, labels, hyper, 9)
    assert a.objectives == b.objectives
    for wa, wb in zip(a.transforms, b.transforms):
        assert np.array_equal(wa, wb)
    assert np.array_equal(a.consensus, b.consensus)
    different = run_reference(views, labels, hyper, 10)
    assert not np.array_equal(a.consensus, different.consensus)


def test_run_reference_agreement_improves_with_penalties():
    from mmvfl.data import synth_planted
    dataset, _ = synth_planted(num_participants=2, num_samples=60,
                               dims=(8, 9), seed=4)
    labels = one_hot(dataset.labels, dataset.num_classes)
    gaps = {}
    for weight in (10.0, 1000.0):
        hyper = Hyperparams.uniform(2, sparsity=0.01, consensus_penalty=weight,
                                    label_penalty=weight)
        res = run_reference(dataset.views, labels, hyper, 3)
        z_norm = np.linalg.norm(res.consensus)
        gaps[weight] = [np.linalg.norm(z - res.consensus) / z_norm
                        for z in res.pseudo_labels]
    assert all(hi < lo for hi, lo in zip(gaps[1000.0], gaps[10.0]))


def test_label_attachment_tightens_with_eta():
    views, labels = tiny_problem(6, num_samples=18, dims=(5, 6))
    previous = None
    for eta in (1e1, 1e3, 1e5, 1e7):
        hyper = Hyperparams.uniform(2, sparsity=0.05, consensus_penalty=100.0,
                                    label_penalty=eta)
        res = run_reference(views, labels, hyper, 2)
        gap = float(np.linalg.norm(res.pseudo_labels[0] - labels))
        if previous is not None:
            assert gap < previous
        previous = gap


# ---------------------------------------------------------------------------
# participant lanes


def _bits(result):
    """Every output block of a run as raw bytes."""
    return ([w.tobytes() for w in result.transforms],
            [z.tobytes() for z in result.pseudo_labels],
            result.consensus.tobytes(), np.asarray(result.objectives).tobytes())


def test_run_reference_is_bitwise_the_same_on_any_lane_count(monkeypatch):
    dims = (5, 9, 3, 7, 11, 4)
    views, labels = tiny_problem(8, num_samples=30, dims=dims)
    # unequal weights, so parts aggregated out of participant order would
    # round differently
    hyper = Hyperparams(sparsity=tuple(0.01 * (k + 1) for k in range(6)),
                        consensus_penalty=tuple(10.0 ** (k % 3) for k in range(6)),
                        label_penalty=50.0, outer_tol=1e-12, outer_max=12)
    original = optimizer.participant_round
    runs = {}
    for lanes in (1, 3):
        threads = {}

        def record(state, consensus, hyper):
            threads.setdefault(state.participant_id, set()).add(threading.get_ident())
            return original(state, consensus, hyper)

        monkeypatch.setattr(optimizer, "participant_round", record)
        monkeypatch.setattr(optimizer, "_lane_count", lambda *args, lanes=lanes: lanes)
        runs[lanes] = run_reference(views, labels, hyper, 4)
        # each participant stays on one thread, and there is one per lane
        assert sorted(threads) == list(range(6))
        assert all(len(idents) == 1 for idents in threads.values())
        assert len(set().union(*threads.values())) == lanes
    assert runs[1].rounds == 12
    assert _bits(runs[1]) == _bits(runs[3])


def test_lane_count_follows_cpus_participants_and_round_work(monkeypatch):
    hw = (240, 76, 216, 47, 64, 6)  # 3.77e7 estimated work per round
    for cpus, lanes in ((1, 1), (2, 2), (3, 2), (64, 2)):  # never more than MAX_LANES
        monkeypatch.setattr(optimizer, "_usable_cpus", lambda cpus=cpus: cpus)
        assert optimizer._lane_count(2000, 10, hw) == lanes
    assert optimizer._lane_count(2000, 10, (5000,)) == 1      # one lane per participant
    assert optimizer._lane_count(300, 5, (64,) * 5) == 1       # too little work to share
    monkeypatch.setattr(optimizer, "MAX_LANES", 8)
    assert optimizer._lane_count(2000, 10, hw) == 4            # work allows 4 of 64 CPUs


@pytest.mark.parametrize("v2, v1, cpus", [
    ("max 100000\n", None, None),
    ("100000 100000\n", None, 1),
    ("150000 100000\n", None, 2),      # a part of a CPU counts as one
    ("50000 100000\n", None, 1),
    (None, ("-1\n", "100000\n"), None),
    (None, ("300000\n", "100000\n"), 3),
    (None, None, None),                 # no cgroup files: no quota
    ("garbage\n", None, None),
    (None, ("100000\n", "0\n"), None),
])
def test_cpu_quota_reads_cgroup_v2_then_v1(tmp_path, monkeypatch, v2, v1, cpus):
    names = [tmp_path / "cpu.max", tmp_path / "quota", tmp_path / "period"]
    for name, text in zip(names, [v2, *(v1 or (None, None))]):
        if text is not None:
            name.write_text(text)
    monkeypatch.setattr(optimizer, "_CPU_MAX", str(names[0]))
    monkeypatch.setattr(optimizer, "_CFS_QUOTA", (str(names[1]), str(names[2])))
    assert optimizer._cpu_quota() == cpus


def test_usable_cpus_are_capped_by_the_cpu_quota(monkeypatch):
    affinity = os.sched_getaffinity(0)
    monkeypatch.setattr(optimizer, "_cpu_quota", lambda: None)
    assert optimizer._usable_cpus() == len(affinity)
    monkeypatch.setattr(optimizer, "_cpu_quota", lambda: 1)
    assert optimizer._usable_cpus() == 1
    monkeypatch.setattr(optimizer, "_cpu_quota", lambda: len(affinity) + 5)
    assert optimizer._usable_cpus() == len(affinity)


def test_lanes_balance_feature_counts_widest_first():
    assert optimizer._assign_lanes([240, 76, 216, 47, 64, 6], 2) == [[0, 4, 5], [2, 1, 3]]
    assert optimizer._assign_lanes([48, 40, 254, 1984, 512, 928], 3) == [[3], [5], [4, 2, 0, 1]]
    assert optimizer._assign_lanes([3, 3], 1) == [[0, 1]]


@pytest.mark.skipif(optimizer._usable_cpus() < 2, reason="needs two usable CPUs")
def test_participants_of_a_round_run_at_the_same_time(monkeypatch):
    # large enough for two lanes; every round both participants must meet
    # at the barrier, which times out if they run one after the other
    rng = np.random.default_rng(5)
    views = [rng.standard_normal((2000, 200)) for _ in range(2)]
    labels = one_hot(np.arange(2000) % 3, 3)
    barrier = threading.Barrier(2, timeout=10)
    original = optimizer.participant_round

    def meet(state, consensus, hyper):
        barrier.wait()
        return original(state, consensus, hyper)

    monkeypatch.setattr(optimizer, "participant_round", meet)
    result = run_reference(views, labels, Hyperparams.uniform(2, outer_max=2), 1)
    assert result.rounds == 2


@pytest.mark.parametrize("failing", ["worker lane", "calling thread"])
def test_a_failing_lane_raises_its_error_and_leaves_no_thread(monkeypatch, failing):
    views, labels = tiny_problem(9, num_samples=20, dims=(4, 6, 5))
    hyper = Hyperparams.uniform(3, sparsity=0.1, outer_max=5)
    error = RuntimeError(f"solve failed on the {failing}")
    original = optimizer._penalized_solve

    def solve(*args):
        on_main = threading.current_thread() is threading.main_thread()
        if on_main == (failing == "calling thread"):
            raise error
        return original(*args)

    monkeypatch.setattr(optimizer, "_penalized_solve", solve)
    monkeypatch.setattr(optimizer, "_lane_count", lambda *args: 3)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        run_reference(views, labels, hyper, 2)
    assert raised.value is error
    assert threading.active_count() == before


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("d", [1, 6, 240, 1984])
def test_gram_matrix_is_exactly_symmetric(d, layout):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((60, 2 * d))
    x = {"C": np.ascontiguousarray(x[:, :d]), "F": np.asfortranarray(x[:, :d]),
         "strided": x[:, ::2]}[layout]
    g = optimizer.gram_matrix(x)
    assert np.array_equal(g, g.T)
    product = x.T @ x
    assert g.tobytes() == ((product + product.T) * 0.5).tobytes()
