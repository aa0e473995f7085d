"""Core training math: closed-form updates, the reweighted sparse solve,
objective bookkeeping, and the single-process reference loop."""

import copy
import math
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmvfl.numerics as numerics
import mmvfl.optimizer as optimizer
from mmvfl.baselines import supmvlfl_solve
from mmvfl.federation import run_federated
from mmvfl.numerics import CHOLESKY_TILE, SPD_RESIDUAL_TOL, single_blas_thread
from mmvfl.optimizer import (
    EPS,
    Hyperparams,
    NonDecreasingObjectiveError,
    ProblemShape,
    check_one_hot,
    has_converged,
    init_consensus,
    joint_consensus,
    local_objective_part,
    make_states,
    one_hot,
    participant_round,
    pseudo_label_update,
    refresh_pseudo_labels,
    round_objective,
    run_reference,
)

from oracles import (
    fit_objective,
    fit_sparse_transform,
    gd_quadratic_minimizer,
    grid_minimize_scalar,
    joint_minimizer,
    loop_l21,
    loop_reweight_diag,
    loop_row_norms,
    loop_total_objective,
    plain_solve_minimizer,
    smoothed_objective_optimum,
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


@pytest.mark.parametrize("labels", [np.array([0.0, 1.5, 1.9]), np.array([0.0, 1.0]),
                                    np.array([True, False])],
                         ids=["fractional", "integral-floats", "bools"])
def test_one_hot_refuses_labels_that_are_not_integers(labels):
    # the rule MultiViewDataset applies, rather than truncating or
    # reading bools as classes
    with pytest.raises(ValueError, match="labels must be integers"):
        one_hot(labels, 2)


def test_check_one_hot_rejects_bad_rows():
    with pytest.raises(ValueError):
        check_one_hot(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        check_one_hot(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        check_one_hot(np.array([[0.0, 0.0]]))


# ---------------------------------------------------------------------------
# reweighting diagonal


def irls_diagonal(transform):
    """The diagonal the kernel's reweighted step from ``transform`` hands
    to its solve: the solve's shift at sparsity 1."""
    rng = np.random.default_rng(0)
    d, c = transform.shape
    x, t = rng.standard_normal((3 * d, d)), rng.standard_normal((3 * d, c))
    gram = optimizer.gram_matrix(x)
    diags = []
    original = optimizer._cholesky_solve_in_place

    def record(system, b, shift):
        diags.append(shift)
        return original(system, b, shift)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_cholesky_solve_in_place", record)
        optimizer._reweighted_step(gram, x.T @ t, float(np.sum(t * t)), 1.0,
                                   (transform, gram @ transform))
    [diag] = diags
    return diag


def test_irls_diagonal_examples():
    entry = irls_diagonal(np.array([[3.0, 4.0]]))[0]
    assert entry == pytest.approx(1.0 / (2.0 * (5.0 + EPS)), rel=1e-12)
    zero_row = irls_diagonal(np.array([[0.0, 0.0]]))[0]
    assert zero_row == pytest.approx(5e5, rel=1e-12)


def test_irls_diagonal_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = rng.standard_normal((4, 3))
        assert np.allclose(irls_diagonal(w), loop_reweight_diag(w, EPS),
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
    good = optimizer._cholesky_solve_in_place
    calls = {"n": 0}

    def sabotage(system, b, shift):
        calls["n"] += 1
        if calls["n"] >= 2:
            broken = np.full((system.shape[0], b.shape[1]), 100.0)
            return broken, system @ broken
        return good(system, b, shift)

    monkeypatch.setattr(optimizer, "_cholesky_solve_in_place", sabotage)
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
    """Wrap the kernel's solve step; returns the list of ((G^T, X^T T,
    shift), W, G W), where shift is the sparsity times the reweighting
    diagonal."""
    solves = []
    original = optimizer._cholesky_solve_in_place

    def record(system, b, shift):
        result = original(system, b, shift)
        solves.append(((system, b, shift), *result))
        return result

    monkeypatch.setattr(optimizer, "_cholesky_solve_in_place", record)
    return solves


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 30), d=st.integers(1, 40), c=st.integers(1, 4),
       zero_rows=st.integers(0, 40), sparsity=st.floats(1e-3, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_gram_form_objective_matches_residual_form_at_every_iterate(
        n, d, c, zero_rows, sparsity, seed):
    # zero rows in the warm start put 1/(2 EPS) on the first reweighting
    # diagonal; d > n leaves the gram singular
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    t = rng.standard_normal((n, c))
    init = rng.standard_normal((d, c))
    init[:zero_rows] = 0.0
    with pytest.MonkeyPatch.context() as patch:
        solves = _record_solves(patch)
        _, _, trace = fit_sparse_transform(x, t, sparsity, init=init, inner_max=8)
    gram, xty, t_sq = optimizer.gram_matrix(x), x.T @ t, float(np.sum(t * t))
    iterates = [init] + [w for _, w, _ in solves]
    assert len(trace) == len(iterates)
    for value, w in zip(trace, iterates):
        # the Gram form cancels terms of this size, so its rounding error
        # scales with them where X is ill-conditioned and W large
        cancelled = float(np.sum(np.abs(w) * (np.abs(gram) @ np.abs(w) + 2.0 * np.abs(xty))))
        tolerance = 1e-12 * max(1.0, t_sq, cancelled)
        assert abs(value - fit_objective(x, t, w, sparsity)) <= tolerance
    if zero_rows:
        assert solves[0][0][2].max() == sparsity * (1.0 / (2.0 * EPS))


@pytest.mark.parametrize("seed", range(8))
def test_descent_guard_holds_on_ill_conditioned_block(seed):
    # six column pairs that differ by 1e-5 noise (cond(X) about 4e5) and a
    # small sparsity weight drive W to entries near 1e5 in most seeds, where
    # the Gram-form value cancels terms far above the objective; the guard
    # must still see the descent the residual form shows, within its
    # unchanged 1e-9 relative slack
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((40, 6))
    x = np.hstack([base, base + 1e-5 * rng.standard_normal((40, 6))])
    t = 10.0 * rng.standard_normal((40, 3))
    sparsity = 10.0 ** rng.uniform(-6, -2)
    assert np.linalg.cond(x) > 1e5
    with pytest.MonkeyPatch.context() as patch:
        solves = _record_solves(patch)
        _, _, trace = fit_sparse_transform(x, t, sparsity, inner_max=50, inner_tol=1e-14)
    assert len(trace) == len(solves) >= 2
    smoothed = [float(np.sum((x @ w - t) ** 2))
                + sparsity * optimizer.smoothed_row_penalty(np.linalg.norm(w, axis=1))
                for _, w, _ in solves]
    for before, after in zip(smoothed, smoothed[1:]):
        assert after <= before + optimizer.MONOTONICITY_SLACK * max(1.0, abs(before))


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
    for (system, xty, shift), w, product in solves:
        gram = system.T  # the C-order Gram the step was lent
        a = gram + np.diag(shift)
        assert np.linalg.norm(a @ w - xty) <= SPD_RESIDUAL_TOL * np.linalg.norm(xty)
        # the product the kernel's objective reads is G W itself, formed as W^T G
        assert product.tobytes() == (w.T @ gram).T.tobytes()


# ---------------------------------------------------------------------------
# pseudo-label and consensus updates


def test_owner_update_consensus_case():
    y = one_hot(np.array([0, 1, 2, 0]), 3)
    out = pseudo_label_update(y, y, 5.0, y, 5.0)
    assert np.allclose(out, y, atol=1e-15)


def test_owner_update_scalar_examples():
    simple = pseudo_label_update(
        np.array([[2.0]]), np.array([[1.0]]), 1.0, np.array([[0.0]]), 1.0)
    assert simple[0, 0] == pytest.approx(1.0, abs=1e-15)
    weighted = pseudo_label_update(
        np.array([[2.0]]), np.array([[1.0]]), 3.0, np.array([[4.0]]), 2.0)
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
        ours = pseudo_label_update(
            np.array([[a]]), np.array([[c]]), zeta, np.array([[y]]), eta)[0, 0]
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


def test_the_label_term_comes_last_in_the_rule():
    # left to right, (P + zeta Z + eta Y) / (1 + zeta + eta) with labels
    # and (P + zeta Z) / (1 + zeta) without, bit for bit, so runs with one
    # participant holding the labels keep their bits
    # (zeta, eta) = (0.1, 0.3), where (1 + zeta) + eta != 1 + (zeta + eta)
    rng = np.random.default_rng(23)
    p, c, y = rng.standard_normal((3, 7, 4))
    with_labels = (p + 0.1 * c + 0.3 * y) / (1.0 + 0.1 + 0.3)
    assert pseudo_label_update(p, c, 0.1, y, 0.3).tobytes() == with_labels.tobytes()
    assert pseudo_label_update(p, c, 0.1).tobytes() == ((p + 0.1 * c) / (1.0 + 0.1)).tobytes()


def _uploads(projections, label, owners, zetas, eta, broadcast):
    """Each participant's pseudo-label minimizer against ``broadcast``,
    as ``participant_round`` uploads it; ``owners`` hold ``label``."""
    return [pseudo_label_update(p, broadcast, z, label if k in owners else None, eta)
            for k, (p, z) in enumerate(zip(projections, zetas))]


def _weights(zetas, eta):
    return Hyperparams(sparsity=(1.0,) * len(zetas), consensus_penalty=tuple(zetas),
                       label_penalty=eta)


def test_consensus_examples_and_oracles():
    # uploads that equal the broadcast give it back, whatever the weights
    z0 = np.full((3, 2), 1.7)
    for owners in ({0}, {2}, {0, 2}):
        joint, _ = joint_consensus([z0, z0.copy(), z0.copy()], z0,
                                   _weights((1.0, 2.0, 5.0), 4.0), owners)
        assert np.allclose(joint, z0, rtol=0.0, atol=1e-15)

    # projections 1 and 5, labels 3 with eta 1 on participant 0, zetas 1
    # and 3: participant 0 pulls toward (1 + 3) / 2 = 2 with weight
    # 1 (1 - 1/3) = 2/3, participant 1 toward 5 with weight 3 (1 - 3/4) =
    # 3/4, so Z* = (2 * 2/3 + 5 * 3/4) / (17/12) = 61/17, from any broadcast
    hyper = _weights((1.0, 3.0), 1.0)
    for broadcast in (0.0, -4.0, 9.5):
        b = np.array([[broadcast]])
        uploads = _uploads([np.array([[1.0]]), np.array([[5.0]])], np.array([[3.0]]),
                           {0}, hyper.consensus_penalty, 1.0, b)
        joint, curvature = joint_consensus(uploads, b, hyper, {0})
        assert joint[0, 0] == pytest.approx(61.0 / 17.0, abs=1e-14)
        assert curvature == pytest.approx(17.0 / 12.0, abs=1e-15)
    # the owner set decides whose pull toward the broadcast eta weakens:
    # with participant 1 taken as the owner, the uploads that answered the
    # broadcast 9.5 give 7.775 / 1.7
    other, _ = joint_consensus(uploads, b, hyper, {1})
    assert other[0, 0] == pytest.approx(7.775 / 1.7, abs=1e-14)


def test_consensus_matches_grid_search_on_random_scalars():
    # the joint minimizer against a grid search over the consensus of the
    # objective with every pseudo-label at its own minimizer
    rng = np.random.default_rng(18)
    owner_counts = []
    for _ in range(50):
        k = int(rng.integers(2, 5))
        owners = {int(j) for j in rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)}
        owner_counts.append(len(owners))
        projections = rng.standard_normal(k) * 4.0
        label, broadcast = rng.standard_normal(2) * 4.0
        zetas = rng.uniform(0.1, 5.0, size=k)
        eta = float(rng.uniform(0.1, 5.0))

        def objective(z):
            total = 0.0
            for j, (p, zeta) in enumerate(zip(projections, zetas)):
                if j in owners:
                    v = pseudo_label_update(p, z, zeta, label, eta)
                    total += eta * (v - label) ** 2
                else:
                    v = pseudo_label_update(p, z, zeta)
                total += (v - p) ** 2 + zeta * (v - z) ** 2
            return total

        oracle = grid_minimize_scalar(objective, -25.0, 25.0)
        b = np.array([[broadcast]])
        uploads = _uploads([np.array([[p]]) for p in projections], np.array([[label]]),
                           owners, zetas, eta, b)
        ours = joint_consensus(uploads, b, _weights(zetas, eta), owners)[0][0, 0]
        assert ours == pytest.approx(oracle, abs=1e-6)
    # the draws cover one owner, two owners, and more
    assert {1, 2} <= set(owner_counts) and max(owner_counts) > 2


def test_joint_consensus_does_not_depend_on_the_broadcast_the_uploads_answered():
    # the uploads carry the broadcast, which the joint minimizer takes out
    # again: the same projections give the same minimizer, which a plain
    # solve of the normal equations confirms, and the recorded drop
    # s ||Z* - Z_b||^2 is the objective's fall from Z_b to Z*
    rng = np.random.default_rng(19)
    projections = [rng.standard_normal((4, 2)) for _ in range(3)]
    label = one_hot(np.array([0, 1, 1, 0]), 2)
    zetas, eta = (0.5, 2.0, 300.0), 40.0
    hyper = _weights(zetas, eta)
    _, oracle = joint_minimizer(projections, label, {1}, zetas, eta)

    def total(consensus):
        uploads = _uploads(projections, label, {1}, zetas, eta, consensus)
        parts = [float(np.sum((z - p) ** 2)) for z, p in zip(uploads, projections)]
        parts[1] += eta * float(np.sum((uploads[1] - label) ** 2))
        return round_objective(parts, uploads, zetas, consensus)

    for scale in (0.0, 1.0, 30.0):
        broadcast = scale * rng.standard_normal((4, 2))
        uploads = _uploads(projections, label, {1}, zetas, eta, broadcast)
        joint, curvature = joint_consensus(uploads, broadcast, hyper, {1})
        assert np.max(np.abs(joint - oracle)) <= 1e-12 * max(1.0, scale)
        before = total(broadcast)
        drop = curvature * float(np.sum((joint - broadcast) ** 2))
        assert abs(before - drop - total(joint)) <= 1e-13 * before


# ---------------------------------------------------------------------------
# objective bookkeeping


def test_total_objective_zero_state():
    states, consensus, labels, hyper = random_states(20, label_penalty=7.0)
    for st in states:
        st.transform[:] = 0.0
        st.pseudo_labels[:] = 0.0
    consensus[:] = 0.0
    n = labels.shape[0]
    assert total_objective(states, consensus, hyper) == pytest.approx(7.0 * n, rel=1e-12)


def test_total_objective_perfect_fit_leaves_sparsity_only():
    rng = np.random.default_rng(21)
    n, c = 6, 3
    labels = one_hot(np.arange(n) % c, c)
    hyper = Hyperparams.uniform(2, sparsity=0.4, consensus_penalty=2.0,
                                label_penalty=5.0)
    views = [np.eye(n), np.eye(n)]
    states = make_states(views, labels, hyper, seed=0)
    expected = 0.0
    for st in states:
        st.transform = labels.copy()  # identity view, so X W = Y exactly
        st.pseudo_labels = labels.copy()
        expected += hyper.sparsity[st.participant_id] * loop_l21(st.transform)
    assert total_objective(states, labels, hyper) == pytest.approx(expected, rel=1e-12)


def test_total_objective_matches_loop_oracle():
    for seed in range(10):
        states, consensus, labels, hyper = random_states(100 + seed)
        ours = total_objective(states, consensus, hyper)
        oracle = loop_total_objective(
            [st.features for st in states],
            [st.transform for st in states],
            [st.pseudo_labels for st in states],
            consensus, labels, {0},
            list(hyper.sparsity), list(hyper.consensus_penalty),
            hyper.label_penalty)
        assert ours == pytest.approx(oracle, rel=1e-10)


def test_objective_scales_linearly_in_the_penalties():
    states, consensus, labels, hyper = random_states(22)
    base = total_objective(states, consensus, hyper)
    fit = sum(
        float(np.sum((st.features @ st.transform - st.pseudo_labels) ** 2))
        for st in states)
    for scale in (0.5, 3.0, 10.0):
        scaled_states, scaled_consensus, _, _ = random_states(22)
        scaled_hyper = replace(
            hyper, sparsity=tuple(b * scale for b in hyper.sparsity),
            consensus_penalty=tuple(z * scale for z in hyper.consensus_penalty),
            label_penalty=hyper.label_penalty * scale)
        scaled = total_objective(scaled_states, scaled_consensus, scaled_hyper)
        assert scaled == pytest.approx(fit + scale * (base - fit), rel=1e-10)


def test_round_objective_matches_total_objective():
    states, consensus, _, hyper = random_states(23)
    parts = [local_objective_part(st, st.features @ st.transform, hyper) for st in states]
    via_round = round_objective(parts, [st.pseudo_labels for st in states],
                                hyper.consensus_penalty, consensus)
    assert via_round == total_objective(states, consensus, hyper)


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
    for weight in ("sparsity", "consensus_penalty", "label_penalty"):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite and positive"):
                Hyperparams.uniform(2, **{weight: value})
    # a tuple entry meets the same rule as a uniform weight
    with pytest.raises(ValueError, match="finite and positive"):
        Hyperparams(sparsity=(0.1, -0.1), consensus_penalty=(1.0, 1.0), label_penalty=1.0)
    with pytest.raises(ValueError):
        Hyperparams(sparsity=(0.1,), consensus_penalty=(1.0, 1.0), label_penalty=1.0)


@pytest.mark.parametrize("tol, max_iter", [(0.0, 50), (-1.0, 50), (1e-6, 0)])
def test_the_round_stopping_controls_are_bounded(tol, max_iter):
    with pytest.raises(ValueError):
        Hyperparams.uniform(3, outer_tol=tol, outer_max=max_iter)
    with pytest.raises(ValueError):
        optimizer.check_solver_controls(tol, max_iter)


@pytest.mark.parametrize("outer_max", [2.5, 2.0, math.inf, "3"])
def test_a_non_integer_round_limit_is_refused_at_construction(outer_max):
    # refused before any state is built, not as a TypeError in the round loop
    with pytest.raises(ValueError, match="integer"):
        Hyperparams.uniform(3, outer_max=outer_max)
    assert Hyperparams.uniform(3, outer_max=np.int64(2)).outer_max == 2


@pytest.mark.parametrize("weight", ["sparsity", "consensus_penalty", "label_penalty"])
@pytest.mark.parametrize("value", ["0.1", True, [0.1], None])
def test_a_weight_that_is_not_a_number_is_refused(weight, value):
    with pytest.raises(TypeError, match="real number"):
        Hyperparams.uniform(3, **{weight: value})
    weights = {"sparsity": (0.1, 0.1), "consensus_penalty": (1.0, 1.0), "label_penalty": 1.0}
    weights[weight] = (value, 0.1) if weight != "label_penalty" else value
    with pytest.raises(TypeError, match="real number"):
        Hyperparams(**weights)
    # any real number but a bool is read as a float
    assert Hyperparams.uniform(3, **{weight: np.float32(2.0)}) == Hyperparams.uniform(
        3, **{weight: 2})


def test_problem_shape_validation():
    with pytest.raises(ValueError):
        ProblemShape(num_participants=1, num_classes=3, num_samples=9)
    with pytest.raises(ValueError):
        ProblemShape(num_participants=2, num_classes=1, num_samples=9)
    with pytest.raises(ValueError):
        ProblemShape(num_participants=2, num_classes=3, num_samples=2)


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
# two-block rounds: the transforms, then the consensus with the pseudo-labels


def _record_rounds(monkeypatch):
    """Wrap ``run_rounds``'s ``refit``: per round, the consensus the
    participants refit against, the uploads and parts, and copies of the
    participant states after the round (in participant order)."""
    log = {"received": [], "uploads": [], "parts": [], "states": []}
    states = {}
    original_round, original_rounds = optimizer.participant_round, optimizer.run_rounds

    def remember(state, consensus, hyper):
        states[state.participant_id] = state
        return original_round(state, consensus, hyper)

    def run_rounds(refit, consensus, hyper, owners):
        def recorded(round_index, consensus):
            log["received"].append(consensus)
            uploads, parts = refit(round_index, consensus)
            log["uploads"].append(list(uploads))
            log["parts"].append(list(parts))
            log["states"].append([copy.copy(states[k]) for k in sorted(states)])
            return uploads, parts

        return original_rounds(recorded, consensus, hyper, owners)

    monkeypatch.setattr(optimizer, "participant_round", remember)
    monkeypatch.setattr(optimizer, "run_rounds", run_rounds)
    return log


def test_every_recorded_objective_is_the_objective_at_the_broadcast(monkeypatch):
    views, labels = tiny_problem(21, num_samples=40, dims=(6, 9, 4))
    hyper = Hyperparams.uniform(3, sparsity=0.05, consensus_penalty=30.0,
                                label_penalty=100.0, outer_tol=1e-9)
    log = _record_rounds(monkeypatch)
    result = run_reference(views, labels, hyper, 6)
    # round r's objective is taken at the consensus round r + 1 refits
    # against; the last round's at the consensus the run returns
    broadcasts = log["received"][1:] + [result.consensus]
    assert len(log["states"]) == result.rounds > 3
    for value, states, uploads, received, consensus in zip(
            result.objectives, log["states"], log["uploads"], log["received"], broadcasts):
        # the broadcast is the joint minimizer over the consensus and every
        # pseudo-label, which a plain solve of the normal equations confirms
        assert consensus.tobytes() == joint_consensus(uploads, received, hyper, {0})[0].tobytes()
        _, oracle = joint_minimizer([st.features @ st.transform for st in states], labels, {0},
                                    hyper.consensus_penalty, hyper.label_penalty)
        assert np.max(np.abs(consensus - oracle)) <= 1e-9 * np.max(np.abs(oracle))
        # the recorded value is the explicit total there, at the
        # pseudo-labels refreshed against it
        refreshed = [copy.copy(st) for st in states]
        for st in refreshed:
            refresh_pseudo_labels(st, consensus, hyper)
        assert value == pytest.approx(total_objective(refreshed, consensus, hyper), rel=1e-9)
    # a run returns the last round's refreshed pseudo-labels
    for pseudo, st in zip(result.pseudo_labels, refreshed):
        assert pseudo.tobytes() == st.pseudo_labels.tobytes()


def test_uploads_that_ignore_the_broadcast_stop_the_rounds():
    # honest uploads make every recorded value the minimum of a sum of
    # squares and norms; two constant uploads that never answer the
    # broadcast make the joint step over-relax them into a negative value,
    # which must stop the run in round 1 rather than run on to outer_max
    hyper = Hyperparams.uniform(2)  # zeta = eta = 1000
    ones = np.ones((12, 3))
    rounds = []

    def refit(round_index, consensus):
        rounds.append(round_index)
        return [ones, ones], [0.0, 0.0]

    with pytest.raises(ValueError, match="round 1 recorded the objective -.*below zero"):
        optimizer.run_rounds(refit, init_consensus(12, 3, 0), hyper, {0})
    assert rounds == [1]


def _plain_schedule(views, labels, hyper, seed):
    """The last objective of the plain schedule: per round every
    participant runs ``participant_round`` against the consensus, which
    then becomes the zeta-weighted mean of the uploads, its own block's
    minimizer, and the objective is totalled there."""
    states = make_states(views, labels, hyper, seed)
    consensus = init_consensus(*labels.shape, seed)
    penalties = hyper.consensus_penalty
    objectives = []
    for _ in range(hyper.outer_max):
        parts = [participant_round(st, consensus, hyper) for st in states]
        uploads = [st.pseudo_labels for st in states]
        consensus = sum(z * u for z, u in zip(penalties, uploads)) / sum(penalties)
        objectives.append(round_objective(parts, uploads, penalties, consensus))
        if len(objectives) > 1 and has_converged(objectives[-2], objectives[-1],
                                                 hyper.outer_tol):
            break
    return objectives[-1]


def test_a_paper_shaped_run_converges_in_a_few_rounds_near_a_tight_run():
    # the HW shape (2000 samples, 10 classes, six views of 6 to 240
    # columns) at the default weights: the joint consensus step takes the
    # consensus from its seeded start to the labels in one round
    from mmvfl.data import synth_planted
    dataset, _ = synth_planted(num_participants=6, num_classes=10, num_samples=2000,
                               dims=(240, 76, 216, 47, 64, 6), seed=0)
    labels = one_hot(dataset.labels, dataset.num_classes)
    hyper = Hyperparams.uniform(6, sparsity=0.1)
    result = run_reference(dataset.views, labels, hyper, 0)
    assert result.converged and result.rounds <= 5
    tight = run_reference(dataset.views, labels, replace(hyper, outer_tol=1e-10), 0)
    assert tight.converged
    optimum = tight.objectives[-1]
    assert abs(result.objectives[-1] - optimum) <= hyper.outer_tol * abs(optimum)


def optimum_problem(seed):
    """A small seeded problem for the optimum oracle: 2 or 3 participants,
    30-60 samples, 2-4 classes, 3-10 features per view."""
    rng = np.random.default_rng(11000 + seed)
    k = 2 + seed % 2
    n, c = int(rng.integers(30, 61)), int(rng.integers(2, 5))
    views = [rng.standard_normal((n, int(rng.integers(3, 11)))) for _ in range(k)]
    raw = rng.integers(0, c, size=n)
    raw[:c] = np.arange(c)
    hyper = Hyperparams.uniform(k, sparsity=float(10.0 ** rng.uniform(-2.0, 0.5)),
                                consensus_penalty=float(10.0 ** rng.uniform(0.0, 3.0)),
                                label_penalty=float(10.0 ** rng.uniform(0.0, 3.0)))
    return views, one_hot(raw, c), hyper


def optimum_of(views, labels, hyper):
    value, _ = smoothed_objective_optimum(views, labels, {0}, hyper.sparsity,
                                          hyper.consensus_penalty, hyper.label_penalty, EPS)
    return value


@pytest.mark.parametrize("seed", range(10))
def test_no_run_undercuts_the_optimum_and_relaxation_keeps_the_gap(seed):
    # the joint consensus is the plain mean over-relaxed by a fixed
    # factor (see ``joint_consensus``); the two-block run may stop
    # anywhere within one stopping tolerance of where the plain schedule
    # stops, and no further above the optimum
    views, labels, hyper = optimum_problem(seed)
    optimum = optimum_of(views, labels, hyper)
    joint = run_reference(views, labels, hyper, seed).objectives[-1]
    plain = _plain_schedule(views, labels, hyper, seed)
    # a recorded objective uses the plain row norm, which is never below
    # the smoothed one the oracle minimizes: only rounding may undercut
    for value in (plain, joint):
        assert value >= optimum - 1e-12 * abs(optimum)
    assert joint - optimum <= plain - optimum + hyper.outer_tol * abs(optimum)


def test_extrapolation_reaches_the_optimum_where_the_plain_schedule_stalls():
    # a label penalty of 1.8 against a consensus penalty of 459: the plain
    # schedule creeps and stops at outer_max 55% above the optimum
    views, labels, hyper = optimum_problem(4)
    optimum = optimum_of(views, labels, hyper)
    result = run_reference(views, labels, hyper, 4)
    assert result.converged and result.rounds < hyper.outer_max
    assert result.objectives[-1] - optimum <= 1e-4 * abs(optimum)


@pytest.mark.parametrize("seed", [0, 8])
def test_a_tightly_converged_run_attains_the_optimum(seed):
    views, labels, hyper = optimum_problem(seed)
    optimum = optimum_of(views, labels, hyper)
    tight = replace(hyper, outer_tol=1e-14, outer_max=1000)
    result = run_reference(views, labels, tight, seed)
    assert result.rounds < tight.outer_max
    recorded = loop_total_objective(views, result.transforms, result.pseudo_labels,
                                    result.consensus, labels, {0}, hyper.sparsity,
                                    hyper.consensus_penalty, hyper.label_penalty)
    smoothing = sum(beta * EPS * float(np.sum(np.log1p(loop_row_norms(w) / EPS)))
                    for beta, w in zip(hyper.sparsity, result.transforms))
    assert abs(recorded - smoothing - optimum) <= 1e-10 * abs(optimum)


def test_labels_held_by_a_later_participant_train_to_the_optimum():
    # the states say who holds the labels: with them on participant 1 the
    # rounds weigh participant 1 with eta, record a non-increasing trace
    # and stop within the FISTA gate's 20 outer_tol of the optimum, taken
    # on the same problem with the views and zetas permuted so that the
    # holder comes first
    from mmvfl.data import synth_planted
    dataset, _ = synth_planted(num_samples=120, dims=(10, 8, 6), seed=0)
    views = dataset.views
    labels = one_hot(dataset.labels, dataset.num_classes)
    hyper = Hyperparams(sparsity=(0.1,) * 3, consensus_penalty=(2.0, 50.0, 7.0),
                        label_penalty=10.0)
    states = [optimizer._new_state(k, view, optimizer.gram_matrix(view), labels.shape[1], 0,
                                   labels if k == 1 else None)
              for k, view in enumerate(views)]
    result = optimizer.train_states(states, hyper, 0)
    assert result.converged
    assert np.diff(result.objectives).max(initial=0.0) <= 1e-9
    order = (1, 0, 2)
    optimum, _ = smoothed_objective_optimum(
        [views[k] for k in order], labels, {0}, hyper.sparsity,
        [hyper.consensus_penalty[k] for k in order], hyper.label_penalty, EPS)
    assert abs(result.objectives[-1] - optimum) <= 20 * hyper.outer_tol * abs(optimum)


# ---------------------------------------------------------------------------
# shared refits and the helper thread


def _bits(result):
    """Every output block of a run as raw bytes."""
    return ([w.tobytes() for w in result.transforms],
            [z.tobytes() for z in result.pseudo_labels],
            result.consensus.tobytes(), np.asarray(result.objectives).tobytes())


def _wide_problem():
    """Two blocks wider than two Cholesky tiles, so each factor shares the
    tasks of every step with the helper thread and, when a round's refits
    are shared, the helper factors one of them itself, beside a narrow
    block."""
    views, labels = tiny_problem(
        11, num_samples=120, dims=(2 * CHOLESKY_TILE + 88, 2 * CHOLESKY_TILE + 24, 5))
    return views, labels, Hyperparams.uniform(3, sparsity=0.1, outer_max=3)


def test_run_reference_is_bitwise_the_same_serial_or_shared(monkeypatch):
    dims = (5, 9, 3, 7, 11, 4)
    views, labels = tiny_problem(8, num_samples=30, dims=dims)
    # unequal weights, so parts aggregated out of participant order would
    # round differently
    hyper = Hyperparams(sparsity=tuple(0.01 * (k + 1) for k in range(6)),
                        consensus_penalty=tuple(10.0 ** (k % 3) for k in range(6)),
                        label_penalty=50.0, outer_tol=1e-12, outer_max=12)
    wide_views, wide_labels, wide_hyper = _wide_problem()
    helper = numerics._usable_cpus() >= 2
    barrier = threading.Barrier(2, timeout=10)
    wide_refits = {}
    original = optimizer.participant_round

    def meet(state, consensus, hyper):
        if state.features.shape[1] > 2 * CHOLESKY_TILE:
            first = state.participant_id not in wide_refits
            wide_refits.setdefault(state.participant_id, threading.current_thread().name)
            if first and helper:
                # the two wide refits of the first round run at once, so the
                # helper factors one of them and posts its tiles
                barrier.wait()
        return original(state, consensus, hyper)

    runs = {}
    for shared in (False, True):
        monkeypatch.setattr(optimizer, "_share_refits", lambda *args, shared=shared: shared)
        runs[shared] = run_reference(views, labels, hyper, 4)
        if shared:
            monkeypatch.setattr(optimizer, "participant_round", meet)
        runs["wide", shared] = run_reference(wide_views, wide_labels, wide_hyper, 3)
    assert runs[False].rounds == 12 and not runs[False].converged
    assert _bits(runs[False]) == _bits(runs[True])
    assert _bits(runs["wide", False]) == _bits(runs["wide", True])
    assert ("mmvfl-tiles" in wide_refits.values()) == helper


def test_refits_are_shared_only_with_two_participants_and_enough_work():
    hw = (240, 76, 216, 47, 64, 6)  # 3.77e7 estimated work per round
    assert optimizer._share_refits(2000, 10, hw)
    assert not optimizer._share_refits(2000, 10, (5000,))   # one participant
    assert not optimizer._share_refits(300, 5, (64,) * 5)   # too little work to share
    # 2 * 100 * (2 n + 100^2) against LANE_WORK = 8e6: n = 15000 is the edge
    assert optimizer._share_refits(15000, 2, (100, 100))
    assert not optimizer._share_refits(14999, 2, (100, 100))


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
    monkeypatch.setattr(numerics, "_CPU_MAX", str(names[0]))
    monkeypatch.setattr(numerics, "_CFS_QUOTA", (str(names[1]), str(names[2])))
    assert numerics._cpu_quota() == cpus


def test_usable_cpus_are_capped_by_the_cpu_quota(monkeypatch):
    affinity = os.sched_getaffinity(0)
    monkeypatch.setattr(numerics, "_cpu_quota", lambda: None)
    assert numerics._usable_cpus() == len(affinity)
    monkeypatch.setattr(numerics, "_cpu_quota", lambda: 1)
    assert numerics._usable_cpus() == 1
    monkeypatch.setattr(numerics, "_cpu_quota", lambda: len(affinity) + 5)
    assert numerics._usable_cpus() == len(affinity)


@pytest.mark.skipif(numerics._usable_cpus() < 2, reason="needs two usable CPUs")
def test_participants_of_a_round_run_at_the_same_time(monkeypatch):
    # large enough to share the refits; every round both participants must meet
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


@pytest.mark.parametrize("failing", [
    pytest.param("helper thread", marks=pytest.mark.skipif(
        numerics._usable_cpus() < 2, reason="needs two usable CPUs")),
    "calling thread",
])
def test_a_failing_refit_raises_its_error_and_leaves_no_thread(monkeypatch, failing):
    views, labels = tiny_problem(9, num_samples=20, dims=(4, 6, 5))
    hyper = Hyperparams.uniform(3, sparsity=0.1, outer_max=5)
    error = RuntimeError(f"solve failed on the {failing}")
    original = optimizer._cholesky_solve_in_place

    def solve(*args):
        on_helper = threading.current_thread().name == "mmvfl-tiles"
        if on_helper == (failing == "helper thread"):
            raise error
        # let the other thread claim a refit of this round
        time.sleep(0.01)
        return original(*args)

    monkeypatch.setattr(optimizer, "_cholesky_solve_in_place", solve)
    monkeypatch.setattr(optimizer, "_share_refits", lambda *args: True)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        run_reference(views, labels, hyper, 2)
    assert raised.value is error
    assert threading.active_count() == before


def _federated_bits(result):
    return _bits(optimizer.TrainingResult(
        transforms=[st.transform for st in result.states],
        pseudo_labels=[st.pseudo_labels for st in result.states],
        consensus=result.consensus, objectives=result.objectives,
        converged=result.converged))


def test_a_wide_block_trains_to_the_same_bits_on_any_cpu_count(monkeypatch):
    views, labels, hyper = _wide_problem()
    threads = set()
    for name in ("_dtrsm", "_dsyrk", "_dgemm"):
        def record(*args, original=getattr(numerics, name)):
            threads.add(threading.current_thread().name)
            return original(*args)

        monkeypatch.setattr(numerics, name, record)
    before = threading.active_count()
    helped = run_reference(views, labels, hyper, 3)
    assert threading.active_count() == before
    assert ("mmvfl-tiles" in threads) == (numerics._usable_cpus() >= 2)
    federated = run_federated(views, labels, hyper, 3, transport="in_process")
    assert threading.active_count() == before
    with monkeypatch.context() as patch:
        # the scope starts no helper: every refit and tile on this thread
        patch.setattr(numerics, "_usable_cpus", lambda: 1)
        threads.clear()
        alone = run_reference(views, labels, hyper, 3)
        assert threads == {threading.current_thread().name}
    assert threading.active_count() == before
    assert _bits(helped) == _bits(alone) == _federated_bits(federated)


@pytest.mark.skipif(numerics._usable_cpus() < 2, reason="needs two usable CPUs")
def test_a_failing_tile_task_raises_its_error_and_leaves_no_thread(monkeypatch):
    views, labels, hyper = _wide_problem()
    error = RuntimeError("a tile update failed on the helper")
    original = numerics._dsyrk

    def dsyrk(*args):
        if threading.current_thread().name == "mmvfl-tiles":
            raise error
        # let the helper claim a task of this phase
        time.sleep(0.01)
        return original(*args)

    monkeypatch.setattr(numerics, "_dsyrk", dsyrk)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        run_reference(views, labels, hyper, 3)
    assert raised.value is error
    assert threading.active_count() == before


def test_a_participant_keeps_one_d_by_d_array_and_gets_its_gram_back(monkeypatch):
    # the Gram is its own factor buffer: beyond the inputs, a run's traced
    # peak stays below one and a half 600 x 600 arrays, where a second
    # d x d buffer beside the Gram would take it past two
    rng = np.random.default_rng(5)
    views = [rng.standard_normal((300, 600)), rng.standard_normal((300, 30))]
    labels = one_hot(np.arange(300) % 3, 3)
    hyper = Hyperparams.uniform(2, sparsity=0.1, outer_max=2)
    states = []

    def keep_states(*args):
        states.extend(make_states(*args))
        return states

    monkeypatch.setattr(optimizer, "make_states", keep_states)
    tracemalloc.start()
    try:
        run_reference(views, labels, hyper, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 600 * 600 * 8
    for state in states:
        d = state.features.shape[1]
        square = [f.name for f in fields(state)
                  if np.shape(getattr(state, f.name)) == (d, d)]
        assert square == ["gram"]
        assert state.gram.tobytes() == optimizer.gram_matrix(state.features).tobytes()


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("d", [1, 6, 240, 1984])
def test_gram_matrix_is_exactly_symmetric(d, layout):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((60, 2 * d))
    x = {"C": np.ascontiguousarray(x[:, :d]), "F": np.asfortranarray(x[:, :d]),
         "strided": x[:, ::2]}[layout]
    g = optimizer.gram_matrix(x)
    assert np.array_equal(g, g.T)
    # the same bits from every layout
    x = np.ascontiguousarray(x)
    product = x.T @ x if d <= CHOLESKY_TILE else _two_block_gram(x)
    assert g.tobytes() == ((product + product.T) * 0.5).tobytes()


def _two_block_gram(x):
    """X^T X as ``gram_matrix`` builds a block wider than ``CHOLESKY_TILE``,
    in fresh arrays: split after round(d / sqrt(2)) columns, X_1^T X_1 and
    X_2^T X_2 as numpy's symmetric rank-k products, X_2^T X_1 below the
    head block and its transpose above it."""
    split = round(x.shape[1] / math.sqrt(2))
    head, tail = x[:, :split], x[:, split:]
    below = tail.T @ head
    return np.block([[head.T @ head, below.T], [below, tail.T @ tail]])


def _gram_in_scope(x, cpus):
    """``gram_matrix`` inside an entry-point scope with ``cpus`` usable
    CPUs (a helper thread from 2), the sizes of the task batches it
    posted, and the peak of the memory tracemalloc saw it allocate."""
    batches = []

    def run_tasks(tasks):
        batches.append(len(tasks))
        numerics._run_tasks(tasks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "_usable_cpus", lambda: cpus)
        patch.setattr(optimizer, "_run_tasks", run_tasks)
        with single_blas_thread():
            tracemalloc.start()
            try:
                gram = optimizer.gram_matrix(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    return gram, batches, peak


@pytest.mark.parametrize("n", [60, 1474])
@pytest.mark.parametrize("d", [CHOLESKY_TILE, CHOLESKY_TILE + 1, 2 * CHOLESKY_TILE + 88, 1984])
def test_a_wide_gram_is_built_in_tiles_to_the_same_bits_on_any_cpu_count(n, d):
    x = np.random.default_rng(n + d).standard_normal((n, d))
    helped, helped_batches, helped_peak = _gram_in_scope(x, 2)
    alone, alone_batches, alone_peak = _gram_in_scope(x, 1)
    assert np.array_equal(helped, helped.T)
    assert helped.tobytes() == alone.tobytes()
    # nothing d x d is allocated beside the result
    assert max(helped_peak, alone_peak) < 1.05 * d * d * 8
    with single_blas_thread():
        product = x.T @ x
        blocks = _two_block_gram(x)
    if d <= CHOLESKY_TILE:
        # numpy's own product, on the calling thread
        assert helped_batches == alone_batches == []
        assert helped.tobytes() == product.tobytes()
    else:
        # both blocks in one batch
        assert helped_batches == alone_batches == [2]
        assert helped.tobytes() == blocks.tobytes()
    assert np.linalg.norm(helped - product) <= 1e-12 * np.linalg.norm(product)


def test_a_wide_gram_over_many_samples_trains_to_the_same_bits_on_any_cpu_count(monkeypatch):
    # 640 samples span several of BLAS's blocks of the Gram's inner
    # dimension; the block is wider than two tiles
    views, labels = tiny_problem(13, num_samples=640, dims=(2 * CHOLESKY_TILE + 88, 6))
    hyper = Hyperparams.uniform(2, sparsity=0.1, outer_max=2)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(numerics, "_usable_cpus", lambda cpus=cpus: cpus)
        runs.append(_bits(run_reference(views, labels, hyper, 5)))
    assert runs[0] == runs[1]


def test_concurrent_wide_grams_share_the_helper_and_keep_their_bits(monkeypatch):
    # more Gram-building threads than cores post their tiles to the one
    # helper while the interpreter switches threads as often as it can: a
    # tile built twice or never, or a lost completion, changes a Gram's
    # bits or hangs a thread
    rng = np.random.default_rng(21)
    blocks = [rng.standard_normal((200, CHOLESKY_TILE + 40 + 64 * k)) for k in range(6)]
    expected = [_gram_in_scope(x, 1)[0].tobytes() for x in blocks]
    mismatches = []

    def worker(k):
        for _ in range(3):
            if optimizer.gram_matrix(blocks[k]).tobytes() != expected[k]:
                mismatches.append(k)

    monkeypatch.setattr(numerics, "_usable_cpus", lambda: 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with single_blas_thread():
            workers = [threading.Thread(target=worker, args=(k,)) for k in range(len(blocks))]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert mismatches == []
