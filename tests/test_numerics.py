"""Low-level numeric helpers: norms, seeded RNG streams, SPD solving,
BLAS thread pinning."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

import mmvfl
import mmvfl.optimizer
from mmvfl import Hyperparams, one_hot, run_reference, synth_planted
from mmvfl.federation import run_federated
from mmvfl.numerics import (
    NotPositiveDefiniteError,
    _cholesky_factor_in_place,
    _cholesky_solve,
    _cholesky_solve_in_place,
    check_seed,
    derive_seed,
    ensure_matrix,
    frobenius_norm_sq,
    l21_norm,
    openblas_libraries,
    random_orthonormal,
    row_norms,
    single_blas_thread,
)

from oracles import loop_frobenius_sq, loop_l21, loop_row_norms, solve_spd


def test_check_seed_accepts_plain_ints():
    assert check_seed(0) == 0
    assert check_seed(2**64 - 1) == 2**64 - 1
    assert check_seed(np.uint64(7)) == 7


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "seed", None])
def test_check_seed_rejects_bad_values(bad):
    with pytest.raises((ValueError, TypeError)):
        check_seed(bad)


def test_derive_seed_is_deterministic_and_keyed():
    a = derive_seed(42, 0, 3)
    assert a == derive_seed(42, 0, 3)
    seen = {derive_seed(42, i, j) for i in range(8) for j in range(8)}
    assert len(seen) == 64
    assert derive_seed(42, 0, 3) != derive_seed(43, 0, 3)


def test_ensure_matrix_casts_and_validates():
    out = ensure_matrix([[1, 2], [3, 4]], "m")
    assert out.dtype == np.float64 and out.shape == (2, 2)
    with pytest.raises(ValueError):
        ensure_matrix([1.0, 2.0], "m")
    with pytest.raises(ValueError):
        ensure_matrix([[np.nan, 1.0]], "m")
    with pytest.raises(ValueError):
        ensure_matrix([[np.inf, 1.0]], "m")


def test_frobenius_examples():
    assert frobenius_norm_sq(np.array([[1.0, 2.0], [3.0, 4.0]])) == 30.0
    assert frobenius_norm_sq(np.zeros((3, 3))) == 0.0


def test_frobenius_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal((5, 3)) * rng.uniform(0.1, 10)
        assert frobenius_norm_sq(m) == pytest.approx(loop_frobenius_sq(m), abs=1e-12, rel=1e-12)


def test_row_norms_and_l21_examples():
    m = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert np.allclose(row_norms(m), [5.0, 0.0])
    assert l21_norm(m) == 5.0
    assert l21_norm(np.eye(3)) == 3.0


def test_row_norms_match_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.standard_normal((4, 2)) * rng.uniform(0.1, 5)
        assert np.allclose(row_norms(m), loop_row_norms(m), atol=1e-12)
        assert l21_norm(m) == pytest.approx(loop_l21(m), abs=1e-12)


def test_solve_spd_identity_and_scaling():
    b = np.array([[1.0], [2.0], [3.0]])
    assert np.allclose(solve_spd(np.eye(3), b), b)
    out = solve_spd(2.0 * np.eye(2), np.array([[4.0], [6.0]]))
    assert np.allclose(out, [[2.0], [3.0]])


def test_solve_spd_residuals_over_many_instances():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        basis = rng.standard_normal((n, n))
        a = basis @ basis.T + n * np.eye(n) * rng.uniform(0.01, 1.0)
        a = (a + a.T) * 0.5
        b = rng.standard_normal((n, int(rng.integers(1, 4))))
        x = solve_spd(a, b)
        residual = np.linalg.norm(a @ x - b)
        scale = np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b)
        worst = max(worst, residual / scale)
    assert worst <= 1e-10


def _bits(m):
    """Exact bit pattern and memory layout of a float64 matrix."""
    return m.flags.f_contiguous, m.shape, np.asarray(m).tobytes(order="A")


def _scipy_solve_in_place(a, b, matrix, shift):
    """The in-place solve as written on scipy's f2py wrappers."""
    factor = cho_factor(a, lower=True, overwrite_a=True, check_finite=False)
    x = cho_solve(factor, b, check_finite=False)
    b_norm = float(np.linalg.norm(b))
    if b_norm > 0.0:
        for _ in range(3):
            residual = b - matrix @ x - shift[:, None] * x
            if float(np.linalg.norm(residual)) <= 1e-13 * b_norm:
                break
            x = x + cho_solve(factor, residual, check_finite=False)
    return x


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 300), nrhs=st.integers(1, 12), rank_gap=st.integers(-3, 3),
       shift=st.floats(1e-6, 1e3), seed=st.integers(0, 2**32 - 1))
def test_lapack_cholesky_matches_scipy_bit_for_bit(d, nrhs, rank_gap, shift, seed):
    # X^T X (singular when X has fewer rows than columns) plus a positive
    # diagonal shift: the systems the kernel solves
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((max(1, d + rank_gap), d))
    matrix = x.T @ x
    shifts = shift * rng.uniform(0.5, 2.0, d)
    system = matrix + np.diag(shifts)
    b = rng.standard_normal((d, nrhs))

    work = np.array(system, order="F")
    _cholesky_factor_in_place(work)
    factor, _ = cho_factor(system, lower=True, check_finite=False)
    assert _bits(work) == _bits(factor)
    assert _bits(_cholesky_solve(work, b)) == _bits(cho_solve((factor, True), b))

    ours = _cholesky_solve_in_place(np.array(system, order="F"), b, matrix, shifts)
    theirs = _scipy_solve_in_place(np.array(system, order="F"), b, matrix, shifts)
    assert _bits(ours) == _bits(theirs)


@pytest.mark.parametrize("d", [1, 2, 40])
def test_lapack_cholesky_rejects_non_positive_definite(d):
    indefinite = np.eye(d, order="F")
    indefinite[d - 1, d - 1] = -1.0
    with pytest.raises(NotPositiveDefiniteError, match=f"{d}-th leading minor"):
        _cholesky_factor_in_place(indefinite)
    with pytest.raises(NotPositiveDefiniteError):
        _cholesky_solve_in_place(np.zeros((d, d), order="F"), np.ones((d, 1)), np.zeros((d, d)))


def test_lapack_cholesky_rejects_layouts_it_cannot_read():
    for work in (np.eye(3), np.ones((3, 2), order="F"), np.eye(3, dtype=np.float32, order="F")):
        with pytest.raises(ValueError):
            _cholesky_factor_in_place(work)
    factor = np.eye(3, order="F")
    for b in (np.ones((2, 1)), np.ones(3)):
        with pytest.raises(ValueError):
            _cholesky_solve(factor, b)
    with pytest.raises(ValueError):
        _cholesky_solve(np.eye(3), np.ones((3, 1)))


def test_random_orthonormal_is_orthonormal_and_deterministic():
    q = random_orthonormal(3, 3, 11)
    assert np.max(np.abs(q.T @ q - np.eye(3))) <= 1e-10
    a = random_orthonormal(100, 7, 5)
    b = random_orthonormal(100, 7, 5)
    assert np.array_equal(a, b)
    assert a.shape == (100, 7)
    assert np.max(np.abs(a.T @ a - np.eye(7))) <= 1e-12


def test_random_orthonormal_seeds_differ():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s1, s2 = rng.integers(0, 2**32, size=2)
        if s1 == s2:
            continue
        a = random_orthonormal(100, 7, int(s1))
        b = random_orthonormal(100, 7, int(s2))
        assert not np.array_equal(a, b)


def test_random_orthonormal_needs_enough_rows():
    with pytest.raises(ValueError):
        random_orthonormal(3, 5, 0)


# ---------------------------------------------------------------------------
# BLAS thread pinning


def thread_counts():
    return [lib.threads() for lib in openblas_libraries() if lib.pinnable]


@pytest.fixture
def two_threads_before():
    """Every pinnable OpenBLAS set to 2 threads, the original counts put
    back afterwards."""
    libraries = [lib for lib in openblas_libraries() if lib.pinnable]
    if not libraries:
        pytest.skip("no OpenBLAS with thread controls is loaded")
    original = [lib.threads() for lib in libraries]
    try:
        for lib in libraries:
            lib.set_threads(2)
        yield
    finally:
        for lib, count in zip(libraries, original):
            lib.set_threads(count)


def test_scope_pins_every_library_and_restores(two_threads_before):
    with single_blas_thread():
        assert thread_counts() == [1] * len(thread_counts())
    assert set(thread_counts()) == {2}


def test_nested_scope_restores_only_at_the_outermost_exit(two_threads_before):
    with single_blas_thread():
        with single_blas_thread():
            assert set(thread_counts()) == {1}
        assert set(thread_counts()) == {1}
    assert set(thread_counts()) == {2}


def test_scope_restores_on_exception(two_threads_before):
    with pytest.raises(RuntimeError):
        with single_blas_thread():
            raise RuntimeError("boom")
    assert set(thread_counts()) == {2}

    @single_blas_thread()
    def failing():
        assert set(thread_counts()) == {1}
        raise KeyError("inside")

    with pytest.raises(KeyError):
        failing()
    assert set(thread_counts()) == {2}


def test_concurrent_scopes_share_one_pin(two_threads_before):
    inside = threading.Barrier(3)
    leave = [threading.Event(), threading.Event()]

    def worker(index):
        with single_blas_thread():
            inside.wait(timeout=10)
            leave[index].wait(timeout=10)

    workers = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
    for thread in workers:
        thread.start()
    inside.wait(timeout=10)
    assert set(thread_counts()) == {1}
    # the first scope to leave must not restore while the other is open
    leave[0].set()
    workers[0].join(timeout=10)
    assert set(thread_counts()) == {1}
    leave[1].set()
    workers[1].join(timeout=10)
    assert set(thread_counts()) == {2}


def test_scope_survives_many_racing_threads(two_threads_before):
    failures = []

    def worker():
        for _ in range(200):
            with single_blas_thread():
                with single_blas_thread():
                    if set(thread_counts()) != {1}:
                        failures.append(thread_counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(8)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert failures == []
    assert set(thread_counts()) == {2}


def _probe_solves(monkeypatch):
    """Record, per solve, the calling thread and the BLAS thread counts."""
    calls = []
    original = mmvfl.optimizer._penalized_solve

    def probe(gram, xty, irls_diag, sparsity, work):
        calls.append((threading.current_thread().name, set(thread_counts())))
        return original(gram, xty, irls_diag, sparsity, work)

    monkeypatch.setattr(mmvfl.optimizer, "_penalized_solve", probe)
    return calls


def _tiny_problem():
    dataset, _ = synth_planted(num_participants=2, num_classes=3, num_samples=40,
                               dims=(6, 5), n_informative=2, seed=1)
    labels = one_hot(dataset.labels, dataset.num_classes)
    return dataset.views, labels, Hyperparams.uniform(2, sparsity=0.1, outer_max=3)


def test_solves_inside_run_reference_see_one_thread(two_threads_before, monkeypatch):
    calls = _probe_solves(monkeypatch)
    views, labels, hyper = _tiny_problem()
    run_reference(views, labels, hyper, 5)
    assert calls and all(counts == {1} for _, counts in calls)
    assert set(thread_counts()) == {2}


def test_participant_threads_see_one_thread(two_threads_before, monkeypatch):
    calls = _probe_solves(monkeypatch)
    views, labels, hyper = _tiny_problem()
    run_federated(views, labels, hyper, 5, transport="in_process")
    main = threading.main_thread().name
    assert calls and all(name != main for name, _ in calls)
    assert all(counts == {1} for _, counts in calls)
    assert set(thread_counts()) == {2}


_THREAD_COUNT_RUN = """
import hashlib
from mmvfl import Hyperparams, one_hot, run_reference, synth_planted
dataset, _ = synth_planted(num_participants=3, num_classes=6, num_samples=1000,
                           dims=(200, 80, 150), seed=3)
hyper = Hyperparams.uniform(3, sparsity=0.1, outer_max=20)
result = run_reference(dataset.views, one_hot(dataset.labels, dataset.num_classes),
                       hyper, 3)
print(repr(result.objectives))
for transform in result.transforms:
    print(hashlib.sha256(transform.tobytes()).hexdigest())
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mmvfl.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", _THREAD_COUNT_RUN],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
