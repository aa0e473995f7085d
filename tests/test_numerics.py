"""Low-level numeric helpers: norms, seeded RNG streams, SPD solving,
BLAS thread pinning."""

import functools
import os
import subprocess
import sys
import threading
import types
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, lapack

import mmvfl
import mmvfl.optimizer
from mmvfl import Hyperparams, numerics, one_hot, run_reference, synth_planted
from mmvfl.baselines import _fit_blocks
from mmvfl.evaluation import _SplitScorer
from mmvfl.featsel import score_features
from mmvfl.federation import run_federated
from mmvfl.numerics import (
    CHOLESKY_TILE,
    SPD_RESIDUAL_TOL,
    NotPositiveDefiniteError,
    _cholesky_factor_in_place,
    _cholesky_solve,
    _cholesky_solve_in_place,
    _dpocon,
    check_seed,
    derive_seed,
    ensure_matrix,
    openblas_libraries,
    random_orthonormal,
    single_blas_thread,
)

from oracles import loop_l21, loop_row_norms, solve_spd


def test_check_seed_accepts_plain_ints():
    assert check_seed(0) == 0
    assert check_seed(2**64 - 1) == 2**64 - 1
    assert check_seed(np.uint64(7)) == 7


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "seed", None, np.float32(2.7), "12",
                                 Decimal("1.5"), np.True_])
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


# Row norms are taken inline by featsel.score_features, their one caller.
def test_row_norms_and_l21_examples():
    scores = score_features(np.array([[3.0, 4.0], [0.0, 0.0]])).scores
    assert np.allclose(scores, [5.0, 0.0])
    assert float(scores.sum()) == 5.0
    assert float(score_features(np.eye(3)).scores.sum()) == 3.0


def test_row_norms_match_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.standard_normal((4, 2)) * rng.uniform(0.1, 5)
        scores = score_features(m).scores
        assert np.allclose(scores, loop_row_norms(m), atol=1e-12)
        assert float(scores.sum()) == pytest.approx(loop_l21(m), abs=1e-12)


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


def _scipy_solve_in_place(factor, b, matrix, shift):
    """The refined solve as written on scipy's ``cho_solve``, with a
    given lower Cholesky factor of G + diag(shift)."""
    x = cho_solve((factor, True), b, check_finite=False)
    b_norm = float(np.linalg.norm(b))
    if b_norm > 0.0:
        for _ in range(3):
            residual = b - (x.T @ matrix).T - shift[:, None] * x
            if float(np.linalg.norm(residual)) <= 1e-13 * b_norm:
                break
            x = x + cho_solve((factor, True), residual, check_finite=False)
    return x


def _spd_system(d, nrhs, rank_gap, shift, seed):
    """X^T X (singular when X has fewer rows than columns) plus a positive
    diagonal shift, and a right-hand side: the systems the kernel solves.
    Returns ``(matrix, shifts, system, b)``."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((max(1, d + rank_gap), d))
    matrix = x.T @ x
    shifts = shift * rng.uniform(0.5, 2.0, d)
    return matrix, shifts, matrix + np.diag(shifts), rng.standard_normal((d, nrhs))


# An order up to one tile is one dpotrf call, the very call
# np.linalg.cholesky makes in the same library.  scipy's solves run on
# that factor in scipy's own LAPACK build, an independent oracle for
# dpotrs, the refinement and the product.
@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, CHOLESKY_TILE), nrhs=st.integers(1, 12), rank_gap=st.integers(-3, 3),
       shift=st.floats(1e-6, 1e3), seed=st.integers(0, 2**32 - 1))
def test_one_tile_factor_matches_numpy_and_its_solves_match_scipy_bit_for_bit(
        d, nrhs, rank_gap, shift, seed):
    matrix, shifts, system, b = _spd_system(d, nrhs, rank_gap, shift, seed)
    work = np.array(system, order="F")
    _cholesky_factor_in_place(work)
    assert np.tril(work).tobytes() == np.linalg.cholesky(system).tobytes()
    assert _bits(_cholesky_solve(work, b)) == _bits(cho_solve((work, True), b))

    ours, product = _cholesky_solve_in_place(np.array(matrix, order="F"), b, shifts)
    theirs = _scipy_solve_in_place(work, b, matrix, shifts)
    assert _bits(ours) == _bits(theirs)
    # G x as the kernel forms it: x^T G, with the C-order G stored as is
    assert _bits(product) == _bits((theirs.T @ matrix).T)


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, CHOLESKY_TILE), rank_gap=st.integers(-3, 3),
       shift=st.floats(1e-6, 1e3), seed=st.integers(0, 2**32 - 1))
def test_dpocon_matches_scipy_bit_for_bit(d, rank_gap, shift, seed):
    _, _, system, _ = _spd_system(d, 1, rank_gap, shift, seed)
    factor = np.array(system, order="F")
    _cholesky_factor_in_place(factor)
    anorm = float(np.abs(system).sum(axis=0).max())
    rcond, info = _dpocon(factor, anorm)
    expected_rcond, expected_info = lapack.dpocon(factor, anorm, uplo="L")
    assert (np.float64(rcond).tobytes(), info) == (np.float64(expected_rcond).tobytes(),
                                                   expected_info)


# The tiled factor's forward error against scipy's one-call factor.  It
# grows like sqrt(cond) times the unit roundoff; these systems reach
# cond ~ 1e10, and the largest difference seen in 40 draws was 1.1e-12.
TILED_FACTOR_RTOL = 1e-10


def _factor_in_scope(system, cpus=None):
    """Factor inside an entry-point scope, with ``cpus`` usable CPUs
    (None: as many as this process has).  Returns the factor and whether
    the scope had a tile helper."""
    work = np.array(system, order="F")
    with pytest.MonkeyPatch.context() as patch:
        if cpus is not None:
            patch.setattr(numerics, "_usable_cpus", lambda: cpus)
        with single_blas_thread():
            _cholesky_factor_in_place(work)
            helped = numerics._PIN.helper is not None
    return work, helped


@settings(max_examples=25, deadline=None)
@given(d=st.integers(CHOLESKY_TILE + 1, 3 * CHOLESKY_TILE), nrhs=st.integers(1, 12),
       rank_gap=st.integers(-3, 3), shift=st.floats(1e-6, 1e3), seed=st.integers(0, 2**32 - 1))
def test_tiled_cholesky_is_accurate_and_the_same_on_any_cpu_count(d, nrhs, rank_gap, shift, seed):
    matrix, shifts, system, b = _spd_system(d, nrhs, rank_gap, shift, seed)
    helped, helped_flag = _factor_in_scope(system)
    alone, alone_flag = _factor_in_scope(system, cpus=1)
    assert helped_flag == (numerics._usable_cpus() >= 2) and not alone_flag
    assert _bits(helped) == _bits(alone)
    assert _bits(helped) == _bits(_factor_in_scope(system, cpus=2)[0])
    # the upper triangle is left as it was
    assert np.array_equal(np.triu(helped, 1), np.triu(system, 1))
    factor = np.tril(helped)
    reference = np.tril(cho_factor(system, lower=True, check_finite=False)[0])
    assert np.linalg.norm(factor - reference) <= TILED_FACTOR_RTOL * np.linalg.norm(reference)

    with single_blas_thread():
        x, product = _cholesky_solve_in_place(np.array(matrix, order="F"), b, shifts)
        assert _bits(product) == _bits((x.T @ matrix).T)
    # refinement meets SPD_RESIDUAL_TOL as a normwise backward error; on
    # an ill-conditioned draw the residual cannot get below rounding in
    # A x, and the one-call factor stalls above SPD_RESIDUAL_TOL ||b|| too
    residual = np.linalg.norm(matrix @ x + shifts[:, None] * x - b)
    scale = np.linalg.norm(b) + np.linalg.norm(system) * np.linalg.norm(x)
    assert residual <= SPD_RESIDUAL_TOL * scale


def test_a_batch_runs_every_task_exactly_once_across_racing_threads():
    runs = [0] * 20000

    def task(index):
        runs[index] += 1

    batch = numerics._Batch([functools.partial(task, index) for index in range(len(runs))])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=batch.work) for _ in range(8)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert batch.finished.is_set() and batch.error is None
    assert runs == [1] * len(runs)


def test_concurrent_wide_factors_share_the_helper_and_keep_their_bits():
    # more factoring threads than cores post batches to the one helper
    # while the interpreter switches threads as often as it can: a task
    # claimed twice or never, or a lost completion, changes a factor's
    # bits or hangs a thread
    systems = [_spd_system(2 * CHOLESKY_TILE + 40 + 16 * k, 1, 0, 1.0, k)[2] for k in range(6)]
    expected = [_bits(_factor_in_scope(system, cpus=1)[0]) for system in systems]
    mismatches = []

    def worker(k):
        for _ in range(3):
            work = np.array(systems[k], order="F")
            _cholesky_factor_in_place(work)
            if _bits(work) != expected[k]:
                mismatches.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with single_blas_thread():
            workers = [threading.Thread(target=worker, args=(k,)) for k in range(len(systems))]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert mismatches == []


@pytest.mark.parametrize("d", [1, 2, 40, CHOLESKY_TILE + 1, 2 * CHOLESKY_TILE + 5])
def test_lapack_cholesky_rejects_non_positive_definite(d):
    indefinite = np.eye(d, order="F")
    indefinite[d - 1, d - 1] = -1.0
    with pytest.raises(NotPositiveDefiniteError, match=f"{d}-th leading minor"):
        _cholesky_factor_in_place(indefinite)
    with pytest.raises(NotPositiveDefiniteError):
        _cholesky_solve_in_place(np.zeros((d, d), order="F"), np.ones((d, 1)), np.zeros(d))


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
    for factor in (np.eye(3), np.ones((3, 2), order="F")):
        with pytest.raises(ValueError):
            _dpocon(factor, 1.0)


def test_a_routine_missing_from_numpys_lapack_or_of_another_width_fails_the_import(
        monkeypatch):
    other_width = "scipy_dpocon_" if numerics._ILP64 else "scipy_dpocon_64_"
    for library in (types.SimpleNamespace(), types.SimpleNamespace(**{other_width: object()})):
        monkeypatch.setattr(numerics, "_NUMPY_LAPACK", library)
        with pytest.raises(ImportError, match="dpocon"):
            numerics._lapack_function("dpocon")


@pytest.mark.parametrize("d", [40, CHOLESKY_TILE + 44])
@pytest.mark.parametrize("case", ["solve raises", "not positive definite", "baseline fit"])
def test_a_step_leaves_the_gram_as_it_found_it(monkeypatch, case, d):
    # the Gram is the factor's buffer: whether the step fails after the
    # factor, fails in it or succeeds, the caller gets its bytes back
    rng = np.random.default_rng(d)
    n = d - 20
    x = rng.standard_normal((n, d))
    targets = one_hot(np.arange(n) % 3, 3)
    if case == "baseline fit":
        scorer = _SplitScorer(x, np.arange(n) % 3, x[:6], np.arange(6) % 3)
        gram = scorer.xtx
    else:
        # d > n makes the Gram singular; a zero column makes its last pivot
        # exactly zero, so the factor fails however the others round
        x[:, -1] = 0.0
        gram = mmvfl.optimizer.gram_matrix(x)
    before = gram.tobytes()
    with single_blas_thread():
        if case == "solve raises":
            factored = []

            def fail(factor, b):
                factored.append(factor.T.tobytes() != before)
                raise RuntimeError("the solve failed")

            monkeypatch.setattr(numerics, "_cholesky_solve", fail)
            with pytest.raises(RuntimeError, match="the solve failed"):
                mmvfl.optimizer._reweighted_step(gram, x.T @ targets, float(n), 0.1)
            assert factored == [True]
        elif case == "not positive definite":
            with pytest.raises(NotPositiveDefiniteError):
                _cholesky_solve_in_place(gram.T, x.T @ targets, np.zeros(d))
        else:
            _fit_blocks([gram], [scorer.moments[:-1]], float(n), 0.1)
    assert gram.tobytes() == before


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
    original = mmvfl.optimizer._cholesky_solve_in_place

    def probe(system, b, shift):
        calls.append((threading.current_thread().name, set(thread_counts())))
        return original(system, b, shift)

    monkeypatch.setattr(mmvfl.optimizer, "_cholesky_solve_in_place", probe)
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
from mmvfl import (Hyperparams, one_hot, run_reference, supfl_solve, supmvlfl_solve,
                   synth_planted)
dataset, _ = synth_planted(num_participants=3, num_classes=6, num_samples=1000,
                           dims=(200, 80, 150), seed=3)
hyper = Hyperparams.uniform(3, sparsity=0.1, outer_max=20)
result = run_reference(dataset.views, one_hot(dataset.labels, dataset.num_classes),
                       hyper, 3)
# the baselines on a view wider than CHOLESKY_TILE
wide, _ = synth_planted(num_participants=2, num_samples=1500, dims=(600, 30), seed=0)
labels = one_hot(wide.labels, wide.num_classes)
transform, supfl_objectives, _ = supfl_solve(wide.views[0], labels, 0.1)
transforms, supmvlfl_objectives, _ = supmvlfl_solve(wide.views, labels, 0.1)
for objectives in (result.objectives, supfl_objectives, supmvlfl_objectives):
    print(repr(objectives))
for transform in [*result.transforms, transform, *transforms]:
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
