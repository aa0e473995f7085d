"""Validation protocol: classifier, grid runner, reductions, tables."""

import random
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmvfl.baselines as baselines
import mmvfl.evaluation as evaluation
import mmvfl.numerics as numerics
import mmvfl.optimizer as optimizer
from mmvfl.baselines import supfl_solve, supmvlfl_solve
from mmvfl.data import MultiViewDataset, make_folds, synth_planted
from mmvfl.evaluation import (
    DegenerateInputError,
    ExperimentResult,
    GridMismatchError,
    MeanAccuracy,
    diff_table,
    format_cell,
    mean_curves,
    render_diff_table,
    run_grid,
    select_best,
    write_results_csv,
    _SplitScorer,
)
from mmvfl.featsel import score_features, select_top
from mmvfl.numerics import derive_seed
from mmvfl.optimizer import Hyperparams, one_hot

from oracles import lstsq_accuracy, read_results_csv


def small_dataset(seed=0, dims=(6, 5)):
    dataset, _ = synth_planted(num_participants=2, num_classes=3,
                               num_samples=60, dims=dims,
                               n_informative=2, noise=0.5, seed=seed)
    return dataset


def default_hyper(dataset, **kwargs):
    return Hyperparams.uniform(dataset.num_participants, **kwargs)


# ---------------------------------------------------------------------------
# classifier


def classify_eval(train_features, train_labels, val_features, val_labels) -> float:
    """Validation accuracy of the sweep's classifier fit on every
    training column."""
    scorer = _SplitScorer(train_features, train_labels, val_features, val_labels)
    return scorer.accuracy(np.arange(scorer.train.shape[1]))


def test_classifier_memorizes_overparameterized_data():
    rng = np.random.default_rng(0)
    features = rng.standard_normal((30, 40))
    labels = rng.integers(0, 4, size=30)
    labels[:4] = [0, 1, 2, 3]
    assert classify_eval(features, labels, features, labels) == 1.0


def test_classifier_is_chance_on_pure_noise():
    accuracies = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        train = rng.standard_normal((200, 5))
        train_labels = rng.integers(0, 10, size=200)
        while np.bincount(train_labels, minlength=10).min() == 0:
            train_labels = rng.integers(0, 10, size=200)
        val = rng.standard_normal((200, 5))
        val_labels = rng.integers(0, 10, size=200)
        accuracies.append(classify_eval(train, train_labels, val, val_labels))
    assert abs(np.mean(accuracies) - 0.1) <= 0.05


def test_informative_features_beat_noise_features():
    wins = 0
    for seed in range(50):
        dataset, informative = synth_planted(
            num_participants=1, num_classes=3, num_samples=120,
            dims=(12,), n_informative=3, noise=0.5, seed=seed)
        holdout, _ = synth_planted(
            num_participants=1, num_classes=3, num_samples=120,
            dims=(12,), n_informative=3, noise=0.5, seed=seed + 1000)
        # the holdout shares the seed-specific planted layout only if the
        # columns match, so score within the training split instead
        view = dataset.views[0]
        labels = dataset.labels
        idx = np.arange(120)
        rng = np.random.default_rng(seed)
        rng.shuffle(idx)
        tr, va = idx[:80], idx[80:]
        planted = informative[0]
        noise_cols = [c for c in range(12) if c not in planted][:3]
        good = classify_eval(view[np.ix_(tr, planted)], labels[tr],
                             view[np.ix_(va, planted)], labels[va])
        bad = classify_eval(view[np.ix_(tr, noise_cols)], labels[tr],
                            view[np.ix_(va, noise_cols)], labels[va])
        wins += good > bad
    assert wins >= 47  # 95 percent of 50, with one to spare


def test_classifier_tie_breaks_to_lowest_class():
    # zero features force identical class scores via the intercept
    train = np.zeros((4, 1))
    labels = np.array([0, 1, 0, 1])  # equal counts, identical fit per class
    val = np.zeros((3, 1))
    assert classify_eval(train, labels, val, np.zeros(3, dtype=int)) == 1.0


# ---------------------------------------------------------------------------
# per-split scorer against the lstsq classifier


def split_problem(kind, num_classes, d, seed):
    """Training and validation blocks of one design kind.

    Class k has k + 1 training samples plus a random extra, so no two
    classes tie on a column that carries no information.  Every column
    is offset, so the intercept matters.  ``duplicate`` repeats a column,
    ``constant`` holds one column fixed and ``wide`` has fewer training
    rows than columns: each makes the Gram of [X 1] singular for the
    column sets that hold those columns (or, for ``wide``, enough of
    them).  ``collinear`` pairs columns that differ by small noise.
    """
    rng = np.random.default_rng(seed)
    counts = np.arange(1, num_classes + 1)
    if kind != "wide":
        counts = counts + rng.integers(3, 8, size=num_classes)
    train_labels = rng.permutation(np.repeat(np.arange(num_classes), counts))
    val_labels = rng.integers(0, num_classes, size=15)
    offsets = rng.normal(0.0, 3.0, size=d)

    def block(rows):
        x = rng.standard_normal((rows, d)) + offsets
        if kind == "duplicate":
            x[:, d - 1] = x[:, 0]
        elif kind == "constant":
            x[:, d - 1] = offsets[d - 1]
        elif kind == "collinear":
            half = d // 2
            x[:, d - half:] = x[:, :half] + 1e-3 * rng.standard_normal((rows, half))
        return x

    return block(len(train_labels)), train_labels, block(15), val_labels


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(("well", "collinear", "duplicate", "constant", "wide")),
       num_classes=st.integers(2, 3), extra=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_scorer_matches_lstsq_oracle_on_nested_prefixes(kind, num_classes, extra, seed):
    # wide problems get more columns than their 1 + ... + c training rows
    d = num_classes * (num_classes + 1) // 2 + 1 + extra if kind == "wide" else 2 + extra
    train, train_labels, val, val_labels = split_problem(kind, num_classes, d, seed)
    scorer = _SplitScorer(train, train_labels, val, val_labels)
    ranking = np.random.default_rng(seed).permutation(d)
    for m in range(1, d + 1):
        columns = ranking[:m]
        expected = lstsq_accuracy(train[:, columns], train_labels,
                                  val[:, columns], val_labels)
        design = np.hstack([train[:, columns], np.ones((len(train), 1))])
        singular = np.linalg.matrix_rank(design) < m + 1
        # the 1-norm condition number of the Gram is at most m + 1 times
        # its 2-norm one, so below 1e8 the estimate stays above MIN_RCOND
        well_conditioned = not singular and np.linalg.cond(design) ** 2 < 1e8
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            lstsq = np.linalg.lstsq
            patch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
            assert scorer.accuracy(columns) == expected
        # singular designs take the lstsq fallback, well-conditioned ones
        # the Cholesky solve; in between either may
        if singular:
            assert calls == [1]
        if well_conditioned:
            assert calls == []


def test_a_rank_deficient_gram_that_factors_is_refused_by_its_condition_estimate():
    # a column that is the sum of two others makes the Gram of [X 1]
    # singular; rounding lets the factor finish on some draws, and there
    # the dpocon estimate, below MIN_RCOND, sends the cell to lstsq
    dpocon, lstsq = evaluation._dpocon, np.linalg.lstsq
    estimates = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        train, val = rng.standard_normal((20, 5)), rng.standard_normal((6, 5))
        train[:, 4] = train[:, 0] + train[:, 1]
        labels, val_labels = np.arange(20) % 3, np.arange(6) % 3
        expected = lstsq_accuracy(train, labels, val, val_labels)
        scorer = _SplitScorer(train, labels, val, val_labels)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "_dpocon",
                          lambda *a: estimates.append(dpocon(*a)) or estimates[-1])
            patch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
            assert scorer.accuracy(np.arange(5)) == expected
        assert calls == [1]
    assert estimates
    assert all(info == 0 and rcond < evaluation.MIN_RCOND for rcond, info in estimates)


def test_building_a_scorer_holds_one_d_by_d_array():
    # the scorer keeps gram_matrix's XᵀX and borders a subset's block per
    # accuracy call, so building it makes no second d x d copy
    d = 600
    rng = np.random.default_rng(0)
    train, val = rng.standard_normal((400, d)), rng.standard_normal((30, d))
    tracemalloc.start()
    try:
        scorer = _SplitScorer(train, np.arange(400) % 3, val, np.arange(30) % 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * d * d * 8
    assert scorer.xtx.flags.c_contiguous and scorer.xtx.shape == (d, d)


def test_scorer_rejects_bad_splits():
    train = np.zeros((4, 2))
    with pytest.raises(ValueError):
        _SplitScorer(train, [0, 0, 0, 0], np.zeros((2, 2)), [0, 1])
    with pytest.raises(ValueError):
        _SplitScorer(train, [0, 1, 0, 1], np.zeros((2, 3)), [0, 1])
    with pytest.raises(DegenerateInputError):
        _SplitScorer(train, [0, 1, 0, 1], np.zeros((2, 2)), [0, 1]).accuracy([])


def test_run_grid_accuracies_equal_the_lstsq_oracle():
    dataset = small_dataset(seed=7)
    folds = make_folds(dataset, 3, seed=4)
    beta_grid, p_grid = [0.01, 1.0], [20.0, 50.0, 100.0]
    for method in ("supfl", "supmvlfl"):
        expected = []
        for fold in range(folds.num_folds):
            train = dataset.restrict(folds.train_indices(fold))
            val = dataset.restrict(folds.val_indices(fold))
            labels = one_hot(train.labels, train.num_classes)
            for beta in beta_grid:
                if method == "supfl":
                    transforms = [supfl_solve(v, labels, beta)[0] for v in train.views]
                else:
                    transforms = supmvlfl_solve(train.views, labels, beta)[0]
                for k, transform in enumerate(transforms):
                    ranking = score_features(transform)
                    for p in p_grid:
                        selected = select_top(ranking, p)
                        expected.append(lstsq_accuracy(
                            train.views[k][:, selected], train.labels,
                            val.views[k][:, selected], val.labels))
        rows = run_grid((method,), dataset, folds, beta_grid, p_grid,
                        default_hyper(dataset), seed=0)
        assert [row.accuracy for row in rows] == expected


# ---------------------------------------------------------------------------
# grid runner


def test_run_grid_row_count_and_determinism():
    dataset = small_dataset(seed=3)
    folds = make_folds(dataset, 3, seed=0)
    beta_grid = [0.01, 0.1]
    p_grid = [20.0, 50.0, 100.0]
    hyper = default_hyper(dataset)
    rows = run_grid(("supmvlfl",), dataset, folds, beta_grid, p_grid, hyper, seed=0)
    assert len(rows) == 3 * 2 * 2 * 3  # folds x betas x participants x p
    again = run_grid(("supmvlfl",), dataset, folds, beta_grid, p_grid, hyper, seed=0)
    assert rows == again
    for row in rows:
        assert row.method == "supmvlfl"
        assert 0.0 <= row.accuracy <= 1.0


@pytest.mark.parametrize("methods", [
    pytest.param(("supfl",), id="supfl"),
    pytest.param(("supmvlfl",), id="supmvlfl"),
    # every method shares each fold's splits and scorers
    pytest.param(("supfl", "supmvlfl"), id="supfl,supmvlfl"),
    # mmvfl cells train on the scorers' XᵀX too
    pytest.param(("mmvfl",), id="mmvfl"),
    pytest.param(("mmvfl", "supfl", "supmvlfl"), id="mmvfl,supfl,supmvlfl"),
])
def test_run_grid_builds_one_gram_per_fold_and_view(methods, monkeypatch):
    dataset = small_dataset(seed=3)
    folds = make_folds(dataset, 3, seed=0)
    builds = []
    gram_matrix = optimizer.gram_matrix

    def counted(features):
        builds.append(np.shape(features))
        return gram_matrix(features)

    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep called an entry point that checks its inputs")

    for module in (optimizer, baselines, evaluation):
        monkeypatch.setattr(module, "gram_matrix", counted)
    # wherever the sweep might look the entry points up
    for module in (optimizer, baselines, evaluation):
        for name in ("supfl_solve", "supmvlfl_solve", "run_reference", "make_states",
                     "_check_inputs"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    restricts = []
    restrict = type(dataset).restrict

    def counted_restrict(self, indices):
        restricts.append(len(indices))
        return restrict(self, indices)

    monkeypatch.setattr(type(dataset), "restrict", counted_restrict)
    rows = run_grid(methods, dataset, folds, [0.01, 0.1], [50.0, 100.0],
                    default_hyper(dataset), seed=0)
    assert len(rows) == len(methods) * 3 * 2 * 2 * 2
    assert len(builds) == folds.num_folds * dataset.num_participants
    assert len(restricts) == 2 * folds.num_folds


def test_run_grid_singleton_grids():
    dataset = small_dataset(seed=4)
    folds = make_folds(dataset, 3, seed=1)
    rows = run_grid(("supfl",), dataset, folds, [0.1], [100.0], default_hyper(dataset), seed=0)
    assert len(rows) == 3 * 1 * 2 * 1
    assert {row.p for row in rows} == {100.0}


def test_run_grid_covers_all_methods(monkeypatch):
    dataset = small_dataset(seed=5)
    folds = make_folds(dataset, 3, seed=2)
    hyper = default_hyper(dataset, outer_max=5)
    rows = run_grid(("mmvfl", "supfl", "supmvlfl"), dataset, folds, [0.1], [50.0], hyper)
    assert [row.method for row in rows] == ["mmvfl"] * 6 + ["supfl"] * 6 + ["supmvlfl"] * 6

    def forbidden(*_):
        raise AssertionError("a scorer was built")

    monkeypatch.setattr(evaluation, "_SplitScorer", forbidden)
    # a string or a flag is neither a beta nor a p, refused before any fit
    for beta_grid, p_grid in ((["0.1"], [50.0]), ([True], [50.0]),
                              ([0.1], ["50"]), ([0.1], [True]), ([0.1], ["1e2"])):
        with pytest.raises(TypeError):
            run_grid(("supfl",), dataset, folds, beta_grid, p_grid, hyper)
    with pytest.raises(ValueError):
        run_grid(("supfl",), dataset, folds, [0.1], [0.0], hyper)
    for methods in (("ridge",), ("supfl", "ridge"), ()):
        with pytest.raises(ValueError):
            run_grid(methods, dataset, folds, [0.1], [50.0], hyper)
    with pytest.raises(ValueError):
        run_grid(("supfl",), dataset, folds, [], [50.0], hyper)
    with pytest.raises(ValueError):
        # one consensus penalty per participant
        run_grid(("supfl",), dataset, folds, [0.1], [50.0], Hyperparams.uniform(3))


def test_run_grid_rows_are_method_major_and_match_one_method_runs():
    # (6, 260): the mmvfl steps factor a lent XᵀX wider than CHOLESKY_TILE
    # in tiles before the supfl fits and the scorer read it
    for dims in ((6, 5), (6, numerics.CHOLESKY_TILE + 4)):
        dataset = small_dataset(seed=8, dims=dims)
        folds = make_folds(dataset, 3, seed=5)
        hyper = default_hyper(dataset, consensus_penalty=10.0, outer_max=8)
        methods = ("supmvlfl", "mmvfl", "supfl")
        rows = run_grid(methods, dataset, folds, [0.01, 1.0], [50.0, 100.0], hyper, seed=3)
        alone = [row for method in methods
                 for row in run_grid((method,), dataset, folds, [0.01, 1.0], [50.0, 100.0],
                                     hyper, seed=3)]
        assert rows == alone, dims


def test_a_one_view_mmvfl_sweep_fails_before_any_scorer_is_built(monkeypatch):
    dataset = small_dataset(seed=8)
    one_view = MultiViewDataset(views=dataset.views[:1], labels=dataset.labels)
    args = (one_view, make_folds(one_view, 3, seed=5), [0.1], [50.0],
            default_hyper(one_view))
    assert run_grid(("supfl",), *args)

    def forbidden(*_):
        raise AssertionError("a scorer was built")

    monkeypatch.setattr(evaluation, "_SplitScorer", forbidden)
    with pytest.raises(ValueError, match="^need at least two participants$"):
        run_grid(("supfl", "mmvfl"), *args)


def test_run_grid_trains_mmvfl_cells_on_the_run_hyperparams(monkeypatch):
    dataset = small_dataset(seed=9)
    folds = make_folds(dataset, 3, seed=6)
    hyper = default_hyper(dataset, consensus_penalty=50.0, label_penalty=20.0,
                          outer_tol=1e-3, outer_max=1)
    seen = []
    train_states = evaluation.train_states

    def recorded(states, cell, seed):
        seen.append((cell, seed))
        result = train_states(states, cell, seed)
        assert result.rounds == 1
        return result

    monkeypatch.setattr(evaluation, "train_states", recorded)
    beta_grid = [0.01, 1.0]
    rows = run_grid(("mmvfl", "supfl"), dataset, folds, beta_grid, [50.0], hyper, seed=4)
    assert [seed for _, seed in seen] == [derive_seed(4, fold, b)
                                          for fold in range(3) for b in range(2)]
    assert [cell for cell, _ in seen] == [replace(hyper, sparsity=(beta,) * 2)
                                          for _ in range(3) for beta in beta_grid]
    # outer_tol compares two rounds' objectives, so a one-round run stops
    # at outer_max; the baseline fits meet TOL well inside MAX_ITER
    assert {row.converged for row in rows if row.method == "mmvfl"} == {False}
    assert {row.converged for row in rows if row.method == "supfl"} == {True}


def test_run_grid_baseline_cells_that_stop_at_max_iter_are_not_converged(monkeypatch):
    dataset = small_dataset(seed=9)
    folds = make_folds(dataset, 3, seed=6)
    args = (("supfl", "supmvlfl"), dataset, folds, [0.01, 1.0], [50.0, 100.0],
            default_hyper(dataset))
    rows = run_grid(*args)
    assert {row.converged for row in rows} == {True}
    # the limit is read when each fit runs; one step never meets TOL
    monkeypatch.setattr(baselines, "MAX_ITER", 1)
    limited = run_grid(*args)
    assert {row.converged for row in limited} == {False}


def test_run_grid_mmvfl_cells_are_the_same_on_one_cpu_and_start_no_thread(monkeypatch):
    # training splits large enough that each round's refits are shared
    # with the helper thread of run_grid's scope
    dataset, _ = synth_planted(num_participants=2, num_classes=3, num_samples=400,
                               dims=(240, 200), n_informative=4, seed=12)
    folds = make_folds(dataset, 2, seed=3)
    assert optimizer._share_refits(200, 3, (240, 200))
    hyper = default_hyper(dataset, outer_max=4)
    trained = []
    train_states = evaluation.train_states

    def recorded(*args):
        result = train_states(*args)
        trained.append([w.tobytes() for w in result.transforms])
        return result

    refit_threads = set()
    participant_round = optimizer.participant_round

    def refit(*args):
        refit_threads.add(threading.current_thread().name)
        return participant_round(*args)

    monkeypatch.setattr(evaluation, "train_states", recorded)
    monkeypatch.setattr(optimizer, "participant_round", refit)
    before = threading.active_count()
    sweeps = []
    for cpus in (None, 1):
        with monkeypatch.context() as patch:
            if cpus is not None:
                patch.setattr(numerics, "_usable_cpus", lambda: cpus)
            rows = run_grid(("mmvfl",), dataset, folds, [0.01, 0.1], [25.0, 50.0], hyper, seed=2)
        assert threading.active_count() == before
        sweeps.append(([repr(row) for row in rows], trained[:]))
        trained.clear()
    assert len(sweeps[0][1]) == 2 * 2
    assert sweeps[0] == sweeps[1]
    # every refit ran on the calling thread or on the scope's one helper
    assert refit_threads <= {threading.current_thread().name, "mmvfl-tiles"}


# ---------------------------------------------------------------------------
# reductions


def row(method="m", participant=0, p=10.0, fold=0, beta=0.1, accuracy=0.5):
    return ExperimentResult(method=method, participant=participant, p=p,
                            fold=fold, beta=beta, accuracy=accuracy, converged=True)


def test_select_best_takes_max_over_beta():
    rows = [row(beta=0.1, accuracy=0.4), row(beta=1.0, accuracy=0.9),
            row(beta=10.0, accuracy=0.7)]
    best = select_best(rows)
    assert len(best) == 1
    assert best[0].beta == 1.0


def test_select_best_tie_keeps_first_listed_weight():
    rows = [row(beta=0.1, accuracy=0.8), row(beta=1.0, accuracy=0.8)]
    assert select_best(rows)[0].beta == 0.1


def test_select_best_dominates_every_grid_point():
    dataset = small_dataset(seed=6)
    folds = make_folds(dataset, 3, seed=3)
    rows = run_grid(("supfl",), dataset, folds, [1e-3, 0.1, 10.0], [50.0, 100.0],
                    default_hyper(dataset), seed=0)
    best = {(r.participant, r.p, r.fold): r.accuracy for r in select_best(rows)}
    for r in rows:
        assert best[(r.participant, r.p, r.fold)] >= r.accuracy


def test_mean_curves_average_and_order_independence():
    rows = [row(fold=0, accuracy=0.25), row(fold=1, accuracy=0.5),
            row(fold=2, accuracy=0.75),
            row(participant=1, fold=0, accuracy=1.0),
            row(participant=1, fold=1, accuracy=0.0),
            row(participant=1, fold=2, accuracy=0.5)]
    curves = mean_curves(rows)
    assert curves == [
        MeanAccuracy(method="m", participant=0, p=10.0, accuracy=0.5),
        MeanAccuracy(method="m", participant=1, p=10.0, accuracy=0.5),
    ]
    shuffled = rows[:]
    random.Random(0).shuffle(shuffled)
    assert mean_curves(shuffled) == curves


# ---------------------------------------------------------------------------
# difference tables


def curves_from(values_by_participant, p_grid=(10.0, 50.0)):
    out = []
    for k, value in enumerate(values_by_participant):
        for p in p_grid:
            out.append(MeanAccuracy(method="x", participant=k, p=p,
                                    accuracy=value))
    return out


def test_diff_table_identical_inputs_give_zeros():
    curves = curves_from([0.3, 0.6, 0.9])
    table = diff_table(curves, curves)
    assert table.differences == (0.0, 0.0, 0.0)
    assert table.average == 0.0


def test_diff_table_antisymmetry_is_exact():
    a = curves_from([0.31, 0.62, 0.93])
    b = curves_from([0.44, 0.55, 0.66])
    forward = diff_table(a, b)
    backward = diff_table(b, a)
    assert forward.differences == tuple(-d for d in backward.differences)
    assert forward.average == -backward.average


def test_diff_table_rejects_mismatched_grids():
    a = curves_from([0.5, 0.5])
    b = curves_from([0.5, 0.5], p_grid=(10.0, 60.0))
    with pytest.raises(GridMismatchError):
        diff_table(a, b)
    with pytest.raises(GridMismatchError):
        diff_table([], [])


def test_format_cell_frozen_cases():
    assert format_cell(-1.2049999999999998) == "-1.21"
    assert format_cell(1.416) == "1.42"
    assert format_cell(2.308) == "2.31"
    assert format_cell(-0.875) == "-0.88"
    assert format_cell(2.675) == "2.68"
    assert format_cell(0.0) == "0.00"
    assert format_cell(6.48) == "6.48"
    assert format_cell(-6.29) == "-6.29"


def test_render_diff_table_layout():
    table = diff_table(curves_from([0.35, 0.50]), curves_from([0.30, 0.52]))
    text = render_diff_table(table)
    assert text == ("participant_1,participant_2,average\n"
                    "5.00,-2.00,1.50\n")


REPORTED_GAPS = {
    # per-participant accuracy gaps in percentage points, and the printed
    # average for each comparison row
    "handwritten_vs_supfl": ((1.46, -2.39, 0.76, 6.48, 0.77), "1.42"),
    "handwritten_vs_supmvlfl": ((1.99, -2.31, 1.03, 9.67, 1.16), "2.31"),
    "object_images_vs_supfl": ((0.69, 2.16, 1.55, -1.22, -6.29, -4.12), "-1.21"),
    "object_images_vs_supmvlfl": ((0.41, 2.82, 2.61, -1.18, -5.71, -4.20), "-0.88"),
}


def test_reported_comparison_rows_render_exactly():
    for name, (gaps, printed_average) in REPORTED_GAPS.items():
        ours = curves_from([g / 100.0 for g in gaps], p_grid=(10.0,))
        theirs = curves_from([0.0] * len(gaps), p_grid=(10.0,))
        table = diff_table(ours, theirs)
        rendered = render_diff_table(table).splitlines()[1].split(",")
        assert rendered[:-1] == [format_cell(g) for g in gaps], name
        assert rendered[:-1] == [f"{g:.2f}" for g in gaps], name
        assert rendered[-1] == printed_average, name


# ---------------------------------------------------------------------------
# persistence


def test_results_csv_roundtrip(tmp_path):
    rows = [row(method="supfl", participant=1, p=12.5, fold=2, beta=1e-05,
                accuracy=0.8125),
            row(accuracy=1 / 3)]
    path = tmp_path / "results.csv"
    write_results_csv(rows, path)
    assert read_results_csv(path) == rows


def test_results_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("alpha,beta\n1,2\n")
    with pytest.raises(ValueError):
        read_results_csv(path)
