"""Feature ranking and top-percent selection."""

import numpy as np
import pytest

from mmvfl.featsel import FeatureRanking, score_features, select_top

from oracles import fraction_top_count, sort_ranking


def test_score_features_direct_norms():
    ranking = score_features(np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]]))
    assert np.allclose(ranking.scores, [5.0, 0.0, 1.0])
    assert ranking.order.tolist() == [0, 2, 1]


def test_equal_rows_tie_break_to_earlier_index():
    w = np.array([[1.0, 1.0], [2.0, 0.0], [1.0, 1.0]])
    ranking = score_features(w)
    assert ranking.order.tolist() == [1, 0, 2]


def test_ranking_matches_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.standard_normal((50, 7))
        ranking = score_features(w)
        assert ranking.order.tolist() == sort_ranking(ranking.scores)


def test_ranking_is_scale_invariant():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((30, 4))
    base = score_features(w)
    scaled = score_features(3.7 * w)
    assert base.order.tolist() == scaled.order.tolist()


def test_select_top_pinned_counts():
    rng = np.random.default_rng(2)
    ranking_64 = score_features(rng.standard_normal((64, 3)))
    assert select_top(ranking_64, 10).shape[0] == 7  # ceil of 6.4
    ranking_1984 = score_features(rng.standard_normal((1984, 2)))
    assert select_top(ranking_1984, 2).shape[0] == 40  # ceil of 39.68
    assert select_top(ranking_64, 100).shape[0] == 64


def test_select_top_counts_match_exact_rational_oracle():
    rng = np.random.default_rng(3)
    grid = [2, 4, 6, 8, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 2.5, 12.5, 33.5]
    for _ in range(200):
        d = int(rng.integers(1, 400))
        p = float(grid[int(rng.integers(len(grid)))])
        ranking = FeatureRanking(scores=rng.uniform(0, 1, size=d),
                                 order=np.argsort(-rng.uniform(0, 1, size=d)))
        got = select_top(ranking, p).shape[0]
        assert got == fraction_top_count(d, p), (d, p)


def test_select_top_returns_ranking_prefix_and_nests():
    rng = np.random.default_rng(4)
    ranking = score_features(rng.standard_normal((40, 3)))
    previous = None
    for p in (2, 10, 25, 50, 100):
        selected = select_top(ranking, p)
        assert np.array_equal(selected, ranking.order[: selected.shape[0]])
        if previous is not None:
            assert set(previous.tolist()) <= set(selected.tolist())
        previous = selected


def test_select_top_always_keeps_at_least_one():
    rng = np.random.default_rng(5)
    ranking = score_features(rng.standard_normal((9, 2)))
    assert select_top(ranking, 0.5).shape[0] == 1


def test_select_top_rejects_bad_percent():
    ranking = score_features(np.ones((4, 2)))
    for bad in (0.0, -3.0, 101.0):
        with pytest.raises(ValueError):
            select_top(ranking, bad)
    for bad in ("50", True, None):
        with pytest.raises(TypeError):
            select_top(ranking, bad)
