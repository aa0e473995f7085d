"""Dataset IO, fold planning, and the planted-feature generator."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mmvfl.cli import _write_training_outputs
from mmvfl.data import (
    ClassTooSmallError,
    MultiViewDataset,
    ParseError,
    RowCountMismatchError,
    _parse_view,
    load_csv,
    make_folds,
    save_csv,
    synth_planted,
)

from oracles import pinv_accuracy


def write_dataset_files(tmp_path, views, labels, stem="v"):
    paths = []
    for k, view in enumerate(views):
        path = tmp_path / f"{stem}{k}.csv"
        with open(path, "w", encoding="utf-8") as handle:
            for row in view:
                handle.write(",".join(format(v, ".17g") for v in row) + "\n")
        paths.append(str(path))
    label_path = tmp_path / f"{stem}_labels.csv"
    with open(label_path, "w", encoding="utf-8") as handle:
        for label in labels:
            handle.write(f"{int(label)}\n")
    return paths, str(label_path)


def integer_survey_dataset(rng, dims, samples_per_class, num_classes):
    """Integer-valued views (fast to serialize and parse exactly)."""
    n = samples_per_class * num_classes
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    views = [rng.integers(-9, 10, size=(n, d)).astype(np.float64) for d in dims]
    return views, labels


# ---------------------------------------------------------------------------
# loading


def test_load_handwritten_shaped_input(tmp_path):
    rng = np.random.default_rng(0)
    dims = (240, 76, 216, 47, 64)
    views, labels = integer_survey_dataset(rng, dims, 160, 10)
    paths, label_path = write_dataset_files(tmp_path, views, labels)
    dataset = load_csv(paths, label_path)
    assert dataset.num_participants == 5
    assert dataset.dims == dims
    assert dataset.num_classes == 10
    assert np.all(np.bincount(dataset.labels, minlength=dataset.num_classes) == 160)
    assert dataset.num_samples == 1600


def test_load_caltech_shaped_input(tmp_path):
    rng = np.random.default_rng(1)
    dims = (48, 40, 254, 1984, 912, 528)
    views, labels = integer_survey_dataset(rng, dims, 25, 7)
    paths, label_path = write_dataset_files(tmp_path, views, labels)
    dataset = load_csv(paths, label_path)
    assert dataset.num_participants == 6
    assert dataset.dims == dims
    assert dataset.num_classes == 7
    assert np.all(np.bincount(dataset.labels, minlength=dataset.num_classes) == 25)


def test_parse_error_names_the_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,oops,6\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n")
    with pytest.raises(ParseError) as err:
        load_csv([str(path)], str(labels))
    assert err.value.row == 2
    assert err.value.col == 2
    assert "oops" in str(err.value)


def test_parse_error_on_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n")
    with pytest.raises(ParseError) as err:
        load_csv([str(path)], str(labels))
    assert err.value.row == 2
    assert err.value.col == 3


def test_parse_error_on_non_finite(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1,inf\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n")
    with pytest.raises(ParseError) as err:
        load_csv([str(path)], str(labels))
    assert err.value.row == 1 and err.value.col == 2


def test_parse_error_on_bad_label(tmp_path):
    view = tmp_path / "v.csv"
    view.write_text("1,2\n3,4\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0\ntwo\n")
    with pytest.raises(ParseError) as err:
        load_csv([str(view)], str(labels))
    assert err.value.row == 2


def test_parse_error_on_invalid_utf8(tmp_path):
    view = tmp_path / "v.csv"
    view.write_bytes(b"1,2\n3,\xff\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n")
    with pytest.raises(ParseError) as err:
        load_csv([str(view)], str(labels))
    assert (err.value.row, err.value.col) == (2, 2)
    view.write_text("1,2\n3,4\n")
    labels.write_bytes(b"0\n\xff\n")
    with pytest.raises(ParseError) as err:
        load_csv([str(view)], str(labels))
    assert (err.value.row, err.value.col) == (2, 1)


def test_parse_error_on_label_beyond_int64(tmp_path):
    view = tmp_path / "v.csv"
    view.write_text("1,2\n3,4\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n99999999999999999999999\n")
    with pytest.raises(ParseError) as err:
        load_csv([str(view)], str(labels))
    assert (err.value.row, err.value.col) == (2, 1)


_VIEW_TEXT = "0123456789,.-+eE \r\nnaif_\xff"
_LABEL_TEXT = "0123456789-+ \r\n_"


def _file_bytes(alphabet):
    piece = st.binary(max_size=8) | st.text(alphabet, max_size=12).map(str.encode)
    return st.lists(piece, max_size=8).map(b"".join)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(view_bytes=_file_bytes(_VIEW_TEXT), label_bytes=_file_bytes(_LABEL_TEXT))
def test_load_arbitrary_bytes_raises_only_parse_errors(tmp_path, view_bytes, label_bytes):
    view = tmp_path / "v.csv"
    view.write_bytes(view_bytes)
    labels = tmp_path / "labels.csv"
    labels.write_bytes(label_bytes)
    try:
        dataset = load_csv([str(view)], str(labels))
    except (ParseError, RowCountMismatchError):
        return
    assert dataset.num_samples == dataset.labels.shape[0]


# "\x1c" and "\x1f" are whitespace to numpy's float parser but not to float()
_CSV_TOKENS = list("0123456789.e+-_, \t\n\r#\"\x1c\x1f") + ["nan", "inf", "\u0661", "\uff11"]


def _outcome(read):
    try:
        array = read()
    except ParseError as err:
        return str(err), err.row, err.col
    return array.shape, array.tobytes()


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(view_bytes=st.lists(st.sampled_from(_CSV_TOKENS), max_size=40).map(
    lambda tokens: "".join(tokens).encode("utf-8")))
@example(view_bytes=b"#comment\n1,2\n")
@example(view_bytes=b"1,2#x\n")
@example(view_bytes=b" \n")
@example(view_bytes=b"1\n \n2\n")
@example(view_bytes=b"1,2\n \n3,4\n")
@example(view_bytes=b"1,2\n\t\n3,4\n")
@example(view_bytes=b"\xef\xbb\xbf1,2\n")
@example(view_bytes=b'"1",2\n')
@example(view_bytes=b"1,2,\n")
@example(view_bytes=b"1,\x002\n")
@example(view_bytes=b"1,\xff\n")
@example(view_bytes=b"nan,1\n")
@example(view_bytes=b"1,inf\n")
@example(view_bytes=b"Infinity\n")
@example(view_bytes=b"1e500\n")
@example(view_bytes=b"1_0\n")
@example(view_bytes="\u0661,2\n".encode("utf-8"))
@example(view_bytes="\uff11\n".encode("utf-8"))
@example(view_bytes=b"1,2\r3,4\r")
@example(view_bytes=b"1,2\r\n3,4\r\n")
@example(view_bytes=b"-0,0\n")
@example(view_bytes=b"1e-400,5e-324\n")
@example(view_bytes=b"1\x1c\n")
@example(view_bytes=b"\x1f1,2\n")
@example(view_bytes=b"")
@example(view_bytes=b"\n\n")
def test_load_matches_the_line_parser(tmp_path, view_bytes):
    """The numpy fast path returns the line parser's array bit for bit,
    or the line parser's located ParseError, and emits no warning."""
    view = tmp_path / "v.csv"
    view.write_bytes(view_bytes)
    expected = _outcome(lambda: _parse_view(view))
    rows = expected[0][0] if isinstance(expected[0], tuple) else 1
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n" * rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _outcome(lambda: load_csv([str(view)], str(labels)).views[0])
    assert got == expected
    assert not caught


def test_row_count_mismatch(tmp_path):
    view = tmp_path / "v.csv"
    view.write_text("1,2\n3,4\n5,6\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n")
    with pytest.raises(RowCountMismatchError):
        load_csv([str(view)], str(labels))


def test_crlf_and_blank_lines_accepted(tmp_path):
    view = tmp_path / "v.csv"
    view.write_bytes(b"1,2\r\n\r\n3,4\r\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n\n1\n")
    dataset = load_csv([str(view)], str(labels))
    assert dataset.num_samples == 2
    assert np.allclose(dataset.views[0], [[1, 2], [3, 4]])


def test_save_load_roundtrip_is_lossless(tmp_path):
    rng = np.random.default_rng(2)
    views = [rng.standard_normal((20, 5)) * 10.0 ** rng.integers(-8, 9),
             rng.standard_normal((20, 3))]
    labels = rng.integers(0, 3, size=20)
    labels[:3] = [0, 1, 2]
    dataset = MultiViewDataset(views=views, labels=labels)
    paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    label_path = str(tmp_path / "y.csv")
    save_csv(dataset, paths, label_path)
    loaded = load_csv(paths, label_path)
    for original, reread in zip(dataset.views, loaded.views):
        assert np.array_equal(original, reread)
    assert np.array_equal(dataset.labels, loaded.labels)
    # and saving the reloaded dataset reproduces the files byte for byte
    paths2 = [str(tmp_path / "a2.csv"), str(tmp_path / "b2.csv")]
    label_path2 = str(tmp_path / "y2.csv")
    save_csv(loaded, paths2, label_path2)
    for p1, p2 in zip(paths + [label_path], paths2 + [label_path2]):
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


_MAX = 1.7976931348623157e308


@pytest.mark.parametrize("matrix, text", [
    ([[-0.0, 5e-324, 0.1, 1 / 3], [_MAX, -_MAX, 1e16, 2.5]],
     "-0,4.9406564584124654e-324,0.10000000000000001,0.33333333333333331\n"
     "1.7976931348623157e+308,-1.7976931348623157e+308,10000000000000000,2.5\n"),
    ([[-0.0, 0.1, 1e16]], "-0,0.10000000000000001,10000000000000000\n"),
    ([[1 / 3], [5e-324], [-_MAX]],
     "0.33333333333333331\n4.9406564584124654e-324\n-1.7976931348623157e+308\n"),
], ids=["n_by_d", "one_row", "one_column"])
def test_matrix_writers_produce_golden_bytes(tmp_path, matrix, text):
    matrix = np.array(matrix)
    n = matrix.shape[0]
    save_csv(MultiViewDataset(views=[matrix], labels=np.arange(n)),
             [str(tmp_path / "v.csv")], str(tmp_path / "y.csv"))
    assert (tmp_path / "v.csv").read_bytes() == text.encode()
    assert (tmp_path / "y.csv").read_bytes() == "".join(f"{i}\n" for i in range(n)).encode()
    outputs = _write_training_outputs(str(tmp_path), [matrix], matrix, [1.0])
    assert outputs == ["transform_1.csv", "consensus.csv", "objective_trace.csv"]
    for name in outputs[:2]:
        assert (tmp_path / name).read_bytes() == text.encode()


def test_dataset_validation_and_restrict():
    with pytest.raises(ValueError):
        MultiViewDataset(views=[np.ones((3, 2)), np.ones((4, 2))],
                         labels=np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        MultiViewDataset(views=[np.ones((3, 2))], labels=np.array([0.5, 1.0, 2.0]))
    dataset = MultiViewDataset(
        views=[np.arange(12, dtype=np.float64).reshape(6, 2)],
        labels=np.array([0, 1, 0, 1, 0, 1]))
    subset = dataset.restrict(np.array([4, 0]))
    assert subset.num_samples == 2
    assert np.allclose(subset.views[0], [[8, 9], [0, 1]])
    assert subset.labels.tolist() == [0, 0]


# ---------------------------------------------------------------------------
# folds


def test_make_folds_counts_for_balanced_classes():
    dataset = MultiViewDataset(
        views=[np.zeros((1600, 2))],
        labels=np.repeat(np.arange(10), 160))
    plan = make_folds(dataset, 5, seed=0)
    for fold in range(5):
        val = plan.val_indices(fold)
        train = plan.train_indices(fold)
        assert val.shape[0] == 320  # 32 per class
        assert train.shape[0] == 1280  # 128 per class
        val_counts = np.bincount(dataset.labels[val], minlength=10)
        assert np.all(val_counts == 32)
        assert np.intersect1d(val, train).size == 0
        assert np.union1d(val, train).size == 1600


def test_make_folds_deterministic_per_seed():
    dataset = MultiViewDataset(
        views=[np.zeros((60, 2))], labels=np.arange(60) % 3)
    a = make_folds(dataset, 5, seed=9)
    b = make_folds(dataset, 5, seed=9)
    assert np.array_equal(a.assignments, b.assignments)
    c = make_folds(dataset, 5, seed=10)
    assert not np.array_equal(a.assignments, c.assignments)


def test_make_folds_uneven_classes_differ_by_at_most_one():
    labels = np.concatenate([np.zeros(17, dtype=np.int64), np.ones(23, dtype=np.int64)])
    dataset = MultiViewDataset(views=[np.zeros((40, 2))], labels=labels)
    plan = make_folds(dataset, 5, seed=1)
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        sizes = np.bincount(plan.assignments[members], minlength=5)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == members.size


def test_make_folds_rejects_small_classes():
    dataset = MultiViewDataset(
        views=[np.zeros((8, 2))],
        labels=np.array([0, 0, 0, 0, 0, 1, 1, 1]))
    with pytest.raises(ClassTooSmallError):
        make_folds(dataset, 5, seed=0)


# ---------------------------------------------------------------------------
# planted synthetic


def test_synth_planted_shapes_and_indices():
    dataset, informative = synth_planted(seed=0)
    assert dataset.num_participants == 3
    assert dataset.dims == (30, 30, 30)
    assert dataset.num_samples == 300
    assert dataset.num_classes == 3
    for cols in informative:
        assert len(cols) == 5
        assert cols == sorted(cols)
        assert all(0 <= c < 30 for c in cols)
        assert len(set(cols)) == 5


def test_synth_planted_noiseless_is_perfectly_separable():
    dataset, informative = synth_planted(noise=0.0, seed=1)
    for k, cols in enumerate(informative):
        block = dataset.views[k][:, cols]
        accuracy = pinv_accuracy(block, dataset.labels, block, dataset.labels,
                                 dataset.num_classes)
        assert accuracy == 1.0


def test_synth_planted_class_means_separated_by_four_sigma():
    noise = 0.5
    dataset, informative = synth_planted(noise=noise, seed=2)
    for k, cols in enumerate(informative):
        for col in cols:
            column = dataset.views[k][:, col]
            means = [column[dataset.labels == c].mean() for c in range(3)]
            # each class holds 100 samples, so the mean is tight
            stderr = noise / np.sqrt(100)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert abs(means[i] - means[j]) >= 4.0 * noise - 6.0 * stderr


def test_synth_planted_no_informative_is_chance_level():
    train, _ = synth_planted(n_informative=0, seed=3)
    fresh, _ = synth_planted(n_informative=0, seed=4)
    accuracy = pinv_accuracy(train.views[0], train.labels,
                             fresh.views[0], fresh.labels, 3)
    chance = 1.0 / 3.0
    sampling = np.sqrt(chance * (1 - chance) / 300)
    assert accuracy <= chance + 3.0 * sampling + 0.05


def test_synth_planted_deterministic_and_seed_sensitive():
    a, ia = synth_planted(seed=5)
    b, ib = synth_planted(seed=5)
    assert ia == ib
    for va, vb in zip(a.views, b.views):
        assert np.array_equal(va, vb)
    c, _ = synth_planted(seed=6)
    assert not np.array_equal(a.views[0], c.views[0])


def test_synth_planted_validation():
    with pytest.raises(ValueError):
        synth_planted(n_informative=40, dims=(30, 30, 30))
    with pytest.raises(ValueError):
        synth_planted(noise=-0.1)
    with pytest.raises(ValueError):
        synth_planted(dims=(30, 30))
