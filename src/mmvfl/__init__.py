"""Multi-participant multi-class vertical federated learning.

Participants share samples but hold disjoint feature blocks; one of them
owns the labels.  Training aligns local pseudo-labels through a shared
consensus matrix while a row-sparsity penalty turns each participant's
transformation matrix into a feature-importance ranking.  The package
also ships the round-based federation simulator, supervised baselines,
and the experiment harness around them.
"""

from .baselines import supfl_solve, supmvlfl_solve
from .data import (
    ClassTooSmallError,
    FoldPlan,
    MultiViewDataset,
    ParseError,
    RowCountMismatchError,
    load_csv,
    make_folds,
    save_csv,
    synth_planted,
)
from .evaluation import (
    DegenerateInputError,
    DiffTable,
    ExperimentResult,
    GridMismatchError,
    MeanAccuracy,
    classify_eval,
    diff_table,
    mean_curves,
    read_results_csv,
    run_grid,
    select_best,
    write_results_csv,
)
from .featsel import FeatureRanking, score_features, select_top
from .numerics import (
    NotPositiveDefiniteError,
    derive_seed,
    frobenius_norm_sq,
    l21_norm,
    random_orthonormal,
)
from .optimizer import (
    DimensionMismatchError,
    Hyperparams,
    NonDecreasingObjectiveError,
    ParticipantState,
    ProblemShape,
    TrainingResult,
    one_hot,
    run_reference,
)

__version__ = "0.1.0"

__all__ = [
    "supfl_solve",
    "supmvlfl_solve",
    "ClassTooSmallError",
    "FoldPlan",
    "MultiViewDataset",
    "ParseError",
    "RowCountMismatchError",
    "load_csv",
    "make_folds",
    "save_csv",
    "synth_planted",
    "DegenerateInputError",
    "DiffTable",
    "ExperimentResult",
    "GridMismatchError",
    "MeanAccuracy",
    "classify_eval",
    "diff_table",
    "mean_curves",
    "read_results_csv",
    "run_grid",
    "select_best",
    "write_results_csv",
    "FeatureRanking",
    "score_features",
    "select_top",
    "NotPositiveDefiniteError",
    "derive_seed",
    "frobenius_norm_sq",
    "l21_norm",
    "random_orthonormal",
    "DimensionMismatchError",
    "Hyperparams",
    "NonDecreasingObjectiveError",
    "ParticipantState",
    "ProblemShape",
    "TrainingResult",
    "one_hot",
    "run_reference",
    "__version__",
]
