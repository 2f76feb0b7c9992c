"""Censored low-rank time-to-event regression on sliding-window matrices."""

from .baselines import ols_fit, svr_fit
from .cohort import (
    Cohort,
    DesignSet,
    SubjectSeries,
    WindowSample,
    Windows,
    assemble_design,
    extract_windows,
    load_cohort,
    split_folds,
    unvectorize,
    vectorize,
    write_cohort,
)
from .evaluation import (
    CvEntry,
    CvReport,
    Grid,
    coefficient_report,
    cross_validate,
    mae,
    onset_distribution,
)
from .imputation import (
    BmcImputer,
    BmcModel,
    KnnImputer,
    MeanImputer,
    bmc_fit,
    compute_bounds,
)
from .modelio import load_imputer, load_model, save_imputer, save_model
from .solver import (
    ModelParams,
    SolveReport,
    SolverOptions,
    factorize,
    fit_pgd,
    gradient,
    objective,
    project_rank,
)
from .synthetic import PlantedTruth, SyntheticSpec, generate_cohort, generate_lowrank_matrix, oracle_ols

__version__ = "0.1.0"
