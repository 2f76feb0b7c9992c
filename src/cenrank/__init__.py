"""Censored low-rank time-to-event regression on sliding-window matrices."""

from .baselines import SvrOptions, ols_fit, svr_fit
from .cohort import (
    Censored,
    Cohort,
    DesignSet,
    Event,
    SubjectSeries,
    WindowSample,
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
    grid_report,
    mae,
    onset_distribution,
)
from .imputation import (
    BmcImputer,
    BmcModel,
    ImputationMatrix,
    KnnImputer,
    MeanImputer,
    bmc_fit,
    compute_bounds,
    impute_new,
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
