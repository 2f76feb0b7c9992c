"""Synthetic cohorts with planted low-rank structure, censoring and missingness.

The generator plants a known rank-constrained weight matrix and derives
each subject's event time from the model output on the subject's first
window, so refitting at the true rank can recover the signal. Daily
observation vectors come from a low-rank factor model, which is exactly
the structure the bounded-completion imputer assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohort import Cohort, DesignSet
from .errors import DataError
from .solver import ModelParams


@dataclass
class SyntheticSpec:
    n_subjects: int
    days_per_subject: int
    P: int
    T_star: int
    true_rank: int
    noise_sigma: float = 0.0
    censor_horizon: float = 21
    missing_rate: float = 0.0
    latent_rank: int = 3
    seed: int = 0
    round_onsets: bool = False


@dataclass
class PlantedTruth:
    w_star: np.ndarray
    b_star: float


SIGNAL_NORM = 2.0  # Frobenius norm of the planted weight matrix
MAX_INTERCEPT = 15.0


def _validate(spec: SyntheticSpec):
    if spec.true_rank < 1 or spec.true_rank > min(spec.T_star, spec.P):
        raise DataError(f"true_rank {spec.true_rank} must lie in [1, min(T_star, P)]")
    if spec.latent_rank < 1 or spec.latent_rank > spec.P:
        raise DataError(f"latent_rank {spec.latent_rank} must lie in [1, P]")
    if not 0.0 <= spec.missing_rate < 1.0:
        raise DataError("missing_rate must lie in [0, 1)")
    if spec.days_per_subject < spec.T_star:
        raise DataError(f"days_per_subject {spec.days_per_subject} is shorter than T_star {spec.T_star}")
    if spec.n_subjects < 1 or spec.noise_sigma < 0:
        raise DataError("n_subjects must be >= 1 and noise_sigma >= 0")


def generate_lowrank_matrix(n: int, p: int, r: int, seed: int = 0) -> np.ndarray:
    """Product of n x r and r x p standard-normal factors: exact rank r a.s."""
    if r < 1 or r > min(n, p):
        raise ValueError(f"rank {r} must lie in [1, min(n, p)]")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, r)) @ rng.standard_normal((r, p))


def generate_cohort(spec: SyntheticSpec) -> tuple[Cohort, PlantedTruth]:
    """Draw a cohort whose onset times follow a planted rank-r window model.

    Each subject's daily vectors are B alpha_t with a shared P x latent_rank
    basis B scaled to unit per-variable variance. The event time is
    T_star + <first window, w_star> + b_star + noise, clipped so it falls
    at least one day after the window; subjects whose onset exceeds the
    censor horizon become censored, observed through min(days_per_subject,
    horizon) days. Missing cells are set to NaN uniformly at random after the
    onsets are drawn. Identical specs give identical cohorts.
    """
    _validate(spec)
    rng = np.random.default_rng(spec.seed)

    B = rng.standard_normal((spec.P, spec.latent_rank)) / math.sqrt(spec.latent_rank)
    w_raw = rng.standard_normal((spec.T_star, spec.true_rank)) @ rng.standard_normal((spec.true_rank, spec.P))
    w_star = SIGNAL_NORM * w_raw / np.linalg.norm(w_raw)
    b_star = float(min(spec.censor_horizon - spec.T_star - 1.0, MAX_INTERCEPT))

    values, event, outcome_day = [], [], []
    for _ in range(spec.n_subjects):
        coeffs = rng.standard_normal((spec.days_per_subject, spec.latent_rank))
        daily = coeffs @ B.T
        lead = float(np.sum(daily[: spec.T_star] * w_star)) + b_star + rng.normal(0.0, spec.noise_sigma)
        onset = spec.T_star + max(lead, 1.0)
        if spec.round_onsets:
            onset = float(max(round(onset), spec.T_star + 1))
        event.append(onset <= spec.censor_horizon)
        if event[-1]:
            last_day = min(spec.days_per_subject, int(math.ceil(onset)) - 1)
            outcome_day.append(onset)
        else:
            last_day = min(spec.days_per_subject, int(math.floor(spec.censor_horizon)))
            outcome_day.append(float(last_day))
        values.append(np.where(rng.random((last_day, spec.P)) < spec.missing_rate, np.nan, daily[:last_day]))

    n, width = spec.n_subjects, len(str(spec.n_subjects))
    cohort = Cohort([f"v{j + 1:02d}" for j in range(spec.P)], np.concatenate(values),
                    np.array([f"S{i:0{width}d}" for i in range(n)], dtype=object), np.ones(n, dtype=np.int64),
                    np.cumsum([0, *map(len, values)], dtype=np.int64), np.array(event), np.array(outcome_day))
    return cohort, PlantedTruth(w_star=w_star, b_star=b_star)


def oracle_ols(design: DesignSet, ridge: float = 1e-10) -> ModelParams:
    """Normal-equation reference solver, independent of baselines.ols_fit.

    Solves (Z Z' + ridge I) theta = Z y directly, where Z stacks the
    complete design columns over a row of ones. Used as the test oracle.
    """
    complete = ~design.censored
    if not complete.any():
        raise DataError("oracle requires at least one complete sample")
    Z = np.vstack([design.X[:, complete], np.ones((1, int(complete.sum())))])
    H = Z @ Z.T + ridge * np.eye(Z.shape[0])
    theta = np.linalg.solve(H, Z @ design.y[complete])
    return ModelParams.unconstrained(theta, design, 0.0, "ols", {"ridge": ridge})
