"""Shared builders for the test suite."""

import numpy as np

from cenrank.cohort import Censored, Cohort, DesignSet, Event, SubjectSeries, Windows


def random_design(rng, T, P, n_complete, n_censored, noise=1.0):
    """A random design with labels from a planted full-rank linear model."""
    d = T * P
    Xc = rng.standard_normal((d, n_complete))
    Xz = rng.standard_normal((d, n_censored))
    theta = rng.standard_normal(d)
    b = rng.standard_normal()
    yc = Xc.T @ theta + b + noise * rng.standard_normal(n_complete)
    yz = Xz.T @ theta + b + noise * rng.standard_normal(n_censored)
    return DesignSet(Xc, yc, Xz, yz, T, P)


def make_windows(xs, y=1.0, censored=False, subject_ids=None):
    """A `Windows` set over a copy of the n x T x P windows `xs`, stacked in order as its day rows.

    No two windows share a row, and every window ends on day T. `y` and
    `censored` are one value for all windows or one per window; subject ids
    default to S0, S1, ...
    """
    xs = np.array(xs, dtype=float)
    n, T, P = xs.shape
    return Windows(
        days=xs.reshape(n * T, P),
        T=T,
        start=np.arange(n) * T,
        y=np.array(np.broadcast_to(y, n), dtype=float),
        censored=np.array(np.broadcast_to(censored, n), dtype=bool),
        subject_id=np.array([f"S{i}" for i in range(n)] if subject_ids is None else subject_ids, dtype=object),
        end_day=np.full(n, T),
    )


def excess_sv_ratio(w, r):
    """sigma_{r+1} / sigma_1 of w, by np.linalg.svd; 0 when w has no (r+1)-th singular value or is 0."""
    sv = np.linalg.svd(w, compute_uv=False)
    return float(sv[r:].max(initial=0.0) / sv[0]) if sv[0] > 0 else 0.0


def tiny_cohort():
    """Two hand-built subjects: one event (onset day 7), one censored."""
    values_a = np.arange(10.0).reshape(5, 2) + 1.0
    a = SubjectSeries("A", 1, values_a, Event(onset_day=7))
    values_b = np.arange(12.0).reshape(6, 2) * 0.5
    values_b[2, 1] = np.nan
    b = SubjectSeries("B", 1, values_b, Censored(horizon_day=6))
    return Cohort(subjects=[a, b], variables=["v01", "v02"])


def write_cohort_files(tmp_path, observations, outcomes, variables):
    """Write raw CSV/text inputs and return their paths."""
    obs = tmp_path / "observations.csv"
    obs.write_text("subject_id,day,variable,value\n" + "".join(f"{r}\n" for r in observations))
    out = tmp_path / "outcomes.csv"
    out.write_text("subject_id,ssi,onset_day,last_obs_day\n" + "".join(f"{r}\n" for r in outcomes))
    dic = tmp_path / "variables.txt"
    dic.write_text("".join(f"{v}\n" for v in variables))
    return obs, out, dic
