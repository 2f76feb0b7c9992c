"""Shared builders for the test suite."""

import numpy as np

from cenrank.cohort import Cohort, DesignSet, Windows, assemble_design


def stacked_design(Xc, yc, Xz, yz, T, P):
    """The design of the complete columns Xc (labels yc) followed by the censored columns Xz (labels yz)."""
    return DesignSet(np.hstack([Xc, Xz]), np.concatenate([np.asarray(yc, float), np.asarray(yz, float)]),
                     np.arange(Xc.shape[1] + Xz.shape[1]) >= Xc.shape[1], T, P)


def halves(design):
    """(X_c, y_c, X_z, y_z): the design's complete and censored columns and labels, read through its mask."""
    c = design.censored
    return design.X[:, ~c], design.y[~c], design.X[:, c], design.y[c]


def random_design(rng, T, P, n_c, n_z, noise=1.0):
    """A random design with labels from a planted full-rank linear model, its complete samples first."""
    d = T * P
    Xc = rng.standard_normal((d, n_c))
    Xz = rng.standard_normal((d, n_z))
    theta = rng.standard_normal(d)
    b = rng.standard_normal()
    yc = Xc.T @ theta + b + noise * rng.standard_normal(n_c)
    yz = Xz.T @ theta + b + noise * rng.standard_normal(n_z)
    return stacked_design(Xc, yc, Xz, yz, T, P)


def null_space_windows(rng, n, T, P=10, day_rank=3):
    """n x T x P windows whose day rows all lie in one random day_rank-dimensional subspace S of R^P.

    Also returns N = I_T (x) S_perp, an orthonormal basis of the weights no
    window sees: N' vec(x) = 0 for every window, vec row by row as in
    `vectorize`.
    """
    Q = np.linalg.qr(rng.standard_normal((P, P)))[0]
    xs = rng.standard_normal((n, T, day_rank)) @ Q[:, :day_rank].T
    return xs, np.kron(np.eye(T), Q[:, day_rank:])


def null_space_problem(rng, T, n_train=150, n_test=20):
    """A training design and test windows from `null_space_windows`, plus the test windows moved along N.

    Labels are 20 + <x, w> + unit noise for a random w; every third
    training window is censored two days before its label. The moved
    windows are shifted along N by ten times a standard normal draw.
    Returns (design, test, moved, N).
    """
    n = n_train + n_test
    xs, N = null_space_windows(rng, n, T)
    y = 20.0 + xs.reshape(n, -1) @ rng.standard_normal(N.shape[0]) + rng.standard_normal(n)
    train, test = xs[:n_train], xs[n_train:]
    censored = np.arange(n_train) % 3 == 0
    design = assemble_design(make_windows(train, y[:n_train] - 2.0 * censored, censored))
    shift = (10.0 * rng.standard_normal((n_test, N.shape[1])) @ N.T).reshape(test.shape)
    return design, make_windows(test), make_windows(test + shift), N


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


def make_cohort(subjects, variables):
    """A `Cohort` over `variables` from (subject_id, first_day, values, event, outcome_day) tuples.

    Each subject's D x P values are copied into the day-row array, in order.
    """
    ids, first_day, values, event, outcome_day = zip(*subjects) if subjects else ((),) * 5
    return Cohort(
        variables=list(variables),
        days=np.concatenate([np.empty((0, len(variables))), *(np.asarray(v, dtype=float) for v in values)]),
        subject_id=np.array(ids, dtype=object),
        first_day=np.array(first_day, dtype=np.int64),
        start=np.cumsum([0, *map(len, values)], dtype=np.int64),
        event=np.array(event, dtype=bool),
        outcome_day=np.array(outcome_day, dtype=float),
    )


def tiny_cohort():
    """Two hand-built subjects: one event (onset day 7), one censored."""
    values_a = np.arange(10.0).reshape(5, 2) + 1.0
    values_b = np.arange(12.0).reshape(6, 2) * 0.5
    values_b[2, 1] = np.nan
    return make_cohort([("A", 1, values_a, True, 7), ("B", 1, values_b, False, 6)], ["v01", "v02"])


def write_cohort_files(tmp_path, observations, outcomes, variables):
    """Write raw CSV/text inputs and return their paths."""
    obs = tmp_path / "observations.csv"
    obs.write_text("subject_id,day,variable,value\n" + "".join(f"{r}\n" for r in observations))
    out = tmp_path / "outcomes.csv"
    out.write_text("subject_id,ssi,onset_day,last_obs_day\n" + "".join(f"{r}\n" for r in outcomes))
    dic = tmp_path / "variables.txt"
    dic.write_text("".join(f"{v}\n" for v in variables))
    return obs, out, dic
