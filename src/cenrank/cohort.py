"""Cohort ingestion and sliding-window sample construction.

A cohort is a set of subjects, each carrying a daily observation matrix
(days x variables), NaN where a cell was not recorded, and an outcome:
either the day the event was observed or the horizon up to which the
subject stayed event-free. Windows of T consecutive days become the
regression samples; a window from an event subject is labeled with the
remaining days to onset, a window from an event-free subject with the
remaining days to the censoring horizon. `load_cohort` scatters every observed cell into one
N x P day-row array, ordered subject by subject (in order of first
appearance) and day by day; each subject's values are a slice of it. NaN is
the only marker of a missing cell: the `mask` and `x_mask` properties are
derived from it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import (
    DataError,
    DuplicateRecordError,
    InvalidOnsetError,
    MissingOutcomeError,
    UnimputedSampleError,
    UnknownVariableError,
)


@dataclass(frozen=True)
class Event:
    """Outcome of a subject whose event onset was observed."""

    onset_day: float


@dataclass(frozen=True)
class Censored:
    """Outcome of a subject who stayed event-free through horizon_day."""

    horizon_day: float


Outcome = Event | Censored


@dataclass
class SubjectSeries:
    """One subject's daily observations.

    values is D x P with NaN at unobserved cells, and row t corresponds to
    day first_day + t. The read-only `mask`, True where a measurement was
    recorded, is computed from the NaNs on every access.
    """

    subject_id: str
    first_day: int
    values: np.ndarray
    outcome: Outcome

    @property
    def mask(self) -> np.ndarray:
        return ~np.isnan(self.values)

    @property
    def last_day(self) -> int:
        return self.first_day + self.values.shape[0] - 1


@dataclass
class Cohort:
    subjects: list[SubjectSeries]
    variables: list[str]


@dataclass
class WindowSample:
    """A T x P window with its time-to-event label.

    y = onset_day - window_end_day for complete samples (always > 0);
    y = horizon - window_end_day, clamped at 0, for censored samples.
    x holds NaN at unobserved cells until the window is imputed; the
    read-only `x_mask` is computed from the NaNs on every access.
    """

    x: np.ndarray
    y: float
    censored: bool
    subject_id: str
    window_end_day: int

    @property
    def x_mask(self) -> np.ndarray:
        return ~np.isnan(self.x)


@dataclass
class DesignSet:
    """Vectorized design matrices for the complete and censored groups.

    Columns of X_complete / X_censored are vectorized windows (length T*P),
    in the order the samples were supplied.
    """

    X_complete: np.ndarray
    y_complete: np.ndarray
    X_censored: np.ndarray
    y_censored: np.ndarray
    T: int
    P: int

    @property
    def n_complete(self) -> int:
        return self.X_complete.shape[1]

    @property
    def n_censored(self) -> int:
        return self.X_censored.shape[1]


def load_variable_dictionary(path) -> list[str]:
    """Read the variable dictionary: one name per line, order = column order."""
    names = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            name = line.strip()
            if name:
                names.append(name)
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise UnknownVariableError(f"duplicate variable names in dictionary: {dup}")
    if not names:
        raise DataError(f"variable dictionary is empty: {path}")
    return names


def _read_csv_rows(path, required_cols):
    """(line number, required fields) for each nonblank data row of a CSV file with a header line.

    The fields come in `required_cols` order. A row whose field count
    differs from the header's is a DataError naming the file and line.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in required_cols if c not in header]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        position = {name: i for i, name in enumerate(header)}
        pick = itemgetter(*(position[c] for c in required_cols))
        rows = []
        for fields in reader:
            if not fields:
                continue
            if len(fields) != len(header):
                raise DataError(f"{path} line {reader.line_num}: {len(fields)} fields, the header has {len(header)}")
            rows.append((reader.line_num, pick(fields)))
    return rows


def load_cohort(observations_path, outcomes_path, dictionary) -> Cohort:
    """Build a Cohort from long-format observation and outcome CSV files.

    observations.csv columns: subject_id, day, variable, value.
    outcomes.csv columns: subject_id, ssi, onset_day, last_obs_day.
    `dictionary` is either a list of variable names or a path to a
    one-name-per-line text file.

    Rows are checked in file order, so the first bad line is reported. An
    event-free subject's observation after its last_obs_day is an error; an
    event subject may have observations after onset.
    Unrecorded (subject, day, variable) cells are NaN; days with
    no rows between a subject's first and last recorded day become fully
    missing rows so windows stay contiguous.
    """
    if isinstance(dictionary, (str, bytes)) or hasattr(dictionary, "__fspath__"):
        variables = load_variable_dictionary(dictionary)
    else:
        variables = list(dictionary)
    var_index = {name: j for j, name in enumerate(variables)}

    outcomes = {}
    for line, (sid, ssi_text, onset_text, last_text) in _read_csv_rows(
            outcomes_path, ["subject_id", "ssi", "onset_day", "last_obs_day"]):
        sid = sid.strip()
        try:
            ssi = int(ssi_text)
        except ValueError as exc:
            raise DataError(f"{outcomes_path} line {line}: ssi must be 0 or 1") from exc
        if ssi not in (0, 1):
            raise DataError(f"{outcomes_path} line {line}: ssi must be 0 or 1, got {ssi}")
        if sid in outcomes:
            raise DuplicateRecordError(f"{outcomes_path} line {line}: duplicate subject {sid!r}")
        field, raw = ("onset_day", onset_text) if ssi == 1 else ("last_obs_day", last_text)
        raw = raw.strip()
        if not raw:
            raise DataError(f"{outcomes_path} line {line}: {field} required when ssi={ssi}")
        try:
            when = float(raw)
        except ValueError as exc:
            raise DataError(f"{outcomes_path} line {line}: {field} must be a number, got {raw!r}") from exc
        if not math.isfinite(when):
            raise DataError(f"{outcomes_path} line {line}: non-finite {field}")
        outcomes[sid] = Event(onset_day=when) if ssi == 1 else Censored(horizon_day=when)

    codes: dict[str, int] = {}  # subject id -> code, in order of first appearance
    cells: dict[tuple[int, int, int], float] = {}  # (subject code, day, column) -> value
    for line, (sid, day_text, var, value_text) in _read_csv_rows(
            observations_path, ["subject_id", "day", "variable", "value"]):
        sid = sid.strip()
        var = var.strip()
        if var not in var_index:
            raise UnknownVariableError(f"{observations_path} line {line}: unknown variable {var!r}")
        try:
            day = int(day_text)
        except ValueError as exc:
            raise DataError(f"{observations_path} line {line}: day must be an integer") from exc
        if day < 1:
            raise DataError(f"{observations_path} line {line}: day must be >= 1, got {day}")
        outcome = outcomes.get(sid)
        if isinstance(outcome, Censored) and day > outcome.horizon_day:
            raise DataError(f"{observations_path} line {line}: day {day} is after last_obs_day "
                            f"{outcome.horizon_day:g} of event-free subject {sid!r}")
        try:
            value = float(value_text)
        except ValueError as exc:
            raise DataError(f"{observations_path} line {line}: value must be a number, got {value_text!r}") from exc
        if not math.isfinite(value):
            raise DataError(f"{observations_path} line {line}: non-finite value")
        cell = (codes.setdefault(sid, len(codes)), day, var_index[var])
        if cell in cells:
            raise DuplicateRecordError(
                f"{observations_path} line {line}: duplicate record for ({sid!r}, day {day}, {var!r})"
            )
        cells[cell] = value

    code, days, col = np.array(list(cells), dtype=np.int64).reshape(-1, 3).T
    first = np.full(len(codes), np.iinfo(np.int64).max)
    last = np.zeros(len(codes), dtype=np.int64)
    np.minimum.at(first, code, days)
    np.maximum.at(last, code, days)
    start = np.concatenate([[0], np.cumsum(last - first + 1)])
    values = np.full((start[-1], len(variables)), np.nan)
    values[start[code] + days - first[code], col] = list(cells.values())

    subjects = []
    for sid, c in codes.items():
        if sid not in outcomes:
            raise MissingOutcomeError(f"subject {sid!r} has observations but no outcome row")
        first_day = int(first[c])
        outcome = outcomes[sid]
        if isinstance(outcome, Event) and outcome.onset_day <= first_day:
            raise InvalidOnsetError(
                f"subject {sid!r}: onset_day {outcome.onset_day} is not after first observed day {first_day}"
            )
        rows = slice(start[c], start[c + 1])
        subjects.append(SubjectSeries(sid, first_day, values[rows], outcome))

    return Cohort(subjects=subjects, variables=variables)


def extract_windows(cohort: Cohort, T: int, stride: int = 1, horizon: float = 21) -> list[WindowSample]:
    """Slide length-T windows over each subject and attach labels.

    Windows start at first_day and step by `stride`; a window must end on
    or before the subject's last observed day. Event subjects emit only
    windows ending strictly before onset (y = onset - end, censored False);
    censored subjects emit every window with y = horizon - end clamped at
    zero, censored True.
    """
    if T < 1 or stride < 1 or horizon < 1:
        raise ValueError("T, stride and horizon must all be >= 1")
    samples = []
    for series in cohort.subjects:
        D = series.values.shape[0]
        for start in range(0, D - T + 1, stride):
            end_day = series.first_day + start + T - 1
            if isinstance(series.outcome, Event):
                if end_day >= series.outcome.onset_day:
                    break
                y = series.outcome.onset_day - end_day
                censored = False
            else:
                y = max(horizon - end_day, 0.0)
                censored = True
            samples.append(
                WindowSample(
                    x=series.values[start : start + T].copy(),
                    y=float(y),
                    censored=censored,
                    subject_id=series.subject_id,
                    window_end_day=end_day,
                )
            )
    return samples


def vectorize(x: np.ndarray) -> np.ndarray:
    """Concatenate the rows of a T x P matrix into a length T*P vector."""
    return np.asarray(x).ravel(order="C")


def unvectorize(v: np.ndarray, T: int, P: int) -> np.ndarray:
    """Inverse of vectorize."""
    return np.asarray(v).reshape(T, P, order="C")


def stack_windows(samples: list[WindowSample], shape: tuple[int, int]) -> np.ndarray:
    """Vectorized windows as the rows of an n x T*P array.

    Every window must be shaped `shape` and fully imputed. The result is
    the transpose of a C-contiguous T*P x n array, the layout the design
    matrices and the prediction product use.
    """
    for s in samples:
        where = f"window of subject {s.subject_id!r} ending day {s.window_end_day}"
        if s.x.shape != shape:
            raise DataError(f"{where} has shape {s.x.shape}, expected {shape}")
        if np.isnan(s.x).any():
            raise UnimputedSampleError(f"{where} has unimputed cells")
    if not samples:
        return np.zeros((shape[0] * shape[1], 0)).T
    return np.column_stack([vectorize(s.x) for s in samples]).T


def assemble_design(samples: list[WindowSample]) -> DesignSet:
    """Stack fully imputed samples into complete/censored design matrices."""
    if not samples:
        raise DataError("cannot assemble a design from zero samples")
    T, P = samples[0].x.shape
    X = stack_windows(samples, (T, P)).T
    y = np.array([s.y for s in samples], dtype=float)
    censored = np.array([s.censored for s in samples], dtype=bool)
    return DesignSet(
        X_complete=np.compress(~censored, X, axis=1),
        y_complete=y[~censored],
        X_censored=np.compress(censored, X, axis=1),
        y_censored=y[censored],
        T=T,
        P=P,
    )


def split_folds(samples: list[WindowSample], k: int, unit: str = "sample", seed: int = 0) -> list[np.ndarray]:
    """Partition sample indices into k folds.

    unit="sample": fold sizes differ by at most one. unit="subject": all
    windows of one subject land in the same fold; subjects are dealt to the
    currently smallest fold to balance sample counts. Deterministic given
    seed.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if unit not in ("sample", "subject"):
        raise ValueError(f"unknown split unit {unit!r}")
    n = len(samples)
    rng = np.random.default_rng(seed)
    if unit == "sample":
        if k > n:
            raise DataError(f"cannot split {n} samples into {k} folds")
        perm = rng.permutation(n)
        base, extra = divmod(n, k)
        folds, pos = [], 0
        for f in range(k):
            size = base + (1 if f < extra else 0)
            folds.append(np.sort(perm[pos : pos + size]))
            pos += size
        return folds

    subject_order = []
    by_subject: dict[str, list[int]] = {}
    for i, s in enumerate(samples):
        if s.subject_id not in by_subject:
            by_subject[s.subject_id] = []
            subject_order.append(s.subject_id)
        by_subject[s.subject_id].append(i)
    if k > len(subject_order):
        raise DataError(f"cannot split {len(subject_order)} subjects into {k} folds")
    perm = rng.permutation(len(subject_order))
    fold_members: list[list[int]] = [[] for _ in range(k)]
    for pos in perm:
        sid = subject_order[pos]
        target = min(range(k), key=lambda f: (len(fold_members[f]), f))
        fold_members[target].extend(by_subject[sid])
    return [np.sort(np.asarray(members, dtype=int)) for members in fold_members]


def write_cohort(cohort: Cohort, observations_path, outcomes_path, dictionary_path):
    """Write a cohort back to the CSV formats load_cohort reads.

    Only observed cells produce observation rows; floats use 17 significant
    digits so a write/load cycle reproduces every value exactly.
    """
    with open(dictionary_path, "w", encoding="utf-8") as fh:
        for name in cohort.variables:
            fh.write(name + "\n")
    with open(observations_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "day", "variable", "value"])
        for s in cohort.subjects:
            observed = s.mask
            for t in range(s.values.shape[0]):
                for j, name in enumerate(cohort.variables):
                    if observed[t, j]:
                        writer.writerow([s.subject_id, s.first_day + t, name, "%.17g" % s.values[t, j]])
    with open(outcomes_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "ssi", "onset_day", "last_obs_day"])
        for s in cohort.subjects:
            if isinstance(s.outcome, Event):
                writer.writerow([s.subject_id, 1, "%.17g" % s.outcome.onset_day, s.last_day])
            else:
                writer.writerow([s.subject_id, 0, "", "%.17g" % s.outcome.horizon_day])
