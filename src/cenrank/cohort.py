"""Cohort ingestion and sliding-window sample construction.

A `Cohort` is one set of arrays: the subjects' days as the rows of one
N x P day-row array (variables in columns, NaN where a cell was not
recorded), and per subject its id, first day, row offset and outcome, an
event flag and a day: the day the event was observed, or the horizon up to
which the subject stayed event-free. Windows of T consecutive days become the
regression samples; a window from an event subject is labeled with the
remaining days to onset, a window from an event-free subject with the
remaining days to the censoring horizon.

`load_cohort` reads each CSV file's text once. Text with a `"`, a CR, a
NUL, a blank line or a line over the csv module's field size limit goes to
`csv.reader`; any other text is split with `str` methods, which read it
the same way with no list per record. The loader works on the
columns: subject ids and variables are coded once per distinct string, days
go through `int` and values through `float` in bulk, and every check is a
fault mask over the records. When a mask is set, the earliest faulty record
is reported with the first check it fails, and only then is the file scanned
again for that record's line. Every observed cell is scattered into one
N x P day-row array, ordered subject by subject (in order of first
appearance) and day by day, and the cohort is that array with the
per-subject arrays. NaN is the only marker of a missing cell: the `mask` and
`x_mask` properties are derived from it.

A window is T consecutive rows of a day-row array. `extract_windows` copies
the cohort's array once per call and returns one `Windows` set over the
copy: the array, T, and one array per window field (first row, label,
censored flag, subject id, last day). No window is copied: indexing the set
with an integer gives a `WindowSample` whose `x` is a view of its rows, and
indexing it with an index array gives a `Windows` over the same array.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from itertools import islice, repeat

import numpy as np

from .errors import (
    DataError,
    DuplicateRecordError,
    InvalidOnsetError,
    MissingOutcomeError,
    UnimputedSampleError,
    UnknownVariableError,
)

# A subject's first to last observed day may span at most this many days per observation record of the subject.
MAX_DAYS_PER_RECORD = 100


@dataclass(frozen=True)
class SubjectSeries:
    """One subject of a `Cohort`: its rows of the day-row array and its outcome.

    values is the D x P view of the subject's rows, NaN at unobserved cells,
    and row t corresponds to day first_day + t. outcome_day is the onset day
    if `event`, else the horizon day through which the subject stayed
    event-free. The read-only `mask`, True where a measurement was recorded,
    is computed from the NaNs on every access.
    """

    subject_id: str
    first_day: int
    values: np.ndarray
    event: bool
    outcome_day: float

    @property
    def mask(self) -> np.ndarray:
        return ~np.isnan(self.values)

    @property
    def last_day(self) -> int:
        return self.first_day + self.values.shape[0] - 1


@dataclass(frozen=True, eq=False)
class Cohort:
    """The subjects' days as one N x P day-row array, and one array entry per subject.

    Subject i is the rows days[start[i]:start[i + 1]], days first_day[i]
    onward; NaN marks an unobserved cell. event[i] says whether the onset
    was observed: outcome_day[i] is the onset day if so, else the horizon
    day through which the subject stayed event-free. `subjects` lists the
    subjects as `SubjectSeries` views of the arrays.
    """

    variables: list[str]
    days: np.ndarray = field(repr=False)
    subject_id: np.ndarray
    first_day: np.ndarray
    start: np.ndarray
    event: np.ndarray
    outcome_day: np.ndarray

    def __len__(self) -> int:
        return len(self.subject_id)

    @property
    def day(self) -> np.ndarray:
        """day[k], the day of row k of `days`."""
        return np.arange(len(self.days)) + np.repeat(self.first_day - self.start[:-1], np.diff(self.start))

    @property
    def subjects(self) -> list[SubjectSeries]:
        values = np.split(self.days, self.start[1:-1])
        return [SubjectSeries(*fields) for fields in zip(self.subject_id, self.first_day.tolist(), values,
                                                          self.event.tolist(), self.outcome_day.tolist())]


@dataclass
class WindowSample:
    """One window of a `Windows` set, with its time-to-event label.

    `x` is the writable T x P view of the window's rows of the set's day-row
    array, NaN at unobserved cells until the window is imputed; the
    read-only `x_mask` is computed from the NaNs on every access.
    """

    x: np.ndarray
    y: float
    censored: bool
    subject_id: str

    @property
    def x_mask(self) -> np.ndarray:
        return ~np.isnan(self.x)


@dataclass(frozen=True, eq=False)
class Windows:
    """A set of length-T windows over one day-row array, one array entry per window.

    Window i is the rows days[start[i]:start[i] + T], ending on day
    end_day[i] of subject subject_id[i]. y = onset_day - end_day for
    complete windows (always > 0); y = horizon - end_day, clamped at 0, for
    censored ones. `windows[i]` is window i as a `WindowSample`; an index
    array or a slice selects a `Windows` over the same `days`.
    """

    days: np.ndarray = field(repr=False)
    T: int
    start: np.ndarray
    y: np.ndarray
    censored: np.ndarray
    subject_id: np.ndarray
    end_day: np.ndarray

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            start = int(self.start[i])
            return WindowSample(self.days[start:start + self.T], float(self.y[i]), bool(self.censored[i]),
                                self.subject_id[i])
        return replace(self, start=self.start[i], y=self.y[i], censored=self.censored[i],
                       subject_id=self.subject_id[i], end_day=self.end_day[i])

    @property
    def rows(self) -> np.ndarray:
        """rows[i, t], the row of `days` that holds day t of window i."""
        return self.start[:, None] + np.arange(self.T)

    def columns(self) -> np.ndarray:
        """The vectorized windows as the columns of a C-contiguous T*P x n array, window i in column i.

        A window with a NaN cell is an UnimputedSampleError naming the first such window.
        """
        X = np.ascontiguousarray(self.days[self.rows].reshape(len(self), self.T * self.days.shape[1]).T)
        unimputed = np.isnan(X).any(axis=0)
        if unimputed.any():
            i = int(np.argmax(unimputed))
            raise UnimputedSampleError(
                f"window of subject {self.subject_id[i]!r} ending day {self.end_day[i]} has unimputed cells")
        return X


@dataclass
class DesignSet:
    """The samples of one fit: column i of X (T*P x n) is sample i's vectorized window.

    y holds the labels and censored marks the censored samples, both in
    the order of X's columns.
    """

    X: np.ndarray
    y: np.ndarray
    censored: np.ndarray
    T: int
    P: int


def load_variable_dictionary(path) -> list[str]:
    """Read the variable dictionary: one name per line, order = column order.

    A file that cannot be opened or decoded as UTF-8 is a DataError naming it.
    """
    names = []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for line in fh:
                name = line.strip()
                if name:
                    names.append(name)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise UnknownVariableError(f"duplicate variable names in dictionary: {dup}")
    if not names:
        raise DataError(f"variable dictionary is empty: {path}")
    return names


def _read_columns(path, names):
    """The `names` columns of a CSV file with a header line, each a list over the nonblank records.

    The file's text is read once. Text with a `"`, a CR, a NUL, a blank
    line or a line longer than `csv.field_size_limit()` goes to
    `csv.reader`, one record at a time. csv.reader reads any other text as
    `str.split` does (lines at LF, fields at commas), so that text is split
    with `str` methods and no list per record: one field-count check per
    line, then the fields of all lines in one list, each column a stride
    slice of it. A UTF-8 byte-order mark is skipped. A file that cannot be
    opened, decoded as UTF-8 or parsed as CSV (a field over the csv
    module's size limit) is a DataError naming it, and so is a record whose
    field count differs from the header's, naming its line too.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
        lines = text.split("\n")
        if len(lines) > 1 and not lines[-1]:
            lines.pop()  # the empty text after the last line end
        reader = None
        if ('"' in text or "\r" in text or "\0" in text or "" in lines
                or max(map(len, lines)) > csv.field_size_limit()):
            reader, lines = csv.reader(io.StringIO(text, newline="")), None
        del text
        header = next(reader, []) if reader else lines.pop(0).split(",")
        missing = [c for c in names if c not in header]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        if reader:
            fields, commas = [], []
            for record in filter(None, reader):  # each record's list is freed before the next is read
                fields += record
                commas.append(len(record) - 1)
        else:
            commas = list(map(str.count, lines, repeat(",")))
            joined = ",".join(lines)
            del lines  # the fields can reuse the lines' memory
            fields = joined.split(",") if commas else []
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    width = len(header)
    if set(commas) - {width - 1}:
        k = next(k for k, count in enumerate(commas) if count != width - 1)
        raise DataError(f"{path} line {_line_of(path, k)}: {commas[k] + 1} fields, the header has {width}")
    position = {name: i for i, name in enumerate(header)}
    return [fields[position[c]::width] for c in names]


def _line_of(path, k):
    """The line on which the k-th (from 0) nonblank record after the header of a CSV file ends."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        ends = (reader.line_num for fields in reader if fields)
        return next(islice(ends, k, None))


def _parse_one(text, kind):
    """kind(text), or None where kind (int or float) rejects the text."""
    try:
        return kind(text)
    except ValueError:
        return None


def _parse(column, kind):
    """kind(text) of each string of `column` as an int64 or float64 array, and the mask of the strings kind rejects.

    kind is int or float, so exactly what int() or float() accepts is
    accepted (whitespace, `1_0`, `nan`, `inf`); a rejected string reads 0.
    """
    dtype = np.int64 if kind is int else np.float64
    try:
        return np.fromiter(map(kind, column), dtype, len(column)), np.zeros(len(column), dtype=bool)
    except ValueError:
        parsed = [_parse_one(text, kind) for text in column]
    return (np.array([0 if p is None else p for p in parsed], dtype=dtype),
            np.array([p is None for p in parsed], dtype=bool))


def _distinct(column):
    """The distinct strings of `column` in order of first appearance, and each record's index among them."""
    index = {text: i for i, text in enumerate(dict.fromkeys(column))}
    return list(index), np.fromiter(map(index.__getitem__, column), np.intp, len(column))


def _first_fault(checks):
    """(record, check) of the earliest record that fails a check and the first check it fails, or None.

    `checks` holds (fault mask over the records, error class, message of
    record k), in the order the checks apply to one record.
    """
    faults = [(int(np.argmax(mask)), j) for j, (mask, _, _) in enumerate(checks) if np.any(mask)]
    return min(faults, default=None)


def _raise_first_fault(checks, path=None):
    """Raise the error of `_first_fault(checks)`, if any, naming the file and line of its record if given a path."""
    fault = _first_fault(checks)
    if fault:
        k, j = fault
        _, error, message = checks[j]
        raise error(f"{path} line {_line_of(path, k)}: {message(k)}" if path else message(k))


def load_cohort(observations_path, outcomes_path, dictionary) -> Cohort:
    """Build a Cohort from long-format observation and outcome CSV files.

    observations.csv columns: subject_id, day, variable, value.
    outcomes.csv columns: subject_id, ssi, onset_day, last_obs_day.
    `dictionary` is the path of a one-name-per-line text file. The files
    may start with a UTF-8 byte-order mark.

    Each file is read once and checked column by column; the first fault
    in file order is reported, naming the file and line (blank lines
    counted). The order is: the dictionary; outcomes.csv's columns and
    field counts, then per record: ssi an integer, ssi 0 or 1, subject not
    repeated, the required onset_day or last_obs_day present, a number,
    finite; then observations.csv's columns and field counts, then per
    record: variable known, day an integer, day >= 1, day not after an
    event-free subject's last_obs_day, value a number, finite, cell not
    repeated; last, per subject in order of first appearance: an outcome
    row present, an onset after the first observed day, and at most
    MAX_DAYS_PER_RECORD days from the first to the last observed day per
    observation record of the subject (naming the line of the last
    observed day), so a file's day-row array has at most that many rows
    per record. An event subject may have observations after onset.
    Unrecorded (subject, day, variable) cells are NaN; days with
    no rows between a subject's first and last recorded day become fully
    missing rows so windows stay contiguous.
    """
    variables = load_variable_dictionary(dictionary)
    var_index = {name: j for j, name in enumerate(variables)}
    P = len(variables)

    sid_text, ssi_text, onset_text, last_text = _read_columns(
        outcomes_path, ["subject_id", "ssi", "onset_day", "last_obs_day"])
    sids = [text.strip() for text in sid_text]
    ssi = [_parse_one(text, int) for text in ssi_text]
    event = np.array([s == 1 for s in ssi], dtype=bool)
    field = ["onset_day" if e else "last_obs_day" for e in event]
    raw = [(onset if e else last).strip() for e, onset, last in zip(event, onset_text, last_text)]
    when, not_number = _parse(raw, float)
    first_row: dict[str, int] = {}
    _raise_first_fault([
        ([s is None for s in ssi], DataError, lambda k: "ssi must be 0 or 1"),
        ([s not in (0, 1) for s in ssi], DataError, lambda k: f"ssi must be 0 or 1, got {ssi[k]}"),
        ([first_row.setdefault(sid, k) != k for k, sid in enumerate(sids)], DuplicateRecordError,
         lambda k: f"duplicate subject {sids[k]!r}"),
        ([not text for text in raw], DataError, lambda k: f"{field[k]} required when ssi={ssi[k]}"),
        (not_number, DataError, lambda k: f"{field[k]} must be a number, got {raw[k]!r}"),
        (~np.isfinite(when), DataError, lambda k: f"non-finite {field[k]}"),
    ], outcomes_path)

    sid_text, day_text, var_text, value_text = _read_columns(
        observations_path, ["subject_id", "day", "variable", "value"])
    n = len(sid_text)
    codes: dict[str, int] = {}  # subject id -> code, in order of first appearance
    texts, which = _distinct(sid_text)
    code = np.array([codes.setdefault(t.strip(), len(codes)) for t in texts], dtype=np.intp)[which]
    texts, which = _distinct(var_text)
    col = np.array([var_index.get(t.strip(), -1) for t in texts], dtype=np.intp)[which]
    texts, which = _distinct(day_text)
    days, not_integer = (a[which] for a in _parse(texts, int))
    observed, not_number = _parse(value_text, float)
    # each subject's outcome record; -1, a subject without one, picks the padding (no event, no horizon)
    outcome = np.array([first_row.get(sid, -1) for sid in codes], dtype=np.intp)
    subject_event, outcome_day = np.append(event, False)[outcome], np.append(when, np.inf)[outcome]
    horizon = np.where(subject_event, np.inf, outcome_day)
    checks = [
        (col < 0, UnknownVariableError, lambda k: f"unknown variable {var_text[k].strip()!r}"),
        (not_integer, DataError, lambda k: "day must be an integer"),
        (days < 1, DataError, lambda k: f"day must be >= 1, got {days[k]}"),
        (days > horizon[code], DataError,
         lambda k: f"day {days[k]} is after last_obs_day {horizon[code[k]]:g} of event-free subject "
                   f"{sid_text[k].strip()!r}"),
        (not_number, DataError, lambda k: f"value must be a number, got {value_text[k]!r}"),
        (~np.isfinite(observed), DataError, lambda k: "non-finite value"),
    ]

    # Lay out the records before the first fault (all of them in a valid
    # file): their subjects are codes 0..m-1, and each record gets its flat
    # cell in the N x P day-row array. A repeated cell is a fault too.
    fault = _first_fault(checks)
    stop = fault[0] if fault else n
    kept_code, kept_day = code[:stop], days[:stop]
    m = int(kept_code.max(initial=-1)) + 1
    first = np.full(m, np.iinfo(np.int64).max)
    last = np.zeros(m, dtype=np.int64)
    np.minimum.at(first, kept_code, kept_day)
    np.maximum.at(last, kept_code, kept_day)
    start = np.concatenate([[0], np.cumsum(last - first + 1)])
    cell = (start[kept_code] + kept_day - first[kept_code]) * P + col[:stop]
    duplicate = np.zeros(n, dtype=bool)
    duplicate[:stop] = True
    duplicate[np.unique(cell, return_index=True)[1]] = False
    checks.append((duplicate, DuplicateRecordError,
                   lambda k: f"duplicate record for ({sid_text[k].strip()!r}, day {days[k]}, {var_text[k].strip()!r})"))
    _raise_first_fault(checks, observations_path)

    subject_id = np.array(list(codes), dtype=object)
    span, records = np.diff(start), np.bincount(code, minlength=m)
    _raise_first_fault([
        (outcome < 0, MissingOutcomeError, lambda c: f"subject {subject_id[c]!r} has observations but no outcome row"),
        (subject_event & (outcome_day <= first), InvalidOnsetError,
         lambda c: f"subject {subject_id[c]!r}: onset_day {outcome_day[c]} is not after first observed day {first[c]}"),
        (span > MAX_DAYS_PER_RECORD * records, DataError,
         lambda c: f"{observations_path} line {_line_of(observations_path, np.argmax((code == c) & (days == last[c])))}"
                   f": subject {subject_id[c]!r} spans {span[c]} days, {first[c]} to {last[c]}, with {records[c]} "
                   f"observation rows; at most {MAX_DAYS_PER_RECORD} days per row are allowed"),
    ])
    values = np.full((start[-1], P), np.nan)
    values.reshape(-1)[cell] = observed
    return Cohort(variables, values, subject_id, first, start, subject_event, outcome_day)


def extract_windows(cohort: Cohort, T: int, stride: int = 1, horizon: float = 21) -> Windows:
    """Slide length-T windows over each subject and attach labels.

    Windows start at first_day and step by `stride`; a window must end on
    or before the subject's last observed day. Event subjects emit only
    windows ending strictly before onset (y = onset - end, censored False);
    censored subjects emit every window with y = horizon - end clamped at
    zero, censored True. The windows come subject by subject in cohort
    order, and by start within a subject. They read a copy of the cohort's
    day-row array, so writing to a window changes neither the cohort nor
    another call's windows.
    """
    if T < 1 or stride < 1 or horizon < 1:
        raise ValueError("T, stride and horizon must all be >= 1")
    onset = np.where(cohort.event, cohort.outcome_day, np.inf)
    # every start 0, stride, ... that fits in its subject, then only the windows ending before onset
    count = np.maximum((np.diff(cohort.start) - T) // stride + 1, 0)
    subject = np.repeat(np.arange(len(cohort)), count)
    offset = (np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)) * stride
    end_day = cohort.first_day[subject] + offset + T - 1
    keep = end_day < onset[subject]
    subject, offset, end_day = subject[keep], offset[keep], end_day[keep]
    censored = ~cohort.event[subject]
    y = np.where(censored, np.maximum(horizon - end_day, 0.0), onset[subject] - end_day)
    return Windows(cohort.days.copy(), T, cohort.start[subject] + offset, y, censored, cohort.subject_id[subject],
                   end_day)


def vectorize(x: np.ndarray) -> np.ndarray:
    """Concatenate the rows of a T x P matrix into a length T*P vector."""
    return np.asarray(x).ravel(order="C")


def unvectorize(v: np.ndarray, T: int, P: int) -> np.ndarray:
    """Inverse of vectorize."""
    return np.asarray(v).reshape(T, P, order="C")


def assemble_design(windows: Windows) -> DesignSet:
    """The design of fully imputed windows: column i, label i and mark i are window i's."""
    if not len(windows):
        raise DataError("cannot assemble a design from zero samples")
    return DesignSet(windows.columns(), windows.y.copy(), windows.censored.copy(), windows.T, windows.days.shape[1])


def split_folds(windows: Windows, k: int, unit: str = "sample", seed: int = 0) -> list[np.ndarray]:
    """Partition window indices into k folds.

    unit="sample": fold sizes differ by at most one. unit="subject": all
    windows of one subject land in the same fold; subjects, numbered in
    order of first appearance, are dealt in a random order to the currently
    smallest fold (by window count, ties to the lower fold). Deterministic
    given seed.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if unit not in ("sample", "subject"):
        raise ValueError(f"unknown split unit {unit!r}")
    n = len(windows)
    rng = np.random.default_rng(seed)
    if unit == "sample":
        if k > n:
            raise DataError(f"cannot split {n} samples into {k} folds")
        return [np.sort(fold) for fold in np.array_split(rng.permutation(n), k)]  # the first n % k folds one larger

    _, first, code = np.unique(windows.subject_id, return_index=True, return_inverse=True)
    m = first.size
    if k > m:
        raise DataError(f"cannot split {m} subjects into {k} folds")
    number = np.empty(m, dtype=np.intp)
    number[np.argsort(first)] = np.arange(m)
    subject = number[code]  # each window's subject, numbered in order of first appearance
    size = np.bincount(subject, minlength=m).tolist()
    fold_of, fold_size = np.empty(m, dtype=np.intp), [0] * k
    for s in rng.permutation(m).tolist():
        fold_of[s] = target = min(range(k), key=lambda f: (fold_size[f], f))
        fold_size[target] += size[s]
    return [np.flatnonzero(fold_of[subject] == f) for f in range(k)]


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it as one field of a longer row: quoted only where it must be."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]  # drop the empty second field's "," and the line end


def write_cohort(cohort: Cohort, observations_path, outcomes_path, dictionary_path):
    """Write a cohort back to the CSV formats load_cohort reads.

    Only observed cells produce observation rows; floats use 17 significant
    digits so a write/load cycle reproduces every value exactly. Each
    variable name is quoted once per file and each subject id once per
    subject (by csv.writer, so the quoting is csv.writer's), and a subject's
    rows go to the file in one write.
    """
    with open(dictionary_path, "w", encoding="utf-8") as fh:
        for name in cohort.variables:
            fh.write(name + "\n")
    names = [_csv_field(name) for name in cohort.variables]
    row, col = np.nonzero(~np.isnan(cohort.days))  # row-major: subject by subject, day by day, variables in order
    days, values, col = cohort.day[row].tolist(), cohort.days[row, col].tolist(), col.tolist()
    cut = np.searchsorted(row, cohort.start).tolist()  # subject i's cells are cut[i]:cut[i + 1]
    with open(observations_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("subject_id,day,variable,value\n")
        for sid, a, b in zip(cohort.subject_id, cut, cut[1:]):
            sid, cells = _csv_field(sid), zip(days[a:b], col[a:b], values[a:b])
            fh.write("".join([f"{sid},{day},{names[c]},{v:.17g}\n" for day, c, v in cells]))
    last_day = (cohort.first_day + np.diff(cohort.start) - 1).tolist()
    outcomes = zip(cohort.subject_id, cohort.event.tolist(), cohort.outcome_day.tolist(), last_day)
    with open(outcomes_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "ssi", "onset_day", "last_obs_day"])
        for sid, event, day, last in outcomes:
            day = "%.17g" % day
            writer.writerow([sid, 1, day, last] if event else [sid, 0, "", day])
