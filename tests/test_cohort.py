import csv
import itertools
import math
import sys
from operator import itemgetter

import numpy as np
import pytest

from cenrank.cohort import (
    MAX_DAYS_PER_RECORD,
    Cohort,
    WindowSample,
    Windows,
    assemble_design,
    extract_windows,
    load_cohort,
    load_variable_dictionary,
    split_folds,
    unvectorize,
    vectorize,
    write_cohort,
)
from cenrank.errors import (
    DataError,
    DuplicateRecordError,
    InvalidOnsetError,
    MissingOutcomeError,
    UnimputedSampleError,
    UnknownVariableError,
)
from cenrank.synthetic import SyntheticSpec, generate_cohort
from helpers import make_cohort, make_windows, tiny_cohort, write_cohort_files


class TestLoadCohort:
    def test_two_clean_subjects(self, tmp_path):
        obs, out, dic = write_cohort_files(
            tmp_path,
            ["A,1,hr,60", "A,1,temp,37.0", "A,2,hr,62", "B,3,hr,70"],
            ["A,1,5,2", "B,0,,21"],
            ["hr", "temp"],
        )
        cohort = load_cohort(obs, out, dic)
        assert [s.subject_id for s in cohort.subjects] == ["A", "B"]
        a, b = cohort.subjects
        assert a.first_day == 1 and a.values.shape == (2, 2)
        assert a.mask.tolist() == [[True, True], [True, False]]
        assert (a.event, a.outcome_day) == (True, 5)
        assert b.first_day == 3 and b.values[0, 0] == 70
        assert (b.event, b.outcome_day) == (False, 21)

    def test_unknown_variable(self, tmp_path):
        obs, out, dic = write_cohort_files(
            tmp_path, ["A,1,wound_glow,1.0"], ["A,0,,21"], ["hr"]
        )
        with pytest.raises(UnknownVariableError):
            load_cohort(obs, out, dic)

    def test_gap_day_becomes_missing_row(self, tmp_path):
        obs, out, dic = write_cohort_files(
            tmp_path, ["A,2,hr,60", "A,4,hr,64"], ["A,0,,21"], ["hr"]
        )
        cohort = load_cohort(obs, out, dic)
        s = cohort.subjects[0]
        assert s.first_day == 2 and s.values.shape == (3, 1)
        assert s.mask[:, 0].tolist() == [True, False, True]
        assert np.isnan(s.values[1, 0])

    def test_duplicate_record(self, tmp_path):
        obs, out, dic = write_cohort_files(
            tmp_path, ["A,1,hr,60", "A,1,hr,61"], ["A,0,,21"], ["hr"]
        )
        with pytest.raises(DuplicateRecordError):
            load_cohort(obs, out, dic)

    def test_missing_outcome(self, tmp_path):
        obs, out, dic = write_cohort_files(tmp_path, ["A,1,hr,60"], ["B,0,,21"], ["hr"])
        with pytest.raises(MissingOutcomeError):
            load_cohort(obs, out, dic)

    def test_onset_not_after_first_day(self, tmp_path):
        obs, out, dic = write_cohort_files(
            tmp_path, ["A,3,hr,60", "A,4,hr,61"], ["A,1,3,4"], ["hr"]
        )
        with pytest.raises(InvalidOnsetError):
            load_cohort(obs, out, dic)

    @pytest.mark.parametrize("observations, outcomes, bad_file", [
        (["A,1,hr,fast"], ["A,0,,21"], "observations.csv"),
        (["A,1,hr,60"], ["A,1,soon,2"], "outcomes.csv"),
        (["A,1,hr,60"], ["A,0,,later"], "outcomes.csv"),
        (["A,1,hr,60"], ["A,1,inf,2"], "outcomes.csv"),
        (["A,1,hr,60"], ["A,0,,nan"], "outcomes.csv"),
    ], ids=["value", "onset_day", "last_obs_day", "onset_day_inf", "last_obs_day_nan"])
    def test_bad_number_is_data_error_naming_file_and_line(self, tmp_path, observations, outcomes, bad_file):
        obs, out, dic = write_cohort_files(tmp_path, observations, outcomes, ["hr"])
        with pytest.raises(DataError, match=rf"{bad_file} line 2: "):
            load_cohort(obs, out, dic)

    @pytest.mark.parametrize("observations, outcomes, bad_file, line", [
        (["A,2"], ["A,0,,21"], "observations.csv", 2),
        (["A,1,hr,60,61"], ["A,0,,21"], "observations.csv", 2),
        (["A,1,hr,60"], ["A,0,,21,22"], "outcomes.csv", 2),
        (["A,1,hr,60", "", "A,2,hr,fast"], ["A,0,,21"], "observations.csv", 4),
        (["A,1,hr,60", "", "", "A,2"], ["A,0,,21"], "observations.csv", 5),
        (["A,1,hr,60"], ["", "A,1,soon,2"], "outcomes.csv", 3),
    ], ids=["short_row", "long_row", "long_outcome_row", "after_blank_line", "short_after_blank_lines",
            "outcome_after_blank_line"])
    def test_bad_row_is_data_error_naming_file_and_true_line(self, tmp_path, observations, outcomes, bad_file, line):
        obs, out, dic = write_cohort_files(tmp_path, observations, outcomes, ["hr"])
        with pytest.raises(DataError, match=rf"{bad_file} line {line}: "):
            load_cohort(obs, out, dic)

    @pytest.mark.parametrize("observations, error, message", [
        (["A,1,hr,60", "A,x,hr,60", "A,2,hr,fast"], DataError, "line 3: day must be an integer"),
        (["A,1,hr,60", "A,1,hr,61", "A,2,hr,fast"], DuplicateRecordError, "line 3: duplicate record"),
        (["A,1,glow,fast"], UnknownVariableError, "line 2: unknown variable 'glow'"),
        (["A,x,hr,fast"], DataError, "line 2: day must be an integer"),
        (["A,1,hr,60", "B,1,hr,1", "A,1,hr,61"], DuplicateRecordError,
         r"line 4: duplicate record for \('A', day 1, 'hr'\)"),
        (["A,0,hr,60"], DataError, "line 2: day must be >= 1, got 0"),
        (["A,1,hr,60", "A,22,hr,61", "A,2,hr,fast"], DataError,
         "line 3: day 22 is after last_obs_day 21 of event-free subject 'A'"),
    ], ids=["earlier_of_two_bad_lines", "duplicate_before_bad_value", "unknown_variable_before_value",
            "day_before_value", "duplicate_names_second_line", "day_zero", "day_after_last_obs_day"])
    def test_first_error_in_file_order_is_reported(self, tmp_path, observations, error, message):
        obs, out, dic = write_cohort_files(tmp_path, observations, ["A,0,,21", "B,0,,21"], ["hr"])
        with pytest.raises(error, match=rf"observations.csv {message}"):
            load_cohort(obs, out, dic)

    def test_event_subject_may_be_observed_after_onset(self, tmp_path):
        obs, out, dic = write_cohort_files(tmp_path, ["A,1,hr,60", "A,9,hr,61"], ["A,1,5,2"], ["hr"])
        (a,) = load_cohort(obs, out, dic).subjects
        assert a.last_day == 9 and (a.event, a.outcome_day) == (True, 5)

    @pytest.mark.parametrize("ssi", ["1,5,", "0,,900"], ids=["event", "event_free"])
    def test_day_span_is_bounded_per_record(self, tmp_path, ssi):
        """A subject's days span at most MAX_DAYS_PER_RECORD per record; one day more is a DataError naming the line."""
        def files(last_day):
            return write_cohort_files(tmp_path, ["B,3,hr,1", f"A,{last_day},hr,60", "A,1,temp,61"],
                                      [f"A,{ssi}", "B,0,,21"], ["hr", "temp"])

        last = 2 * MAX_DAYS_PER_RECORD
        assert load_cohort(*files(last)).subjects[1].values.shape == (last, 2)
        with pytest.raises(DataError, match=rf"observations.csv line 3: subject 'A' spans {last + 1} days, "
                                            rf"1 to {last + 1}, with 2 observation rows; at most "):
            load_cohort(*files(last + 1))

    def test_write_load_roundtrip_is_exact(self, tmp_path):
        cohort, _ = generate_cohort(
            SyntheticSpec(n_subjects=12, days_per_subject=7, P=4, T_star=3,
                          true_rank=2, noise_sigma=1.0, missing_rate=0.2, seed=5)
        )
        write_cohort(cohort, tmp_path / "o.csv", tmp_path / "y.csv", tmp_path / "v.txt")
        loaded = load_cohort(tmp_path / "o.csv", tmp_path / "y.csv", tmp_path / "v.txt")
        assert loaded.variables == cohort.variables
        assert len(loaded.subjects) == len(cohort.subjects)
        for got, want in zip(loaded.subjects, cohort.subjects):
            assert got.subject_id == want.subject_id
            assert got.first_day == want.first_day
            assert np.array_equal(got.mask, want.mask)
            assert np.array_equal(got.values[got.mask], want.values[want.mask])
            assert (got.event, got.outcome_day) == (want.event, want.outcome_day)

    def test_masks_are_read_only_and_follow_the_nans(self, tmp_path):
        cohort, _ = generate_cohort(
            SyntheticSpec(n_subjects=12, days_per_subject=7, P=4, T_star=3,
                          true_rank=2, noise_sigma=1.0, missing_rate=0.2, seed=5)
        )
        write_cohort(cohort, tmp_path / "o.csv", tmp_path / "y.csv", tmp_path / "v.txt")
        loaded = load_cohort(tmp_path / "o.csv", tmp_path / "y.csv", tmp_path / "v.txt")
        for c in (cohort, loaded):
            missing = np.isnan(c.days)
            assert missing.any() and not missing.all()
            for s in c.subjects:
                assert np.array_equal(s.mask, ~np.isnan(s.values))
            windows = extract_windows(c, 3)
            for w in windows:
                assert np.array_equal(w.x_mask, ~np.isnan(w.x))
            windows[0].x[0, 0] = np.nan
            assert not windows[0].x_mask[0, 0]
            with pytest.raises(AttributeError):
                c.subjects[0].mask = np.ones_like(c.subjects[0].values, dtype=bool)
            with pytest.raises(AttributeError):
                windows[0].x_mask = np.ones_like(windows[0].x, dtype=bool)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        obs, out, dic = write_cohort_files(tmp_path, ["A,1,hr,60", "A,2,temp,37.5"], ["A,0,,21"], ["hr", "temp"])
        want = load_cohort(obs, out, dic)
        for path in (obs, out, dic):
            path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
            got = load_cohort(obs, out, dic)
            assert got.variables == ["hr", "temp"]
            assert_same_cohort(got, want)


def load_reference(observations_path, outcomes_path, dictionary):
    """load_cohort as a row-at-a-time loop: every record is checked, in file order, before the next is read."""
    def rows(path, required_cols):
        try:
            fh = open(path, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        with fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, [])
                missing = [c for c in required_cols if c not in header]
                if missing:
                    raise DataError(f"{path}: missing columns {missing}")
                position = {name: i for i, name in enumerate(header)}
                pick = itemgetter(*(position[c] for c in required_cols))
                out = []
                for fields in reader:
                    if not fields:
                        continue
                    if len(fields) != len(header):
                        raise DataError(
                            f"{path} line {reader.line_num}: {len(fields)} fields, the header has {len(header)}")
                    out.append((reader.line_num, pick(fields)))
            except csv.Error as exc:  # a field over the size limit, or a NUL where the csv module rejects one
                raise DataError(f"cannot read {path}: {exc}") from exc
        return out

    variables = load_variable_dictionary(dictionary)
    var_index = {name: j for j, name in enumerate(variables)}
    outcomes = {}
    for line, (sid, ssi_text, onset_text, last_text) in rows(
            outcomes_path, ["subject_id", "ssi", "onset_day", "last_obs_day"]):
        sid = sid.strip()
        try:
            ssi = int(ssi_text)
        except ValueError:
            raise DataError(f"{outcomes_path} line {line}: ssi must be 0 or 1") from None
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
        except ValueError:
            raise DataError(f"{outcomes_path} line {line}: {field} must be a number, got {raw!r}") from None
        if not math.isfinite(when):
            raise DataError(f"{outcomes_path} line {line}: non-finite {field}")
        outcomes[sid] = (ssi == 1, when)

    codes = {}
    cells = {}
    cell_lines = {}
    for line, (sid, day_text, var, value_text) in rows(observations_path, ["subject_id", "day", "variable", "value"]):
        sid = sid.strip()
        var = var.strip()
        if var not in var_index:
            raise UnknownVariableError(f"{observations_path} line {line}: unknown variable {var!r}")
        try:
            day = int(day_text)
        except ValueError:
            raise DataError(f"{observations_path} line {line}: day must be an integer") from None
        if day < 1:
            raise DataError(f"{observations_path} line {line}: day must be >= 1, got {day}")
        event, when = outcomes.get(sid, (True, None))  # a subject without an outcome row fails after the file
        if not event and day > when:
            raise DataError(f"{observations_path} line {line}: day {day} is after last_obs_day "
                            f"{when:g} of event-free subject {sid!r}")
        try:
            value = float(value_text)
        except ValueError:
            raise DataError(f"{observations_path} line {line}: value must be a number, got {value_text!r}") from None
        if not math.isfinite(value):
            raise DataError(f"{observations_path} line {line}: non-finite value")
        cell = (codes.setdefault(sid, len(codes)), day, var_index[var])
        if cell in cells:
            raise DuplicateRecordError(
                f"{observations_path} line {line}: duplicate record for ({sid!r}, day {day}, {var!r})")
        cells[cell] = value
        cell_lines[cell] = line

    subjects = []
    for sid, c in codes.items():
        if sid not in outcomes:
            raise MissingOutcomeError(f"subject {sid!r} has observations but no outcome row")
        days = {d: v for (code, d, _), v in cells.items() if code == c}
        first_day, last_day = min(days), max(days)
        event, when = outcomes[sid]
        if event and when <= first_day:
            raise InvalidOnsetError(
                f"subject {sid!r}: onset_day {when} is not after first observed day {first_day}")
        records = sum(code == c for code, _, _ in cells)
        if last_day - first_day + 1 > MAX_DAYS_PER_RECORD * records:
            line = min(n for (code, d, _), n in cell_lines.items() if code == c and d == last_day)
            raise DataError(f"{observations_path} line {line}: subject {sid!r} spans {last_day - first_day + 1} days, "
                            f"{first_day} to {last_day}, with {records} observation rows; "
                            f"at most {MAX_DAYS_PER_RECORD} days per row are allowed")
        values = np.full((last_day - first_day + 1, len(variables)), np.nan)
        for (code, d, j), v in cells.items():
            if code == c:
                values[d - first_day, j] = v
        subjects.append((sid, first_day, values, event, when))
    return make_cohort(subjects, variables)


def assert_same_cohort(got, want):
    assert got.variables == want.variables
    assert [s.subject_id for s in got.subjects] == [s.subject_id for s in want.subjects]
    for g, w in zip(got.subjects, want.subjects):
        assert g.first_day == w.first_day
        assert (g.event, g.outcome_day) == (w.event, w.outcome_day)
        assert np.array_equal(g.values, w.values, equal_nan=True)


def outcome_of(load, *paths):
    """The Cohort a loader returns, or the type and message of what it raises."""
    try:
        return load(*paths)
    except Exception as exc:  # the loaders must agree on every exception, not only on DataError
        return type(exc), str(exc)


def assert_loaders_agree(tmp_path, observations, outcomes, variables=("v01", "v02", "v03", "v04"),
                         obs_header="subject_id,day,variable,value", out_header="subject_id,ssi,onset_day,last_obs_day",
                         newline="\n"):
    """Write raw lines, load them with load_cohort and load_reference, and compare the results."""
    obs, out, dic = tmp_path / "observations.csv", tmp_path / "outcomes.csv", tmp_path / "variables.txt"
    obs.write_bytes(newline.join([obs_header, *observations, ""]).encode("utf-8"))
    out.write_bytes(newline.join([out_header, *outcomes, ""]).encode("utf-8"))
    dic.write_text("".join(f"{v}\n" for v in variables), encoding="utf-8")
    got, want = outcome_of(load_cohort, obs, out, dic), outcome_of(load_reference, obs, out, dic)
    if isinstance(want, Cohort):
        assert isinstance(got, Cohort), got
        assert_same_cohort(got, want)
    else:
        assert got == want
    return want


def synthetic_lines(tmp_path, seed, shuffle=False, n_subjects=12):
    """Observation and outcome data lines of a small synthetic cohort, the observations shuffled if asked."""
    cohort, _ = generate_cohort(
        SyntheticSpec(n_subjects=n_subjects, days_per_subject=7, P=4, T_star=3, true_rank=2,
                      noise_sigma=1.0, missing_rate=0.2, seed=seed)
    )
    write_cohort(cohort, tmp_path / "o.csv", tmp_path / "y.csv", tmp_path / "v.txt")
    observations = (tmp_path / "o.csv").read_text().splitlines()[1:]
    outcomes = (tmp_path / "y.csv").read_text().splitlines()[1:]
    if shuffle:
        observations = [observations[i] for i in np.random.default_rng(seed).permutation(len(observations))]
    return observations, outcomes


def set_field(line, i, text):
    fields = line.split(",")
    fields += [""] * (i + 1 - len(fields))  # a short row gets its field back, empty
    fields[i] = text
    return ",".join(fields)


def censored_id(outcomes):
    return next(line.split(",")[0] for line in outcomes if line.split(",")[1] == "0")


# Each fault gives the new text of data line i (i >= 1) of its file, from the lines of both files.
OBSERVATION_FAULTS = {
    "unknown_variable": lambda obs, out, i: set_field(obs[i], 2, "glow"),
    "day_not_integer": lambda obs, out, i: set_field(obs[i], 1, "2.0"),
    "day_below_one": lambda obs, out, i: set_field(obs[i], 1, "0"),
    "day_after_last_obs_day": lambda obs, out, i: set_field(set_field(obs[i], 0, censored_id(out)), 1, "99"),
    "value_not_number": lambda obs, out, i: set_field(obs[i], 3, "fast"),
    "value_not_finite": lambda obs, out, i: set_field(obs[i], 3, "-inf"),
    "duplicate_cell": lambda obs, out, i: set_field(obs[i - 1], 3, "1.5"),
    "short_row": lambda obs, out, i: obs[i].rsplit(",", 1)[0],
    "long_row": lambda obs, out, i: obs[i] + ",7",
}
OUTCOME_FAULTS = {
    "ssi_not_integer": lambda obs, out, i: set_field(out[i], 1, "yes"),
    "ssi_not_0_or_1": lambda obs, out, i: set_field(out[i], 1, "2"),
    "duplicate_subject": lambda obs, out, i: out[i - 1],
    "when_missing": lambda obs, out, i: set_field(set_field(out[i], 2, ""), 3, " "),
    "when_not_number": lambda obs, out, i: set_field(set_field(out[i], 2, "soon"), 3, "later"),
    "when_not_finite": lambda obs, out, i: set_field(set_field(out[i], 2, "nan"), 3, "inf"),
    "onset_not_after_first_day": lambda obs, out, i: set_field(set_field(out[i], 1, "1"), 2, "1"),
    "outcome_long_row": lambda obs, out, i: out[i] + ",",
}


def with_blank_lines(lines, rng):
    """`lines` with a blank line inserted at three random places."""
    lines = list(lines)
    for at in rng.integers(0, len(lines) + 1, size=3):
        lines.insert(int(at), "")
    return lines


def with_faults(observations, outcomes, faults):
    """Apply (name, line index) faults in turn; the faults of both files are looked up by name."""
    obs, out = list(observations), list(outcomes)
    for name, i in faults:
        if name in OBSERVATION_FAULTS:
            obs[i] = OBSERVATION_FAULTS[name](obs, out, i)
        else:
            out[i] = OUTCOME_FAULTS[name](obs, out, i)
    return obs, out


class TestLoaderMatchesRowLoop:
    """load_cohort gives the same Cohort, or raises the same error, as a row-at-a-time loop."""

    @pytest.mark.parametrize("seed", [0, 3, 4, 6])
    @pytest.mark.parametrize("shuffle", [False, True], ids=["ordered", "shuffled"])
    def test_synthetic_cohorts(self, tmp_path, seed, shuffle):
        observations, outcomes = synthetic_lines(tmp_path, seed, shuffle)
        assert isinstance(assert_loaders_agree(tmp_path, observations, outcomes), Cohort)

    @pytest.mark.parametrize("observations, outcomes, options", [
        (["A,1,v01,60", "A,2,v02,61", "B,3,v01,1"], ["A,1,5,2", "B,0,,21"], {"newline": "\r\n"}),
        (['"A,1",1,v01,60', '"A,1",2,v02,61', 'A,1,v01,2'], ['"A,1",0,,21', "A,0,,9"], {}),
        (["60,v01,x,A,1", "61,v02,y,A,2"], ["A,0,,21"],
         {"obs_header": "value,variable,note,subject_id,day"}),
        (["", "A,1,v01,60", "", "", "A,2,v02,61", ""], ["", "A,1,5,2", ""], {}),
        ([" A ,1, v01 ,60", "A,2,v02\t,61", "\tB,1,v03,2"], [" A,0,,21", "B ,1, 4 ,"], {}),
        ([" 2,1_0 ,v01, 7.5 ", "A,١,v02,1E3", "A,+3,v03,-0", "A,0_4,v04,1_000.25"], ["A,0,,21", "2,0,,11"], {}),
        ([], [], {}),
        ([], ["A,0,,21"], {}),
        (["A\0,1,v01,60", "B,1,v01,6", "A\0,2,v02,61"], ["A\0,0,,21", "B,1,2,"], {}),
        ([f"{'A' * 70_000},1,v01,{' ' * 70_000}60"], [f"{'A' * 70_000},0,,21"], {}),
    ], ids=["crlf", "quoted_id_with_comma", "reordered_header_extra_column", "blank_lines",
            "whitespace_padded", "number_spellings", "header_only", "no_observations", "nul_in_field",
            "long_line_short_fields"])
    def test_format_cases(self, tmp_path, observations, outcomes, options):
        want = assert_loaders_agree(tmp_path, observations, outcomes, **options)
        # the csv module reads a NUL as a character from Python 3.11 on; before, it rejects the file
        assert isinstance(want, Cohort) or (sys.version_info < (3, 11) and "line contains NUL" in want[1])

    def test_same_records_through_either_tokenizer(self, tmp_path, monkeypatch):
        """Thousands of plain records, then the same with the last record's id quoted, which only csv.reader reads."""
        observations, outcomes = synthetic_lines(tmp_path, 19, shuffle=True, n_subjects=150)
        assert len(observations) > 2_000
        plain = assert_loaders_agree(tmp_path, observations, outcomes)
        assert isinstance(plain, Cohort)
        with monkeypatch.context() as patch:
            patch.setattr(csv, "reader", None)  # plain text is split without it
            got = load_cohort(tmp_path / "observations.csv", tmp_path / "outcomes.csv", tmp_path / "variables.txt")
        assert_same_cohort(got, plain)
        sid, rest = observations[-1].split(",", 1)
        quoted = assert_loaders_agree(tmp_path, [*observations[:-1], f'"{sid}",{rest}'], outcomes)
        assert_same_cohort(quoted, plain)

    @pytest.mark.parametrize("blank_lines", [False, True], ids=["dense", "blank_lines"])
    @pytest.mark.parametrize("name", [*OBSERVATION_FAULTS, *OUTCOME_FAULTS])
    def test_each_fault_at_random_lines(self, tmp_path, name, blank_lines):
        observations, outcomes = synthetic_lines(tmp_path, 11)
        rng = np.random.default_rng([*OBSERVATION_FAULTS, *OUTCOME_FAULTS].index(name))
        n = len(observations) if name in OBSERVATION_FAULTS else len(outcomes)
        for i in sorted(rng.choice(np.arange(1, n), size=3, replace=False)):
            faulty = with_faults(observations, outcomes, [(name, i)])
            if blank_lines:
                faulty = [with_blank_lines(lines, rng) for lines in faulty]
            assert not isinstance(assert_loaders_agree(tmp_path, *faulty), Cohort)

    @pytest.mark.parametrize("file_faults", [OBSERVATION_FAULTS, OUTCOME_FAULTS], ids=["observations", "outcomes"])
    def test_pairs_of_faults_in_both_orders(self, tmp_path, file_faults):
        """Two faults on two lines, and both rewrites applied to one line, for every ordered pair of faults."""
        observations, outcomes = synthetic_lines(tmp_path, 13)
        n = len(observations) if file_faults is OBSERVATION_FAULTS else len(outcomes)
        rng = np.random.default_rng(13)
        for a, b in itertools.permutations(file_faults, 2):
            i = int(rng.integers(1, n - 2))
            j = int(rng.integers(i + 2, n))  # a fault that copies line j - 1 must not copy line i's fault
            faulty = with_faults(observations, outcomes, [(a, i), (b, j)])
            assert not isinstance(assert_loaders_agree(tmp_path, *faulty), Cohort)
            # the second rewrite may undo the first (a short row made long again), so only agreement is asserted
            assert_loaders_agree(tmp_path, *with_faults(observations, outcomes, [(a, i), (b, i)]))

    def test_fault_after_multiline_record(self, tmp_path):
        observations = ['"A\nB",1,v01,60', 'A,1,v01,60', '"C\n\nD",1,v01,6']
        outcomes = ['"A\nB",0,,21', "A,0,,21", '"C\n\nD",0,,21']
        assert isinstance(assert_loaders_agree(tmp_path, observations, outcomes), Cohort)
        for bad in ("A,1,v01,fast", "A,1,v01", "A,1,glow,60"):
            want = assert_loaders_agree(tmp_path, [*observations, "", bad], outcomes)
            assert "observations.csv line 9: " in want[1]

    @pytest.mark.parametrize("headers, faults", [
        ({"obs_header": "subject_id,day,value"}, [("short_row", 2), ("unknown_variable", 1)]),
        ({"out_header": "subject,ssi,onset_day"}, [("outcome_long_row", 2), ("ssi_not_integer", 1)]),
        ({"obs_header": "subject_id,variable,value", "out_header": "subject_id,ssi,last_obs_day"},
         [("short_row", 2), ("outcome_long_row", 1)]),
    ], ids=["observations", "outcomes", "both"])
    def test_missing_columns_come_before_row_faults(self, tmp_path, headers, faults):
        observations, outcomes = with_faults(*synthetic_lines(tmp_path, 11), faults)
        want = assert_loaders_agree(tmp_path, observations, outcomes, **headers)
        assert "missing columns" in want[1]

    def test_one_fault_in_each_file(self, tmp_path):
        observations, outcomes = synthetic_lines(tmp_path, 15)
        rng = np.random.default_rng(15)
        for a, b in itertools.product(OBSERVATION_FAULTS, OUTCOME_FAULTS):
            faults = [(a, int(rng.integers(1, len(observations)))), (b, int(rng.integers(1, len(outcomes))))]
            assert not isinstance(assert_loaders_agree(tmp_path, *with_faults(observations, outcomes, faults)), Cohort)

    def test_subject_faults(self, tmp_path):
        observations, outcomes = synthetic_lines(tmp_path, 17)
        missing = [line for line in outcomes if not line.startswith("S03,")]
        assert assert_loaders_agree(tmp_path, observations, missing)[0] is MissingOutcomeError
        early = [set_field(set_field(line, 1, "1"), 2, "1") if line.startswith(("S05,", "S07,")) else line
                 for line in outcomes]
        assert assert_loaders_agree(tmp_path, observations, early)[0] is InvalidOnsetError
        event_id = next(line.split(",")[0] for line in outcomes if line.split(",")[1] == "1")
        far = [*observations[:5], f"{event_id},1000000,v01,1", *observations[5:]]
        want = assert_loaders_agree(tmp_path, far, outcomes)
        assert want[0] is DataError and "days per row are allowed" in want[1]


def write_reference(cohort, observations_path, outcomes_path, dictionary_path):
    """write_cohort as a cell-at-a-time loop: one csv.writer row per observed cell."""
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
            if s.event:
                writer.writerow([s.subject_id, 1, "%.17g" % s.outcome_day, s.last_day])
            else:
                writer.writerow([s.subject_id, 0, "", "%.17g" % s.outcome_day])


def assert_writers_agree(tmp_path, cohort):
    """write_cohort and write_reference produce the same bytes in all three files."""
    files = {}
    for name, write in (("new", write_cohort), ("ref", write_reference)):
        paths = [tmp_path / f"{name}_{f}" for f in ("observations.csv", "outcomes.csv", "variables.txt")]
        write(cohort, *paths)
        files[name] = [p.read_bytes() for p in paths]
    assert files["new"] == files["ref"]
    return files["new"]


AWKWARD_TEXT = ["plain", "with,comma", 'with"quote', "with\rcr", "with\nlf", "a\r\nb", " lead", "trail ",
                " both ", "Zürich-Ω-日本", "", '"', ",", "x\ty"]


class TestWriterMatchesRowLoop:
    """write_cohort writes the same bytes as a cell-at-a-time csv.writer loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_synthetic_cohorts(self, tmp_path, seed):
        cohort, _ = generate_cohort(
            SyntheticSpec(n_subjects=15, days_per_subject=8, P=5, T_star=3, true_rank=2,
                          noise_sigma=1.0, censor_horizon=10, missing_rate=0.3, seed=seed)
        )
        rng = np.random.default_rng(seed)
        subjects = []
        for s in cohort.subjects:  # shift the first day and blank whole days
            values = s.values.copy()
            values[rng.random(values.shape[0]) < 0.2] = np.nan
            values[0, 0] = values[-1, 0] = 1.0  # keep the first and last day observed
            shift = int(rng.integers(0, 5))
            subjects.append((s.subject_id, s.first_day + shift, values, s.event, s.outcome_day + shift))
        shifted = make_cohort(subjects, cohort.variables)
        assert any(s.first_day > 1 for s in shifted.subjects)
        assert any(np.isnan(s.values).all(axis=1).any() for s in shifted.subjects)
        assert set(shifted.event.tolist()) == {True, False}
        assert_writers_agree(tmp_path, cohort)
        observations = assert_writers_agree(tmp_path, shifted)[0].decode().splitlines()
        assert len(observations) == 1 + int((~np.isnan(shifted.days)).sum())

    def test_awkward_ids_and_names(self, tmp_path):
        subjects = [(text, 2 + i, np.arange(len(AWKWARD_TEXT) * 2.0).reshape(2, -1) + i, i % 2 == 1,
                     9.5 if i % 2 else 30) for i, text in enumerate(AWKWARD_TEXT)]
        observations = assert_writers_agree(tmp_path, make_cohort(subjects, AWKWARD_TEXT))[0].decode()
        assert '"with,comma"' in observations and '"with""quote"' in observations

    def test_values_that_need_17_digits(self, tmp_path):
        values = np.array([[1 / 3, -0.0, 5e-324, 1.7976931348623157e308, 60.0],
                           [-1 / 3, np.nan, -5e-324, -1.7976931348623157e308, 0.1]])
        subjects = [("A", 1, values, True, 1 / 3 + 3), ("B", 4, values[::-1], False, 7.1)]
        observations = assert_writers_agree(tmp_path, make_cohort(subjects, ["a", "b", "c", "d", "e"]))[0].decode()
        assert "A,1,a,0.33333333333333331\n" in observations and "A,1,b,-0\n" in observations
        assert "A,1,c,4.9406564584124654e-324\n" in observations and "A,1,e,60\n" in observations

    def test_no_subjects(self, tmp_path):
        files = assert_writers_agree(tmp_path, make_cohort([], ["hr", "temp"]))
        assert files == [b"subject_id,day,variable,value\n", b"subject_id,ssi,onset_day,last_obs_day\n",
                         b"hr\ntemp\n"]


class TestExtractWindows:
    def test_event_label(self):
        # onset day 7, window days 1..5: two days of lead time remain
        windows = extract_windows(tiny_cohort(), T=5)
        a = windows[windows.subject_id == "A"]
        assert len(a) == 1
        assert a.end_day[0] == 5 and a.y[0] == 2.0 and not a.censored[0]

    def test_censored_label_uses_horizon(self):
        windows = extract_windows(tiny_cohort(), T=5, horizon=21)
        b = [w for w in windows if w.subject_id == "B"]
        assert [w.y for w in b] == [16.0, 15.0]
        assert all(w.censored for w in b)

    def test_short_subject_yields_nothing(self):
        a = tiny_cohort().subjects[0]
        cohort = make_cohort([(a.subject_id, a.first_day, a.values[:3], a.event, a.outcome_day)], ["v01", "v02"])
        assert len(extract_windows(cohort, T=5)) == 0

    def test_complete_windows_end_before_onset(self):
        cohort, _ = generate_cohort(
            SyntheticSpec(n_subjects=30, days_per_subject=12, P=3, T_star=3,
                          true_rank=1, noise_sigma=2.0, censor_horizon=12, seed=2)
        )
        onset = {s.subject_id: s.outcome_day for s in cohort.subjects if s.event}
        windows = extract_windows(cohort, T=3, horizon=12)
        for sid, end_day, censored in zip(windows.subject_id, windows.end_day, windows.censored):
            if not censored:
                assert end_day < onset[sid]

    def test_indexing(self):
        windows = extract_windows(tiny_cohort(), T=3)
        w = windows[-1]
        assert isinstance(w, WindowSample) and np.shares_memory(w.x, windows.days)
        assert (w.y, w.censored, w.subject_id) == (windows.y[-1], True, "B")
        w.x[0, 0] = 99.0
        assert windows.days[windows.start[-1], 0] == 99.0
        assert [v.subject_id for v in windows] == windows.subject_id.tolist()
        for pick in (np.array([3, 0]), slice(1, 3), [2]):
            part = windows[pick]
            assert isinstance(part, Windows) and part.days is windows.days and part.T == 3
            for field in ("start", "y", "censored", "subject_id", "end_day"):
                assert np.array_equal(getattr(part, field), getattr(windows, field)[pick])

    @pytest.mark.parametrize("T,stride", [(2, 1), (3, 2), (4, 3)])
    def test_window_count_formula(self, T, stride):
        cohort, _ = generate_cohort(
            SyntheticSpec(n_subjects=25, days_per_subject=11, P=3, T_star=4,
                          true_rank=1, noise_sigma=3.0, censor_horizon=14, seed=9)
        )
        windows = extract_windows(cohort, T=T, stride=stride, horizon=14)
        for s in cohort.subjects:
            D = s.values.shape[0]
            if s.event:
                last_ok = min(s.last_day, int(np.ceil(s.outcome_day)) - 1)
                d_eligible = max(0, last_ok - s.first_day + 1)
            else:
                d_eligible = D
            expected = max(0, (d_eligible - T) // stride + 1) if d_eligible >= T else 0
            got = sum(1 for w in windows if w.subject_id == s.subject_id)
            assert got == expected


class TestVectorize:
    def test_row_concatenation(self):
        assert vectorize(np.array([[1, 2], [3, 4]])).tolist() == [1, 2, 3, 4]

    def test_singleton(self):
        assert vectorize(np.array([[5]])).tolist() == [5]

    def test_single_row(self):
        row = np.array([[7.0, 8.0, 9.0]])
        assert np.array_equal(vectorize(row), row[0])

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            T, P = rng.integers(1, 7, size=2)
            x = rng.standard_normal((T, P))
            assert np.array_equal(unvectorize(vectorize(x), T, P), x)


class TestAssembleDesign:
    def _windows(self, n_c, n_z, T=2, P=2):
        n = n_c + n_z
        return make_windows(np.random.default_rng(0).standard_normal((n, T, P)), y=np.arange(1.0, n + 1),
                            censored=np.arange(n) >= n_c)

    def test_shapes(self):
        design = assemble_design(self._windows(3, 2))
        assert design.X.shape == (4, 5) and (design.T, design.P) == (2, 2)
        assert design.X[:, ~design.censored].shape == (4, 3)
        assert design.X[:, design.censored].shape == (4, 2)
        assert design.y[~design.censored].tolist() == [1.0, 2.0, 3.0]

    def test_no_censored_samples(self):
        design = assemble_design(self._windows(3, 0))
        assert design.X[:, design.censored].shape == (4, 0)

    def test_keeps_window_order(self):
        windows = make_windows(np.random.default_rng(1).standard_normal((6, 3, 2)), y=np.arange(6.0),
                               censored=[True, False, False, True, False, True])
        design = assemble_design(windows)
        assert np.array_equal(design.y, windows.y) and np.array_equal(design.censored, windows.censored)
        assert all(np.array_equal(design.X[:, i], windows[i].x.ravel()) for i in range(6))

    def test_unimputed_rejected(self):
        windows = self._windows(2, 0)
        windows[1].x[0, 0] = np.nan
        with pytest.raises(UnimputedSampleError, match="subject 'S1' ending day 2 has unimputed cells"):
            assemble_design(windows)


class TestSplitFolds:
    def _windows(self, n, subjects=None):
        return make_windows(np.zeros((n, 1, 1)), subject_ids=subjects)

    def test_equal_folds(self):
        folds = split_folds(self._windows(10), k=5, seed=1)
        assert [len(f) for f in folds] == [2] * 5

    def test_deterministic(self):
        w = self._windows(13)
        a = split_folds(w, k=4, seed=7)
        b = split_folds(w, k=4, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_partition(self):
        w = self._windows(23)
        folds = split_folds(w, k=4, seed=3)
        merged = np.concatenate(folds)
        assert sorted(merged.tolist()) == list(range(23))
        sizes = sorted(len(f) for f in folds)
        assert sizes[-1] - sizes[0] <= 1

    def test_subject_unit_keeps_subjects_together(self):
        subjects = ["A", "A", "B", "B", "B", "C", "D", "D", "E", "F"]
        w = self._windows(len(subjects), subjects)
        folds = split_folds(w, k=3, unit="subject", seed=11)
        for fold in folds:
            fold_subjects = {subjects[i] for i in fold}
            for i, sid in enumerate(subjects):
                if sid in fold_subjects:
                    assert i in fold

    def test_too_many_folds(self):
        with pytest.raises(DataError):
            split_folds(self._windows(3), k=4, seed=0)


def extract_reference(cohort, T, stride=1, horizon=21):
    """extract_windows as a window-at-a-time loop: (start row, y, censored, subject id, end day) per window."""
    out, first_row = [], 0
    for series in cohort.subjects:
        D = series.values.shape[0]
        for start in range(0, D - T + 1, stride):
            end_day = series.first_day + start + T - 1
            if series.event:
                if end_day >= series.outcome_day:
                    break
                y, censored = series.outcome_day - end_day, False
            else:
                y, censored = max(horizon - end_day, 0.0), True
            out.append((first_row + start, float(y), censored, series.subject_id, end_day))
        first_row += D
    return out


def split_reference(subject_ids, k, unit, seed):
    """split_folds as a window-at-a-time loop over the windows' subject ids."""
    rng = np.random.default_rng(seed)
    n = len(subject_ids)
    if unit == "sample":
        perm = rng.permutation(n)
        base, extra = divmod(n, k)
        folds, pos = [], 0
        for f in range(k):
            size = base + (1 if f < extra else 0)
            folds.append(np.sort(perm[pos:pos + size]))
            pos += size
        return folds
    subject_order, by_subject = [], {}
    for i, sid in enumerate(subject_ids):
        if sid not in by_subject:
            by_subject[sid] = []
            subject_order.append(sid)
        by_subject[sid].append(i)
    fold_members = [[] for _ in range(k)]
    for pos in rng.permutation(len(subject_order)):
        target = min(range(k), key=lambda f: (len(fold_members[f]), f))
        fold_members[target].extend(by_subject[subject_order[pos]])
    return [np.sort(np.asarray(members, dtype=int)) for members in fold_members]


def random_cohort(seed, n_subjects=30, P=2):
    """Subjects of 1-11 days with shuffled ids, censored or with whole-day, fractional or very early onsets."""
    rng = np.random.default_rng(seed)
    subjects = []
    for i in rng.permutation(n_subjects):
        D, first = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        kind = int(rng.integers(4))
        if kind == 0:
            outcome_day = float(rng.integers(first + D - 1, 30))  # censored
        elif kind == 1:
            outcome_day = float(first + rng.integers(1, D + 4))  # whole-day onset
        elif kind == 2:
            outcome_day = first + rng.uniform(0.1, D + 3)  # fractional
        else:
            outcome_day = first + rng.uniform(0.5, 2.0)  # before the first full window of T >= 3
        subjects.append((f"id{i:02d}", first, rng.standard_normal((D, P)), kind != 0, outcome_day))
    return make_cohort(subjects, [f"v{j}" for j in range(P)])


class TestWindowsMatchWindowLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("T, stride, horizon", [
        (1, 1, 21), (3, 1, 21), (2, 3, 12), (4, 6, 21.0), (3, 2, 1), (12, 1, 21), (11, 2, 21),
    ])
    def test_random_cohorts(self, seed, T, stride, horizon):
        cohort = random_cohort(seed)
        windows = extract_windows(cohort, T, stride=stride, horizon=horizon)
        want = extract_reference(cohort, T, stride, horizon)
        got = list(zip(windows.start.tolist(), windows.y.tolist(), windows.censored.tolist(),
                       windows.subject_id.tolist(), windows.end_day.tolist()))
        assert got == want
        assert windows.T == T
        assert np.array_equal(windows.days, cohort.days) and not np.shares_memory(windows.days, cohort.days)

    def test_every_onset_kind_and_a_subject_shorter_than_T_occur(self):
        cohort = random_cohort(0)
        onsets = [s.outcome_day - s.first_day for s in cohort.subjects if s.event]
        assert not cohort.event.all()
        assert any(d == int(d) for d in onsets) and any(d != int(d) for d in onsets) and min(onsets) < 2
        assert min(s.values.shape[0] for s in cohort.subjects) < 3

    def test_no_subjects(self):
        cohort = make_cohort([], ["v0", "v1"])
        windows = extract_windows(cohort, 3, stride=2)
        assert len(windows) == 0 and windows.days.shape == (0, 2) and list(windows) == []
        assert extract_reference(cohort, 3, 2) == []

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("unit", ["sample", "subject"])
    def test_split_folds(self, seed, unit):
        windows = extract_windows(random_cohort(seed), 2)
        shuffled = windows[np.random.default_rng(seed).permutation(len(windows))]
        for ws in (windows, shuffled):
            for k in (2, 5):
                got = split_folds(ws, k, unit=unit, seed=seed)
                want = split_reference(ws.subject_id.tolist(), k, unit, seed)
                assert [f.tolist() for f in got] == [f.tolist() for f in want]
