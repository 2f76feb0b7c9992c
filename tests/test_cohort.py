import numpy as np
import pytest

from cenrank.cohort import (
    Censored,
    Event,
    assemble_design,
    extract_windows,
    load_cohort,
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
from helpers import tiny_cohort, write_cohort_files


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
        assert a.outcome == Event(onset_day=5)
        assert b.first_day == 3 and b.values[0, 0] == 70
        assert b.outcome == Censored(horizon_day=21)

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
        assert a.last_day == 9 and a.outcome == Event(onset_day=5)

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
            assert got.outcome == want.outcome


class TestExtractWindows:
    def test_event_label(self):
        # onset day 7, window days 1..5: two days of lead time remain
        windows = extract_windows(tiny_cohort(), T=5)
        a = [w for w in windows if w.subject_id == "A"]
        assert len(a) == 1
        assert a[0].window_end_day == 5 and a[0].y == 2.0 and not a[0].censored

    def test_censored_label_uses_horizon(self):
        windows = extract_windows(tiny_cohort(), T=5, horizon=21)
        b = [w for w in windows if w.subject_id == "B"]
        assert [w.y for w in b] == [16.0, 15.0]
        assert all(w.censored for w in b)

    def test_short_subject_yields_nothing(self):
        cohort = tiny_cohort()
        cohort.subjects = [cohort.subjects[0]]
        cohort.subjects[0].values = cohort.subjects[0].values[:3]
        cohort.subjects[0].mask = cohort.subjects[0].mask[:3]
        assert extract_windows(cohort, T=5) == []

    def test_complete_windows_end_before_onset(self):
        cohort, _ = generate_cohort(
            SyntheticSpec(n_subjects=30, days_per_subject=12, P=3, T_star=3,
                          true_rank=1, noise_sigma=2.0, censor_horizon=12, seed=2)
        )
        for w in extract_windows(cohort, T=3, horizon=12):
            if not w.censored:
                subject = next(s for s in cohort.subjects if s.subject_id == w.subject_id)
                assert w.window_end_day < subject.outcome.onset_day

    @pytest.mark.parametrize("T,stride", [(2, 1), (3, 2), (4, 3)])
    def test_window_count_formula(self, T, stride):
        cohort, _ = generate_cohort(
            SyntheticSpec(n_subjects=25, days_per_subject=11, P=3, T_star=4,
                          true_rank=1, noise_sigma=3.0, censor_horizon=14, seed=9)
        )
        windows = extract_windows(cohort, T=T, stride=stride, horizon=14)
        for s in cohort.subjects:
            D = s.values.shape[0]
            if isinstance(s.outcome, Event):
                last_ok = min(s.last_day, int(np.ceil(s.outcome.onset_day)) - 1)
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
    def _samples(self, n_complete, n_censored, T=2, P=2):
        rng = np.random.default_rng(0)
        from cenrank.cohort import WindowSample

        out = []
        for i in range(n_complete + n_censored):
            out.append(
                WindowSample(
                    x=rng.standard_normal((T, P)),
                    x_mask=np.ones((T, P), dtype=bool),
                    y=float(i + 1),
                    censored=i >= n_complete,
                    subject_id=f"S{i}",
                    window_end_day=T,
                )
            )
        return out

    def test_shapes(self):
        design = assemble_design(self._samples(3, 2))
        assert design.X_complete.shape == (4, 3)
        assert design.X_censored.shape == (4, 2)
        assert design.y_complete.tolist() == [1.0, 2.0, 3.0]

    def test_empty_censored_side(self):
        design = assemble_design(self._samples(3, 0))
        assert design.X_censored.shape == (4, 0)

    def test_unimputed_rejected(self):
        samples = self._samples(2, 0)
        samples[1].x_mask[0, 0] = False
        with pytest.raises(UnimputedSampleError):
            assemble_design(samples)

    def test_mixed_shapes_rejected(self):
        samples = self._samples(2, 0) + self._samples(1, 0, T=3)
        with pytest.raises(DataError):
            assemble_design(samples)


class TestSplitFolds:
    def _windows(self, n, subjects=None):
        from cenrank.cohort import WindowSample

        out = []
        for i in range(n):
            sid = subjects[i] if subjects else f"S{i}"
            out.append(WindowSample(np.zeros((1, 1)), np.ones((1, 1), bool), 1.0, False, sid, 1))
        return out

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
