import csv
import functools
import hashlib
import json
import math
import os
import struct
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdseizure import dataio
from hdseizure.dataio import (
    MODEL_MAGIC,
    CohortSpec,
    generate_synthetic_cohort,
    load_model,
    read_cohort,
    read_feature_cohort,
    read_features,
    read_record,
    read_report,
    save_model,
    synthetic_model_cohort,
    write_cohort,
    write_evolution_csv,
    write_features,
    write_matrices_csv,
    write_record,
    write_report,
    write_reports_csv,
    write_sweep_csv,
)
from hdseizure.encoding import Codebooks, build_codebooks, fit_ranges
from hdseizure.errors import CorruptModelError, IncompatibleModelsError, ParseError
from hdseizure.evaluation import EvalReport
from hdseizure.features import FeatureMatrix, SignalRecord
from hdseizure.hypervector import random_hypervector
from hdseizure.training import ClassModel

SMALL = dict(num_subjects=2, records_per_subject=3, fs=64.0, num_channels=2,
             seizure_sec=8.0, non_seizure_sec=8.0, seizure_freq_range=(3.0, 8.0))


class TestCohortSpec:
    def test_defaults_valid(self):
        spec = CohortSpec()
        assert spec.num_subjects == 20
        assert spec.fs == 256.0
        assert spec.num_channels == 18

    @pytest.mark.parametrize("kw", [
        dict(num_subjects=0),
        dict(records_per_subject=2),
        dict(fs=0.0),
        dict(num_channels=0),
        dict(seizure_sec=0.0),
        dict(non_seizure_sec=-1.0),
        dict(shared_background_weight=1.5),
        dict(seizure_freq_range=(0.0, 8.0)),
        dict(seizure_freq_range=(8.0, 3.0)),
        dict(seizure_freq_range=(3.0, 200.0)),
        dict(seizure_amp_gain=0.0),
        dict(seizure_amp_gain=1e308),  # a finite gain whose rhythm amplitude is inf
    ])
    def test_invalid_fields(self, kw):
        with pytest.raises(ValueError):
            CohortSpec(**kw)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["fs", "seizure_sec", "non_seizure_sec", "seizure_amp_gain"])
    def test_non_finite_field_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
            CohortSpec(**{name: value})

    @pytest.mark.parametrize("kw, name", [
        (dict(seizure_sec=1e308), "seizure_sec"),
        (dict(non_seizure_sec=1e308), "non_seizure_sec"),
        (dict(fs=1e308), "seizure_sec"),
        (dict(seizure_sec=1e-9), "seizure_sec"),
        (dict(non_seizure_sec=1e-9), "non_seizure_sec"),
        (dict(seizure_sec=0.5 / 64), "seizure_sec"),  # half a sample rounds to none
    ])
    def test_span_not_a_finite_sample_count_named(self, kw, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite and at least one sample"):
            CohortSpec(**{**SMALL, **kw})

    def test_spans_of_one_sample_and_more_accepted(self):
        CohortSpec(**{**SMALL, "seizure_sec": 1 / 64, "non_seizure_sec": 0.6 / 64})
        # Large finite spans are valid settings that only cost memory or time
        # to generate; generating them is untested, so only the spec is built.
        CohortSpec(**{**SMALL, "seizure_sec": 1e12, "non_seizure_sec": 1e12})


class TestSyntheticCohort:
    def test_same_seed_bit_identical(self):
        a = generate_synthetic_cohort(CohortSpec(**SMALL, seed=9))
        b = generate_synthetic_cohort(CohortSpec(**SMALL, seed=9))
        for ra, rb in zip(a[0] + a[1], b[0] + b[1]):
            assert np.array_equal(ra.samples, rb.samples)
            assert np.array_equal(ra.labels, rb.labels)

    def test_seed_changes_signal(self):
        a = generate_synthetic_cohort(CohortSpec(**SMALL, seed=1))
        b = generate_synthetic_cohort(CohortSpec(**SMALL, seed=2))
        assert not np.allclose(a[0][0].samples, b[0][0].samples)

    def test_shapes_and_labels(self):
        spec = CohortSpec(**SMALL, seed=3)
        cohort = generate_synthetic_cohort(spec)
        assert len(cohort) == 2
        assert all(len(records) == 3 for records in cohort)
        rec = cohort[1][2]
        n = round((spec.seizure_sec + spec.non_seizure_sec) * spec.fs)
        assert rec.samples.shape == (2, n)
        n_ns = round(spec.non_seizure_sec * spec.fs)
        assert not rec.labels[:n_ns].any()
        assert rec.labels[n_ns:].all()
        assert rec.subject_id == "s001"
        assert rec.record_id == "r02"

    def test_background_rms_scale(self):
        cohort = generate_synthetic_cohort(CohortSpec(**SMALL, seed=4))
        rec = cohort[0][0]
        ns = rec.samples[:, rec.labels == 0]
        assert 24.0 < ns.std() < 36.0

    def test_gain_one_leaves_background_untouched(self):
        base = dict(SMALL, seed=5)
        flat = generate_synthetic_cohort(CohortSpec(**base, seizure_amp_gain=1.0))
        loud = generate_synthetic_cohort(CohortSpec(**base, seizure_amp_gain=3.0))
        f, l = flat[0][0], loud[0][0]
        ns = f.labels == 0
        assert np.array_equal(f.samples[:, ns], l.samples[:, ns])
        assert not np.allclose(f.samples[:, ~ns], l.samples[:, ~ns])

    def test_seizure_band_power_raised(self):
        spec = CohortSpec(**SMALL, seed=6)
        cohort = generate_synthetic_cohort(spec)
        for records in cohort:
            for rec in records:
                s = rec.samples[0, rec.labels == 1]
                ns = rec.samples[0, rec.labels == 0]

                def band_power(x):
                    spec_x = np.abs(np.fft.rfft(x - x.mean())) ** 2
                    freqs = np.fft.rfftfreq(x.size, 1 / rec.fs)
                    return spec_x[(freqs >= 2.5) & (freqs <= 9.0)].sum() / x.size

                assert band_power(s) > 1.5 * band_power(ns)

    def test_default_channel_names(self):
        spec = CohortSpec(num_subjects=1, records_per_subject=3, fs=64.0,
                          seizure_sec=2.0, non_seizure_sec=2.0, seed=0)
        rec = generate_synthetic_cohort(spec)[0][0]
        assert len(rec.channels) == 18
        assert rec.channels[0] != "ch01"


class TestSyntheticModelCohort:
    def test_expected_similarity_structure(self):
        from hdseizure.similarity import pairwise_matrices

        models = synthetic_model_cohort(12, dim=10000, seed=2)
        ss, nsns, sns = pairwise_matrices(models).off_diagonal_means()
        assert abs(nsns - 0.745) < 0.02  # 1 - 2 * 0.15 * 0.85
        assert abs(ss - 0.545) < 0.02  # 1 - 2 * 0.35 * 0.65
        assert abs(sns - 0.5) < 0.02
        assert nsns > ss > sns

    def test_deterministic_and_validated(self):
        a = synthetic_model_cohort(3, dim=256, seed=1)
        b = synthetic_model_cohort(3, dim=256, seed=1)
        assert all(x.seizure == y.seizure for x, y in zip(a, b))
        with pytest.raises(ValueError):
            synthetic_model_cohort(0)
        with pytest.raises(ValueError):
            synthetic_model_cohort(3, s_flip=1.2)


def with_fast_path_results(read, path):
    """read(path), and what each numpy fast-path attempt returned."""
    parsed, parse_body = [], dataio._parse_body

    def spy(*args):
        parsed.append(parse_body(*args))
        return parsed[-1]

    with mock.patch.object(dataio, "_parse_body", spy):
        return read(path), parsed


def tiny_record(rng, channels=("c1", "c2"), n=64, fs=32.0):
    return SignalRecord(
        fs=fs,
        channels=list(channels),
        samples=rng.normal(0, 30, (len(channels), n)),
        labels=(rng.random(n) < 0.3).astype(np.uint8),
        record_id="r00",
        subject_id="s000",
    )


class TestRecordCsv:
    def test_round_trip(self, tmp_path):
        rec = tiny_record(np.random.default_rng(0))
        path = tmp_path / "rec.csv"
        write_record(rec, path)
        back = read_record(path)
        assert back.fs == rec.fs
        assert back.channels == rec.channels
        assert np.abs(back.samples - rec.samples).max() < 1e-9
        assert np.array_equal(back.labels, rec.labels)

    def test_crlf_equals_lf(self, tmp_path):
        rec = tiny_record(np.random.default_rng(1), n=16)
        lf = tmp_path / "lf.csv"
        write_record(rec, lf)
        text = lf.read_text()
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        a, b = read_record(lf), read_record(crlf)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,c1,c2\n0.0,1.0,2.0\n")
        with pytest.raises(ParseError) as err:
            read_record(path)
        assert "label" in str(err.value)
        assert err.value.line == 1

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,c1,label\n0.0,1.0,0\n0.5,2.0\n1.0,3.0,1\n")
        with pytest.raises(ParseError) as err:
            read_record(path)
        assert err.value.line == 3

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,c1,label\n0.0,1.0,0\n0.5,oops,1\n")
        with pytest.raises(ParseError) as err:
            read_record(path)
        assert err.value.line == 3

    def test_unknown_label_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,c1,label\n0.0,1.0,0\n0.5,1.0,2\n")
        with pytest.raises(ParseError) as err:
            read_record(path)
        assert err.value.line == 3

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,c1,label\n0.0,1.0,0\n")
        with pytest.raises(ParseError):
            read_record(path)

    @pytest.mark.parametrize(
        "times, line",
        [
            ([0.0, 0.0, 0.5, 1.0], 3),  # repeated first timestamp
            ([0.5, 0.0, 0.5, 1.0], 3),  # decreasing first step
            ([0.0, 0.5, 1.0, 1.0, 1.5], 5),  # repeated timestamp
            ([0.0, 0.5, 1.0, 0.5, 1.0], 5),  # decreasing timestamp
            ([0.0, 0.5, 1.0, 3.0, 3.5], 5),  # a 4-sample gap
            ([0.0, 0.5, 1.0, 1.25, 1.5], 5),  # a half-period step
            ([0.0, 0.5, float("nan"), 1.5], 4),
            ([float("nan"), 0.5, 1.0], 3),
        ],
    )
    def test_time_column_must_step_by_one_period(self, tmp_path, times, line):
        path = tmp_path / "bad.csv"
        path.write_text(
            "time_s,c1,label\n" + "".join(f"{t!r},1.0,0\n" for t in times)
        )
        with pytest.raises(ParseError, match="time column") as err:
            read_record(path)
        assert err.value.line == line

    def test_gap_in_written_record(self, tmp_path):
        rec = tiny_record(np.random.default_rng(2), n=64, fs=256.0)
        path = tmp_path / "rec.csv"
        write_record(rec, path)
        lines = path.read_text().splitlines(True)
        path.write_text("".join(lines[:20] + lines[24:]))  # drop samples 19..22
        with pytest.raises(ParseError, match="time column steps by") as err:
            read_record(path)
        assert err.value.line == 21

    def test_timestamp_jitter_within_tolerance(self, tmp_path):
        rng = np.random.default_rng(3)
        times = np.arange(40) / 256 + rng.uniform(-0.002, 0.002, 40) / 256
        times[:2] = [0.0, 1 / 256]
        path = tmp_path / "rec.csv"
        path.write_text("time_s,c1,label\n" + "".join(f"{t:.12g},1.0,0\n" for t in times))
        fs = read_record(path).fs
        assert fs == 256.0 and type(fs) is float

    def test_long_record_timestamps_accepted(self, tmp_path):
        # %.12g keeps far more than 1 % of a period on a day-long record
        path = tmp_path / "rec.csv"
        start = 86400 * 256
        path.write_text("time_s,c1,label\n" + "".join(
            f"{(start + i) / 256:.12g},0,0\n" for i in range(8)))
        assert read_record(path).fs == pytest.approx(256.0, rel=1e-5)

    def test_late_start_rate_from_whole_span(self, tmp_path):
        # 60 s at 256 Hz a day in: the first step alone reads 256.0033 Hz
        path = tmp_path / "rec.csv"
        start = 86400 * 256
        path.write_text("time_s,c1,label\n" + "".join(
            f"{(start + i) / 256:.12g},0,0\n" for i in range(60 * 256)))
        assert read_record(path).fs == 256.0

    def test_non_numeric_cell_after_blank_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,c1,label\n0.0,1.0,0\n\n0.5,oops,1\n")
        with pytest.raises(ParseError, match="non-numeric") as err:
            read_record(path)
        assert err.value.line == 4

    def test_time_error_after_blank_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,c1,label\n0.0,1.0,0\n\n0.5,1.0,0\n\n1.0,1.0,0\n1.0,1.0,0\n")
        with pytest.raises(ParseError, match="time column steps by 0") as err:
            read_record(path)
        assert err.value.line == 7

    def test_cell_over_csv_field_limit_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        wide = "0" * (csv.field_size_limit() + 1)
        path.write_text(f"time_s,c1,label\n0.0,1.0,0\n0.5,{wide},0\n")
        with pytest.raises(ParseError, match="field limit") as err:
            read_record(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_written_record_takes_fast_path(self, tmp_path, newline):
        rec = tiny_record(np.random.default_rng(4), n=40)
        path = tmp_path / "rec.csv"
        write_record(rec, path)
        path.write_bytes(path.read_text().replace("\n", newline).encode())
        back, parsed = with_fast_path_results(read_record, path)
        assert len(parsed) == 1 and parsed[0] is not None
        assert np.abs(back.samples - rec.samples).max() < 1e-9
        assert np.array_equal(back.labels, rec.labels)


def tiny_features(rng, nwin=9, nfeat=6):
    return FeatureMatrix(
        values=rng.normal(size=(nwin, nfeat)),
        window_labels=(rng.random(nwin) < 0.4).astype(np.uint8),
        window_start_sec=np.arange(nwin) * 0.5,
        feature_names=[f"c{i % 2}:f{i}" for i in range(nfeat)],
        channels=["c0", "c1"],
        features_per_channel=3,
        record_id="r01",
        subject_id="s003",
    )


class TestFeatureCsv:
    def test_round_trip_exact(self, tmp_path):
        fm = tiny_features(np.random.default_rng(2))
        path = tmp_path / "f.csv"
        write_features(fm, path)
        back = read_features(path, record_id="r01", subject_id="s003")
        assert np.array_equal(back.values, fm.values)
        assert np.array_equal(back.window_labels, fm.window_labels)
        assert np.array_equal(back.window_start_sec, fm.window_start_sec)
        assert back.feature_names == fm.feature_names
        assert back.record_id == "r01"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("start,label,f0\n0.0,0,1.0\n")
        with pytest.raises(ParseError):
            read_features(path)

    @pytest.mark.parametrize("label", ["0.7", "nan", "2", "-1", "inf"])
    def test_label_must_be_zero_or_one(self, tmp_path, label):
        path = tmp_path / "f.csv"
        path.write_text(f"start_sec,label,f0\n0.0,0,1.0\n0.5,1.0,2.0\n1.0,{label},3.0\n")
        with pytest.raises(ParseError, match="line 4: label must be 0 or 1") as err:
            read_features(path)
        assert err.value.line == 4

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("start_sec,label,f0,f1\n")
        with pytest.raises(ParseError, match="no window rows") as err:
            read_features(path)
        assert err.value.line == 2

    def test_bad_label_after_blank_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("start_sec,label,f0\n0.0,0,1.0\n\n1.0,0.7,3.0\n")
        with pytest.raises(ParseError, match="line 4: label must be 0 or 1, got 0.7") as err:
            read_features(path)
        assert err.value.line == 4

    def test_written_features_take_fast_path(self, tmp_path):
        fm = tiny_features(np.random.default_rng(5))
        path = tmp_path / "f.csv"
        write_features(fm, path)
        back, parsed = with_fast_path_results(read_features, path)
        assert len(parsed) == 1 and parsed[0] is not None
        assert np.array_equal(back.values, fm.values)


# ---- numpy fast path against the per-row csv path ----

NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.12g}"),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e5", "-2.5E-3", "+7", ".5", "5.", "-0", "1e400", "1e-400"]),
)
ODD_CELLS = st.sampled_from([
    "nan", "inf", "-inf", "Infinity", "NaN", "+nan", "1_0", "", "x", "#1", "1e", "--1",
    "1\x00", "\u0661", "0x10",
])
LABEL_CELLS = st.sampled_from([
    "2", "9", "0.7", "-1", "nan", "inf", "1.0", "0.0", "01", "+1", "1e0", "-0", "x", "",
])
SPACES = st.sampled_from([" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\u00a0"])


@st.composite
def numeric_csv(draw, label_last):
    """CSV text in the form the writers produce, with up to two edits."""
    nch = draw(st.integers(1, 3))
    names = [f"c{k}" for k in range(nch)]
    header = ["time_s", *names, "label"] if label_last else ["start_sec", "label", *names]
    label_col = nch + 1 if label_last else 1
    step = draw(st.sampled_from([0.5, 1 / 256, 1.0]))
    rows = []
    for i in range(draw(st.integers(2, 6))):
        row = [f"{i * step:.12g}", *(draw(NUMBER_CELLS) for _ in names)]
        row.insert(label_col, draw(st.sampled_from(["0", "1"])))
        rows.append(row)
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        r = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["label", "label", "time", "time", "cell", "quote",
                                     "underscore", "space", "ragged", "wide", "huge"]))
        c = {"label": label_col, "time": 0}.get(edit)
        if c is None or c >= len(rows[r]):  # a row an earlier edit cut short
            c = draw(st.integers(0, len(rows[r]) - 1))
        cell = rows[r][c]
        if edit == "label":
            rows[r][c] = draw(LABEL_CELLS)
        elif edit == "time":
            rows[r][c] = draw(NUMBER_CELLS)
        elif edit == "cell":
            rows[r][c] = draw(ODD_CELLS)
        elif edit == "quote":
            rows[r][c] = f'"{cell}"'
        elif edit == "underscore":
            rows[r][c] = cell[:1] + "_" + cell[1:]
        elif edit == "space":
            rows[r][c] = draw(SPACES) + cell + draw(SPACES)
        elif edit == "ragged":
            rows[r].pop(c)
        elif edit == "wide":
            rows[r].append(cell)
        else:
            rows[r][c] = "0" * (csv.field_size_limit() + 1)
    lines = [",".join(header), *(",".join(r) for r in rows)]
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "", "", "  ", "# 1,2,3"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))
    if draw(st.integers(0, 5)) == 0:  # one line end becomes a lone CR
        at = draw(st.sampled_from([i for i, ch in enumerate(text) if ch == "\n"] or [0]))
        text = text[:at] + "\r" + text[at + 1 :]
    return text


def read_outcome(read, path):
    try:
        return read(path)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)


def record_fields(rec):
    return (rec.fs, rec.channels, rec.samples.tobytes(), rec.samples.shape,
            rec.labels.tobytes())


def feature_fields(fm):
    return (fm.values.tobytes(), fm.values.shape, fm.window_labels.tobytes(),
            fm.window_start_sec.tobytes(), fm.feature_names, fm.channels)


class TestNumericCsvPaths:
    """Whatever the numpy fast path accepts, the per-row csv path reads to
    the same bits; everything else is the per-row path's to reject, with
    the same message and line."""

    @staticmethod
    def check_agree(path, text, read, fields):
        path.write_bytes(text.encode("utf-8"))
        fast = read_outcome(read, path)
        with mock.patch.object(dataio, "_parse_body", lambda *args: None):
            slow = read_outcome(read, path)
        if isinstance(slow, tuple):
            assert fast == slow
        else:
            assert not isinstance(fast, tuple), fast
            assert fields(fast) == fields(slow)

    @settings(max_examples=500, deadline=None)
    @given(text=numeric_csv(label_last=True))
    def test_record_paths_agree(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "paths_record.csv"
        self.check_agree(path, text, read_record, record_fields)

    @settings(max_examples=500, deadline=None)
    @given(text=numeric_csv(label_last=False))
    def test_feature_paths_agree(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "paths_features.csv"
        self.check_agree(path, text, read_features, feature_fields)


class TestReadersDoNotWarn:
    """Bad files fail with their ParseError alone: numpy prints nothing first."""

    @staticmethod
    def read_strictly(read, path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as err:
                read(path)
        return err.value

    @pytest.mark.parametrize("times, line, message", [
        # the differences overflow to inf: the first step is no sample period
        (("-1.7976931348623157e+308", "1.7976931348623157e+308", "0"), 3, "steps by inf"),
        # every step is one period, but the span overflows: the rate would be 0
        (("-1e308", "0", "1e308"), 4, "no finite sampling rate"),
        # subnormal steps: the rate would be inf
        (("0", "5e-324", "1e-323"), 4, "no finite sampling rate"),
    ])
    def test_extreme_time_cells(self, tmp_path, times, line, message):
        path = tmp_path / "rec.csv"
        path.write_text("time_s,c1,label\n" + "".join(f"{t},1.0,0\n" for t in times))
        err = self.read_strictly(read_record, path)
        assert err.line == line and message in str(err)

    @pytest.mark.parametrize("read, header, line, message", [
        (read_features, "start_sec,label,f1", 2, "no window rows"),
        (read_record, "time_s,c1,label", 1, "at least two sample rows"),
    ])
    @pytest.mark.parametrize("tail", ["\n", "\n\n", "\r\n"])
    def test_header_only(self, tmp_path, read, header, line, message, tail):
        path = tmp_path / "header_only.csv"
        path.write_bytes((header + tail).encode())
        err = self.read_strictly(read, path)
        assert err.line == line and message in str(err)


class TestCohortDirs:
    def test_signal_round_trip(self, tmp_path):
        cohort = generate_synthetic_cohort(CohortSpec(**SMALL, seed=7))
        d = tmp_path / "cohort"
        write_cohort(cohort, d)
        back = read_cohort(d)
        assert len(back) == len(cohort)
        for orig, rt in zip(cohort, back):
            for a, b in zip(orig, rt):
                assert b.subject_id == a.subject_id
                assert b.record_id == a.record_id
                assert np.abs(a.samples - b.samples).max() < 1e-9

    def test_feature_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        cohort = [[tiny_features(rng) for _ in range(2)] for _ in range(2)]
        for i, recs in enumerate(cohort):
            for j, fm in enumerate(recs):
                fm.subject_id, fm.record_id = f"s{i:03d}", f"r{j:02d}"
        d = tmp_path / "feat"
        write_cohort(cohort, d, writer=write_features)
        back = read_feature_cohort(d)
        assert [[fm.record_id for fm in recs] for recs in back] == [
            ["r00", "r01"], ["r00", "r01"]]
        assert np.array_equal(back[1][0].values, cohort[1][0].values)

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            read_cohort(tmp_path)


def fitted_books(rng, nfeat=5, dim=256, levels=6, seed=11):
    books = build_codebooks(nfeat, levels, dim, seed)
    return fit_ranges(books, rng.normal(size=(30, nfeat)))


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        books = fitted_books(rng)
        model = ClassModel.from_vectors(
            seizure=random_hypervector(3, 100, 256),
            non_seizure=random_hypervector(3, 101, 256),
            kind="generalized",
            source_cohort="demo",
            subject_id="s005",
            codebook_ref="cb0",
        )
        path = tmp_path / "m.hdcm"
        save_model(model, books, path)
        back_model, back_books = load_model(path)
        assert back_model.seizure == model.seizure
        assert back_model.non_seizure == model.non_seizure
        assert back_model.kind == "generalized"
        assert back_model.source_cohort == "demo"
        assert back_model.subject_id == "s005"
        assert back_model.codebook_ref == "cb0"
        assert back_books.dim == books.dim
        assert back_books.num_levels == books.num_levels
        assert back_books.seed == books.seed
        assert np.array_equal(back_books.id_vectors, books.id_vectors)
        assert np.array_equal(back_books.level_vectors, books.level_vectors)
        assert np.array_equal(back_books.feature_min, books.feature_min)
        assert np.array_equal(back_books.feature_max, books.feature_max)

    def test_unfitted_ranges_round_trip(self, tmp_path):
        books = build_codebooks(4, 5, 128, 0)
        model = ClassModel.from_vectors(
            seizure=random_hypervector(0, 50, 128),
            non_seizure=random_hypervector(0, 51, 128),
        )
        path = tmp_path / "m.hdcm"
        save_model(model, books, path)
        _, back = load_model(path)
        assert not back.is_fitted

    def test_size_arithmetic(self, tmp_path):
        rng = np.random.default_rng(5)
        books = fitted_books(rng, nfeat=5, dim=10000, levels=20)
        model = ClassModel.from_vectors(
            seizure=random_hypervector(1, 60, 10000),
            non_seizure=random_hypervector(1, 61, 10000),
        )
        path = tmp_path / "m.hdcm"
        save_model(model, books, path)
        data = path.read_bytes()
        meta_len = struct.unpack_from("<I", data, 9)[0]
        assert len(data) == 13 + meta_len + (2 + 20 + 5) * 157 * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.hdcm"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_bad_version(self, tmp_path):
        rng = np.random.default_rng(6)
        books = fitted_books(rng)
        model = ClassModel.from_vectors(seizure=random_hypervector(2, 70, 256),
                           non_seizure=random_hypervector(2, 71, 256))
        path = tmp_path / "m.hdcm"
        save_model(model, books, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_truncation(self, tmp_path):
        rng = np.random.default_rng(7)
        books = fitted_books(rng)
        model = ClassModel.from_vectors(seizure=random_hypervector(2, 80, 256),
                           non_seizure=random_hypervector(2, 81, 256))
        path = tmp_path / "m.hdcm"
        save_model(model, books, path)
        data = path.read_bytes()
        for cut in (3, 12, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(CorruptModelError):
                load_model(path)

    def test_garbled_metadata(self, tmp_path):
        blob = b"{not json"
        payload = MODEL_MAGIC + struct.pack("<BII", 1, 128, len(blob)) + blob
        path = tmp_path / "m.hdcm"
        path.write_bytes(payload)
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_padding_bits_past_dim_rejected(self, tmp_path):
        rng = np.random.default_rng(9)
        books = fitted_books(rng, dim=1001)
        model = ClassModel.from_vectors(seizure=random_hypervector(2, 95, 1001),
                           non_seizure=random_hypervector(2, 96, 1001))
        path = tmp_path / "m.hdcm"
        save_model(model, books, path)
        data = path.read_bytes()
        back, _ = load_model(path)
        assert back.seizure == model.seizure
        meta_len = struct.unpack_from("<I", data, 9)[0]
        stride, nbytes = 16 * 8, 126
        for k in (0, 1, 5, 2 + 6 + 4):  # S, NS, a level and the last id vector
            bad = bytearray(data)
            bad[13 + meta_len + k * stride + nbytes - 1] |= 0x80
            path.write_bytes(bytes(bad))
            with pytest.raises(CorruptModelError, match=f"vector {k} has bits set past dim 1001"):
                load_model(path)

    @pytest.mark.parametrize("k, offset", [(0, 14), (1, 13), (3, 15)])
    def test_word_padding_bytes_rejected(self, tmp_path, k, offset):
        # dim 100: 13 packed bytes per vector in a 16-byte stride
        data = bytearray(model_file_bytes())
        meta_len = struct.unpack_from("<I", data, 9)[0]
        data[13 + meta_len + 16 * k + offset] = 0xFF
        path = tmp_path / "m.hdcm"
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptModelError, match=f"vector {k} has bits set past dim 100"):
            load_model(path)

    def test_dim_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(8)
        books = fitted_books(rng, dim=256)
        model = ClassModel.from_vectors(seizure=random_hypervector(2, 90, 128),
                           non_seizure=random_hypervector(2, 91, 128))
        with pytest.raises(IncompatibleModelsError):
            save_model(model, books, tmp_path / "m.hdcm")


@functools.lru_cache(maxsize=None)
def model_file_bytes() -> bytes:
    """A fitted model file with dim 100, so its vectors carry padding bits."""
    books = fitted_books(np.random.default_rng(10), nfeat=3, dim=100, levels=4)
    model = ClassModel.from_vectors(seizure=random_hypervector(5, 1, 100),
                       non_seizure=random_hypervector(5, 2, 100), subject_id="s000")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.hdcm"
        save_model(model, books, path)
        return path.read_bytes()


ENCODER_FAULTS = ["reversed chain", "level bit", "ID bit", "seed", "levels over dim/2"]


def with_encoder_fault(data: bytes, fault: str) -> bytes:
    """The model file `data` with level or ID rows that are not its key's,
    through one of ENCODER_FAULTS; the file stays well formed otherwise."""
    meta_len = struct.unpack_from("<I", data, 9)[0]
    meta = json.loads(data[13 : 13 + meta_len])
    enc = meta["encoder"]
    nlev, stride = enc["numLevels"], -(-enc["dim"] // 64) * 8
    rows = np.frombuffer(data, np.uint8, offset=13 + meta_len).reshape(-1, stride).copy()
    if fault == "reversed chain":
        rows[2 : 2 + nlev] = rows[2 : 2 + nlev][::-1]
    elif fault == "level bit":
        rows[2 + nlev - 1, 0] ^= 1
    elif fault == "ID bit":
        rows[2 + nlev, 0] ^= 1
    elif fault == "seed":
        enc["seed"] += 1
    else:  # one level more than dim/2 allows, each with a row
        enc["numLevels"] = enc["dim"] // 2 + 1
        extra = np.zeros((enc["numLevels"] - nlev, stride), np.uint8)
        rows = np.vstack([rows[: 2 + nlev], extra, rows[2 + nlev :]])
    blob = json.dumps(meta, sort_keys=True).encode()
    return data[:9] + struct.pack("<I", len(blob)) + blob + rows.tobytes()


class TestEncoderRowsChecked:
    """load_model accepts only the level and ID rows its key draws."""

    @pytest.mark.parametrize("fault, message", [
        ("reversed chain", "level 0 vector is not the one encoder seed 11 draws"),
        ("level bit", "level 3 vector"),
        ("ID bit", "ID 0 vector"),
        ("seed", "level 0 vector is not the one encoder seed 12 draws"),
        ("levels over dim/2", "51 levels need dim >= 102, got 100"),
    ])
    def test_fault_is_corrupt(self, tmp_path, fault, message):
        path = tmp_path / "m.hdcm"
        path.write_bytes(with_encoder_fault(model_file_bytes(), fault))
        with pytest.raises(CorruptModelError, match=message):
            load_model(path)


class TestModelFileBytes:
    """The file format pinned by digest: a drift in any byte fails here."""

    def test_padded_model_digest(self):
        digest = hashlib.sha256(model_file_bytes()).hexdigest()
        assert digest == "d2727415311b804ccdd5be1dd663337e128838afd93689b2f4d3195437e7a8c9"

    def test_full_size_model_digest(self, tmp_path):
        values = np.random.default_rng(0).normal(size=(40, 88))
        books = fit_ranges(build_codebooks(88, 20, 10000, 0), values)
        model = ClassModel.from_vectors(seizure=random_hypervector(0, 1, 10000),
                           non_seizure=random_hypervector(0, 2, 10000), subject_id="s000")
        save_model(model, books, tmp_path / "m.hdcm")
        data = (tmp_path / "m.hdcm").read_bytes()
        assert len(data) == 141903
        digest = hashlib.sha256(data).hexdigest()
        assert digest == "dec05e6cfa035709d7d28caa7eb57bf3bbe5abbf99cc332a13079b04717e799c"


def with_metadata_value(path, value):
    """The model file with one metadata field set to `value`, and its old value."""
    buf = model_file_bytes()
    meta_len = struct.unpack_from("<I", buf, 9)[0]
    meta = json.loads(buf[13 : 13 + meta_len])
    doc = meta
    for name in path[:-1]:
        doc = doc[name]
    old, doc[path[-1]] = doc[path[-1]], value
    blob = json.dumps(meta).encode()
    return buf[:9] + struct.pack("<I", len(blob)) + blob + buf[13 + meta_len :], old


META_PATHS = [("kind",), ("sourceCohort",), ("subjectId",), ("codebookRef",), ("encoder",),
              ("encoder", "dim"), ("encoder", "numLevels"), ("encoder", "numFeatures"),
              ("encoder", "seed"), ("featureRanges",), ("featureRanges", "min"),
              ("featureRanges", "max")]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@st.composite
def mutated_model_files(draw):
    buf = model_file_bytes()
    kind = draw(st.sampled_from(["truncate", "flip", "header", "metadata"]))
    if kind == "truncate":
        return buf[: draw(st.integers(0, len(buf) - 1))]
    if kind == "flip":
        out = bytearray(buf)
        for bit in draw(st.lists(st.integers(0, 8 * len(buf) - 1), min_size=1, max_size=8)):
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    if kind == "header":
        out = bytearray(buf)
        out[draw(st.integers(0, 12))] = draw(st.integers(0, 255))
        return bytes(out)
    return with_metadata_value(draw(st.sampled_from(META_PATHS)), draw(JSON_VALUES))[0]


class TestModelFileFuzz:
    @settings(max_examples=300, deadline=None)
    @given(buf=mutated_model_files())
    def test_load_raises_only_model_errors(self, tmp_path_factory, buf):
        path = tmp_path_factory.getbasetemp() / "fuzz.hdcm"
        path.write_bytes(buf)
        try:
            load_model(path)
        except (CorruptModelError, ParseError):
            pass

    @settings(max_examples=200, deadline=None)
    @given(path=st.sampled_from(META_PATHS), value=JSON_VALUES)
    def test_wrong_metadata_type_is_corrupt(self, tmp_path_factory, path, value):
        buf, old = with_metadata_value(path, value)
        if type(value) is not type(old):
            target = tmp_path_factory.getbasetemp() / "typed.hdcm"
            target.write_bytes(buf)
            with pytest.raises(CorruptModelError):
                load_model(target)

    @pytest.mark.parametrize("path, value", [
        (("encoder",), [1, 2]),
        (("encoder", "numLevels"), "4"),
        (("featureRanges",), None),
        (("featureRanges", "min"), None),
        (("featureRanges", "max"), [0.0, float("nan"), 1.0]),
        (("featureRanges", "min"), [5.0, 5.0, 5.0]),
        (("encoder", "numFeatures"), True),
    ])
    def test_wrong_metadata_examples(self, tmp_path, path, value):
        target = tmp_path / "m.hdcm"
        target.write_bytes(with_metadata_value(path, value)[0])
        with pytest.raises(CorruptModelError, match="metadata"):
            load_model(target)


def tiny_report(rng, subject="s000", kind="personalized", n=24):
    truth = (rng.random(n) < 0.3).astype(np.uint8)
    preds = {k: (rng.random(n) < 0.3).astype(np.uint8)
             for k in ("raw", "bayes", "movavg")}
    from hdseizure.evaluation import _metrics_block

    return EvalReport(
        subject_id=subject,
        model_kind=kind,
        metrics=_metrics_block(truth, preds),
        truth=truth,
        p_seizure=rng.random(n),
        predictions=preds,
    )


class TestReports:
    def test_json_without_series(self, tmp_path):
        report = tiny_report(np.random.default_rng(10))
        path = tmp_path / "r.json"
        write_report(report, path)
        doc = json.loads(path.read_text())
        assert "series" not in doc
        back = read_report(path)
        assert back.metrics == report.metrics
        assert back.truth.size == 0

    def test_json_holds_metrics_only(self, tmp_path):
        report = tiny_report(np.random.default_rng(9), subject="s004", kind="generalized")
        path = tmp_path / "r.json"
        write_report(report, path)
        assert set(json.loads(path.read_text())) == {"subjectId", "modelKind", "metrics"}
        back = read_report(path)
        assert (back.subject_id, back.model_kind) == ("s004", "generalized")
        assert back.p_seizure.size == 0 and back.predictions == {}

    def test_reports_csv(self, tmp_path):
        rng = np.random.default_rng(11)
        reports = [tiny_report(rng, subject=f"s{i:03d}") for i in range(3)]
        path = tmp_path / "r.csv"
        write_reports_csv(reports, path)
        rows = list(csv.reader(path.open()))
        assert rows[0][:2] == ["subject", "kind"]
        assert "duration.raw.f1" in rows[0]
        assert len(rows) == 4
        col = rows[0].index("episode.bayes.precision")
        assert float(rows[2][col]) == reports[1].metrics["episode.bayes.precision"]


def _raise(*args, **kwargs):
    raise RuntimeError("write failed")


class TestAtomicWrites:
    """A writer that fails part-way leaves the file it replaces untouched."""

    @staticmethod
    def writer(kind):
        """(write(path), (owner, attribute, replacement) that fails part-way)
        for one writer."""
        rng = np.random.default_rng(12)
        if kind == "report":
            return lambda p: write_report(tiny_report(rng), p), (dataio.json, "dump", _raise)
        if kind == "reports_csv":
            return lambda p: write_reports_csv([tiny_report(rng)], p), (dataio.csv, "writer", _raise)
        if kind == "model":
            books = fitted_books(rng, nfeat=3, dim=100, levels=4)
            model = ClassModel.from_vectors(seizure=random_hypervector(5, 1, 100),
                               non_seizure=random_hypervector(5, 2, 100))
            # the codebook rows are written after the header and class rows
            return lambda p: save_model(model, books, p), (Codebooks, "words", property(_raise))
        fm = FeatureMatrix(values=rng.random((4, 2)), window_labels=np.array([0, 0, 1, 1]),
                           window_start_sec=np.arange(4) * 0.5, feature_names=["a:x", "a:y"],
                           channels=["a"], features_per_channel=2)
        return lambda p: write_features(fm, p), (dataio.np, "savetxt", _raise)

    @pytest.mark.parametrize("kind", ["report", "reports_csv", "model", "features"])
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, kind):
        write, (owner, name, failing) = self.writer(kind)
        path = tmp_path / "out"
        path.write_bytes(b"previous output\n")
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, failing)
            with pytest.raises(RuntimeError, match="write failed"):
                write(path)
        assert path.read_bytes() == b"previous output\n"
        assert os.listdir(tmp_path) == ["out"]
        write(path)
        assert path.read_bytes() != b"previous output\n"
        assert os.listdir(tmp_path) == ["out"]

    def test_failed_write_creates_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio.json, "dump", _raise)
        with pytest.raises(RuntimeError):
            write_report(tiny_report(np.random.default_rng(13)), tmp_path / "r.json")
        assert os.listdir(tmp_path) == []


class TestCurveCsvs:
    def test_matrices_csv(self, tmp_path):
        from hdseizure.similarity import pairwise_matrices

        mats = pairwise_matrices(synthetic_model_cohort(4, dim=256, seed=3))
        path = tmp_path / "mats.csv"
        write_matrices_csv(mats, path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["matrix", "subject", *mats.subject_ids]
        assert len(rows) == 1 + 3 * 4
        assert float(rows[1][2]) == mats.s_to_s[0, 0] == 1.0

    def test_evolution_csv(self, tmp_path):
        from hdseizure.generalization import MergeConfig, evolution_curve

        models = synthetic_model_cohort(5, dim=256, seed=4)
        _, mean = evolution_curve(models, MergeConfig(), repetitions=2, seed=1)
        path = tmp_path / "evo.csv"
        write_evolution_csv(mean, path)
        rows = list(csv.reader(path.open()))
        assert rows[0][0] == "numSubjects"
        assert len(rows) == 1 + 5
        assert float(rows[1][1]) == mean.sim_ss[0]

    def test_sweep_csv(self, tmp_path):
        from hdseizure.hybrid import sweep_selection

        gen = {"f1_episode": np.array([0.5, 0.9]), "f1_duration": np.array([0.4, 0.8])}
        pers = {"f1_episode": np.array([0.7, 0.6]), "f1_duration": np.array([0.6, 0.5])}
        sweep = sweep_selection(gen, pers, thresholds=[0.0, 0.6, 1.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, path)
        rows = list(csv.reader(path.open()))
        assert len(rows) == 4
        assert float(rows[1][4]) == sweep.oracle_f1_episode
