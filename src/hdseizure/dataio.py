"""Synthetic cohort generation and persistence.

Formats:

  signal CSV    header `time_s,<ch1>,...,<chN>,label`, one row per sample
  feature CSV   header `start_sec,label,<name1>,...`, one row per window
  model file    binary, magic "HDCM" (layout documented in save_model)
  report JSON   subject, model kind and flat metric dict

Every writer goes through `_replacing`, so a failed write leaves the old
file as it was.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .encoding import Codebooks
from .errors import CorruptModelError, IncompatibleModelsError, ParseError
from .evaluation import EvalReport, _require_positive
from .features import DEFAULT_CHANNELS, FeatureMatrix, SignalRecord
from .hypervector import Hypervector, _check_rows, _philox, random_hypervector
from .training import NON_SEIZURE, SEIZURE, ClassModel

MODEL_MAGIC = b"HDCM"
MODEL_VERSION = 1
#: the model's class rows in file order, S then NS; as a permutation of
#: two rows it is its own inverse, so it also maps file rows to model rows
_FILE_ROWS = np.array([SEIZURE, NON_SEIZURE])

#: resting background scale, microvolts RMS
BACKGROUND_RMS = 30.0
#: seizure rhythm amplitude per unit of (gain - 1)
RHYTHM_BASE_AMP = 15.0


@dataclass
class CohortSpec:
    num_subjects: int = 20
    records_per_subject: int = 3
    fs: float = 256.0
    num_channels: int = 18
    seizure_sec: float = 60.0
    non_seizure_sec: float = 60.0  # 600 for a CHB-MIT-like 10:1 imbalance
    shared_background_weight: float = 0.7
    seizure_freq_range: tuple = (3.0, 8.0)
    seizure_amp_gain: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.num_subjects < 1:
            raise ValueError(f"num_subjects must be >= 1, got {self.num_subjects}")
        if self.records_per_subject < 3:
            raise ValueError(
                f"records_per_subject must be >= 3, got {self.records_per_subject}"
            )
        _require_positive(fs=self.fs, seizure_sec=self.seizure_sec,
                          non_seizure_sec=self.non_seizure_sec,
                          seizure_amp_gain=self.seizure_amp_gain)
        # the largest rhythm amplitude generate_synthetic_cohort can draw
        if not math.isfinite(RHYTHM_BASE_AMP * (self.seizure_amp_gain - 1.0) * 1.1):
            raise ValueError(f"seizure_amp_gain {self.seizure_amp_gain:g} gives a "
                             "non-finite seizure rhythm amplitude")
        for name, span in (("seizure_sec", self.seizure_sec),
                           ("non_seizure_sec", self.non_seizure_sec)):
            if not (math.isfinite(span * self.fs) and round(span * self.fs) >= 1):
                raise ValueError(f"{name} must be finite and at least one sample "
                                 f"at {self.fs:g} Hz, got {span:g} s")
        if self.num_channels < 1:
            raise ValueError(f"num_channels must be >= 1, got {self.num_channels}")
        if not 0.0 <= self.shared_background_weight <= 1.0:
            raise ValueError(
                f"shared_background_weight must be in [0, 1], "
                f"got {self.shared_background_weight}"
            )
        lo, hi = self.seizure_freq_range
        if not 0 < lo <= hi < self.fs / 2:
            raise ValueError(
                f"seizure_freq_range must satisfy 0 < lo <= hi < fs/2, "
                f"got {self.seizure_freq_range}"
            )


def _channel_names(n: int) -> list:
    if n == len(DEFAULT_CHANNELS):
        return list(DEFAULT_CHANNELS)
    return [f"ch{i + 1:02d}" for i in range(n)]


def generate_synthetic_cohort(spec: CohortSpec):
    """Deterministic per-seed cohort of records, grouped by subject.

    Non-seizure spans are 1/f-shaped noise whose spectral profile mixes a
    cohort-shared component with a subject-specific one. Each record's
    final `seizure_sec` span adds a subject rhythm (frequency drawn once
    per subject) at amplitude RHYTHM_BASE_AMP * (gain - 1) with +-10%
    per-record jitter, so gain 1 leaves the background untouched.
    """
    n_ns = round(spec.non_seizure_sec * spec.fs)
    n_total = n_ns + round(spec.seizure_sec * spec.fs)
    chans = _channel_names(spec.num_channels)
    freqs = np.fft.rfftfreq(n_total, 1.0 / spec.fs)
    envelope = np.zeros_like(freqs)
    envelope[1:] = 1.0 / np.sqrt(freqs[1:])
    shared = _philox(spec.seed, 0).uniform(0.5, 1.5, freqs.size)
    w = spec.shared_background_weight
    t = np.arange(n_total) / spec.fs

    cohort = []
    for s in range(spec.num_subjects):
        srng = _philox(spec.seed, (s + 1) << 24)
        profile = envelope * (w * shared + (1 - w) * srng.uniform(0.5, 1.5, freqs.size))
        rhythm_freq = srng.uniform(*spec.seizure_freq_range)
        sid = f"s{s:03d}"
        records = []
        for r in range(spec.records_per_subject):
            rrng = _philox(spec.seed, ((s + 1) << 24) + r + 1)
            noise = rrng.standard_normal((2, spec.num_channels, freqs.size))
            spectra = profile * (noise[0] + 1j * noise[1])
            x = np.fft.irfft(spectra, n_total, axis=1)
            x *= (BACKGROUND_RMS / x.std(axis=1))[:, None]
            amp = RHYTHM_BASE_AMP * (spec.seizure_amp_gain - 1.0) * rrng.uniform(0.9, 1.1)
            freq = rhythm_freq * rrng.uniform(0.9, 1.1)
            phases = rrng.uniform(0.0, 2 * np.pi, spec.num_channels)
            x[:, n_ns:] += amp * np.sin(
                2 * np.pi * freq * t[None, n_ns:] + phases[:, None]
            )
            labels = np.zeros(n_total, np.uint8)
            labels[n_ns:] = 1
            records.append(
                SignalRecord(
                    fs=spec.fs,
                    channels=chans,
                    samples=x,
                    labels=labels,
                    record_id=f"r{r:02d}",
                    subject_id=sid,
                )
            )
        cohort.append(records)
    return cohort


def _flip_bits(hv: Hypervector, fraction: float, rng) -> Hypervector:
    mask = rng.random(hv.dim) < fraction
    return Hypervector.from_bools(hv.to_bools() ^ mask)


def synthetic_model_cohort(num_subjects: int, dim: int = 10000,
                           s_flip: float = 0.35, ns_flip: float = 0.15,
                           class_overlap_flip: float = 0.5, seed: int = 0):
    """Personalized models as noisy copies of two shared prototypes.

    Flipping a fraction p of bits independently in two copies leaves them
    at expected similarity 1 - 2p(1-p); ns_flip < s_flip reproduces the
    higher cross-subject agreement of non-seizure prototypes. The S
    prototype is itself a flipped copy of the NS prototype: at
    class_overlap_flip 0.5 the classes are unrelated, below that they
    share background content (as real ictal prototypes do).
    """
    if num_subjects < 1:
        raise ValueError(f"num_subjects must be >= 1, got {num_subjects}")
    for name, frac in (("s_flip", s_flip), ("ns_flip", ns_flip),
                       ("class_overlap_flip", class_overlap_flip)):
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {frac}")
    base_ns = random_hypervector(seed, 1, dim)
    base_s = _flip_bits(base_ns, class_overlap_flip, _philox(seed, 1 << 16))
    models = []
    for i in range(num_subjects):
        rng = _philox(seed, (i + 2) << 16)
        models.append(
            ClassModel.from_vectors(
                _flip_bits(base_s, s_flip, rng),
                _flip_bits(base_ns, ns_flip, rng),
                kind="personalized",
                subject_id=f"s{i:03d}",
                source_cohort="synthetic-models",
            )
        )
    return models


# ---- writing ----

@contextlib.contextmanager
def _replacing(path, mode):
    """An open `<path>.tmp` (text files with newline="") that replaces `path`
    when the block succeeds; on an exception the temporary file is removed
    and `path` keeps its old content."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_csv(path, header, rows):
    """`header` and then each of `rows` as CSV lines, ended by CRLF."""
    with _replacing(path, "w") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---- numeric CSV bodies ----

#: The bytes a body may hold for the numpy fast path. On cells made of
#: these, np.loadtxt and float() agree; numpy alone also strips \x1c-\x1f.
_FAST_BYTES = b"0123456789+-.,eEnNaAiIfFtTyY \t\r\n"


def _csv_rows(fh):
    """(file line, cells) of every non-blank CSV row of a text file."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None


def _read_numeric_csv(path, check_header, label_last: bool):
    """A header row over rows of numbers, as (header, data, lines).

    The header is the first non-blank row; `check_header(cells, line)` vets
    its stripped cells before any other row is read. Every other non-blank
    row must hold as many cells as the header, each one a float() number.
    With `label_last`, the last cell, stripped, must be exactly 0 or 1.
    `data` is (rows, cells) float64, and `lines` holds the file line of the
    header and then of each data row, so every ParseError names the line
    as an editor shows it.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    # decoded as open(path, newline="") would, and only as far as read
    rows = _csv_rows(io.TextIOWrapper(io.BytesIO(raw), newline=""))
    header_line, header = next(rows, (1, None))
    if header is None:
        raise ParseError("empty file", line=1)
    header = [c.strip() for c in header]
    check_header(header, header_line)
    data = _parse_body(raw, len(header), label_last) if header_line == 1 else None
    if data is not None:
        return header, data, range(1, len(data) + 2)
    lines, body = [header_line], []
    for line, row in rows:
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} cells, got {len(row)}", line=line)
        try:
            values = [float(c) for c in (row[:-1] if label_last else row)]
        except ValueError:
            raise ParseError(f"non-numeric cell in row {row}", line=line) from None
        if label_last:
            cell = row[-1].strip()
            if cell not in ("0", "1"):
                raise ParseError(f"label must be 0 or 1, got {cell!r}", line=line)
            values.append(float(cell))
        lines.append(line)
        body.append(values)
    return header, np.array(body).reshape(len(body), len(header)), lines


def _parse_body(raw: bytes, ncol: int, label_last: bool):
    """The rows after line 1 parsed in one np.loadtxt pass, or None.

    None leaves the file to the per-row path: its body is empty or holds a
    byte outside _FAST_BYTES (a quote, `_`, `#`, NUL, anything non-ASCII),
    a lone CR, a blank line before its last row, a row of another cell
    count or one wider than csv's field limit, or, with `label_last`, a row
    that does not end in exactly `,0` or `,1`. What is left is the form the
    writers produce, and on it loadtxt's values and rows are the per-row
    path's.
    """
    start = raw.find(b"\n") + 1
    if not start or (b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n")):
        return None
    end = len(raw)
    while end > start and raw[end - 1] in b"\r\n":
        end -= 1
    body = raw[start:end]
    if not body or body.translate(None, _FAST_BYTES):
        return None
    if b"\r" in body:
        body = body.replace(b"\r\n", b"\n")
    rows = body.split(b"\n")
    widths = np.fromiter(map(len, rows), np.intp, len(rows))
    if widths.max() > csv.field_size_limit():
        return None
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    # loadtxt skips blank lines, which would shift every later row's line
    if data.shape != (len(rows), ncol):
        return None
    if label_last:
        # each row's end in body; every row is at least "x,y,z"
        ends = np.cumsum(widths + 1) - 1
        chars = np.frombuffer(body, np.uint8)
        if not (np.all(chars[ends - 2] == ord(",")) and np.all((chars[ends - 1] | 1) == ord("1"))):
            return None
    return data


# ---- signal CSV ----

def write_record(record: SignalRecord, path):
    t = np.arange(record.samples.shape[1]) / record.fs
    table = np.column_stack([t, record.samples.T, record.labels])
    fmt = ["%.12g"] * (1 + len(record.channels)) + ["%d"]
    header = ",".join(["time_s", *record.channels, "label"])
    with _replacing(path, "w") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, table, fmt=fmt, delimiter=",")


def _check_record_header(header, line):
    if header[:1] != ["time_s"]:
        raise ParseError(f"first column must be 'time_s', got {header[:1]}", line=line)
    if header[-1] != "label":
        raise ParseError("missing 'label' column", line=line)
    if len(header) < 3:
        raise ParseError("no channel columns between 'time_s' and 'label'", line=line)


def read_record(path) -> SignalRecord:
    header, data, lines = _read_numeric_csv(path, _check_record_header, label_last=True)
    if len(data) < 2:
        raise ParseError("need at least two sample rows to infer fs", line=lines[-1])
    times = data[:, 0]
    if not times[1] > times[0]:
        raise ParseError(
            f"time column must increase, got {times[0]:.12g} then {times[1]:.12g}",
            line=lines[2],
        )
    # Timestamps near the float limit make the differences below overflow to
    # inf; the checks reject those files, so numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # each step must be one sample period; 1 % absorbs the %.12g timestamps
        period = times[1] - times[0]
        steps = np.diff(times)
        off = np.flatnonzero(~(np.abs(steps - period) <= 0.01 * period))
        if off.size:
            k = int(off[0])
            raise ParseError(
                f"time column steps by {steps[k]:.12g} s, not one sample period "
                f"({period:.12g} s at {1.0 / period:.12g} Hz)",
                line=lines[k + 2],
            )
    # The rate comes from the whole span, where one timestamp's rounding
    # counts once rather than against a single step. It snaps to an integer
    # rate whose sample grid drifts less than 1 % of a period over the span.
    n_steps = len(times) - 1
    span = float(times[-1]) - float(times[0])
    fs = n_steps / span
    if not 0 < fs < math.inf:
        raise ParseError(
            f"time column spans {span:.12g} s in {n_steps} steps, "
            "which gives no finite sampling rate",
            line=lines[-1],
        )
    if abs(fs - round(fs)) * n_steps <= 0.01 * fs:
        fs = float(round(fs))
    return SignalRecord(
        fs=fs,
        channels=header[1:-1],
        samples=data[:, 1:-1].T.copy(),
        labels=data[:, -1].astype(np.uint8),
    )


# ---- feature CSV ----

def write_features(features: FeatureMatrix, path):
    header = ",".join(["start_sec", "label", *features.feature_names])
    table = np.column_stack(
        [features.window_start_sec, features.window_labels, features.values]
    )
    fmt = ["%.17g", "%d"] + ["%.17g"] * features.num_features
    with _replacing(path, "w") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, table, fmt=fmt, delimiter=",")


def _check_feature_header(header, line):
    if header[:2] != ["start_sec", "label"]:
        raise ParseError("header must start with 'start_sec,label'", line=line)
    if len(header) < 3:
        raise ParseError("no feature columns", line=line)


def read_features(path, record_id: str = "", subject_id: str = "") -> FeatureMatrix:
    header, data, lines = _read_numeric_csv(path, _check_feature_header, label_last=False)
    if not len(data):
        raise ParseError("no window rows", line=lines[-1] + 1)
    bad = np.flatnonzero((data[:, 1] != 0) & (data[:, 1] != 1))
    if bad.size:
        k = int(bad[0])
        raise ParseError(f"label must be 0 or 1, got {float(data[k, 1])!r}", line=lines[k + 1])
    names = header[2:]
    channels = []
    for name in names:
        prefix = name.split(":", 1)[0] if ":" in name else ""
        if prefix and prefix not in channels:
            channels.append(prefix)
    if not channels or len(names) % len(channels):
        channels = ["all"]
    return FeatureMatrix(
        values=data[:, 2:].copy(),
        window_labels=data[:, 1].astype(np.uint8),
        window_start_sec=data[:, 0].copy(),
        feature_names=names,
        channels=channels,
        features_per_channel=len(names) // len(channels),
        record_id=record_id,
        subject_id=subject_id,
    )


# ---- cohort directories ----

def _cohort_paths(dirpath):
    """(subject_id, record_id, path) triples grouped-sortable by filename."""
    out = []
    for name in sorted(os.listdir(dirpath)):
        if name.endswith(".csv") and "__" in name:
            sid, rid = name[:-4].split("__", 1)
            out.append((sid, rid, os.path.join(dirpath, name)))
    return out


def write_cohort(cohort, dirpath, writer=write_record):
    os.makedirs(dirpath, exist_ok=True)
    for records in cohort:
        for rec in records:
            writer(rec, os.path.join(dirpath, f"{rec.subject_id}__{rec.record_id}.csv"))


def _read_cohort_dir(dirpath, one):
    groups, order = {}, []
    for sid, rid, path in _cohort_paths(dirpath):
        if sid not in groups:
            groups[sid] = []
            order.append(sid)
        groups[sid].append(one(path, rid, sid))
    if not order:
        raise ParseError(f"no '<subject>__<record>.csv' files in {dirpath}", line=0)
    return [groups[sid] for sid in order]


def read_cohort(dirpath):
    return _read_cohort_dir(
        dirpath,
        lambda path, rid, sid: replace(read_record(path), record_id=rid, subject_id=sid),
    )


def read_feature_cohort(dirpath):
    return _read_cohort_dir(
        dirpath, lambda path, rid, sid: read_features(path, record_id=rid, subject_id=sid)
    )


# ---- model files ----

def save_model(model: ClassModel, codebooks: Codebooks, path):
    """Binary layout, all integers little-endian:

      magic "HDCM" | version u8 | dim u32 | metaLen u32 | metadata JSON |
      vectors S, NS, level[0..L), id[0..F), each ceil(dim/64) u64 words
      (bit-packed, zero-padded past dim).
    """
    if model.dim != codebooks.dim:
        raise IncompatibleModelsError(
            f"model dim {model.dim} != codebook dim {codebooks.dim}"
        )
    meta = {
        "kind": model.kind,
        "sourceCohort": model.source_cohort,
        "subjectId": model.subject_id,
        "codebookRef": model.codebook_ref,
        "encoder": {
            "dim": codebooks.dim,
            "numLevels": codebooks.num_levels,
            "numFeatures": codebooks.num_features,
            "seed": codebooks.seed,
        },
        "featureRanges": {
            "min": codebooks.feature_min.tolist() if codebooks.is_fitted else None,
            "max": codebooks.feature_max.tolist() if codebooks.is_fitted else None,
        },
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with _replacing(path, "wb") as fh:
        fh.write(MODEL_MAGIC + struct.pack("<BII", MODEL_VERSION, codebooks.dim, len(blob)) + blob)
        fh.write(model.words[_FILE_ROWS].tobytes())
        fh.write(codebooks.words)


#: exact JSON types of kind, sourceCohort, subjectId, codebookRef and the
#: encoder's dim, numLevels, numFeatures and seed (so a JSON true is no int)
_META_TYPES = (str,) * 4 + (int,) * 4


def _model_meta(blob: bytes) -> dict:
    """The metadata JSON, checked to hold the fields and types save_model writes."""
    try:
        meta = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CorruptModelError(f"unreadable metadata: {exc}") from None
    try:
        enc, ranges = meta["encoder"], meta["featureRanges"]
        fields = (meta["kind"], meta["sourceCohort"], meta["subjectId"],
                  meta.get("codebookRef", ""), enc["dim"], enc["numLevels"],
                  enc["numFeatures"], enc["seed"])
        lo, hi = ranges["min"], ranges["max"]
    except (KeyError, TypeError) as exc:
        raise CorruptModelError(f"invalid metadata: {type(exc).__name__} {exc}") from None
    if tuple(map(type, fields)) != _META_TYPES:
        raise CorruptModelError(
            f"invalid metadata: field types {[type(v).__name__ for v in fields]}"
        )
    num_features = fields[6]
    if lo is None and hi is None:
        return meta
    try:
        valid = all(
            type(bounds) is list and len(bounds) == num_features
            and all(type(v) in (int, float) and math.isfinite(v) for v in bounds)
            for bounds in (lo, hi)
        ) and all(a <= b for a, b in zip(lo, hi))
    except OverflowError:  # an int beyond float range
        valid = False
    if not valid:
        raise CorruptModelError(
            f"invalid metadata: featureRanges need {num_features} finite "
            "min <= max pairs"
        )
    return meta


def load_model(path):
    """Inverse of save_model; returns (ClassModel, Codebooks)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 13:
        raise CorruptModelError(f"file too short ({len(buf)} bytes)")
    if buf[:4] != MODEL_MAGIC:
        raise CorruptModelError(f"bad magic {buf[:4]!r}")
    version = buf[4]
    if version != MODEL_VERSION:
        raise CorruptModelError(f"unsupported format version {version}")
    dim, meta_len = struct.unpack_from("<II", buf, 5)
    if len(buf) < 13 + meta_len:
        raise CorruptModelError("truncated metadata block")
    meta = _model_meta(buf[13 : 13 + meta_len])
    enc, ranges = meta["encoder"], meta["featureRanges"]
    if enc["dim"] != dim:
        raise CorruptModelError("metadata dim disagrees with header")
    try:
        books = Codebooks(
            enc["numFeatures"], enc["numLevels"], dim, enc["seed"],
            feature_min=None if ranges["min"] is None else np.asarray(ranges["min"], float),
            feature_max=None if ranges["max"] is None else np.asarray(ranges["max"], float),
        )
    except ValueError as exc:
        raise CorruptModelError(f"invalid metadata: {exc}") from None
    row_words = -(-dim // 64)
    count = 2 + books.num_levels + books.num_features
    expected = 13 + meta_len + count * row_words * 8
    if len(buf) != expected:
        raise CorruptModelError(
            f"expected {expected} bytes for {count} vectors, got {len(buf)}"
        )
    words = np.frombuffer(buf, np.uint64, count * row_words, offset=13 + meta_len).reshape(count, -1)
    try:
        _check_rows(words, dim, count, "vector")
        model = ClassModel(
            words[:2].take(_FILE_ROWS, axis=0),
            dim,
            kind=meta["kind"],
            source_cohort=meta["sourceCohort"],
            subject_id=meta["subjectId"],
            codebook_ref=meta.get("codebookRef", ""),
        )
    except ValueError as exc:
        raise CorruptModelError(f"invalid model contents: {exc}") from None
    # the level and ID rows end the file, whose length is checked above
    if not buf.endswith(books.words):
        differ = (words[2:] != books.words).any(axis=1)
        first = int(np.flatnonzero(differ)[0])
        which = f"level {first}" if first < books.num_levels else f"ID {first - books.num_levels}"
        raise CorruptModelError(
            f"{which} vector is not the one encoder seed {books.seed} draws for "
            f"{books.num_features} features, {books.num_levels} levels and dim {dim}"
        )
    return model, books


# ---- reports and plot-ready curves ----

def write_report(report: EvalReport, path):
    """The report's subject, model kind and metrics as JSON; the per-window
    series stay in memory."""
    doc = {
        "subjectId": report.subject_id,
        "modelKind": report.model_kind,
        "metrics": report.metrics,
    }
    with _replacing(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report(path) -> EvalReport:
    """Inverse of write_report, with empty per-window series."""
    with open(path) as fh:
        doc = json.load(fh)
    return EvalReport(
        subject_id=doc["subjectId"],
        model_kind=doc["modelKind"],
        metrics=doc["metrics"],
        truth=np.array([], np.uint8),
        p_seizure=np.array([], float),
        predictions={},
    )


def write_reports_csv(reports, path):
    reports = list(reports)
    keys = list(reports[0].metrics.keys())
    _write_csv(path, ["subject", "kind", *keys],
               ([r.subject_id, r.model_kind, *(f"{r.metrics[k]:.17g}" for k in keys)]
                for r in reports))


def write_matrices_csv(mats, path):
    _write_csv(path, ["matrix", "subject", *mats.subject_ids],
               ([name, sid, *(f"{v:.17g}" for v in row)]
                for name, m in (("sToS", mats.s_to_s), ("nsToNs", mats.ns_to_ns),
                                ("sToNs", mats.s_to_ns))
                for sid, row in zip(mats.subject_ids, m)))


def write_evolution_csv(curve, path):
    _write_csv(path, ["numSubjects", "simSS", "simNSNS", "simSNS", "simNSS", "separability"],
               ([int(n), *(f"{v:.17g}" for v in values)]
                for n, *values in zip(curve.num_subjects, *curve.series())))


def write_sweep_csv(sweep, path):
    oracle = (sweep.oracle_f1_episode, sweep.oracle_f1_duration)
    _write_csv(path, ["threshold", "fractionGen", "meanF1Episode",
                      "meanF1Duration", "oracleF1Episode", "oracleF1Duration"],
               ([f"{v:.17g}" for v in (*values, *oracle)]
                for values in zip(sweep.thresholds, sweep.fraction_gen,
                                  sweep.mean_f1_episode, sweep.mean_f1_duration)))
