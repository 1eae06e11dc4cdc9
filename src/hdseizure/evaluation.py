"""Evaluation protocols: episode/duration metrics, probability
postprocessing, leave-one-seizure-out and leave-one-subject-out
cross-validation, and cross-cohort transfer.

Metric keys are flat dotted strings `<level>.<post>.<name>` with
level in {duration, episode}, post in {raw, bayes, movavg} and name in
{sensitivity, precision, f1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .encoding import (
    DEFAULT_DIM,
    DEFAULT_LEVELS,
    Codebooks,
    build_codebooks,
    encode_windows,
    fit_ranges,
)
from .errors import IncompatibleModelsError, InsufficientDataError
from .generalization import MergeConfig, generalize
from .hybrid import HYBRID_MODES, compose_hybrid
from .hypervector import hamming_words
from .training import NON_SEIZURE, SEIZURE, ClassModel, TrainConfig, train

@dataclass
class EvalConfig:
    dim: int = DEFAULT_DIM
    num_levels: int = DEFAULT_LEVELS
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    merge: MergeConfig = field(default_factory=MergeConfig)
    step_sec: float = 0.5
    bayes_window_sec: float = 5.0
    bayes_threshold: float = 1.5
    movavg_window_sec: float = 5.0

    def __post_init__(self):
        _require_positive(step_sec=self.step_sec, bayes_window_sec=self.bayes_window_sec,
                          bayes_threshold=self.bayes_threshold,
                          movavg_window_sec=self.movavg_window_sec)


def _require_positive(**settings) -> None:
    """Raise ValueError naming the first setting that is not finite and > 0."""
    for name, value in settings.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass
class EvalReport:
    subject_id: str
    model_kind: str
    metrics: dict
    truth: np.ndarray
    p_seizure: np.ndarray
    predictions: dict  # stage -> per-window binary array


def _as_binary(x, name):
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} must contain only 0 and 1")
    return arr.astype(np.uint8)


def _f1(tpr: float, ppv: float) -> float:
    if tpr + ppv == 0:
        return 0.0
    return 2 * tpr * ppv / (tpr + ppv)


def duration_metrics(pred, truth):
    """Window-wise (sensitivity, precision, F1)."""
    pred = _as_binary(pred, "pred")
    truth = _as_binary(truth, "truth")
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    tp = int(np.count_nonzero(pred & truth))
    fp = int(np.count_nonzero(pred & ~truth & 1))
    fn = int(np.count_nonzero(~pred & 1 & truth))
    tpr = 1.0 if tp + fn == 0 else tp / (tp + fn)
    ppv = 1.0 if tp + fp == 0 else tp / (tp + fp)
    return tpr, ppv, _f1(tpr, ppv)


def _runs(x: np.ndarray):
    """Maximal runs of 1s as (start, end) inclusive index pairs."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], x, [0]))))
    return list(zip(edges[::2], edges[1::2] - 1))


def episode_metrics(pred, truth):
    """Episode-level (sensitivity, precision, F1) under any-overlap matching."""
    pred = _as_binary(pred, "pred")
    truth = _as_binary(truth, "truth")
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    pred_runs = _runs(pred)
    truth_runs = _runs(truth)
    pred_cum = np.concatenate(([0], np.cumsum(pred, dtype=np.int64)))
    truth_cum = np.concatenate(([0], np.cumsum(truth, dtype=np.int64)))
    detected = sum(1 for s, e in truth_runs if pred_cum[e + 1] - pred_cum[s] > 0)
    true_preds = sum(1 for s, e in pred_runs if truth_cum[e + 1] - truth_cum[s] > 0)
    tpr = 1.0 if not truth_runs else detected / len(truth_runs)
    ppv = 1.0 if not pred_runs else true_preds / len(pred_runs)
    return tpr, ppv, _f1(tpr, ppv)


def _window_width(window_sec: float, step_sec: float, n: int) -> int:
    """ceil(window_sec / step_sec) entries, capped at 2n: every window of an
    n-entry series already spans the whole series at that width, and the
    cap keeps a huge ratio from overflowing `math.ceil`."""
    return math.ceil(min(window_sec / step_sec, 2 * n))


def bayes_postprocess(p_seizure, window_sec: float = 5.0, threshold: float = 1.5, step_sec: float = 0.5):
    """Trailing-window cumulative log-odds decision.

    Output[t] = 1 iff the product of p/(1-p) over the last
    ceil(window_sec/step_sec) entries reaches `threshold`; at the start
    the window grows from a single entry.
    """
    _require_positive(window_sec=window_sec, threshold=threshold, step_sec=step_sec)
    p = np.clip(np.asarray(p_seizure, dtype=np.float64), 1e-6, 1 - 1e-6)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p_seizure must be a non-empty 1-D sequence")
    width = _window_width(window_sec, step_sec, p.size)
    log_odds = np.log(p / (1 - p))
    cum = np.concatenate(([0.0], np.cumsum(log_odds)))
    t = np.arange(p.size)
    window_sum = cum[t + 1] - cum[np.maximum(t + 1 - width, 0)]
    return (window_sum >= math.log(threshold)).astype(np.uint8)


def moving_average_postprocess(pred, window_sec: float = 5.0, step_sec: float = 0.5):
    """Centered majority vote; ties go to 0; edge windows shrink."""
    _require_positive(window_sec=window_sec, step_sec=step_sec)
    pred = _as_binary(pred, "pred")
    n = pred.size
    width = _window_width(window_sec, step_sec, n)
    cum = np.concatenate(([0], np.cumsum(pred, dtype=np.int64)))
    t = np.arange(n)
    lo = np.maximum(t - (width - 1) // 2, 0)
    hi = np.minimum(t + width // 2, n - 1)
    ones = cum[hi + 1] - cum[lo]
    size = hi - lo + 1
    return (2 * ones > size).astype(np.uint8)


def _metrics_block(truth, predictions: dict) -> dict:
    metrics = {}
    for stage, pred in predictions.items():
        for level, fn in (("duration", duration_metrics), ("episode", episode_metrics)):
            tpr, ppv, f1 = fn(pred, truth)
            metrics[f"{level}.{stage}.sensitivity"] = tpr
            metrics[f"{level}.{stage}.precision"] = ppv
            metrics[f"{level}.{stage}.f1"] = f1
    return metrics


def _classify_rows(rows, model: ClassModel):
    """Nearest-prototype labels and p(seizure) for encoded word rows."""
    d_s = hamming_words(rows, model.words[SEIZURE], model.dim)
    d_ns = hamming_words(rows, model.words[NON_SEIZURE], model.dim)
    raw = (d_s < d_ns).astype(np.uint8)
    sim = (1 - d_s) + (1 - d_ns)
    with np.errstate(invalid="ignore"):
        p = np.where(sim > 0, (1 - d_s) / np.where(sim > 0, sim, 1.0), 0.5)
    return raw, p


def _report(subject_id, model_kind, truth, raw, p_seizure, cfg: EvalConfig) -> EvalReport:
    predictions = {
        "raw": raw,
        "bayes": bayes_postprocess(
            p_seizure, cfg.bayes_window_sec, cfg.bayes_threshold, cfg.step_sec
        ),
        "movavg": moving_average_postprocess(raw, cfg.movavg_window_sec, cfg.step_sec),
    }
    return EvalReport(
        subject_id=subject_id,
        model_kind=model_kind,
        metrics=_metrics_block(truth, predictions),
        truth=truth,
        p_seizure=p_seizure,
        predictions=predictions,
    )


def _subject_id_of(records) -> str:
    for fm in records:
        if fm.subject_id:
            return fm.subject_id
    return ""


def _stack_values(records):
    return np.vstack([fm.values for fm in records])


def _stack_labels(records):
    return np.concatenate([fm.window_labels for fm in records])


def _feature_count(records) -> int:
    """The feature count of `records`, which must share it and the first
    record's feature names, column by column."""
    counts = {fm.num_features for fm in records}
    if len(counts) != 1:
        raise IncompatibleModelsError(f"records disagree on feature count: {sorted(counts)}")
    first = records[0]
    for fm in records:
        pairs = enumerate(zip(fm.feature_names, first.feature_names))
        k = next((k for k, (name, expected) in pairs if name != expected), None)
        if k is not None:
            raise IncompatibleModelsError(
                f"subject {fm.subject_id!r} record {fm.record_id!r} has feature "
                f"{fm.feature_names[k]!r} in column {k}, where subject {first.subject_id!r} "
                f"record {first.record_id!r} has {first.feature_names[k]!r}")
    return counts.pop()


def _base_codebooks(records, cfg: EvalConfig) -> Codebooks:
    """Unfitted codebooks for `records`, which must agree on their feature count."""
    return build_codebooks(_feature_count(records), cfg.num_levels, cfg.dim, cfg.seed)


def cv_personalized(records, cfg: EvalConfig = None) -> EvalReport:
    """Leave-one-record-out (one seizure per record) on a single subject.

    Every fold refits feature ranges on its training records only; the
    held-out predictions are reassembled in the original record order
    before postprocessing.
    """
    cfg = cfg or EvalConfig()
    records = list(records)
    if len(records) < 3:
        raise InsufficientDataError(
            f"leave-one-seizure-out needs >= 3 records, got {len(records)}"
        )
    base = _base_codebooks(records, cfg)
    fold_raw, fold_p = [], []
    for k in range(len(records)):
        books, (model,) = _train_cohort([records[:k] + records[k + 1:]], cfg, base)
        raw, p = _classify_rows(encode_windows(records[k].values, books), model)
        fold_raw.append(raw)
        fold_p.append(p)
    return _report(
        _subject_id_of(records), "personalized", _stack_labels(records),
        np.concatenate(fold_raw), np.concatenate(fold_p), cfg,
    )


def train_personalized(records, books: Codebooks, cfg: EvalConfig, subject_id: str = "") -> ClassModel:
    """Train one personalized model on all of a subject's records."""
    return train(
        encode_windows(_stack_values(records), books),
        _stack_labels(records),
        cfg.train,
        dim=books.dim,
        subject_id=subject_id or _subject_id_of(records),
    )


def _train_cohort(cohort, cfg: EvalConfig, base: Codebooks = None):
    """Fit feature ranges on the pooled cohort, then train one personalized
    model per subject on them. Returns (fitted codebooks, models).

    Without `base` the unfitted codebooks are built here.
    """
    if base is None:
        base = _base_codebooks([fm for recs in cohort for fm in recs], cfg)
    books = fit_ranges(base, np.vstack([_stack_values(recs) for recs in cohort]))
    return books, [train_personalized(recs, books, cfg) for recs in cohort]


def _evaluate_target(target_recs, subject_id, merged: ClassModel, books: Codebooks, mode: str, cfg: EvalConfig) -> EvalReport:
    """Classify the target's windows with `merged`, or, when `mode` is a
    hybrid, with `merged` holding one of the target's own class vectors,
    and report them under `subject_id`. The windows are encoded once: the
    same rows train the personal class and are classified."""
    rows = encode_windows(_stack_values(target_recs), books)
    truth = _stack_labels(target_recs)
    if mode != "generalized":
        pers = train(rows, truth, cfg.train, dim=books.dim, subject_id=subject_id)
        merged = compose_hybrid(pers, merged, mode)
    raw, p = _classify_rows(rows, merged)
    return _report(subject_id, mode, truth, raw, p, cfg)


def cv_generalized(cohort, cfg: EvalConfig = None):
    """Leave-one-subject-out as the cohort transferred onto itself: each
    subject is scored by the merge of everyone else's personalized models.
    Returns one report per subject. A subject without an id is named
    `subject{i}`; as subjects are held out by id, no two may share one.
    """
    cohort = [list(recs) for recs in cohort]
    if len(cohort) < 2:
        raise InsufficientDataError(
            f"leave-one-subject-out needs >= 2 subjects, got {len(cohort)}"
        )
    ids = [_subject_id_of(recs) or f"subject{i}" for i, recs in enumerate(cohort)]
    repeated = [sid for k, sid in enumerate(ids) if sid in ids[:k]]
    if repeated:
        raise IncompatibleModelsError(f"subject id {repeated[0]!r} names more than one subject")
    cohort = [[replace(fm, subject_id=sid) for fm in recs] for sid, recs in zip(ids, cohort)]
    return transfer_eval(cohort, cohort, "generalized", cfg)


TRANSFER_MODES = ("generalized",) + HYBRID_MODES


def transfer_eval(source, target_cohort, mode: str = "generalized", cfg: EvalConfig = None, source_codebooks: Codebooks = None):
    """Apply source-cohort knowledge to every target subject.

    `source` is either a raw cohort (list of per-subject FeatureMatrix
    lists) or a list of pre-trained personalized ClassModels with their
    `source_codebooks`. Source subjects sharing a target's subject_id are
    excluded from its merge, so running a cohort against itself is
    leave-one-subject-out. Hybrid modes swap in a class vector trained on
    the target subject's own data, encoded with the transfer codebooks.

    Ranges are fitted, source models trained and merged once per distinct
    set of eligible source subjects: a source that shares no id with the
    targets is merged once for all of them, while leave-one-subject-out,
    where every set differs, does that work once per subject.
    """
    cfg = cfg or EvalConfig()
    if mode not in TRANSFER_MODES:
        raise ValueError(f"mode must be one of {TRANSFER_MODES}, got {mode!r}")
    target_cohort = [list(recs) for recs in target_cohort]
    if not target_cohort:
        raise InsufficientDataError("empty target cohort")
    target_nfeat = _feature_count([fm for recs in target_cohort for fm in recs])

    source = list(source)
    raw_source = not (source and isinstance(source[0], ClassModel))
    if raw_source:
        source = [list(recs) for recs in source]
        books = _base_codebooks([fm for recs in source for fm in recs], cfg)
    elif source_codebooks is None:
        raise IncompatibleModelsError("pre-trained source models need their codebooks")
    else:
        books = source_codebooks
        for m in source:
            if m.dim != books.dim:
                raise IncompatibleModelsError("source model dim differs from codebooks dim")
    if books.num_features != target_nfeat:
        raise IncompatibleModelsError(
            f"source encoder expects {books.num_features} features, "
            f"target provides {target_nfeat}"
        )
    if raw_source:  # model files carry no feature names to compare
        _feature_count([fm for recs in source + target_cohort for fm in recs])

    source_ids = [_subject_id_of(recs) for recs in source] if raw_source else [m.subject_id for m in source]
    merges = {}  # eligible source indices -> (fitted codebooks, merged model)
    reports = []
    for target_recs in target_cohort:
        target_id = _subject_id_of(target_recs)
        eligible = tuple(k for k, sid in enumerate(source_ids) if sid != target_id or not target_id)
        if not eligible:
            raise InsufficientDataError("no source subjects left after exclusion")
        if eligible not in merges:
            picked = [source[k] for k in eligible]
            fitted, models = _train_cohort(picked, cfg, books) if raw_source else (books, picked)
            if len(models) == 1 and models[0].kind == "generalized":
                merges[eligible] = fitted, models[0]  # a lone generalized model is used as is
            else:
                merges[eligible] = fitted, generalize(models, cfg.merge, tie_break_seed=cfg.seed)
        fitted, merged = merges[eligible]
        reports.append(_evaluate_target(target_recs, target_id or "target", merged, fitted, mode, cfg))
    return reports


def summarize(reports) -> dict:
    """Mean of every metric across reports."""
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to summarize")
    keys = reports[0].metrics.keys()
    return {k: float(np.mean([r.metrics[k] for r in reports])) for k in keys}


def per_subject_scores(reports, stage: str = "raw") -> dict:
    """Per-subject F1 arrays for the hybrid selection sweep."""
    return {
        "f1_episode": np.array([r.metrics[f"episode.{stage}.f1"] for r in reports]),
        "f1_duration": np.array([r.metrics[f"duration.{stage}.f1"] for r in reports]),
    }
