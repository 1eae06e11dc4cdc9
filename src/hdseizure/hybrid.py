"""Hybrid models: mixing one personalized and one generalized vector,
and threshold-driven per-subject selection between model kinds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleModelsError
from .training import ClassModel

HYBRID_MODES = ("NSgen-Spers", "NSpers-Sgen")


@dataclass
class SelectionSweep:
    """Mean performance as the gen-vs-pers assignment threshold sweeps.

    The oracle values are the per-subject best-of-both upper bound
    (constant across thresholds).
    """

    thresholds: np.ndarray
    fraction_gen: np.ndarray
    mean_f1_episode: np.ndarray
    mean_f1_duration: np.ndarray
    oracle_f1_episode: float
    oracle_f1_duration: float


def compose_hybrid(pers: ClassModel, gen: ClassModel, mode: str) -> ClassModel:
    """Pick one class vector from each parent; no new vector content."""
    if mode not in HYBRID_MODES:
        raise ValueError(f"mode must be one of {HYBRID_MODES}, got {mode!r}")
    if pers.kind != "personalized":
        raise IncompatibleModelsError(
            f"first argument must be a personalized model, got {pers.kind!r}"
        )
    if gen.kind != "generalized":
        raise IncompatibleModelsError(
            f"second argument must be a generalized model, got {gen.kind!r}"
        )
    if pers.dim != gen.dim:
        raise IncompatibleModelsError(f"dimension mismatch: {pers.dim} != {gen.dim}")
    if mode == "NSgen-Spers":
        seizure, non_seizure = pers.seizure, gen.non_seizure
    else:
        seizure, non_seizure = gen.seizure, pers.non_seizure
    return ClassModel(
        seizure=seizure,
        non_seizure=non_seizure,
        kind="hybrid",
        subject_id=pers.subject_id,
        source_cohort=mode,
        codebook_ref=pers.codebook_ref if pers.codebook_ref == gen.codebook_ref else "",
    )


def sweep_selection(gen_scores: dict, pers_scores: dict, thresholds) -> SelectionSweep:
    """Sweep the assignment threshold over per-subject score sets.

    `gen_scores` and `pers_scores` each map 'f1_episode' and 'f1_duration'
    to per-subject arrays. A subject gets its generalized model when that
    model's episode F1 reaches the threshold; means are over each
    subject's assigned model.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    gen_sel = np.asarray(gen_scores["f1_episode"], dtype=np.float64)
    series = {}
    for key in ("f1_episode", "f1_duration"):
        g = np.asarray(gen_scores[key], dtype=np.float64)
        p = np.asarray(pers_scores[key], dtype=np.float64)
        if g.shape != gen_sel.shape or p.shape != gen_sel.shape:
            raise ValueError("per-subject score arrays must share one length")
        series[key] = (g, p)
    fraction = np.empty(len(thresholds))
    means = {key: np.empty(len(thresholds)) for key in series}
    for i, t in enumerate(thresholds):
        use_gen = gen_sel >= t
        fraction[i] = use_gen.mean()
        for key, (g, p) in series.items():
            means[key][i] = np.where(use_gen, g, p).mean()
    return SelectionSweep(
        thresholds=thresholds,
        fraction_gen=fraction,
        mean_f1_episode=means["f1_episode"],
        mean_f1_duration=means["f1_duration"],
        oracle_f1_episode=float(np.maximum(*series["f1_episode"]).mean()),
        oracle_f1_duration=float(np.maximum(*series["f1_duration"]).mean()),
    )
