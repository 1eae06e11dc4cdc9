"""Merging personalized models into generalized ones.

Three merge methods build a generalized S/NS vector pair from a cohort:

    avrg     unit-weight bipolar average of the correct-class vectors;
    wsub     unit-weight correct class, weighted subtraction of the
             opposite class;
    waddsub  both classes weighted.

Weights compare each incoming subject against the running generalized
vector, so merge order matters for the weighted methods. Denominators of
the averaging formulas are dropped: sign binarization is invariant to
positive scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCohortError, InsufficientDataError
from .hypervector import _bipolar_rows, _philox, _SignedSums, hamming_words
from .similarity import _cohort_words
from .training import NON_SEIZURE, SEIZURE, ClassModel, _class_model

MERGE_METHODS = ("avrg", "wsub", "waddsub")
WRONG_WEIGHT_CONVENTIONS = ("distance", "similarity")

#: Mean-curve step deltas below this mark the stability plateau.
PLATEAU_TOLERANCE = 0.005

#: Shuffles `evolution_curve` merges side by side; bounds its accumulators
#: at 2 * 16 float64 rows of `dim` whatever the repetition count.
_SHUFFLE_BATCH = 16


@dataclass
class MergeConfig:
    method: str = "waddsub"
    alpha_corr: float = 1.0
    alpha_wrong: float = 1.0
    iterations: int = 1
    # The printed weighting formula makes the wrong-class weight grow with
    # DISTANCE even though the prose around it reads the other way; both
    # conventions are supported and 'distance' follows the formula.
    wrong_weight_convention: str = "distance"

    def __post_init__(self):
        if self.method not in MERGE_METHODS:
            raise ValueError(f"method must be one of {MERGE_METHODS}, got {self.method!r}")
        if self.wrong_weight_convention not in WRONG_WEIGHT_CONVENTIONS:
            raise ValueError(
                f"wrong_weight_convention must be one of {WRONG_WEIGHT_CONVENTIONS}"
            )
        for name in ("alpha_corr", "alpha_wrong"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


@dataclass
class EvolutionCurve:
    """Mean similarity of the growing generalized model to every
    personalized model, recorded after each merged subject."""

    num_subjects: np.ndarray
    sim_ss: np.ndarray
    sim_nsns: np.ndarray
    sim_sns: np.ndarray
    sim_nss: np.ndarray
    separability: np.ndarray

    def series(self):
        return (self.sim_ss, self.sim_nsns, self.sim_sns, self.sim_nss, self.separability)


def weight_correct(hamm_dist: float, alpha: float) -> float:
    """Weight for accumulating a subject's correct-class vector."""
    return alpha * (1.0 - hamm_dist)


def weight_wrong(hamm_dist: float, alpha: float) -> float:
    """Weight for subtracting a subject's opposite-class vector."""
    return alpha * hamm_dist


def _merge_step(sums: _SignedSums, rows, corr, cfg: MergeConfig, first: bool) -> None:
    """One merge step for every row t of `sums`, whose two halves of h rows
    merge opposite classes: target t adds the correct-class row corr[t] of
    the cohort matrix `rows` (from `_cohort_words`), then subtracts the row
    that its counterpart t +- h adds, each weighted by cfg against the
    current signs. The first step of a merge adds the correct rows alone.

    Each row pair (corr[k], corr[k + h]) is converted to float64 once and
    feeds all four adds that use it; within a target the adds keep their
    order, which is what each sum's rounding depends on."""
    h = len(corr) // 2
    cohort = rows[corr]
    if first or cfg.method == "avrg":
        w = weight_correct(0.0, cfg.alpha_corr) if first and cfg.method == "waddsub" else 1.0
        w_corr, w_wrong = [w] * 2 * h, [0.0] * 2 * h
    else:
        current = sums.signs()
        # d[b, a, j]: cohort row corr[b * h + j] against the signs of target a * h + j
        d = hamming_words(cohort.reshape(2, 1, h, -1), current.reshape(1, 2, h, -1), sums.dim)
        d_corr = np.concatenate([d[0, 0], d[1, 1]])
        d_wrong = np.concatenate([d[1, 0], d[0, 1]])
        if cfg.wrong_weight_convention == "distance":
            w_wrong = weight_wrong(d_wrong, cfg.alpha_wrong).tolist()
        else:
            w_wrong = weight_correct(d_wrong, cfg.alpha_wrong).tolist()
        if cfg.method == "wsub":
            w_corr = [1.0] * 2 * h
        else:
            w_corr = weight_correct(d_corr, cfg.alpha_corr).tolist()
    signed = _bipolar_rows(cohort, sums.dim)
    pair = np.empty((2, sums.dim))
    for k in range(h):
        np.copyto(pair, signed[k::h])
        sums.add((k, k, k + h, k + h), (pair[0], pair[1], pair[1], pair[0]),
                 (w_corr[k], -w_wrong[k], w_corr[k + h], -w_wrong[k + h]))


def _check_total_weight(total: float, class_name: str, where: str = "") -> None:
    if total <= 0:
        raise DegenerateCohortError(
            f"non-positive total weight {total:.4g} for class {class_name}{where}; "
            "cohort cancels itself out",
            total_weight=float(total),
        )


def generalize(cohort, cfg: MergeConfig, tie_break_seed: int = 0) -> ClassModel:
    """Merge a cohort of personalized models, in list order, into one
    generalized model."""
    cohort = list(cohort)
    dim, rows = _cohort_words(cohort)
    n = len(cohort)
    sums = _SignedSums(2, dim, tie_break_seed)
    # row NON_SEIZURE merges the cohort's NS rows (n + i), row SEIZURE its S rows (i)
    for it in range(cfg.iterations):
        for i in range(n):
            _merge_step(sums, rows, [n + i, i], cfg, first=not (it or i))
    _check_total_weight(sums.total_weight[SEIZURE], "seizure")
    _check_total_weight(sums.total_weight[NON_SEIZURE], "non-seizure")
    refs = {m.codebook_ref for m in cohort}
    return _class_model(sums, {"kind": "generalized",
                               "codebook_ref": refs.pop() if len(refs) == 1 else ""})


def _evolve(rows, dim: int, orders: np.ndarray, first: int, cfg: MergeConfig, seed: int):
    """Similarity series (ss, nsns, sns, nss), each (shuffles, n), for the
    shuffles `orders` (one row each, numbered from `first`) merged side by
    side."""
    r, n = orders.shape
    sums = _SignedSums(2 * r, dim, seed)
    sims = np.empty((4, r, n))
    # [generalized S of each shuffle, then NS] x [cohort S rows, then NS]
    dist = np.empty((2 * r, 2 * n))
    for step in range(n):
        idx = orders[:, step]
        _merge_step(sums, rows, np.concatenate([idx, n + idx]), cfg, first=step == 0)
        # one generalized row at a time: the XOR temporary is one cohort matrix
        for b, gen in enumerate(sums.signs()):
            dist[b] = hamming_words(rows, gen, dim)
        sims[0, :, step] = 1.0 - dist[:r, :n].mean(axis=1)
        sims[1, :, step] = 1.0 - dist[r:, n:].mean(axis=1)
        sims[2, :, step] = 1.0 - dist[:r, n:].mean(axis=1)
        sims[3, :, step] = 1.0 - dist[r:, :n].mean(axis=1)
    for b, total in enumerate(sums.total_weight):
        class_name = "seizure" if b < r else "non-seizure"
        _check_total_weight(total, class_name, f" in shuffle {first + b % r}")
    return sims


def evolution_curve(cohort, cfg: MergeConfig, repetitions: int = 10, seed: int = 0):
    """Merge subjects one at a time in shuffled order, tracking stability.

    After every merged subject the current generalized vectors are
    compared against ALL personalized models (merged or not). Returns
    (per-repetition curves, their pointwise mean).
    """
    cohort = list(cohort)
    dim, rows = _cohort_words(cohort)
    n = len(cohort)
    if n < 2:
        raise InsufficientDataError(f"evolution needs >= 2 subjects, got {n}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    orders = np.stack([_philox(seed, rep).permutation(n) for rep in range(repetitions)])
    ss, nsns, sns, nss = np.concatenate(
        [
            _evolve(rows, dim, orders[k : k + _SHUFFLE_BATCH], k, cfg, seed)
            for k in range(0, repetitions, _SHUFFLE_BATCH)
        ],
        axis=1,
    )
    sep = (ss + nsns) / 2 - (sns + nss) / 2
    curves = [
        EvolutionCurve(
            num_subjects=np.arange(1, n + 1),
            sim_ss=ss[r],
            sim_nsns=nsns[r],
            sim_sns=sns[r],
            sim_nss=nss[r],
            separability=sep[r],
        )
        for r in range(repetitions)
    ]
    mean = EvolutionCurve(
        num_subjects=np.arange(1, n + 1),
        sim_ss=ss.mean(axis=0),
        sim_nsns=nsns.mean(axis=0),
        sim_sns=sns.mean(axis=0),
        sim_nss=nss.mean(axis=0),
        separability=sep.mean(axis=0),
    )
    return curves, mean


def plateau_onset(curve: EvolutionCurve) -> int:
    """Smallest merged-subject count after which every later step moves
    all similarity series (and separability) by less than
    PLATEAU_TOLERANCE.

    Returns the final subject count when the curve never settles.
    """
    deltas = np.max([np.abs(np.diff(s)) for s in curve.series()], axis=0)
    violations = np.flatnonzero(deltas >= PLATEAU_TOLERANCE)
    if violations.size == 0:
        return int(curve.num_subjects[0])
    return int(curve.num_subjects[violations[-1] + 1])
