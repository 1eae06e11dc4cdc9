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
from .hypervector import (
    Hypervector,
    _bipolar_rows,
    _packed_size,
    _philox,
    _sign_threshold,
    _sign_words,
    hamming_words,
)
from .similarity import _cohort_words
from .training import ClassModel

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


class _PackedMerge:
    """Weighted merges run side by side over a cohort matrix from
    `_cohort_words` (S rows, then NS rows), one float64 bipolar
    accumulator row per merge.

    Each `add` step gives every merge the index of one correct-class row
    to add and one opposite-class row to subtract. Rows are unpacked to
    int8 +-1 only when added, and `w * row` lands every +-w exactly as
    `Accumulator.add` does. `sign` is the `Accumulator.normalize` rule,
    kept until the next step changes the accumulators.
    """

    def __init__(self, rows, dim: int, merges: int, cfg: MergeConfig, tie_break_seed: int):
        self.rows = rows
        self.dim = dim
        self.cfg = cfg
        self.threshold = _sign_threshold(tie_break_seed, dim)
        self.acc = np.zeros((merges, dim))
        self.total_weight = np.zeros(merges)
        self.steps = 0
        self._bits = np.zeros((merges, rows.shape[1] * 64), dtype=bool)
        self._sign = None

    def sign(self) -> np.ndarray:
        """The binarized accumulators as word-padded rows, (merges, words)."""
        if self._sign is None:
            self._sign = _sign_words(self.acc, self.threshold, self._bits)
        return self._sign

    def _accumulate(self, idx, weight) -> None:
        bipolar = _bipolar_rows(self.rows[idx].view(np.uint8), self.dim)
        # row by row, so the float temporary is one row, not one per merge
        weights = np.broadcast_to(weight, self.total_weight.shape)
        for acc, w, row in zip(self.acc, weights, bipolar):
            acc += w * row
        self.total_weight += weight
        self._sign = None

    def add(self, corr, wrong) -> None:
        cfg = self.cfg
        self.steps += 1
        if self.steps == 1:
            w0 = weight_correct(0.0, cfg.alpha_corr) if cfg.method == "waddsub" else 1.0
            self._accumulate(corr, w0)
            return
        if cfg.method == "avrg":
            self._accumulate(corr, 1.0)
            return
        current = self.sign()
        d_wrong = hamming_words(self.rows[wrong], current, self.dim)
        if cfg.wrong_weight_convention == "distance":
            w_wrong = weight_wrong(d_wrong, cfg.alpha_wrong)
        else:
            w_wrong = weight_correct(d_wrong, cfg.alpha_wrong)
        if cfg.method == "wsub":
            w_corr = 1.0
        else:
            d_corr = hamming_words(self.rows[corr], current, self.dim)
            w_corr = weight_correct(d_corr, cfg.alpha_corr)
        self._accumulate(corr, w_corr)
        self._accumulate(wrong, -w_wrong)


def _check_total_weight(total: float, class_name: str, where: str = "") -> None:
    if total <= 0:
        raise DegenerateCohortError(
            f"non-positive total weight {total:.4f} for class {class_name}{where}; "
            "cohort cancels itself out",
            total_weight=float(total),
        )


def generalize(cohort, cfg: MergeConfig, tie_break_seed: int = 0) -> ClassModel:
    """Merge a cohort of personalized models, in list order, into one
    generalized model."""
    cohort = list(cohort)
    dim, rows = _cohort_words(cohort)
    n = len(cohort)
    merge = _PackedMerge(rows, dim, 2, cfg, tie_break_seed)
    for _ in range(cfg.iterations):
        for i in range(n):
            merge.add([i, n + i], [n + i, i])
    _check_total_weight(merge.total_weight[0], "seizure")
    _check_total_weight(merge.total_weight[1], "non-seizure")
    seizure, non_seizure = merge.sign().view(np.uint8)[:, : _packed_size(dim)]
    refs = {m.codebook_ref for m in cohort}
    return ClassModel(
        seizure=Hypervector(seizure, dim),
        non_seizure=Hypervector(non_seizure, dim),
        kind="generalized",
        codebook_ref=refs.pop() if len(refs) == 1 else "",
    )


def _evolve(rows, dim: int, orders: np.ndarray, first: int, cfg: MergeConfig, seed: int):
    """Similarity series (ss, nsns, sns, nss), each (shuffles, n), for the
    shuffles `orders` (one row each, numbered from `first`) merged side by
    side."""
    r, n = orders.shape
    merge = _PackedMerge(rows, dim, 2 * r, cfg, seed)
    sims = np.empty((4, r, n))
    # [generalized S of each shuffle, then NS] x [cohort S rows, then NS]
    dist = np.empty((2 * r, 2 * n))
    for step in range(n):
        idx = orders[:, step]
        merge.add(np.concatenate([idx, n + idx]), np.concatenate([n + idx, idx]))
        # one generalized row at a time: the XOR temporary is one cohort matrix
        for b, gen in enumerate(merge.sign()):
            dist[b] = hamming_words(rows, gen, dim)
        sims[0, :, step] = 1.0 - dist[:r, :n].mean(axis=1)
        sims[1, :, step] = 1.0 - dist[r:, n:].mean(axis=1)
        sims[2, :, step] = 1.0 - dist[:r, n:].mean(axis=1)
        sims[3, :, step] = 1.0 - dist[r:, :n].mean(axis=1)
    for b, total in enumerate(merge.total_weight):
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
