"""Per-class prototype training and window classification.

Two trainers build a seizure / non-seizure prototype pair from encoded
windows: single-pass majority bundling, and an online scheme that weights
each sample by how unfamiliar it is to its own class and pushes it out of
a wrongly-predicting class.

Encoded windows share every bit past the level chain's flip blocks, so
the online trainer accumulates only the words its samples vary in. On a
word they all share, a class's sign bits follow from the sign of its
total weight: the shared value, its complement, or the tie-break bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingClassError
from .hypervector import (
    Hypervector,
    _bipolar_rows,
    _check_dim,
    _check_rows,
    _hamming_counts,
    _SignedSums,
    tie_break_vector,
)

MODEL_KINDS = ("personalized", "generalized", "hybrid")

SEIZURE = 1
NON_SEIZURE = 0


@dataclass(eq=False)
class ClassModel:
    """A trained seizure/non-seizure prototype pair plus provenance.

    `words` holds the two class vectors as uint64 word rows indexed
    by NON_SEIZURE and SEIZURE, the layout `_SignedSums.signs` returns.
    Models compare by identity; compare their `words` for content.
    """

    words: np.ndarray
    dim: int
    kind: str = "personalized"
    source_cohort: str = ""
    subject_id: str = ""
    codebook_ref: str = ""

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        _check_dim(self.dim)
        _check_rows(self.words, self.dim, 2, "class vector")

    @classmethod
    def from_vectors(cls, seizure: Hypervector, non_seizure: Hypervector, **meta) -> "ClassModel":
        """The model with class vectors `seizure` and `non_seizure`."""
        if seizure.dim != non_seizure.dim:
            raise ValueError("class vectors must share a dimension")
        rows = [None, None]
        rows[SEIZURE], rows[NON_SEIZURE] = seizure.words, non_seizure.words
        return cls(np.stack(rows), seizure.dim, **meta)

    def _vector(self, label: int) -> Hypervector:
        return Hypervector(self.words[label], self.dim)

    @property
    def seizure(self) -> Hypervector:
        return self._vector(SEIZURE)

    @property
    def non_seizure(self) -> Hypervector:
        return self._vector(NON_SEIZURE)


@dataclass
class TrainConfig:
    mode: str = "online"
    alpha: float = 1.0
    epochs: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("standard", "online"):
            raise ValueError(f"mode must be 'standard' or 'online', got {self.mode!r}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


def _check_samples(samples, labels, dim: int, subject_id: str = ""):
    """Validate a uint64 (N, ceil(dim/64)) word-row sample matrix and its
    0/1 labels; a missing class names `subject_id`, when given."""
    samples = np.ascontiguousarray(samples)
    labels = np.asarray(labels)
    _check_rows(samples, dim, "N", "sample")
    if labels.shape != (samples.shape[0],):
        raise ValueError(f"expected {samples.shape[0]} labels, got shape {labels.shape}")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError(f"labels must be 0 or 1, got {sorted(set(labels.tolist()))}")
    whose = f" for subject {subject_id!r}" if subject_id else ""
    if not (labels == SEIZURE).any():
        raise MissingClassError(f"no seizure samples{whose}")
    if not (labels == NON_SEIZURE).any():
        raise MissingClassError(f"no non-seizure samples{whose}")
    return samples, labels.astype(np.int64)


def train(samples, labels, cfg: TrainConfig, *, dim: int, **kwargs) -> ClassModel:
    """Train on word rows `samples` with 0/1 `labels`; `dim` is the bit count."""
    if cfg.mode == "standard":
        return train_standard(samples, labels, cfg, dim=dim, **kwargs)
    return train_online(samples, labels, cfg, dim=dim, **kwargs)


def _class_model(sums: _SignedSums, meta: dict) -> ClassModel:
    """The model whose class rows are a copy of the two-row `sums.signs()`,
    which a later `add` and `signs` may overwrite."""
    return ClassModel(sums.signs().copy(), sums.dim, **meta)


def train_standard(samples, labels, cfg: TrainConfig, *, dim: int, **meta) -> ClassModel:
    """Each class vector is the majority bundle of its samples: the sign of
    its bipolar sum, 2 * count - n."""
    samples, labels = _check_samples(samples, labels, dim, meta.get("subject_id", ""))
    sums = _SignedSums(2, dim, cfg.seed)
    classes = (NON_SEIZURE, SEIZURE)
    sums.add(classes, [_bipolar_rows(samples[labels == c], dim).sum(axis=0, dtype=np.int64)
                       for c in classes], (1.0, 1.0))
    return _class_model(sums, meta)


def _shared_rows(common: np.ndarray, shared: np.ndarray, dim: int, seed: int) -> np.ndarray:
    """The `shared` words of a class row whose total weight is > 0, < 0
    and == 0, as (3, words) rows zero elsewhere: `common`, its complement
    and the tie-break bits, on the real bits of those words."""
    real = np.where(shared, ~np.uint64(0), np.uint64(0))
    if dim % 64 and shared[-1]:
        real[-1] = (1 << dim % 64) - 1
    common = common & real
    return np.stack([common, ~common & real, tie_break_vector(seed, dim).words & real])


def _side(total_weight: float) -> int:
    """The `_shared_rows` row of a class with this total weight."""
    return 0 if total_weight > 0 else 1 if total_weight < 0 else 2


def train_online(samples, labels, cfg: TrainConfig, *, dim: int, stats: dict = None, **meta) -> ClassModel:
    """OnlineHD-style single-pass training, repeated for cfg.epochs.

    Each class accumulator starts from the first sample of that class.
    A sample of class C is added to acc_C with weight alpha * (1 - s_C),
    where s_C is its similarity to the current binarized acc_C; when the
    model currently predicts the wrong class W, the sample is also
    subtracted from acc_W with weight alpha * s_W. Similarities are taken
    before either accumulator is touched.

    The two accumulators are the rows of one `_SignedSums`, indexed by
    class, so every +-w lands exactly as in `Accumulator.add`. They hold
    only the words the samples vary in. Encoded windows share every bit
    past the level chain's flip blocks, about half their words. On a word
    all samples share, with value c, each add is +-w on every bit, so a
    class's value there is exactly +-its total weight (each entry rounds
    once, as the Python sum of the weights does, and rounding is
    symmetric): its sign bits are c while the total weight is > 0, ~c
    while it is < 0 and the tie-break bits while it is 0. A distance is
    the Hamming count over the varying words plus that closed-form count
    over the shared ones, over `dim`, bit-identical to `hamming_words` on
    full rows; the full class rows are assembled once, at the end.
    """
    samples, labels = _check_samples(samples, labels, dim, meta.get("subject_id", ""))
    common = np.bitwise_and.reduce(samples)
    shared = common == np.bitwise_or.reduce(samples)
    varying = np.flatnonzero(~shared)
    sums = _SignedSums(2, dim, cfg.seed, varying)
    if shared.any():
        samples = samples.take(varying, axis=1)
    fill = _shared_rows(common, shared, dim, cfg.seed)
    # every sample's count over the shared words, by `_side`: 0, all of
    # their bits, or where they differ from the tie-break bits
    flipped = _hamming_counts(fill[0], fill).tolist()
    bipolar = _bipolar_rows(samples, sums.dim)
    seen = [False, False]
    mispredictions = 0
    for _ in range(cfg.epochs):
        for x, row, label in zip(samples, bipolar, labels.tolist()):
            if not seen[label]:
                seen[label] = True
                sums.add((label,), (row,), (1.0,))
                continue
            other = 1 - label
            counts = _hamming_counts(x, sums.signs()).tolist()
            dist = [(n + flipped[_side(w)]) / dim for n, w in zip(counts, sums.total_weight)]
            s_own, s_other = 1.0 - dist[label], 1.0 - dist[other]
            sums.add((label,), (row,), (cfg.alpha * (1.0 - s_own),))
            if seen[other]:
                d_s = 1.0 - (s_own if label == SEIZURE else s_other)
                d_ns = 1.0 - (s_other if label == SEIZURE else s_own)
                predicted = SEIZURE if d_s < d_ns else NON_SEIZURE
                if predicted != label:
                    mispredictions += 1
                    sums.add((other,), (row,), (-cfg.alpha * s_other,))
    if stats is not None:
        stats["mispredictions"] = mispredictions
    words = fill[[_side(w) for w in sums.total_weight]]
    words[:, varying] = sums.signs()
    return ClassModel(words, dim, **meta)
