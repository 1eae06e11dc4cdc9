"""Per-class prototype training and window classification.

Two trainers build a seizure / non-seizure prototype pair from encoded
windows: single-pass majority bundling, and an online scheme that weights
each sample by how unfamiliar it is to its own class and pushes it out of
a wrongly-predicting class.
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
    _packed_size,
    _SignedSums,
    hamming_words,
    to_words,
)

MODEL_KINDS = ("personalized", "generalized", "hybrid")

SEIZURE = 1
NON_SEIZURE = 0


@dataclass(eq=False)
class ClassModel:
    """A trained seizure/non-seizure prototype pair plus provenance.

    `words` holds the two class vectors as uint64 `to_words` rows indexed
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
        shape = (2, -(-self.dim // 64))
        if getattr(self.words, "dtype", None) != np.uint64 or np.shape(self.words) != shape:
            raise ValueError(f"class words must be a uint64 {shape} matrix for dim {self.dim}")

    @classmethod
    def from_vectors(cls, seizure: Hypervector, non_seizure: Hypervector, **meta) -> "ClassModel":
        """The model with class vectors `seizure` and `non_seizure`."""
        if seizure.dim != non_seizure.dim:
            raise ValueError("class vectors must share a dimension")
        rows = [None, None]
        rows[SEIZURE], rows[NON_SEIZURE] = seizure.bits, non_seizure.bits
        return cls(to_words(rows), seizure.dim, **meta)

    def _vector(self, label: int) -> Hypervector:
        return Hypervector(self.words[label].view(np.uint8)[: _packed_size(self.dim)].copy(), self.dim)

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


def _check_samples(samples, labels, dim: int):
    """Validate a packed (N, ceil(dim/8)) sample matrix and its 0/1 labels."""
    samples = np.asarray(samples)
    labels = np.asarray(labels)
    if samples.dtype != np.uint8 or samples.ndim != 2 or samples.shape[1] != _packed_size(dim):
        raise ValueError(
            f"samples must be a uint8 (N, {_packed_size(dim)}) matrix for dim {dim}, "
            f"got {samples.dtype} {samples.shape}"
        )
    if labels.shape != (samples.shape[0],):
        raise ValueError(f"expected {samples.shape[0]} labels, got shape {labels.shape}")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError(f"labels must be 0 or 1, got {sorted(set(labels.tolist()))}")
    if not (labels == SEIZURE).any():
        raise MissingClassError("no seizure samples")
    if not (labels == NON_SEIZURE).any():
        raise MissingClassError("no non-seizure samples")
    return samples, labels.astype(np.int64)


def train(samples, labels, cfg: TrainConfig, *, dim: int, **kwargs) -> ClassModel:
    """Train on packed rows `samples` with 0/1 `labels`; `dim` is the bit count."""
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
    samples, labels = _check_samples(samples, labels, dim)
    sums = _SignedSums(2, dim, cfg.seed)
    classes = (NON_SEIZURE, SEIZURE)
    sums.add(classes, [_bipolar_rows(samples[labels == c], dim).sum(axis=0, dtype=np.int64)
                       for c in classes], (1.0, 1.0))
    return _class_model(sums, meta)


def train_online(samples, labels, cfg: TrainConfig, *, dim: int, stats: dict = None, **meta) -> ClassModel:
    """OnlineHD-style single-pass training, repeated for cfg.epochs.

    Each class accumulator starts from the first sample of that class.
    A sample of class C is added to acc_C with weight alpha * (1 - s_C),
    where s_C is its similarity to the current binarized acc_C; when the
    model currently predicts the wrong class W, the sample is also
    subtracted from acc_W with weight alpha * s_W. Similarities are taken
    before either accumulator is touched.

    The two accumulators are the rows of one `_SignedSums`, indexed by
    class, so every +-w lands exactly as in `Accumulator.add`.
    """
    samples, labels = _check_samples(samples, labels, dim)
    words = to_words(samples)
    bipolar = _bipolar_rows(samples, dim)
    sums = _SignedSums(2, dim, cfg.seed)
    seen = [False, False]
    mispredictions = 0
    for _ in range(cfg.epochs):
        for x, row, label in zip(words, bipolar, labels.tolist()):
            if not seen[label]:
                seen[label] = True
                sums.add((label,), (row,), (1.0,))
                continue
            other = 1 - label
            dist = hamming_words(x, sums.signs(), dim).tolist()
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
        stats["subtractions"] = mispredictions
    return _class_model(sums, meta)
