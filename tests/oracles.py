"""Scalar reference implementations that the packed-matrix core is tested
against. They work one `Hypervector` at a time, straight from the
definitions, and are not used by the package itself."""

import numpy as np

from hdseizure.encoding import quantize
from hdseizure.errors import MissingClassError
from hdseizure.hypervector import Accumulator, Hypervector, bind, bundle, hamming_distance
from hdseizure.training import NON_SEIZURE, SEIZURE, ClassModel, TrainConfig


def encode_window(features, codebooks) -> Hypervector:
    """Majority bundle of bind(id[f], level[quantize(x[f])]) over features,
    ties broken from the codebook seed; constant features sit at level 0."""
    if not codebooks.is_fitted:
        raise ValueError("codebooks have no fitted feature ranges; call fit_ranges")
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (codebooks.num_features,):
        raise ValueError(
            f"expected {codebooks.num_features} features, got shape {features.shape}"
        )
    bound = []
    for f, value in enumerate(features):
        lo, hi = codebooks.feature_min[f], codebooks.feature_max[f]
        q = quantize(value, lo, hi, codebooks.num_levels) if lo < hi else 0
        bound.append(bind(codebooks.id_vectors[f], codebooks.level_vectors[q]))
    return bundle(bound, tie_break_seed=codebooks.seed)


def _split_classes(samples):
    samples = list(samples)
    for _, label in samples:
        if label not in (0, 1):
            raise ValueError(f"labels must be 0 or 1, got {label!r}")
    if not any(label == SEIZURE for _, label in samples):
        raise MissingClassError("no seizure samples")
    if not any(label == NON_SEIZURE for _, label in samples):
        raise MissingClassError("no non-seizure samples")
    return samples


def train_standard(samples, cfg: TrainConfig, **meta) -> ClassModel:
    """Majority bundle per class over (Hypervector, label) pairs."""
    samples = _split_classes(samples)
    s_vec = bundle((v for v, y in samples if y == SEIZURE), tie_break_seed=cfg.seed)
    ns_vec = bundle((v for v, y in samples if y == NON_SEIZURE), tie_break_seed=cfg.seed)
    return ClassModel(seizure=s_vec, non_seizure=ns_vec, **meta)


def train_online(samples, cfg: TrainConfig, stats: dict = None, **meta) -> ClassModel:
    """The online update rule over (Hypervector, label) pairs, with an
    `Accumulator` per class that is binarized before every comparison."""
    samples = _split_classes(samples)
    acc = {SEIZURE: None, NON_SEIZURE: None}
    mispredictions = 0
    subtractions = 0
    for _ in range(cfg.epochs):
        for x, label in samples:
            if acc[label] is None:
                acc[label] = Accumulator.from_vector(x)
                continue
            other = SEIZURE if label == NON_SEIZURE else NON_SEIZURE
            s_own = 1.0 - hamming_distance(x, acc[label].normalize(cfg.seed))
            s_other = None
            if acc[other] is not None:
                s_other = 1.0 - hamming_distance(x, acc[other].normalize(cfg.seed))
            acc[label].add(x, cfg.alpha * (1.0 - s_own))
            if s_other is not None:
                d_s = 1.0 - (s_own if label == SEIZURE else s_other)
                d_ns = 1.0 - (s_other if label == SEIZURE else s_own)
                predicted = SEIZURE if d_s < d_ns else NON_SEIZURE
                if predicted != label:
                    mispredictions += 1
                    subtractions += 1
                    acc[other].add(x, -cfg.alpha * s_other)
    if stats is not None:
        stats["mispredictions"] = mispredictions
        stats["subtractions"] = subtractions
    return ClassModel(
        seizure=acc[SEIZURE].normalize(cfg.seed),
        non_seizure=acc[NON_SEIZURE].normalize(cfg.seed),
        **meta,
    )
