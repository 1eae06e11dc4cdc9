"""Scalar reference implementations that the package's batched kernels are
tested against. They work one window or one `Hypervector` at a time,
straight from the definitions, and are not used by the package itself."""

import numpy as np

from hdseizure import evaluation
from hdseizure.errors import DegenerateInputError, MissingClassError
from hdseizure.features import DEFAULT_BANDS
from hdseizure.generalization import generalize
from hdseizure.hybrid import compose_hybrid
from hdseizure.hypervector import (
    Accumulator,
    Hypervector,
    _philox,
    bind,
    bundle,
    hamming_distance,
    tie_break_vector,
)
from hdseizure.training import NON_SEIZURE, SEIZURE, ClassModel, TrainConfig


def quantize(value: float, lo: float, hi: float, num_levels: int) -> int:
    """Clamp into [lo, hi] and map linearly onto {0, ..., num_levels-1}."""
    if lo >= hi:
        raise ValueError(f"degenerate range [{lo}, {hi}]")
    value = min(max(value, lo), hi)
    idx = int((value - lo) / (hi - lo) * num_levels)
    return min(idx, num_levels - 1)


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
        bound.append(bind(Hypervector(codebooks.id_vectors[f], codebooks.dim),
                          Hypervector(codebooks.level_vectors[q], codebooks.dim)))
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
    return ClassModel.from_vectors(seizure=s_vec, non_seizure=ns_vec, **meta)


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
    return ClassModel.from_vectors(
        seizure=acc[SEIZURE].normalize(cfg.seed),
        non_seizure=acc[NON_SEIZURE].normalize(cfg.seed),
        **meta,
    )


def classify(x: Hypervector, model: ClassModel):
    """Nearest-prototype label: (label, dS, dNS); ties go to non-seizure."""
    if x.dim != model.dim:
        raise ValueError(f"dimension mismatch: {x.dim} != {model.dim}")
    d_s = hamming_distance(x, model.seizure)
    d_ns = hamming_distance(x, model.non_seizure)
    label = SEIZURE if d_s < d_ns else NON_SEIZURE
    return label, d_s, d_ns


def class_probability(d_s: float, d_ns: float) -> float:
    """Pseudo-probability of seizure from the two prototype distances."""
    s_s = 1.0 - d_s
    s_ns = 1.0 - d_ns
    if s_s + s_ns == 0:
        return 0.5
    return s_s / (s_s + s_ns)


def complement(v: Hypervector) -> Hypervector:
    """Flip every bit (padding stays zero)."""
    out = np.bitwise_not(v.bits)
    tail = v.dim % 8
    if tail:
        out[-1] &= (1 << tail) - 1
    return Hypervector(out, v.dim)


def select_models(gen_scores, pers_scores, threshold: float):
    """Assign each subject gen or pers: gen iff its gen score >= threshold.

    Returns (assignment list of 'gen'/'pers', fraction assigned gen).
    """
    gen_scores = np.asarray(gen_scores, dtype=np.float64)
    pers_scores = np.asarray(pers_scores, dtype=np.float64)
    if gen_scores.shape != pers_scores.shape or gen_scores.ndim != 1:
        raise ValueError(
            f"score lists must have equal length, got {gen_scores.shape} and {pers_scores.shape}"
        )
    assignment = ["gen" if g >= threshold else "pers" for g in gen_scores]
    fraction = assignment.count("gen") / len(assignment) if assignment else 0.0
    return assignment, fraction


def polygonal_approximation(window, epsilon: float) -> np.ndarray:
    """Ramer-Douglas-Peucker simplification of the points (t, window[t]).

    Returns the strictly increasing indices of the retained vertices,
    always including the first and last point. A point survives when its
    perpendicular distance to the current chord exceeds `epsilon`.
    """
    x = np.asarray(window, dtype=np.float64)
    if x.size < 2:
        raise DegenerateInputError("polygonal approximation needs at least 2 points")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    keep = np.zeros(x.size, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, x.size - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        t = np.arange(i + 1, j)
        cross = (x[j] - x[i]) * (t - i) - (j - i) * (x[t] - x[i])
        dist = np.abs(cross) / np.hypot(j - i, x[j] - x[i])
        k = int(t[np.argmax(dist)])
        if dist.max() > epsilon:
            keep[k] = True
            stack.append((i, k))
            stack.append((k, j))
    return np.flatnonzero(keep)


def azc_features(window, epsilons, fs: float) -> np.ndarray:
    """Zero crossings per second of the polygonally simplified window,
    one count per tolerance. The caller is expected to have bandpass
    filtered the signal already."""
    x = np.asarray(window, dtype=np.float64)
    seconds = x.size / fs
    out = np.empty(len(epsilons))
    for k, eps in enumerate(epsilons):
        vals = x[polygonal_approximation(x, eps)]
        vals = vals[vals != 0]
        crossings = int(np.count_nonzero(np.sign(vals[:-1]) != np.sign(vals[1:])))
        out[k] = crossings / seconds
    return out


def transfer_oracle(source, target_cohort, mode, cfg, source_codebooks=None):
    """`evaluation.transfer_eval` as a plain loop over the targets: each one
    fits ranges, trains and merges its eligible source subjects anew, and a
    hybrid target's windows are encoded once to train its own class and
    once more to classify."""
    raw_source = not isinstance(source[0], ClassModel)
    if raw_source:
        books = evaluation._base_codebooks([fm for recs in source for fm in recs], cfg)
    else:
        books = source_codebooks
    reports = []
    for target_recs in target_cohort:
        target_id = evaluation._subject_id_of(target_recs)
        subject_id = target_id or "target"
        if raw_source:
            eligible = [recs for recs in source
                        if evaluation._subject_id_of(recs) != target_id or not target_id]
            fitted, models = evaluation._train_cohort(eligible, cfg, books)
        else:
            fitted = books
            models = [m for m in source if m.subject_id != target_id or not target_id]
        if len(models) == 1 and models[0].kind == "generalized":
            applied = models[0]
        else:
            applied = generalize(models, cfg.merge, tie_break_seed=cfg.seed)
        if mode != "generalized":
            own = evaluation.train_personalized(target_recs, fitted, cfg, subject_id=subject_id)
            applied = compose_hybrid(own, applied, mode)
        rows = evaluation.encode_windows(evaluation._stack_values(target_recs), fitted)
        raw, p = evaluation._classify_rows(rows, applied)
        reports.append(evaluation._report(subject_id, mode, evaluation._stack_labels(target_recs),
                                          raw, p, cfg))
    return reports


def binarize_oracle(values, seed, dim):
    bits = (values > 0).astype(np.uint8)
    zero = values == 0
    bits[zero] = tie_break_vector(seed, dim).to_bools()[zero]
    return bits


def merge_oracle(cohort, cfg, seed, dim, totals=None):
    """Straight-line re-implementation of the weighted merge on raw arrays.

    Returns the S and NS bit arrays; `totals`, when given, receives each
    class's total weight under the keys "s" and "ns".
    """
    out = {}
    for target in ("s", "ns"):
        acc = None
        total = 0.0
        for _ in range(cfg.iterations):
            for m in cohort:
                corr = (m.seizure if target == "s" else m.non_seizure).to_bools()
                wrong = (m.non_seizure if target == "s" else m.seizure).to_bools()
                if acc is None:
                    w0 = cfg.alpha_corr if cfg.method == "waddsub" else 1.0
                    acc = w0 * (corr * 2.0 - 1.0)
                    total += w0
                    continue
                cur = binarize_oracle(acc, seed, dim)
                d_corr = np.mean(corr != cur)
                d_wrong = np.mean(wrong != cur)
                if cfg.wrong_weight_convention == "distance":
                    w_wrong = cfg.alpha_wrong * d_wrong
                else:
                    w_wrong = cfg.alpha_wrong * (1.0 - d_wrong)
                if cfg.method == "avrg":
                    acc += corr * 2.0 - 1.0
                    total += 1.0
                    continue
                w_corr = 1.0 if cfg.method == "wsub" else cfg.alpha_corr * (1.0 - d_corr)
                acc += w_corr * (corr * 2.0 - 1.0)
                acc -= w_wrong * (wrong * 2.0 - 1.0)
                total += w_corr
                total -= w_wrong
        out[target] = binarize_oracle(acc, seed, dim)
        if totals is not None:
            totals[target] = total
    return out["s"], out["ns"]


def evolution_oracle(cohort, cfg, repetitions, seed):
    """Per-shuffle evolution series, one (5, n) array each: rows ss, nsns,
    sns, nss and separability.

    Step k merges the first k + 1 subjects of the `_philox(seed, rep)`
    order with `merge_oracle` and averages the per-model Hamming
    similarities of the result. Also returns whether any shuffle ends with
    a non-positive total weight for either class.
    """
    dim = cohort[0].dim
    n = len(cohort)
    s_bits = [m.seizure.to_bools() for m in cohort]
    ns_bits = [m.non_seizure.to_bools() for m in cohort]

    def mean_sim(gen, rows):
        return 1.0 - np.mean([np.count_nonzero(gen != r) / dim for r in rows])

    curves, degenerate = [], False
    for rep in range(repetitions):
        order = _philox(seed, rep).permutation(n)
        series = np.empty((5, n))
        for k in range(n):
            totals = {}
            prefix = [cohort[i] for i in order[: k + 1]]
            gen_s, gen_ns = merge_oracle(prefix, cfg, seed, dim, totals)
            ss, nsns = mean_sim(gen_s, s_bits), mean_sim(gen_ns, ns_bits)
            sns, nss = mean_sim(gen_s, ns_bits), mean_sim(gen_ns, s_bits)
            series[:, k] = ss, nsns, sns, nss, (ss + nsns) / 2 - (sns + nss) / 2
        degenerate |= min(totals.values()) <= 0
        curves.append(series)
    return curves, degenerate


def mean_amplitude(window) -> float:
    """Mean absolute sample value."""
    window = np.asarray(window, dtype=np.float64)
    if window.size == 0:
        raise DegenerateInputError("empty window")
    return float(np.abs(window).mean())


def line_length(window) -> float:
    """Sum of absolute first differences."""
    window = np.asarray(window, dtype=np.float64)
    if window.size < 2:
        raise DegenerateInputError("line length needs at least 2 samples")
    return float(np.abs(np.diff(window)).sum())


def band_powers(window, fs: float, bands=DEFAULT_BANDS):
    """Absolute and relative spectral power per band.

    The spectrum is the squared-magnitude FFT of the mean-removed,
    Hann-tapered window. Bands are half-open [low, high); relative powers
    divide by the total power over (0, max band edge], or are 0 when the
    window has no power at all.

    Returns:
        (absolute, relative): two float arrays, one entry per band.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.size < fs:
        raise DegenerateInputError("band powers need at least one second of samples")
    tapered = (window - window.mean()) * np.hanning(window.size)
    spectrum = np.abs(np.fft.rfft(tapered)) ** 2
    freqs = np.fft.rfftfreq(window.size, 1.0 / fs)
    top = max(b[2] for b in bands)
    total = spectrum[(freqs > 0) & (freqs <= top)].sum()
    absolute = np.array(
        [spectrum[(freqs >= low) & (freqs < high)].sum() for _, low, high in bands]
    )
    relative = absolute / total if total > 0 else np.zeros_like(absolute)
    return absolute, relative
