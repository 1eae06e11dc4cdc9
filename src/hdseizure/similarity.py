"""Inter-subject model similarity, class separability, and the paired
Wilcoxon signed-rank test used to compare per-subject performance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, IncompatibleModelsError, InsufficientDataError
from .hypervector import hamming_words
from .training import NON_SEIZURE, SEIZURE


@dataclass
class SimilarityMatrices:
    """Pairwise model similarities (1 - normalized Hamming) for a cohort."""

    subject_ids: list
    s_to_s: np.ndarray
    ns_to_ns: np.ndarray
    s_to_ns: np.ndarray  # [i, j] = sim(S_i, NS_j); not symmetric

    @property
    def n(self) -> int:
        return len(self.subject_ids)

    def off_diagonal_means(self):
        """Mean S-S and NS-NS similarity over distinct pairs, plus mean S-NS."""
        mask = ~np.eye(self.n, dtype=bool)
        return (
            float(self.s_to_s[mask].mean()),
            float(self.ns_to_ns[mask].mean()),
            float(self.s_to_ns.mean()),
        )


def _cohort_words(cohort):
    """(dim, rows): the cohort's S rows then its NS rows as one matrix of
    2n `to_words` rows. Only personalized models form a cohort."""
    if not cohort:
        raise InsufficientDataError("empty cohort")
    dim = cohort[0].dim
    for m in cohort:
        if m.kind != "personalized":
            raise IncompatibleModelsError(
                f"a cohort holds personalized models only; subject {m.subject_id!r} "
                f"is a {m.kind} model"
            )
        if m.dim != dim:
            raise IncompatibleModelsError(f"dimension mismatch: {m.dim} != {dim}")
    rows = np.array([m.words[label] for label in (SEIZURE, NON_SEIZURE) for m in cohort])
    return dim, rows


def pairwise_matrices(cohort) -> SimilarityMatrices:
    """All-pairs similarity between per-subject S and NS model vectors."""
    cohort = list(cohort)
    if len(cohort) < 2:
        raise InsufficientDataError(f"need at least 2 models, got {len(cohort)}")
    dim, rows = _cohort_words(cohort)
    n = len(cohort)
    # each unordered pair once: row k against the rows after it; the
    # distances are integer counts over dim, so the mirror is exact
    dist = np.zeros((2 * n, 2 * n))
    for k in range(2 * n - 1):
        dist[k, k + 1 :] = hamming_words(rows[k + 1 :], rows[k], dim)
    sim = 1.0 - (dist + dist.T)
    ids = [m.subject_id or f"subject{i}" for i, m in enumerate(cohort)]
    return SimilarityMatrices(
        subject_ids=ids, s_to_s=sim[:n, :n], ns_to_ns=sim[n:, n:], s_to_ns=sim[:n, n:]
    )


def separability(general, cohort) -> float:
    """Correct-class minus opposite-class mean similarity of a generalized
    model against a cohort of personalized models."""
    cohort = list(cohort)
    dim, rows = _cohort_words(cohort)
    if general.dim != dim:
        raise IncompatibleModelsError(f"dimension mismatch: {general.dim} != {dim}")
    n = len(cohort)
    # each generalized class row against the cohort's S rows, then its NS rows
    sim_s, sim_ns = (1.0 - hamming_words(rows, general.words[c], dim) for c in (SEIZURE, NON_SEIZURE))
    correct = np.mean((sim_s[:n] + sim_ns[n:]) / 2)
    opposite = np.mean((sim_s[n:] + sim_ns[:n]) / 2)
    return float(correct - opposite)


def _average_ranks(values) -> np.ndarray:
    """1-based ranks of a 1-D array; each group of ties shares its mean
    rank (the ranks of `scipy.stats.rankdata`)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    start = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    end = np.r_[start[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((start + end + 1) / 2, end - start)
    return ranks


def wilcoxon_signed_rank(x, y):
    """Two-sided paired Wilcoxon test: returns (W, p).

    Zero differences are dropped; absolute differences get average ranks.
    W = min(sum of positive ranks, sum of negative ranks). The p-value is
    exact (full enumeration of sign patterns) for n <= 12, otherwise a
    normal approximation with the usual tie correction and no continuity
    correction.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"need equal-length 1-D inputs, got {x.shape} and {y.shape}")
    diff = x - y
    diff = diff[diff != 0]
    n = diff.size
    if n == 0:
        raise DegenerateInputError("all paired differences are zero")
    if n < 5:
        raise DegenerateInputError(f"need >= 5 nonzero differences, got {n}")
    ranks = _average_ranks(np.abs(diff))
    w_pos = float(ranks[diff > 0].sum())
    w_neg = float(ranks[diff < 0].sum())
    w = min(w_pos, w_neg)
    total = n * (n + 1) / 2
    if n <= 12:
        subsets = np.arange(1 << n)
        picks = (subsets[:, None] >> np.arange(n)[None, :]) & 1
        t_pos = picks @ ranks
        p = (np.count_nonzero(t_pos <= w) + np.count_nonzero(t_pos >= total - w)) / (1 << n)
    else:
        _, counts = np.unique(np.abs(diff), return_counts=True)
        var = n * (n + 1) * (2 * n + 1) / 24 - ((counts**3 - counts).sum()) / 48
        z = (w - total / 2) / np.sqrt(var)
        from scipy.special import ndtr  # the standard normal CDF

        p = 2 * ndtr(z)
    return w, float(min(p, 1.0))
