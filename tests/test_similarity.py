import itertools

import numpy as np
import pytest
from scipy import stats

from hdseizure.errors import DegenerateInputError, IncompatibleModelsError, InsufficientDataError
from hdseizure.hypervector import Hypervector, hamming_words, random_hypervector, similarity
from hdseizure.similarity import (
    _average_ranks,
    SimilarityMatrices,
    pairwise_matrices,
    separability,
    wilcoxon_signed_rank,
)
from hdseizure.training import ClassModel


def make_model(seed, dim=128, subject_id=""):
    return ClassModel.from_vectors(
        seizure=random_hypervector(seed, 0, dim),
        non_seizure=random_hypervector(seed, 1, dim),
        subject_id=subject_id,
    )


def naive_similarity(a, b):
    return 1.0 - np.mean(a.to_bools() != b.to_bools())


def test_package_similarity_is_the_module():
    import hdseizure
    import hdseizure.similarity as module
    from hdseizure import similarity as top_level

    assert top_level is module
    assert hdseizure.pairwise_matrices is top_level.pairwise_matrices
    assert "similarity" not in hdseizure.__all__
    assert all(hasattr(hdseizure, name) for name in hdseizure.__all__)


class TestPairwiseMatrices:
    def test_identical_models_all_ones(self):
        m = make_model(1)
        twin = ClassModel.from_vectors(seizure=m.seizure, non_seizure=m.non_seizure)
        mats = pairwise_matrices([m, twin])
        np.testing.assert_array_equal(mats.s_to_s, 1.0)
        np.testing.assert_array_equal(mats.ns_to_ns, 1.0)

    def test_unit_diagonal(self):
        mats = pairwise_matrices([make_model(s) for s in range(4)])
        np.testing.assert_array_equal(np.diag(mats.s_to_s), 1.0)
        np.testing.assert_array_equal(np.diag(mats.ns_to_ns), 1.0)

    def test_three_subjects_match_naive_oracle(self):
        cohort = [make_model(s, dim=128) for s in (3, 4, 5)]
        mats = pairwise_matrices(cohort)
        for i in range(3):
            for j in range(3):
                assert mats.s_to_s[i, j] == naive_similarity(cohort[i].seizure, cohort[j].seizure)
                assert mats.ns_to_ns[i, j] == naive_similarity(
                    cohort[i].non_seizure, cohort[j].non_seizure
                )
                assert mats.s_to_ns[i, j] == naive_similarity(
                    cohort[i].seizure, cohort[j].non_seizure
                )

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_compares_each_row_pair_once(self, n, monkeypatch):
        import hdseizure.similarity as module

        compared = []

        def counting(a, b, dim):
            out = hamming_words(a, b, dim)
            compared.append(np.size(out))
            return out

        monkeypatch.setattr(module, "hamming_words", counting)
        cohort = [make_model(s, dim=200) for s in range(n)]
        mats = pairwise_matrices(cohort)
        assert sum(compared) == 2 * n * (2 * n - 1) // 2
        for i, j in itertools.product(range(n), repeat=2):
            a, b = cohort[i], cohort[j]
            assert mats.s_to_s[i, j] == naive_similarity(a.seizure, b.seizure)
            assert mats.ns_to_ns[i, j] == naive_similarity(a.non_seizure, b.non_seizure)
            assert mats.s_to_ns[i, j] == naive_similarity(a.seizure, b.non_seizure)

    def test_symmetry_and_bounds(self):
        cohort = [make_model(s, dim=256) for s in range(5)]
        mats = pairwise_matrices(cohort)
        np.testing.assert_array_equal(mats.s_to_s, mats.s_to_s.T)
        np.testing.assert_array_equal(mats.ns_to_ns, mats.ns_to_ns.T)
        for m in (mats.s_to_s, mats.ns_to_ns, mats.s_to_ns):
            assert (m >= 0).all() and (m <= 1).all()

    def test_reorder_is_permutation(self):
        cohort = [make_model(s, dim=128) for s in range(4)]
        perm = [2, 0, 3, 1]
        a = pairwise_matrices(cohort)
        b = pairwise_matrices([cohort[i] for i in perm])
        np.testing.assert_array_equal(b.s_to_s, a.s_to_s[np.ix_(perm, perm)])
        np.testing.assert_array_equal(b.s_to_ns, a.s_to_ns[np.ix_(perm, perm)])

    def test_too_small_or_mismatched(self):
        with pytest.raises(ValueError):
            pairwise_matrices([make_model(0)])
        with pytest.raises(InsufficientDataError):
            pairwise_matrices([make_model(0)])
        with pytest.raises(ValueError):
            pairwise_matrices([make_model(0, dim=128), make_model(1, dim=64)])
        with pytest.raises(IncompatibleModelsError):
            pairwise_matrices([make_model(0, dim=128), make_model(1, dim=64)])

    @pytest.mark.parametrize("dim", [64, 72, 1001, 10000])
    def test_matches_scalar_similarity(self, dim):
        cohort = [make_model(s, dim=dim) for s in range(5)]
        mats = pairwise_matrices(cohort)
        for i, a in enumerate(cohort):
            for j, b in enumerate(cohort):
                assert mats.s_to_s[i, j] == similarity(a.seizure, b.seizure)
                assert mats.ns_to_ns[i, j] == similarity(a.non_seizure, b.non_seizure)
                assert mats.s_to_ns[i, j] == similarity(a.seizure, b.non_seizure)

    def test_off_diagonal_means(self):
        cohort = [make_model(s, dim=256) for s in range(3)]
        mats = pairwise_matrices(cohort)
        ss, nsns, sns = mats.off_diagonal_means()
        mask = ~np.eye(3, dtype=bool)
        assert ss == pytest.approx(mats.s_to_s[mask].mean())
        assert nsns == pytest.approx(mats.ns_to_ns[mask].mean())
        assert sns == pytest.approx(mats.s_to_ns.mean())


class TestSeparability:
    def test_self_cohort_with_orthogonal_classes(self):
        m = make_model(7, dim=10000)
        assert abs(separability(m, [m]) - 0.5) < 0.02

    def test_equal_class_vectors_zero(self):
        v = random_hypervector(1, 5, 256)
        degenerate = ClassModel.from_vectors(seizure=v, non_seizure=v)
        cohort = [make_model(s, dim=256) for s in range(3)]
        assert separability(degenerate, cohort) == 0.0

    def test_two_subject_hand_computation(self):
        gen = make_model(11, dim=128)
        cohort = [make_model(12, dim=128), make_model(13, dim=128)]
        correct = np.mean(
            [
                (naive_similarity(gen.seizure, m.seizure) + naive_similarity(gen.non_seizure, m.non_seizure)) / 2
                for m in cohort
            ]
        )
        opposite = np.mean(
            [
                (naive_similarity(gen.seizure, m.non_seizure) + naive_similarity(gen.non_seizure, m.seizure)) / 2
                for m in cohort
            ]
        )
        assert separability(gen, cohort) == pytest.approx(correct - opposite)

    def test_empty_cohort(self):
        with pytest.raises(ValueError):
            separability(make_model(0), [])
        with pytest.raises(InsufficientDataError):
            separability(make_model(0), [])

    @pytest.mark.parametrize("dim", [64, 72, 1001, 10000])
    def test_matches_scalar_similarity(self, dim):
        gen = make_model(40, dim=dim)
        cohort = [make_model(s, dim=dim) for s in range(41, 48)]
        correct = np.mean(
            [
                (similarity(gen.seizure, m.seizure)
                 + similarity(gen.non_seizure, m.non_seizure)) / 2
                for m in cohort
            ]
        )
        opposite = np.mean(
            [
                (similarity(gen.seizure, m.non_seizure)
                 + similarity(gen.non_seizure, m.seizure)) / 2
                for m in cohort
            ]
        )
        assert separability(gen, cohort) == float(correct - opposite)

    def test_dimension_mismatch(self):
        cohort = [make_model(s, dim=128) for s in range(3)]
        with pytest.raises(IncompatibleModelsError):
            separability(make_model(9, dim=136), cohort)
        with pytest.raises(IncompatibleModelsError):
            separability(make_model(9, dim=128), cohort + [make_model(4, dim=64)])


def average_ranks(values):
    """Hand-rolled average ranking for the enumeration oracle."""
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def wilcoxon_oracle(x, y):
    """Exhaustive sign-pattern enumeration, independent of the library path."""
    diff = np.asarray(x, float) - np.asarray(y, float)
    diff = diff[diff != 0]
    ranks = average_ranks(np.abs(diff))
    w = min(ranks[diff > 0].sum(), ranks[diff < 0].sum())
    total = ranks.sum()
    hits = 0
    for signs in itertools.product((0, 1), repeat=len(diff)):
        t_pos = sum(r for s, r in zip(signs, ranks) if s)
        if t_pos <= w or t_pos >= total - w:
            hits += 1
    return w, min(hits / 2 ** len(diff), 1.0)


class TestWilcoxon:
    def test_constant_shift_exact_p(self):
        y = np.arange(8.0)
        x = y + 3.0
        w, p = wilcoxon_signed_rank(x, y)
        assert w == 0.0
        assert p == 2 / 256

    def test_all_zero_differences(self):
        x = np.arange(6.0)
        with pytest.raises(DegenerateInputError):
            wilcoxon_signed_rank(x, x)

    def test_too_few_nonzero(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        y = x.copy()
        y[:3] += 1.0
        with pytest.raises(DegenerateInputError):
            wilcoxon_signed_rank(x, y)

    def test_exact_matches_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        for n in (5, 6, 9, 12):
            for _ in range(5):
                x = rng.standard_normal(n)
                y = rng.standard_normal(n)
                w, p = wilcoxon_signed_rank(x, y)
                ow, op = wilcoxon_oracle(x, y)
                assert w == ow
                assert p == pytest.approx(op, abs=1e-12)

    def test_exact_with_tied_magnitudes(self):
        x = np.array([2.0, -2.0, 3.0, -3.0, 1.0, 4.0])
        y = np.zeros(6)
        w, p = wilcoxon_signed_rank(x, y)
        ow, op = wilcoxon_oracle(x, y)
        assert w == ow and p == pytest.approx(op, abs=1e-12)
        assert p <= 1.0

    def test_normal_approximation_matches_scipy(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(25)
        y = rng.standard_normal(25)
        w, p = wilcoxon_signed_rank(x, y)
        ref = stats.wilcoxon(x, y, correction=False, method="approx")
        assert w == ref.statistic
        assert p == pytest.approx(ref.pvalue, abs=1e-12)

    def test_normal_approximation_with_ties(self):
        rng = np.random.default_rng(9)
        x = rng.integers(0, 4, size=30).astype(float)
        y = rng.integers(0, 4, size=30).astype(float)
        keep = x != y
        if keep.sum() < 14:
            pytest.skip("degenerate draw")
        w, p = wilcoxon_signed_rank(x, y)
        ref = stats.wilcoxon(x[keep], y[keep], correction=False, method="approx")
        assert p == pytest.approx(ref.pvalue, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank(np.zeros(5), np.zeros(6))


class TestScipyStatsReplacement:
    """The package ranks and takes the normal CDF without `scipy.stats`;
    both must give the bytes `scipy.stats` gives."""

    def test_average_ranks_equal_rankdata(self):
        rng = np.random.default_rng(11)
        cases = [np.array([3.5]), np.zeros(7), np.array([0.0, -0.0, 0.0, 1.0]),
                 np.array([0.5, 0.25, 0.5, 0.125, 0.25, 0.5, 2.0 ** -40, 2.0 ** -40])]
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            cases.append(rng.standard_normal(n))
            cases.append(rng.integers(0, max(n // 3, 1), size=n) * 0.25)  # ties
        for values in cases:
            ranks = _average_ranks(values)
            assert ranks.dtype == np.float64
            assert ranks.tobytes() == stats.rankdata(values).tobytes(), values

    def test_ndtr_equals_norm_cdf(self):
        from scipy.special import ndtr

        z = np.concatenate([np.linspace(-40.0, 0.0, 200_001),
                            -np.random.default_rng(12).exponential(2.0, 10_000)])
        assert (2 * ndtr(z)).tobytes() == (2 * stats.norm.cdf(z)).tobytes()

    def test_normal_approximation_p_equals_scipy_stats(self):
        rng = np.random.default_rng(13)
        for draw in range(400):
            n = int(rng.integers(13, 80))
            if draw % 2:
                x, y = rng.integers(0, 5, size=(2, n)).astype(float)
            else:
                x, y = rng.standard_normal((2, n))
            diff = x - y
            diff = diff[diff != 0]
            if diff.size <= 12:
                continue
            ranks = stats.rankdata(np.abs(diff))
            w = min(ranks[diff > 0].sum(), ranks[diff < 0].sum())
            m = diff.size
            _, counts = np.unique(np.abs(diff), return_counts=True)
            var = m * (m + 1) * (2 * m + 1) / 24 - ((counts**3 - counts).sum()) / 48
            z = (w - m * (m + 1) / 4) / np.sqrt(var)
            assert wilcoxon_signed_rank(x, y) == (w, min(float(2 * stats.norm.cdf(z)), 1.0))


class TestMatricesContainer:
    def test_n_property(self):
        mats = SimilarityMatrices(
            subject_ids=["a", "b"],
            s_to_s=np.eye(2),
            ns_to_ns=np.eye(2),
            s_to_ns=np.zeros((2, 2)),
        )
        assert mats.n == 2
