import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdseizure import generalization, training
from hdseizure.errors import MissingClassError
from hdseizure.evaluation import _classify_rows
from hdseizure.generalization import MergeConfig
from hdseizure.hypervector import (
    Hypervector,
    _bipolar_rows,
    _SignedSums,
    hamming_distance,
    random_hypervector,
    tie_break_vector,
)
from hdseizure.training import (
    NON_SEIZURE,
    SEIZURE,
    ClassModel,
    TrainConfig,
    train,
    train_online,
    train_standard,
)
from oracles import class_probability, classify, complement


def fit(trainer, samples, cfg, **kwargs):
    """Run a packed-matrix trainer on (Hypervector, label) pairs."""
    rows = np.stack([v.words for v, _ in samples])
    labels = [y for _, y in samples]
    return trainer(rows, labels, cfg, dim=samples[0][0].dim, **kwargs)


def flip_fraction(v, fraction, rng):
    bits = v.to_bools().copy()
    k = int(round(fraction * v.dim))
    idx = rng.choice(v.dim, size=k, replace=False)
    bits[idx] ^= 1
    return Hypervector.from_bools(bits)


def cluster_samples(dim=256, per_class=12, noise=0.1, seed=5):
    rng = np.random.default_rng(seed)
    base_s = random_hypervector(seed, 100, dim)
    base_ns = random_hypervector(seed, 101, dim)
    samples = []
    for _ in range(per_class):
        samples.append((flip_fraction(base_s, noise, rng), 1))
        samples.append((flip_fraction(base_ns, noise, rng), 0))
    return samples


def online_oracle(samples, alpha, epochs, seed, dim):
    """Straight-line reference of the online update rule on raw arrays."""
    tie = tie_break_vector(seed, dim).to_bools()

    def binarize(vals):
        bits = (vals > 0).astype(np.uint8)
        zero = vals == 0
        bits[zero] = tie[zero]
        return bits

    acc = {0: None, 1: None}
    for _ in range(epochs):
        for v, y in samples:
            bits = v.to_bools()
            bipolar = bits * 2.0 - 1.0
            if acc[y] is None:
                acc[y] = bipolar.copy()
                continue
            other = 1 - y
            s_own = 1.0 - np.mean(bits != binarize(acc[y]))
            s_other = None
            if acc[other] is not None:
                s_other = 1.0 - np.mean(bits != binarize(acc[other]))
            acc[y] += alpha * (1.0 - s_own) * bipolar
            if s_other is not None:
                d_s = 1.0 - (s_own if y == 1 else s_other)
                d_ns = 1.0 - (s_other if y == 1 else s_own)
                if (1 if d_s < d_ns else 0) != y:
                    acc[other] -= alpha * s_other * bipolar
    return binarize(acc[1]), binarize(acc[0])


class TestTrainStandard:
    def test_single_sample_per_class(self):
        s = random_hypervector(0, 1, 128)
        ns = random_hypervector(0, 2, 128)
        model = fit(train_standard, [(s, 1), (ns, 0)], TrainConfig(mode="standard"))
        assert model.seizure == s and model.non_seizure == ns

    def test_duplication_invariant(self):
        samples = cluster_samples(per_class=5)
        cfg = TrainConfig(mode="standard", seed=2)
        a = fit(train_standard, samples, cfg)
        b = fit(train_standard, samples * 2, cfg)
        assert a.seizure == b.seizure and a.non_seizure == b.non_seizure

    def test_majority_oracle_dim64(self):
        rng = np.random.default_rng(3)
        samples = [
            (Hypervector.from_bools(rng.integers(0, 2, 64)), y)
            for y in (1, 0)
            for _ in range(5)
        ]
        model = fit(train_standard, samples, TrainConfig(mode="standard", seed=0))
        for label, vec in ((1, model.seizure), (0, model.non_seizure)):
            stack = np.stack([v.to_bools() for v, y in samples if y == label])
            counts = stack.sum(axis=0)
            expected = (2 * counts > 5).astype(np.uint8)
            # 5 samples per class: odd count, no ties possible
            np.testing.assert_array_equal(vec.to_bools(), expected)

    def test_order_independent(self):
        samples = cluster_samples(per_class=7, seed=9)
        cfg = TrainConfig(mode="standard", seed=1)
        a = fit(train_standard, samples, cfg)
        b = fit(train_standard, samples[::-1], cfg)
        assert a.seizure == b.seizure and a.non_seizure == b.non_seizure

    def test_missing_class(self):
        v = random_hypervector(0, 0, 64)
        with pytest.raises(MissingClassError):
            fit(train_standard, [(v, 1)], TrainConfig(mode="standard"))
        with pytest.raises(MissingClassError):
            fit(train_online, [(v, 0)], TrainConfig())


class TestTrainOnline:
    def test_identical_samples_fix_model(self):
        s = random_hypervector(1, 10, 256)
        ns = random_hypervector(1, 11, 256)
        samples = [(s, 1), (ns, 0)] * 4
        model = fit(train_online, samples, TrainConfig(alpha=1.0, epochs=2, seed=0))
        assert model.seizure == s and model.non_seizure == ns

    def test_alpha_zero_keeps_init(self):
        samples = cluster_samples(per_class=6, seed=7)
        model = fit(train_online, samples, TrainConfig(alpha=0.0, seed=0))
        assert model.seizure == samples[0][0]
        assert model.non_seizure == samples[1][0]

    def test_matches_reference_simulation(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            samples = [
                (Hypervector.from_bools(rng.integers(0, 2, 64)), int(rng.integers(2)))
                for _ in range(10)
            ]
            labels = {y for _, y in samples}
            if labels != {0, 1}:
                continue
            cfg = TrainConfig(alpha=1.0, epochs=1, seed=seed)
            model = fit(train_online, samples, cfg)
            ref_s, ref_ns = online_oracle(samples, 1.0, 1, seed, 64)
            np.testing.assert_array_equal(model.seizure.to_bools(), ref_s)
            np.testing.assert_array_equal(model.non_seizure.to_bools(), ref_ns)

    def test_matches_reference_multi_epoch(self):
        rng = np.random.default_rng(13)
        samples = [
            (Hypervector.from_bools(rng.integers(0, 2, 64)), y)
            for y in (1, 0, 1, 0, 1, 0, 0, 1)
        ]
        cfg = TrainConfig(alpha=0.7, epochs=3, seed=4)
        model = fit(train_online, samples, cfg)
        ref_s, ref_ns = online_oracle(samples, 0.7, 3, 4, 64)
        np.testing.assert_array_equal(model.seizure.to_bools(), ref_s)
        np.testing.assert_array_equal(model.non_seizure.to_bools(), ref_ns)

    def test_no_subtractions_when_separable(self):
        samples = cluster_samples(dim=2048, per_class=10, noise=0.05, seed=11)
        stats = {}
        fit(train_online, samples, TrainConfig(seed=0), stats=stats)
        assert stats["mispredictions"] == 0

    def test_subtractions_counted_on_hard_stream(self):
        # same base vector for both classes guarantees mispredictions
        rng = np.random.default_rng(17)
        base = random_hypervector(3, 0, 256)
        samples = [(flip_fraction(base, 0.05, rng), int(rng.integers(2))) for _ in range(20)]
        samples += [(base, 1), (base, 0)]
        stats = {}
        fit(train_online, samples, TrainConfig(seed=1), stats=stats)
        assert stats["mispredictions"] > 0


class TestTrainingSanity:
    @pytest.mark.parametrize("mode", ["standard", "online"])
    def test_separable_clusters_reach_full_train_accuracy(self, mode):
        samples = cluster_samples(dim=2048, per_class=15, noise=0.12, seed=21)
        model = fit(train, samples, TrainConfig(mode=mode, seed=0))
        hits = sum(classify(v, model)[0] == y for v, y in samples)
        assert hits == len(samples)


class TestClassify:
    def test_exact_prototype_matches(self):
        model = ClassModel.from_vectors(
            seizure=random_hypervector(0, 1, 128),
            non_seizure=random_hypervector(0, 2, 128),
        )
        label, d_s, _ = classify(model.seizure, model)
        assert label == 1 and d_s == 0.0
        label, _, d_ns = classify(model.non_seizure, model)
        assert label == 0 and d_ns == 0.0

    def test_tie_goes_to_non_seizure(self):
        v = random_hypervector(5, 0, 64)
        model = ClassModel.from_vectors(seizure=v, non_seizure=complement(v))
        bits = v.to_bools().copy()
        bits[:32] ^= 1  # exactly half flipped: equidistant from both
        probe = Hypervector.from_bools(bits)
        label, d_s, d_ns = classify(probe, model)
        assert d_s == d_ns == 0.5
        assert label == 0

    def test_swapping_vectors_swaps_label(self):
        rng = np.random.default_rng(29)
        model = ClassModel.from_vectors(
            seizure=random_hypervector(9, 1, 256),
            non_seizure=random_hypervector(9, 2, 256),
        )
        swapped = ClassModel.from_vectors(seizure=model.non_seizure, non_seizure=model.seizure)
        for _ in range(20):
            probe = Hypervector.from_bools(rng.integers(0, 2, 256))
            label, d_s, d_ns = classify(probe, model)
            if d_s != d_ns:
                assert classify(probe, swapped)[0] == 1 - label

    def test_dim_mismatch(self):
        model = ClassModel.from_vectors(
            seizure=random_hypervector(0, 1, 128),
            non_seizure=random_hypervector(0, 2, 128),
        )
        with pytest.raises(ValueError):
            classify(random_hypervector(0, 3, 64), model)

    @pytest.mark.parametrize("dim", [64, 1001])
    def test_packed_classifier_matches_scalar(self, dim):
        rng = np.random.default_rng(dim)
        v = random_hypervector(7, 1, dim)
        half = v.to_bools().copy()
        half[: dim // 2] ^= 1
        for non_seizure in (random_hypervector(7, 2, dim), complement(v), v):
            model = ClassModel.from_vectors(seizure=v, non_seizure=non_seizure)
            probes = [Hypervector.from_bools(rng.integers(0, 2, dim)) for _ in range(30)]
            probes += [v, complement(v), non_seizure, Hypervector.from_bools(half)]
            raw, p = _classify_rows(np.stack([x.words for x in probes]), model)
            for x, label, prob in zip(probes, raw, p):
                expect, d_s, d_ns = classify(x, model)
                assert label == expect
                assert prob == class_probability(d_s, d_ns)


class TestClassProbability:
    def test_reference_points(self):
        assert class_probability(0.0, 1.0) == 1.0
        assert class_probability(1.0, 0.0) == 0.0
        assert class_probability(0.3, 0.3) == 0.5
        assert class_probability(0.4, 0.6) == pytest.approx(0.6)
        assert class_probability(1.0, 1.0) == 0.5

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d_s, d_ns = rng.uniform(0, 1, 2)
            assert 0.0 <= class_probability(d_s, d_ns) <= 1.0


class TestConfigsAndModel:
    def test_bad_configs(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="offline")
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(alpha=float("nan"))

    @pytest.mark.parametrize("alpha", [float("inf"), float("-inf"), -0.5])
    def test_non_finite_or_negative_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(alpha=alpha)

    def test_overflowing_alpha_rejected(self):
        # alpha is finite, but the sum of the sample weights overflows float64
        samples = cluster_samples(per_class=6, noise=0.4)
        with pytest.raises(ValueError, match="alpha weights overflow float64"):
            fit(train_online, samples, TrainConfig(alpha=1e308, seed=0))
        # an alpha whose weight sums stay finite still trains
        assert fit(train_online, samples, TrainConfig(alpha=1e300, seed=0)).dim == 256

    def test_bad_kind(self):
        v = random_hypervector(0, 0, 64)
        with pytest.raises(ValueError):
            ClassModel.from_vectors(seizure=v, non_seizure=v, kind="mixed")

    def test_metadata_passthrough(self):
        samples = cluster_samples(per_class=3)
        model = fit(
            train, samples,
            TrainConfig(seed=0),
            kind="personalized",
            subject_id="s01",
            source_cohort="unit",
        )
        assert model.subject_id == "s01"
        assert model.source_cohort == "unit"
        assert hamming_distance(model.seizure, model.non_seizure) > 0


def record_sums(monkeypatch, module):
    """The `_SignedSums` that `module` makes from now on, in order."""
    made = []

    class Recorded(_SignedSums):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(module, "_SignedSums", Recorded)
    return made


class TestClassModelWords:
    @pytest.mark.parametrize("words", [
        np.zeros((2, 2), np.int64),
        np.zeros((2, 2), ">u8"),
        np.zeros((2, 16), np.uint8),
        np.zeros((2, 3), np.uint64),
        np.zeros((3, 2), np.uint64),
        np.zeros((1, 2), np.uint64),
        np.zeros(4, np.uint64),
        [[0, 0], [0, 0]],
    ])
    def test_rejects_words_that_are_not_uint64_2_by_words(self, words):
        with pytest.raises(ValueError, match=r"uint64 \(2, 2\) matrix for dim 100"):
            ClassModel(words, 100)

    def test_rejects_bits_past_dim(self):
        words = np.zeros((2, 2), np.uint64)
        words[1, 1] = 1 << 36  # bit 100
        with pytest.raises(ValueError, match="class vector 1 has bits set past dim 100"):
            ClassModel(words, 100)

    def test_from_vectors_rejects_mixed_dims(self):
        with pytest.raises(ValueError, match="share a dimension"):
            ClassModel.from_vectors(random_hypervector(0, 1, 64), random_hypervector(0, 2, 128))

    @pytest.mark.parametrize("dim", [64, 100, 1001])
    def test_from_vectors_round_trip(self, dim):
        s, ns = random_hypervector(1, 1, dim), random_hypervector(1, 2, dim)
        model = ClassModel.from_vectors(s, ns, subject_id="s01")
        assert model.seizure == s and model.non_seizure == ns
        assert model.dim == dim and model.subject_id == "s01"
        np.testing.assert_array_equal(model.words[SEIZURE], s.words)
        np.testing.assert_array_equal(model.words[NON_SEIZURE], ns.words)
        # each read is a copy of the row
        assert not np.shares_memory(model.seizure.words, model.words)

    @staticmethod
    def assert_owns_words(model, sums):
        """A further add on one row, then signs(), which rewrites that row of
        its matrix in place, leave `model` as it was."""
        before = model.words.copy()
        flip = -_bipolar_rows(model.seizure.words, model.dim)
        sums.add((SEIZURE,), (flip,), (1e9,))
        assert not np.array_equal(sums.signs()[SEIZURE], before[SEIZURE])
        np.testing.assert_array_equal(model.words, before)

    def test_online_model_owns_its_words(self, monkeypatch):
        made = record_sums(monkeypatch, training)
        model = fit(train_online, cluster_samples(per_class=4), TrainConfig(seed=0))
        self.assert_owns_words(model, made[-1])

    def test_generalized_model_owns_its_words(self, monkeypatch):
        made = record_sums(monkeypatch, generalization)
        cohort = [ClassModel.from_vectors(random_hypervector(i, 0, 200),
                                          random_hypervector(i, 1, 200)) for i in range(3)]
        self.assert_owns_words(generalization.generalize(cohort, MergeConfig()), made[-1])


class TestPackedInputChecks:
    def test_rejects_wrong_row_width(self):
        rows = np.zeros((2, 16), np.uint8)
        with pytest.raises(ValueError, match="matrix"):
            train_online(rows, [0, 1], TrainConfig(), dim=64)

    @pytest.mark.parametrize("mode", ["online", "standard"])
    def test_rejects_byte_rows(self, mode):
        # Hypervector.bits rows of the right width are not the row layout
        rows = np.stack([random_hypervector(0, t, 100).bits for t in range(2)])
        with pytest.raises(ValueError, match=r"uint64 \(N, 2\) matrix for dim 100, got uint8 \(2, 13\)"):
            train(rows, [0, 1], TrainConfig(mode=mode), dim=100)

    @pytest.mark.parametrize("mode", ["online", "standard"])
    def test_rejects_bits_past_dim(self, mode):
        rows = np.zeros((3, 2), np.uint64)
        rows[2, 1] = 1 << 63
        with pytest.raises(ValueError, match="sample 2 has bits set past dim 100"):
            train(rows, [0, 1, 1], TrainConfig(mode=mode), dim=100)

    def test_rejects_label_count_mismatch(self):
        rows = np.zeros((3, 1), np.uint64)
        with pytest.raises(ValueError, match="labels"):
            train_standard(rows, [0, 1], TrainConfig(mode="standard"), dim=64)

    def test_rejects_non_binary_labels(self):
        rows = np.zeros((3, 1), np.uint64)
        with pytest.raises(ValueError, match="0 or 1"):
            train_online(rows, [0, 1, 2], TrainConfig(), dim=64)


# ---- equivalence with the Hypervector-list oracles in tests/oracles.py ----

@st.composite
def training_sets(draw):
    """Noisy copies of two base vectors (so the online trainer mispredicts),
    with dims that are and are not multiples of 8 and a chosen class balance."""
    dim = draw(st.sampled_from([64, 200, 1001]))
    seed = draw(st.integers(0, 2**31))
    n_s = draw(st.integers(1, 8))
    n_ns = draw(st.integers(1, 8))
    noise = draw(st.sampled_from([0.05, 0.3, 0.5]))
    rng = np.random.default_rng(seed)
    base = {1: random_hypervector(seed, 1, dim), 0: random_hypervector(seed, 2, dim)}
    labels = [1] * n_s + [0] * n_ns
    rng.shuffle(labels)
    return [(flip_fraction(base[y], noise, rng), int(y)) for y in labels]


def assert_same_model(got, want):
    assert got.seizure == want.seizure
    assert got.non_seizure == want.non_seizure


class TestTrainersMatchOracles:
    @settings(max_examples=60, deadline=None)
    @given(
        training_sets(),
        st.sampled_from([0.0, 0.5, 1.0, 1.7]),
        st.integers(1, 3),
        st.integers(0, 2**31),
    )
    def test_online_bit_identical_with_stats(self, samples, alpha, epochs, seed):
        cfg = TrainConfig(alpha=alpha, epochs=epochs, seed=seed)
        got_stats, want_stats = {}, {}
        got = fit(train_online, samples, cfg, stats=got_stats)
        want = oracles.train_online(samples, cfg, stats=want_stats)
        assert_same_model(got, want)
        assert got_stats == want_stats

    @settings(max_examples=40, deadline=None)
    @given(training_sets(), st.integers(0, 2**31))
    def test_standard_bit_identical(self, samples, seed):
        cfg = TrainConfig(mode="standard", seed=seed)
        assert_same_model(fit(train_standard, samples, cfg), oracles.train_standard(samples, cfg))

    @pytest.mark.parametrize("alpha, epochs", [(1.0, 2), (0.0, 1), (0.0, 2), (0.8, 3)])
    def test_online_fixed_cases_dim_1001(self, alpha, epochs):
        rng = np.random.default_rng(41)
        base = random_hypervector(4, 0, 1001)
        samples = [(flip_fraction(base, 0.2, rng), int(rng.integers(2))) for _ in range(12)]
        samples += [(base, 1), (base, 0)]
        cfg = TrainConfig(alpha=alpha, epochs=epochs, seed=3)
        got_stats, want_stats = {}, {}
        assert_same_model(
            fit(train_online, samples, cfg, stats=got_stats),
            oracles.train_online(samples, cfg, stats=want_stats),
        )
        assert got_stats == want_stats

    @pytest.mark.parametrize("trainer, oracle, mode", [
        (train_online, oracles.train_online, "online"),
        (train_standard, oracles.train_standard, "standard"),
    ])
    def test_one_sample_in_a_class(self, trainer, oracle, mode):
        rng = np.random.default_rng(43)
        samples = [(Hypervector.from_bools(rng.integers(0, 2, 1001)), 0) for _ in range(6)]
        samples.insert(3, (random_hypervector(5, 1, 1001), 1))
        cfg = TrainConfig(mode=mode, epochs=2, seed=6)
        assert_same_model(fit(trainer, samples, cfg), oracle(samples, cfg))
