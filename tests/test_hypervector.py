"""Kernel tests: every packed-bit operation is checked against a naive
per-bit Python loop on small dimensions, plus the statistical properties
that make the algebra usable (near-orthogonality, bundle similarity)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdseizure.errors import InvalidDimensionError
from hdseizure.hypervector import (
    Accumulator,
    Hypervector,
    _bipolar_rows,
    _SignedSums,
    bind,
    bundle,
    hamming_distance,
    hamming_words,
    random_hypervector,
    similarity,
    tie_break_vector,
)
from oracles import complement


def naive_hamming(a, b):
    """Oracle: per-bit comparison loop."""
    xa, xb = a.to_bools(), b.to_bools()
    diff = 0
    for i in range(a.dim):
        if xa[i] != xb[i]:
            diff += 1
    return diff / a.dim


def naive_bind(a, b):
    return Hypervector.from_bools([int(x) ^ int(y) for x, y in zip(a.to_bools(), b.to_bools())])


def rv(seed, tag=0, dim=128):
    return random_hypervector(seed, tag, dim)


class TestRandomHypervector:
    def test_deterministic(self):
        a = random_hypervector(7, 0, 10000)
        b = random_hypervector(7, 0, 10000)
        assert a == b

    def test_tag_separates_streams(self):
        a = random_hypervector(7, 0, 10000)
        b = random_hypervector(7, 1, 10000)
        # 4 sigma with sigma = 0.5/sqrt(10000)
        assert abs(hamming_distance(a, b) - 0.5) < 0.02

    def test_bit_mean_fair(self):
        v = random_hypervector(123, 5, 10000)
        ones = 0
        for bit in v.to_bools():
            ones += int(bit)
        assert abs(ones / 10000 - 0.5) < 0.02

    def test_rejects_small_dim(self):
        with pytest.raises(InvalidDimensionError):
            random_hypervector(1, 0, 0)
        with pytest.raises(InvalidDimensionError):
            random_hypervector(1, 0, 63)

    def test_padding_bits_zero(self):
        # dim not a multiple of 8: tail bits of the last byte must be 0
        v = random_hypervector(3, 3, 67)
        assert v.bits[-1] >> (67 % 8) == 0


class TestBind:
    def test_self_inverse(self):
        v = rv(1)
        assert bind(v, v) == Hypervector.from_bools(np.zeros(v.dim, dtype=np.uint8))

    def test_involution(self):
        a, b = rv(1), rv(2)
        assert bind(bind(a, b), b) == a

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = Hypervector.from_bools(rng.integers(0, 2, 256))
            b = Hypervector.from_bools(rng.integers(0, 2, 256))
            assert bind(a, b) == naive_bind(a, b)

    def test_preserves_distance(self):
        a, b, c = rv(1, dim=256), rv(2, dim=256), rv(3, dim=256)
        assert hamming_distance(bind(a, c), bind(b, c)) == naive_hamming(a, b)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            bind(rv(1, dim=128), rv(1, dim=256))


@given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_bind_properties_hold_for_any_seeds(s1, s2, s3):
    a, b, c = rv(s1), rv(s2), rv(s3)
    assert bind(bind(a, b), b) == a
    assert hamming_distance(bind(a, c), bind(b, c)) == hamming_distance(a, b)


class TestHamming:
    def test_zero_on_self(self):
        v = rv(9)
        assert hamming_distance(v, v) == 0.0

    def test_one_on_complement(self):
        v = rv(9, dim=67)
        assert hamming_distance(v, complement(v)) == 1.0

    def test_matches_naive_oracle(self):
        a, b = rv(4, dim=128), rv(5, dim=128)
        assert hamming_distance(a, b) == naive_hamming(a, b)

    def test_similarity_is_one_minus_distance(self):
        a, b = rv(4), rv(5)
        assert similarity(a, b) == pytest.approx(1.0 - hamming_distance(a, b))

    def test_symmetric(self):
        a, b = rv(6), rv(7)
        assert hamming_distance(a, b) == hamming_distance(b, a)


class TestAccumulator:
    def test_single_vector_identity(self):
        v = rv(11)
        assert Accumulator.from_vector(v).normalize() == v

    def test_cancellation(self):
        v = rv(12)
        acc = Accumulator.from_vector(v, 1.0).add(v, -1.0)
        assert np.all(acc.values == 0)
        assert acc.total_weight == 0

    def test_bipolar_sum_matches_naive(self):
        vs = [rv(s, dim=64) for s in (1, 2, 3)]
        acc = Accumulator(64)
        for v in vs:
            acc.add(v)
        expect = np.zeros(64)
        for v in vs:
            for i, bit in enumerate(v.to_bools()):
                expect[i] += 1.0 if bit else -1.0
        np.testing.assert_array_equal(acc.values, expect)

    def test_rejects_nonfinite_weight(self):
        with pytest.raises(ValueError):
            Accumulator(64).add(rv(1, dim=64), float("nan"))

    def test_all_zero_normalizes_to_tie_vector(self):
        acc = Accumulator(128)
        assert acc.normalize(tie_break_seed=17) == tie_break_vector(17, 128)

    def test_majority_of_aab(self):
        a, b = rv(21, dim=64), rv(22, dim=64)
        acc = Accumulator(64).add(a).add(a).add(b)
        # per-dimension majority by hand
        expect = [1 if (2 * int(x) + int(y)) > 1 else 0 for x, y in zip(a.to_bools(), b.to_bools())]
        assert acc.normalize() == Hypervector.from_bools(expect)


class TestSignedSums:
    """The accumulator rows of the trainer and the merge against one
    `Accumulator` per row, the scalar reference."""

    SEED = 5

    @staticmethod
    def dyadic(rng, size):
        """Dyadic weights: sums cancel to exact zeros, where the tie-break
        bits decide."""
        return rng.choice([1.0, -1.0, 0.5, -0.5, 2.0, 0.0], size=size)

    def run_steps(self, dim, count, pick, draw=dyadic, steps=30):
        """Random adds through the kernel and the references side by side;
        `pick(rng)` chooses the rows a step changes and `draw(rng, k)` their
        weights. Returns how many exactly-zero entries the steps met."""
        rng = np.random.default_rng(dim)
        sums = _SignedSums(count, dim, self.SEED)
        refs = [Accumulator(dim) for _ in range(count)]
        ties = 0
        for step in range(steps):
            targets = pick(rng)
            vectors = [rv(step, int(t), dim) for t in targets]
            weights = draw(rng, len(targets))
            sums.add(targets, _bipolar_rows(np.stack([v.words for v in vectors]), dim), weights)
            for t, v, w in zip(targets, vectors, weights):
                refs[t].add(v, w)
            signs = sums.signs()
            for t, ref in enumerate(refs):
                assert sums.values[t].tobytes() == ref.values.tobytes()
                assert sums.total_weight[t] == ref.total_weight
                assert np.array_equal(signs[t], ref.normalize(self.SEED).words)
            ties += int((sums.values == 0).sum())
        return ties

    @pytest.mark.parametrize("dim", [64, 100, 1001])
    def test_some_rows_changed(self, dim):
        count = 4
        assert self.run_steps(
            dim, count, lambda rng: rng.choice(count, size=rng.integers(1, count), replace=False))

    @pytest.mark.parametrize("dim", [64, 100, 1001])
    def test_every_row_changed(self, dim):
        count = 3
        assert self.run_steps(dim, count, lambda rng: rng.permutation(count))

    @pytest.mark.parametrize("dim", [64, 1001, 10000])
    def test_non_dyadic_weights(self, dim):
        # each sum rounds, so these bytes show whether the kernel rounds
        # every entry once, as `Accumulator.add` does
        count = 3
        self.run_steps(dim, count, lambda rng: rng.permutation(count),
                       draw=lambda rng, k: rng.uniform(-1.0, 1.0, size=k), steps=50)

    def test_subnormal_weights(self):
        # the smallest subnormal, and sums of a few: a flush-to-zero add
        # would leave the values at zero
        count = 2
        assert self.run_steps(256, count, lambda rng: rng.permutation(count),
                              draw=lambda rng, k: rng.choice([5e-324, -5e-324, 1e-323], size=k))

    def test_weights_just_under_the_overflow_bound(self):
        big = np.finfo(np.float64).max
        weights = iter([1e308, 1e308, -(big - 1e308), 5e-324, -0.75, 0.3])
        count = 2
        self.run_steps(128, count, lambda rng: rng.permutation(count),
                       draw=lambda rng, k: [next(weights) for _ in range(k)], steps=3)

    @pytest.mark.parametrize("weight", [1.0, -1.0, 0.5, 2.0])
    def test_int64_count_rows(self, weight):
        # train_standard adds per-class bipolar sums, int64 counts beyond +-1
        dim = 1001
        rows = _bipolar_rows(np.stack([rv(9, t, dim).words for t in range(7)]), dim)
        counts = np.stack([rows[:4].sum(axis=0, dtype=np.int64),
                           rows[3:].sum(axis=0, dtype=np.int64)])
        assert counts.dtype == np.int64 and np.abs(counts).max() > 1
        sums = _SignedSums(2, dim, self.SEED)
        sums.add((0, 1), counts, (weight, weight))
        sums.add((1,), counts[:1], (1.0,))
        # from zeros, as the kernel starts: 0.0 + (-1.0 * 0) is +0.0
        expect = np.zeros((2, dim))
        expect += weight * counts
        expect[1] += counts[0]
        assert sums.values.tobytes() == expect.tobytes()
        bits = [Hypervector.from_bools(row > sums._threshold) for row in expect]
        assert all(np.array_equal(a, b.words) for a, b in zip(sums.signs(), bits))

    def test_add_updates_values_in_place(self):
        # the BLAS wrapper would update and return a copy of a `y` that is
        # not contiguous float64; every row must land in `values` itself
        dim, count = 100, 3
        sums = _SignedSums(count, dim, self.SEED)
        values = sums.values
        rows = _bipolar_rows(np.stack([rv(4, t, dim).words for t in range(count)]), dim)
        sums.add(range(count), rows, (1.0, -0.5, 0.25))
        assert sums.values is values
        assert np.array_equal(values, rows * np.array([[1.0], [-0.5], [0.25]]))

    def test_sign_threshold_shared_per_seed_and_dim(self):
        a, b = _SignedSums(2, 128, 17), _SignedSums(3, 128, 17)
        assert a._threshold is b._threshold
        assert not a._threshold.flags.writeable
        assert _SignedSums(2, 128, 18)._threshold is not a._threshold

    def test_weight_sum_overflow_rejected_before_the_add(self):
        sums = _SignedSums(2, 64, 0)
        rows = _bipolar_rows(np.stack([rv(1, 0, 64).words, rv(2, 0, 64).words]), 64)
        sums.add((0, 1), rows, (1e308, 1.0))
        before = sums.values.copy()
        with pytest.raises(ValueError, match="alpha weights overflow float64"):
            sums.add((0,), rows[:1], (1e308,))
        assert np.array_equal(sums.values, before)
        assert sums.total_weight == [1e308, 1.0]
        # a cancelling weight counts in the bound too
        with pytest.raises(ValueError, match="alpha weights overflow float64"):
            sums.add((0,), rows[:1], (-1e308,))

    def test_untouched_rows_are_the_tie_vector(self):
        sums = _SignedSums(2, 128, 17)
        expect = tie_break_vector(17, 128).words
        assert all(np.array_equal(row, expect) for row in sums.signs())


class TestBundle:
    def test_bundle_of_one(self):
        v = rv(31)
        assert bundle([v]) == v

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bundle([])

    def test_odd_count_matches_bruteforce_majority(self):
        rng = np.random.default_rng(1)
        for dim in (64, 128):
            for n in (3, 5, 7):
                vs = [Hypervector.from_bools(rng.integers(0, 2, dim)) for _ in range(n)]
                out = bundle(vs)
                for i in range(dim):
                    ones = sum(int(v.to_bools()[i]) for v in vs)
                    assert int(out.to_bools()[i]) == (1 if 2 * ones > n else 0)

    def test_even_count_ties_use_tie_vector(self):
        v = rv(41, dim=128)
        out = bundle([v, complement(v)], tie_break_seed=99)
        assert out == tie_break_vector(99, 128)

    def test_bundle_similar_to_constituents(self):
        vs = [rv(s, dim=10000) for s in range(5)]
        out = bundle(vs)
        sigma = 0.5 / np.sqrt(10000)
        for v in vs:
            assert hamming_distance(out, v) < 0.5 - 4 * sigma

    def test_equals_accumulate_then_normalize(self):
        vs = [rv(s, dim=128) for s in range(4)]
        acc = Accumulator(128)
        for v in vs:
            acc.add(v)
        assert bundle(vs, tie_break_seed=5) == acc.normalize(tie_break_seed=5)


class TestNearOrthogonality:
    def test_population_statistics(self):
        dists = []
        for i in range(1000):
            a = random_hypervector(1000 + i, 0, 10000)
            b = random_hypervector(1000 + i, 1, 10000)
            dists.append(hamming_distance(a, b))
        dists = np.asarray(dists)
        assert 0.49 <= dists.mean() <= 0.51
        assert dists.min() >= 0.45 and dists.max() <= 0.55


class TestBatchHelpers:
    def test_hamming_words_matches_pairwise(self):
        # dims on and off byte and word boundaries, so padding is exercised
        for dim in (64, 72, 256, 1001, 10000):
            vs = [rv(s, dim=dim) for s in range(6)]
            probe = rv(99, dim=dim)
            rows = np.stack([v.words for v in vs])
            got = hamming_words(rows, probe.words, dim)
            expect = [hamming_distance(v, probe) for v in vs]
            assert got.tolist() == expect
            pairs = hamming_words(rows, rows[::-1], dim)
            assert pairs.tolist() == [hamming_distance(v, w) for v, w in zip(vs, vs[::-1])]

    # 2**18 words: row sums up to 2**24, the widest summed in float32;
    # one word more: summed in float64
    @pytest.mark.parametrize("words", [1, 157, 1 << 18, (1 << 18) + 1])
    def test_hamming_words_exact_on_every_call_shape(self, words):
        def popcount(x):
            """Oracle: integer count of set bits over the last axis."""
            x = np.atleast_2d(x)
            return [int(np.unpackbits(row.view(np.uint8)).sum(dtype=np.int64)) for row in x]

        dim = 64 * words
        rng = np.random.default_rng(words)
        rows = rng.integers(0, 1 << 64, size=(3, words), dtype=np.uint64)
        # all bits set, and all but 63 (an odd count above 2**24 on the
        # widest rows, which float32 cannot hold)
        rows[1:] = np.iinfo(np.uint64).max
        rows[2, 0] = 1
        zero = np.zeros(words, dtype=np.uint64)
        for a, b in (
            (zero, rows),  # 1-D against 2-D
            (rows, rows[0]),  # 2-D against 1-D
            (rows, rows[::-1]),  # row pairs
        ):
            got = hamming_words(a, b, dim)
            assert got.dtype == np.float64 and got.shape == (3,)
            expect = [count / dim for count in popcount(np.bitwise_xor(a, b))]
            assert got.tolist() == expect
        for b in rows:  # 1-D against 1-D: a scalar
            got = hamming_words(zero, b, dim)
            assert type(got) is np.float64 and got == popcount(b)[0] / dim


class TestWordRow:
    @pytest.mark.parametrize("dim", [64, 72, 1001])
    def test_bits_view_the_row_bytes(self, dim):
        zero = np.zeros(-(-dim // 64), dtype=np.uint64)
        v = complement(Hypervector(zero, dim))
        nbytes = -(-dim // 8)
        raw = v.words.view(np.uint8)
        assert v.bits.shape == (nbytes,) and np.shares_memory(v.bits, v.words)
        assert not v.bits.flags.writeable
        assert v.bits.tobytes() == raw[:nbytes].tobytes() and not raw[nbytes:].any()
        assert int(np.bitwise_count(v.bits).sum()) == dim
        assert hamming_words(v.words, zero, dim) == 1.0

    def test_holds_a_read_only_copy_of_the_row(self):
        row = rv(1, dim=100).words.copy()
        v = Hypervector(row, 100)
        row[:] = 0
        assert v == rv(1, dim=100)
        with pytest.raises(ValueError, match="read-only"):
            v.words[-1] = np.uint64(1) << np.uint64(40)  # a bit past dim

    @pytest.mark.parametrize("row", [
        np.zeros(2, np.float64),
        np.zeros(13, np.float64),
        np.full(13, 255, np.uint8),  # the bytes of .bits are no row
        np.zeros(2, np.int64),
        np.zeros(3, np.uint64),
        np.zeros((1, 2), np.uint64),
        [0, 0],
    ])
    def test_rejects_other_layouts(self, row):
        with pytest.raises(ValueError, match=r"uint64 \(2,\) row for dim 100"):
            Hypervector(row, 100)

    @pytest.mark.parametrize("bit", [100, 103, 127])
    def test_rejects_bits_past_dim(self, bit):
        row = np.zeros(2, np.uint64)
        row[bit // 64] = 1 << bit % 64
        with pytest.raises(ValueError, match="hypervector has bits set past dim 100"):
            Hypervector(row, 100)
