import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import encode_window as reference_encoding
from oracles import quantize

from hdseizure import encoding
from hdseizure.encoding import (
    Codebooks,
    _quantize_rows,
    build_codebooks,
    encode_windows,
    fit_ranges,
)
from hdseizure.errors import DegenerateInputError, InvalidDimensionError
from hdseizure.hypervector import Hypervector, bind, bundle, hamming_distance


def fitted_codebooks(num_features, lo=0.0, hi=1.0, dim=256, levels=20, seed=3):
    cb = build_codebooks(num_features, levels, dim=dim, seed=seed)
    ranges = np.array([[lo] * num_features, [hi] * num_features])
    return fit_ranges(cb, ranges)


def as_vectors(rows, cb):
    return [Hypervector(row, cb.dim) for row in rows]


def level(cb, k):
    return Hypervector(cb.level_vectors[k], cb.dim)


def ident(cb, f):
    return Hypervector(cb.id_vectors[f], cb.dim)


def encode_window(features, cb):
    """One window through the packed encoder, as a Hypervector."""
    return as_vectors(encode_windows(np.asarray(features, dtype=np.float64)[None, :], cb), cb)[0]


class TestLevelChain:
    def test_two_levels_half_flip(self):
        for dim in (64, 100, 10000):
            cb = build_codebooks(1, 2, dim=dim, seed=0)
            d = hamming_distance(level(cb, 0), level(cb, 1))
            assert d == (dim // 2) / dim

    def test_chain_ends_near_orthogonal(self):
        cb = build_codebooks(1, 20, dim=10000, seed=1)
        d = hamming_distance(level(cb, 0), level(cb, 19))
        assert 0.45 <= d <= 0.5

    def test_distance_proportional_to_level_gap(self):
        cb = build_codebooks(1, 20, dim=10000, seed=2)
        full = hamming_distance(level(cb, 0), level(cb, 19))
        for i in range(20):
            for j in range(i, 20):
                d = hamming_distance(level(cb, i), level(cb, j))
                assert abs(d / full - (j - i) / 19) < 0.02

    def test_monotone_in_gap(self):
        cb = build_codebooks(1, 12, dim=512, seed=5)
        dists = [
            hamming_distance(level(cb, 0), level(cb, k))
            for k in range(12)
        ]
        assert all(a <= b for a, b in zip(dists, dists[1:]))

    def test_too_many_levels_rejected(self):
        with pytest.raises(InvalidDimensionError):
            build_codebooks(3, 40, dim=64)

    def test_id_vectors_near_orthogonal(self):
        cb = build_codebooks(30, 20, dim=10000, seed=7)
        sigma = 0.5 / np.sqrt(10000)
        for i in range(30):
            for j in range(i + 1, 30):
                d = hamming_distance(ident(cb, i), ident(cb, j))
                assert abs(d - 0.5) < 4 * sigma

    def test_determinism(self):
        a = build_codebooks(4, 8, dim=128, seed=9)
        b = build_codebooks(4, 8, dim=128, seed=9)
        assert np.array_equal(a.id_vectors, b.id_vectors)
        assert np.array_equal(a.level_vectors, b.level_vectors)


class TestCodebookMemo:
    """build_codebooks builds each key's vectors and kernel tables once and
    hands out read-only views of them."""

    KEY = (5, 6, 192, 123)

    @pytest.fixture
    def draws(self, monkeypatch):
        encoding._build.cache_clear()
        calls = []
        original = encoding.random_hypervector

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(encoding, "random_hypervector", counted)
        return calls

    def test_second_call_draws_no_vectors(self, draws):
        first = build_codebooks(*self.KEY)
        assert len(draws) == 5 + 1  # one ID vector per feature and level 0
        second = build_codebooks(*self.KEY)
        assert len(draws) == 6
        assert second is not first
        assert second.id_vectors is first.id_vectors
        assert second.unpacked_bits() is first.unpacked_bits()
        build_codebooks(5, 6, 192, 124)
        assert len(draws) == 12

    def test_cached_arrays_are_read_only(self, draws):
        books = build_codebooks(*self.KEY)
        fitted = fit_ranges(books, np.arange(10.0).reshape(2, 5))
        for cb in (books, fitted):
            for array in (cb.id_vectors, cb.level_vectors, *cb.unpacked_bits()):
                assert not array.flags.writeable
        with pytest.raises(ValueError):
            books.level_vectors[0, 0] ^= 1

    def test_vectors_cannot_be_assigned(self):
        books = build_codebooks(*self.KEY)
        with pytest.raises(AttributeError):
            books.level_vectors = books.level_vectors[::-1]
        with pytest.raises(AttributeError):
            books.seed = 124
        assert books.key == self.KEY

    @pytest.mark.parametrize("levels, dim", [(2, 64), (8, 256), (20, 1001), (20, 10000), (32, 64)])
    def test_kernel_tables_for_each_key(self, levels, dim):
        signed, threshold = build_codebooks(3, levels, dim=dim, seed=4).unpacked_bits()
        assert signed.shape == (3, dim) and threshold.shape == (dim,)

    @pytest.mark.parametrize("key, error", [
        ((0, 6, 192, 1), ValueError), ((5, 1, 192, 1), ValueError),
        ((5, 97, 192, 1), InvalidDimensionError),
    ])
    def test_constructor_checks_the_key(self, draws, key, error):
        with pytest.raises(error):
            Codebooks(*key)
        assert not draws


class TestQuantize:
    def test_endpoints_and_midpoint(self):
        assert quantize(0.0, 0.0, 1.0, 20) == 0
        assert quantize(1.0, 0.0, 1.0, 20) == 19
        assert quantize(0.5, 0.0, 1.0, 20) == 10

    def test_out_of_range_clamps(self):
        assert quantize(-5.0, 0.0, 1.0, 20) == 0
        assert quantize(99.0, 0.0, 1.0, 20) == 19

    def test_monotone(self):
        rng = np.random.default_rng(0)
        values = np.sort(rng.uniform(-1, 2, size=200))
        idx = [quantize(v, 0.0, 1.0, 20) for v in values]
        assert all(a <= b for a, b in zip(idx, idx[1:]))

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            quantize(1.0, 2.0, 2.0, 20)

    @pytest.mark.parametrize("levels", [2, 7, 20])
    def test_row_quantizer_matches_scalar(self, levels):
        rng = np.random.default_rng(levels)
        train = rng.normal(0.0, 3.0, (40, 4))
        train[:, 3] = 1.5  # constant feature: level 0
        with pytest.warns(UserWarning, match="constant"):
            cb = fit_ranges(build_codebooks(4, levels, dim=256, seed=1), train)
        values = np.vstack([rng.normal(0.0, 5.0, (60, 4)), cb.feature_min, cb.feature_max])
        got = _quantize_rows(cb, values)
        for row, q in zip(values, got):
            for f, value in enumerate(row):
                lo, hi = cb.feature_min[f], cb.feature_max[f]
                assert q[f] == (quantize(value, lo, hi, levels) if lo < hi else 0)


class TestEncodeWindow:
    def test_single_feature_is_pure_bind(self):
        cb = fitted_codebooks(1, dim=256)
        enc = encode_window([0.5], cb)
        q = quantize(0.5, 0.0, 1.0, 20)
        assert enc == bind(ident(cb, 0), level(cb, q))

    def test_deterministic(self):
        cb = fitted_codebooks(5, dim=512)
        x = [0.1, 0.9, 0.4, 0.3, 0.7]
        assert encode_window(x, cb) == encode_window(x, cb)

    def test_three_features_majority_oracle(self):
        cb = fitted_codebooks(3, dim=64)
        x = [0.2, 0.55, 0.9]
        enc = encode_window(x, cb)
        bound = [
            bind(ident(cb, f), level(cb, quantize(x[f], 0.0, 1.0, 20)))
            for f in range(3)
        ]
        stacked = np.stack([v.to_bools() for v in bound])
        majority = (stacked.sum(axis=0) >= 2).astype(np.uint8)
        np.testing.assert_array_equal(enc.to_bools(), majority)

    def test_matches_reference_for_even_counts(self):
        # even feature counts hit the tie-break path; must agree exactly
        rng = np.random.default_rng(11)
        for nfeat, dim in ((2, 128), (4, 128), (6, 128), (2, 1001), (4, 1001)):
            cb = fitted_codebooks(nfeat, dim=dim, seed=nfeat)
            for _ in range(10):
                x = rng.uniform(0, 1, size=nfeat)
                assert encode_window(x, cb) == reference_encoding(x, cb)

    def test_length_mismatch(self):
        cb = fitted_codebooks(3)
        with pytest.raises(ValueError):
            encode_window([0.1, 0.2], cb)

    def test_unfitted_codebooks_rejected(self):
        cb = build_codebooks(3, 20, dim=128, seed=0)
        with pytest.raises(ValueError):
            encode_window([0.1, 0.2, 0.3], cb)


class TestEncodeWindows:
    def test_batch_matches_scalar_path(self):
        rng = np.random.default_rng(17)
        cb = fitted_codebooks(22, dim=10000, seed=4)
        rows = rng.uniform(0, 1, size=(8, 22))
        batch = as_vectors(encode_windows(rows, cb), cb)
        for k in range(8):
            assert batch[k] == reference_encoding(rows[k], cb)

    def test_values_outside_training_range_clamp(self):
        cb = build_codebooks(4, 20, dim=256, seed=6)
        train = np.random.default_rng(2).uniform(10, 20, size=(50, 4))
        cb = fit_ranges(cb, train)
        wild = np.array([[-1e6, 0.0, 1e6, 15.0]])
        clamped = np.clip(wild, cb.feature_min, cb.feature_max)
        assert np.array_equal(encode_windows(wild, cb)[0], encode_windows(clamped, cb)[0])

    def test_degenerate_feature_encodes_level_zero(self):
        cb = build_codebooks(2, 20, dim=128, seed=1)
        train = np.column_stack([np.full(10, 7.0), np.linspace(0, 1, 10)])
        with pytest.warns(UserWarning, match="constant"):
            cb = fit_ranges(cb, train)
        enc = encode_window([7.0, 0.5], cb)
        bound = [
            bind(ident(cb, 0), level(cb, 0)),
            bind(ident(cb, 1), level(cb, quantize(0.5, 0.0, 1.0, 20))),
        ]
        assert enc == bundle(bound, tie_break_seed=cb.seed)

    def test_locality_beats_random_pairs(self):
        rng = np.random.default_rng(23)
        cb = fitted_codebooks(20, dim=2048, seed=8)
        near, far = [], []
        for _ in range(100):
            x = rng.uniform(0, 1, size=20)
            x2 = x.copy()
            f = rng.integers(20)
            x2[f] = np.clip(x2[f] + 1.0 / 20, 0, 1)
            r1, r2 = rng.uniform(0, 1, size=(2, 20))
            e = as_vectors(encode_windows(np.stack([x, x2, r1, r2]), cb), cb)
            near.append(hamming_distance(e[0], e[1]))
            far.append(hamming_distance(e[2], e[3]))
        assert np.mean(near) < np.mean(far)

    def test_fit_ranges_shape_checks(self):
        cb = build_codebooks(3, 20, dim=128, seed=0)
        with pytest.raises(ValueError):
            fit_ranges(cb, np.zeros((5, 2)))
        with pytest.raises(ValueError):
            fit_ranges(cb, np.zeros((0, 3)))

    def test_returns_packed_rows(self):
        cb = fitted_codebooks(3, dim=1001)
        rows = encode_windows(np.full((5, 3), 0.5), cb)
        assert rows.dtype == np.uint8 and rows.shape == (5, 126)
        assert encode_windows(np.zeros((0, 3)), cb).shape == (0, 126)


@st.composite
def encoder_cases(draw):
    nfeat = draw(st.integers(1, 8))
    dim = draw(st.sampled_from([64, 200, 1001]))
    levels = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**31))
    nwin = draw(st.integers(1, 6))
    # a few distinct values per feature, so equal values, constant features
    # and values outside the fitted range all occur
    grid = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0])
    fit = draw(st.lists(st.lists(grid, min_size=nfeat, max_size=nfeat), min_size=1, max_size=4))
    rows = draw(st.lists(st.lists(grid, min_size=nfeat, max_size=nfeat), min_size=nwin, max_size=nwin))
    return nfeat, dim, levels, seed, np.array(fit), np.array(rows)


class TestEncoderMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(encoder_cases())
    def test_bit_identical_to_scalar_oracle(self, case):
        nfeat, dim, levels, seed, fit, rows = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cb = fit_ranges(build_codebooks(nfeat, levels, dim=dim, seed=seed), fit)
        packed = encode_windows(rows, cb)
        for row, values in zip(packed, rows):
            assert np.array_equal(row, reference_encoding(values, cb).bits)

    def test_default_size(self):
        # bits from (levels - 1) * block = 4997 on, mid-byte, take no level
        # flip and come from the tie-break threshold alone
        dim, levels = encoding.DEFAULT_DIM, encoding.DEFAULT_LEVELS
        assert (levels - 1) * (dim // (2 * (levels - 1))) == 4997
        rng = np.random.default_rng(4997)
        nfeat = 396  # 18 channels x 22 features
        cb = fitted_codebooks(nfeat, dim=dim, levels=levels, seed=11)
        rows = rng.uniform(-0.2, 1.2, size=(4, nfeat))
        rows[0] = 0.0
        rows[1] = 1.0
        for row, values in zip(encode_windows(rows, cb), rows):
            assert np.array_equal(row, reference_encoding(values, cb).bits)

    def test_more_features_than_a_byte_counts(self):
        # 18 channels x 22 features: counts and thresholds exceed 255
        rng = np.random.default_rng(19)
        cb = fitted_codebooks(396, dim=256, seed=2)
        rows = rng.uniform(-0.2, 1.2, size=(3, 396))
        for row, values in zip(encode_windows(rows, cb), rows):
            assert np.array_equal(row, reference_encoding(values, cb).bits)


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_ranges_rejects(self, bad):
        cb = build_codebooks(3, 20, dim=128, seed=0)
        values = np.random.default_rng(0).uniform(size=(6, 3))
        values[4, 1] = bad
        with pytest.raises(DegenerateInputError, match="non-finite"):
            fit_ranges(cb, values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_encode_windows_rejects(self, bad):
        cb = fitted_codebooks(3, dim=128)
        values = np.full((4, 3), 0.5)
        values[2, 0] = bad
        with pytest.raises(DegenerateInputError, match="non-finite"):
            encode_windows(values, cb)
