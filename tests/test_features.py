import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import azc_features, band_powers, line_length, mean_amplitude, polygonal_approximation

from hdseizure import features
from hdseizure.errors import DegenerateInputError
from hdseizure.features import (
    AZC_FILTER_ORDER,
    DEFAULT_AZC_EPSILONS,
    DEFAULT_BANDS,
    FEATURE_NAMES,
    FeatureConfig,
    SignalRecord,
    _azc_windows,
    _bandpass_design,
    _gelsd_unscaled,
    _gust_design,
    _rdp_significance,
    _sample_limit,
    _sign_changes,
    bandpass_filter,
    extract_features,
    window_count,
)


def fit_sine_amplitude(x, fs, freq):
    """Least-squares amplitude of a single sinusoid, used as the filter oracle."""
    t = np.arange(len(x)) / fs
    design = np.column_stack([np.sin(2 * np.pi * freq * t), np.cos(2 * np.pi * freq * t), np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(design, x, rcond=None)
    return float(np.hypot(coef[0], coef[1]))


def rdp_recursive(x, epsilon):
    """Brute-force recursive Ramer-Douglas-Peucker, the reference oracle."""
    x = np.asarray(x, dtype=np.float64)

    def recurse(i, j):
        if j - i < 2:
            return [i, j]
        t = np.arange(i + 1, j)
        dist = np.abs((x[j] - x[i]) * (t - i) - (j - i) * (x[t] - x[i]))
        dist /= np.hypot(j - i, x[j] - x[i])
        k = int(t[np.argmax(dist)])
        if dist.max() > epsilon:
            left = recurse(i, k)
            return left[:-1] + recurse(k, j)
        return [i, j]

    return np.array(recurse(0, len(x) - 1))


def one_window_azc(x, epsilons, fs):
    """The AZC kernel on `x` as a single window."""
    return _azc_windows(x, np.array([0]), len(x), epsilons, fs)[0]


def split_vertices(x, starts, wlen, stop_eps):
    """The split-vertex kernel on windows x[s : s + wlen], s in starts."""
    return _rdp_significance(x, _sign_changes(x)[1], np.asarray(starts), wlen, stop_eps)


def assert_vertex_contract(x, starts, wlen, keys, values, eps):
    """The split-vertex kernel's contract at tolerance eps: the keys are
    unique interior points of their windows, every vertex above eps is a
    vertex of plain RDP, and the signs along each window's nonzero endpoints
    and those vertices change as often as along plain RDP's vertices."""
    assert keys.dtype == np.intp and keys.shape == values.shape
    assert np.unique(keys).size == keys.size
    assert ((keys >= 0) & (keys < len(starts) * wlen)).all()
    assert ((keys % wlen >= 1) & (keys % wlen <= wlen - 2)).all()
    for w, s in enumerate(starts):
        window = x[s : s + wlen]
        mine = keys // wlen == w
        index = np.sort(keys[mine][values[mine] > eps] - w * wlen)
        vertices = polygonal_approximation(window, eps)
        assert np.isin(index, vertices).all(), f"eps {eps}: kept {index}, RDP vertices {vertices}"
        kept = window[np.r_[0, index, wlen - 1]]
        assert crossings_of(kept) == crossings_of(window[vertices]), f"window {w}, eps {eps}"


def crossings_of(values):
    vals = np.asarray(values, dtype=np.float64)
    vals = vals[vals != 0]
    return int(np.count_nonzero(np.sign(vals[:-1]) != np.sign(vals[1:])))


class TestBandpassFilter:
    def test_passband_sine_preserved(self):
        fs = 256
        t = np.arange(10 * fs) / fs
        x = np.sin(2 * np.pi * 10 * t)
        y = bandpass_filter(x, fs, 1.0, 20.0)
        core = slice(fs, -fs)
        assert abs(fit_sine_amplitude(y[core], fs, 10) - 1.0) < 0.05

    def test_stopband_sine_attenuated(self):
        fs = 256
        t = np.arange(10 * fs) / fs
        x = np.sin(2 * np.pi * 40 * t)
        y = bandpass_filter(x, fs, 1.0, 20.0)
        amp = fit_sine_amplitude(y[fs:-fs], fs, 40)
        assert 20 * np.log10(1.0 / amp) > 20.0

    def test_zero_phase_reverse_symmetry(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(2048)
        fwd = bandpass_filter(x, 256, 1.0, 20.0)
        rev = bandpass_filter(x[::-1], 256, 1.0, 20.0)[::-1]
        np.testing.assert_allclose(fwd, rev, atol=1e-9)

    def test_output_length_matches(self):
        x = np.random.default_rng(0).standard_normal(500)
        assert bandpass_filter(x, 256, 1.0, 20.0).shape == x.shape

    def test_bad_band_edges(self):
        x = np.zeros(1000)
        with pytest.raises(ValueError):
            bandpass_filter(x, 256, 20.0, 1.0)
        with pytest.raises(ValueError):
            bandpass_filter(x, 256, 1.0, 200.0)

    def test_short_input(self):
        with pytest.raises(DegenerateInputError):
            bandpass_filter(np.zeros(11), 256, 1.0, 20.0)

    def test_design_is_built_once_per_key(self):
        from scipy.signal import butter

        b, a = _bandpass_design(256.0, 1.0, 20.0)
        assert _bandpass_design(256.0, 1.0, 20.0)[0] is b
        expected = butter(AZC_FILTER_ORDER // 2, [1.0, 20.0], btype="bandpass", fs=256.0)
        np.testing.assert_array_equal(b, expected[0])
        np.testing.assert_array_equal(a, expected[1])
        assert not b.flags.writeable and not a.flags.writeable


def filtfilt_oracle(x, fs, low=1.0, high=20.0):
    """scipy's Gustafsson filtfilt with the horizon bandpass_filter uses."""
    from scipy.signal import filtfilt

    b, a = _bandpass_design(fs, low, high)
    return filtfilt(b, a, x, method="gust", irlen=int(20 * fs / low))


def assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes(), f"max |diff| {np.max(np.abs(got - want)):g}"


def zero_margin_signal(scale, fs=256):
    """10 s of noise at `scale` between 100 s of exact zeros on each side:
    the filtered ends that Gustafsson's method solves for hold only the
    ring-down, small enough that gelsd scales that right-hand side."""
    noise = np.random.default_rng(0).standard_normal(10 * fs) * scale
    pad = np.zeros(100 * fs)
    return np.concatenate((pad, noise, pad))


class TestBandpassOracle:
    """bandpass_filter against scipy.signal.filtfilt(method="gust"), byte for byte."""

    @pytest.mark.parametrize("fs", [64.0, 128.0, 173.61, 256.0])
    @pytest.mark.parametrize("span", ["shortest", "whole", "truncated"])
    @pytest.mark.parametrize("scale", [1e-150, 1e-60, 1.0, 1e3, 1e80, 1e149])
    def test_matches_filtfilt(self, fs, span, scale):
        irlen = int(20 * fs)
        # whole: the horizon is the signal (m == n); truncated: two irlen ends
        n = {"shortest": 3 * AZC_FILTER_ORDER, "whole": 2 * irlen, "truncated": 2 * irlen + 1}[span]
        x = np.random.default_rng(int(fs) + n).standard_normal(n) * scale
        assert_same_bytes(bandpass_filter(x, fs, 1.0, 20.0), filtfilt_oracle(x, fs))

    @pytest.mark.parametrize("fs", [64.0, 256.0])
    def test_matches_filtfilt_across_runs_of_zeros(self, fs):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(int(60 * fs)) * 40
        x[: int(5 * fs)] = 0
        x[int(20 * fs) : int(31 * fs)] = 0
        x[-int(fs) :] = 0
        assert_same_bytes(bandpass_filter(x, fs, 1.0, 20.0), filtfilt_oracle(x, fs))
        x[:] = 0
        assert_same_bytes(bandpass_filter(x, fs, 1.0, 20.0), filtfilt_oracle(x, fs))

    @pytest.mark.parametrize("n", [500, 30_000])
    def test_matches_filtfilt_row_by_row_of_2d_input(self, n):
        x = np.random.default_rng(n).standard_normal((3, n)) * [[1e-3], [1.0], [1e5]]
        assert_same_bytes(bandpass_filter(x, 256.0, 1.0, 20.0), filtfilt_oracle(x, 256.0))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 3 * 20 * 128),
           exponent=st.floats(-150, 149))
    @settings(max_examples=40)
    def test_matches_filtfilt_on_random_lengths(self, seed, n, exponent):
        x = np.random.default_rng(seed).standard_normal(n) * 10.0**exponent
        assert_same_bytes(bandpass_filter(x, 128.0, 1.0, 20.0), filtfilt_oracle(x, 128.0))

    def test_cached_factorization_serves_ordinary_signals(self, monkeypatch):
        import scipy.linalg

        monkeypatch.setattr(scipy.linalg, "lstsq", None)  # any fallback would fail
        x = np.random.default_rng(1).standard_normal(11_264) * 50
        bandpass_filter(x, 256.0, 1.0, 20.0)

    @pytest.mark.parametrize("scale", [1e-154, 1e-140])
    def test_zero_margin_ends_fall_back_to_lstsq(self, scale, monkeypatch):
        import scipy.linalg

        x = zero_margin_signal(scale)
        want = filtfilt_oracle(x, 256.0)
        calls = []
        lstsq = scipy.linalg.lstsq
        monkeypatch.setattr(scipy.linalg, "lstsq", lambda *args: calls.append(1) or lstsq(*args))
        assert_same_bytes(bandpass_filter(x, 256.0, 1.0, 20.0), want)
        assert calls == [1]

    def test_design_cache_hit_returns_the_same_read_only_arrays(self):
        first = _gust_design(256.0, 1.0, 20.0, 5120, False)
        again = _gust_design(256.0, 1.0, 20.0, 5120, False)
        assert again is first
        for name, matrix in vars(first).items():
            assert matrix is getattr(again, name)
            assert not matrix.flags.writeable, name
        assert first.M.shape == first.W.shape == (10_240, 2 * AZC_FILTER_ORDER)

    @pytest.mark.parametrize("fs", [64.0, 128.0, 173.61, 256.0, 1024.0])
    def test_gelsd_never_scales_the_design(self, fs):
        irlen = int(20 * fs)
        for m, full in ((12, True), (irlen, False), (2 * irlen, True)):
            design = _gust_design(fs, 1.0, 20.0, m, full)
            assert _gelsd_unscaled(design.M) and _gelsd_unscaled(design.R)

    def test_non_finite_input_is_rejected_as_filtfilt_rejects_it(self):
        x = np.ones(1000)
        x[500] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            filtfilt_oracle(x, 256.0)
        with pytest.raises(ValueError, match="infs or NaNs"):
            bandpass_filter(x, 256.0, 1.0, 20.0)


class TestBandPowers:
    def test_sine_concentrates_in_alpha(self):
        fs = 256
        t = np.arange(4 * fs) / fs
        absolute, relative = band_powers(np.sin(2 * np.pi * 10 * t), fs)
        # alpha is band index 4 in the default layout
        assert relative[4] > 0.95
        assert absolute[4] == max(absolute)

    def test_dc_window_guard(self):
        absolute, relative = band_powers(np.full(1024, 5.0), 256)
        np.testing.assert_allclose(absolute, 0.0, atol=1e-18)
        np.testing.assert_array_equal(relative, 0.0)

    def test_white_noise_tracks_bandwidth(self):
        fs = 256
        rng = np.random.default_rng(42)
        acc = np.zeros(7)
        for _ in range(100):
            _, relative = band_powers(rng.standard_normal(4 * fs), fs)
            acc += relative
        acc /= 100
        widths = np.array([high - low for _, low, high in DEFAULT_BANDS])
        expected = widths / 45.0
        assert np.all(np.abs(acc - expected) <= 0.5 * expected)

    def test_short_window_rejected(self):
        with pytest.raises(DegenerateInputError):
            band_powers(np.zeros(100), 256)

    def test_relative_sums_below_one(self):
        rng = np.random.default_rng(3)
        _, relative = band_powers(rng.standard_normal(1024), 256)
        # overlapping low bands can push the sum past 1; each term is bounded
        assert np.all(relative >= 0) and np.all(relative <= 1)


class TestSimpleFeatures:
    def test_mean_amplitude_cases(self):
        assert mean_amplitude(np.zeros(10)) == 0.0
        assert mean_amplitude(np.full(10, 3.0)) == 3.0
        assert mean_amplitude(np.array([2.0, -2.0, 2.0, -2.0])) == 2.0
        with pytest.raises(DegenerateInputError):
            mean_amplitude(np.array([]))

    def test_line_length_cases(self):
        assert line_length(np.full(8, 1.5)) == 0.0
        alt = np.array([1.0, -1.0] * 8)
        assert line_length(alt) == 2 * (len(alt) - 1)
        with pytest.raises(DegenerateInputError):
            line_length(np.array([1.0]))

    def test_line_length_matches_loop(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(16)
        expected = sum(abs(x[t] - x[t - 1]) for t in range(1, 16))
        assert line_length(x) == pytest.approx(expected)


class TestPolygonalApproximation:
    def test_straight_line_collapses(self):
        x = np.linspace(0.0, 5.0, 50)
        np.testing.assert_array_equal(polygonal_approximation(x, 0.5), [0, 49])

    def test_epsilon_zero_keeps_noncollinear(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(64)
        np.testing.assert_array_equal(polygonal_approximation(x, 0.0), np.arange(64))

    def test_triangle_wave_vertices(self):
        t = np.arange(65)
        x = np.abs((t % 16) - 8.0)
        idx = polygonal_approximation(x, 2.0)
        np.testing.assert_array_equal(idx, np.arange(0, 65, 8))

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            x = rng.standard_normal(rng.integers(2, 200)) * rng.uniform(0.5, 50)
            eps = rng.uniform(0, 5)
            np.testing.assert_array_equal(
                polygonal_approximation(x, eps), rdp_recursive(x, eps)
            )

    def test_negative_epsilon(self):
        with pytest.raises(ValueError):
            polygonal_approximation(np.zeros(4), -1.0)

    def test_endpoints_always_present(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(40)
        idx = polygonal_approximation(x, 100.0)
        assert idx[0] == 0 and idx[-1] == 39


class TestSplitSignificance:
    """The batched split-vertex kernel keeps plain RDP's crossings exactly."""

    def test_thresholding_keeps_plain_rdp_crossings(self):
        rng = np.random.default_rng(31)
        epsilons = [0.25, 0.5, 1.0, 2.0, 4.0]
        windows = rng.standard_normal((6, 120)) * 3
        windows[0] = np.abs(windows[0])  # one sign throughout
        windows[1] = np.abs(windows[1]) * np.sign(np.arange(120) - 49.5)  # one sign change
        windows[2, [0, 60, 119]] = 0.0  # exact zeros at segment ends
        x, starts = windows.reshape(-1), np.arange(6) * 120
        keys, values = split_vertices(x, starts, 120, min(epsilons))
        for eps in epsilons:
            assert_vertex_contract(x, starts, 120, keys, values, eps)

    def test_segments_within_two_runs_are_skipped(self):
        rng = np.random.default_rng(37)
        positive = np.abs(rng.standard_normal(64)) * 5 + 0.1
        one_change = positive * np.sign(np.arange(64) - 20.5)
        keys, values = split_vertices(np.concatenate((positive, one_change)), [0, 64], 64, 0.5)
        assert keys.size == 0 and values.size == 0
        # a zero end is refined: it belongs to no run
        zero_end = positive.copy()
        zero_end[-1] = 0.0
        keys, values = split_vertices(zero_end, [0], 64, 0.5)
        assert (values > 0.5).any()
        assert_vertex_contract(zero_end, [0], 64, keys, values, 0.5)

    def test_handles_flat_rows(self):
        keys, values = split_vertices(np.zeros(150), np.arange(3) * 50, 50, 0.5)
        assert keys.size == 0 and values.size == 0

    @pytest.mark.parametrize("stop_eps", [0.0, 1e-310, np.nan])
    def test_stop_below_the_smallest_normal_rejected(self, stop_eps):
        with pytest.raises(ValueError, match="smallest normal float"):
            split_vertices(np.arange(10.0) - 4.5, [0], 10, stop_eps)


class TestAzcFeatures:
    def test_sine_crossing_rate(self):
        fs = 256
        f = 8.0
        t = np.arange(4 * fs) / fs
        counts = azc_features(np.sin(2 * np.pi * f * t), [1e-6], fs)
        assert abs(counts[0] - 2 * f) <= 0.1 * 2 * f
        np.testing.assert_array_equal(
            one_window_azc(np.sin(2 * np.pi * f * t), [1e-6], fs), counts
        )

    def test_constant_signal_no_crossings(self):
        counts = azc_features(np.full(1024, 2.0), DEFAULT_AZC_EPSILONS, 256)
        np.testing.assert_array_equal(counts, 0.0)
        np.testing.assert_array_equal(
            one_window_azc(np.full(1024, 2.0), DEFAULT_AZC_EPSILONS, 256), 0.0
        )

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(9)
        x = bandpass_filter(rng.standard_normal(1024) * 100, 256, 1.0, 20.0)
        counts = azc_features(x, DEFAULT_AZC_EPSILONS, 256)
        assert np.all(np.diff(counts) <= 0)
        # cross-check each tolerance against the recursive oracle
        for eps, count in zip(DEFAULT_AZC_EPSILONS, counts):
            expected = crossings_of(x[rdp_recursive(x, eps)]) / (len(x) / 256)
            assert count == pytest.approx(expected)
        np.testing.assert_array_equal(one_window_azc(x, DEFAULT_AZC_EPSILONS, 256), counts)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(13)
        windows = rng.standard_normal((5, 512)) * 80
        batch = _azc_windows(windows.reshape(-1), np.arange(5) * 512, 512, DEFAULT_AZC_EPSILONS, 256)
        for r in range(5):
            np.testing.assert_array_equal(
                batch[r], azc_features(windows[r], DEFAULT_AZC_EPSILONS, 256)
            )

    def test_exact_zero_runs_compressed(self):
        # +1, a run of exact zeros, then -1: one crossing at the next nonzero
        x = np.array([1.0, 0.0, 0.0, -1.0, -1.0, 1.0])
        counts = azc_features(x, [0.0], 1.0)
        assert counts[0] * len(x) == 2
        for epsilons in ([0.0], [0.1], [0.1, 0.0]):
            np.testing.assert_array_equal(
                one_window_azc(x, epsilons, 1.0), azc_features(x, epsilons, 1.0)
            )


class TestAzcCountingPaths:
    """Both ways `_azc_windows` counts: prefix counts of sign changes at
    eps = 0, and the sign sequence of the split vertices above eps > 0."""

    def test_zero_only_epsilons_never_call_the_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the split-vertex kernel ran for eps = 0 only")

        monkeypatch.setattr(features, "_rdp_significance", refuse)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(300)
        x[rng.random(300) < 0.2] = 0.0
        starts = np.arange(9) * 25
        for epsilons in ([0.0], [0.0, 0.0]):
            batch = _azc_windows(x, starts, 100, epsilons, 50.0)
            for w, s in enumerate(starts):
                np.testing.assert_array_equal(batch[w], azc_features(x[s : s + 100], epsilons, 50.0))

    @pytest.mark.parametrize("wlen", [1, 2])
    def test_one_and_two_sample_windows_through_extract_features(self, wlen):
        fs = 64
        record = make_record(fs=fs, seconds=4.0, seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # bands with no FFT bin
            fm = extract_features(record, FeatureConfig(window_sec=wlen / fs, step_sec=1 / fs))
        azc = fm.values[:, -len(DEFAULT_AZC_EPSILONS) :]
        # an endpoint is always kept, so every tolerance counts the same
        filtered = bandpass_filter(record.samples[0], fs, 1.0, 20.0)
        changed = np.sign(filtered[: fm.num_windows]) != np.sign(filtered[wlen - 1 :])
        expected = np.where(changed, fs / wlen, 0.0)[:, None]
        np.testing.assert_array_equal(azc, np.repeat(expected, len(DEFAULT_AZC_EPSILONS), axis=1))
        if wlen == 1:
            np.testing.assert_array_equal(azc, 0.0)
        else:
            assert 0 < np.count_nonzero(changed) < changed.size

    def test_full_size_channel_matches_the_oracle(self):
        # 44 s at 256 Hz: 81 windows of 4 s, 0.5 s apart, refined through
        # up to 79 levels of RDP splits; the property tests' windows of at
        # most 40 samples reach far fewer
        fs = 256
        record = make_record(fs=fs, seconds=44.0, seed=21)
        filtered = bandpass_filter(record.samples[0] * 4, fs, 1.0, 20.0)
        starts = np.arange(81) * 128
        batch = _azc_windows(filtered, starts, 1024, DEFAULT_AZC_EPSILONS, fs)
        assert starts[-1] + 1024 == filtered.size
        for w, s in enumerate(starts):
            oracle = azc_features(filtered[s : s + 1024], DEFAULT_AZC_EPSILONS, fs)
            assert batch[w].tobytes() == oracle.tobytes(), f"window {w}"


@st.composite
def azc_cases(draw):
    """Overlapping or disjoint windows over a signal with exact zeros, flat
    runs and repeated values, plus a tolerance list in the signal's range."""
    wlen = draw(st.integers(2, 40))
    nwin = draw(st.integers(1, 6))
    step = draw(st.integers(1, wlen + 4))
    n = (nwin - 1) * step + wlen + draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["levels", "noise", "runs"]))
    if kind == "levels":
        # few distinct dyadic values: many argmax ties and exactly collinear runs
        x = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), float)
        x *= draw(st.sampled_from([0.5, 1.0, 4.0]))
    elif kind == "noise":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = rng.standard_normal(n) * 2
        x[rng.random(n) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
        flat = rng.integers(0, n)
        x[flat : flat + draw(st.integers(0, 6))] = x[flat]
    else:
        # long runs of one sign, some exact zeros: many segments span at most
        # one sign change, and some end on a zero
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        run = np.cumsum(rng.random(n) < draw(st.sampled_from([0.05, 0.15, 0.4])))
        x = rng.uniform(0.1, 3.0, n) * np.where(run % 2, -1.0, 1.0)
        x[rng.random(n) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    epsilons = draw(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 6.0]), min_size=1, max_size=6)
    )
    starts = np.arange(nwin) * step
    return x, starts, wlen, epsilons


class TestAzcWindowsProperty:
    """The one-pass kernel against the per-window scalar oracle: the AZC
    counts exactly, and the split-vertex kernel's contract."""

    @settings(max_examples=300, deadline=None)
    @given(azc_cases())
    @example((np.array([1.0, 0.0, 0.0, -1.0, 1.0, 1.0, -2.0]), np.array([0]), 7, [0.0]))
    @example((np.array([2.0, 0.0, 2.0, -1.0, 3.0, 0.0, -3.0, 1.0]), np.arange(4), 5, [1.0, 0.25]))
    @example((np.array([1.0, -1.0, 1.0, -1.0, 1.0]), np.array([0, 3]), 2, [0.5, 0.0, 0.5]))
    # an all-zero window among nonzero ones
    @example((np.array([1.0, -2.0, 0.0, 0.0, 0.0, 3.0, -1.0]), np.arange(0, 5, 2), 3, [0.0, 0.5]))
    # windows that start or end on a zero; at 2 and 5 the first nonzero
    # sample's sign differs from the last nonzero one before the window
    @example((np.array([2.0, -1.0, 0.0, 1.0, -3.0, 0.0, 0.0, 1.0]), np.arange(6), 3, [0.0, 0.5]))
    # points 1 and 2 lie 24.685 and 24.685000000000002 (unscaled) off the
    # first chord; their quotients tie, and RDP splits at the earlier point 1
    @example((np.array([0.0, 4.909, 4.881, -0.08, 0.01, -0.14]), np.array([0]), 6, [1.0, 3.0]))
    def test_matches_scalar_oracle(self, case):
        x, starts, wlen, epsilons = case
        fs = 4.0
        batch = _azc_windows(x, starts, wlen, epsilons, fs)
        assert batch.shape == (starts.size, len(epsilons))
        for w, s in enumerate(starts):
            np.testing.assert_array_equal(batch[w], azc_features(x[s : s + wlen], epsilons, fs))
        positive = [e for e in epsilons if e > 0]
        if positive:
            keys, values = split_vertices(x, starts, wlen, min(positive))
            for eps in positive:
                assert_vertex_contract(x, starts, wlen, keys, values, eps)


def make_record(fs=256, seconds=10.0, channels=1, freq=10.0, seed=0, labels=None):
    rng = np.random.default_rng(seed)
    n = int(fs * seconds)
    t = np.arange(n) / fs
    samples = np.stack(
        [30 * np.sin(2 * np.pi * freq * t) + rng.standard_normal(n) for _ in range(channels)]
    )
    if labels is None:
        labels = np.zeros(n, dtype=np.uint8)
    return SignalRecord(
        fs=fs,
        channels=[f"C{i}" for i in range(channels)],
        samples=samples,
        labels=labels,
        record_id="r0",
        subject_id="s0",
    )


class TestExtractFeatures:
    def test_window_count_formula(self):
        record = make_record(seconds=10.0)
        fm = extract_features(record)
        assert fm.num_windows == 13
        assert window_count(2560, 1024, 128) == 13
        assert fm.values.shape == (13, 22)
        assert fm.features_per_channel == 22

    def test_all_zero_record(self):
        record = SignalRecord(
            fs=256,
            channels=["A", "B"],
            samples=np.zeros((2, 2560)),
            labels=np.zeros(2560, dtype=np.uint8),
        )
        with pytest.warns(UserWarning, match="channel\\(s\\) 'A', 'B' are flat"):
            fm = extract_features(record)
        names = np.array(fm.feature_names)
        for col in np.flatnonzero(np.char.find(names, "mean_amplitude") >= 0):
            np.testing.assert_array_equal(fm.values[:, col], 0.0)
        for col in np.flatnonzero(np.char.find(names, "line_length") >= 0):
            np.testing.assert_array_equal(fm.values[:, col], 0.0)

    def test_columns_match_individual_ops(self):
        record = make_record(seconds=6.0, seed=4)
        config = FeatureConfig()
        fm = extract_features(record, config)
        fs = record.fs
        wlen, step = int(4 * fs), int(0.5 * fs)
        filtered = bandpass_filter(record.samples[0], fs, 1.0, 20.0)
        for w in range(fm.num_windows):
            raw = record.samples[0, w * step : w * step + wlen]
            absolute, relative = band_powers(raw, fs)
            np.testing.assert_allclose(fm.values[w, 0], mean_amplitude(raw))
            np.testing.assert_allclose(fm.values[w, 1:8], absolute)
            np.testing.assert_allclose(fm.values[w, 8:15], relative)
            np.testing.assert_allclose(fm.values[w, 15], line_length(raw))
            azc = azc_features(filtered[w * step : w * step + wlen], DEFAULT_AZC_EPSILONS, fs)
            np.testing.assert_allclose(fm.values[w, 16:22], azc)

    def test_non_finite_sample_rejected(self):
        for bad in (np.nan, np.inf):
            record = make_record(seconds=6.0, channels=2, seed=2)
            record.samples[1, 300] = bad
            with pytest.raises(DegenerateInputError, match="non-finite sample.*'C1' at sample 300"):
                extract_features(record)

    def test_samples_at_the_magnitude_limit_stay_finite(self):
        record = make_record(seconds=6.0, channels=2, seed=3)
        limit = _sample_limit(4 * 256)
        t = np.arange(record.samples.shape[1]) / record.fs
        # a 10 Hz square wave at the limit: its power lands in the bands
        record.samples[1] = limit * np.where(np.sin(2 * np.pi * 10 * t) >= 0, 1.0, -1.0)
        fm = extract_features(record)
        assert np.isfinite(fm.values).all()
        assert fm.values[:, 22:].max() > 1e290  # the power features are near the top

    def test_sample_above_the_magnitude_limit_rejected(self):
        record = make_record(seconds=6.0, channels=2, seed=3)
        record.samples[1, 300] = -np.nextafter(_sample_limit(4 * 256), np.inf)
        with pytest.raises(DegenerateInputError, match="channel 'C1' has a sample of magnitude"):
            extract_features(record)

    def test_band_powers_that_underflow_rejected(self):
        record = make_record(seconds=6.0, channels=2, seed=3)
        record.samples[1] *= 1e-200
        with pytest.raises(DegenerateInputError, match=(
                r"subject 's0' record 'r0': channel 'C1' spans only \S+e-19\d from min to max; "
                r"its band powers underflow below a range of 1\.49\d*e-154")):
            extract_features(record)

    def test_range_not_peak_decides_underflow(self):
        # a DC offset lifts the peak but not the range of a tiny signal
        record = make_record(seconds=6.0, channels=2, seed=3)
        record.samples[0] = record.samples[0] * 1e-160 + 1e-150
        with pytest.raises(DegenerateInputError, match="channel 'C0' spans only"):
            extract_features(record)

    def test_tiny_signal_above_the_range_floor_kept(self):
        record = make_record(seconds=6.0, channels=2, seed=3)
        record.samples *= 1e-120
        fm = extract_features(record)
        assert np.isfinite(fm.values).all()
        powers = [i for i, name in enumerate(fm.feature_names) if ":pow_" in name]
        assert (fm.values[:, powers].max(axis=0) > 0).all()

    @pytest.mark.parametrize("fs", [32, 40])
    def test_rate_too_low_for_azc_band(self, fs):
        record = make_record(fs=fs, seconds=6.0, freq=5.0)
        with pytest.raises(DegenerateInputError, match=f"{fs} Hz .* needs fs > 40 Hz"):
            extract_features(record)

    def test_feature_names(self):
        fm = extract_features(make_record(seconds=6.0, channels=2))
        assert len(FEATURE_NAMES) == fm.features_per_channel == 22
        assert fm.feature_names[:22] == [f"C0:{name}" for name in FEATURE_NAMES]
        assert FEATURE_NAMES[-6:] == tuple(f"azc_{eps:g}" for eps in DEFAULT_AZC_EPSILONS)

    def test_window_labels_majority(self):
        n = 2560
        labels = np.zeros(n, dtype=np.uint8)
        labels[: n // 2] = 1
        record = make_record(seconds=10.0, labels=labels)
        fm = extract_features(record)
        # windows fully inside the first half are seizure, the back half not
        assert fm.window_labels[0] == 1
        assert fm.window_labels[-1] == 0
        assert fm.window_labels.sum() > 0

    def test_too_short_record(self):
        with pytest.raises(DegenerateInputError):
            extract_features(make_record(seconds=2.0))

    def test_all_finite_on_noise(self):
        record = make_record(seconds=8.0, channels=3, seed=21)
        fm = extract_features(record)
        assert np.isfinite(fm.values).all()

    def test_channel_major_ordering(self):
        record = make_record(seconds=6.0, channels=2, seed=8)
        fm = extract_features(record)
        assert fm.feature_names[0] == "C0:mean_amplitude"
        assert fm.feature_names[22] == "C1:mean_amplitude"
        assert fm.num_features == 44


class TestEmptyBandWarning:
    def test_two_second_window_warns_low2(self):
        record = make_record(fs=64, seconds=20.0, seed=5)
        with pytest.warns(UserWarning, match="low2") as caught:
            extract_features(record, FeatureConfig(window_sec=2.0))
        assert len(caught) == 1
        assert "low1" not in str(caught[0].message)

    def test_four_second_window_does_not_warn(self):
        record = make_record(fs=64, seconds=20.0, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            extract_features(record, FeatureConfig(window_sec=4.0))


class TestFlatChannelWarning:
    @pytest.mark.parametrize("level", [0.0, 0.1, -12.5])
    def test_flat_channel_warns_with_its_name(self, level):
        record = make_record(fs=64, seconds=20.0, channels=3, seed=5)
        clean = extract_features(record)
        record.samples[1] = level
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fm = extract_features(record)
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, "subject 's0' record 'r0': channel(s) 'C1' are flat, every sample "
                          "equal; their features describe no signal")]
        # as on an all-zero channel, every feature but the mean amplitude is 0:
        # no round-off band power, relative power or zero crossing
        flat = fm.values[:, 22:44]
        np.testing.assert_allclose(flat[:, 0], abs(level), rtol=1e-12)
        assert (flat[:, 1:] == 0).all()
        # the other channels' features are those of the unedited record
        np.testing.assert_array_equal(fm.values[:, :22], clean.values[:, :22])
        np.testing.assert_array_equal(fm.values[:, 44:], clean.values[:, 44:])

    def test_every_flat_channel_named_once(self):
        record = make_record(fs=64, seconds=20.0, channels=3, seed=5)
        record.samples[0] = 0.0
        record.samples[2] = 3.0
        with pytest.warns(UserWarning, match="channel\\(s\\) 'C0', 'C2' are flat") as caught:
            extract_features(record)
        assert len(caught) == 1

    def test_one_differing_sample_is_not_flat(self):
        record = make_record(fs=64, seconds=20.0, seed=5)
        record.samples[0] = 0.0
        record.samples[0, -1] = 1e-150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            extract_features(record)
        # a differing sample below the range floor is no flat channel either
        record.samples[0, -1] = 1e-300
        with pytest.raises(DegenerateInputError, match="channel 'C0' spans only 1e-300"):
            extract_features(record)


class TestWindowAndStepLength:
    @pytest.mark.parametrize("name, value", [
        ("step_sec", 0.0), ("step_sec", 0.001), ("window_sec", 0.0), ("step_sec", -0.5),
        ("window_sec", float("inf")),
    ])
    def test_below_one_sample_or_infinite_rejected(self, name, value):
        record = make_record(fs=64, seconds=20.0, seed=5)
        with pytest.raises(ValueError, match=f"{name} must be finite and at least one sample at 64 Hz"):
            extract_features(record, FeatureConfig(**{name: value}))

    def test_one_sample_step_accepted(self):
        record = make_record(fs=64, seconds=6.0, seed=5)
        fm = extract_features(record, FeatureConfig(step_sec=1 / 64))
        assert fm.num_windows == window_count(6 * 64, 4 * 64, 1)


class TestSignalRecordValidation:
    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            SignalRecord(fs=256, channels=["A"], samples=np.zeros((1, 100)), labels=np.zeros(99))

    def test_nonbinary_labels(self):
        with pytest.raises(ValueError):
            SignalRecord(fs=256, channels=["A"], samples=np.zeros((1, 4)), labels=np.array([0, 1, 2, 0]))

    def test_bad_fs(self):
        with pytest.raises(ValueError):
            SignalRecord(fs=0, channels=["A"], samples=np.zeros((1, 4)), labels=np.zeros(4))
