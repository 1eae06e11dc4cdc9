"""Per-channel feature extraction from windowed multichannel signals.

The feature set per channel (22 values, named by FEATURE_NAMES):

    mean amplitude (1) | absolute band powers (7) | relative band powers (7)
    | line length (1) | approximate-zero-crossing counts at 6 tolerances (6)

Windows default to 4 s with a 0.5 s step. Spectral features are computed
on the raw window; the zero-crossing features run on a [1, 20] Hz
zero-phase bandpass of the channel, simplified with Ramer-Douglas-Peucker
at each tolerance before counting crossings.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateInputError

#: (name, low Hz, high Hz); the two low bands plus the five classic bands.
DEFAULT_BANDS = (
    ("low1", 0.0, 0.5),
    ("low2", 0.1, 0.5),
    ("delta", 0.5, 4.0),
    ("theta", 4.0, 8.0),
    ("alpha", 8.0, 12.0),
    ("beta", 12.0, 30.0),
    ("gamma", 30.0, 45.0),
)

DEFAULT_AZC_EPSILONS = (0.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Zero-phase Butterworth bandpass ahead of the zero-crossing features.
AZC_BAND = (1.0, 20.0)
AZC_FILTER_ORDER = 4

#: Per-channel feature names, in column order.
FEATURE_NAMES = (
    "mean_amplitude",
    *(f"pow_{name}" for name, _, _ in DEFAULT_BANDS),
    *(f"rel_{name}" for name, _, _ in DEFAULT_BANDS),
    "line_length",
    *(f"azc_{eps:g}" for eps in DEFAULT_AZC_EPSILONS),
)

#: The 18 bipolar channel names shared by both source datasets.
DEFAULT_CHANNELS = (
    "FP1-F7", "F7-T7", "T7-P7", "P7-O1",
    "FP1-F3", "F3-C3", "C3-P3", "P3-O1",
    "FP2-F4", "F4-C4", "C4-P4", "P4-O2",
    "FP2-F8", "F8-T8", "T8-P8", "P8-O2",
    "FZ-CZ", "CZ-PZ",
)


@dataclass
class SignalRecord:
    """One multichannel recording with per-sample binary labels (1 = seizure)."""

    fs: float
    channels: list
    samples: np.ndarray  # (channels, time), microvolts
    labels: np.ndarray  # (time,), {0, 1}
    record_id: str = ""
    subject_id: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.fs <= 0:
            raise ValueError(f"sampling rate must be positive, got {self.fs}")
        if self.samples.ndim != 2 or self.samples.shape[0] != len(self.channels):
            raise ValueError("samples must be a (channels, time) matrix")
        if self.labels.shape != (self.samples.shape[1],):
            raise ValueError("labels length must equal the sample count")
        if not ((self.labels == 0) | (self.labels == 1)).all():
            raise ValueError("labels must be 0 or 1")


@dataclass
class FeatureMatrix:
    """Windowed features: (windows, channels * features_per_channel)."""

    values: np.ndarray
    window_labels: np.ndarray
    window_start_sec: np.ndarray
    feature_names: list
    channels: list
    features_per_channel: int
    record_id: str = ""
    subject_id: str = ""

    @property
    def num_windows(self) -> int:
        return self.values.shape[0]

    @property
    def num_features(self) -> int:
        return self.values.shape[1]


@dataclass
class FeatureConfig:
    window_sec: float = 4.0
    step_sec: float = 0.5


def bandpass_filter(x, fs: float, low: float, high: float):
    """Zero-phase Butterworth bandpass (forward-backward filtering).

    The bandpass transfer function has order AZC_FILTER_ORDER (its lowpass
    prototype half as many poles). Initial conditions follow Gustafsson's
    method, which makes the result independent of the filtering direction,
    so reversing the input exactly reverses the output.
    """
    x = np.asarray(x, dtype=np.float64)
    if not (0 < low < high < fs / 2):
        raise ValueError(
            f"band edges must satisfy 0 < low < high < fs/2, got [{low}, {high}] at fs={fs}"
        )
    if x.shape[-1] < 3 * AZC_FILTER_ORDER:
        raise DegenerateInputError(
            f"input of {x.shape[-1]} samples is too short for an order-{AZC_FILTER_ORDER} filter"
        )
    from scipy.signal import butter, filtfilt  # only feature extraction filters

    b, a = butter(AZC_FILTER_ORDER // 2, [low, high], btype="bandpass", fs=fs)
    # ~20 cycles of the low corner covers the impulse ring-down; capping the
    # least-squares horizon there keeps Gustafsson's method O(n) cheap.
    return filtfilt(b, a, x, method="gust", irlen=int(20 * fs / low))


def _rdp_significance(y: np.ndarray, starts: np.ndarray, wlen: int, stop_eps: float) -> np.ndarray:
    """Ramer-Douglas-Peucker significance of every point of every window.

    Window w is y[starts[w] : starts[w] + wlen]. sig[w, i] is the
    ancestor-clamped perpendicular distance at which point i of window w
    becomes a split vertex, so thresholding sig[w] > eps gives the vertices
    that RDP keeps at tolerance eps, for any eps >= stop_eps. Endpoints get
    +inf. Refinement stops once a segment's max distance falls to stop_eps
    or below, so those interior points keep sig = 0.

    Segments are held as absolute sample indices (a, b) into y; `base`
    maps sample t of a segment's window to its flat index base + t in sig.
    """
    nwin = starts.size
    sig = np.zeros((nwin, wlen))
    sig[:, 0] = sig[:, -1] = np.inf
    flat = sig.reshape(-1)
    a = starts.astype(np.intp)
    b = a + (wlen - 1)
    base = np.arange(nwin, dtype=np.intp) * wlen - a
    parent = np.full(nwin, np.inf)
    while True:
        live = b - a >= 2
        if not live.any():
            return sig
        a, b, base, parent = a[live], b[live], base[live], parent[live]
        counts = b - a - 1
        offsets = np.cumsum(counts) - counts
        # t runs over the interior points of every segment, segment-major
        t = np.repeat(a + 1 - offsets, counts)
        t += np.arange(t.size)
        fa = y[a]
        dy = y[b] - fa
        length = (b - a).astype(np.float64)
        # |dy * (t - a) - (b - a) * (y[t] - y[a])| / hypot(b - a, dy), in place
        dist = (t - np.repeat(a, counts)).astype(np.float64)
        dist *= np.repeat(dy, counts)
        lever = y[t]
        lever -= np.repeat(fa, counts)
        lever *= np.repeat(length, counts)
        dist -= lever
        np.abs(dist, out=dist)
        dist /= np.repeat(np.hypot(length, dy), counts)
        dmax = np.maximum.reduceat(dist, offsets)
        # the first point achieving each segment's max, as argmax picks it
        hits = np.flatnonzero(dist == np.repeat(dmax, counts))
        if hits.size != a.size:
            hits = hits[np.searchsorted(hits, offsets)]
        split = t[hits]
        value = np.minimum(dmax, parent)
        grow = dmax > stop_eps
        a, b, base, split, value = a[grow], b[grow], base[grow], split[grow], value[grow]
        flat[base + split] = value
        a = np.concatenate((a, split))
        b = np.concatenate((split, b))
        base = np.concatenate((base, base))
        parent = np.concatenate((value, value))


def _azc_windows(filtered, starts, wlen: int, epsilons, fs: float) -> np.ndarray:
    """AZC features of the windows filtered[s : s + wlen], s in starts:
    zero crossings per second of each RDP-simplified window, one column per
    tolerance. `filtered` is one already bandpass-filtered channel.

    Within a window, each run of equal nonzero sign (exact zeros compressed
    out) carries the max significance of its points. At tolerance eps the
    runs with max > eps survive (all of them at eps = 0, where RDP keeps
    every non-collinear point and collinear points lie on the kept chords),
    and a crossing is a sign change between consecutive surviving runs.
    """
    y = np.asarray(filtered, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.intp)
    nwin = starts.size
    sign = np.sign(y)[starts[:, None] + np.arange(wlen)].reshape(-1)
    nonzero = np.flatnonzero(sign)
    sign = sign[nonzero]
    win = nonzero // wlen
    cut = np.ones(sign.size, dtype=bool)
    cut[1:] = (sign[1:] != sign[:-1]) | (win[1:] != win[:-1])
    first = np.flatnonzero(cut)
    run_sign, run_win = sign[first], win[first]
    positive = [e for e in epsilons if e > 0]
    if positive:
        sig = _rdp_significance(y, starts, wlen, min(positive)).reshape(-1)
        run_sig = np.maximum.reduceat(sig[nonzero], first)
    seconds = wlen / fs
    out = np.empty((nwin, len(epsilons)))
    for k, eps in enumerate(epsilons):
        keep = run_sig > eps if eps > 0 else slice(None)
        s, w = run_sign[keep], run_win[keep]
        flips = (s[1:] != s[:-1]) & (w[1:] == w[:-1])
        out[:, k] = np.bincount(w[1:][flips], minlength=nwin) / seconds
    return out


def window_count(num_samples: int, window: int, step: int) -> int:
    return (num_samples - window) // step + 1


def _sample_limit(wlen: int) -> float:
    """The largest |sample| that keeps every feature of a `wlen`-sample
    window finite. A bin of the tapered window's spectrum is at most
    2 * wlen * |sample|, and a band power sums at most wlen // 2 + 1
    squared bins; the final halving leaves room for rounding."""
    return math.sqrt(np.finfo(np.float64).max / (4 * wlen**2 * (wlen // 2 + 1))) / 2


def extract_features(record: SignalRecord, config: FeatureConfig = None) -> FeatureMatrix:
    """Windowed feature matrix for one record; channel-major feature order."""
    config = config or FeatureConfig()
    fs = record.fs
    for name in ("window_sec", "step_sec"):
        sec = getattr(config, name)
        if not 0.5 < sec * fs < np.inf:
            raise ValueError(f"{name} must be finite and at least one sample at {fs:g} Hz, got {sec:g} s")
    wlen = int(round(config.window_sec * fs))
    step = int(round(config.step_sec * fs))
    total = record.samples.shape[1]
    if total < wlen:
        raise DegenerateInputError(
            f"record of {total} samples is shorter than one {wlen}-sample window"
        )
    bad = ~np.isfinite(record.samples)
    if bad.any():
        ch, t = np.argwhere(bad)[0]
        raise DegenerateInputError(
            f"{int(bad.sum())} non-finite sample(s), first in channel "
            f"{record.channels[ch]!r} at sample {t}: {record.samples[ch, t]}"
        )
    high, low = record.samples.max(axis=1), record.samples.min(axis=1)
    peak = np.maximum(high, -low)
    limit = _sample_limit(wlen)
    if (peak > limit).any():
        ch = int(np.argmax(peak > limit))
        raise DegenerateInputError(
            f"channel {record.channels[ch]!r} has a sample of magnitude {peak[ch]:g}; "
            f"the features of a {wlen}-sample window overflow above {limit:g}"
        )
    if not AZC_BAND[1] < fs / 2:
        raise DegenerateInputError(
            f"sampling rate {fs:g} Hz is too low for the {AZC_BAND[0]:g}-{AZC_BAND[1]:g} Hz "
            f"zero-crossing band, which needs fs > {2 * AZC_BAND[1]:g} Hz"
        )
    flat = [repr(name) for name, lo, hi in zip(record.channels, low, high) if lo == hi]
    if flat:
        warnings.warn(f"subject {record.subject_id!r} record {record.record_id!r}: channel(s) "
                      f"{', '.join(flat)} are flat, every sample equal; their features describe "
                      "no signal")
    nwin = window_count(total, wlen, step)
    nfeat = len(FEATURE_NAMES)
    values = np.empty((nwin, len(record.channels) * nfeat))

    label_wins = sliding_window_view(record.labels, wlen)[::step][:nwin]
    window_labels = (2 * label_wins.sum(axis=1, dtype=np.int64) >= wlen).astype(np.uint8)
    starts = np.arange(nwin) * step / fs

    taper = np.hanning(wlen)
    freqs = np.fft.rfftfreq(wlen, 1.0 / fs)
    top = max(high for _, _, high in DEFAULT_BANDS)
    band_masks = [(freqs >= low) & (freqs < high) for _, low, high in DEFAULT_BANDS]
    empty = [name for (name, _, _), mask in zip(DEFAULT_BANDS, band_masks) if not mask.any()]
    if empty:
        warnings.warn(f"band(s) {', '.join(empty)} hold no FFT bin of a {wlen / fs:g} s window "
                      f"at {fs:g} Hz; their pow_ and rel_ features are 0 in every window")
    nb = len(DEFAULT_BANDS)
    total_mask = (freqs > 0) & (freqs <= top)

    for c in range(len(record.channels)):
        x = record.samples[c]
        wins = sliding_window_view(x, wlen)[::step][:nwin]
        block = values[:, c * nfeat : (c + 1) * nfeat]
        block[:, 0] = np.abs(wins).mean(axis=1)
        if low[c] == high[c]:  # flat: no spectrum, length or crossing, as on an all-zero channel
            block[:, 1:] = 0.0
            continue
        tapered = (wins - wins.mean(axis=1, keepdims=True)) * taper
        spectrum = np.abs(np.fft.rfft(tapered, axis=1)) ** 2
        for k, mask in enumerate(band_masks):
            block[:, 1 + k] = spectrum[:, mask].sum(axis=1)
        totals = spectrum[:, total_mask].sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = block[:, 1 : 1 + nb] / totals[:, None]
        block[:, 1 + nb : 1 + 2 * nb] = np.where(totals[:, None] > 0, rel, 0.0)
        block[:, 1 + 2 * nb] = np.abs(np.diff(wins, axis=1)).sum(axis=1)
        filtered = bandpass_filter(x, fs, *AZC_BAND)
        block[:, 2 + 2 * nb :] = _azc_windows(
            filtered, np.arange(nwin) * step, wlen, DEFAULT_AZC_EPSILONS, fs
        )

    names = [f"{ch}:{f}" for ch in record.channels for f in FEATURE_NAMES]
    return FeatureMatrix(
        values=values,
        window_labels=window_labels,
        window_start_sec=starts,
        feature_names=names,
        channels=list(record.channels),
        features_per_channel=nfeat,
        record_id=record.record_id,
        subject_id=record.subject_id,
    )
