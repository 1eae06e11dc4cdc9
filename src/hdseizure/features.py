"""Per-channel feature extraction from windowed multichannel signals.

The feature set per channel (22 values, named by FEATURE_NAMES):

    mean amplitude (1) | absolute band powers (7) | relative band powers (7)
    | line length (1) | approximate-zero-crossing counts at 6 tolerances (6)

Windows default to 4 s with a 0.5 s step. Spectral features are computed
on the raw window; the zero-crossing features count the crossings of a
[1, 20] Hz zero-phase bandpass of the channel, simplified with
Ramer-Douglas-Peucker at each tolerance. One batched RDP pass per channel
lists the split vertices of all its windows with their significance, and
every tolerance counts the sign changes along the vertices it keeps.
"""

from __future__ import annotations

import functools
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
    """Windowed features: (windows, features), one named column each."""

    values: np.ndarray
    window_labels: np.ndarray
    window_start_sec: np.ndarray
    feature_names: list
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


@functools.lru_cache(maxsize=8)
def _bandpass_design(fs: float, low: float, high: float):
    """Read-only (b, a) of the Butterworth bandpass, designed once per key."""
    from scipy.signal import butter

    design = butter(AZC_FILTER_ORDER // 2, [low, high], btype="bandpass", fs=fs)
    for coefficients in design:
        coefficients.setflags(write=False)
    return design


@dataclass(frozen=True)
class _GustDesign:
    """What Gustafsson's method needs of one bandpass design and horizon:
    the least-squares matrix M, its dgeqrf factorization (packed qr, tau
    and R = triu(qr[:width])) and the end-correction matrix W."""

    M: np.ndarray
    qr: np.ndarray
    tau: np.ndarray
    R: np.ndarray
    W: np.ndarray


@functools.lru_cache(maxsize=8)
def _gust_design(fs: float, low: float, high: float, m: int, full: bool) -> _GustDesign:
    """The matrices of scipy's `_filtfilt_gust` for horizon m, built as it
    builds them and factored once. `full` is m == n, where M and W are
    (m, 2 * order) blocks side by side; otherwise they are (2m, 2 * order)
    block-diagonal, one block per end of the signal."""
    from scipy.linalg.lapack import dgeqrf
    from scipy.signal import lfilter

    b, a = _bandpass_design(fs, low, high)
    order = len(a) - 1
    obs = np.zeros((m, order))
    zi = np.zeros(order)
    zi[0] = 1
    obs[:, 0] = lfilter(b, a, np.zeros(m), zi=zi)[0]
    for k in range(1, order):
        obs[k:, k] = obs[:-k, 0]
    obsr = obs[::-1]
    s = lfilter(b, a, obsr, axis=0)
    sr = s[::-1]
    if full:
        M = np.hstack((sr - obs, obsr - s))
        W = np.hstack((sr, obsr))
    else:
        M = np.zeros((2 * m, 2 * order))
        M[:m, :order] = sr - obs
        M[m:, order:] = obsr - s
        W = np.zeros((2 * m, 2 * order))
        W[:m, :order] = sr
        W[m:, order:] = obsr
    qr, tau, _, info = dgeqrf(M)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf failed with info={info}")
    design = _GustDesign(M=M, qr=qr, tau=tau, R=np.triu(qr[: 2 * order]), W=W)
    for matrix in vars(design).values():
        matrix.setflags(write=False)
    return design


_EPS = np.finfo(np.float64).eps
#: gelsd scales a right-hand side whose max-norm is nonzero and outside
#: [dlamch('S') / dlamch('P'), its reciprocal]; a factor 2 inside keeps the
#: cached solve clear of that boundary.
_GELSD_UNSCALED = (2 * np.finfo(np.float64).tiny / _EPS, _EPS / np.finfo(np.float64).tiny / 2)


def _gelsd_unscaled(rhs: np.ndarray) -> bool:
    """Whether gelsd leaves `rhs` as it is, with a margin (false for NaN)."""
    norm = np.max(np.abs(rhs))
    return norm == 0 or _GELSD_UNSCALED[0] <= norm <= _GELSD_UNSCALED[1]


def _gust_solve(design: _GustDesign, rhs: np.ndarray) -> np.ndarray:
    """scipy.linalg.lstsq(design.M, rhs)[0], bit for bit, from the cached
    factorization.

    For an (m, 8) matrix with m >= 12 (ILAENV's crossover 1.6 * 8), gelsd
    QR-factors it with dgeqrf, unblocked as 8 is below the block size,
    applies Q^T to rhs with dormqr, and then solves the 8 x 8 problem on R
    exactly as gelsd on R does. So dormqr with the cached factors followed
    by gelsd on R repeats its arithmetic. The one step that can differ is
    gelsd's scaling of a right-hand side whose max-norm is nonzero and
    outside [dlamch('S') / dlamch('P'), its reciprocal]: the whole rhs and
    (Q^T rhs)[:8] need not agree on that. The cached path runs only when
    gelsd scales neither. (It never scales M or R: their max-norms grow
    with the rate but stay below 1e5 up to 1024 Hz.) Otherwise, and
    whenever LAPACK reports an error, scipy's lstsq on M runs, with the
    same result or the same error as before.
    """
    from scipy.linalg import lstsq
    from scipy.linalg.lapack import dgelsd, dgelsd_lwork, dormqr

    if rhs.size and _gelsd_unscaled(rhs):
        lwork = dormqr("L", "T", design.qr, design.tau, rhs, -1)[1][0]
        qtb, _, info = dormqr("L", "T", design.qr, design.tau, rhs, int(lwork))
        width = design.R.shape[1]
        top = qtb[:width]
        if info == 0 and _gelsd_unscaled(top):
            nrhs = 1 if rhs.ndim == 1 else rhs.shape[1]
            lwork, iwork, info = dgelsd_lwork(width, width, nrhs, _EPS)
            if info == 0:
                ic, _, _, info = dgelsd(design.R, top, int(lwork), iwork, _EPS)
                if info == 0:
                    return ic
    return lstsq(design.M, rhs)[0]


def bandpass_filter(x, fs: float, low: float, high: float):
    """Zero-phase Butterworth bandpass (forward-backward filtering).

    The bandpass transfer function has order AZC_FILTER_ORDER (its lowpass
    prototype half as many poles). Initial conditions follow Gustafsson's
    method, which makes the result independent of the filtering direction,
    so reversing the input exactly reverses the output.

    The result is scipy.signal.filtfilt(b, a, x, method="gust", irlen=...)
    bit for bit, filtering along the last axis. It repeats that function's
    arithmetic, but the least-squares matrix, which depends only on the
    design and the horizon, is built and QR-factored once per key of
    `_gust_design`; each call filters and solves for its own right-hand
    side (see `_gust_solve`).
    """
    x = np.asarray(x, dtype=np.float64)
    if not (0 < low < high < fs / 2):
        raise ValueError(
            f"band edges must satisfy 0 < low < high < fs/2, got [{low}, {high}] at fs={fs}"
        )
    n = x.shape[-1]
    if n < 3 * AZC_FILTER_ORDER:
        raise DegenerateInputError(
            f"input of {n} samples is too short for an order-{AZC_FILTER_ORDER} filter"
        )
    from scipy.signal import lfilter  # only feature extraction filters

    b, a = _bandpass_design(fs, low, high)
    # ~20 cycles of the low corner covers the impulse ring-down; capping the
    # least-squares horizon there keeps Gustafsson's method O(n) cheap.
    irlen = int(20 * fs / low)
    m = n if n <= 2 * irlen else irlen
    design = _gust_design(fs, low, high, m, m == n)
    # naive forward-backward and backward-forward passes from zero state
    y_fb = lfilter(b, a, lfilter(b, a, x)[..., ::-1])[..., ::-1]
    y_bf = lfilter(b, a, lfilter(b, a, x[..., ::-1])[..., ::-1])
    delta = y_bf - y_fb
    if m != n:
        delta = np.concatenate((delta[..., :m], delta[..., -m:]), axis=-1)
    # one right-hand-side column per row of an N-D input
    if delta.ndim == 1:
        ic = _gust_solve(design, delta)
    else:
        ic = _gust_solve(design, delta.reshape(-1, delta.shape[-1]).T).T
        ic = ic.reshape(delta.shape[:-1] + (ic.shape[-1],))
    wic = ic.dot(design.W.T)
    if m == n:
        y_fb += wic
    else:
        y_fb[..., :m] += wic[..., :m]
        y_fb[..., -m:] += wic[..., -m:]
    return y_fb


def _sign_changes(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nonzero, changes): the indices of y's nonzero samples, and
    changes[t], the sign changes between consecutive nonzero samples of
    y[: t + 1]."""
    nonzero = np.flatnonzero(y)
    signs = np.sign(y[nonzero])
    flips = np.zeros(y.size, dtype=np.intp)
    flips[nonzero[1:]] = signs[1:] != signs[:-1]
    return nonzero, np.cumsum(flips)


def _rdp_significance(
    y: np.ndarray, changes: np.ndarray, starts: np.ndarray, wlen: int, stop_eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Ramer-Douglas-Peucker split vertices of every window and their
    significance, exact wherever they can change a crossing count.

    Window w is y[starts[w] : starts[w] + wlen], and `changes` is
    `_sign_changes(y)[1]`. Returns (keys, values): key w * wlen + i names
    interior point i of window w, and its value is the ancestor-clamped
    perpendicular distance at which that point becomes a split vertex, so
    the vertices with value > eps are vertices RDP keeps at tolerance eps,
    for any eps >= stop_eps. The keys are unique and unordered; the
    endpoints, which RDP always keeps, are not listed. Refinement stops
    once a segment's max distance falls to stop_eps or below.

    A segment whose ends are nonzero and whose nonzero points change sign
    at most once is not refined either. Each of its nonzero points shares
    the sign of one of its ends, and RDP refines it only at tolerances that
    keep both ends, so the vertices RDP keeps inside it add no sign change.
    So at every eps >= stop_eps the signs along a window's nonzero
    endpoints and listed vertices above eps change exactly as they do along
    plain RDP's vertices.

    Each segment's max distance is its max unscaled distance
    |dy * (t - a) - (b - a) * (y[t] - y[a])| divided once by
    hypot(b - a, dy): correctly rounded division by a positive number is
    monotone, so this equals the max of the quotients bit for bit. The
    split is the first point whose quotient equals that max, found among
    the points within a relative 2**-48 of the unscaled max. That margin
    covers every point whose quotient ties while the max is a normal
    float, which each refined segment's is, as stop_eps must be at least
    the smallest normal float.

    Segments are held as absolute sample indices (a, b) into y; `base`
    maps sample t of a segment's window to its key base + t.
    """
    if not stop_eps >= np.finfo(np.float64).tiny:
        raise ValueError(f"stop_eps must be at least the smallest normal float, got {stop_eps}")
    nwin = starts.size
    nonzero = y != 0
    steps = np.arange(nwin * max(wlen - 2, 0))
    ramp = steps.astype(np.float64)
    a = starts.astype(np.intp)
    b = a + (wlen - 1)
    base = np.arange(nwin, dtype=np.intp) * wlen - a
    parent = np.full(nwin, np.inf)
    keys, values = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    while True:
        live = (b - a >= 2) & ~(nonzero[a] & nonzero[b] & (changes[b] - changes[a] <= 1))
        if not live.any():
            return np.concatenate(keys), np.concatenate(values)
        a, b, base, parent = a[live], b[live], base[live], parent[live]
        counts = b - a - 1
        offsets = np.cumsum(counts) - counts
        # t runs over the interior points of every segment, segment-major
        first = 1 - offsets
        t = np.repeat(a + first, counts)
        t += steps[: t.size]
        fa = y[a]
        dy = y[b] - fa
        length = (b - a).astype(np.float64)
        # |dy * (t - a) - (b - a) * (y[t] - y[a])|, in place from t - a
        dist = np.repeat(first.astype(np.float64), counts)
        dist += ramp[: t.size]
        dist *= np.repeat(dy, counts)
        lever = y[t]
        lever -= np.repeat(fa, counts)
        lever *= np.repeat(length, counts)
        dist -= lever
        np.abs(dist, out=dist)
        top = np.maximum.reduceat(dist, offsets)
        chord = np.hypot(length, dy)
        dmax = top / chord
        grow = dmax > stop_eps
        # the first point whose quotient equals each grown segment's max, as argmax picks it
        near = np.where(grow, top * (1 - 2.0**-48), np.inf)
        cand = np.flatnonzero(dist >= np.repeat(near, counts))
        seg = np.searchsorted(offsets, cand, side="right") - 1
        hits = cand[dist[cand] / chord[seg] == dmax[seg]]
        if hits.size != np.count_nonzero(grow):
            hits = hits[np.searchsorted(hits, offsets[grow])]
        split = t[hits]
        a, b, base = a[grow], b[grow], base[grow]
        value = np.minimum(dmax[grow], parent[grow])
        keys.append(base + split)
        values.append(value)
        a = np.concatenate((a, split))
        b = np.concatenate((split, b))
        base = np.concatenate((base, base))
        parent = np.concatenate((value, value))


def _azc_windows(filtered, starts, wlen: int, epsilons, fs: float) -> np.ndarray:
    """AZC features of the windows filtered[s : s + wlen], s in starts:
    zero crossings per second of each RDP-simplified window, one column per
    tolerance. `filtered` is one already bandpass-filtered channel.

    At tolerance eps > 0 a window's crossings are the sign changes along
    its nonzero endpoints and nonzero split vertices of significance above
    eps, in position order. At eps = 0 RDP keeps every non-collinear point
    and collinear points lie on the kept chords, so they are the sign
    changes between all of the window's nonzero samples, a difference of
    two prefix counts.
    """
    y = np.asarray(filtered, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.intp)
    nwin = starts.size
    nonzero, changes = _sign_changes(y)
    ends = starts + (wlen - 1)
    # each window's first nonzero sample, or its end if it has none
    first = np.minimum(np.append(nonzero, y.size - 1)[np.searchsorted(nonzero, starts)], ends)
    seconds = wlen / fs
    out = np.empty((nwin, len(epsilons)))
    out[:] = ((changes[ends] - changes[first]) / seconds)[:, None]
    positive = [e for e in epsilons if e > 0]
    if positive:
        keys, values = _rdp_significance(y, changes, starts, wlen, min(positive))
        head = np.arange(nwin, dtype=np.intp) * wlen
        keys = np.concatenate((keys, head, head + (wlen - 1)))
        values = np.concatenate((values, np.full(2 * nwin, np.inf)))
        order = np.argsort(keys)
        keys, values = keys[order], values[order]
        win = keys // wlen
        sign = np.sign(y[keys + (starts - head)[win]])
        kept = sign != 0
        sign, win, values = sign[kept], win[kept], values[kept]
    for k, eps in enumerate(epsilons):
        if eps > 0:
            keep = values > eps
            s, w = sign[keep], win[keep]
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


#: The smallest range (max - min) of a channel that is not flat. Below it
#: the squared deviations that make up the band powers fall under the
#: smallest normal float, so the powers lose precision and then vanish.
_RANGE_FLOOR = math.sqrt(np.finfo(np.float64).tiny)


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
    span = high - low
    thin = (span > 0) & (span < _RANGE_FLOOR)
    if thin.any():
        ch = int(np.argmax(thin))
        raise DegenerateInputError(
            f"subject {record.subject_id!r} record {record.record_id!r}: channel "
            f"{record.channels[ch]!r} spans only {span[ch]:g} from min to max; its band powers "
            f"underflow below a range of {_RANGE_FLOOR:g}"
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
        record_id=record.record_id,
        subject_id=record.subject_id,
    )
