"""Feature-vector to hypervector encoding via ID and level codebooks.

Each feature index owns a random ID vector; feature values quantize onto
an interpolation chain of level vectors. A window's encoding is the
majority bundle over features of bind(id[f], level[quantize(x[f])]).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInputError, InvalidDimensionError
from .hypervector import _bipolar_rows, _pack_words, random_hypervector, tie_break_vector

DEFAULT_DIM = 10000
DEFAULT_LEVELS = 20

#: Tag namespace for the level chain; feature IDs use tags 0..numFeatures-1.
LEVEL_CHAIN_TAG = 1 << 33


@dataclass(frozen=True, eq=False)
class Codebooks:
    """An encoder: its key (num_features, num_levels, dim, seed) and, once
    `fit_ranges` has seen training data, the per-feature ranges.

    The key fixes every vector. `words` is one read-only uint64
    (L + F, ceil(dim/64)) matrix of word rows in model-file order,
    the level vectors then the ID vectors, shared by every `Codebooks` of
    one key; `level_vectors` and `id_vectors` are views of it.
    `feature_min`/`feature_max` are None until fitted; encoding requires
    fitted ranges.
    """

    num_features: int
    num_levels: int
    dim: int
    seed: int
    feature_min: np.ndarray = None
    feature_max: np.ndarray = None

    def __post_init__(self):
        if self.num_features < 1:
            raise ValueError(f"need at least one feature, got {self.num_features}")
        if self.num_levels < 2:
            raise ValueError(f"need at least two levels, got {self.num_levels}")
        if self.num_levels > self.dim // 2:
            raise InvalidDimensionError(
                f"{self.num_levels} levels need dim >= {2 * self.num_levels}, got {self.dim}"
            )

    @property
    def key(self) -> tuple:
        return self.num_features, self.num_levels, self.dim, self.seed

    @property
    def is_fitted(self) -> bool:
        return self.feature_min is not None

    @property
    def words(self) -> np.ndarray:
        return _build(*self.key)[0]

    @property
    def level_vectors(self) -> np.ndarray:
        return self.words[: self.num_levels]

    @property
    def id_vectors(self) -> np.ndarray:
        return self.words[self.num_levels :]

    def unpacked_bits(self):
        """Cached tables of the block-structured encoding kernel.

        Returns (signed_base (F, D) float32, threshold (D,) float32).
        With base = id ^ level_0, signed_base is +1 where a base bit is 0
        and -1 where it is 1: the change in a dimension's bound-bit count
        when a feature's level bit flips. threshold folds the majority
        rule and the tie-break bit into one comparison; see
        `encode_windows`.
        """
        return _build(*self.key)[1]


def _level_chain(level0: np.ndarray, dim: int, num_levels: int) -> np.ndarray:
    """Level rows (L, words) from level 0's row: level k is level 0 with its
    first k blocks of floor(dim / (2(L-1))) bits flipped."""
    block = dim // (2 * (num_levels - 1))
    flips = np.arange(64 * level0.shape[-1]) < block * np.arange(num_levels)[:, None]
    return level0 ^ _pack_words(flips)


@functools.lru_cache(maxsize=8)
def _build(num_features: int, num_levels: int, dim: int, seed: int) -> tuple:
    """Read-only (words, (signed_base, threshold)) of one key."""
    drawn = np.stack([random_hypervector(seed, tag, dim).words
                      for tag in (LEVEL_CHAIN_TAG, *range(num_features))])
    words = np.vstack([_level_chain(drawn[0], dim, num_levels), drawn[1:]])
    # base = id ^ level 0 as +-1: signed_base = -base, threshold = -(sum + tie) / 2
    base = _bipolar_rows(drawn[1:] ^ drawn[0], dim)
    signed = -base.astype(np.float32)
    tie = tie_break_vector(seed, dim).to_bools()
    threshold = (-(base.sum(axis=0, dtype=np.int32) + tie) / 2).astype(np.float32)
    for array in (words, signed, threshold):
        array.flags.writeable = False
    return words, (signed, threshold)


def build_codebooks(
    num_features: int,
    num_levels: int = DEFAULT_LEVELS,
    dim: int = DEFAULT_DIM,
    seed: int = 0,
) -> Codebooks:
    """Deterministically construct codebooks for (num_features, seed).

    Consecutive level vectors differ by one disjoint block of
    floor(dim / (2(L-1))) flipped positions, so distance along the chain
    is exactly proportional to level separation and the chain ends are
    close to orthogonal.

    The vectors and kernel tables of the last 8 keys are kept; a call with
    one of them draws nothing.
    """
    books = Codebooks(num_features, num_levels, dim, seed)
    _build(*books.key)
    return books


def _feature_matrix(codebooks: Codebooks, values) -> np.ndarray:
    """`values` as a finite float64 (windows, features) matrix."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != codebooks.num_features:
        raise ValueError(
            f"expected (windows, {codebooks.num_features}) matrix, got {values.shape}"
        )
    bad = ~np.isfinite(values)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise DegenerateInputError(
            f"{int(bad.sum())} non-finite feature value(s), first at window {row}, "
            f"feature {col}: {values[row, col]}"
        )
    return values


def fit_ranges(codebooks: Codebooks, values: np.ndarray) -> Codebooks:
    """Return codebooks with per-feature (min, max) taken from `values`.

    Ranges must come from the training split only; test-time values
    outside them clamp silently. Constant features are kept but warned
    about, and later quantize to level 0. NaN or infinite values are
    rejected.
    """
    values = _feature_matrix(codebooks, values)
    if values.shape[0] == 0:
        raise ValueError("cannot fit ranges on an empty matrix")
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    flat = int((lo >= hi).sum())
    if flat:
        warnings.warn(
            f"{flat} feature(s) are constant on the training split; "
            "they will encode at level 0",
            stacklevel=2,
        )
    return replace(codebooks, feature_min=lo, feature_max=hi)


def _quantize_rows(codebooks: Codebooks, values: np.ndarray) -> np.ndarray:
    lo, hi = codebooks.feature_min, codebooks.feature_max
    span = hi - lo
    ok = span > 0
    clipped = np.clip(values, lo, hi)
    with np.errstate(invalid="ignore", divide="ignore"):
        idx = ((clipped - lo) / span * codebooks.num_levels).astype(np.int64)
    idx = np.clip(idx, 0, codebooks.num_levels - 1)
    return np.where(ok, idx, 0)


def encode_windows(values, codebooks: Codebooks) -> np.ndarray:
    """Encode a (windows, features) matrix into uint64 (windows,
    ceil(dim/64)) word rows, one hypervector per window.

    Bit-exact equal to bundling bind(id[f], level[q(x[f])]) per row with
    the codebook seed as the tie-break seed.

    The bits at and past (L-1) * floor(dim / (2(L-1))), about half of
    them, lie beyond every flip block and so are one constant in every
    window. The online trainer therefore accumulates only the words its
    samples vary in, and takes the shared words of a class from the sign
    of its total weight (see `training.train_online`).
    """
    if not codebooks.is_fitted:
        raise ValueError("codebooks have no fitted feature ranges; call fit_ranges")
    values = _feature_matrix(codebooks, values)
    signed, threshold = codebooks.unpacked_bits()
    q = _quantize_rows(codebooks, values)
    dim, nlev = codebooks.dim, codebooks.num_levels
    block = dim // (2 * (nlev - 1))
    # level[q] = level[0] ^ (ones on [0, q*block)), so within flip block j a
    # window's bound-bit count is base_count + (q > j) @ signed_base; the
    # bit is set when twice that count beats the feature count, or equals
    # it and the tie-break bit is set. The float32 sums are exact integers.
    bits = np.zeros((q.shape[0], -(-dim // 64) * 64), dtype=bool)
    rest = slice((nlev - 1) * block, dim)
    bits[:, rest] = threshold[rest] < 0
    for j in range(nlev - 1):
        sel = slice(j * block, (j + 1) * block)
        above = (q > j).astype(np.float32)
        np.greater(above @ signed[:, sel], threshold[sel], out=bits[:, sel])
    return _pack_words(bits)
