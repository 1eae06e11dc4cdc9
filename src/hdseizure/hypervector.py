"""Binary hypervector algebra.

The computational kernel of the package:

    - random_hypervector(seed, tag, dim): reproducible i.i.d. fair-coin vector
    - bind(a, b):          per-dimension XOR (self-inverse, distance preserving)
    - hamming_distance:    normalized Hamming distance in [0, 1]
    - similarity:          1 - hamming_distance (the only similarity used here)
    - Accumulator:         signed bipolar sum of one vector at a time, the
                           test oracles' reference for `_SignedSums`
    - _SignedSums:         the accumulator rows of the trainer and the merge,
                           added to with BLAS daxpy; the merge's float64
                           rows reach BLAS without a copy. The online
                           trainer's hold only the word columns its
                           samples vary in: every encoded window shares
                           the bits past the level chain's flip blocks,
                           and a class's sign bits on a shared word follow
                           from the sign of its total weight
    - bundle(vectors):     majority-vote superposition, by `Accumulator`
    - hamming_words:       distances over packed row matrices, the
                           kernel of classification, the merge,
                           `pairwise_matrices` (each unordered row pair
                           once) and `separability`; the trainer adds its
                           `_hamming_counts` over the varying words to a
                           closed-form count over the shared ones

`hamming_words` converts the XORed rows' popcounts to float32 and sums
each row with one matrix-vector product against a ones vector. Every
partial sum is an integer of at most 64 * words, exact in float32 up to
2**24, i.e. up to dim 16 777 216; wider rows sum in float64. So every
distance is the integer count divided by `dim`, bit for bit.

A hypervector is one uint64 word row of ceil(dim/64) words: bit i is bit
i % 64 of word i // 64 (little bit order), and every bit past `dim` is
zero. A `Hypervector` holds one row and every packed row matrix is rows
(..., ceil(dim/64)) of it; `_check_rows` is the one check of that layout.
`Hypervector.bits` is a read-only view of a row's first ceil(dim/8) bytes.
Binding and distance run as XOR plus popcount.
Accumulation maps bits to the bipolar domain (0 -> -1, 1 -> +1) so
weighted subtraction is well defined, and binarizes back by sign. Ties
(an exactly-zero accumulator entry) are resolved from a deterministic
seed-derived tie-break vector rather than a fixed bit, to avoid
systematic bias for even bundle counts.

Randomness comes from numpy's Philox counter-based generator keyed by
(seed, tag), which makes every vector a pure function of its inputs,
stable across runs and platforms.

Importing this module loads numpy only. `_SignedSums` imports
`scipy.linalg.blas.daxpy` when the first one is built, so only the
trainer and the merge load that part of scipy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InvalidDimensionError

MIN_DIM = 64

# Tag namespace for derived vectors: tie-break vectors live far away from
# the small integer tags used for codebook item vectors.
TIE_BREAK_TAG_BASE = 1 << 32


def _check_dim(dim: int) -> None:
    if dim < MIN_DIM:
        raise InvalidDimensionError(
            f"dimension must be >= {MIN_DIM}, got {dim}"
        )


def _check_rows(rows, dim: int, count, noun: str) -> None:
    """Raise ValueError unless `rows` is one uint64 word row of `dim` bits
    (count None) or a (count, ceil(dim/64)) matrix of them (count "N" for
    any number of rows) with no bit set past `dim`. The messages call the
    rows `noun` and name the first row with a bit set past `dim`."""
    words = -(-dim // 64)
    got = getattr(rows, "shape", ())
    if count is None:
        fits = got == (words,)
    else:
        fits = len(got) == 2 and got[1] == words and count in ("N", got[0])
    if getattr(rows, "dtype", None) != np.uint64 or not fits:
        want = f"({words},) row" if count is None else f"({count}, {words}) matrix"
        raise ValueError(
            f"{noun}{'' if count is None else 's'} must be a uint64 {want} for dim {dim}, "
            f"got {getattr(rows, 'dtype', type(rows).__name__)} {np.shape(rows)}"
        )
    # the bits past dim all lie in a row's last word. Scanning those words
    # as Python ints costs tens of ns a row, a numpy reduction about 2 us a
    # call, and most calls check the one or two rows of a vector or a model.
    last = [int(rows[-1])] if count is None else rows[:, -1].tolist()
    if dim % 64 and max([0, *last]) >> dim % 64:
        first = next(k for k, word in enumerate(last) if word >> dim % 64)
        raise ValueError(f"{noun}{'' if count is None else f' {first}'} has bits set past dim {dim}")


class Hypervector:
    """A dense binary vector of `dim` bits: one read-only uint64 word row
    `words`.

    Bit i of the vector is bit (i % 64) of word (i // 64) (little bit
    order). The bits past `dim` in the last word are always zero, so
    word-wise popcounts, equality and the hash are exact.
    """

    __slots__ = ("dim", "words")

    def __init__(self, words: np.ndarray, dim: int):
        """A copy of the word row `words`; ValueError on any other layout."""
        _check_dim(dim)
        _check_rows(words, dim, None, "hypervector")
        self.words = words.copy()
        self.words.flags.writeable = False
        self.dim = dim

    @classmethod
    def _of(cls, words: np.ndarray, dim: int) -> "Hypervector":
        """A vector that takes `words`, a valid row of `dim` bits this
        module has just made and holds nowhere else, without the check and
        the copy of `__init__`."""
        v = cls.__new__(cls)
        words.flags.writeable = False
        v.words, v.dim = words, dim
        return v

    @classmethod
    def from_bools(cls, values) -> "Hypervector":
        """Build from a {0,1} (or boolean) sequence of length dim; any
        nonzero value is a set bit."""
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise ValueError("expected a 1-D bit sequence")
        if arr.dtype.kind not in "biu":  # np.packbits takes integers and bools only
            arr = arr.astype(bool)
        dim = arr.shape[0]
        _check_dim(dim)
        words = np.zeros(-(-dim // 64), dtype=np.uint64)
        words.view(np.uint8)[: (dim + 7) // 8] = np.packbits(arr, bitorder="little")
        return cls._of(words, dim)

    @property
    def bits(self) -> np.ndarray:
        """Read-only uint8 view of the row's first ceil(dim/8) bytes: bit i
        is bit (i % 8) of byte (i // 8)."""
        return self.words.view(np.uint8)[: (self.dim + 7) // 8]

    def to_bools(self) -> np.ndarray:
        """Unpack to a uint8 {0,1} array of length dim."""
        return np.unpackbits(self.words.view(np.uint8), count=self.dim, bitorder="little")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypervector):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self.words, other.words))

    def __hash__(self):
        return hash((self.dim, self.words.tobytes()))

    def __repr__(self) -> str:
        ones = int(np.bitwise_count(self.words).sum())
        return f"Hypervector(dim={self.dim}, ones={ones})"


def _philox(seed: int, tag: int) -> np.random.Generator:
    key = np.array([seed % (1 << 64), tag % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_hypervector(seed: int, tag: int, dim: int) -> Hypervector:
    """Deterministic random vector: each bit an independent fair coin.

    The same (seed, tag, dim) always yields the identical vector; any two
    distinct (seed, tag) pairs give nearly orthogonal vectors.
    """
    _check_dim(dim)
    nbytes = (dim + 7) // 8
    words = np.zeros(-(-dim // 64), dtype=np.uint64)
    words.view(np.uint8)[:nbytes] = _philox(seed, tag).integers(0, 256, size=nbytes, dtype=np.uint8)
    if dim % 64:
        words[-1] &= (1 << dim % 64) - 1
    return Hypervector._of(words, dim)


def _require_same_dim(a: Hypervector, b: Hypervector) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")


def bind(a: Hypervector, b: Hypervector) -> Hypervector:
    """Per-dimension XOR. Self-inverse: bind(bind(a, b), b) == a."""
    _require_same_dim(a, b)
    return Hypervector._of(np.bitwise_xor(a.words, b.words), a.dim)


def hamming_distance(a: Hypervector, b: Hypervector) -> float:
    """Fraction of differing dimensions, in [0, 1]."""
    _require_same_dim(a, b)
    diff = int(np.bitwise_count(np.bitwise_xor(a.words, b.words)).sum())
    return diff / a.dim


def similarity(a: Hypervector, b: Hypervector) -> float:
    """1 - hamming_distance; the similarity measure used throughout."""
    return 1.0 - hamming_distance(a, b)


def tie_break_vector(seed: int, dim: int) -> Hypervector:
    """The deterministic vector used to resolve exactly-tied dimensions."""
    return random_hypervector(seed, TIE_BREAK_TAG_BASE + dim, dim)


def _bipolar_rows(rows: np.ndarray, dim: int) -> np.ndarray:
    """Word rows (..., words) unpacked to int8 rows (..., dim), +1 where a
    bit is set and -1 where it is clear."""
    out = np.unpackbits(rows.view(np.uint8), axis=-1, count=dim, bitorder="little").view(np.int8)
    out *= 2
    out -= 1
    return out


@functools.lru_cache(maxsize=8)
def _sign_threshold(tie_break_seed: int, dim: int) -> np.ndarray:
    """Read-only float64 (dim,) threshold of the sign rule `values >
    threshold`: 0 where the tie bit is 0, and the negative float nearest
    zero where it is 1, so that there the comparison reads values >= 0."""
    tie = tie_break_vector(tie_break_seed, dim).to_bools().astype(bool)
    threshold = np.where(tie, np.nextafter(0.0, -1.0), 0.0)
    threshold.flags.writeable = False
    return threshold


class _SignedSums:
    """`count` float64 bipolar-sum rows of `dim`, each with its total
    weight and packed sign: the accumulators of the online trainer and of
    the merge.

    `add` lands every w * row exactly as `Accumulator.add` does, with one
    BLAS axpy (`scipy.linalg.blas.daxpy`, bound once per object when it
    is built) into the row of `values`, in place: the rows are +-1, or
    `train_standard`'s integer counts at weight 1, so w * row is exact and
    the add rounds each entry once, fused or not. `signs`
    binarizes by the `Accumulator.normalize` rule into word rows and
    recomputes only the rows that changed since its last call. The sign
    threshold is built once per (tie_break_seed, dim).

    Each row also keeps the sum of its |w|. While the added rows have
    entries in [-1, 1] (all but `train_standard`'s two unit-weight count
    rows do), that sum bounds every |value| under monotone rounding, so
    while it is finite no value overflows.
    """

    def __init__(self, count: int, dim: int, tie_break_seed: int, words=None):
        """`count` rows of `dim` sums. Given `words`, sorted indices of
        word columns of `dim`-bit rows, the rows hold only the real bits
        of those columns: `self.dim` is their count, the sign threshold is
        taken at those bits and `signs` returns those columns."""
        threshold = _sign_threshold(tie_break_seed, dim)
        if words is not None and len(words) < -(-dim // 64):
            bit = (64 * words[:, None] + np.arange(64)).ravel()
            threshold = threshold[bit[bit < dim]]
            dim = threshold.shape[0]
        self.dim = dim
        self.values = np.zeros((count, dim))
        self.total_weight = [0.0] * count
        self._abs_weight = [0.0] * count
        self._threshold = threshold
        from scipy.linalg.blas import daxpy

        # BLAS rejects empty rows, and there is nothing to add to them
        self._daxpy = daxpy if dim else (lambda x, y, a: y)
        self._bits = np.zeros((count, -(-dim // 64) * 64), dtype=bool)
        self._changed = set(range(count))
        self._signs = None

    def add(self, targets, rows, weights) -> None:
        """Add weights[k] * rows[k] to row targets[k], for rows of `dim`
        entries, one row at a time and in order. A float64 row reaches BLAS
        without a copy; BLAS first copies a row of any other dtype (the
        trainer's int8 and int64 rows) to float64, so the merge, which adds
        each row twice, hands it float64 rows. A zero weight changes
        nothing. Raises ValueError, before touching the row, when its sum of
        |w| would overflow float64."""
        for t, row, w in zip(targets, rows, weights):
            if w:
                bound = self._abs_weight[t] + math.fabs(w)
                if not math.isfinite(bound):
                    raise ValueError(
                        f"the alpha weights overflow float64: the absolute weights "
                        f"added to one accumulator sum to {bound}"
                    )
                self._abs_weight[t] = bound
                self._daxpy(row, self.values[t], a=w)
                self.total_weight[t] += w
                self._changed.add(t)

    def signs(self) -> np.ndarray:
        """The binarized rows as word rows, (count, words); a later
        `add` and `signs` may overwrite the returned matrix in place."""
        dim = self.dim
        if len(self._changed) == len(self.values):
            np.greater(self.values, self._threshold, out=self._bits[:, :dim])
            self._signs = _pack_words(self._bits)
        else:
            for t in self._changed:
                bits = self._bits[t]
                np.greater(self.values[t], self._threshold, out=bits[:dim])
                self._signs[t] = _pack_words(bits)
        self._changed.clear()
        return self._signs


class Accumulator:
    """Signed per-dimension sum in the bipolar domain.

    Accumulating a vector with weight w adds w * (2*bit - 1) to each
    dimension, so negative weights subtract. `normalize` binarizes by
    sign, taking tied (exactly zero) dimensions from a seed-derived
    tie-break vector.
    """

    __slots__ = ("dim", "values", "total_weight")

    def __init__(self, dim: int):
        _check_dim(dim)
        self.dim = dim
        self.values = np.zeros(dim, dtype=np.float64)
        self.total_weight = 0.0

    @classmethod
    def from_vector(cls, v: Hypervector, weight: float = 1.0) -> "Accumulator":
        return cls(v.dim).add(v, weight)

    def add(self, v: Hypervector, weight: float = 1.0) -> "Accumulator":
        if v.dim != self.dim:
            raise ValueError(f"dimension mismatch: {v.dim} != {self.dim}")
        if not math.isfinite(weight):
            raise ValueError(f"weight must be finite, got {weight}")
        self.values += weight * _bipolar_rows(v.words, self.dim)
        self.total_weight += weight
        return self

    def normalize(self, tie_break_seed: int = 0) -> Hypervector:
        """Sign-binarize: 1 where positive, 0 where negative, ties from seed."""
        bits = (self.values > 0).astype(np.uint8)
        tied = self.values == 0
        if tied.any():
            bits[tied] = tie_break_vector(tie_break_seed, self.dim).to_bools()[tied]
        return Hypervector.from_bools(bits)


def bundle(vectors, tie_break_seed: int = 0) -> Hypervector:
    """Majority-vote superposition of a non-empty list of vectors: their
    unit-weight `Accumulator`, normalized. Ties (possible only for even
    counts) resolve from the tie-break seed."""
    vectors = list(vectors)
    if not vectors:
        raise ValueError("cannot bundle an empty list of vectors")
    acc = Accumulator(vectors[0].dim)
    for v in vectors:
        acc.add(v)
    return acc.normalize(tie_break_seed)


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Bool rows (..., 64 * words), zero past dim, as word rows."""
    return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)


# 64 * 2**18 = 2**24: the popcount sums of rows this wide are exact in float32
_FLOAT32_SUM_WORDS = 1 << 18


@functools.lru_cache(maxsize=8)
def _ones(words: int) -> np.ndarray:
    """Read-only (words,) ones that `hamming_words` sums each row against:
    float32 up to `_FLOAT32_SUM_WORDS` words, float64 beyond."""
    ones = np.ones(words, np.float32 if words <= _FLOAT32_SUM_WORDS else np.float64)
    ones.flags.writeable = False
    return ones


def _hamming_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming counts between word rows, broadcast over the leading axes:
    each row's popcounts summed by one matrix-vector product against
    `_ones`, exact integers in float32 (float64 for wider rows)."""
    diff = np.bitwise_xor(a, b)
    ones = _ones(diff.shape[-1])
    return np.dot(np.bitwise_count(diff).astype(ones.dtype), ones)


def hamming_words(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Normalized Hamming distance between word rows, broadcast
    over the leading axes: one row against a matrix, or pairs of rows.
    The `_hamming_counts` over `dim`, exactly (see the module docstring)."""
    return np.divide(_hamming_counts(a, b), dim, dtype=np.float64)
