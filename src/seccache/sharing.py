"""Cauchy-matrix MDS encoding and (Z, F) non-perfect secret sharing.

A file is split into F-Z subfiles, stacked above Z uniformly random
vectors, and multiplied by an F x F Cauchy matrix to produce F shares.
Any Z shares are statistically independent of the file (checked in the
secrecy module); all F shares reconstruct it exactly.

Symbols are field elements (see field.BinaryField).  Subfiles and shares
are 2-D numpy arrays, one row of L symbols per vector.  Bytes become
symbols in one codec, `bytes_to_symbols`/`symbols_to_bytes`: when l is a
multiple of 8 a symbol is l/8 whole bytes, so the codec is a big-endian
numpy view of them (copied into a fresh, writable array); other widths
cut symbols across byte boundaries and keep a bit-level unpack/pack path.

The share matrix is not an argument: F and the field fix it as
cauchy_matrix(F, field), a cached read-only array built by one exp/log
table gather.  Its inverse, which decoding uses, is a Gauss-Jordan
elimination of [A | I] by `BinaryField.echelon`, the same kernel that
serves the secrecy checks, and is cached read-only as well.  Sharing and
unsharing are one `BinaryField.matmul` each: at l <= 8 it multiplies
in one gather of word-padded product rows that are cached per
coefficient matrix, so the share matrix and the inverse's rows are
tabulated once per process; at l > 8 every product is a gather
exp[log a + log b].  No scalar field product runs on this path.

Sharing reads each file's subfiles and its Z random vectors as one (F, L)
input, their concatenation, and unsharing takes the F shares as one
(F, L) array, so neither side stacks a list of rows.

Randomness comes from a NumPy Mersenne Twister (`np.random.MT19937`)
seeded as CPython's `random.seed(int)` seeds its own, so a draw of W
32-bit words is the same W words that W calls of
`random.Random.getrandbits(32)` give.  The words are read raw from the
bit generator, `MT19937.random_raw`, one 32-bit output in each uint64.
A random symbol is one word shifted right by 32 - l, as `getrandbits(l)`
returns it for l <= 32.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import BinaryField


@dataclass(frozen=True)
class ShareMeta:
    """Geometry of one file's sharing: sizes, padding, symbol counts."""

    num_shares: int  # F
    num_random: int  # Z
    data_bits: int  # original file size
    padded_bits: int  # divisible by (F-Z) * l
    symbols_per_share: int

    @property
    def num_subfiles(self) -> int:
        return self.num_shares - self.num_random

    @property
    def share_bits(self) -> int:
        return self.padded_bits // self.num_subfiles


@lru_cache(maxsize=64)
def cauchy_matrix(n: int, field: BinaryField) -> np.ndarray:
    """The n x n share matrix, read-only: entry (i, j) = 1 / (x_i + y_j).

    Evaluation points are fixed for reproducibility: x_i = i - 1 and
    y_j = n + j - 1 as bit patterns, so 2n distinct field elements are
    needed (2n <= 2^l).  Every square submatrix of the result is
    invertible.  All n^2 entries come from one table gather,
    exp[(q - 1) - log(x_i + y_j)].
    """
    if n < 1:
        raise ValueError("matrix size must be positive")
    if 2 * n > field.order:
        raise ValueError(
            f"field GF(2^{field.l}) too small for a {n}x{n} Cauchy matrix "
            f"(need {2 * n} distinct elements)"
        )
    x, y = np.arange(n), np.arange(n, 2 * n)
    mat = field.exp_table[(field.order - 1) - field.log_table[x[:, None] ^ y]]
    mat.setflags(write=False)
    return mat


def invert_matrix(mat: np.ndarray, field: BinaryField) -> np.ndarray:
    """Inverse over the field: `BinaryField.echelon` turns [A | I] into
    [I | A^-1]; raises ValueError on a singular matrix."""
    mat = np.asarray(mat, dtype=field.dtype)
    n = len(mat)
    if mat.shape != (n, n):
        raise ValueError("only square matrices can be inverted")
    work = np.hstack([mat, np.eye(n, dtype=field.dtype)])
    if field.echelon(work, n) < n:
        raise ValueError("singular matrix")
    return work[:, n:]


@lru_cache(maxsize=64)
def _cached_inverse(n: int, field: BinaryField) -> np.ndarray:
    """The inverse of cauchy_matrix(n, field), read-only."""
    inv = invert_matrix(cauchy_matrix(n, field), field)
    inv.setflags(write=False)
    return inv


def encode_shares(subfiles, randomness, field: BinaryField) -> np.ndarray:
    """Produce the F shares of F-Z subfiles and Z randomness vectors, as an
    (F, L) array.

    The input is one (F, L) array, the subfiles concatenated above the
    randomness; share j is row j of cauchy_matrix(F, field) applied
    symbol-wise to its columns.
    """
    subfiles, randomness = np.asarray(subfiles), np.asarray(randomness)
    if subfiles.shape[1:] != randomness.shape[1:]:
        raise ValueError("subfile and randomness symbol-lengths differ")
    inputs = np.concatenate((subfiles, randomness))
    return field.matmul(cauchy_matrix(len(inputs), field), inputs)


def reconstruct_file(shares, meta: ShareMeta, field: BinaryField) -> np.ndarray:
    """Solve the sharing for its inputs and return the F - Z subfiles, as
    an (F - Z, L) array; needs all F shares, an (F, L) array (a list of
    rows is stacked first)."""
    shares = np.asarray(shares)
    if len(shares) != meta.num_shares:
        raise ValueError(f"need all {meta.num_shares} shares, got {len(shares)}")
    rows = _cached_inverse(meta.num_shares, field)[: meta.num_subfiles]
    return field.matmul(rows, shares)


# -- byte <-> symbol codec --------------------------------------------------
#
# The one place that knows the layout: a byte string is read MSB-first as a
# single bit stream, cut into l-bit symbols, and zero-padded at the end.
# When l is a multiple of 8 a symbol is l/8 whole bytes, most significant
# first, so the codec is a big-endian numpy view of the bytes.  Every other
# width cuts symbols across byte boundaries, and only there do the bytes go
# through unpackbits/packbits.


def _share_meta(data_bits: int, f: int, z: int, field: BinaryField) -> ShareMeta:
    if not 0 <= z < f:
        raise ValueError(f"need 0 <= Z < F, got Z={z}, F={f}")
    unit = (f - z) * field.l
    padded = -(-data_bits // unit) * unit
    return ShareMeta(f, z, data_bits, padded, padded // ((f - z) * field.l))


def bytes_to_symbols(data: bytes, field: BinaryField, count: int) -> np.ndarray:
    """The bit stream of data as `count` l-bit symbols, zero-padded at the
    end, in a fresh writable array."""
    if count * field.l < 8 * len(data):
        raise ValueError(f"{count} symbols of {field.l} bits cannot hold {len(data)} bytes")
    if field.l % 8 == 0:
        width = field.l // 8
        whole = -(-len(data) // width)
        symbols = field.zeros(count)
        symbols[:whole] = np.frombuffer(
            bytes(data).ljust(whole * width, b"\0"), dtype=f">u{width}"
        )
        return symbols
    # unpackbits leaves the bits past an empty input uninitialised, so the
    # data is zero-padded to whole bytes first, as on the word path.
    padded = bytes(data).ljust(-(-count * field.l // 8), b"\0")
    bits = np.unpackbits(np.frombuffer(padded, dtype=np.uint8), count=count * field.l)
    weights = (1 << np.arange(field.l - 1, -1, -1)).astype(field.dtype)
    return bits.reshape(count, field.l) @ weights


def _symbol_bytes(symbols, field: BinaryField) -> np.ndarray:
    """The bit stream of l-bit symbols as a uint8 array, zero-padded at the
    end.  At l = 8 that is the symbols themselves, not a copy."""
    symbols = np.asarray(symbols, field.dtype)
    if field.l % 8 == 0:
        return symbols.astype(f">u{field.l // 8}", copy=False).view(np.uint8)
    shifts = np.arange(field.l - 1, -1, -1, dtype=field.dtype)
    bits = symbols[:, None] >> shifts
    bits &= 1
    return np.packbits(bits)


def symbols_to_bytes(symbols, field: BinaryField) -> bytes:
    """The bit stream of l-bit symbols as bytes, zero-padded at the end."""
    return _symbol_bytes(symbols, field).tobytes()


def bytes_to_subfiles(
    data: bytes, f: int, z: int, field: BinaryField
) -> tuple[np.ndarray, ShareMeta]:
    """Split a byte string into F-Z equal subfiles, as an (F-Z, L) array.

    The padded length is divisible by (F-Z) * l; the original length is kept
    in the returned metadata and restored on reassembly.
    """
    meta = _share_meta(8 * len(data), f, z, field)
    symbols = bytes_to_symbols(data, field, meta.padded_bits // field.l)
    return symbols.reshape(meta.num_subfiles, meta.symbols_per_share), meta


def subfiles_to_bytes(subfiles, meta: ShareMeta, field: BinaryField) -> bytes:
    """Inverse of bytes_to_subfiles: reassemble bits and strip the padding,
    copying the kept bytes once."""
    return _symbol_bytes(np.ravel(subfiles), field)[: meta.data_bits // 8].tobytes()


WORDS_PER_CALL = 1 << 18  # most words a draw takes in one random_words call


def random_words(count: int, rng: np.random.MT19937) -> np.ndarray:
    """The next `count` 32-bit Mersenne Twister words of rng, in draw order,
    as a fresh uint32 array.  They are the words `count` calls of
    getrandbits(32) give on a random.Random seeded alike.  `random_raw`
    returns each word in a uint64, so a call holds a temporary of 8 bytes
    a word, at most 2 MiB for WORDS_PER_CALL words."""
    return rng.random_raw(count).astype(np.uint32)


def random_vector(length: int, field: BinaryField, rng: np.random.MT19937) -> np.ndarray:
    """Uniform symbol vector: the symbols of `length` calls of
    random.Random.getrandbits(l), that is `length` generator words shifted
    right by 32 - l, drawn, shifted and cast into the field's dtype
    WORDS_PER_CALL at a time, so a long draw never holds 4 bytes a symbol."""
    out = np.empty(length, field.dtype)
    for start in range(0, length, WORDS_PER_CALL):
        words = random_words(min(WORDS_PER_CALL, length - start), rng)
        words >>= 32 - field.l
        out[start : start + len(words)] = words
    return out


def share_file(
    data: bytes, num_shares: int, num_random: int, field: BinaryField, rng
) -> tuple[np.ndarray, ShareMeta]:
    """Encode one file into F shares; returns (shares, meta), the shares an
    (F, L) array.  The Z randomness vectors are one draw of Z * L symbols,
    mixed into the shares and dropped, since only the shares need them."""
    subfiles, meta = bytes_to_subfiles(data, num_shares, num_random, field)
    length = meta.symbols_per_share
    randomness = random_vector(num_random * length, field, rng).reshape(num_random, length)
    return encode_shares(subfiles, randomness, field), meta


def unshare_file(shares, meta: ShareMeta, field: BinaryField) -> bytes:
    """Recover the original bytes from all F shares.  The shares are let go
    before the bytes are assembled, so a caller that hands over its only
    reference to them frees them there."""
    subfiles = reconstruct_file(shares, meta, field)
    del shares
    return subfiles_to_bytes(subfiles, meta, field)
