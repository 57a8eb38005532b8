"""Cauchy-matrix MDS encoding and (Z, F) non-perfect secret sharing.

A file is split into F-Z subfiles, stacked above Z uniformly random
vectors, and multiplied by an F x F Cauchy matrix to produce F shares.
Any Z shares are statistically independent of the file (checked in the
secrecy module); all F shares reconstruct it exactly.

Symbols are field elements (see field.BinaryField).  Subfiles and shares
are 2-D numpy arrays, one row of L symbols per vector.  Bytes become
symbols in one codec, `bytes_to_symbols`/`symbols_to_bytes`, and each way
takes a batch of equal-length files in one pass: when l is a multiple of
8 a symbol is l/8 whole bytes, so the codec is a big-endian numpy view of
them (copied into a fresh, writable array); other widths cut symbols
across byte boundaries and keep a bit-level unpack/pack path.

The share matrix is not an argument: F and the field fix it as
cauchy_matrix(F, field), a cached read-only array built by one exp/log
table gather.  Its inverse, which decoding uses, is a Gauss-Jordan
elimination of [A | I] by `BinaryField.echelon`, the same kernel that
serves the secrecy checks, and is cached read-only as well.  Sharing and
unsharing are one `BinaryField.matmul` each: at l <= 8 it multiplies
in one gather of word-padded product rows that are cached per
coefficient matrix, so the share matrix and the inverse's rows are
tabulated once per process; at l > 8 every product is a gather
exp[log a + log b].  No scalar field product runs on this path.  At
F = 1 (so Z = 0, the M = 0 scheme's whole-file share) the matrix is
[1/(0 + 1)] = [1], so sharing and unsharing are the identity instead:
the one-row input is the share, and the share is the subfile, with no
product and no inverse.

The share matrix is the same for every file, so sharing a batch of k
files is one product with an (F, k * L) input that holds the files side
by side: file i's subfiles and its Z random vectors are columns
i * L .. (i + 1) * L, and so are its shares in the product.  The input is
written in place, its first F - Z rows by one pass of the codec over the
batch's bytes and its last Z rows by one draw, so nothing stacks or
concatenates rows.  Unsharing is the same in reverse: a batch's F shares
side by side, one (F, k * L) array, are one product with the inverse's
F - Z rows, and the (F - Z, k * L) subfiles are one pass of the codec
back to bytes, `_symbol_files`, the batch form of symbols -> bytes: it
turns each row of a (k, n) array into one file's bit stream, padded at
its own end, so the k files' bytes are back to back in its result.

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


def encode_shares(inputs, field: BinaryField) -> np.ndarray:
    """The F shares of one (F, X) input, its F - Z rows of subfiles above
    its Z rows of randomness, as an (F, X) array: cauchy_matrix(F, field)
    times the input, so column x of the shares depends on column x of the
    input alone.  A list of equal-length rows is stacked first.  At F = 1
    the matrix is [1], and the result is the (1, X) input itself, not a
    copy."""
    inputs = np.asarray(inputs)
    if inputs.ndim != 2:
        raise ValueError(f"the input must be one (F, X) array, got shape {inputs.shape}")
    if len(inputs) == 1:
        return inputs
    return field.matmul(cauchy_matrix(len(inputs), field), inputs)


def reconstruct_file(shares, meta: ShareMeta, field: BinaryField) -> np.ndarray:
    """Solve the sharing for its inputs and return the F - Z subfiles, as
    an (F - Z, X) array; needs all F shares, an (F, X) array (a list of
    rows is stacked first), so column x of the subfiles depends on column
    x of the shares alone and a batch of files side by side is one
    product.  At F = 1 the inverse is [1], and the result is the (1, X)
    shares themselves, not a copy."""
    shares = np.asarray(shares)
    if len(shares) != meta.num_shares:
        raise ValueError(f"need all {meta.num_shares} shares, got {len(shares)}")
    if meta.num_shares == 1:
        return shares
    rows = _cached_inverse(meta.num_shares, field)[: meta.num_subfiles]
    return field.matmul(rows, shares)


# -- byte <-> symbol codec --------------------------------------------------
#
# The one place that knows the layout: a byte string is read MSB-first as a
# single bit stream, cut into l-bit symbols, and zero-padded at the end.  A
# batch of files back to back is read as one stream per file, each padded
# at its own end.
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


def _file_bytes(size: int, count: int) -> int:
    """The length of each of `count` equal-length files that hold `size`
    bytes in all."""
    if count < 1 or size % count:
        raise ValueError(f"{size} bytes do not split into {count} equal files")
    return size // count


def _batch_meta(size: int, count: int, f: int, z: int, field: BinaryField) -> ShareMeta:
    """One file's geometry in a batch of `count` equal-length files that
    hold `size` bytes in all."""
    return _share_meta(8 * _file_bytes(size, count), f, z, field)


def _file_symbols(data: bytes, files: int, per_file: int, field: BinaryField) -> np.ndarray:
    """The bit streams of `files` equal-length files, back to back in data,
    as `per_file` l-bit symbols each, every file zero-padded at its own
    end: a (files, per_file) array.  The bytes are copied only to pad
    them, so at l = 8 or 16 unpadded files are a read-only view of data."""
    size = _file_bytes(len(data), files)
    if per_file * field.l < 8 * size:
        raise ValueError(f"{per_file} symbols of {field.l} bits cannot hold {size} bytes")
    raw = np.frombuffer(data, np.uint8).reshape(files, size)
    padded = -(-per_file * field.l // 8)
    if padded > size:
        # unpackbits leaves the bits past an empty input uninitialised, so
        # the bytes are zero-padded to whole symbols first on both paths.
        grown = np.zeros((files, padded), np.uint8)
        grown[:, :size] = raw
        raw = grown
    if field.l % 8 == 0:
        return raw.view(f">u{field.l // 8}")
    bits = np.unpackbits(raw, axis=1, count=per_file * field.l)
    weights = (1 << np.arange(field.l - 1, -1, -1)).astype(field.dtype)
    return bits.reshape(files, per_file, field.l) @ weights


def _symbol_files(symbols, field: BinaryField) -> np.ndarray:
    """The inverse of `_file_symbols`: each row of l-bit symbols as one
    file's bit stream, zero-padded at its own end, a uint8 row of
    ceil(n * l / 8) bytes; a 1-D array is one row.  At l = 8 that is the
    symbols themselves, not a copy."""
    symbols = np.asarray(symbols, field.dtype)
    if field.l % 8 == 0:
        return symbols.astype(f">u{field.l // 8}", copy=False).view(np.uint8)
    shifts = np.arange(field.l - 1, -1, -1, dtype=field.dtype)
    bits = symbols[..., None] >> shifts
    bits &= 1
    return np.packbits(bits.reshape(*symbols.shape[:-1], symbols.shape[-1] * field.l), axis=-1)


def bytes_to_symbols(data: bytes, field: BinaryField, count: int, files: int = 1) -> np.ndarray:
    """The bit streams of `files` equal-length files, back to back in data,
    as `count` l-bit symbols each, every file zero-padded at its own end:
    a fresh writable (files, count) array, row i file i's symbols.  The
    whole batch is one pass of the codec, whose result is copied only
    when it is a view of the bytes."""
    symbols = _file_symbols(data, files, count, field)
    return symbols if symbols.flags.owndata else np.array(symbols, field.dtype)


def symbols_to_bytes(symbols, field: BinaryField) -> bytes:
    """The bit stream of l-bit symbols as bytes, zero-padded at the end.  A
    (k, n) array, or a list of k rows of n symbols, gives its k rows'
    streams back to back, each padded at its own end, from one pass of the
    codec."""
    return _symbol_files(symbols, field).tobytes()


def bytes_to_subfiles(
    data: bytes, f: int, z: int, field: BinaryField, count: int = 1, out=None
) -> tuple[np.ndarray, ShareMeta]:
    """Split `count` equal-length files, back to back in data, into F-Z
    equal subfiles each, as an (F-Z, count * L) array whose columns
    i * L .. (i + 1) * L are file i's subfiles; the whole batch is one
    pass of the codec.

    Each file is zero-padded at its own end to a length divisible by
    (F-Z) * l; the returned metadata is one file's, and keeps its
    original length, which reassembly restores.  The symbols are written
    into `out` when it is given, a C-contiguous array of that shape such
    as the first rows of an encode input, and into a fresh array
    otherwise.
    """
    meta = _batch_meta(len(data), count, f, z, field)
    length = meta.symbols_per_share
    if out is None:
        out = np.empty((f - z, count * length), field.dtype)
    elif out.shape != (f - z, count * length) or not out.flags.c_contiguous:
        raise ValueError(f"cannot write {count} files' subfiles into shape {out.shape}")
    symbols = _file_symbols(data, count, meta.padded_bits // field.l, field)
    out.reshape(f - z, count, length).swapaxes(0, 1)[...] = symbols.reshape(count, f - z, length)
    return out, meta


def subfiles_to_bytes(subfiles, meta: ShareMeta, field: BinaryField, count: int = 1) -> bytes:
    """Inverse of bytes_to_subfiles: the `count` files whose subfiles are
    the column blocks of an (F-Z, count * L) array, back to back, each
    with its padding stripped.  The whole batch is one pass of the codec,
    and the kept bytes are copied once; one file's subfiles are read in
    place, a batch's are first laid out file by file."""
    length = meta.symbols_per_share
    files = np.asarray(subfiles).reshape(meta.num_subfiles, count, length).swapaxes(0, 1)
    files = files.reshape(count, meta.num_subfiles * length)
    return _symbol_files(files, field)[:, : meta.data_bits // 8].tobytes()


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
    data: bytes, num_shares: int, num_random: int, field: BinaryField, rng, count: int = 1
) -> tuple[np.ndarray, ShareMeta]:
    """Encode `count` equal-length files, back to back in data, into F
    shares each; returns (shares, meta), the shares an (F, count * L)
    array whose columns i * L .. (i + 1) * L are file i's, and meta one
    file's geometry.

    The (F, count * L) input is written in place: `bytes_to_subfiles`
    puts every file's subfiles in its first F - Z rows, and one draw of
    count * Z * L symbols, file after file, fills its last Z, so file i
    gets the Z vectors the i-th of count draws of Z * L would give it.
    One product shares the batch; the randomness goes with the input,
    since only the shares need it."""
    f, z = num_shares, num_random
    meta = _batch_meta(len(data), count, f, z, field)
    length = meta.symbols_per_share
    inputs = np.empty((f, count * length), field.dtype)
    bytes_to_subfiles(data, f, z, field, count, inputs[: f - z])
    inputs[f - z :].reshape(z, count, length).swapaxes(0, 1)[...] = random_vector(
        count * z * length, field, rng
    ).reshape(count, z, length)
    return encode_shares(inputs, field), meta


def unshare_file(shares, meta: ShareMeta, field: BinaryField, count: int = 1) -> bytes:
    """Recover `count` files, back to back, from all F shares of each: an
    (F, count * L) array whose columns i * L .. (i + 1) * L are file i's,
    as share_file returns them.  One product unshares the batch, and the
    shares are let go before the bytes are assembled, so a caller that
    hands over its only reference to them frees them there.  At F = 1 the
    share is the subfile, so it is held until the bytes are assembled from
    it."""
    subfiles = reconstruct_file(shares, meta, field)
    del shares
    return subfiles_to_bytes(subfiles, meta, field, count)
