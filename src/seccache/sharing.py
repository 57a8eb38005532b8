"""Cauchy-matrix MDS encoding and (Z, F) non-perfect secret sharing.

A file is split into F-Z subfiles, stacked above Z uniformly random
vectors, and multiplied by an F x F Cauchy matrix to produce F shares.
Any Z shares are statistically independent of the file (checked in the
secrecy module); all F shares reconstruct it exactly.

Symbols are field elements (see field.BinaryField); share vectors are
numpy arrays of symbols.  The Cauchy matrix is one exp/log table gather,
and its inverse, which decoding uses, is a Gauss-Jordan elimination of
[A | I] by `BinaryField.echelon`, the same kernel that serves the secrecy
checks.  No scalar field product runs on this path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import BinaryField


@dataclass(frozen=True)
class SymbolMatrix:
    """Dense matrix of field symbols, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows or any(
            len(r) != self.cols for r in self.entries
        ):
            raise ValueError("entry grid does not match declared shape")

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def hex_str(self) -> str:
        """Whitespace-separated hex symbols, one matrix row per line."""
        return "\n".join(" ".join(f"{e:x}" for e in row) for row in self.entries)


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
def cauchy_matrix(n: int, field: BinaryField) -> SymbolMatrix:
    """n x n Cauchy matrix with entry (i, j) = 1 / (x_i + y_j).

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
    entries = field.exp_table[(field.order - 1) - field.log_table[x[:, None] ^ y]]
    return SymbolMatrix(n, n, tuple(map(tuple, entries.tolist())))


def invert_matrix(mat: SymbolMatrix, field: BinaryField) -> SymbolMatrix:
    """Inverse over the field: `BinaryField.echelon` turns [A | I] into
    [I | A^-1]; raises ValueError on a singular matrix."""
    if mat.rows != mat.cols:
        raise ValueError("only square matrices can be inverted")
    n = mat.rows
    eye = np.eye(n, dtype=field.dtype)
    work = np.hstack([np.asarray(mat.entries, dtype=field.dtype), eye])
    if field.echelon(work, n) < n:
        raise ValueError("singular matrix")
    return SymbolMatrix(n, n, tuple(map(tuple, work[:, n:].tolist())))


def _mat_vec_rows(
    rows, vectors: list[np.ndarray], field: BinaryField
) -> list[np.ndarray]:
    """Row i of the result = XOR_j rows[i][j] * vectors[j], elementwise."""
    return list(field.matmul(rows, np.stack(vectors)))


def encode_shares(
    subfiles: list[np.ndarray],
    randomness: list[np.ndarray],
    enc: SymbolMatrix,
    field: BinaryField,
) -> list[np.ndarray]:
    """Produce F shares from F-Z subfiles and Z randomness vectors.

    The input column stacks the subfiles above the randomness; share j is
    the j-th row of enc applied symbol-wise to that column.
    """
    inputs = list(subfiles) + list(randomness)
    if enc.rows != enc.cols or enc.rows != len(inputs):
        raise ValueError(
            f"encoding matrix is {enc.rows}x{enc.cols} but got "
            f"{len(subfiles)} subfiles + {len(randomness)} randomness vectors"
        )
    lengths = {len(v) for v in inputs}
    if len(lengths) != 1:
        raise ValueError("subfile and randomness symbol-lengths differ")
    return _mat_vec_rows(enc.entries, inputs, field)


@lru_cache(maxsize=64)
def _cached_inverse(enc: SymbolMatrix, field: BinaryField) -> SymbolMatrix:
    return invert_matrix(enc, field)


def reconstruct_file(
    shares: list[np.ndarray],
    enc: SymbolMatrix,
    field: BinaryField,
    num_random: int,
) -> list[np.ndarray]:
    """Solve enc * inputs = shares and return the F - Z subfile vectors."""
    if len(shares) != enc.rows:
        raise ValueError(f"need all {enc.rows} shares, got {len(shares)}")
    if not 0 <= num_random < enc.rows:
        raise ValueError("randomness count out of range")
    rows = _cached_inverse(enc, field).entries[: enc.rows - num_random]
    return _mat_vec_rows(rows, list(shares), field)


# -- byte <-> symbol codec --------------------------------------------------
#
# The one place that knows the layout: a byte string is read MSB-first as a
# single bit stream, cut into l-bit symbols, and zero-padded at the end.


def _share_meta(data_bits: int, f: int, z: int, field: BinaryField) -> ShareMeta:
    if not 0 <= z < f:
        raise ValueError(f"need 0 <= Z < F, got Z={z}, F={f}")
    unit = (f - z) * field.l
    padded = -(-data_bits // unit) * unit
    return ShareMeta(f, z, data_bits, padded, padded // ((f - z) * field.l))


def bytes_to_symbols(data: bytes, field: BinaryField, count: int) -> np.ndarray:
    """The bit stream of data as `count` l-bit symbols, zero-padded at the end."""
    if count * field.l < 8 * len(data):
        raise ValueError(f"{count} symbols of {field.l} bits cannot hold {len(data)} bytes")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count * field.l)
    weights = (1 << np.arange(field.l - 1, -1, -1)).astype(field.dtype)
    return bits.reshape(count, field.l) @ weights


def symbols_to_bytes(symbols, field: BinaryField) -> bytes:
    """The bit stream of l-bit symbols as bytes, zero-padded at the end."""
    shifts = np.arange(field.l - 1, -1, -1, dtype=field.dtype)
    bits = np.asarray(symbols, dtype=field.dtype)[:, None] >> shifts
    bits &= 1
    return np.packbits(bits).tobytes()


def bytes_to_subfiles(
    data: bytes, f: int, z: int, field: BinaryField
) -> tuple[list[np.ndarray], ShareMeta]:
    """Split a byte string into F-Z equal subfile symbol vectors.

    The padded length is divisible by (F-Z) * l; the original length is kept
    in the returned metadata and restored on reassembly.
    """
    meta = _share_meta(8 * len(data), f, z, field)
    symbols = bytes_to_symbols(data, field, meta.padded_bits // field.l)
    return list(symbols.reshape(meta.num_subfiles, meta.symbols_per_share)), meta


def subfiles_to_bytes(
    subfiles: list[np.ndarray], meta: ShareMeta, field: BinaryField
) -> bytes:
    """Inverse of bytes_to_subfiles: reassemble bits and strip the padding."""
    return symbols_to_bytes(np.concatenate(subfiles), field)[: meta.data_bits // 8]


def random_words(count: int, rng) -> np.ndarray:
    """The next `count` 32-bit words of a random.Random, in draw order.

    getrandbits(32 * count) lays successive generator words out least
    significant first, so this consumes the same words, in the same order,
    as `count` calls of getrandbits(k) for k <= 32, each of which returns
    one word shifted right by 32 - k.
    """
    packed = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return np.frombuffer(packed, dtype="<u4")


def random_vector(length: int, field: BinaryField, rng) -> np.ndarray:
    """Uniform symbol vector drawn from a seedable generator: the symbols of
    `length` calls of rng.getrandbits(l), drawn in one call."""
    return (random_words(length, rng) >> (32 - field.l)).astype(field.dtype)


def share_file(
    data: bytes, enc: SymbolMatrix, num_random: int, field: BinaryField, rng
) -> tuple[list[np.ndarray], list[np.ndarray], ShareMeta]:
    """Encode one file into F shares; returns (shares, randomness, meta)."""
    f = enc.rows
    subfiles, meta = bytes_to_subfiles(data, f, num_random, field)
    randomness = [
        random_vector(meta.symbols_per_share, field, rng) for _ in range(num_random)
    ]
    return encode_shares(subfiles, randomness, enc, field), randomness, meta


def unshare_file(
    shares: list[np.ndarray], enc: SymbolMatrix, meta: ShareMeta, field: BinaryField
) -> bytes:
    """Recover the original bytes from all F shares."""
    subfiles = reconstruct_file(shares, enc, field, meta.num_random)
    return subfiles_to_bytes(subfiles, meta, field)
