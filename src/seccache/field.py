"""GF(2^l) finite field arithmetic.

Field elements are plain integers in [0, 2^l - 1]; bit i is the coefficient
of x^i in the polynomial basis.  Addition is XOR, multiplication is a
carry-less polynomial product reduced by a fixed irreducible polynomial of
degree l, the lowest-valued one, so the width l alone names the field.  No
wrapper objects: the field instance is passed around with the elements.

For vectorized work (share encoding, linear-algebra checks) the field
exposes exp/log tables over a fixed generator, usable with numpy fancy
indexing.  They are built on first use, once per width l in a process,
and every instance of that field shares the same read-only arrays.  The
scalar `mul` and `pow` only build those tables; the tests use them, and an
inverse built from `pow`, as oracles.  Every array operation goes through
tables.  At l <= 8,
`BinaryField.matmul` multiplies through product rows of its coefficient
matrix, built from the exp/log tables and cached per matrix
(`_product_tables`): row j * 2^l + s holds the R products of s with
coefficient column j, zero-padded to a 1, 2, 4 or 8k-byte word row, so
an entry holds C * 2^l * padded R bytes (at most 4 MiB at F <= 128).
One gather of those rows and one XOR reduce multiply a whole chunk of
symbols, holding at most about 512 KiB at a time.  The other array
operations, and matmul at l > 8, gather from the exp/log tables
directly, exp[log a + log b] for a product.

`BinaryField.echelon`, a forward elimination, is the package's one
elimination kernel.  It decides every rank check, and two passes of it
make `sharing.invert_matrix`, the one inverse, which decoding and the
secrecy module's (C_v^lam)^-1 of each cache take.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Lowest-valued irreducible polynomial of each degree, found by exhaustive
# search; the tests re-verify both properties.  Bit i = coefficient of x^i.
_DEFAULT_POLYS = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
}

# Bytes that one gather of `BinaryField.matmul` at l <= 8 may hold: the
# products and their int64 row indices, C * (padded R + 8) per symbol.
# Longer symbol arrays are multiplied in chunks of columns.  A batch of
# files shared in one product fills whole chunks: at 1 MiB each freed chunk
# let glibc trim the heap and the next one fault it back in, 525 page
# faults per `bulk`-shaped operation in a plain loop, 13 % slower than
# sharing file by file; at 512 KiB there are none.
_GATHER_BUDGET_BYTES = 1 << 19


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class BinaryField:
    """Arithmetic context for GF(2^l), 2 <= l <= 16.

    Parameters
    ----------
    l : int
        Bits per symbol; the field has 2^l elements and is reduced by
        `poly`, the lowest-valued irreducible polynomial of degree l.
    """

    def __init__(self, l: int):
        if not 2 <= l <= 16:
            raise ValueError(f"symbol width must be in [2, 16], got {l}")
        self.l = l
        self.order = 1 << l
        self.poly = _DEFAULT_POLYS[l]
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None

    # -- scalar operations --------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Carry-less polynomial product reduced by the field polynomial."""
        result = 0
        while b:
            if b & 1:
                result ^= a
            b >>= 1
            a <<= 1
            if a & self.order:
                a ^= self.poly
        return result

    def pow(self, a: int, n: int) -> int:
        """a raised to a nonnegative integer power."""
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    # -- vectorized support --------------------------------------------------

    def _build_tables(self) -> None:
        self._exp, self._log = _tables(self)

    @property
    def exp_table(self) -> np.ndarray:
        """exp[i] = g^i, doubled in length so exp[log a + log b] needs no
        modulo, then zero from index 2q - 3 on, where log 0 points."""
        if self._exp is None:
            self._build_tables()
        return self._exp

    @property
    def log_table(self) -> np.ndarray:
        """log[x] for x != 0; log[0] = 2q - 3, so exp[log a + log b] = a * b
        for every a and b, zero included."""
        if self._log is None:
            self._build_tables()
        return self._log

    @property
    def dtype(self):
        return np.uint8 if self.l <= 8 else np.uint16

    def zeros(self, *shape: int) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def scale(self, s: int, vec: np.ndarray) -> np.ndarray:
        """Elementwise s * vec over the field."""
        if s == 0:
            return np.zeros_like(vec)
        if s == 1:
            return vec.copy()
        out = np.zeros_like(vec)
        nz = vec != 0
        out[nz] = self.exp_table[self.log_table[s] + self.log_table[vec[nz]]]
        return out

    def scaled_outer(self, factors: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Matrix whose i-th row is factors[i] * row (factors all nonzero)."""
        out = np.zeros((len(factors), len(row)), dtype=row.dtype)
        nz = row != 0
        if nz.any():
            idx = self.log_table[factors][:, None] + self.log_table[row[nz]][None, :]
            out[:, nz] = self.exp_table[idx]
        return out

    def matmul(self, coeffs, symbols: np.ndarray) -> np.ndarray:
        """Matrix product over the field: (R, C) coefficients times a (C, L)
        symbol array, as an (R, L) array.

        At l <= 8 a symbol s of column j has its R products with that
        column in one word-padded row, j * 2^l + s, of the matrix's cached
        product rows (see `_product_tables`).  So all C * L terms are one
        take of rows symbols + offsets, XORed together over the C axis by
        one reduce, then viewed as bytes, cut to R columns and transposed
        into the (R, L) result.  The symbols are taken in chunks of
        columns so that the gathered words and their int64 indices, C *
        (padded R + 8) bytes per symbol, stay within _GATHER_BUDGET_BYTES
        (512 KiB).  The symbols are bound-checked before the gather.

        At l > 8, where a table per coefficient would not pay for itself,
        the C terms of a row are XORed in one coefficient column at a time,
        each one gather exp[log a + log b], which needs no zero mask, so no
        temporary is larger than R x L.
        """
        if self.l <= 8:
            coeffs = np.asarray(coeffs)
            rows, offsets = _product_tables(
                self, coeffs.shape, coeffs.dtype.str, coeffs.tobytes()
            )
            # A flat index would read an out-of-field symbol of column j
            # from column j + 1's rows, so the gather cannot bound-check.
            if symbols.size and not (symbols.dtype == np.uint8 and self.l == 8):
                if symbols.min() < 0 or symbols.max() >= self.order:
                    raise IndexError(f"symbol outside GF(2^{self.l})")
            width, length = coeffs.shape[0], symbols.shape[1]
            per_symbol = len(offsets) * (rows.strides[0] + 8)  # words + index
            chunk = max(1, _GATHER_BUDGET_BYTES // max(1, per_symbol))
            out = np.empty((width, length), dtype=self.dtype)
            for start in range(0, length, chunk):
                stop = start + chunk
                terms = rows.take(symbols[:, start:stop] + offsets, axis=0)
                products = np.bitwise_xor.reduce(terms, axis=0)
                out[:, start:stop] = products.view(np.uint8)[:, :width].T
            return out
        exp, log = self.exp_table, self.log_table
        coeff_logs = log[np.asarray(coeffs)]
        out = self.zeros(len(coeff_logs), symbols.shape[1])
        term = np.empty_like(out)
        for column_logs, symbol_logs in zip(coeff_logs.T, log[symbols]):
            np.take(exp, column_logs[:, None] + symbol_logs, out=term)
            out ^= term
        return out

    def echelon(self, mat: np.ndarray, pivot_cols: int) -> int:
        """In-place forward elimination taking pivots only from the first
        pivot_cols columns; returns the pivot count.

        Each pivot is scaled to 1 and clears its column below it only, so
        the rows past the pivots are zero throughout the first pivot_cols
        columns and are exactly a Gauss-Jordan elimination's (clearing
        above a pivot changes only rows above it); the rows above are not
        reduced.
        """
        exp, log = self.exp_table, self.log_table
        pivots = 0
        for col in range(pivot_cols):
            if pivots == mat.shape[0]:
                break
            candidates = np.nonzero(mat[pivots:, col])[0]
            if candidates.size == 0:
                continue
            r = pivots + int(candidates[0])
            if r != pivots:
                mat[[pivots, r]] = mat[[r, pivots]]
            pv = int(mat[pivots, col])
            if pv != 1:
                mat[pivots] = exp[(self.order - 1 - log[pv]) + log[mat[pivots]]]
            hits = pivots + 1 + np.nonzero(mat[pivots + 1 :, col])[0]
            if hits.size:
                mat[hits] ^= self.scaled_outer(mat[hits, col], mat[pivots])
            pivots += 1
        return pivots

    def __eq__(self, other) -> bool:
        return isinstance(other, BinaryField) and other.l == self.l

    def __hash__(self) -> int:
        return hash(self.l)

    def __repr__(self) -> str:
        return f"BinaryField(l={self.l})"


@lru_cache(maxsize=None)
def _tables(field: BinaryField) -> tuple[np.ndarray, np.ndarray]:
    """The read-only exp and log tables of a field, built once per width l
    (the key that field equality and hashing use) by repeated scalar
    multiplication with the least generator of the multiplicative group."""
    q = field.order
    n = q - 1
    factors = _prime_factors(n)
    g = next(
        g for g in range(2, q) if all(field.pow(g, n // p) != 1 for p in factors)
    )
    # Logs of nonzero elements lie in [0, q - 2], so log a + log b <= 2q - 4.
    # log 0 = 2q - 3 sends every sum that involves a zero into a zero tail.
    zero_log = 2 * q - 3
    exp = np.zeros(2 * zero_log + 1, dtype=field.dtype)
    log = np.full(q, zero_log, dtype=np.int32)
    x = 1
    for i in range(n):
        exp[i] = x
        log[x] = i
        x = field.mul(x, g)
    exp[n:zero_log] = exp[: q - 2]
    exp.setflags(write=False)
    log.setflags(write=False)
    return exp, log


def _padded_width(width: int) -> int:
    """Bytes of a product row of `width` products padded to whole words:
    1, 2 or 4 bytes, or a multiple of 8."""
    for word in (1, 2, 4):
        if width <= word:
            return word
    return -(-width // 8) * 8


@lru_cache(maxsize=16)
def _product_tables(
    field: BinaryField, shape: tuple[int, ...], dtype: str, coeff_bytes: bytes
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only product rows of an (R, C) coefficient matrix at l <= 8,
    with the row offset of each coefficient column.

    Row j * 2^l + s holds s times column j: its byte r is coeffs[r, j] * s,
    for r < R, and zero in the padding bytes up to `_padded_width(R)`.  The
    rows are read as unsigned words (u1, u2, u4, or u8 from 5 bytes on), so
    the array has shape (C * 2^l, words) and one gather copies whole words.
    The offsets are j * 2^l, shape (C, 1), so symbols + offsets indexes
    each column's rows; they have the narrowest unsigned dtype that holds
    C * 2^l.

    The key is the matrix's shape, dtype and bytes, so equal matrices share
    one entry however they were built.  All C * R * 2^l products come from
    one exp/log gather.  The coefficients' logs are read before any cast,
    so a coefficient outside the field raises IndexError, as a symbol
    outside it does in `matmul`.

    An entry holds C * 2^l * _padded_width(R) bytes.  Sessions multiply
    only by blocks of an F x F share matrix, and 2F <= 2^l, so there an
    entry is at most 128 * 256 * 128 bytes (4 MiB) and the 16 entries at
    most 64 MiB.  The tests' enumeration oracle multiplies by an
    observation model of at most 12 columns.
    """
    width, columns = shape
    coeffs = np.frombuffer(coeff_bytes, dtype=dtype).reshape(shape)
    log = field.log_table
    table = np.zeros((columns, field.order, _padded_width(width)), dtype=np.uint8)
    table[:, :, :width] = field.exp_table[log[coeffs].T[:, None, :] + log[:, None]]
    word = np.dtype(f"u{min(table.shape[2], 8)}")
    rows = table.view(word).reshape(-1, table.shape[2] // word.itemsize)
    # uint8 symbols plus uint16 offsets add about three times faster
    # than plus int64 ones, and the gather takes the narrow index as fast.
    index = np.min_scalar_type(columns * field.order)
    offsets = (np.arange(columns) * field.order).astype(index)[:, None]
    rows.setflags(write=False)
    offsets.setflags(write=False)
    return rows, offsets
