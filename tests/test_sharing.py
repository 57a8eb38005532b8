"""Cauchy/MDS construction, the (Z, F) sharing round trip and the random
streams it draws from."""

import hashlib
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seccache.field import (
    _GATHER_BUDGET_BYTES,
    BinaryField,
    _padded_width,
    _product_tables,
)
from seccache.scheme import SystemConfig, mersenne_twister, synthetic_library
from seccache.sharing import (
    WORDS_PER_CALL,
    ShareMeta,
    _cached_inverse,
    bytes_to_subfiles,
    bytes_to_symbols,
    cauchy_matrix,
    encode_shares,
    invert_matrix,
    random_vector,
    random_words,
    reconstruct_file,
    share_file,
    subfiles_to_bytes,
    symbols_to_bytes,
    unshare_file,
)
from tests.conftest import field_inv, scalar_row_reduce


def oracle_det(entries, field):
    """Laplace-expansion determinant over the field (test-side oracle)."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    total = 0
    for j in range(n):
        if entries[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        total ^= field.mul(entries[0][j], oracle_det(minor, field))
    return total  # char 2: no sign bookkeeping


def submatrix(mat, rows, cols):
    return [[int(mat[r, c]) for c in cols] for r in rows]


def all_square_submatrices_nonsingular(mat, field):
    n = len(mat)
    for k in range(1, n + 1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                if oracle_det(submatrix(mat, rows, cols), field) == 0:
                    return False
    return True


def test_cauchy_4x4_gf3_every_submatrix_invertible(gf3):
    mat = cauchy_matrix(4, gf3)
    assert mat.shape == (4, 4) and mat.dtype == gf3.dtype
    assert all_square_submatrices_nonsingular(mat, gf3)


@pytest.mark.parametrize("n,l", [(4, 3), (5, 4), (6, 4), (6, 8)])
def test_cauchy_submatrix_property(n, l):
    field = BinaryField(l)
    assert all_square_submatrices_nonsingular(cauchy_matrix(n, field), field)


def test_cauchy_1x1_is_single_nonzero_symbol(gf3):
    mat = cauchy_matrix(1, gf3)
    assert mat.tolist() == [[1]]


@settings(max_examples=60, deadline=None)
@given(l=st.integers(2, 16), draw=st.data())
def test_cauchy_entries_are_scalar_inverses(l, draw):
    field = BinaryField(l)
    n = draw.draw(st.integers(1, min(field.order // 2, 32)))
    mat = cauchy_matrix(n, field)
    assert mat.tolist() == [
        [field_inv(field, x ^ y) for y in range(n, 2 * n)] for x in range(n)
    ]


def test_cauchy_field_too_small():
    with pytest.raises(ValueError):
        cauchy_matrix(4, BinaryField(2))  # needs 8 distinct elements
    with pytest.raises(ValueError, match="^matrix size must be positive$"):
        cauchy_matrix(0, BinaryField(2))


def test_cauchy_deterministic(gf8):
    assert (cauchy_matrix(5, gf8) == cauchy_matrix(5, BinaryField(8))).all()


@pytest.mark.parametrize("matrix", [cauchy_matrix, _cached_inverse])
def test_shared_matrices_are_read_only(matrix, gf8):
    """Every session shares these cached arrays, so none may write to them."""
    mat = matrix(5, gf8)
    with pytest.raises(ValueError):
        mat[0, 0] = 0
    with pytest.raises(ValueError):
        mat[1:3] ^= 1
    assert matrix(5, gf8) is mat


@pytest.mark.parametrize("matrix", [cauchy_matrix, _cached_inverse])
def test_product_tables_are_shared_read_only(matrix, gf8):
    """matmul multiplies at l <= 8 through cached product rows: one read-only
    pair of arrays per distinct coefficient matrix, whatever object holds it."""
    mat = matrix(5, gf8)
    key = (gf8, mat.shape, mat.dtype.str, mat.tobytes())
    gf8.matmul(mat, gf8.zeros(5, 3))
    rows, offsets = _product_tables(*key)
    # five products pad to one 8-byte word per row
    assert rows.shape == (5 * gf8.order, 1) and rows.dtype == np.uint64
    assert offsets.tolist() == [[j * gf8.order] for j in range(5)]
    for table in (rows, offsets):
        assert table.flags.c_contiguous  # each symbol gathers one contiguous row
        with pytest.raises(ValueError):
            table[0, 0] = 1
        with pytest.raises(ValueError):
            table[1:3] ^= 1
    products = rows.view(np.uint8).reshape(5, gf8.order, 8)
    assert not products[:, :, 5:].any()  # the padding lanes
    assert products[:, :, :5].tolist() == [
        [[gf8.mul(int(mat[r, j]), s) for r in range(5)] for s in range(gf8.order)]
        for j in range(5)
    ]
    before = _product_tables.cache_info()
    gf8.matmul(mat.copy(), gf8.zeros(5, 3))
    after = _product_tables.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert _product_tables(*key)[0] is rows


def test_cached_inverse_inverts_the_share_matrix(gf8):
    product = gf8.matmul(_cached_inverse(6, gf8), cauchy_matrix(6, gf8))
    assert (product == np.eye(6, dtype=gf8.dtype)).all()


def test_encode_all_zero_inputs(gf3):
    zero = gf3.zeros(3)
    shares = encode_shares([zero, zero, zero, zero], gf3)
    assert shares.shape == (4, 3) and not shares.any()


def test_encode_matches_naive_matvec(gf3):
    enc = cauchy_matrix(4, gf3)
    rng = random.Random(1)
    inputs = [np.array([rng.randrange(8) for _ in range(5)], dtype=gf3.dtype)
              for _ in range(4)]
    shares = encode_shares(inputs, gf3)
    for j in range(4):
        for pos in range(5):
            expect = 0
            for i in range(4):
                expect ^= gf3.mul(int(enc[j, i]), int(inputs[i][pos]))
            assert int(shares[j][pos]) == expect


def test_encode_dimension_mismatch(gf3):
    vec = np.array([1, 2], dtype=gf3.dtype)
    with pytest.raises(ValueError):
        encode_shares([vec, vec, vec, vec[:1]], gf3)
    with pytest.raises(ValueError, match=r"one \(F, X\) array"):
        encode_shares(vec, gf3)


def test_roundtrip_all_shapes_up_to_16():
    field = BinaryField(8)
    rng = mersenne_twister(42)
    data_rng = np.random.RandomState(rng)  # the same stream, for the subfiles
    for f in range(2, 17):
        for z in range(1, f):
            subs = [data_rng.randint(256, size=2).astype(field.dtype) for _ in range(f - z)]
            rand = [random_vector(2, field, rng) for _ in range(z)]
            shares = encode_shares([*subs, *rand], field)
            back = reconstruct_file(shares, ShareMeta(f, z, 0, 0, 2), field)
            assert back.shape == (f - z, 2) and (back == np.stack(subs)).all()


def test_roundtrip_random_inputs_repeated(gf3):
    meta = ShareMeta(4, 2, 0, 0, 3)
    rng = mersenne_twister(9)
    data_rng = np.random.RandomState(rng)  # the same stream, for the subfiles
    for _ in range(100):
        subs = [data_rng.randint(8, size=3).astype(gf3.dtype) for _ in range(2)]
        rand = [random_vector(3, gf3, rng) for _ in range(2)]
        back = reconstruct_file(encode_shares([*subs, *rand], gf3), meta, gf3)
        assert all((a == b).all() for a, b in zip(subs, back))


@settings(max_examples=100, deadline=None)
@given(l=st.integers(2, 16), data=st.data())
def test_the_one_share_sharing_is_the_identity(l, data):
    """At F = 1 (Z = 0) the share matrix and its inverse are [1]: the share
    is the (1, X) input and the subfile is the share, the arrays
    themselves, equal to the products by both matrices."""
    field = BinaryField(l)
    length = data.draw(st.integers(0, 64))
    symbols = data.draw(st.lists(st.integers(0, field.order - 1),
                                 min_size=length, max_size=length))
    row = np.array(symbols, field.dtype).reshape(1, length)
    shares = encode_shares(row, field)
    assert shares is row
    assert np.array_equal(shares, field.matmul(cauchy_matrix(1, field), row))
    length = row.shape[1]
    meta = ShareMeta(1, 0, length * l, length * l, length)
    subfiles = reconstruct_file(shares, meta, field)
    assert subfiles is row
    assert np.array_equal(subfiles, field.matmul(_cached_inverse(1, field), row))
    with pytest.raises(ValueError, match="need all 1 shares"):
        reconstruct_file(np.vstack([row, row]), meta, field)


def test_reconstruct_needs_all_shares(gf3):
    rng = mersenne_twister(3)
    shares, meta = share_file(b"abc", 4, 2, gf3, rng)
    with pytest.raises(ValueError, match="need all 4 shares, got 3"):
        reconstruct_file(shares[:3], meta, gf3)


def test_file_roundtrip_bit_exact(gf8):
    rng = mersenne_twister(5)
    data = b"abcdefghijklm"
    shares, meta = share_file(data, 4, 2, gf8, rng)
    assert shares.shape == (4, meta.symbols_per_share)
    assert unshare_file(shares, meta, gf8) == data


def test_share_geometry_two_subfiles_of_half_size(gf3):
    # B-bit file, F=4, Z=2: two subfiles of B/2 bits each.
    data = b"\xa5\x5a\xff"  # 24 bits, divisible by (F-Z)*l = 6
    subs, meta = bytes_to_subfiles(data, 4, 2, gf3)
    assert len(subs) == 2
    assert meta.padded_bits == meta.data_bits == 24
    assert meta.share_bits == 12
    assert all(len(s) == 4 for s in subs)
    assert subfiles_to_bytes(subs, meta, gf3) == data


def test_share_size_bound(gf8):
    # Each share carries exactly padded-B/(F-Z) bits.
    for f, z, nbytes in [(4, 2, 13), (5, 1, 1), (16, 7, 200)]:
        data = bytes(i % 256 for i in range(nbytes))
        subs, meta = bytes_to_subfiles(data, f, z, gf8)
        assert meta.share_bits * (f - z) == meta.padded_bits
        assert meta.padded_bits % ((f - z) * gf8.l) == 0
        assert meta.padded_bits >= meta.data_bits
        assert all(len(s) == meta.symbols_per_share for s in subs)


def test_padding_strips_back(gf3):
    # 8 bits padded up to (F-Z)*l multiples and restored exactly.
    rng = mersenne_twister(8)
    data = b"\x42"
    shares, meta = share_file(data, 4, 2, gf3, rng)
    assert meta.padded_bits == 12 and meta.data_bits == 8
    assert unshare_file(shares, meta, gf3) == data


@settings(max_examples=150, deadline=None)
@given(l=st.integers(2, 16), n=st.integers(1, 10), deficient=st.booleans(),
       draw=st.data())
def test_invert_matrix_roundtrip(l, n, deficient, draw):
    """inverse * A = I under scalar mul when the plain-list oracle finds rank
    n; ValueError otherwise (forced for `deficient`, where the last row is a
    combination of the others)."""
    field = BinaryField(l)
    symbol = st.integers(0, field.order - 1)
    rows = [draw.draw(st.lists(symbol, min_size=n, max_size=n)) for _ in range(n)]
    if deficient:
        coeffs = draw.draw(st.lists(symbol, min_size=n - 1, max_size=n - 1))
        rows[-1] = [0] * n
        for c, row in zip(coeffs, rows):
            rows[-1] = [acc ^ field.mul(c, x) for acc, x in zip(rows[-1], row)]
    mat = np.array(rows, dtype=field.dtype)
    if scalar_row_reduce(field, rows, n)[1] < n:
        with pytest.raises(ValueError, match="singular"):
            invert_matrix(mat, field)
        return
    assert not deficient
    inv = invert_matrix(mat, field)
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc ^= field.mul(int(inv[i, k]), rows[k][j])
            assert acc == (1 if i == j else 0)


def test_invert_singular_matrix_rejected(gf3):
    with pytest.raises(ValueError):
        invert_matrix(np.array([[1, 1], [1, 1]]), gf3)
    with pytest.raises(ValueError, match="^only square matrices can be inverted$"):
        invert_matrix(np.ones((2, 3)), gf3)


# -- codec against a Python-integer reference --------------------------------------


def ref_bytes_to_subfiles(data, f, z, field):
    """Reference codec: the file as one big integer, shifted out l bits at a time."""
    unit = (f - z) * field.l
    data_bits = 8 * len(data)
    padded = -(-data_bits // unit) * unit
    meta = ShareMeta(f, z, data_bits, padded, padded // unit)
    value = int.from_bytes(data, "big") << (padded - data_bits)
    mask = field.order - 1
    symbols = [
        (value >> (padded - (t + 1) * field.l)) & mask
        for t in range(padded // field.l)
    ]
    per = meta.symbols_per_share
    subfiles = [np.array(symbols[m * per : (m + 1) * per], dtype=field.dtype)
                for m in range(f - z)]
    return subfiles, meta


def ref_symbols_to_bytes(vec, field):
    """Reference packing: symbols MSB-first, zero-padded to whole bytes."""
    value = 0
    for sym in vec:
        value = (value << field.l) | int(sym)
    bits = len(vec) * field.l
    padded = -(-bits // 8) * 8
    return (value << (padded - bits)).to_bytes(padded // 8, "big")


shapes = st.integers(1, 8).flatmap(lambda f: st.tuples(st.just(f), st.integers(0, f - 1)))


# At l = 8 and l = 16 symbols are whole bytes and the codec is a big-endian
# view; these examples pin both widths, odd byte counts, and padding.
ODD_BYTES = bytes(range(7, 256)) + bytes(range(52))  # 301 bytes


@settings(max_examples=150, deadline=None)
@given(l=st.integers(2, 16), data=st.binary(min_size=1, max_size=300), shape=shapes)
@example(l=8, data=b"\xa5", shape=(1, 0))
@example(l=8, data=b"\x01\x80\xff", shape=(3, 1))
@example(l=8, data=ODD_BYTES, shape=(8, 3))
@example(l=16, data=b"\xa5", shape=(1, 0))
@example(l=16, data=b"\x01\x80\xff", shape=(2, 0))
@example(l=16, data=ODD_BYTES, shape=(7, 2))
def test_codec_matches_reference(l, data, shape):
    field, (f, z) = BinaryField(l), shape
    subs, meta = bytes_to_subfiles(data, f, z, field)
    ref_subs, ref_meta = ref_bytes_to_subfiles(data, f, z, field)
    assert meta == ref_meta
    assert len(subs) == len(ref_subs)
    for sub, ref in zip(subs, ref_subs):
        assert sub.dtype == ref.dtype and np.array_equal(sub, ref)
        assert symbols_to_bytes(sub, field) == ref_symbols_to_bytes(ref, field)
    assert subfiles_to_bytes(subs, meta, field) == data


@settings(max_examples=100, deadline=None)
@given(l=st.integers(2, 16), data=st.data())
def test_a_batch_is_shared_as_its_files_are_alone(l, data):
    """share_file over `count` files back to back is each file shared on
    its own: the reference codec's subfiles, each padded at its own end,
    above the file's own draw of Z * L symbols, the draws file after file,
    times the share matrix; each file's shares are its column block."""
    field = BinaryField(l)
    f, z = data.draw(shapes.filter(lambda s: 2 * s[0] <= field.order), label="F, Z")
    count = data.draw(st.integers(1, 9), label="count")
    size = data.draw(st.integers(0, 40), label="file bytes")
    files = [data.draw(st.binary(min_size=size, max_size=size)) for _ in range(count)]
    key = data.draw(st.integers(0, 2**64 - 1), label="key")
    rng = mersenne_twister(key)
    block, meta = share_file(b"".join(files), f, z, field, rng, count)
    ref = mersenne_twister(key)
    length = meta.symbols_per_share
    assert block.shape == (f, count * length)
    for i, data_i in enumerate(files):
        subs, ref_meta = ref_bytes_to_subfiles(data_i, f, z, field)
        rand = random_vector(z * length, field, ref).reshape(z, length)
        assert meta == ref_meta
        assert np.array_equal(block[:, i * length : (i + 1) * length],
                              encode_shares([*subs, *rand], field))
    assert rng.state["state"]["pos"] == ref.state["state"]["pos"]
    assert np.array_equal(rng.state["state"]["key"], ref.state["state"]["key"])


def test_a_batch_must_split_into_equal_files(gf8):
    rng = mersenne_twister(1)
    with pytest.raises(ValueError, match="do not split into 2 equal files"):
        share_file(b"abc", 4, 2, gf8, rng, 2)
    with pytest.raises(ValueError, match="do not split into 0 equal files"):
        share_file(b"abc", 4, 2, gf8, rng, 0)
    with pytest.raises(ValueError, match="into shape"):
        bytes_to_subfiles(b"abcd", 4, 2, gf8, 2, out=gf8.zeros(2, 3))
    with pytest.raises(ValueError, match="^need 0 <= Z < F, got Z=2, F=2$"):
        bytes_to_subfiles(b"ab", 2, 2, gf8)


@pytest.mark.parametrize("l", [8, 16])
def test_a_batch_of_one_symbol_files_is_reassembled(l):
    # with one symbol a subfile, each file's subfiles are a strided column
    # of the batch, not a contiguous row
    field, files = BinaryField(l), b"\xe5\x17\x80"
    subfiles, meta = bytes_to_subfiles(files, 8, 4, field, count=3)
    assert subfiles.shape == (4, 3) and meta.symbols_per_share == 1
    assert subfiles_to_bytes(subfiles, meta, field, count=3) == files


@settings(max_examples=150, deadline=None)
@given(l=st.integers(2, 16), symbols=st.lists(st.integers(0, 2**16 - 1), max_size=40))
@example(l=8, symbols=[0xA5])
@example(l=8, symbols=[1, 0x80, 0xFF])
@example(l=8, symbols=list(ODD_BYTES))
@example(l=16, symbols=[0xA5C3])
@example(l=16, symbols=[1, 0x8000, 0xFFFF])
@example(l=16, symbols=[0xFFFF - 3 * t for t in range(301)])
def test_symbols_to_bytes_matches_reference(l, symbols):
    field = BinaryField(l)
    vec = np.array([sym % field.order for sym in symbols], dtype=field.dtype)
    assert symbols_to_bytes(vec, field) == ref_symbols_to_bytes(vec, field)


def test_one_byte_symbols_become_bytes_in_one_copy():
    """At l = 8 the symbols are the bytes: reassembly copies out the kept
    bytes once, with no copy of the symbols and none to cut the padding."""
    field = BinaryField(8)
    data = bytes(range(256)) * 4096 + b"\x01"  # 1 MiB and one byte of padding
    subfiles, meta = bytes_to_subfiles(data, 4, 1, field)
    assert meta.padded_bits > meta.data_bits
    tracemalloc.start()
    try:
        back = subfiles_to_bytes(subfiles, meta, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == data
    assert peak < len(data) + 4096


@pytest.mark.parametrize("l", [3, 8, 12, 16])
@pytest.mark.parametrize("length", [1, 3, 301])
def test_bytes_to_symbols_is_a_fresh_writable_array(l, length):
    field = BinaryField(l)
    files = (ODD_BYTES[:length], ODD_BYTES[:length][::-1])
    data = b"".join(files)
    count = -(-8 * length // l) + 2  # two symbols of padding past each file
    symbols = bytes_to_symbols(data, field, count, len(files))
    assert symbols.dtype == field.dtype and symbols.shape == (2, count)
    assert symbols.flags.writeable
    assert not np.shares_memory(symbols, np.frombuffer(data, dtype=np.uint8))
    for row, file in zip(symbols, files):
        assert symbols_to_bytes(row, field)[:length] == file
    assert not symbols[:, -2:].any()
    symbols[:] = 0
    assert data == b"".join(files)


@settings(max_examples=100, deadline=None)
@given(l=st.integers(2, 16), data=st.binary(max_size=40), extra=st.integers(0, 4))
@example(l=3, data=b"", extra=4)
@example(l=12, data=b"", extra=4)
def test_bytes_to_symbols_pads_with_zero_symbols(l, data, extra):
    """Symbols past each file's data are zero, at every width and for
    empty data; a batch of the data and its reverse is one row each."""
    field = BinaryField(l)
    count = -(-8 * len(data) // l) + extra

    def expect(file):
        value = int.from_bytes(file, "big") << (count * l - 8 * len(file))
        return [(value >> (count - 1 - t) * l) & (field.order - 1) for t in range(count)]

    assert bytes_to_symbols(data, field, count).tolist() == [expect(data)]
    batch = bytes_to_symbols(data + data[::-1], field, count, 2)
    assert batch.tolist() == [expect(data), expect(data[::-1])]


def test_bytes_to_symbols_rejects_a_short_count(gf8):
    with pytest.raises(ValueError):
        bytes_to_symbols(b"\x01\x02", gf8, 1)
    with pytest.raises(ValueError):
        bytes_to_symbols(b"\x01\x02\x03\x04", gf8, 1, 2)
    with pytest.raises(ValueError, match="equal files"):
        bytes_to_symbols(b"\x01\x02\x03", gf8, 2, 2)


# -- table-driven product and one-call draws against scalar references -------------


def sparse_symbols(rng, field, shape, zero_share):
    """Uniform symbols with roughly zero_share of them forced to 0."""
    out = rng.integers(0, field.order, size=shape)
    out[rng.random(shape) < zero_share] = 0
    return out.astype(field.dtype)


def matmul_examples(test):
    """Pin both kernels, l <= 8 (product rows) and l > 8 (exp/log)."""
    cases = [
        dict(shape=(8, 3), length=300, seed=1, zero_share=0.3),
        # a zero coefficient against nonzero symbols
        dict(shape=(2, 0), length=7, seed=2, zero_share=0.0, coeffs=[[0, 3], [5, 0]]),
        # all-zero symbols against nonzero coefficients
        dict(shape=(2, 0), length=7, seed=3, zero_share=1.0, coeffs=[[2, 3], [5, 7]]),
        dict(shape=(4, 1), length=0, seed=4, zero_share=0.3),
        # the 1 x 1 share matrix of the M = 0 scheme
        dict(shape=(1, 0), length=9, seed=5, zero_share=0.0, coeffs=[[1]]),
    ]
    for l in (8, 16):
        for case in cases:
            test = example(l=l, **{"coeffs": None, **case})(test)
    return test


def gather_examples(test):
    """Pin the l <= 8 gather at every padded row width (R products pad to
    1, 2, 4 or 8k bytes), with no coefficient columns, with no symbols,
    and across the chunks that keep a gather within its byte budget."""
    def chunk(rows, columns):
        return _GATHER_BUDGET_BYTES // (columns * (_padded_width(rows) + 8))

    cases = [
        dict(shape=(r + 1, 1), length=7, seed=10 + r, zero_share=0.3)
        for r in (1, 2, 3, 4, 5, 8, 9, 16, 17)
    ] + [
        # three rows of no coefficient columns
        dict(shape=(3, 0), length=5, seed=30, zero_share=0.0, coeffs=[[], [], []]),
        dict(shape=(9, 4), length=0, seed=31, zero_share=0.3),
        dict(shape=(4, 3), length=2 * chunk(1, 4) + 5, seed=32, zero_share=0.3),
        dict(shape=(2, 0), length=chunk(9, 2) + 3, seed=33, zero_share=0.3,
             coeffs=[[3, 1], [0, 5], [7, 2], [1, 1], [6, 4], [2, 0], [5, 5],
                     [4, 7], [1, 6]]),
        # one coefficient column, a take and a reduce over one term, across
        # the chunks and with R padded to 4 and to 16 bytes
        dict(shape=(1, 0), length=chunk(3, 1) + 5, seed=34, zero_share=0.3,
             coeffs=[[3], [0], [5]]),
        dict(shape=(1, 0), length=40, seed=35, zero_share=0.3,
             coeffs=[[c % 7 + 1] for c in range(9)]),
    ]
    for l in (3, 8):
        for case in cases:
            test = example(l=l, **{"coeffs": None, **case})(test)
    return test


@settings(max_examples=120, deadline=None)
@given(
    l=st.integers(2, 16),
    shape=shapes,
    length=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    coeffs=st.none(),
)
@matmul_examples
@gather_examples
def test_matmul_matches_scalar_oracle(l, shape, length, seed, zero_share, coeffs):
    """F - Z rows of F coefficients, as reconstruct_file multiplies (Z = 0: encode).

    The coefficients are drawn from the seed, like the symbols, unless an
    example pins them; then their matrix gives the shape."""
    (f, z), field, rng = shape, BinaryField(l), np.random.default_rng(seed)
    if coeffs is None:
        rows = sparse_symbols(rng, field, (f - z, f), zero_share)
    else:
        rows = np.array(coeffs, dtype=field.dtype)
    vectors = sparse_symbols(rng, field, (rows.shape[1], length), zero_share)
    got = field.matmul(rows, vectors)
    assert got.shape == (len(rows), length)
    mul = lru_cache(maxsize=None)(field.mul)
    for row, out in zip(rows.tolist(), got):
        assert out.dtype == field.dtype and out.shape == (length,)
        expect = [0] * length
        for coeff, vec in zip(row, vectors.tolist()):
            for t, sym in enumerate(vec):
                expect[t] ^= mul(coeff, sym)
        assert out.tolist() == expect


@pytest.mark.parametrize("l", [3, 8, 16])
def test_matmul_rejects_elements_outside_the_field(l):
    """Neither kernel wraps an out-of-field input into the field, and a
    symbol 2^l of one column is not read from the next column's products."""
    field = BinaryField(l)
    with pytest.raises(IndexError):
        field.matmul(np.array([[1, field.order]]), field.zeros(2, 3))
    if l < 8:
        with pytest.raises(IndexError):
            field.matmul([[1]], np.full((1, 3), field.order, dtype=field.dtype))
    symbols = np.zeros((3, 4), dtype=np.int64)
    symbols[0, 2] = field.order
    with pytest.raises(IndexError):
        field.matmul([[1, 2, 3], [4, 5, 6]], symbols)


def same_state(rng: np.random.MT19937, ref: random.Random) -> bool:
    """Both generators hold the same 624 Mersenne Twister words at the same
    position."""
    state = rng.state["state"]
    return ref.getstate()[1] == (*state["key"].tolist(), state["pos"])


def draw_ops():
    """A mix of random_vector lengths and plain word counts, some of them
    past a 624-word block."""
    return st.lists(
        st.one_of(
            st.tuples(st.just("vector"), st.integers(0, 40)),
            st.tuples(st.just("words"), st.integers(0, 700)),
        ),
        max_size=8,
    )


@settings(max_examples=100, deadline=None)
@given(key=st.integers(0, 2**64 - 1), sizes=st.lists(st.integers(0, 1400), max_size=5))
@example(key=0, sizes=[0, 1, 623, 1, 700])
@example(key=1, sizes=[0, 1, 623, 1, 700])
@example(key=2**32 - 1, sizes=[0, 1, 623, 1, 700])
@example(key=2**32, sizes=[0, 1, 623, 1, 700])
@example(key=2**64 - 1, sizes=[0, 1, 623, 1, 700])
def test_mersenne_twister_draws_the_words_of_random_random(key, sizes):
    rng, ref = mersenne_twister(key), random.Random(key)
    assert same_state(rng, ref)
    for size in sizes:
        words = random_words(size, rng)
        assert words.dtype == np.uint64
        assert words.tolist() == [ref.getrandbits(32) for _ in range(size)]
        assert same_state(rng, ref)


@pytest.mark.parametrize("key", [0, 7, 2**32, 2**64 - 1])
def test_raw_words_are_the_words_randint_drew(key):
    """random_words reads the bit generator raw; RandomState.randint over
    the full 32-bit range, the draw it replaced, gives the same words."""
    legacy = np.random.RandomState(mersenne_twister(key))
    rng = mersenne_twister(key)
    for size in (5000, 1, 0, 623):
        words = random_words(size, rng)
        assert words.dtype == np.uint64
        assert np.array_equal(words, legacy.randint(2**32, size=size, dtype=np.uint32))


@pytest.mark.parametrize("key", [-1, 2**64])
def test_mersenne_twister_keys_fit_in_64_bits(key):
    with pytest.raises(ValueError, match="64 bits"):
        mersenne_twister(key)


@settings(max_examples=100, deadline=None)
@given(l=st.integers(2, 16), key=st.integers(0, 2**64 - 1), ops=draw_ops())
def test_random_vector_keeps_the_per_symbol_stream(l, key, ops):
    field = BinaryField(l)
    rng, ref = mersenne_twister(key), random.Random(key)
    for kind, n in ops:
        if kind == "vector":
            vec = random_vector(n, field, rng)
            assert vec.dtype == field.dtype
            assert vec.tolist() == [ref.getrandbits(l) for _ in range(n)]
        else:
            assert random_words(n, rng).tolist() == [ref.getrandbits(32) for _ in range(n)]
        assert same_state(rng, ref)


@pytest.mark.parametrize("l", [8, 16])
def test_random_vector_across_its_word_chunks(l):
    # one whole chunk of WORDS_PER_CALL words, then 5 symbols of the next
    field, n = BinaryField(l), WORDS_PER_CALL + 5
    rng, ref = mersenne_twister(11), random.Random(11)
    vec = random_vector(n, field, rng)
    assert vec.dtype == field.dtype and vec.shape == (n,)
    assert vec.tolist() == [ref.getrandbits(l) for _ in range(n)]
    assert same_state(rng, ref)


def test_random_vector_of_length_zero_draws_nothing(gf8):
    rng, ref = mersenne_twister(4), random.Random(4)
    assert random_vector(0, gf8, rng).shape == (0,)
    assert same_state(rng, ref)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    num_files=st.integers(1, 6),
    file_bytes=st.integers(1, 600),
)
# Each file takes two or more batches of WORDS_PER_CALL words, and the
# bytes a batch holds past one file's end open the next file.
@example(seed=3, num_files=3, file_bytes=200_003)
def test_synthetic_library_matches_per_byte_randrange(seed, num_files, file_bytes):
    config = SystemConfig(
        num_caches=1, num_users=1, num_files=num_files, helper_memory=Fraction(0),
        file_bytes=file_bytes, seed=seed,
    )
    digest = hashlib.sha256(f"{seed}:library".encode()).digest()
    ref = random.Random(int.from_bytes(digest[:8], "big"))
    expect = tuple(
        bytes(ref.randrange(256) for _ in range(file_bytes)) for _ in range(num_files)
    )
    assert synthetic_library(config) == expect
